//! The seven storage-kernel rules, R3–R9, over lexed token streams.
//!
//! | rule | scope | contract |
//! |------|-------|----------|
//! | R3 | kernel modules | no wall-clock or thread calls (determinism) |
//! | R4 | kernel modules | panicking `pub fn`s must return `Result` |
//! | R5 | engine modules | WAL-before-buffer, sync-before-commit, commit-before-truncate |
//! | R6 | durability modules | `rename` then `sync_dir`; every fsync behind a fault hook |
//! | R7 | decoder modules | decoded lengths bounds-checked before allocation |
//! | R8 | lock modules | fixed lock order; no guard held across I/O or sends |
//! | R9 | engine modules | metric mutations emit a typed obs event |
//!
//! R5 and R8 judge helper calls through the crate-wide
//! [`CallGraph`], so a contract split across
//! files is checked at the call site instead of being invisible.
//!
//! Rule numbering starts at R3: R1 (no panics in library code) and R2
//! (`forbid(unsafe_code)`) are the workspace's clippy/rustc lints now
//! (`[workspace.lints]` in the root `Cargo.toml`).
//!
//! Every rule honours `// seplint: allow(Rn): reason` on the offending
//! line or the line above, and none of them look inside `#[cfg(test)]`
//! items or `#[test]` functions.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use crate::callgraph::{
    parse_functions, strip_test_items, CallGraph, STORE_OPS, WAL_OPS,
};
use crate::lexer::{lex, LexOutput, Token, TokenKind};
use crate::Violation;

/// Wall-clock and thread identifiers banned from deterministic kernel
/// modules by R3.
const NONDETERMINISTIC: &[&str] = &[
    "SystemTime",
    "Instant",
    "spawn",
    "yield_now",
    "sleep",
    "park",
];

/// Panicking macros whose *debug-only* or *statically-proven* variants are
/// exempt from R4 by design: `debug_assert!` family disappears in release
/// builds, and `unreachable!` marks arms the type system cannot remove.
/// (These are distinct identifiers, so they never collide with the banned
/// `assert`/`panic` tokens.)
const R4_BANNED_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne"];

fn violation(
    path: &Path,
    line: usize,
    rule: &'static str,
    message: impl Into<String>,
) -> Violation {
    Violation {
        file: path.to_path_buf(),
        line,
        rule,
        message: message.into(),
    }
}

/// R3: deterministic kernel modules must not read wall clocks or touch
/// threads — replays and proptest shrinking depend on pure state machines.
pub fn deterministic_kernel(path: &Path, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let mut out = Vec::new();
    for t in &tokens {
        let Some(id) = t.ident() else { continue };
        if NONDETERMINISTIC.contains(&id) && !lexed.is_allowed(t.line, "R3") {
            out.push(violation(
                path,
                t.line,
                "R3",
                format!("`{id}` makes a deterministic kernel module nondeterministic"),
            ));
        }
    }
    out
}

/// R4: a public kernel function whose body can panic (`panic!`,
/// `.unwrap(`, `.expect(`, `assert!`-family) must return `Result` so the
/// failure reaches the caller as the shared error type. `debug_assert!`
/// and `unreachable!` are exempt by design (see `R4_BANNED_MACROS`).
pub fn kernel_returns_results(path: &Path, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let mut out = Vec::new();
    for func in parse_functions(&tokens) {
        if !func.is_pub || func.returns_result {
            continue;
        }
        let body = &tokens[func.body.clone()];
        for (i, t) in body.iter().enumerate() {
            let Some(id) = t.ident() else { continue };
            let panics = match id {
                "unwrap" | "expect" => {
                    i > 0
                        && body[i - 1].is_punct('.')
                        && body.get(i + 1).is_some_and(|n| n.is_punct('('))
                }
                m if R4_BANNED_MACROS.contains(&m) => {
                    body.get(i + 1).is_some_and(|n| n.is_punct('!'))
                }
                _ => false,
            };
            if panics && !lexed.is_allowed(t.line, "R4") {
                out.push(violation(
                    path,
                    t.line,
                    "R4",
                    format!(
                        "pub fn `{}` can panic (`{id}`) but does not return `Result`",
                        func.name
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R5: durability-ordering lint (call-graph aware).
// ---------------------------------------------------------------------------

/// What a durability-relevant event *is*; see [`Ev`] for where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EvKind {
    /// `wal.append(...)` / `wal.append_for(...)` — the point entered the
    /// log before buffering.
    WalAppend,
    /// `buffers.insert(...)` — a point entered a MemTable.
    BufferInsert,
    /// `wal.checkpoint(...)` — the WAL let go of a range: the points in it
    /// must be in tables a synced manifest commit names.
    WalCheckpoint,
    /// The cut `wal.rewrite(...)` — the WAL let go of everything but a
    /// survivor set.
    WalCut,
    /// `sync_published(...)` — the published tables are durable.
    TableSync,
    /// A manifest commit (`commit_groups`, an engine's own or a fleet's —
    /// whose series keep neither log nor manifest): it names tables, so
    /// they must have been synced first, and once they were it is what
    /// covers a checkpoint.
    ManifestCommit,
    /// Other evidence that what a cut drops is covered elsewhere: a
    /// manifest touched by name (`manifest`) or a still-queryable flushing
    /// registration (`RegisterFlushing`).
    Cover,
    /// A recovery / migration source (`replay`, `migrate`): points flowing
    /// from here were already durable, so they need no fresh WAL append,
    /// and cutting the WAL around them is the *point* of the path.
    Source,
    /// Call to another function defined somewhere in the indexed crate.
    Call(String),
}

/// One durability-relevant event: its kind, the line it is judged at (the
/// call-site line for events inlined through the graph), and the helper it
/// was inlined from, if any.
#[derive(Debug, Clone)]
struct Ev {
    kind: EvKind,
    line: usize,
    via: Option<String>,
}

/// Identifiers that count as [`EvKind::ManifestCommit`].
const COMMIT_IDENTS: &[&str] = &["commit_groups"];

/// Identifiers that count as [`EvKind::Cover`].
const COVER_IDENTS: &[&str] = &["manifest", "RegisterFlushing"];

/// Identifiers that count as [`EvKind::Source`].
const SOURCE_IDENTS: &[&str] = &["replay", "migrate"];

/// How many helper levels R5 inlines into a function it judges.
const EXPANSION_DEPTH: usize = 3;

/// Extracts the event sequence of one function body. A `wal.rewrite` or
/// `wal.checkpoint` preceded by `Wal::open` in the same body is
/// *initialization* — the function opened the log itself and is cutting
/// it to the full current snapshot before attaching it — and produces no
/// truncate event.
fn extract_events(body: &[Token], graph: &CallGraph) -> Vec<Ev> {
    let mut events = Vec::new();
    let mut opened_wal = false;
    for (i, t) in body.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        let next_dot_method = |method: &str| {
            body.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && body.get(i + 2).is_some_and(|n| n.is_ident(method))
        };
        let ev = |kind| Ev {
            kind,
            line: t.line,
            via: None,
        };
        if id == "Wal"
            && body.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && body.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && body.get(i + 3).is_some_and(|n| n.is_ident("open"))
        {
            opened_wal = true;
        } else if id == "wal"
            && (next_dot_method("append") || next_dot_method("append_for"))
        {
            events.push(ev(EvKind::WalAppend));
        } else if id == "wal" && next_dot_method("checkpoint") {
            if !opened_wal {
                events.push(ev(EvKind::WalCheckpoint));
            }
        } else if id == "wal" && next_dot_method("rewrite") {
            if !opened_wal {
                events.push(ev(EvKind::WalCut));
            }
        } else if id == "buffers" && next_dot_method("insert") {
            events.push(ev(EvKind::BufferInsert));
        } else if id == "sync_published" {
            events.push(ev(EvKind::TableSync));
        } else if COMMIT_IDENTS.contains(&id) {
            events.push(ev(EvKind::ManifestCommit));
        } else if COVER_IDENTS.contains(&id) {
            events.push(ev(EvKind::Cover));
        } else if SOURCE_IDENTS.contains(&id) {
            events.push(ev(EvKind::Source));
        } else if graph.defines(id)
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            events.push(ev(EvKind::Call(id.to_string())));
        }
    }
    events
}

/// Expands calls (up to `depth` levels) into the caller's event sequence
/// through the crate-wide graph, so ordering is judged across helper *and
/// file* boundaries. Inlined events are re-anchored at the call-site line
/// and remember the helper they came from.
fn expand(events: &[Ev], graph: &CallGraph, depth: usize) -> Vec<Ev> {
    let mut out = Vec::new();
    for e in events {
        match &e.kind {
            EvKind::Call(name) if depth > 0 => {
                for mut inlined in expand_callee(name, graph, depth - 1) {
                    inlined.line = e.line;
                    inlined.via.get_or_insert_with(|| name.clone());
                    out.push(inlined);
                }
            }
            EvKind::Call(_) => {}
            _ => out.push(e.clone()),
        }
    }
    out
}

/// The events of every definition of `name`, expanded `depth` levels
/// further.
fn expand_callee(name: &str, graph: &CallGraph, depth: usize) -> Vec<Ev> {
    let mut out = Vec::new();
    for def in graph.defs_named(name) {
        let callee = extract_events(&def.body, graph);
        out.extend(expand(&callee, graph, depth));
    }
    out
}

/// `true` when `events` are checkpoints and cuts and nothing else.
fn only_truncates(events: &[&Ev]) -> bool {
    !events.is_empty()
        && events
            .iter()
            .all(|e| matches!(e.kind, EvKind::WalCheckpoint | EvKind::WalCut))
}

/// Whether every definition of `name` that has events of its own has only
/// checkpoints and cuts: a leaf helper, judged at its call sites.
fn truncate_only_helper(name: &str, graph: &CallGraph) -> bool {
    let mut any = false;
    for def in graph.defs_named(name) {
        let events = extract_events(&def.body, graph);
        let own: Vec<&Ev> = events
            .iter()
            .filter(|e| !matches!(e.kind, EvKind::Call(_)))
            .collect();
        if own.is_empty() {
            continue;
        }
        if !only_truncates(&own) {
            return false;
        }
        any = true;
    }
    any
}

/// The event sequence a function is judged by: its own events with every
/// call inlined ([`EXPANSION_DEPTH`] levels). The checkpoints and cuts a
/// helper of its own performs are left out — that helper is judged where
/// it is defined — unless the helper is a leaf that does nothing else.
fn expand_judged(events: &[Ev], graph: &CallGraph) -> Vec<Ev> {
    let mut out = Vec::new();
    for e in events {
        let EvKind::Call(name) = &e.kind else {
            out.push(e.clone());
            continue;
        };
        let leaf = truncate_only_helper(name, graph);
        for mut inlined in expand_callee(name, graph, EXPANSION_DEPTH - 1) {
            let truncate =
                matches!(inlined.kind, EvKind::WalCheckpoint | EvKind::WalCut);
            if truncate && !leaf {
                continue;
            }
            inlined.line = e.line;
            inlined.via.get_or_insert_with(|| name.clone());
            out.push(inlined);
        }
    }
    out
}

/// R5 against a single file, with helper calls resolved within that file
/// only (the pre-graph behaviour; used by fixtures and direct callers).
pub fn durability_order(path: &Path, src: &str) -> Vec<Violation> {
    let graph = CallGraph::build(&[(path.to_path_buf(), src.to_string())]);
    durability_order_with(path, src, &graph)
}

/// R5: in the engine modules, every `buffers.insert` must be dominated by a
/// `wal.append` / `wal.append_for` (or a replay/migrate source); every
/// manifest commit by a table sync (`sync_published`), because it names the
/// tables; every `wal.checkpoint` by such a synced commit; and every cut
/// (`wal.rewrite`) by a commit, a manifest record, a flushing registration
/// or a source. Helpers whose only events are checkpoints and cuts are
/// judged at their call sites instead (`checkpoint_retired` is deliberately
/// a leaf), and calls are resolved through the crate-wide graph, so a helper
/// defined in another file is judged with its caller's context.
pub fn durability_order_with(
    path: &Path,
    src: &str,
    graph: &CallGraph,
) -> Vec<Violation> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let functions = parse_functions(&tokens);

    // Names invoked from anywhere in the indexed crate: truncate-only
    // helpers among them are judged at their call sites, not here.
    let called = graph.called_names();

    let mut out = Vec::new();
    for f in &functions {
        let events = extract_events(&tokens[f.body.clone()], graph);
        let non_call: Vec<&Ev> = events
            .iter()
            .filter(|e| !matches!(e.kind, EvKind::Call(_)))
            .collect();
        let truncate_only =
            called.contains(f.name.as_str()) && only_truncates(&non_call);
        let expanded = expand_judged(&events, graph);
        let mut covered_append = false;
        let mut covered_cut = false;
        let mut synced = false;
        let mut committed = false;
        let mut flag = |e: &Ev, what: String| {
            if !lexed.is_allowed(e.line, "R5") {
                out.push(violation(path, e.line, "R5", what));
            }
        };
        for e in &expanded {
            let via = e
                .via
                .as_ref()
                .map(|h| format!(" (via `{h}`)"))
                .unwrap_or_default();
            match &e.kind {
                EvKind::WalAppend => covered_append = true,
                EvKind::TableSync => synced = true,
                EvKind::ManifestCommit => {
                    covered_cut = true;
                    committed |= synced;
                    if !synced {
                        flag(
                            e,
                            format!(
                                "`{}` commits a manifest record{via} before \
                                 the tables it names are synced \
                                 (`sync_published`)",
                                f.name
                            ),
                        );
                    }
                }
                EvKind::Cover => covered_cut = true,
                EvKind::Source => {
                    covered_append = true;
                    covered_cut = true;
                }
                EvKind::BufferInsert if !covered_append => flag(
                    e,
                    format!(
                        "`{}` buffers a point before any WAL append{via} \
                         (WAL-before-buffer violated)",
                        f.name
                    ),
                ),
                EvKind::WalCheckpoint if !truncate_only && !committed => flag(
                    e,
                    format!(
                        "`{}` checkpoints the WAL{via} before a manifest \
                         commit of synced tables covers the range",
                        f.name
                    ),
                ),
                EvKind::WalCut if !truncate_only && !covered_cut => flag(
                    e,
                    format!(
                        "`{}` truncates the WAL{via} before the dropped data \
                         is covered by a manifest record or flushing \
                         registration",
                        f.name
                    ),
                ),
                _ => {}
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message);
    out
}

// ---------------------------------------------------------------------------
// R6: physical-durability lint (rename-then-sync-dir, hooked fsyncs).
// ---------------------------------------------------------------------------

/// Calls that end in a physical fsync.
const FSYNC_CALLS: &[&str] = &["sync_all", "sync_data", "sync_dir"];

/// The fault-plan hooks that count an I/O op (`fault::hook`,
/// `write_hooked`).
const FAULT_HOOKS: &[&str] = &["hook", "write_hooked"];

/// R6, in the durability modules, per function body:
///
/// * a tmp-write + fsync + `rename` makes the *file contents* durable, but
///   the new directory entry itself only survives a crash once the parent
///   directory is fsynced — every `rename(...)` must be followed by a
///   `sync_dir`;
/// * every fsync (`sync_all` / `sync_data` / `sync_dir`) must have a
///   fault-plan hook of its own — one between it and the previous fsync or
///   rename — so the op is counted by the I/O trace (the benchmark's
///   `fsyncs_per_kpoint`) and reachable by crash schedules — an un-hooked
///   fsync is a cost nobody can see or crash-test.
///
/// The `sync_dir` helper itself is the primitive and is exempt, and so is
/// the block of an `if let Some(..) = ..write_hooked(..)? { .. }`: it *is*
/// the injected crash, persisting the prefix a power cut would have left.
pub fn rename_syncs_dir(path: &Path, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let mut out = Vec::new();
    for func in parse_functions(&tokens) {
        if func.name == "sync_dir" {
            continue;
        }
        let body = &tokens[func.body.clone()];
        let calls = |i: usize, names: &[&str]| {
            body[i].ident().is_some_and(|id| names.contains(&id))
                && body.get(i + 1).is_some_and(|n| n.is_punct('('))
        };
        let torn = torn_blocks(body);
        for (i, t) in body.iter().enumerate() {
            if calls(i, &["rename"]) {
                let synced_later =
                    body[i + 1..].iter().any(|n| n.is_ident("sync_dir"));
                if !synced_later && !lexed.is_allowed(t.line, "R6") {
                    out.push(violation(
                        path,
                        t.line,
                        "R6",
                        format!(
                            "`{}` renames without a later `sync_dir` — the \
                             new directory entry may not survive a crash",
                            func.name
                        ),
                    ));
                }
            }
            if calls(i, FSYNC_CALLS) && !torn[i] {
                // The nearest earlier hook, fsync or rename must be a hook:
                // a hook further back already paid for another op.
                let hooked = (0..i)
                    .rev()
                    .filter(|j| !torn[*j])
                    .find(|j| {
                        calls(*j, FAULT_HOOKS)
                            || calls(*j, FSYNC_CALLS)
                            || calls(*j, &["rename"])
                    })
                    .is_some_and(|j| calls(j, FAULT_HOOKS));
                if !hooked && !lexed.is_allowed(t.line, "R6") {
                    out.push(violation(
                        path,
                        t.line,
                        "R6",
                        format!(
                            "`{}` fsyncs (`{}`) with no fault-plan hook \
                             of its own before it — the op is invisible to \
                             the I/O trace and to crash schedules",
                            func.name,
                            t.ident().unwrap_or_default()
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Marks the tokens of `body` that sit inside the block a torn write runs:
/// the `{ .. }` of an `if let Some(..) = ..write_hooked(..)? { .. }`.
fn torn_blocks(body: &[Token]) -> Vec<bool> {
    let mut inside = vec![false; body.len()];
    for (i, t) in body.iter().enumerate() {
        let called = body.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !t.is_ident("write_hooked") || !called {
            continue;
        }
        // Past the call's balanced argument list and its `?`.
        let mut depth = 0usize;
        let Some(close) = (i + 1..body.len()).find(|j| {
            if body[*j].is_punct('(') {
                depth += 1;
            } else if body[*j].is_punct(')') {
                depth -= 1;
            }
            depth == 0
        }) else {
            continue;
        };
        let open = close + 2;
        if !body.get(close + 1).is_some_and(|n| n.is_punct('?'))
            || !body.get(open).is_some_and(|n| n.is_punct('{'))
        {
            continue;
        }
        let mut depth = 0usize;
        for (j, n) in body.iter().enumerate().skip(open) {
            inside[j] = true;
            if n.is_punct('{') {
                depth += 1;
            } else if n.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    inside
}

// ---------------------------------------------------------------------------
// R7: untrusted-length allocation lint.
// ---------------------------------------------------------------------------

/// Byte-decoding calls whose integer results are attacker-controlled in
/// the decoder modules (a corrupt SSTable, WAL or manifest chooses them).
const DECODE_SOURCES: &[&str] = &[
    "get_u16_le",
    "get_u32_le",
    "get_u64_le",
    "get_i64_le",
    "read_u16_le",
    "read_u32_le",
    "read_u64_le",
    "read_i64_le",
    "get_uvarint",
    "get_ivarint",
];

/// `true` when the identifier is bounds-check evidence: comparing against
/// the input's length/remaining bytes, clamping with `.min(...)`, or a
/// named cap constant (`..MAX..`, `..CAP..`, `..LIMIT..`).
fn is_bound_ident(id: &str) -> bool {
    if matches!(id, "len" | "remaining" | "min") {
        return true;
    }
    id.chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        && (id.contains("MAX") || id.contains("CAP") || id.contains("LIMIT"))
}

/// R7: in decoder modules, a length/count decoded from untrusted bytes must
/// be bounds-checked (against the remaining input or a named cap) before it
/// sizes an allocation — `Vec::with_capacity(n)`, `vec![x; n]`,
/// `.reserve(n)`. Otherwise a corrupt file chooses the allocation size and
/// a 4-byte flip can OOM salvage recovery.
///
/// The analysis is a per-function, statement-granular taint pass: `let`
/// bindings whose initializer calls a `DECODE_SOURCES` routine become
/// tainted roots; derived bindings inherit their roots; any statement that
/// mentions a tainted name together with bounds evidence
/// (`is_bound_ident`) sanitizes those roots. Slice reads are out of
/// scope: the workspace routes them through the checked `codec`/`varint`
/// helpers, which R7 instead treats as taint sources.
pub fn untrusted_len(path: &Path, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let mut out = Vec::new();
    for func in parse_functions(&tokens) {
        let body = &tokens[func.body.clone()];
        check_untrusted_len_fn(path, &func.name, body, &lexed, &mut out);
    }
    out
}

/// Taint state and statement scan for one function body (see
/// [`untrusted_len`]).
fn check_untrusted_len_fn(
    path: &Path,
    fn_name: &str,
    body: &[Token],
    lexed: &LexOutput,
    out: &mut Vec<Violation>,
) {
    // ident -> the tainted roots its value derives from.
    let mut taint: HashMap<String, HashSet<String>> = HashMap::new();
    let mut sanitized: HashSet<String> = HashSet::new();

    let mut start = 0;
    let mut nest = 0usize; // '(' / '[' depth: a ';' inside `vec![x; n]`
                           // or a closure argument is not a statement end.
    for i in 0..=body.len() {
        if let Some(t) = body.get(i) {
            match t.kind {
                TokenKind::Punct('(' | '[') => nest += 1,
                TokenKind::Punct(')' | ']') => nest = nest.saturating_sub(1),
                _ => {}
            }
        }
        let boundary = i == body.len()
            || (nest == 0
                && matches!(body[i].kind, TokenKind::Punct('{' | '}' | ';')));
        if !boundary {
            continue;
        }
        let stmt = &body[start..i];
        start = i + 1;
        if stmt.is_empty() {
            continue;
        }

        let has_bound =
            stmt.iter().any(|t| t.ident().is_some_and(is_bound_ident));

        // Sanitize first: a statement that compares (or clamps) a tainted
        // name against a bound clears every root it derives from, and an
        // inline `n.min(CAP)` clamp at the allocation site counts too.
        if has_bound {
            let mut cleared: Vec<String> = Vec::new();
            for t in stmt {
                if let Some(id) = t.ident() {
                    if let Some(roots) = taint.get(id) {
                        cleared.extend(roots.iter().cloned());
                    }
                }
            }
            sanitized.extend(cleared);
        }

        // Taint propagation through `let` bindings.
        if stmt.first().is_some_and(|t| t.is_ident("let")) {
            if let Some(eq) = stmt.iter().position(|t| t.is_punct('=')) {
                let (pat, rhs) = (&stmt[1..eq], &stmt[eq + 1..]);
                let direct = rhs.iter().enumerate().any(|(k, t)| {
                    t.ident().is_some_and(|id| DECODE_SOURCES.contains(&id))
                        && rhs.get(k + 1).is_some_and(|n| n.is_punct('('))
                });
                let mut roots: HashSet<String> = rhs
                    .iter()
                    .filter_map(Token::ident)
                    .filter_map(|id| taint.get(id))
                    .flatten()
                    .cloned()
                    .collect();
                let bound_names: Vec<&str> = pat
                    .iter()
                    .filter_map(Token::ident)
                    .filter(|id| !matches!(*id, "mut" | "ref"))
                    .collect();
                if direct {
                    for name in &bound_names {
                        roots.insert((*name).to_string());
                    }
                }
                if !roots.is_empty() && !has_bound {
                    for name in bound_names {
                        taint
                            .entry(name.to_string())
                            .or_default()
                            .extend(roots.iter().cloned());
                    }
                }
            }
        }

        if has_bound {
            continue; // allocation guarded in the same statement
        }

        // Allocation sinks.
        for (k, t) in stmt.iter().enumerate() {
            let Some(id) = t.ident() else { continue };
            let args = match id {
                "with_capacity"
                    if stmt.get(k + 1).is_some_and(|n| n.is_punct('(')) =>
                {
                    group(stmt, k + 1, '(', ')')
                }
                "reserve"
                    if k > 0
                        && stmt[k - 1].is_punct('.')
                        && stmt.get(k + 1).is_some_and(|n| n.is_punct('(')) =>
                {
                    group(stmt, k + 1, '(', ')')
                }
                "vec" if stmt.get(k + 1).is_some_and(|n| n.is_punct('!')) => {
                    // `vec![elem; n]`: only the repeat count after `;`
                    // sizes the allocation.
                    let g = group(stmt, k + 2, '[', ']');
                    g.iter()
                        .position(|t| t.is_punct(';'))
                        .map(|semi| g[semi + 1..].to_vec())
                        .unwrap_or_default()
                }
                _ => continue,
            };
            for (a, arg) in args.iter().enumerate() {
                let Some(aid) = arg.ident() else { continue };
                let direct_source = DECODE_SOURCES.contains(&aid)
                    && args.get(a + 1).is_some_and(|n| n.is_punct('('));
                let unsanitized_taint = taint.get(aid).is_some_and(|roots| {
                    roots.iter().any(|r| !sanitized.contains(r))
                });
                if (direct_source || unsanitized_taint)
                    && !lexed.is_allowed(t.line, "R7")
                {
                    out.push(violation(
                        path,
                        t.line,
                        "R7",
                        format!(
                            "`{fn_name}` sizes an allocation with `{aid}`, \
                             decoded from untrusted bytes, without a bounds \
                             check against the remaining input or a named cap"
                        ),
                    ));
                    break; // one finding per sink
                }
            }
        }
    }
}

/// The tokens inside the bracket group opening at `stmt[open]` (exclusive
/// of the brackets); empty if `stmt[open]` is not `open_c`.
fn group(
    stmt: &[Token],
    open: usize,
    open_c: char,
    close_c: char,
) -> Vec<Token> {
    if !stmt.get(open).is_some_and(|t| t.is_punct(open_c)) {
        return Vec::new();
    }
    let mut depth = 0usize;
    for (i, t) in stmt.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return stmt[open + 1..i].to_vec();
            }
        }
    }
    stmt[open + 1..].to_vec() // unterminated (statement boundary split)
}

// ---------------------------------------------------------------------------
// R8: lock-discipline lint.
// ---------------------------------------------------------------------------

/// The documented lock-acquisition order, outermost first. Unknown lock
/// names rank innermost (they may be acquired under anything, but nothing
/// known may be acquired under them while they are held).
const LOCK_RANKS: &[(&str, usize)] = &[
    // Engine tier state — the outermost lock.
    ("state", 0),
    ("worker_state", 0),
    ("state_mutex", 0),
    // Block-cache structures.
    ("indexes", 1),
    ("shard", 1),
    ("shards", 1),
    ("shard_for", 1),
    // Store / sink internals — innermost.
    ("inner", 2),
    ("next_id", 2),
];

fn lock_rank(name: &str) -> usize {
    LOCK_RANKS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(usize::MAX, |(_, r)| *r)
}

/// Channel operations that must not run while a `MutexGuard` is live (a
/// bounded-channel send can block indefinitely behind backpressure).
const CHANNEL_OPS: &[&str] =
    &["send", "try_send", "recv", "recv_timeout", "try_recv"];

/// A live `let`-bound `MutexGuard`.
struct Guard {
    var: String,
    lock: String,
    rank: usize,
    depth: usize,
}

/// R8 against a single file with no cross-file call knowledge (fixtures and
/// direct callers).
pub fn lock_discipline(path: &Path, src: &str) -> Vec<Violation> {
    lock_discipline_with(path, src, &CallGraph::empty())
}

/// R8: in the lock modules, (a) locks are acquired in the documented order
/// (`LOCK_RANKS`: tier state → cache → store internals), and (b) no
/// `MutexGuard` is held across store/WAL/filesystem I/O or a channel
/// operation — directly or through a helper whose crate-wide call-graph
/// summary reaches I/O. Manifest writes and `obs` event emission are
/// deliberately exempt: the manifest is the metadata journal and must stay
/// serialized with the version edits it mirrors, and observer sinks are
/// wait-free buffers.
///
/// Tracking is lexical: a guard is born at `let g = <lock>.lock();`, dies
/// at `drop(g)` or its enclosing block's `}`, and guards created and
/// consumed inside one statement (`x.lock().field.clone()`) are not held
/// across anything by construction.
pub fn lock_discipline_with(
    path: &Path,
    src: &str,
    graph: &CallGraph,
) -> Vec<Violation> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let mut out = Vec::new();
    for func in parse_functions(&tokens) {
        let body = &tokens[func.body.clone()];
        check_lock_fn(path, &func.name, body, &lexed, graph, &mut out);
    }
    out.sort_by_key(|v| v.line);
    out.dedup_by(|a, b| a.line == b.line);
    out
}

/// Guard-liveness walk for one function body (see
/// [`lock_discipline_with`]).
fn check_lock_fn(
    path: &Path,
    fn_name: &str,
    body: &[Token],
    lexed: &LexOutput,
    graph: &CallGraph,
    out: &mut Vec<Violation>,
) {
    let mut live: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut push = |line: usize, message: String| {
        if !lexed.is_allowed(line, "R8") {
            out.push(Violation {
                file: path.to_path_buf(),
                line,
                rule: "R8",
                message,
            });
        }
    };
    for (i, t) in body.iter().enumerate() {
        match &t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                continue;
            }
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
                continue;
            }
            _ => {}
        }
        let Some(id) = t.ident() else { continue };

        // `drop(g)` ends a guard early.
        if id == "drop" && body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(var) = body.get(i + 2).and_then(Token::ident) {
                if body.get(i + 3).is_some_and(|n| n.is_punct(')')) {
                    live.retain(|g| g.var != var);
                    continue;
                }
            }
        }

        // A `.lock()` acquisition: rank-check it, then track it if it is
        // `let`-bound as a plain guard (no trailing method chain).
        if id == "lock"
            && i > 0
            && body[i - 1].is_punct('.')
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
            && body.get(i + 2).is_some_and(|n| n.is_punct(')'))
        {
            let lock = lock_receiver(body, i - 1);
            let rank = lock_rank(&lock);
            if let Some(held) = live.iter().find(|g| rank <= g.rank) {
                push(
                    t.line,
                    format!(
                        "`{fn_name}` acquires `{lock}` while holding \
                         `{held_lock}` — the documented order is tier state \
                         → cache → store internals",
                        held_lock = held.lock
                    ),
                );
            }
            if let Some(var) = guard_binding(body, i) {
                live.push(Guard {
                    var,
                    lock,
                    rank,
                    depth,
                });
            }
            continue;
        }

        if live.is_empty() {
            continue;
        }
        let held = &live[live.len() - 1].lock;

        // Channel operations under a guard.
        if CHANNEL_OPS.contains(&id)
            && i > 0
            && body[i - 1].is_punct('.')
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            push(
                t.line,
                format!(
                    "`{fn_name}` performs a channel `{id}` while holding \
                     `{held}` — sends can block behind backpressure"
                ),
            );
            continue;
        }

        // Direct store / WAL / filesystem I/O under a guard.
        let method_call = |ops: &[&str]| {
            body.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && body.get(i + 2).is_some_and(|n| {
                    n.ident().is_some_and(|m| ops.contains(&m))
                })
                && body.get(i + 3).is_some_and(|n| n.is_punct('('))
        };
        if (id == "store" || id.ends_with("_store")) && method_call(STORE_OPS) {
            let op = body[i + 2].ident().unwrap_or_default();
            push(
                t.line,
                format!(
                    "`{fn_name}` performs store I/O (`.{op}`) while \
                     holding `{held}`"
                ),
            );
            continue;
        }
        if id == "wal" && method_call(WAL_OPS) {
            let op = body[i + 2].ident().unwrap_or_default();
            push(
                t.line,
                format!(
                    "`{fn_name}` performs WAL I/O (`.{op}`) while \
                     holding `{held}`"
                ),
            );
            continue;
        }
        if id == "fs" && body.get(i + 1).is_some_and(|n| n.is_punct(':')) {
            push(
                t.line,
                format!(
                    "`{fn_name}` performs filesystem I/O while holding \
                     `{held}`"
                ),
            );
            continue;
        }

        // Transitive I/O through a helper whose call-graph summary reaches
        // a store/WAL operation (all-definitions rule).
        if graph.call_does_io(id)
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            push(
                t.line,
                format!(
                    "`{fn_name}` calls `{id}`, which reaches store/WAL \
                     I/O, while holding `{held}`"
                ),
            );
        }
    }
}

/// The lock name behind the `.` at `body[dot]` in a `.lock()` chain:
/// `self.state.lock()` → `state`; `self.shard_for(k).lock()` →
/// `shard_for`.
fn lock_receiver(body: &[Token], dot: usize) -> String {
    if dot == 0 {
        return String::new();
    }
    let mut j = dot - 1;
    if body[j].is_punct(')') {
        // Balance back over the call arguments to the callee name.
        let mut depth = 0usize;
        loop {
            if body[j].is_punct(')') {
                depth += 1;
            } else if body[j].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return String::new();
            }
            j -= 1;
        }
        if j == 0 {
            return String::new();
        }
        j -= 1;
    }
    body[j].ident().unwrap_or_default().to_string()
}

/// The guard variable when `body[lock_idx]`'s `.lock()` ends a
/// `let <var> = ... .lock();` statement — i.e. the next meaningful token is
/// the statement end (`;` or `?;`), and the statement starts with `let`.
fn guard_binding(body: &[Token], lock_idx: usize) -> Option<String> {
    // The token after `.lock()`'s closing paren must end the statement; a
    // trailing `.field`/`.method()` chain means the guard is a temporary.
    let mut after = lock_idx + 3;
    if body.get(after).is_some_and(|t| t.is_punct('?')) {
        after += 1;
    }
    if !body.get(after).is_some_and(|t| t.is_punct(';')) {
        return None;
    }
    // Walk back to the statement start and require `let [mut] <var> =`.
    let mut j = lock_idx;
    while j > 0 {
        match &body[j - 1].kind {
            TokenKind::Punct(';' | '{' | '}') => break,
            _ => j -= 1,
        }
    }
    if !body.get(j).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let mut k = j + 1;
    if body.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    body.get(k).and_then(Token::ident).map(str::to_string)
}

// ---------------------------------------------------------------------------
// R9: metric/event coverage lint.
// ---------------------------------------------------------------------------

/// R9: in the engine modules, every function that *mutates* a metric
/// (`metrics.<field> += ...`, `-=`, or `metrics.<field>.push(...)`) must
/// emit a typed `obs` event somewhere in the same function, so the metric
/// delta is always witnessed by the event stream (PR 4's metric/event
/// correspondence, as a lint). Plain `=` stores are exempt: the workspace
/// uses them only to fold writer-side counters into snapshots
/// (`metrics.user_points = self.user_points`), which mutate no kernel
/// counter.
pub fn event_coverage(path: &Path, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let tokens = strip_test_items(&lexed.tokens);
    let mut out = Vec::new();
    for func in parse_functions(&tokens) {
        let body = &tokens[func.body.clone()];
        let has_event = body.iter().any(|t| {
            t.is_ident("Event")
                || t.ident().is_some_and(|id| id.starts_with("emit"))
        });
        if has_event {
            continue;
        }
        for (i, t) in body.iter().enumerate() {
            if !t.is_ident("metrics")
                || !body.get(i + 1).is_some_and(|n| n.is_punct('.'))
            {
                continue;
            }
            let Some(field) = body.get(i + 2).and_then(Token::ident) else {
                continue;
            };
            let compound = matches!(
                (body.get(i + 3), body.get(i + 4)),
                (Some(a), Some(b))
                    if (a.is_punct('+') || a.is_punct('-')) && b.is_punct('=')
            );
            let push = body.get(i + 3).is_some_and(|n| n.is_punct('.'))
                && body.get(i + 4).is_some_and(|n| n.is_ident("push"))
                && body.get(i + 5).is_some_and(|n| n.is_punct('('));
            if (compound || push) && !lexed.is_allowed(t.line, "R9") {
                out.push(violation(
                    path,
                    t.line,
                    "R9",
                    format!(
                        "`{}` mutates `metrics.{field}` without emitting a \
                         typed obs event in the same function",
                        func.name
                    ),
                ));
            }
        }
    }
    out
}
