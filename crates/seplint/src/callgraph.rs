//! Workspace-wide function index and call graph.
//!
//! The first seplint generation judged every rule one file at a time, so a
//! contract spanning a helper boundary was invisible unless caller and
//! callee happened to share a file — R5's expansion stopped at the file
//! edge, and cross-file helpers needed `// seplint: allow` paper-overs.
//! This pass indexes every `fn` defined in the analyzed crate, keeps each
//! body's (test-stripped) token stream, and resolves call edges by callee
//! name across the whole crate. On top of the edges it computes a
//! transitive *I/O summary* per function name — "does calling this reach a
//! table-store or WAL operation?" — which R8 uses to flag I/O performed
//! through helpers while a lock guard is live.
//!
//! Resolution is purely by name (the lexer has no type information). Two
//! conservative choices keep that sound in practice:
//!
//! * call edges merge **every** definition of the callee name, so an
//!   ambiguous name over-approximates rather than picking one impl;
//! * the I/O summary only treats a call as I/O when **all** definitions of
//!   the name perform I/O — ubiquitous names (`get`, `insert`, ...) with
//!   one pure impl therefore never poison their callers.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};

/// Table-store methods that constitute storage I/O when invoked on a
/// store-typed receiver (`store.get(...)`, `worker_store.put(...)`).
pub const STORE_OPS: &[&str] = &[
    "get",
    "put",
    "delete",
    "may_contain",
    "table_len",
    "read_span",
    "list",
];

/// WAL methods that constitute log I/O (`wal.append(...)`, ...). An append
/// writes when the log's pending buffer is full; `checkpoint` only queues a
/// frame and is absent on purpose.
pub const WAL_OPS: &[&str] = &[
    "append",
    "append_for",
    "rewrite",
    "sync",
    "recover",
    "replay",
    "replay_salvage",
];

/// A function parsed out of a token stream: name, visibility, whether the
/// signature mentions `Result`, and the token range of the body
/// (*excluding* the outer braces).
pub(crate) struct FnItem {
    pub(crate) name: String,
    pub(crate) is_pub: bool,
    pub(crate) returns_result: bool,
    /// Line of the `fn` name token.
    pub(crate) line: usize,
    pub(crate) body: Range<usize>,
}

/// Removes every test-only item: any item annotated with an outer attribute
/// containing the identifier `test` (so `#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]`) is dropped together with its body. Attributes
/// containing `not` (e.g. `#[cfg(not(test))]`) are kept.
pub(crate) fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            // Collect the attribute to its matching `]`.
            let mut j = i + 2;
            let mut depth = 1;
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() && depth > 0 {
                match &tokens[j].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => depth -= 1,
                    TokenKind::Ident(id) if id == "test" => has_test = true,
                    TokenKind::Ident(id) if id == "not" => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            if has_test && !has_not {
                // Skip the annotated item: through the next `;` at brace
                // depth zero, or through the matching `}` of its body.
                let mut brace_depth = 0usize;
                while j < tokens.len() {
                    match &tokens[j].kind {
                        TokenKind::Punct('{') => brace_depth += 1,
                        TokenKind::Punct('}') => {
                            brace_depth -= 1;
                            if brace_depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        TokenKind::Punct(';') if brace_depth == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Finds every `fn` item and its balanced-brace body in `tokens`.
pub(crate) fn parse_functions(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(Token::ident) else {
            i += 1;
            continue;
        };
        let line = tokens[i + 1].line;
        // `pub` (possibly `pub(crate)` / `pub(super)`) and fn qualifiers
        // appear a few tokens back.
        let mut is_pub = false;
        for back in tokens[i.saturating_sub(6)..i].iter() {
            if back.is_ident("pub") {
                is_pub = true;
            }
            // A `}`, `;` or `{` between `pub` and `fn` means the `pub`
            // belonged to a previous item.
            if back.is_punct('}') || back.is_punct(';') || back.is_punct('{') {
                is_pub = false;
            }
        }
        // Scan the signature to the body `{` (or `;` for trait decls).
        let mut j = i + 2;
        let mut returns_result = false;
        let mut body = None;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Ident(id) if id == "Result" => {
                    returns_result = true;
                    j += 1;
                }
                TokenKind::Punct('{') => {
                    body = Some(j);
                    break;
                }
                TokenKind::Punct(';') => break,
                _ => j += 1,
            }
        }
        let Some(open) = body else {
            i = j + 1;
            continue;
        };
        // Balanced-brace scan for the body end.
        let mut depth = 0usize;
        let mut k = open;
        while k < tokens.len() {
            match &tokens[k].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        out.push(FnItem {
            name: name.to_string(),
            is_pub,
            returns_result,
            line,
            body: open + 1..k,
        });
        // Recurse into the body too (nested fns are rare but cheap to
        // support): continue scanning right after the signature.
        i = open + 1;
    }
    out
}

/// One indexed function definition.
pub struct FnDef {
    /// File the function is defined in.
    pub file: PathBuf,
    /// Function name (no path or type qualification).
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// Test-stripped body tokens (outer braces excluded).
    pub body: Vec<Token>,
    /// `(callee name, call line)` for every `ident(`-shaped call in the
    /// body whose identifier names some indexed function.
    pub calls: Vec<(String, usize)>,
    /// Whether the body reaches a table-store or WAL operation, directly or
    /// through calls (fixpoint over the graph, all-definitions rule).
    pub does_io: bool,
}

/// The crate-wide call graph: every function definition plus name-resolved
/// call edges and transitive I/O summaries.
#[derive(Default)]
pub struct CallGraph {
    defs: Vec<FnDef>,
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// An empty graph: every lookup misses, so rules degrade to the
    /// same-file behaviour of their inputs.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Indexes every function in `files` (path + source pairs) and resolves
    /// call edges and I/O summaries across all of them.
    pub fn build(files: &[(PathBuf, String)]) -> Self {
        let mut defs = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (path, src) in files {
            let lexed = lex(src);
            let tokens = strip_test_items(&lexed.tokens);
            for item in parse_functions(&tokens) {
                let body: Vec<Token> = tokens[item.body.clone()].to_vec();
                by_name
                    .entry(item.name.clone())
                    .or_default()
                    .push(defs.len());
                defs.push(FnDef {
                    file: path.clone(),
                    name: item.name,
                    line: item.line,
                    body,
                    calls: Vec::new(),
                    does_io: false,
                });
            }
        }
        // Call edges: any `name(`-shaped use of an indexed function name.
        let names: HashSet<&str> = by_name.keys().map(String::as_str).collect();
        let mut all_calls = Vec::with_capacity(defs.len());
        for def in &defs {
            let mut calls = Vec::new();
            for (i, t) in def.body.iter().enumerate() {
                let Some(id) = t.ident() else { continue };
                if names.contains(id)
                    && def.body.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    calls.push((id.to_string(), t.line));
                }
            }
            all_calls.push(calls);
        }
        for (def, calls) in defs.iter_mut().zip(all_calls) {
            def.calls = calls;
        }
        // Seed the I/O summaries with direct store/WAL operations, then
        // propagate to callers until the fixpoint: a call counts only when
        // *every* definition of the callee name does I/O.
        for def in &mut defs {
            def.does_io = direct_io(&def.body);
        }
        loop {
            let mut changed = false;
            for i in 0..defs.len() {
                if defs[i].does_io {
                    continue;
                }
                let reaches = defs[i].calls.iter().any(|(name, _)| {
                    by_name.get(name).is_some_and(|ids| {
                        !ids.is_empty() && ids.iter().all(|&j| defs[j].does_io)
                    })
                });
                if reaches {
                    defs[i].does_io = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Self { defs, by_name }
    }

    /// Every definition of `name`, across all indexed files.
    pub fn defs_named(&self, name: &str) -> impl Iterator<Item = &FnDef> {
        self.by_name
            .get(name)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(|&i| &self.defs[i])
    }

    /// `true` when `name` is defined somewhere in the indexed crate.
    pub fn defines(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// `true` when calling `name` reaches store/WAL I/O under the
    /// all-definitions rule (so an ambiguous name with one pure definition
    /// stays clean).
    pub fn call_does_io(&self, name: &str) -> bool {
        self.by_name.get(name).is_some_and(|ids| {
            !ids.is_empty() && ids.iter().all(|&i| self.defs[i].does_io)
        })
    }

    /// Names that are called from at least one indexed function body.
    pub fn called_names(&self) -> HashSet<&str> {
        self.defs
            .iter()
            .flat_map(|d| d.calls.iter())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Every indexed definition (in insertion order).
    pub fn defs(&self) -> &[FnDef] {
        &self.defs
    }
}

/// `true` when the body performs a store or WAL operation directly:
/// `<store-ish>.op(...)` with `op` from [`STORE_OPS`], or `wal.op(...)`
/// with `op` from [`WAL_OPS`]. A "store-ish" receiver is an identifier
/// named `store` or ending in `_store` (the workspace convention for
/// `dyn TableStore` handles).
fn direct_io(body: &[Token]) -> bool {
    body.iter().enumerate().any(|(i, t)| {
        let Some(id) = t.ident() else { return false };
        let method_call = |ops: &[&str]| {
            body.get(i + 1).is_some_and(|n| n.is_punct('.'))
                && body.get(i + 2).is_some_and(|n| {
                    n.ident().is_some_and(|m| ops.contains(&m))
                })
                && body.get(i + 3).is_some_and(|n| n.is_punct('('))
        };
        if (id == "store" || id.ends_with("_store")) && method_call(STORE_OPS) {
            return true;
        }
        id == "wal" && method_call(WAL_OPS)
    })
}

/// `true` when `path` (normalized to `/` separators) ends with the module
/// suffix `suffix` on a path-component boundary, so `codec.rs` matches
/// `crates/lsm/src/codec.rs` but not `xcodec.rs`, and `sstable/format.rs`
/// matches only the submodule file.
pub fn module_matches(path: &Path, suffix: &str) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p == suffix || p.ends_with(&format!("/{suffix}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let files: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), (*s).to_string()))
            .collect();
        CallGraph::build(&files)
    }

    #[test]
    fn resolves_call_edges_across_files() {
        let g = graph(&[
            ("a.rs", "fn caller() { helper(1); }"),
            ("b.rs", "fn helper(x: u32) -> u32 { x }"),
        ]);
        let caller = g.defs_named("caller").next().expect("caller indexed");
        assert_eq!(caller.calls, vec![("helper".to_string(), 1)]);
        assert!(g.defines("helper"));
        assert_eq!(g.defs_named("helper").count(), 1);
    }

    #[test]
    fn io_summary_propagates_transitively() {
        let g = graph(&[
            ("a.rs", "fn top(&self) { self.middle(); }\nfn middle(&self) { leaf(); }"),
            ("b.rs", "fn leaf() { store.put(&points); }"),
        ]);
        assert!(g.call_does_io("leaf"));
        assert!(g.call_does_io("middle"));
        assert!(g.call_does_io("top"));
    }

    #[test]
    fn ambiguous_names_with_a_pure_definition_stay_clean() {
        let g = graph(&[
            ("a.rs", "fn get(&self) { store.get(id); }"),
            ("b.rs", "fn get(&self) -> u32 { self.field }"),
            ("c.rs", "fn user(&self) { self.get(); }"),
        ]);
        assert!(
            !g.call_does_io("get"),
            "one pure `get` must veto the summary"
        );
        assert!(!g.call_does_io("user"));
    }

    #[test]
    fn wal_ops_count_as_io() {
        let g =
            graph(&[("a.rs", "fn log(&mut self) { self.wal.append(&p); }")]);
        assert!(g.call_does_io("log"));
    }

    #[test]
    fn module_suffix_matching_requires_component_boundary() {
        use std::path::Path;
        assert!(module_matches(
            Path::new("crates/lsm/src/codec.rs"),
            "codec.rs"
        ));
        assert!(module_matches(
            Path::new("crates/lsm/src/sstable/format.rs"),
            "sstable/format.rs"
        ));
        assert!(!module_matches(
            Path::new("crates/lsm/src/xcodec.rs"),
            "codec.rs"
        ));
        assert!(!module_matches(
            Path::new("crates/lsm/src/format.rs"),
            "sstable/format.rs"
        ));
    }
}
