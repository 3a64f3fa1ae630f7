//! `seplint` — the workspace's own static-analysis pass.
//!
//! An offline, dependency-free lint binary that mechanically enforces the
//! storage-kernel contracts of the `lsm` crate that the test suite can only
//! probabilistically witness and that neither rustc nor clippy knows about
//! (panic-freedom and `unsafe`-freedom are theirs: see `[workspace.lints]`):
//!
//! * **R3** — deterministic kernel modules never read wall clocks or touch
//!   threads.
//! * **R4** — public kernel functions that can panic must return `Result`.
//! * **R5** — engine modules keep the durability order: WAL append before
//!   buffer insert; table sync (`sync_published`) before the manifest
//!   commit that names the tables; that commit before a WAL checkpoint, and
//!   a manifest/flushing cover before a WAL cut.
//! * **R6** — durability modules fsync the parent directory (`sync_dir`)
//!   after every `rename`, or the new name itself can vanish in a crash;
//!   and every fsync there sits behind a fault-plan hook of its own, so it
//!   is counted by the I/O trace and reachable by crash schedules.
//! * **R7** — decoder modules bounds-check every length decoded from
//!   untrusted bytes before it sizes an allocation.
//! * **R8** — lock modules acquire locks in the documented order and never
//!   hold a `MutexGuard` across store/WAL I/O or channel operations.
//! * **R9** — engine modules emit a typed obs event in every function that
//!   mutates a metric counter.
//!
//! R5 and R8 resolve helper calls through a crate-wide call graph
//! ([`callgraph::CallGraph`]) built over every `.rs` file of the `lsm`
//! crate, so contracts that span files are checked at the call site.
//!
//! Run it as `cargo run -p seplint -- <workspace-root>` (add
//! `--format json` for machine-readable output); CI runs it before the
//! build. Suppress a finding with
//! `// seplint: allow(Rn): reason` on the offending line or the line above.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use callgraph::{module_matches, CallGraph};

/// Deterministic kernel modules subject to R3 and R4 — the pure state
/// machines that replay, crash-schedule exploration and proptest shrinking
/// rely on.
pub const KERNEL_MODULES: &[&str] = &[
    "admission.rs",
    "arbiter.rs",
    "buffer.rs",
    "cache.rs",
    "compaction.rs",
    "version.rs",
    "memtable.rs",
    "fault.rs",
    "recovery.rs",
    "obs.rs",
    "filter.rs",
];

/// Engine modules subject to the R5 durability-ordering and R9
/// event-coverage lints.
pub const ORDERING_MODULES: &[&str] =
    &["engine.rs", "background.rs", "multi.rs"];

/// Physical-durability modules subject to the R6 rename-then-sync-dir and
/// hooked-fsync lint.
pub const DURABILITY_MODULES: &[&str] = &["store.rs", "wal.rs", "manifest.rs"];

/// Modules that decode attacker-grade bytes (corrupt SSTables, WALs,
/// manifests), subject to the R7 untrusted-length lint. Matched as
/// `/`-normalized path suffixes on component boundaries, so nested modules
/// like `sstable/format.rs` resolve correctly.
pub const DECODER_MODULES: &[&str] = &[
    "sstable/format.rs",
    "codec.rs",
    "sstable/varint.rs",
    "sstable/compress.rs",
    "wal.rs",
    "manifest.rs",
];

/// Modules with real lock/channel concurrency, subject to the R8
/// lock-discipline lint.
pub const LOCK_MODULES: &[&str] = &[
    "engine.rs",
    "background.rs",
    "multi.rs",
    "cache.rs",
    "store.rs",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`"R3"` .. `"R9"`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Lints the `lsm` crate under `root/crates`, returning all findings sorted
/// by file then line. Runs in two passes: first every `.rs` file of the
/// crate is read and indexed into a [`CallGraph`], then each file is linted
/// with cross-file call edges available to R5 and R8.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let src_dir = root.join("crates").join("lsm").join("src");
    if !src_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("the `lsm` crate not found at {}", src_dir.display()),
        ));
    }
    let mut sources = Vec::new();
    for file in rust_files(&src_dir)? {
        let src = fs::read_to_string(&file)?;
        sources.push((file, src));
    }
    let graph = CallGraph::build(&sources);
    let mut out = Vec::new();
    for (file, src) in &sources {
        out.extend(lint_file_with(file, src, &graph));
    }
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(out)
}

/// Applies every rule whose scope matches `file` (a file of the `lsm`
/// crate), resolving helper calls within this file only. Prefer
/// [`lint_workspace`], which supplies the crate-wide graph.
pub fn lint_file(file: &Path, src: &str) -> Vec<Violation> {
    let graph = CallGraph::build(&[(file.to_path_buf(), src.to_string())]);
    lint_file_with(file, src, &graph)
}

/// Applies every rule whose scope matches `file`, resolving calls through
/// `graph`.
pub fn lint_file_with(
    file: &Path,
    src: &str,
    graph: &CallGraph,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let base = file
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    if KERNEL_MODULES.contains(&base) {
        out.extend(rules::deterministic_kernel(file, src));
        out.extend(rules::kernel_returns_results(file, src));
    }
    if ORDERING_MODULES.contains(&base) {
        out.extend(rules::durability_order_with(file, src, graph));
        out.extend(rules::event_coverage(file, src));
    }
    if DURABILITY_MODULES.contains(&base) {
        out.extend(rules::rename_syncs_dir(file, src));
    }
    if DECODER_MODULES.iter().any(|m| module_matches(file, m)) {
        out.extend(rules::untrusted_len(file, src));
    }
    if LOCK_MODULES.contains(&base) {
        out.extend(rules::lock_discipline_with(file, src, graph));
    }
    out
}

/// Recursively collects every `.rs` file under `dir`, sorted for
/// deterministic output.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}
