//! Small measurement helpers: percentiles, `/proc` counters, directory
//! sizes and the filesystem type under the data directory.

use std::path::Path;
use std::time::Instant;

use seplsm_dist::stats::percentile_sorted;

/// Nanoseconds since the first call in this process: one time base shared
/// by the load generator, the store decorator and the observer.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The `q`-quantile (0..=1) of `samples`, by the nearest-rank rule; 0 for
/// an empty set. Sorts a copy, so callers keep arrival order.
pub fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of a small set of floats (set-up and recovery repetitions); 0
/// for an empty set.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 50.0)
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `/proc/self/io` counters: bytes and syscalls this process pushed
/// through `read`/`write`, whether or not they reached the device.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcIo {
    pub rchar: u64,
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

impl ProcIo {
    pub fn read() -> Self {
        let mut io = Self::default();
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim().parse().unwrap_or(0);
            match key {
                "rchar" => io.rchar = value,
                "wchar" => io.wchar = value,
                "syscr" => io.syscr = value,
                "syscw" => io.syscw = value,
                _ => {}
            }
        }
        io
    }

    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            rchar: self.rchar - earlier.rchar,
            wchar: self.wchar - earlier.wchar,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// User and system CPU seconds of the whole process (all threads), from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| {
            v.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `unknown`.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let text =
        std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, String::from("unknown"));
    for line in text.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> .."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = head.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fstype) = tail.split_whitespace().next() else {
            continue;
        };
        if dir.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}

/// `true` for memory-backed filesystems, where fsync costs nothing and the
/// benchmark's timings would not mean what they claim.
pub fn is_memory_fs(fstype: &str) -> bool {
    matches!(fstype, "tmpfs" | "ramfs" | "devtmpfs")
}
