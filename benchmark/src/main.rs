//! Real-disk, layer-attributed benchmark of the seplsm engines.
//!
//! `seplsm-benchmark --workload W --seed S --seconds N --trace 0|1 [--smoke]`
//! runs one workload in this process and prints, as the last line of its
//! standard output, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See `README.md`.

mod adapter;
mod check;
mod drills;
mod oracle;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use seplsm_types::DataPoint;

use crate::drills::Drills;
use crate::report::{
    end_to_end, per_layer, print_table, result_line, wall_clock,
};
use crate::run::{data_dir, remove_dir, Run};
use crate::stats::{fs_type, is_memory_fs, ratio};
use crate::trace::{Analysis, Tracer};
use crate::workloads::{workload, Size, Workload, WORKLOADS};

/// Defaults of the command line; `check` holds `DEFAULT_SECONDS` against
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SEED: u64 = 11;
pub const DEFAULT_SECONDS: u64 = 10;
/// Closed-loop pre-phase of the open-loop workload's traced run, seconds.
const CAPACITY_SECONDS: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    /// The directory holding `run.sh`: data and span files go under it.
    home: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        home: PathBuf::from("benchmark"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                };
            }
            "--smoke" => args.smoke = true,
            "--home" => args.home = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(args)
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        remove_dir(&self.0);
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// Prints where and on what the run happens, and marks the run invalid
/// when the data directory is on a memory filesystem, where fsync is free.
fn print_header(args: &Args, w: &Workload, size: Size, out: &Path) {
    let fs = fs_type(out);
    let valid = !is_memory_fs(&fs);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# seplsm-benchmark workload={} seed={} seconds={} smoke={} trace={}",
        w.name, args.seed, args.seconds, args.smoke, args.trace as u8
    );
    println!(
        "# nproc={nproc} fs={fs} valid={valid} {} data={}",
        rustc_version(),
        out.display()
    );
    println!(
        "# sizes: stream_points={} preload_points={} cache_points={} \
         batch_points={} loop={}",
        w.stream_points(size),
        w.preload_points(size),
        w.cache_points(size).unwrap_or(0),
        w.batch_points(),
        match w.open_loop_rate {
            Some(rate) => format!("open@{rate}points/s"),
            None => "closed,1client".into(),
        }
    );
    if !valid {
        eprintln!(
            "WARNING: {} is on {fs}: fsync is free there, so every timing \
             of this run is INVALID as a measure of durable writes",
            out.display()
        );
    }
}

fn run_workload(args: &Args, w: Workload) -> Result<bool, String> {
    let declared = check::declared(&args.home, DEFAULT_SECONDS)?;
    let size = Size {
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let out = args.home.join("out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    print_header(args, &w, size, &out);
    let run = Run {
        workload: w,
        seed: args.seed,
        size,
        dir: data_dir(&out, w.name),
    };
    // The data directory goes however the run ends.
    let _cleanup = RemoveOnDrop(run.dir.clone());
    let outcome = if args.trace {
        traced(&run, &out)
    } else {
        run.execute(true, None).map(|r| {
            println!("# {}", report::sample_counts(&r));
            println!("# preload_s={}", r.preload_s);
            let metrics = end_to_end(&r);
            print_table("end-to-end", &metrics);
            print_table("wall clock (no bound)", &wall_clock(&r));
            (r.attempted, r.failed, metrics)
        })
    };
    let (attempted, failed, metrics) = outcome.map_err(|e| e.to_string())?;
    check::same_metrics(
        &metrics,
        if args.trace {
            &declared.per_layer
        } else {
            &declared.end_to_end
        },
    )?;
    println!(
        "# ops attempted={attempted} failed={failed} share={}",
        ratio(failed as f64, attempted as f64)
    );
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

/// The traced run: the workload once without tracing (for the overhead),
/// once with the store decorator, the observer and the I/O op trace, then
/// the layer drills over what that run left behind.
fn traced(
    run: &Run,
    out: &Path,
) -> seplsm_types::Result<(u64, u64, Vec<report::Metric>)> {
    let w = &run.workload;
    let capacity = match w.open_loop_rate {
        Some(_) => {
            let closed = Run {
                workload: w.closed_loop(),
                size: Size {
                    seconds: CAPACITY_SECONDS,
                    ..run.size
                },
                seed: run.seed,
                dir: run.dir.clone(),
            };
            let r = closed.execute(false, None)?;
            ratio(r.acked_points as f64, r.wall_ns as f64 / 1e9)
        }
        None => 0.0,
    };
    let untraced = run.execute(false, None)?;
    let tracer = Tracer::new();
    let r = run.execute(false, Some(tracer.clone()))?;
    let analysis = Analysis::new(tracer.take(), r.measured_end_ns);
    analysis.write_jsonl(&out.join(format!("{}.spans.jsonl", w.name)))?;

    let stream: Vec<DataPoint> = w
        .inputs(run.seed, run.size)
        .stream
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    let drills = Drills::run(
        &stream,
        w.policy(),
        &run.spec(false, None, None).tables_dir(),
        &run.dir,
        w.cache_points(run.size).is_some(),
    )?;
    let metrics =
        per_layer(&r, &untraced, &tracer, &analysis, &drills, capacity);
    println!("# {}", report::sample_counts(&r));
    println!("# spans={}", analysis.spans.len());
    print_table("per-layer (traced run)", &metrics);
    Ok((
        r.attempted + untraced.attempted,
        r.failed + untraced.failed,
        metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("seplsm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "seplsm-benchmark: --workload must be one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    match run_workload(&args, w) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("seplsm-benchmark: operations failed on {}", w.name);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("seplsm-benchmark: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
