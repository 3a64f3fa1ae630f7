//! Output helpers: aligned text tables and JSON export.

use std::io::Write;
use std::path::Path;

use seplsm_types::Result;
use serde_json::Value;

use crate::drive::{EstimateVsReal, QueryCell};

/// Prints `rows` under `headers` with aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints a figure/table banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Writes `value` as pretty JSON to the path given by `--json`, if any.
pub fn write_json(value: &serde_json::Value) -> Result<()> {
    maybe_write_json(crate::args::flag("json"), value)
}

/// Writes `value` as pretty JSON to `path` (if given), creating parents.
fn maybe_write_json(
    path: Option<String>,
    value: &serde_json::Value,
) -> Result<()> {
    let Some(path) = path else { return Ok(()) };
    let path = Path::new(&path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    let text =
        serde_json::to_string_pretty(value).map_err(std::io::Error::from)?;
    writeln!(f, "{text}")?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Prints the two-row `pi_c`/`pi_s` table of estimated against measured
/// WA (Figs. 11, 16(b), 18(b)) and returns the object `fields` followed by
/// the same numbers: `pi_c`, `pi_s` and `decision_correct`.
pub fn estimate_vs_real(
    r: &EstimateVsReal,
    fields: serde_json::Value,
) -> serde_json::Value {
    print_table(
        &["policy", "estimated", "real"],
        &[
            vec!["pi_c".into(), f3(r.rc_model), f3(r.rc_measured)],
            vec![
                format!("pi_s(n_seq={})", r.n_seq_star),
                f3(r.rs_model),
                f3(r.rs_measured),
            ],
        ],
    );
    let tail = serde_json::json!({
        "pi_c": {"model": r.rc_model, "measured": r.rc_measured},
        "pi_s": {
            "n_seq": r.n_seq_star,
            "model": r.rs_model,
            "measured": r.rs_measured,
        },
        "decision_correct": r.decision_correct(),
    });
    match (fields, tail) {
        (Value::Object(mut head), Value::Object(tail)) => {
            head.extend(tail);
            Value::Object(head)
        }
        (fields, _) => fields,
    }
}

/// Prints the latency table of a query sweep (Figs. 13, 14): mean
/// simulated-HDD latency and tables read per query under `π_c` and `π_s`,
/// and returns the same cells as JSON.
pub fn query_latency(cells: &[QueryCell]) -> serde_json::Value {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.dataset.to_string(),
                format!("{}ms", c.window_ms),
                format!("{:.3e}", c.pi_c.mean_latency_ns),
                format!("{:.3e}", c.pi_s.mean_latency_ns),
                f1(c.pi_c.mean_tables_read),
                f1(c.pi_s.mean_tables_read),
            ]
        })
        .collect();
    print_table(
        &[
            "dataset",
            "window",
            "pi_c lat(ns)",
            "pi_s lat(ns)",
            "pi_c tbls",
            "pi_s tbls",
        ],
        &rows,
    );
    Value::Array(
        cells
            .iter()
            .map(|c| {
                serde_json::json!({
                    "dataset": c.dataset,
                    "window_ms": c.window_ms,
                    "pi_c_latency_ns": c.pi_c.mean_latency_ns,
                    "pi_s_latency_ns": c.pi_s.mean_latency_ns,
                    "pi_c_tables": c.pi_c.mean_tables_read,
                    "pi_s_tables": c.pi_s.mean_tables_read,
                })
            })
            .collect(),
    )
}

/// Converts adaptive tuning decisions into JSON rows for report export.
pub fn tunes_json(tunes: &[seplsm_core::TuneRecord]) -> Vec<serde_json::Value> {
    tunes
        .iter()
        .map(|t| {
            serde_json::json!({
                "at_user_points": t.at_user_points,
                "r_c": t.r_c,
                "r_s_star": t.r_s_star,
                "decision": t.decision.name(),
                "delta_t": t.delta_t,
            })
        })
        .collect()
}

/// Formats a float with 3 decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal for table cells.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        banner("test");
    }

    #[test]
    fn json_writing_round_trips() {
        let dir = std::env::temp_dir()
            .join(format!("seplsm-report-{}", std::process::id()));
        let path = dir.join("out.json");
        maybe_write_json(
            Some(path.to_string_lossy().into_owned()),
            &serde_json::json!({"x": 1}),
        )
        .expect("write");
        let back: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(&path).expect("read"),
        )
        .expect("parse");
        assert_eq!(back["x"], 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
    }
}
