//! Self-check: `BENCHMARK.json` obeys the limits it is published under, and
//! the metrics a run prints are exactly the ones it declares.

use std::collections::HashSet;
use std::path::Path;

use serde_json::Value;

use crate::report::Metric;
use crate::workloads::WORKLOADS;

/// What `BENCHMARK.json` declares, as far as the benchmark checks itself.
pub struct Declared {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn entries<'a>(doc: &'a Value, key: &str) -> Result<&'a Vec<Value>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
}

fn text<'a>(entry: &'a Value, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
}

fn metric_list(
    doc: &Value,
    key: &str,
    max: usize,
    names: &mut HashSet<String>,
) -> Result<Vec<(String, String)>, String> {
    let list = entries(doc, key)?;
    if list.is_empty() || list.len() > max {
        return Err(format!(
            "`{key}` holds {} metrics, limit {max}",
            list.len()
        ));
    }
    let mut out = Vec::with_capacity(list.len());
    for entry in list {
        let (name, unit) = (text(entry, "name")?, text(entry, "unit")?);
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!(
                "`{key}`: bad name or unit in {name} [{unit}]"
            ));
        }
        if !matches!(text(entry, "better")?, "lower" | "higher") {
            return Err(format!("`{name}`: `better` is lower or higher"));
        }
        if !names.insert(name.to_string()) {
            return Err(format!("name `{name}` is used twice"));
        }
        out.push((name.to_string(), unit.to_string()));
    }
    Ok(out)
}

/// Reads and validates `BENCHMARK.json` beside the benchmark directory.
pub fn declared(home: &Path, default_seconds: u64) -> Result<Declared, String> {
    let path = home.join("..").join("BENCHMARK.json");
    let raw = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if raw.len() > 64 * 1024 {
        return Err("BENCHMARK.json is larger than 64 KiB".into());
    }
    let doc = serde_json::from_str(&raw).map_err(|e| e.to_string())?;
    let mut names = HashSet::new();

    let workloads = entries(&doc, "workloads")?;
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, limits 2..=8", workloads.len()));
    }
    for (entry, ours) in workloads.iter().zip(&WORKLOADS) {
        let (name, why) = (text(entry, "name")?, text(entry, "why")?);
        if !valid_name(name) || !names.insert(name.to_string()) {
            return Err(format!("workload name `{name}` is bad or repeated"));
        }
        if why.len() > 200 || why.contains('\n') {
            return Err(format!("`{name}`: `why` is one line of <= 200 chars"));
        }
        if name != ours.name || why != ours.why {
            return Err(format!(
                "workload `{name}` differs from the program's"
            ));
        }
    }
    if workloads.len() != WORKLOADS.len() {
        return Err(
            "the program and BENCHMARK.json list different workloads".into()
        );
    }

    let end_to_end = metric_list(&doc, "end_to_end", 16, &mut names)?;
    for entry in entries(&doc, "end_to_end")? {
        let bound = entry.get("bound").and_then(Value::as_f64);
        if !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            return Err(format!(
                "`{}`: bound must be in (0, 0.25]",
                text(entry, "name")?
            ));
        }
    }
    if !end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s") {
        return Err("`end_to_end` must hold setup_s in s".into());
    }
    let per_layer = metric_list(&doc, "per_layer", 128, &mut names)?;

    let seconds = doc.get("run_seconds").and_then(Value::as_i64);
    if seconds != Some(default_seconds as i64) {
        return Err(format!(
            "run_seconds is {seconds:?}, the program's default is {default_seconds}"
        ));
    }
    Ok(Declared {
        end_to_end,
        per_layer,
    })
}

/// Every printed metric is declared, with its unit, and every declared
/// metric is printed.
pub fn same_metrics(
    printed: &[Metric],
    declared: &[(String, String)],
) -> Result<(), String> {
    let printed: Vec<(String, String)> = printed
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    for metric in &printed {
        if !declared.contains(metric) {
            return Err(format!("{metric:?} is printed but not declared"));
        }
    }
    for metric in declared {
        if !printed.contains(metric) {
            return Err(format!("{metric:?} is declared but not printed"));
        }
    }
    Ok(())
}
