//! `--compare A B`: two sets of run files (comma-separated paths), every
//! end-to-end metric of every workload side by side — both medians, the
//! change, the bound, and a verdict. A metric whose run-to-run spread
//! on either side exceeds its bound is `unresolved`, never `ok`.

use crate::env::WORKLOADS;
use crate::json::{parse, Json};
use crate::report::{Better, END_TO_END};
use crate::stats::{median, quartile_spread};

fn load(paths: &str) -> Result<Vec<Json>, String> {
    paths
        .split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
            match doc.get("mode").and_then(Json::as_str) {
                Some("full") => Ok(doc),
                mode => Err(format!(
                    "{path}: mode {mode:?} — only full-mode runs are comparable"
                )),
            }
        })
        .collect()
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for w in &WORKLOADS {
        for d in &END_TO_END {
            let (mut va, mut vb) = (values(&a, w.name, d.name), values(&b, w.name, d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let noise = [&va, &vb]
                .iter()
                .filter_map(|v| quartile_spread(v))
                .fold(0.0, f64::max);
            let (ma, mb) = (median(&mut va), median(&mut vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse = match d.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let verdict = if noise > d.bound {
                "unresolved"
            } else if worse > d.bound {
                clean = false;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<22} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}%  {verdict}",
                w.name,
                d.name,
                ma,
                mb,
                change * 100.0,
                d.bound * 100.0
            );
        }
    }
    Ok(clean)
}
