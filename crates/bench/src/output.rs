//! Experiment output: formatted tables on stdout, CSV files under
//! `target/experiments/`, and the `BENCH_<name>.json` documents.

use std::fmt::Write as _;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple experiment report: header row plus data rows, printed as an
/// aligned table and written as CSV.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `fig9a`); names the CSV file.
    pub id: String,
    /// Human-readable title printed above the table.
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        println!("\n== {} ({}) ==", self.title, self.id);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect();
            println!("{}", line.join("  "));
        }
    }

    /// Writes the CSV under `target/experiments/<id>.csv`; returns the
    /// path. Errors are reported, not fatal (experiments still print).
    pub fn write_csv(&self) -> Option<PathBuf> {
        let dir = PathBuf::from("target/experiments");
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("{}.csv", self.id));
        let mut body = self.columns.join(",") + "\n";
        for row in &self.rows {
            body.push_str(&row.join(","));
            body.push('\n');
        }
        match fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Prints the table and writes the CSV.
    pub fn finish(&self) {
        self.print();
        if let Some(p) = self.write_csv() {
            println!("(csv: {})", p.display());
        }
    }
}

/// One `BENCH_<name>.json` document: the header every bench shares
/// (`bench`, `mode`, `commit`, `cores`) followed by the bench's own
/// sections, and the rule for where it lands — a `full` run writes the
/// committed file at the repo root, a `--smoke` run writes under
/// `target/bench-smoke/`, so CI never rewrites a committed result.
#[derive(Debug)]
pub struct BenchJson {
    path: PathBuf,
    body: String,
}

impl BenchJson {
    /// Starts the document of `<name>_bench` in the given mode.
    pub fn new(name: &str, smoke: bool) -> Self {
        let file = format!("BENCH_{name}.json");
        let (mode, path) = if smoke {
            ("smoke", Path::new("target/bench-smoke").join(file))
        } else {
            ("full", PathBuf::from(file))
        };
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let body = format!(
            "{{\n  \"bench\": \"{name}_bench\",\n  \"mode\": \"{mode}\",\n  \
             \"commit\": \"{commit}\",\n  \"cores\": {cores}"
        );
        BenchJson { path, body }
    }

    /// Adds `"key": [{row}, ...]`, one row per line; each row is the
    /// inside of its object (`"k": v, ...`).
    pub fn rows(&mut self, key: &str, rows: impl IntoIterator<Item = String>) {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {{{r}}}")).collect();
        let _ = write!(self.body, ",\n  \"{key}\": [\n{}\n  ]", rows.join(",\n"));
    }

    /// Writes the document and prints where it went.
    pub fn write(mut self) -> std::io::Result<()> {
        self.body.push_str("\n}\n");
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        fs::write(&self.path, self.body)?;
        println!("(json: {})", self.path.display());
        Ok(())
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a fraction as a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("test_report", "Test", &["x", "y"]);
        r.push(vec!["1".into(), "2".into()]);
        r.push(vec!["3".into(), "4.5".into()]);
        assert_eq!(r.rows.len(), 2);
        let path = r.write_csv().expect("csv written");
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "x,y\n1,2\n3,4.5\n");
    }

    #[test]
    fn bench_json_shape_and_smoke_path() {
        let mut doc = BenchJson::new("unit", true);
        doc.rows("rows", ["\"a\": 1".to_string(), "\"a\": 2".to_string()]);
        assert_eq!(
            doc.path,
            Path::new("target/bench-smoke/BENCH_unit.json"),
            "smoke runs stay out of the repo root"
        );
        assert!(doc.body.starts_with(
            "{\n  \"bench\": \"unit_bench\",\n  \"mode\": \"smoke\",\n  \"commit\": \""
        ));
        assert!(doc
            .body
            .ends_with(",\n  \"rows\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]"));
        assert_eq!(
            BenchJson::new("unit", false).path,
            Path::new("BENCH_unit.json")
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.256), "25.6");
    }
}
