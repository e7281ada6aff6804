//! The repository's benchmark: wall-clock from a `place` frame on the
//! socket to `placed` on the published board, on four workloads, with a
//! per-crate stage budget from a traced run. See `benchmark/README.md`.
//!
//! ```text
//! run.sh [--workload NAME] [--seed N] [--seconds S | --quick]
//!        [--trace 0|1 | --traced] [--compare A.json[,..] B.json[,..]]
//! ```
//!
//! With `--workload` (how the driver calls it) one workload runs and the
//! last line of standard output is its result as one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Without it all four run and `run-<n>.json` is written.

mod calib;
mod client;
mod compare;
mod env;
mod gen;
mod json;
mod replay;
mod report;
mod run;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use env::{Spec, WORKLOADS};
use report::{Values, END_TO_END, PER_LAYER};

/// The measured window of a `full` run; `run_seconds` in BENCHMARK.json.
pub const FULL_SECONDS: u64 = 20;
const QUICK_SECONDS: u64 = 3;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    compare: Option<(String, String)>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: FULL_SECONDS,
        traced: false,
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?),
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => opts.seconds = number(value()?)?.clamp(1, 60),
            "--quick" => opts.seconds = QUICK_SECONDS,
            "--trace" => opts.traced = number(value()?)? != 0,
            "--traced" => opts.traced = true,
            "--compare" => opts.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

/// Where journals, traces and run files go (`run.sh` sets it to
/// `$CARGO_TARGET_DIR/benchmark`).
fn out_dir() -> PathBuf {
    std::env::var_os("MEDEA_BENCH_OUT")
        .map_or_else(|| PathBuf::from("target/benchmark"), Into::into)
}

/// Runs one workload in this process and prints its tables and result
/// lines: the end-to-end line, then — traced — the per-layer line. The
/// driver reads the last line. Returns whether every check passed.
fn run_workload(spec: &'static Spec, opts: &Opts, out: &Path) -> Result<bool, String> {
    // One CPU for the server, the generator and the calibration kernel:
    // see `calib`. Every thread spawned from here on inherits it.
    match sys::pin_to_current_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}"),
        None => println!("not pinned to one CPU: expect noisier numbers"),
    }
    let untraced = run::run_pass(spec, opts.seed, opts.seconds, false, out)?;
    let mut errors = report::check(spec, &untraced, false);
    let e2e = report::end_to_end(spec, &untraced);
    report::print_table(spec, &untraced, &END_TO_END, &e2e, true);

    let mut layers: Option<Values> = None;
    if opts.traced {
        let mut traced = run::run_pass(spec, opts.seed, opts.seconds, true, out)?;
        errors.extend(report::check(spec, &traced, true));
        let replayed = replay::replay(spec, opts.seed, &traced.stream, out)?;
        let values = report::per_layer(&untraced, &traced, &replayed);
        report::print_table(spec, &traced, &PER_LAYER, &values, false);
        let (stages, total_us) = report::stage_table(&replayed);
        println!("  replay stage budget (self time, share of {total_us:.0} us in rounds):");
        for (name, own_us) in &stages {
            println!(
                "    {name:<24} {own_us:>14.0} us {:>6.1}%",
                own_us / total_us * 100.0
            );
        }
        let accounted: f64 = stages.iter().map(|s| s.1).sum();
        if (accounted / total_us - 1.0).abs() > 0.05 {
            errors.push(format!(
                "stage spans sum to {accounted:.0} us, rounds to {total_us:.0} us"
            ));
        }
        let client_spans = traced
            .tracer
            .take()
            .map_or("[]".to_string(), |t| t.to_json());
        let path = out.join(format!("trace-{}.json", spec.name));
        let body = format!(
            "{{\"client\": {client_spans},\n\"replay\": {}}}\n",
            replayed.tracer.to_json()
        );
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans: {}", path.display());
        layers = Some(values);
    }

    for e in &errors {
        eprintln!("{}: CHECK FAILED: {e}", spec.name);
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        report::result_json(correct, &untraced, &END_TO_END, &e2e)
    );
    if let Some(values) = &layers {
        println!(
            "{}",
            report::result_json(correct, &untraced, &PER_LAYER, values)
        );
    }
    Ok(correct)
}

/// Runs every workload, each in a process of its own — exactly what the
/// driver measures, with no allocator state or peak RSS carried from one
/// workload into the next — and writes `run-<n>.json` (first free `n`):
/// machine stamp, mode, and every workload's result lines.
fn run_all(opts: &Opts, out: &Path) -> Result<bool, String> {
    let mode = if opts.seconds == FULL_SECONDS {
        "full"
    } else {
        "quick"
    };
    println!(
        "mode: {mode}, seed {}, window {} s",
        opts.seed, opts.seconds
    );
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for spec in &WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= child.status.success();
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let mut results = Vec::new();
        for line in String::from_utf8_lossy(&child.stdout).lines() {
            if line.starts_with("{\"correct\"") {
                results.push(format!("\"{}\": {line}", spec.name));
            } else {
                println!("{line}");
            }
        }
        let mut results = results.into_iter();
        end_to_end.extend(results.next());
        per_layer.extend(results.next());
    }
    let stamp = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let body = format!(
        "{{\"seed\": {}, \"commit\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \
         \"mode\": \"{mode}\", \"seconds\": {}, \"traced\": {},\n\
         \"workloads\": {{\n{}\n}},\n\"per_layer\": {{\n{}\n}}}}\n",
        opts.seed,
        stamp("MEDEA_BENCH_COMMIT"),
        std::thread::available_parallelism().map_or(0, usize::from),
        stamp("MEDEA_BENCH_RUSTC"),
        opts.seconds,
        opts.traced,
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    );
    let path = (1..)
        .map(|n| out.join(format!("run-{n}.json")))
        .find(|p| !p.exists())
        .expect("unbounded range");
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("run file: {}", path.display());
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let opts = parse_opts()?;
    if let Some((a, b)) = &opts.compare {
        return compare::compare(a, b);
    }
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    match &opts.workload {
        Some(name) => {
            let spec = env::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
            run_workload(spec, &opts, &out)
        }
        None => run_all(&opts, &out),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
