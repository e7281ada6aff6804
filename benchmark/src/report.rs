//! Metric definitions (mirrored in `/BENCHMARK.json`; a unit test keeps
//! the two in step) and the arithmetic that turns a [`Pass`] and a
//! [`Replay`] into named values.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use medea_obs::Snapshot;

use crate::env::{Kind, Spec};
use crate::replay::Replay;
use crate::run::Pass;
use crate::stats::{median, on_time_share, percentile, supports};
use crate::trace::{self_times_ns, Span};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// What a tenant or operator sees. Shares are "good" shares so that
/// none is ever zero: `on_time_share` = 1 − late share, and so on.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("placed_p50_ms", "ms", Better::Lower, 0.25),
    e2e("placed_tail_ms", "ms", Better::Lower, 0.25),
    e2e("placements_per_s", "1/s", Better::Higher, 0.25),
    e2e("on_time_share", "share", Better::Higher, 0.05),
    e2e("completed_share", "share", Better::Higher, 0.01),
    e2e("cpu_ms_per_placement", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// One row per layer boundary; the layers are the crates.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("server.decode_us", "us", Lower),
    layer("server.admission_us", "us", Lower),
    layer("server.encode_us", "us", Lower),
    layer("server.ack_us", "us", Lower),
    layer("server.query_us", "us", Lower),
    layer("server.queue_wait_us", "us", Lower),
    layer("server.batch_size", "count", Higher),
    layer("server.shed_total", "count", Lower),
    layer("server.protocol_errors_total", "count", Lower),
    layer("core.submit_us", "us", Lower),
    layer("core.cancel_us", "us", Lower),
    layer("core.propose_us", "us", Lower),
    layer("core.solve_us", "us", Lower),
    layer("core.propose_overhead_us", "us", Lower),
    layer("core.relax_lp_us", "us", Lower),
    layer("core.relax_round_us", "us", Lower),
    layer("core.relax_residue_us", "us", Lower),
    layer("core.model_build_us", "us", Lower),
    layer("core.us_per_container", "us", Lower),
    layer("core.commit_us", "us", Lower),
    layer("core.publish_us", "us", Lower),
    layer("core.useful_placement_ratio", "share", Higher),
    layer("core.commit_conflicts", "count", Lower),
    layer("core.shard_resubmissions", "count", Lower),
    layer("core.relax_fallbacks", "count", Lower),
    layer("core.heuristic_fallbacks", "count", Lower),
    layer("cluster.snapshot_us", "us", Lower),
    layer("cluster.shard_plan_us", "us", Lower),
    layer("cluster.alloc_release_ns", "ns", Lower),
    layer("cluster.index_update_ops_per_container", "count", Lower),
    layer("cluster.restore_us", "us", Lower),
    layer("constraints.parse_us", "us", Lower),
    layer("constraints.violation_stats_us", "us", Lower),
    layer("constraints.active", "count", Lower),
    layer("constraints.violated_share", "share", Lower),
    layer("solver.simplex_pivots_per_round", "count", Lower),
    layer("solver.refactorizations_per_round", "count", Lower),
    layer("solver.bnb_nodes_per_round", "count", Lower),
    layer("solver.warm_start_hit_ratio", "share", Higher),
    layer("journal.append_us", "us", Lower),
    layer("journal.records_per_placement", "count", Lower),
    layer("journal.bytes_per_placement", "B", Lower),
    layer("journal.append_errors", "count", Lower),
    layer("journal.load_us", "us", Lower),
    layer("journal.checkpoint_us", "us", Lower),
    layer("core.restart_us", "us", Lower),
    layer("client.converge_p50_ms", "ms", Lower),
    layer("client.placed_p90_ms", "ms", Lower),
    layer("client.generator_lag_p99_ms", "ms", Lower),
    layer("client.one_batch_burst_share", "share", Higher),
    layer("obs.replay_round_us", "us", Lower),
    layer("obs.unaccounted_share", "share", Lower),
    layer("obs.tracing_overhead_share", "share", Lower),
];

pub type Values = Vec<(&'static str, f64)>;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn p50(v: &[f64]) -> f64 {
    median(&mut v.to_vec())
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end values of an untraced pass, in [`END_TO_END`] order.
pub fn end_to_end(spec: &Spec, pass: &Pass) -> Values {
    let lat = sorted(&pass.placed_ms);
    let placed = lat.len() as f64;
    let mid = percentile(&lat, 0.5).unwrap_or(0.0);
    // The highest percentile the window supports: p90 where it holds
    // ≥100 independent samples (10 beyond), otherwise the median again.
    let tail = if spec.tail_p90 && supports(pass.samples, 0.9) {
        percentile(&lat, 0.9).unwrap_or(0.0)
    } else {
        mid
    };
    vec![
        ("setup_s", p50(&pass.setup_s)),
        ("placed_p50_ms", mid),
        ("placed_tail_ms", tail),
        ("placements_per_s", ratio(placed, pass.window_s)),
        (
            "on_time_share",
            on_time_share(&lat, pass.lras_attempted, spec.late_limit_ms),
        ),
        (
            "completed_share",
            1.0 - ratio(pass.ops_failed as f64, pass.ops_attempted as f64),
        ),
        ("cpu_ms_per_placement", ratio(pass.cpu_ms, placed)),
        ("peak_rss_mb", pass.peak_rss_mb),
    ]
}

/// Window delta of a counter between two registry snapshots.
fn counter_delta(start: &Snapshot, end: &Snapshot, name: &str) -> f64 {
    (end.counter(name).unwrap_or(0) - start.counter(name).unwrap_or(0)) as f64
}

/// Window delta of a histogram's (sum, count).
fn hist_delta(start: &Snapshot, end: &Snapshot, name: &str) -> (f64, f64) {
    let get = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.sum, h.count));
    let (s0, c0) = get(start);
    let (s1, c1) = get(end);
    ((s1 - s0) as f64, (c1 - c0) as f64)
}

/// Per-round sums of one span name's duration (self time when `own`),
/// in µs, over the given rounds.
fn per_round_us(spans: &[Span], own_ns: &[u64], rounds: &[u64], name: &str, own: bool) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = rounds.iter().map(|&r| (r, 0.0)).collect();
    for (s, &o) in spans.iter().zip(own_ns) {
        if s.name == name {
            if let Some(sum) = sums.get_mut(&s.group) {
                *sum += if own { o } else { s.duration_ns() } as f64 / 1e3;
            }
        }
    }
    sums.into_values().collect()
}

/// Self time per stage inside the replay's rounds: `(name, total µs)`,
/// largest first, and the total round time they partition.
pub fn stage_table(replay: &Replay) -> (Vec<(&'static str, f64)>, f64) {
    let spans = replay.tracer.spans();
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (s, o) in spans.iter().zip(own) {
        if s.name.starts_with("probe.") {
            continue;
        }
        if s.name == "round" {
            total += s.duration_ns() as f64 / 1e3;
        }
        *by_name.entry(s.name).or_default() += o as f64 / 1e3;
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    (rows, total)
}

/// Every per-layer value, in [`PER_LAYER`] order: client-side timings and
/// registry deltas from the traced TCP pass, call spans from the replay,
/// tracing overhead against the untraced pass.
pub fn per_layer(untraced: &Pass, traced: &Pass, replay: &Replay) -> Values {
    let spans = replay.tracer.spans();
    let own = self_times_ns(spans);
    let rounds = &replay.place_rounds;
    let round_p50 =
        |name: &str, own_time: bool| p50(&per_round_us(spans, &own, rounds, name, own_time));
    let call_p50 = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        p50(&v)
    };

    let empty = Snapshot { series: Vec::new() };
    let s0 = traced.snapshot_start.as_ref().unwrap_or(&empty);
    let s1 = traced.snapshot.as_ref().unwrap_or(&empty);
    let counter = |name: &str| counter_delta(s0, s1, name);
    let cycles = counter("core.cycles_total");
    let per_cycle = |name: &str| ratio(hist_delta(s0, s1, name).0, cycles);
    let placed = traced.placed_ms.len() as f64;
    let (place_us, _) = hist_delta(s0, s1, "core.place_us");
    let lp_solves =
        hist_delta(s0, s1, "core.relax_lp_us").1 + hist_delta(s0, s1, "core.ilp_solve_us").1;
    let warm_hits =
        counter("core.relax_warm_start_hits_total") + counter("core.ilp_warm_start_hits_total");
    let stats = &traced.stats;
    let wasted = (stats.commit_conflicts + stats.lras_unplaced) as f64;

    let traced_p50 = p50(&traced.placed_ms);
    let untraced_p50 = p50(&untraced.placed_ms);
    let replay_round_us = round_p50("round", false);
    let lag = sorted(&traced.lag_ms);

    vec![
        ("server.decode_us", round_p50("server.decode", true)),
        ("server.admission_us", round_p50("server.admission", true)),
        ("server.encode_us", round_p50("server.encode", true)),
        ("server.ack_us", p50(&traced.ack_us)),
        ("server.query_us", p50(&traced.query_us)),
        (
            "server.queue_wait_us",
            mean(&traced.accepted_to_placed_ms) * 1e3 - per_cycle("core.cycle_time_us"),
        ),
        (
            "server.batch_size",
            ratio(counter("server.accepted_total"), cycles),
        ),
        (
            "server.shed_total",
            s1.counter("server.shed_total").unwrap_or(0) as f64,
        ),
        (
            "server.protocol_errors_total",
            s1.counter("server.protocol_errors_total").unwrap_or(0) as f64,
        ),
        ("core.submit_us", round_p50("core.submit", true)),
        ("core.cancel_us", call_p50("core.cancel")),
        ("core.propose_us", round_p50("core.propose", false)),
        ("core.solve_us", round_p50("core.solve", false)),
        ("core.propose_overhead_us", round_p50("core.propose", true)),
        ("core.relax_lp_us", per_cycle("core.relax_lp_us")),
        ("core.relax_round_us", per_cycle("core.relax_round_us")),
        ("core.relax_residue_us", per_cycle("core.relax_residue_us")),
        (
            "core.model_build_us",
            ratio(place_us, cycles)
                - per_cycle("core.relax_lp_us")
                - per_cycle("core.relax_round_us")
                - per_cycle("core.relax_residue_us"),
        ),
        (
            "core.us_per_container",
            ratio(place_us, traced.containers_placed as f64),
        ),
        ("core.commit_us", round_p50("core.commit", true)),
        ("core.publish_us", round_p50("core.publish", true)),
        (
            "core.useful_placement_ratio",
            ratio(
                stats.lras_deployed as f64,
                stats.lras_deployed as f64 + wasted,
            ),
        ),
        ("core.commit_conflicts", stats.commit_conflicts as f64),
        ("core.shard_resubmissions", stats.shard_resubmissions as f64),
        ("core.relax_fallbacks", counter("core.relax_fallback_total")),
        (
            "core.heuristic_fallbacks",
            counter("core.heuristic_fallback_total"),
        ),
        ("cluster.snapshot_us", call_p50("probe.cluster_snapshot")),
        ("cluster.shard_plan_us", call_p50("probe.shard_plan")),
        ("cluster.alloc_release_ns", replay.alloc_release_ns),
        (
            "cluster.index_update_ops_per_container",
            ratio(traced.index_ops as f64, traced.containers_placed as f64),
        ),
        ("cluster.restore_us", traced.read_path.restore_us),
        ("constraints.parse_us", round_p50("constraints.parse", true)),
        ("constraints.violation_stats_us", p50(&traced.violation_us)),
        ("constraints.active", p50(&traced.active_constraints)),
        (
            "constraints.violated_share",
            ratio(traced.violating as f64, traced.checked as f64),
        ),
        (
            "solver.simplex_pivots_per_round",
            ratio(counter("solver.simplex_pivots_total"), cycles),
        ),
        (
            "solver.refactorizations_per_round",
            ratio(counter("solver.refactorizations_total"), cycles),
        ),
        (
            "solver.bnb_nodes_per_round",
            ratio(counter("solver.bnb_nodes_explored_total"), cycles),
        ),
        ("solver.warm_start_hit_ratio", ratio(warm_hits, lp_solves)),
        ("journal.append_us", traced.read_path.append_us),
        (
            "journal.records_per_placement",
            ratio(traced.journal.records_appended as f64, placed),
        ),
        (
            "journal.bytes_per_placement",
            ratio(traced.journal.bytes_appended as f64, placed),
        ),
        ("journal.append_errors", traced.journal.append_errors as f64),
        ("journal.load_us", traced.read_path.load_us),
        ("journal.checkpoint_us", traced.read_path.checkpoint_us),
        ("core.restart_us", p50(&traced.restart_ms) * 1e3),
        ("client.converge_p50_ms", p50(&traced.converge_ms)),
        (
            "client.placed_p90_ms",
            percentile(&sorted(&traced.raw_placed_ms), 0.9).unwrap_or(0.0),
        ),
        (
            "client.generator_lag_p99_ms",
            percentile(&lag, 0.99).unwrap_or(0.0),
        ),
        (
            "client.one_batch_burst_share",
            ratio(traced.one_round_bursts as f64, traced.bursts as f64),
        ),
        ("obs.replay_round_us", replay_round_us),
        (
            "obs.unaccounted_share",
            1.0 - ratio(replay_round_us / replay.slowdown, untraced_p50 * 1e3),
        ),
        (
            "obs.tracing_overhead_share",
            ratio(traced_p50 - untraced_p50, untraced_p50),
        ),
    ]
}

/// A generator that sends a tenth of its requests later than this is
/// not running the schedule it claims.
const LAG_LIMIT_MS: f64 = 5.0;

/// Run-level checks on top of the per-operation ones a pass collects.
pub fn check(spec: &Spec, pass: &Pass, traced: bool) -> Vec<String> {
    let mut errors = pass.errors.clone();
    if pass.placed_ms.is_empty() {
        errors.push("nothing was placed".to_string());
    }
    // Open-loop hygiene: the generator kept its schedule and the server
    // kept up with it. The gate is the p90: one 150 ms stall of the VM
    // (seen in 1 of 10 quiet runs) moves the p99 of 600 requests past
    // any limit on its own; it is reported, and charged to latency.
    if let Some(p90) = percentile(&sorted(&pass.lag_ms), 0.9) {
        if p90 > LAG_LIMIT_MS {
            errors.push(format!(
                "generator lag p90 {p90:.2} ms exceeds {LAG_LIMIT_MS} ms"
            ));
        }
    }
    let third = pass.queue_depth.len() / 3;
    if third > 0 {
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        let (head, tail) = pass.queue_depth.split_at(pass.queue_depth.len() - third);
        if mean(tail) > mean(head) + 2.0 {
            errors.push(format!(
                "server backlog growing: queue depth {:.1} in the last third, {:.1} before",
                mean(tail),
                mean(head)
            ));
        }
    }
    // One burst must be one batch, or the burst's latency is not the
    // cost of solving its apps together.
    if traced
        && matches!(spec.kind, Kind::Hbase { .. })
        && pass.one_round_bursts * 100 < pass.bursts * 95
    {
        errors.push(format!(
            "only {} of {} bursts were placed by a single round",
            pass.one_round_bursts, pass.bursts
        ));
    }
    errors
}

/// The driver's result line.
pub fn result_json(correct: bool, pass: &Pass, defs: &[MetricDef], values: &Values) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        pass.ops_attempted.max(1),
        pass.ops_failed
    );
    for (i, (name, value)) in values.iter().enumerate() {
        let unit = defs.iter().find(|d| d.name == *name).map_or("", |d| d.unit);
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The table a person reads.
pub fn print_table(spec: &Spec, pass: &Pass, defs: &[MetricDef], values: &Values, e2e: bool) {
    if e2e {
        println!("{} — {}", spec.name, spec.why);
        println!(
            "  (placed is observed by query sweeps: each latency reads up to one sweep late — \
             0.5 ms or 2% of itself)"
        );
    }
    println!(
        "{}: {} LRAs placed of {} attempted ({} independent samples), {} of {} operations failed, window {:.2} s",
        spec.name,
        pass.placed_ms.len(),
        pass.lras_attempted,
        pass.samples,
        pass.ops_failed,
        pass.ops_attempted,
        pass.window_s,
    );
    if let (Some(lo), Some(hi)) = (
        pass.speed.iter().copied().reduce(f64::min),
        pass.speed.iter().copied().reduce(f64::max),
    ) {
        println!(
            "  machine took {:.3}x the reference time for the calibration kernel \
             ({lo:.3}–{hi:.3} over {} segments){}",
            p50(&pass.speed),
            pass.speed.len(),
            if e2e {
                "; set-up, CPU time and — closed loops — latencies and window length below \
                 are divided by it, segment by segment"
            } else {
                ""
            },
        );
        if e2e && !pass.raw_placed_ms.is_empty() {
            println!(
                "  placed_p50_ms as the clock read it: {:.4} ms",
                p50(&pass.raw_placed_ms)
            );
        }
    }
    if e2e && !pass.lag_ms.is_empty() {
        println!(
            "  open loop: generator lag p90 {:.3} ms (the run fails above {LAG_LIMIT_MS} ms), p99 {:.3} ms",
            percentile(&sorted(&pass.lag_ms), 0.9).unwrap_or(0.0),
            percentile(&sorted(&pass.lag_ms), 0.99).unwrap_or(0.0)
        );
    }
    for (name, value) in values {
        let Some(d) = defs.iter().find(|d| d.name == *name) else {
            continue;
        };
        let bound = if e2e {
            format!("  (regression bound {:.0}%)", d.bound * 100.0)
        } else {
            String::new()
        };
        println!("  {name:<40} {value:>14.4} {:<6}{bound}", d.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    /// `/BENCHMARK.json` and the tables above must name the same
    /// metrics, units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Array(a)) => a.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let rows = list(key);
            assert_eq!(rows.len(), defs.len(), "{key} length");
            for (row, d) in rows.iter().zip(defs) {
                assert_eq!(text(row, "name"), d.name);
                assert_eq!(text(row, "unit"), d.unit);
                let better = if d.better == Lower { "lower" } else { "higher" };
                assert_eq!(text(row, "better"), better, "{}", d.name);
                if key == "end_to_end" {
                    assert_eq!(row.get("bound").and_then(Json::as_f64), Some(d.bound));
                }
            }
        }
        let rows = list("workloads");
        assert_eq!(rows.len(), crate::env::WORKLOADS.len());
        for (row, w) in rows.iter().zip(&crate::env::WORKLOADS) {
            assert_eq!(text(row, "name"), w.name);
            assert_eq!(text(row, "why"), w.why);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::FULL_SECONDS as f64)
        );
    }
}
