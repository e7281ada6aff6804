//! The quiet gap's bound, swept on the fake clock of [`common::served`]
//! (DESIGN.md §7f). Each stream's cycle costs its benchmark workload's
//! traced round; each run reports the enqueue → placed median in fake
//! µs, the mean batch and the violated soft checks (summed over the
//! boards, as the served transcripts pin them, and over the groups once
//! each settled, which does not grow with the number of boards).
//!
//! The default test compares the server's bound, [`QUIET_MAX_US`], with
//! the rule before it (the last round, capped only by the deadline) on
//! every stream: a bound that splits a burst or costs a served stream
//! soft checks fails it. The whole grid, and the bound its selection rule picks, is the
//! ignored test: `cargo test --release -p medea-server --test
//! quiet_sweep -- --ignored --nocapture`.

mod common;
use common::served::{
    burst_hbase, burst_hbase_spaced, churn_restart, run, scale_sharded, scale_sharded_spaced,
    steady_tiny, trickle, Batching, Workload, TRICKLE_SPACINGS_US,
};
use medea_server::{AdmissionConfig, QUIET_MAX_US};

/// The rule before the bound: the gap is the last round, capped only by
/// the deadline.
const ROUND_OR_CAP: u64 = u64::MAX;
const BOUNDS_US: [u64; 6] = [0, 250, 500, 1_000, 2_000, ROUND_OR_CAP];
const DEADLINES_MS: [u64; 4] = [2, 5, 10, 20];
/// The server's deadline, at which the bound is chosen.
const DEADLINE_MS: u64 = 10;
const SEED: u64 = 7;

/// One stream of the sweep.
struct Case {
    name: &'static str,
    workload: fn() -> Workload,
    /// The workload's traced round cost (µs): each cycle's fake cost.
    wall_us: u64,
    /// Apps per burst, for a burst-shaped stream.
    burst: Option<usize>,
    /// Whether it is one of the four served streams.
    served: bool,
}

fn cases() -> Vec<Case> {
    let case = |name, workload, wall_us, burst, served| Case {
        name,
        workload,
        wall_us,
        burst,
        served,
    };
    vec![
        case("steady_tiny", || steady_tiny(SEED), 300, None, true),
        case("burst_hbase", || burst_hbase(SEED), 12_000, Some(3), true),
        case(
            "scale_sharded",
            || scale_sharded(SEED),
            6_000,
            Some(8),
            true,
        ),
        case("churn_restart", || churn_restart(SEED), 700, None, true),
        case(
            "burst_hbase, 200 µs",
            || burst_hbase_spaced(SEED, 200),
            12_000,
            Some(3),
            false,
        ),
        case(
            "scale_sharded, 200 µs",
            || scale_sharded_spaced(SEED, 200),
            6_000,
            Some(8),
            false,
        ),
        case("trickle", || trickle(SEED), 12_000, None, false),
    ]
}

/// What one (stream, bound, deadline) run did.
struct Cell {
    placed_p50_us: u64,
    mean_batch: f64,
    soft: usize,
    settled_soft: usize,
    /// Requests per batch-carrying cycle.
    batches: Vec<usize>,
    /// Every batch of a burst-shaped stream is one whole burst.
    whole_bursts: bool,
}

fn cell(case: &Case, quiet_max_us: u64, deadline_ms: u64) -> Cell {
    let batching = Batching {
        admission: AdmissionConfig {
            batch_max_wait_ms: deadline_ms,
            ..AdmissionConfig::default()
        },
        quiet_max_us,
        wall_us: case.wall_us,
    };
    let mut run = run((case.workload)(), &batching);
    run.placed_us.sort_unstable();
    let requests: usize = run.batches.iter().sum();
    Cell {
        placed_p50_us: run.placed_us[run.placed_us.len() / 2],
        mean_batch: requests as f64 / run.batches.len() as f64,
        soft: run.pins.soft_violations,
        settled_soft: run.settled_soft,
        whole_bursts: case
            .burst
            .is_none_or(|apps| run.batches.iter().all(|&b| b == apps)),
        batches: run.batches,
    }
}

fn bound_name(bound: u64) -> String {
    match bound {
        ROUND_OR_CAP => "round or cap".to_string(),
        us => format!("{us} µs"),
    }
}

fn row(name: &str, bound: u64, deadline_ms: u64, c: &Cell) {
    println!(
        "{name:<22} {:>12} {deadline_ms:>3} ms  p50 {:>6} µs  batch {:>5.2}  soft {:>3}  settled {:>3}  whole bursts {}",
        bound_name(bound),
        c.placed_p50_us,
        c.mean_batch,
        c.soft,
        c.settled_soft,
        c.whole_bursts,
    );
}

/// The selection rule's test of one bound on one stream, against the
/// rule before the bound: every burst stays one batch, a served stream
/// breaks no more soft checks over its boards, and no stream but the
/// trickle breaks more once its groups settled. (A burst variant's board
/// count can grow by one board without any placement changing: its last
/// burst closes on quiet just before the shutdown instead of riding the
/// drain sweep.)
fn admissible(case: &Case, c: &Cell, before: &Cell) -> bool {
    c.whole_bursts
        && (!case.served || c.soft <= before.soft)
        && (case.name == "trickle" || c.settled_soft <= before.settled_soft)
}

/// The server's bound against the rule before it, at the server's
/// deadline, on every stream: it is admissible, and the trickle's groups
/// spaced under the bound still close as one batch each.
#[test]
fn the_bound_keeps_bursts_whole_and_costs_no_soft_checks() {
    for case in cases() {
        let before = cell(&case, ROUND_OR_CAP, DEADLINE_MS);
        let now = cell(&case, QUIET_MAX_US, DEADLINE_MS);
        row(case.name, ROUND_OR_CAP, DEADLINE_MS, &before);
        row(case.name, QUIET_MAX_US, DEADLINE_MS, &now);
        assert!(
            admissible(&case, &now, &before),
            "{}: bursts whole {}, soft {} / {} settled, {} / {} before the bound",
            case.name,
            now.whole_bursts,
            now.soft,
            now.settled_soft,
            before.soft,
            before.settled_soft
        );
        if case.name == "trickle" {
            let under = TRICKLE_SPACINGS_US
                .iter()
                .filter(|&&s| s < QUIET_MAX_US)
                .count();
            assert_eq!(
                now.batches[..under],
                vec![6; under],
                "a group spaced under the bound is one batch"
            );
        }
    }
}

/// The whole grid, as DESIGN.md §7f shows it, and the bound its rule
/// picks at the server's deadline: the smallest bound admissible on
/// every stream.
#[test]
#[ignore = "the full grid: 192 runs; prints the table"]
fn quiet_bound_grid() {
    let cases = cases();
    let mut ok = vec![true; BOUNDS_US.len()];
    for case in &cases {
        let mut at_deadline = Vec::new();
        for deadline_ms in DEADLINES_MS {
            for bound in BOUNDS_US {
                let c = cell(case, bound, deadline_ms);
                row(case.name, bound, deadline_ms, &c);
                if deadline_ms == DEADLINE_MS {
                    at_deadline.push(c);
                }
            }
        }
        let before = at_deadline.last().expect("the round-or-cap column");
        for (k, c) in at_deadline.iter().enumerate() {
            ok[k] &= admissible(case, c, before);
        }
    }
    let chosen = BOUNDS_US[ok.iter().position(|&k| k).expect("round or cap passes")];
    println!("the rule picks {}", bound_name(chosen));
    assert_eq!(
        chosen, QUIET_MAX_US,
        "QUIET_MAX_US is the bound the rule picks"
    );
}
