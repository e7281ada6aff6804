//! `recovery_bench`: crash-recovery cost at 500–20000 nodes, emitted as
//! machine-readable JSON (`BENCH_recovery.json`).
//!
//! Each scale attaches a file-backed journal (under
//! `target/recovery_bench/`), fills the cluster with journaled task
//! allocations — a checkpoint installed halfway, so the second half of
//! the fill is the replay tail — and then measures the work-preserving
//! restart path end to end:
//!
//! - `restore_us` / `replayed_ops`: wall-clock cost of
//!   [`MedeaScheduler::restart`]'s journal restore (checkpoint load +
//!   tail replay + index/γ rebuild), with faithful node reports (zero
//!   divergence). This is the RM-failover blackout contribution of
//!   state reconstruction.
//! - `tail_restore_us`: the same restore after an explicit checkpoint,
//!   i.e. the floor where the tail is empty — the difference is what
//!   the checkpoint cadence buys.
//! - divergence repair at ~1% container loss: a second restart whose
//!   node reports drop a sampled 1% of containers; the row records how
//!   many phantoms anti-entropy released and verifies that every one is
//!   classified and the invariant audit stays clean.
//!
//! Usage: `cargo run --release -p medea-bench --bin recovery_bench`
//! (`--smoke` runs the 500-node scale only, for CI).

use std::time::Instant;

use medea_bench::BenchJson;
use medea_cluster::{ApplicationId, ClusterState, NodeId, Resources};
use medea_core::{LraAlgorithm, MedeaScheduler, NodeReport, TaskJobRequest};
use medea_journal::{FileStorage, Wal};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

/// Task containers allocated per node during the fill (each one is a
/// journaled mutation, so this also sets the journal's record volume).
const CONTAINERS_PER_NODE: usize = 4;

struct ScaleResult {
    nodes: usize,
    containers: usize,
    wal_records: u64,
    wal_bytes: u64,
    restore_us: u64,
    replayed_ops: u64,
    tail_restore_us: u64,
    lossy_phantoms_released: usize,
    lossy_restore_us: u64,
    audit_clean: bool,
}

/// Ground-truth node reports straight from the scheduler's own state
/// (the zero-divergence baseline).
fn faithful_reports(m: &MedeaScheduler) -> Vec<NodeReport> {
    m.state()
        .node_ids()
        .map(|n| NodeReport {
            node: n,
            available: m.state().is_available(n),
            containers: m
                .state()
                .containers_on(n)
                .map(|c| c.to_vec())
                .unwrap_or_default(),
        })
        .collect()
}

/// Builds a journaled scheduler at the given scale and fills it with
/// `CONTAINERS_PER_NODE` task containers per node, checkpointing at the
/// halfway mark so the second half forms the replay tail.
fn build(nodes: usize) -> MedeaScheduler {
    let cluster =
        ClusterState::homogeneous(nodes, Resources::new(16 * 1024, 16), (nodes / 40).max(1));
    let mut m = MedeaScheduler::new(cluster, LraAlgorithm::NodeCandidates, 10);

    // The journal lives inside the workspace build directory; each scale
    // gets a fresh one so restores never see a stale log.
    let dir = format!("target/recovery_bench/{nodes}");
    let _ = std::fs::remove_dir_all(&dir);
    let storage = FileStorage::open(&dir).expect("journal dir under target/ is writable");
    m.attach_journal(Wal::new(storage), 0)
        .expect("initial checkpoint installs");

    let half = nodes / 2;
    for (i, batch) in [(0usize, half), (half, nodes)].iter().enumerate() {
        let (from, to) = *batch;
        for node in from..to {
            m.submit_tasks(
                TaskJobRequest::new(
                    ApplicationId(1 + node as u64),
                    Resources::new(1024, 1),
                    CONTAINERS_PER_NODE,
                ),
                i as u64,
            )
            .expect("task job submits");
            let allocs = m.heartbeat(NodeId(node as u32), i as u64);
            assert_eq!(allocs.len(), CONTAINERS_PER_NODE, "fill must allocate");
        }
        if i == 0 {
            m.checkpoint(1).expect("mid-fill checkpoint installs");
        }
    }
    m
}

fn bench_scale(nodes: usize) -> ScaleResult {
    let mut m = build(nodes);
    let containers = m.state().num_containers();
    let stats = m.journal_stats();
    let reports = faithful_reports(&m);

    // Zero-divergence restore: checkpoint + half-fill tail replay.
    let report = m.restart(10, &reports).expect("journaled restore succeeds");
    assert!(report.restored_from_journal);
    assert_eq!(report.phantom_containers_released, 0);
    let restore_us = report.restore_us;
    let replayed_ops = report.replayed_ops as u64;

    // Empty-tail floor: checkpoint right before restarting.
    m.checkpoint(11).expect("checkpoint installs");
    let report = m.restart(12, &reports).expect("restore succeeds");
    assert_eq!(report.replayed_ops, 0, "checkpoint truncates the tail");
    let tail_restore_us = report.restore_us;

    // Divergence repair: node reports drop ~1% of containers.
    let mut rng = StdRng::seed_from_u64(0x4EC07E4 + nodes as u64);
    let mut lossy = reports;
    let mut dropped = 0usize;
    for r in &mut lossy {
        r.containers.retain(|_| {
            let keep = rng.random_range(0..100u32) != 0;
            if !keep {
                dropped += 1;
            }
            keep
        });
    }
    let t = Instant::now();
    let report = m.restart(13, &lossy).expect("lossy restore succeeds");
    let lossy_restore_us = t.elapsed().as_micros() as u64;
    assert_eq!(
        report.phantom_containers_released, dropped,
        "anti-entropy releases exactly the divergence"
    );
    assert_eq!(
        report.lost_lra_containers + report.lost_task_containers,
        dropped,
        "every phantom is classified"
    );
    let audit_clean = report.audit_error.is_none() && m.audit().is_ok();

    ScaleResult {
        nodes,
        containers,
        wal_records: stats.records_appended,
        wal_bytes: stats.bytes_appended,
        restore_us,
        replayed_ops,
        tail_restore_us,
        lossy_phantoms_released: dropped,
        lossy_restore_us,
        audit_clean,
    }
}

/// The inside of one `scales` row of `BENCH_recovery.json`.
fn row_json(r: &ScaleResult) -> String {
    format!(
        "\"nodes\": {}, \"containers\": {}, \"wal_records\": {}, \
         \"wal_bytes\": {}, \"restore_us\": {}, \"replayed_ops\": {}, \
         \"tail_restore_us\": {}, \"lossy_phantoms_released\": {}, \
         \"lossy_restore_us\": {}, \"audit_clean\": {}",
        r.nodes,
        r.containers,
        r.wal_records,
        r.wal_bytes,
        r.restore_us,
        r.replayed_ops,
        r.tail_restore_us,
        r.lossy_phantoms_released,
        r.lossy_restore_us,
        r.audit_clean,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: &[usize] = if smoke { &[500] } else { &[500, 5000, 20000] };
    let mut results = Vec::new();
    for &nodes in scales {
        let r = bench_scale(nodes);
        assert!(r.audit_clean, "{nodes} nodes: post-repair audit must hold");
        eprintln!(
            "{} nodes: {} containers, {} wal records ({} bytes); \
             restore {} us ({} replayed ops), empty-tail floor {} us; \
             1% loss: {} phantoms repaired in {} us",
            r.nodes,
            r.containers,
            r.wal_records,
            r.wal_bytes,
            r.restore_us,
            r.replayed_ops,
            r.tail_restore_us,
            r.lossy_phantoms_released,
            r.lossy_restore_us,
        );
        results.push(r);
    }
    let mut doc = BenchJson::new("recovery", smoke);
    doc.rows("scales", results.iter().map(row_json));
    doc.write().expect("BENCH_recovery.json writes");
}
