//! Shared experiment scaffolding: deploy LRA mixes with a chosen
//! algorithm and measure the §7.4 global-objective metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use medea_cluster::{ApplicationId, ClusterState, ExecutionKind};
use medea_constraints::{violation_stats, PlacementConstraint, ViolationStats};
use medea_core::{LraAlgorithm, LraRequest, LraScheduler};
use medea_obs::MetricsRegistry;
use medea_sim::apps;

/// Result of statically deploying a list of LRAs.
#[derive(Debug)]
pub struct DeployResult {
    /// Final cluster state.
    pub state: ClusterState,
    /// Active constraints of all successfully deployed LRAs.
    pub constraints: Vec<PlacementConstraint>,
    /// Applications deployed.
    pub deployed: Vec<ApplicationId>,
    /// Requests that could not be placed.
    pub unplaced: usize,
    /// Wall-clock placement time per batch.
    pub batch_times: Vec<Duration>,
}

impl DeployResult {
    /// Violation statistics over the deployed constraints.
    pub fn violations(&self) -> ViolationStats {
        violation_stats(&self.state, self.constraints.iter())
    }
}

/// Deploys `requests` onto `cluster` in batches of `batch_size` (the
/// paper's *periodicity*: how many LRAs each scheduling cycle considers),
/// committing successful placements and accumulating constraints.
pub fn deploy_lras(
    cluster: ClusterState,
    algorithm: LraAlgorithm,
    requests: &[LraRequest],
    batch_size: usize,
) -> DeployResult {
    deploy_with(
        cluster,
        LraScheduler::new(algorithm),
        requests,
        batch_size,
        None,
    )
}

/// Like [`deploy_lras`], but wires `registry` into the scheduler so the
/// ILP path reports `solver.*` / `core.*` series, and records each batch
/// placement time into the `bench.place_batch_us` histogram.
pub fn deploy_lras_with_metrics(
    cluster: ClusterState,
    algorithm: LraAlgorithm,
    requests: &[LraRequest],
    batch_size: usize,
    registry: &Arc<MetricsRegistry>,
) -> DeployResult {
    let mut scheduler = LraScheduler::new(algorithm);
    scheduler.set_metrics(registry);
    deploy_with(cluster, scheduler, requests, batch_size, Some(registry))
}

fn deploy_with(
    mut cluster: ClusterState,
    scheduler: LraScheduler,
    requests: &[LraRequest],
    batch_size: usize,
    registry: Option<&Arc<MetricsRegistry>>,
) -> DeployResult {
    let mut constraints: Vec<PlacementConstraint> = Vec::new();
    let mut deployed = Vec::new();
    let mut unplaced = 0usize;
    let mut batch_times = Vec::new();

    for batch in requests.chunks(batch_size.max(1)) {
        let t0 = Instant::now();
        let outcomes = scheduler.place(&cluster, batch, &constraints);
        let elapsed = t0.elapsed();
        if let Some(m) = registry {
            m.histogram("bench.place_batch_us").record_duration(elapsed);
        }
        batch_times.push(elapsed);
        for (req, outcome) in batch.iter().zip(outcomes) {
            match outcome.placement() {
                Some(pl) => {
                    let mut ok = true;
                    let mut ids = Vec::new();
                    for (c, &n) in req.containers.iter().zip(&pl.nodes) {
                        match cluster.allocate(req.app, n, c, ExecutionKind::LongRunning) {
                            Ok(id) => ids.push(id),
                            Err(_) => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        deployed.push(req.app);
                        constraints.extend(req.constraints.iter().cloned());
                    } else {
                        for id in ids {
                            let _ = cluster.release(id);
                        }
                        unplaced += 1;
                    }
                }
                None => unplaced += 1,
            }
        }
    }
    DeployResult {
        state: cluster,
        constraints,
        deployed,
        unplaced,
        batch_times,
    }
}

/// An alternating HBase/TensorFlow mix of `n` instances (the §7.4
/// workload uses HBase instances; §7.2 mixes both).
pub fn lra_mix(n: usize, hbase_fraction: f64, first_app_id: u64) -> Vec<LraRequest> {
    let n_hbase = (n as f64 * hbase_fraction).round() as usize;
    (0..n)
        .map(|i| {
            let app = ApplicationId(first_app_id + i as u64);
            if i < n_hbase {
                apps::hbase_instance(app, 10)
            } else {
                apps::tensorflow_instance(app)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::Resources;

    #[test]
    fn deploy_commits_and_counts() {
        let cluster = ClusterState::homogeneous(20, Resources::new(16 * 1024, 16), 4);
        let reqs = lra_mix(4, 0.5, 100);
        let res = deploy_lras(cluster, LraAlgorithm::NodeCandidates, &reqs, 2);
        assert_eq!(res.deployed.len() + res.unplaced, 4);
        assert!(res.deployed.len() >= 3, "most should place");
        assert_eq!(res.batch_times.len(), 2);
        let v = res.violations();
        assert!(v.containers_checked > 0);
    }

    #[test]
    fn deploy_with_metrics_records_batches() {
        let cluster = ClusterState::homogeneous(20, Resources::new(16 * 1024, 16), 4);
        let reqs = lra_mix(4, 0.5, 100);
        let registry = MetricsRegistry::new();
        let res =
            deploy_lras_with_metrics(cluster, LraAlgorithm::NodeCandidates, &reqs, 2, &registry);
        assert_eq!(res.batch_times.len(), 2);
        let snap = registry.snapshot();
        let hist = snap
            .histogram("bench.place_batch_us")
            .expect("series exists");
        assert_eq!(hist.count, 2);
    }

    #[test]
    fn mix_fractions() {
        let reqs = lra_mix(10, 1.0, 0);
        assert_eq!(reqs.len(), 10);
        // All HBase at fraction 1.0: 13 containers each.
        assert!(reqs.iter().all(|r| r.num_containers() == 13));
        let mixed = lra_mix(10, 0.5, 0);
        let tf = mixed.iter().filter(|r| r.num_containers() == 11).count();
        assert_eq!(tf, 5);
    }
}
