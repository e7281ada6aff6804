//! Integration tests for the §5.4/§6 extensions: task-job constraints,
//! the fair queue policy, and the constraint parser — all through the
//! public facade API.

use medea::prelude::*;
use medea::scheduler::QueuePolicy;
use medea_constraints::violation_stats;

#[test]
fn parsed_constraints_drive_real_placements() {
    // Build the whole §2.2 Storm/Memcached affinity story from strings.
    let caf = parse_constraint("{storm, {mem, 1, ∞}, node}").unwrap();
    let mut medea = MedeaScheduler::new(
        ClusterState::homogeneous(8, Resources::new(16 * 1024, 16), 2),
        LraAlgorithm::Ilp,
        10,
    );
    medea
        .submit_lra(
            LraRequest::uniform(
                ApplicationId(1),
                1,
                Resources::new(4096, 2),
                vec![Tag::new("mem")],
                vec![],
            ),
            0,
        )
        .unwrap();
    medea
        .submit_lra(
            LraRequest::uniform(
                ApplicationId(2),
                3,
                Resources::new(2048, 1),
                vec![Tag::new("storm")],
                vec![caf.clone()],
            ),
            0,
        )
        .unwrap();
    let deployed = medea.tick(0);
    assert_eq!(deployed.len(), 2);
    let stats = violation_stats(medea.state(), [&caf]);
    assert_eq!(stats.containers_violating, 0);
}

#[test]
fn task_jobs_respect_lra_affinity_through_the_pipeline() {
    let mut medea = MedeaScheduler::new(
        ClusterState::homogeneous(8, Resources::new(16 * 1024, 16), 4),
        LraAlgorithm::NodeCandidates,
        10,
    );
    // A Memcached LRA lands somewhere.
    medea
        .submit_lra(
            LraRequest::uniform(
                ApplicationId(1),
                1,
                Resources::new(2048, 1),
                vec![Tag::new("mem")],
                vec![],
            ),
            0,
        )
        .unwrap();
    let deployed = medea.tick(0);
    let mem_node = deployed[0].nodes[0];
    let mem_rack = medea
        .state()
        .groups()
        .sets_containing(&NodeGroupId::rack(), mem_node)
        .unwrap()[0];

    // The §5.4 example: a map/reduce job placed on the same rack as the
    // Memcached application, handled heuristically by the task scheduler.
    let job = TaskJobRequest::new(ApplicationId(50), Resources::new(512, 1), 4)
        .with_tags([Tag::new("mr")])
        .with_constraints([parse_constraint("{mr, {mem, 1, inf}, rack}").unwrap()]);
    medea.submit_tasks(job, 1).unwrap();

    // Heartbeats from every node: allocations must stay in the mem rack.
    let mut allocs = Vec::new();
    for n in medea.state().node_ids().collect::<Vec<_>>() {
        allocs.extend(medea.heartbeat(n, 2));
    }
    assert_eq!(allocs.len(), 4);
    for a in &allocs {
        let rack = medea
            .state()
            .groups()
            .sets_containing(&NodeGroupId::rack(), a.node)
            .unwrap()[0];
        assert_eq!(rack, mem_rack, "task landed outside the mem rack");
    }
}

#[test]
fn fair_queues_share_between_competing_jobs() {
    let cluster = ClusterState::homogeneous(4, Resources::new(8192, 8), 2);
    let ts = TaskScheduler::new(vec![QueueConfig::new("default", 1.0, 1.0).fair()]);
    let mut medea = MedeaScheduler::new(cluster, LraAlgorithm::Serial, 10).with_task_scheduler(ts);
    medea
        .submit_tasks(
            TaskJobRequest::new(ApplicationId(1), Resources::new(1024, 1), 8),
            0,
        )
        .unwrap();
    medea
        .submit_tasks(
            TaskJobRequest::new(ApplicationId(2), Resources::new(1024, 1), 8),
            0,
        )
        .unwrap();
    let allocs = medea.heartbeat(NodeId(0), 1);
    let first_six_app1 = allocs
        .iter()
        .take(6)
        .filter(|a| a.app == ApplicationId(1))
        .count();
    assert_eq!(
        first_six_app1, 3,
        "fair policy splits the first slots evenly"
    );
}

#[test]
fn queue_policy_is_configurable_per_queue() {
    // §6: switching scheduler flavour is a configuration change.
    let fifo = QueueConfig::new("a", 0.5, 1.0);
    let fair = QueueConfig::new("b", 0.5, 1.0).fair();
    assert_eq!(fifo.policy, QueuePolicy::Fifo);
    assert_eq!(fair.policy, QueuePolicy::Fair);
}
