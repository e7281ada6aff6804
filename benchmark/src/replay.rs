//! The per-layer half of a traced run: the frame stream the traced TCP
//! pass logged, pushed through a benchmark-owned copy of the server's
//! batcher cycle with one span around every call into a layer —
//! `Request::decode` → `parse_constraint` → `AdmissionQueue::offer` /
//! `take_batch` → `cancel_lra` → `submit_lra` → `set_replicas` →
//! `propose_all` (its solves' `algorithm_time` as child spans) →
//! `commit` → `SharedScheduler::publish` → `Response::encode`.
//!
//! Same scheduler configuration and seed as the TCP passes, no sockets,
//! no batch-close wait: what is left is the work. Spans inside the
//! crates are a later issue; until then `core.propose` self time lumps
//! reconcile, snapshot, shard plan, routing and baselines together.

use std::path::Path;
use std::time::Instant;

use medea_cluster::{
    ApplicationId, ContainerRequest, ExecutionKind, NodeId, Resources, ShardPlan, Tag,
};
use medea_constraints::parse_constraint;
use medea_core::{LifecyclePhase, LraRequest, SharedScheduler};
use medea_server::{AdmissionConfig, AdmissionQueue, Request, Response, ServerConfig};

use crate::calib::Speedometer;
use crate::env::{self, Spec};
use crate::gen::Gen;
use crate::run::Round;
use crate::trace::Tracer;

/// A lifecycle round keeps cycling while the reconciler converges; the
/// server does the same on its wait timeout. Bounded so a bug cannot hang.
const MAX_CYCLES_PER_ROUND: usize = 32;

pub struct Replay {
    pub tracer: Tracer,
    /// Timed rounds that carried at least one `place`, ascending.
    pub place_rounds: Vec<u64>,
    /// ns per allocate+release pair on a copy of the final state.
    pub alloc_release_ns: f64,
    /// How much slower than at reference speed the place rounds ran:
    /// kernel calls after each of them (see [`crate::calib`]).
    pub slowdown: f64,
}

pub fn replay(spec: &Spec, seed: u64, stream: &[Round], out_dir: &Path) -> Result<Replay, String> {
    let mut gen = Gen::new(seed);
    let dir = out_dir.join(spec.name).join("replay-journal");
    let m = env::scheduler(spec, &mut gen, &dir, None)?;
    let interval = m.interval().max(1);
    let shared = SharedScheduler::new(m);
    shared.set_dropped_cap(ServerConfig::default().terminal_apps_cap);
    shared.publish(0);
    let mut queue = AdmissionQueue::new(AdmissionConfig::default());
    let mut tracer = Tracer::new();
    let mut place_rounds = Vec::new();
    let mut speed = Speedometer::new();
    let mut tick = 0u64;
    let origin = Instant::now();

    for (n, round) in stream.iter().enumerate() {
        tracer.enabled = round.timed;
        tracer.set_group(n as u64);
        let mut places = 0usize;
        tracer.span("round", |tr| -> Result<(), String> {
            let mut releases = Vec::new();
            let mut scales = Vec::new();
            let mut replies = Vec::new();
            for frame in &round.frames {
                let req = tr
                    .span("server.decode", |_| Request::decode(frame))
                    .map_err(|e| format!("replay decode: {}", e.message))?;
                match req {
                    Request::Place {
                        id,
                        tenant,
                        app,
                        containers,
                        constraints,
                    } => {
                        places += 1;
                        let parsed = tr
                            .span("constraints.parse", |_| {
                                constraints
                                    .iter()
                                    .map(|c| parse_constraint(c))
                                    .collect::<Result<Vec<_>, _>>()
                            })
                            .map_err(|e| format!("replay parse: {e}"))?;
                        let depth = tr.span("server.admission", |_| {
                            let mut reqs = Vec::new();
                            for spec in &containers {
                                let tags: Vec<Tag> = spec.tags.iter().map(Tag::new).collect();
                                for _ in 0..spec.count {
                                    reqs.push(ContainerRequest::new(
                                        Resources::new(spec.memory_mb, spec.vcores),
                                        tags.clone(),
                                    ));
                                }
                            }
                            let request = LraRequest::new(ApplicationId(app), reqs, parsed);
                            queue.offer(&tenant, request, origin.elapsed().as_millis() as u64)
                        });
                        let depth = depth.map_err(|r| format!("replay shed: {}", r.code()))?;
                        replies.push(Response::Accepted {
                            id,
                            app,
                            queue_depth: depth as u64,
                        });
                    }
                    Request::Release { id, app, .. } => {
                        releases.push(app);
                        replies.push(Response::Released { id, app });
                    }
                    Request::Scale {
                        id, app, replicas, ..
                    } => {
                        scales.push((app, replicas as usize));
                        replies.push(Response::ScaleAck { id, app, replicas });
                    }
                    other => return Err(format!("replay: unexpected frame {other:?}")),
                }
            }
            let mut batch = tr.span("server.admission", |_| queue.take_batch());
            let placed_apps: Vec<u64> = batch.iter().map(|w| w.request.app.0).collect();
            for cycle in 0.. {
                let converging = shared.with_writer(|m| {
                    for app in releases.drain(..) {
                        tr.span("core.cancel", |_| m.cancel_lra(ApplicationId(app)));
                    }
                    for work in batch.drain(..) {
                        tr.span("core.submit", |_| m.submit_lra(work.request, tick))
                            .map_err(|e| format!("replay submit: {e:?}"))?;
                    }
                    for (app, replicas) in scales.drain(..) {
                        tr.span("core.spec", |_| {
                            m.set_replicas(ApplicationId(app), replicas)
                        });
                    }
                    let solves = tr.span("core.propose", |tr| {
                        let solves = m.propose_all(tick);
                        for s in &solves {
                            tr.child("core.solve", s.algorithm_time().as_nanos() as u64);
                        }
                        solves
                    });
                    for solve in solves {
                        tr.span("core.commit", |_| m.commit(tick, solve));
                    }
                    Ok::<bool, String>(m.lifecycles().iter().any(|l| {
                        !matches!(l.phase, LifecyclePhase::Steady | LifecyclePhase::Retired)
                    }))
                })?;
                tick += interval;
                tr.span("core.publish", |_| shared.publish(tick));
                if !converging || cycle + 1 >= MAX_CYCLES_PER_ROUND {
                    break;
                }
            }
            // What goes back on the wire: every ack, and for each placed
            // app the `query` reply of the tenant's last sweep.
            let board = shared.status();
            for app in placed_apps {
                if let Some(medea_core::AppPhase::Placed { nodes }) = board.app(ApplicationId(app))
                {
                    replies.push(Response::AppStatus {
                        id: 0,
                        app,
                        phase: "placed".to_string(),
                        nodes: nodes.iter().map(|n| n.0).collect(),
                        attempts: 0,
                    });
                }
            }
            for r in &replies {
                tr.span("server.encode", |_| r.encode());
            }
            Ok(())
        })?;
        if round.timed && places > 0 {
            place_rounds.push(n as u64);
            // Probes, outside the round: the per-round state copies
            // `propose` makes, timed on their own.
            shared.with_writer(|m| {
                tracer.span("probe.cluster_snapshot", |_| m.state().snapshot());
                tracer.span("probe.shard_plan", |_| {
                    ShardPlan::build(m.state().groups(), spec.shards.max(1))
                });
            });
            speed.read(2);
        }
    }

    let alloc_release_ns = shared.with_writer(|m| {
        let mut work = m.state().snapshot();
        let state = work.state_mut();
        let req = ContainerRequest::new(Resources::new(1, 1), [Tag::new("bench_churn")]);
        let n = state.num_nodes() as u32;
        let pairs = 2_000u32;
        let t = Instant::now();
        for i in 0..pairs {
            if let Ok(id) = state.allocate(
                ApplicationId(u64::MAX),
                NodeId(i % n),
                &req,
                ExecutionKind::LongRunning,
            ) {
                let _ = state.release(id);
            }
        }
        t.elapsed().as_nanos() as f64 / f64::from(pairs)
    });
    tracer.enabled = true;
    Ok(Replay {
        tracer,
        place_rounds,
        alloc_release_ns,
        slowdown: spec.slowdown(speed.take()),
    })
}
