//! ILP-based LRA placement (§5.2, Fig. 5).
//!
//! The formulation follows the paper with the corrections documented in
//! DESIGN.md §5: the violation component enters the objective negatively,
//! the big-M activation uses a proper subject-presence indicator per
//! (constraint, node set), and Eq. 8's normalization guards `max(c, 1)`.
//!
//! Four engineering devices keep the CPLEX-free solve tractable without
//! changing the optimum:
//!
//! 1. **Container classes** — the containers of one request with equal
//!    resources and equal effective tags are interchangeable, so the model
//!    has one integer column `x_{c,n} ∈ [0, |c|]` per (class, candidate
//!    node) counting the members placed there, instead of one binary per
//!    container. One row per class, `Σ_n x_{c,n} = |c|·S_i`, stands for
//!    Eqs. 2 and 4; every other row sums over class columns with the
//!    per-container coefficients. The violation variables are per
//!    (constraint, node set, leaf), never per subject container, so the
//!    aggregation is exact. Extraction hands a class's members, in
//!    container order, to candidates in ascending index.
//! 2. **Candidate nodes** — nodes with identical free resources, tag
//!    multisets, and group memberships are interchangeable, so at most
//!    `min(|class|, T_total)` representatives of each node class become
//!    candidates, each a column of its own. Classes are keyed from the
//!    freest runs of the index's free-memory ordering until the budget is
//!    covered, and only the node sets holding a candidate get rows, so
//!    both costs follow the budget, not the cluster.
//! 3. **Constraint relevance filtering** — constraints whose subject and
//!    target tags cannot match any newly requested container are dropped:
//!    their violation status is a constant the placement cannot change.
//! 4. **Canonical order** — a request's classes and its own constraints
//!    enter the model in an order that ignores how the tenant listed
//!    them and the app's id, so neither the placement nor the model pins
//!    depend on listing order.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use medea_cluster::{ClusterState, GroupError, NodeGroupId, NodeId, NodeSetIndex, Tag};
use medea_constraints::{PlacementConstraint, TagConstraint, TagExpr};
use medea_solver::{Cmp, Milp, Problem, VarId, VarKind};

use crate::heuristics::{HeuristicScheduler, Ordering};
use crate::lra::PlacerMode;
use crate::objective::{effective_tags, ObjectiveWeights};
use crate::obs_bridge::PlacerMetrics;
use crate::request::{BatchPlacement, LraPlacement, LraRequest, PlacementOutcome};

/// Configuration of the ILP scheduler.
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// Which placer arm serves batches when the scheduler's algorithm is
    /// [`crate::LraAlgorithm::Ilp`]: the exact MILP or the validated
    /// greedy heuristic (`Relaxed` is an alias of `Heuristic`). The
    /// scheduler's circuit breaker may serve the heuristic for a while
    /// regardless of this setting.
    pub mode: PlacerMode,
    /// Objective weights (Eq. 1).
    pub weights: ObjectiveWeights,
    /// Wall-clock budget per solve; the best incumbent is used on timeout.
    pub time_limit: Duration,
    /// Branch-and-bound node limit per solve.
    pub node_limit: usize,
    /// Maximum candidate nodes in the model (equivalence-class capped).
    pub max_candidates: usize,
    /// Relative optimality gap at which the solve may stop early.
    pub gap: f64,
    /// Ablation toggle: seed branch and bound with the greedy heuristic's
    /// placement (on by default; makes the solve anytime).
    pub mip_start: bool,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            mode: PlacerMode::Ilp,
            weights: ObjectiveWeights::default(),
            time_limit: Duration::from_secs(2),
            node_limit: 2_000,
            max_candidates: 32,
            gap: 0.02,
            mip_start: true,
        }
    }
}

impl IlpConfig {
    /// Runs the node-candidates heuristic scoring with these weights,
    /// tentatively on `state` (left as found): the heuristic arm's
    /// placement, and the exact arm's candidate anchor, MIP start and
    /// fallback. Times it as `core.prepare_anchor_us` and counts its
    /// probes.
    pub(crate) fn anchor(
        &self,
        state: &mut ClusterState,
        requests: &[LraRequest],
        deployed_constraints: &[PlacementConstraint],
        allowed: Option<&[NodeId]>,
        metrics: &PlacerMetrics,
    ) -> Vec<PlacementOutcome> {
        let greedy = HeuristicScheduler {
            ordering: Ordering::NodeCandidates,
            weights: self.weights,
        };
        let t_anchor = Instant::now();
        let (placed, effort) = greedy.place_counted(state, requests, deployed_constraints, allowed);
        metrics
            .arm
            .prepare_anchor_us
            .record_duration(t_anchor.elapsed());
        metrics.arm.anchor_probes.add(effort.probes);
        placed
    }
}

/// The outcomes of a batch that needs no placer: empty, or only
/// zero-container requests (each placed on no node). `None` otherwise.
pub(crate) fn trivial(requests: &[LraRequest]) -> Option<Vec<PlacementOutcome>> {
    requests.iter().all(|r| r.containers.is_empty()).then(|| {
        requests
            .iter()
            .map(|r| {
                PlacementOutcome::Placed(LraPlacement {
                    app: r.app,
                    nodes: Vec::new(),
                })
            })
            .collect()
    })
}

/// One class of interchangeable new containers: the containers of one
/// request with equal resources and equal effective tags. The model
/// gives a class one integer column per candidate node.
struct ContainerClass {
    /// Index of the owning request in `requests`.
    req_idx: usize,
    /// Indices of the members within their request, ascending.
    members: Vec<usize>,
    /// Effective tags (request tags + automatic `appid:`).
    tags: Vec<Tag>,
    /// Demand of each member.
    resources: medea_cluster::Resources,
}

/// Groups the requests' containers into classes, request by request. A
/// request's classes go by memory, then vcores, descending, then tags
/// without its own `appid:`, ascending: an order that does not depend on
/// how it lists its containers, or on its id. Members stay ascending.
fn container_classes(requests: &[LraRequest]) -> Vec<ContainerClass> {
    let mut classes: Vec<ContainerClass> = Vec::new();
    for (ri, r) in requests.iter().enumerate() {
        let first = classes.len();
        let own = Tag::app_id(r.app);
        for (ci, c) in r.containers.iter().enumerate() {
            let tags = effective_tags(r.app, c);
            match classes[first..]
                .iter_mut()
                .find(|k| k.resources == c.resources && k.tags == tags)
            {
                Some(k) => k.members.push(ci),
                None => classes.push(ContainerClass {
                    req_idx: ri,
                    members: vec![ci],
                    tags,
                    resources: c.resources,
                }),
            }
        }
        classes[first..].sort_by_cached_key(|k| {
            let tags: Vec<Tag> = k.tags.iter().filter(|t| **t != own).cloned().collect();
            (Reverse((k.resources.memory_mb, k.resources.vcores)), tags)
        });
    }
    classes
}

/// Sort key of one of a request's own constraints: its structure, each
/// tag list sorted with the request's `appid:` tag as `None`, so requests
/// that list the same constraints in any order, under any app id, sort
/// them alike.
fn constraint_key<'a>(c: &'a PlacementConstraint, own: &Tag) -> impl Ord + 'a {
    let tags = |e: &'a TagExpr| {
        let mut key: Vec<Option<&str>> = e
            .tags()
            .iter()
            .map(|t| (t != own).then_some(t.as_str()))
            .collect();
        key.sort_unstable();
        key
    };
    let shape: Vec<usize> = c.expr.conjuncts.iter().map(Vec::len).collect();
    let leaf = |l: &'a TagConstraint| (tags(&l.target), l.cardinality.min, l.cardinality.max);
    let key = (tags(&c.subject), &c.group, c.weight.to_bits(), shape);
    (key, c.expr.leaves().map(leaf).collect::<Vec<_>>())
}

/// The model's constraints: deployed + the new requests',
/// relevance-filtered and deduplicated (several HBase instances all
/// submit the same inter-application cardinality constraint, which would
/// otherwise multiply the model's rows). Each request's own come in
/// `constraint_key` order, not the order it listed them.
fn active_constraints(
    requests: &[LraRequest],
    deployed_constraints: &[PlacementConstraint],
    classes: &[ContainerClass],
) -> Vec<PlacementConstraint> {
    let requested = requests.iter().flat_map(|r| {
        let own = Tag::app_id(r.app);
        let mut listed: Vec<&PlacementConstraint> = r.constraints.iter().collect();
        listed.sort_by_cached_key(|c| constraint_key(c, &own));
        listed
    });
    let mut active: Vec<PlacementConstraint> = Vec::new();
    for c in deployed_constraints.iter().chain(requested) {
        let relevant = classes.iter().any(|k| {
            c.subject.matches_tags(&k.tags)
                || c.expr.leaves().any(|l| l.target.matches_tags(&k.tags))
        });
        if relevant && !active.contains(c) {
            active.push(c.clone());
        }
    }
    active
}

/// The candidate nodes around the anchor's (see [`select_candidates`]),
/// ascending: the model's column order.
fn anchor_candidates(
    state: &ClusterState,
    requests: &[LraRequest],
    classes: &[ContainerClass],
    active: &[PlacementConstraint],
    heuristic: &[PlacementOutcome],
    cfg: &IlpConfig,
    allowed: Option<&[NodeId]>,
) -> Vec<NodeId> {
    let mut anchor_nodes: Vec<NodeId> = (heuristic.iter())
        .filter_map(|o| o.placement())
        .flat_map(|p| p.nodes.iter().copied())
        .collect();
    anchor_nodes.sort();
    anchor_nodes.dedup();

    // Make sure the candidate budget can at least hold the heuristic's
    // node set (a fully spread placement uses one node per container).
    let t_total: usize = requests.iter().map(|r| r.containers.len()).sum();
    let max_candidates = cfg.max_candidates.max((t_total + 4).min(96));
    select_candidates(
        state,
        classes,
        active,
        &anchor_nodes,
        max_candidates,
        t_total,
        allowed,
    )
}

/// The exact arm: places a batch of LRAs by solving the Fig. 5 ILP.
///
/// `deployed_constraints` are the active constraints of already-deployed
/// LRAs and the cluster operator (from the constraint manager); the new
/// requests' own constraints are taken from the requests themselves.
///
/// `allowed` restricts the solve to a node list (a shard's nodes); `None`
/// means all nodes. The restriction is applied where candidates are
/// *selected* — the heuristic MIP start and all three candidate-selection
/// priorities — so the whole model, not just a post-filter, lives inside
/// the shard. Constraint evaluation still sees the full state, keeping
/// `γ` counts over groups globally correct.
///
/// The node-candidates heuristic anchors the model ([`IlpConfig::anchor`]):
/// its chosen nodes seed the candidate set (so the model's search space
/// provably contains the heuristic solution), and its placement becomes
/// the initial incumbent — making the solve anytime: with any deadline
/// the result is heuristic-or-better.
pub(crate) fn solve(
    state: &mut ClusterState,
    requests: &[LraRequest],
    deployed_constraints: &[PlacementConstraint],
    cfg: &IlpConfig,
    allowed: Option<&[NodeId]>,
    metrics: &PlacerMetrics,
) -> BatchPlacement {
    if let Some(outcomes) = trivial(requests) {
        return outcomes.into();
    }
    let classes = container_classes(requests);
    let active = active_constraints(requests, deployed_constraints, &classes);
    let heuristic = cfg.anchor(state, requests, deployed_constraints, allowed, metrics);
    let arm = &metrics.arm;
    let t_candidates = Instant::now();
    let candidates =
        anchor_candidates(state, requests, &classes, &active, &heuristic, cfg, allowed);
    arm.prepare_candidates_us
        .record_duration(t_candidates.elapsed());
    if candidates.is_empty() {
        // No usable node can host even the smallest container: the batch
        // is unplaceable regardless of algorithm — not a solver failure.
        return requests
            .iter()
            .map(|r| PlacementOutcome::Unplaced { app: r.app })
            .collect::<Vec<_>>()
            .into();
    }
    let t_model = Instant::now();
    let model = build_model(state, requests, &classes, &candidates, &active, cfg);
    arm.prepare_model_us.record_duration(t_model.elapsed());

    let mut milp = Milp::new(&model.problem)
        .time_limit(cfg.time_limit)
        .node_limit(cfg.node_limit)
        .gap(cfg.gap);
    if cfg.mip_start {
        if let Some((counts, placed)) = counts_from_outcomes(&classes, &heuristic, &candidates) {
            let point = initial_point(&model, state, &candidates, &classes, &counts, &placed, cfg);
            milp = milp.with_incumbent(point);
        }
    }
    let t_solve = Instant::now();
    let solution = milp.solve();
    arm.ilp_solve_us.record_duration(t_solve.elapsed());
    if let Ok(sol) = &solution {
        metrics.solver.record(sol);
    }

    // Anytime degradation: if the MILP produced nothing usable (an error
    // or a limit hit before any incumbent), fall back to the heuristic
    // placement that anchored the candidate set rather than rejecting the
    // whole batch — the two-scheduler design prefers a heuristic-quality
    // placement now over no placement at all.
    let sol = match &solution {
        Ok(sol) if sol.has_solution() => sol,
        _ => {
            arm.heuristic_fallbacks.inc();
            return BatchPlacement {
                degraded: true,
                ..heuristic.into()
            };
        }
    };

    extract(requests, &classes, &candidates, &model, |v| sol.value(v)).into()
}

/// Reads placements off a point of the model: a request is placed when
/// its `S_i` rounds to 1, and each of its classes hands its members, in
/// container order, to candidates in ascending index, `round(x_{c,n})`
/// members each. A class whose counts do not add up to its size leaves
/// its request `Unplaced`.
fn extract(
    requests: &[LraRequest],
    classes: &[ContainerClass],
    candidates: &[NodeId],
    model: &Model,
    value: impl Fn(VarId) -> f64,
) -> Vec<PlacementOutcome> {
    let mut nodes: Vec<Option<Vec<NodeId>>> = requests
        .iter()
        .zip(&model.s_vars)
        .map(|(r, &s)| {
            (value(s).round() as i64 == 1).then(|| vec![NodeId(u32::MAX); r.containers.len()])
        })
        .collect();
    for (class, x_row) in classes.iter().zip(&model.x_vars) {
        let Some(request_nodes) = nodes[class.req_idx].as_mut() else {
            continue;
        };
        let hosts: Vec<NodeId> = candidates
            .iter()
            .zip(x_row)
            .flat_map(|(&n, &x)| std::iter::repeat_n(n, value(x).round() as usize))
            .collect();
        if hosts.len() != class.members.len() {
            nodes[class.req_idx] = None;
            continue;
        }
        for (&k, n) in class.members.iter().zip(hosts) {
            request_nodes[k] = n;
        }
    }
    requests
        .iter()
        .zip(nodes)
        .map(|(r, nodes)| match nodes {
            Some(nodes) => PlacementOutcome::Placed(LraPlacement { app: r.app, nodes }),
            None => PlacementOutcome::Unplaced { app: r.app },
        })
        .collect()
}

/// Class counts of a placement (`counts[class][candidate]` = members on
/// that candidate) and per-request placed flags. Returns `None` if nothing
/// is placed or a placement uses a node outside the candidate set.
fn counts_from_outcomes(
    classes: &[ContainerClass],
    outcomes: &[PlacementOutcome],
    candidates: &[NodeId],
) -> Option<(Vec<Vec<usize>>, Vec<bool>)> {
    let placed: Vec<bool> = outcomes.iter().map(|o| o.placement().is_some()).collect();
    if !placed.contains(&true) {
        return None;
    }
    let mut counts = vec![vec![0; candidates.len()]; classes.len()];
    for (class, row) in classes.iter().zip(&mut counts) {
        let Some(pl) = outcomes[class.req_idx].placement() else {
            continue;
        };
        for &k in &class.members {
            row[candidates.binary_search(pl.nodes.get(k)?).ok()?] += 1;
        }
    }
    Some((counts, placed))
}

/// Constructs a complete feasible point of the model from a placement's
/// class counts: `x`/`S` from the counts, `z` from residual free memory,
/// `b` from subject presence, `y` as the least-violated conjunct, and the
/// violation variables as the exact shortfall/excess of each leaf.
fn initial_point(
    model: &Model,
    state: &ClusterState,
    candidates: &[NodeId],
    classes: &[ContainerClass],
    counts: &[Vec<usize>],
    placed: &[bool],
    cfg: &IlpConfig,
) -> Vec<f64> {
    let mut v = vec![0.0; model.problem.num_vars()];
    // x and S.
    for (x_row, row) in model.x_vars.iter().zip(counts) {
        for (x, &count) in x_row.iter().zip(row) {
            v[x.index()] = count as f64;
        }
    }
    for (ri, &ok) in placed.iter().enumerate() {
        v[model.s_vars[ri].index()] = if ok { 1.0 } else { 0.0 };
    }
    // z: free memory after placement >= rmin.
    let rmin = cfg.weights.rmin.memory_mb as f64;
    for (ni, &cand) in candidates.iter().enumerate() {
        let free = state.free(cand).map(|f| f.memory_mb as f64).unwrap_or(0.0);
        let used: f64 = classes
            .iter()
            .zip(counts)
            .map(|(class, row)| (row[ni] as u64 * class.resources.memory_mb) as f64)
            .sum();
        v[model.z_vars[ni].index()] = if used + rmin <= free { 1.0 } else { 0.0 };
    }
    // Constraint blocks.
    for block in &model.blocks {
        // Members of the given classes placed inside the block's set.
        let in_set = |of: &[usize]| -> usize {
            of.iter()
                .map(|&c| {
                    block
                        .cand_in_set
                        .iter()
                        .map(|&ni| counts[c][ni])
                        .sum::<usize>()
                })
                .sum()
        };
        let active = block.existing_subjects > 0 || in_set(&block.new_subjects) > 0;
        v[block.b.index()] = if active { 1.0 } else { 0.0 };
        if !active {
            continue; // Rows are slack; viol and y stay 0.
        }
        // Pick the conjunct with the smallest total violation.
        let mut best_d = 0;
        let mut best_viol = f64::INFINITY;
        let viol_of = |leaf: &LeafInfo| -> (f64, f64) {
            let count = leaf.existing_targets + in_set(&leaf.new_targets) as f64;
            let need = leaf.cmin as f64 + leaf.self_m;
            let shortfall = if leaf.cmin > 0 {
                (need - count).max(0.0)
            } else {
                0.0
            };
            let excess = match leaf.cmax {
                Some(cmax) => (count - cmax as f64 - leaf.self_m).max(0.0),
                None => 0.0,
            };
            (shortfall, excess)
        };
        for (d, conjunct) in block.conjuncts.iter().enumerate() {
            let total: f64 = conjunct
                .iter()
                .map(|l| {
                    let (s, e) = viol_of(l);
                    s + e
                })
                .sum();
            if total < best_viol {
                best_viol = total;
                best_d = d;
            }
        }
        for (d, conjunct) in block.conjuncts.iter().enumerate() {
            if let Some(y) = block.y_vars[d] {
                v[y.index()] = if d == best_d { 1.0 } else { 0.0 };
            }
            if d != best_d && block.y_vars[d].is_some() {
                continue; // Inactive conjunct: rows slack, viols 0.
            }
            for leaf in conjunct {
                let (shortfall, excess) = viol_of(leaf);
                if let Some(vmin) = leaf.vmin {
                    v[vmin.index()] = shortfall;
                }
                if let Some(vmax) = leaf.vmax {
                    v[vmax.index()] = excess;
                }
            }
        }
    }
    v
}

/// Selects candidate nodes by equivalence class (see module docs).
///
/// Three priorities shape the candidate set:
/// 1. the nodes chosen by the greedy heuristic (guaranteeing the model's
///    search space contains the MIP-start solution);
/// 2. nodes already hosting containers that match a target leaf of an
///    active constraint (affinity targets live there — they must be in
///    the model or affinity can never be satisfied);
/// 3. the *freest* equivalence classes, round-robin across classes for
///    diversity (so consecutive scheduling cycles do not keep re-packing
///    the same nodes).
#[allow(clippy::too_many_arguments)]
fn select_candidates(
    state: &ClusterState,
    classes: &[ContainerClass],
    active: &[PlacementConstraint],
    heuristic_nodes: &[NodeId],
    max_candidates: usize,
    t_total: usize,
    allowed: Option<&[NodeId]>,
) -> Vec<NodeId> {
    let min_demand = classes
        .iter()
        .map(|c| c.resources)
        .fold(None::<medea_cluster::Resources>, |acc, r| {
            Some(match acc {
                None => r,
                Some(a) => a.min(&r),
            })
        })
        .unwrap_or(medea_cluster::Resources::ZERO);

    // The shard restriction filters *here*, inside usability, rather than
    // post-hoc on the result: priorities 2 and 3 would otherwise fill the
    // budget with out-of-shard nodes that a post-filter then discards,
    // leaving the model with far fewer candidates than budgeted.
    debug_assert!(
        allowed.is_none_or(|a| a.windows(2).all(|w| w[0] < w[1])),
        "allowed nodes must be ascending (candidate_hosts' contract)"
    );
    let usable = |n: NodeId| {
        allowed.is_none_or(|a| a.binary_search(&n).is_ok())
            && state.is_available(n)
            && state
                .free(n)
                .map(|f| min_demand.fits_in(&f))
                .unwrap_or(false)
    };

    // Priority 1: nodes the greedy heuristic chose.
    let mut out: Vec<NodeId> = heuristic_nodes
        .iter()
        .copied()
        .filter(|&n| usable(n))
        .collect();
    out.truncate(max_candidates);

    // Priority 2: nodes hosting affinity targets of active constraints.
    let target_budget = (out.len() + max_candidates / 4).min(max_candidates);
    'outer: for c in active {
        for leaf in c.expr.leaves() {
            // Only minimum-cardinality (affinity-like) leaves require the
            // target's current hosts to be in the model.
            if leaf.cardinality.min == 0 {
                continue;
            }
            // The tag index narrows the scan to nodes carrying every target
            // tag (ascending, the same order as a full node walk); the
            // cardinality check still verifies a single container matches
            // the whole conjunction.
            for n in state.nodes_with_all_tags(leaf.target.tags()) {
                if out.len() >= target_budget {
                    break 'outer;
                }
                if usable(n)
                    && !out.contains(&n)
                    && leaf.target.cardinality_on_node(state, n, None) > 0
                {
                    out.push(n);
                }
            }
        }
    }

    // Priority 3: equivalence classes ordered by free memory (descending).
    // The class key is structural (free resources, sorted tag multiset,
    // group memberships) rather than a formatted string — no per-node
    // format!/join allocations on large clusters.
    //
    // Only the freest runs of equal free memory are keyed, read lazily
    // from the index's ordering. A class never spans two memory values,
    // classes sort by (free memory descending, first node), and the
    // round-robin's first pass takes one node per class: once the runs
    // seen hold as many classes as there is room, no later run can
    // contribute a node. A run is keyed whole before the walk may stop,
    // since its classes sort by first node, not by vcores.
    type ClassKey = (u64, u32, Vec<(Tag, u32)>, Vec<Vec<usize>>);
    let room = max_candidates.saturating_sub(out.len());
    let mut classes: HashMap<ClassKey, Vec<NodeId>> = HashMap::new();
    let group_ids: Vec<_> = state.groups().group_ids().cloned().collect();
    let mut run_memory = None;
    for n in state.nodes_by_free_memory() {
        let free = state.free(n).unwrap_or(medea_cluster::Resources::ZERO);
        if run_memory != Some(free.memory_mb) {
            if classes.len() >= room {
                break;
            }
            run_memory = Some(free.memory_mb);
        }
        if !usable(n) || out.contains(&n) {
            continue;
        }
        let mut tags: Vec<(Tag, u32)> = state
            .node_tags(n)
            .map(|m| m.iter().map(|(t, c)| (t.clone(), c)).collect())
            .unwrap_or_default();
        tags.sort();
        let memberships: Vec<Vec<usize>> = group_ids
            .iter()
            .map(|g| {
                state
                    .groups()
                    .sets_containing_ref(g, n)
                    .map(|s| s.to_vec())
                    .unwrap_or_default()
            })
            .collect();
        classes
            .entry((free.memory_mb, free.vcores, tags, memberships))
            .or_default()
            .push(n);
    }
    let mut per_class: Vec<Vec<NodeId>> = classes
        .into_values()
        .filter_map(|mut v| {
            v.sort();
            v.truncate(t_total);
            (!v.is_empty()).then_some(v)
        })
        .collect();
    // Freest classes first; node id breaks ties deterministically.
    per_class.sort_by_key(|v| {
        let n = v.first().copied().unwrap_or(NodeId(u32::MAX));
        let free = state.free(n).unwrap_or(medea_cluster::Resources::ZERO);
        (std::cmp::Reverse(free.memory_mb), n)
    });
    let mut i = 0;
    while out.len() < max_candidates {
        let mut any = false;
        for class in &per_class {
            if let Some(&n) = class.get(i) {
                any = true;
                if !out.contains(&n) {
                    out.push(n);
                    if out.len() >= max_candidates {
                        break;
                    }
                }
            }
        }
        if !any {
            break;
        }
        i += 1;
    }
    out.sort();
    out
}

/// Handles to the model's variables for extraction.
pub(crate) struct Model {
    pub(crate) problem: Problem,
    /// `x_vars[class idx][candidate idx]`: members placed there.
    pub(crate) x_vars: Vec<Vec<VarId>>,
    /// `s_vars[request idx]` (Eq. 4 all-or-nothing indicators).
    pub(crate) s_vars: Vec<VarId>,
    /// Fragmentation indicators per candidate.
    pub(crate) z_vars: Vec<VarId>,
    /// Constraint blocks per (constraint, node set), for incumbent
    /// construction.
    pub(crate) blocks: Vec<SetBlock>,
}

/// Metadata of one (constraint, node set) block of rows.
pub(crate) struct SetBlock {
    b: VarId,
    existing_subjects: usize,
    /// Classes whose members are subjects.
    new_subjects: Vec<usize>,
    cand_in_set: Vec<usize>,
    y_vars: Vec<Option<VarId>>,
    /// `conjuncts[d]` = leaves of DNF conjunct `d`.
    conjuncts: Vec<Vec<LeafInfo>>,
}

/// Metadata of one leaf's rows inside a block.
struct LeafInfo {
    vmin: Option<VarId>,
    vmax: Option<VarId>,
    existing_targets: f64,
    self_m: f64,
    cmin: u32,
    cmax: Option<u32>,
    /// Classes whose members match the target expression.
    new_targets: Vec<usize>,
}

/// The sets of `group` that hold a candidate, ascending: the only sets
/// that can get rows, in the order a walk over all of them adds blocks.
/// An unknown group is an error, which skips its constraint.
fn sets_holding(
    state: &ClusterState,
    group: &NodeGroupId,
    candidates: &[NodeId],
) -> Result<Vec<NodeSetIndex>, GroupError> {
    let mut sets = Vec::new();
    for &c in candidates {
        sets.extend(state.groups().sets_containing(group, c)?);
    }
    sets.sort_unstable();
    sets.dedup();
    Ok(sets)
}

/// Builds the Fig. 5 ILP over the candidate nodes, one column per
/// (container class, candidate).
fn build_model(
    state: &ClusterState,
    requests: &[LraRequest],
    classes: &[ContainerClass],
    candidates: &[NodeId],
    active: &[PlacementConstraint],
    cfg: &IlpConfig,
) -> Model {
    let k = requests.len();
    let n_cand = candidates.len();
    let m_norm = active.len().max(1);
    let w = &cfg.weights;

    let mut p = Problem::maximize();

    // x_{c,n}: members of class c on candidate n.
    let x_vars: Vec<Vec<VarId>> = classes
        .iter()
        .enumerate()
        .map(|(ci, class)| {
            let size = class.members.len() as f64;
            (0..n_cand)
                .map(|ni| p.add_var(VarKind::Integer, 0.0, size, 0.0, format!("x_{ci}_{ni}")))
                .collect()
        })
        .collect();

    // S_i with objective weight w1 / k (Eq. 1 first component).
    let s_vars: Vec<VarId> = (0..k)
        .map(|ri| p.add_binary(w.w1 / k as f64, format!("s_{ri}")))
        .collect();

    // z_n with objective weight w3 / N (Eq. 1 third component).
    let z_vars: Vec<VarId> = (0..n_cand)
        .map(|ni| p.add_binary(w.w3 / n_cand as f64, format!("z_{ni}")))
        .collect();

    // Eqs. 2 and 4: a class is placed whole, exactly when its request is.
    for (class, x_row) in classes.iter().zip(&x_vars) {
        let mut terms: Vec<(VarId, f64)> = x_row.iter().map(|&v| (v, 1.0)).collect();
        terms.push((s_vars[class.req_idx], -(class.members.len() as f64)));
        p.add_constraint(terms, Cmp::Eq, 0.0);
    }

    // Eq. 3: capacity per candidate (memory and vcores rows).
    for (ni, &cand) in candidates.iter().enumerate() {
        let free = state.free(cand).unwrap_or(medea_cluster::Resources::ZERO);
        let mem_terms: Vec<_> = classes
            .iter()
            .zip(&x_vars)
            .map(|(class, x_row)| (x_row[ni], class.resources.memory_mb as f64))
            .collect();
        p.add_constraint(mem_terms, Cmp::Le, free.memory_mb as f64);
        let cpu_terms: Vec<_> = classes
            .iter()
            .zip(&x_vars)
            .map(|(class, x_row)| (x_row[ni], class.resources.vcores as f64))
            .collect();
        p.add_constraint(cpu_terms, Cmp::Le, free.vcores as f64);
    }

    // Eq. 5: fragmentation indicators. z_n = 1 requires that after the
    // placement the node keeps >= rmin free:
    //     sum(mem_c x_{c,n}) + rmin * z_n <= free_n.
    let rmin = w.rmin.memory_mb as f64;
    for (ni, &cand) in candidates.iter().enumerate() {
        let free = state.free(cand).unwrap_or(medea_cluster::Resources::ZERO);
        let mut terms: Vec<(VarId, f64)> = classes
            .iter()
            .zip(&x_vars)
            .map(|(class, x_row)| (x_row[ni], class.resources.memory_mb as f64))
            .collect();
        terms.push((z_vars[ni], rmin));
        p.add_constraint(terms, Cmp::Le, free.memory_mb as f64);
    }

    // Eqs. 6-8: one indicator per (constraint, node set), with the
    // corrected big-M activation (DESIGN.md §5).
    let mut blocks: Vec<SetBlock> = Vec::new();
    for constraint in active {
        let Ok(sets) = sets_holding(state, &constraint.group, candidates) else {
            continue;
        };
        // Subject classes, precomputed, and how many containers they hold.
        let new_subjects = matching_classes(classes, |tags| constraint.subject.matches_tags(tags));
        let subject_count: usize = new_subjects.iter().map(|&c| classes[c].members.len()).sum();

        for set_idx in sets {
            let Ok(members) = state.groups().set_members(&constraint.group, set_idx) else {
                continue;
            };
            let cand_in_set: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| members.contains(c))
                .map(|(ni, _)| ni)
                .collect();
            if cand_in_set.is_empty() {
                continue;
            }
            // Existing subjects already inside the set.
            let existing_subjects = members
                .iter()
                .flat_map(|&n| state.containers_on(n).unwrap_or(&[]).iter())
                .filter(|&&c| {
                    state
                        .allocation(c)
                        .map(|a| constraint.subject.matches_allocation(a))
                        .unwrap_or(false)
                })
                .count();
            if new_subjects.is_empty() && existing_subjects == 0 {
                continue;
            }

            // b: subject-presence indicator for this set.
            let b = if existing_subjects > 0 {
                p.add_var(VarKind::Binary, 1.0, 1.0, 0.0, format!("b_{set_idx}"))
            } else {
                p.add_binary(0.0, format!("b_{set_idx}"))
            };
            // Link: sum of new-subject placements in the set <= |subjects| b.
            if !new_subjects.is_empty() {
                let mut terms = set_terms(&x_vars, &new_subjects, &cand_in_set);
                terms.push((b, -(subject_count as f64)));
                p.add_constraint(terms, Cmp::Le, 0.0);
            }

            // DNF: indicator y_d per conjunct; sum(y_d) >= b.
            let multi = constraint.expr.conjuncts.len() > 1;
            let y_vars: Vec<Option<VarId>> = constraint
                .expr
                .conjuncts
                .iter()
                .enumerate()
                .map(|(d, _)| {
                    if multi {
                        Some(p.add_binary(0.0, format!("y_{set_idx}_{d}")))
                    } else {
                        None
                    }
                })
                .collect();
            if multi {
                let mut terms: Vec<(VarId, f64)> =
                    y_vars.iter().filter_map(|y| y.map(|v| (v, 1.0))).collect();
                terms.push((b, -1.0));
                p.add_constraint(terms, Cmp::Ge, 0.0);
            }

            let mut conjunct_infos = Vec::with_capacity(constraint.expr.conjuncts.len());
            for (d, conjunct) in constraint.expr.conjuncts.iter().enumerate() {
                let mut leaf_infos = Vec::with_capacity(conjunct.len());
                for (li, leaf) in conjunct.iter().enumerate() {
                    leaf_infos.push(add_leaf_rows(
                        &mut p,
                        state,
                        constraint,
                        leaf,
                        &members,
                        &cand_in_set,
                        classes,
                        &new_subjects,
                        &x_vars,
                        b,
                        y_vars[d],
                        w.w2 / m_norm as f64,
                        &format!("{set_idx}_{d}_{li}"),
                    ));
                }
                conjunct_infos.push(leaf_infos);
            }
            blocks.push(SetBlock {
                b,
                existing_subjects,
                new_subjects: new_subjects.clone(),
                cand_in_set,
                y_vars,
                conjuncts: conjunct_infos,
            });
        }
    }

    Model {
        problem: p,
        x_vars,
        s_vars,
        z_vars,
        blocks,
    }
}

/// Indices of the classes whose effective tags satisfy `matches`.
fn matching_classes(classes: &[ContainerClass], matches: impl Fn(&[Tag]) -> bool) -> Vec<usize> {
    (0..classes.len())
        .filter(|&c| matches(&classes[c].tags))
        .collect()
}

/// `x_{c,n}` with coefficient 1 for each of the given classes and
/// candidates: the count of their members placed on those candidates.
fn set_terms(x_vars: &[Vec<VarId>], of: &[usize], cand_in_set: &[usize]) -> Vec<(VarId, f64)> {
    of.iter()
        .flat_map(|&c| cand_in_set.iter().map(move |&ni| (x_vars[c][ni], 1.0)))
        .collect()
}

/// Adds the Eq. 6 (min) and Eq. 7 (max) rows for one leaf tag constraint
/// on one node set, with violation variables charged per Eq. 8.
#[allow(clippy::too_many_arguments)]
fn add_leaf_rows(
    p: &mut Problem,
    state: &ClusterState,
    constraint: &PlacementConstraint,
    leaf: &TagConstraint,
    members: &[NodeId],
    cand_in_set: &[usize],
    classes: &[ContainerClass],
    new_subjects: &[usize],
    x_vars: &[Vec<VarId>],
    b: VarId,
    y: Option<VarId>,
    w2_norm: f64,
    name: &str,
) -> LeafInfo {
    // Existing matching targets inside the set.
    let existing_targets = leaf.target.cardinality_on_set(state, members, None) as f64;
    // New classes matching the target leaf.
    let new_targets = matching_classes(classes, |tags| leaf.target.matches_tags(tags));
    // Self-exclusion adjustment: 1 when some subject container also
    // matches the target (its own tag occurrence must not satisfy/violate
    // its own constraint) — computed from actual container tags.
    let self_m = {
        let new_self = new_subjects
            .iter()
            .any(|&c| leaf.target.matches_tags(&classes[c].tags));
        let existing_self = members.iter().any(|&n| {
            state.containers_on(n).unwrap_or(&[]).iter().any(|&c| {
                state
                    .allocation(c)
                    .map(|a| {
                        constraint.subject.matches_allocation(a)
                            && leaf.target.matches_allocation(a)
                    })
                    .unwrap_or(false)
            })
        });
        (new_self || existing_self) as u32 as f64
    };

    let total_possible = existing_targets
        + new_targets
            .iter()
            .map(|&c| classes[c].members.len() as f64)
            .sum::<f64>();
    let big_m = total_possible + leaf.cardinality.min as f64 + 1.0;
    let weight = constraint.weight;

    let mut info = LeafInfo {
        vmin: None,
        vmax: None,
        existing_targets,
        self_m,
        cmin: leaf.cardinality.min,
        cmax: leaf.cardinality.max,
        new_targets: new_targets.clone(),
    };

    // Minimum-cardinality row (Eq. 6): required only when cmin > 0.
    if leaf.cardinality.min > 0 {
        let cmin = leaf.cardinality.min as f64;
        // The worst shortfall is cmin + self_m (self-exclusion raises the
        // requirement), so the violation variable must reach that far.
        let vmin = p.add_var(
            VarKind::Continuous,
            0.0,
            cmin + self_m,
            -w2_norm * weight / cmin,
            format!("vmin_{name}"),
        );
        // existing + sum(x_t) + vmin + M(1-b) [+ M(1-y)] >= (cmin + self) b
        // => sum(x_t) + vmin - (cmin + self + M) b [- M y] >= -existing - M [- M]
        let mut terms = set_terms(x_vars, &new_targets, cand_in_set);
        terms.push((vmin, 1.0));
        let mut rhs = -existing_targets;
        terms.push((b, -(cmin + self_m) - big_m));
        rhs -= big_m;
        if let Some(yv) = y {
            terms.push((yv, -big_m));
            rhs -= big_m;
        }
        // Note the b coefficient folds the activation: when b = 0 the row
        // is slack by M; when b = 1 it requires the count to reach cmin
        // (+ self adjustment) or charge vmin.
        p.add_constraint(terms, Cmp::Ge, rhs);
        info.vmin = Some(vmin);
    }

    // Maximum-cardinality row (Eq. 7): required only when cmax is finite.
    if let Some(cmax) = leaf.cardinality.max {
        let cmax = cmax as f64;
        let vmax = p.add_var(
            VarKind::Continuous,
            0.0,
            f64::INFINITY,
            -w2_norm * weight / cmax.max(1.0),
            format!("vmax_{name}"),
        );
        // existing + sum(x_t) <= cmax + self + vmax + M(1-b) [+ M(1-y)]
        // => sum(x_t) + M b [+ M y] - vmax <= cmax + self - existing + M [+ M]
        let mut terms = set_terms(x_vars, &new_targets, cand_in_set);
        terms.push((vmax, -1.0));
        let mut rhs = cmax + self_m - existing_targets;
        // When every target is also a subject (anti-affinity and caps on
        // the subject's own kind), a target in the set forces b = 1, so
        // the row needs no activation. Without it every integral point
        // stays feasible and the LP relaxation sees crowding.
        if !constraint.subject.matches_tags(leaf.target.tags()) {
            terms.push((b, big_m));
            rhs += big_m;
        }
        if let Some(yv) = y {
            terms.push((yv, big_m));
            rhs += big_m;
        }
        p.add_constraint(terms, Cmp::Le, rhs);
        info.vmax = Some(vmax);
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{
        ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, Resources, Tag,
    };
    use medea_constraints::Cardinality;

    /// What the exact arm builds for a batch before it solves.
    struct Prepared {
        classes: Vec<ContainerClass>,
        heuristic: Vec<PlacementOutcome>,
        candidates: Vec<NodeId>,
        model: Model,
    }

    /// The anchor, candidates and model of a batch with no deployed
    /// constraints, as [`solve`] builds them.
    fn prepare_alone(
        state: &mut ClusterState,
        requests: &[LraRequest],
        cfg: &IlpConfig,
        allowed: Option<&[NodeId]>,
    ) -> Prepared {
        let classes = container_classes(requests);
        let active = active_constraints(requests, &[], &classes);
        let heuristic = cfg.anchor(state, requests, &[], allowed, &PlacerMetrics::default());
        let candidates =
            anchor_candidates(state, requests, &classes, &active, &heuristic, cfg, allowed);
        assert!(!candidates.is_empty(), "no usable candidate");
        let model = build_model(state, requests, &classes, &candidates, &active, cfg);
        Prepared {
            classes,
            heuristic,
            candidates,
            model,
        }
    }

    /// One unrestricted solve.
    fn place(
        state: &ClusterState,
        requests: &[LraRequest],
        deployed: &[PlacementConstraint],
        cfg: &IlpConfig,
    ) -> Vec<PlacementOutcome> {
        let metrics = PlacerMetrics::default();
        solve(&mut state.clone(), requests, deployed, cfg, None, &metrics).outcomes
    }

    fn cluster(n: usize, racks: usize) -> ClusterState {
        ClusterState::homogeneous(n, Resources::new(16 * 1024, 16), racks)
    }

    fn commit(state: &mut ClusterState, req: &LraRequest, outcome: &PlacementOutcome) {
        if let Some(pl) = outcome.placement() {
            for (c, &n) in req.containers.iter().zip(&pl.nodes) {
                state
                    .allocate(req.app, n, c, ExecutionKind::LongRunning)
                    .unwrap();
            }
        }
    }

    #[test]
    fn places_all_containers_respecting_capacity() {
        let state = cluster(4, 2);
        let req = LraRequest::uniform(
            ApplicationId(1),
            6,
            Resources::new(8 * 1024, 4),
            vec![Tag::new("a")],
            vec![],
        );
        let out = place(
            &state,
            std::slice::from_ref(&req),
            &[],
            &IlpConfig::default(),
        );
        let pl = out[0].placement().expect("should place");
        assert_eq!(pl.nodes.len(), 6);
        // 6 x 8 GB on 4 x 16 GB nodes: at most 2 per node.
        let mut per_node: HashMap<NodeId, usize> = HashMap::new();
        for &n in &pl.nodes {
            *per_node.entry(n).or_default() += 1;
        }
        assert!(per_node.values().all(|&c| c <= 2));
    }

    #[test]
    fn all_or_nothing_when_cluster_too_small() {
        let state = cluster(2, 1);
        // 5 x 16 GB cannot fit in 2 x 16 GB: the LRA must be unplaced.
        let req = LraRequest::uniform(
            ApplicationId(1),
            5,
            Resources::new(16 * 1024, 1),
            vec![],
            vec![],
        );
        let out = place(&state, &[req], &[], &IlpConfig::default());
        assert!(matches!(out[0], PlacementOutcome::Unplaced { .. }));
    }

    #[test]
    fn node_anti_affinity_spreads_containers() {
        let state = cluster(6, 2);
        let caa = PlacementConstraint::anti_affinity("w", "w", NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            4,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![caa],
        );
        let out = place(&state, &[req], &[], &IlpConfig::default());
        let pl = out[0].placement().expect("should place");
        let mut nodes = pl.nodes.clone();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 4, "anti-affinity must use distinct nodes");
    }

    #[test]
    fn node_affinity_collocates_with_target() {
        let mut state = cluster(6, 2);
        // Existing memcached on node 3.
        state
            .allocate(
                ApplicationId(9),
                NodeId(3),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("mem")]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let caf = PlacementConstraint::affinity("storm", "mem", NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("storm")],
            vec![caf],
        );
        let out = place(&state, &[req], &[], &IlpConfig::default());
        let pl = out[0].placement().expect("should place");
        assert!(pl.nodes.iter().all(|&n| n == NodeId(3)));
    }

    #[test]
    fn cardinality_cap_respected() {
        let state = cluster(8, 2);
        // At most 2 workers per node.
        let card = PlacementConstraint::new("w", "w", Cardinality::at_most(1), NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            6,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![card],
        );
        let out = place(&state, &[req], &[], &IlpConfig::default());
        let pl = out[0].placement().expect("should place");
        let mut per_node: HashMap<NodeId, usize> = HashMap::new();
        for &n in &pl.nodes {
            *per_node.entry(n).or_default() += 1;
        }
        // at_most(1) counts *other* w containers: up to 2 per node.
        assert!(per_node.values().all(|&c| c <= 2), "{per_node:?}");
    }

    #[test]
    fn rack_affinity_keeps_app_in_one_rack() {
        let state = cluster(8, 4);
        let app = ApplicationId(4);
        let intra = PlacementConstraint::affinity(
            medea_constraints::TagExpr::and([Tag::new("tf"), Tag::app_id(app)]),
            medea_constraints::TagExpr::and([Tag::new("tf"), Tag::app_id(app)]),
            NodeGroupId::rack(),
        );
        let req = LraRequest::uniform(
            app,
            4,
            Resources::new(1024, 1),
            vec![Tag::new("tf")],
            vec![intra],
        );
        let out = place(
            &state,
            std::slice::from_ref(&req),
            &[],
            &IlpConfig::default(),
        );
        let pl = out[0].placement().expect("should place");
        let state2 = {
            let mut s = cluster(8, 4);
            commit(&mut s, &req, &out[0]);
            s
        };
        // All four containers in the same rack.
        let racks: std::collections::HashSet<usize> = pl
            .nodes
            .iter()
            .map(|&n| {
                state2
                    .groups()
                    .sets_containing(&NodeGroupId::rack(), n)
                    .unwrap()[0]
            })
            .collect();
        assert_eq!(racks.len(), 1, "rack affinity must hold: {racks:?}");
    }

    #[test]
    fn deployed_constraints_respected() {
        let mut state = cluster(4, 2);
        // Deployed latency-critical service on node 0 with anti-affinity
        // against "batchy" containers.
        state
            .allocate(
                ApplicationId(1),
                NodeId(0),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("svc")]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let deployed = PlacementConstraint::anti_affinity("svc", "batchy", NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(2),
            3,
            Resources::new(1024, 1),
            vec![Tag::new("batchy")],
            vec![],
        );
        let out = place(&state, &[req], &[deployed], &IlpConfig::default());
        let pl = out[0].placement().expect("should place");
        assert!(
            pl.nodes.iter().all(|&n| n != NodeId(0)),
            "must avoid the svc node: {:?}",
            pl.nodes
        );
    }

    #[test]
    fn two_lras_with_inter_app_anti_affinity() {
        let state = cluster(6, 3);
        let a = PlacementConstraint::anti_affinity("alpha", "beta", NodeGroupId::node());
        let r1 = LraRequest::uniform(
            ApplicationId(1),
            3,
            Resources::new(2048, 1),
            vec![Tag::new("alpha")],
            vec![a],
        );
        let r2 = LraRequest::uniform(
            ApplicationId(2),
            3,
            Resources::new(2048, 1),
            vec![Tag::new("beta")],
            vec![],
        );
        let out = place(&state, &[r1, r2], &[], &IlpConfig::default());
        let p1 = out[0].placement().expect("r1 placed");
        let p2 = out[1].placement().expect("r2 placed");
        for n1 in &p1.nodes {
            assert!(
                !p2.nodes.contains(n1),
                "alpha and beta must not share nodes"
            );
        }
    }

    #[test]
    fn prefers_placing_more_lras() {
        // Cluster fits both LRAs only if packed well.
        let state = cluster(2, 1);
        let r1 = LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(8 * 1024, 4),
            vec![Tag::new("a")],
            vec![],
        );
        let r2 = LraRequest::uniform(
            ApplicationId(2),
            2,
            Resources::new(8 * 1024, 4),
            vec![Tag::new("b")],
            vec![],
        );
        let out = place(&state, &[r1, r2], &[], &IlpConfig::default());
        assert!(out[0].placement().is_some());
        assert!(out[1].placement().is_some());
    }

    #[test]
    fn soft_constraints_yield_to_feasibility() {
        // Anti-affinity over 2 nodes for 4 containers: impossible to
        // satisfy fully, but soft constraints must not block placement.
        let state = cluster(2, 1);
        let caa = PlacementConstraint::anti_affinity("w", "w", NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            4,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![caa],
        );
        let out = place(&state, &[req], &[], &IlpConfig::default());
        let pl = out[0].placement().expect("soft constraints must not block");
        assert_eq!(pl.nodes.len(), 4);
    }

    /// The anchor and the heuristic arm score with
    /// `IlpConfig::weights`. Node 0 is 3/4 full; node 1 is empty but has
    /// one core, so a container there fragments it. The default `w3`
    /// prefers node 0, `w3 = 0` leaves only the balance term: node 1.
    #[test]
    fn anchor_and_heuristic_arm_use_the_configured_weights() {
        let mut state = ClusterState::new(
            [
                medea_cluster::Node::new(NodeId(0), Resources::new(16 * 1024, 16)),
                medea_cluster::Node::new(NodeId(1), Resources::new(16 * 1024, 1)),
            ],
            1,
        );
        let fill = ContainerRequest::new(Resources::new(12 * 1024, 1), vec![]);
        state
            .allocate(
                ApplicationId(9),
                NodeId(0),
                &fill,
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let batch = [LraRequest::uniform(
            ApplicationId(1),
            1,
            Resources::new(2048, 1),
            vec![Tag::new("w")],
            vec![],
        )];
        let node_of = |out: &[PlacementOutcome]| out[0].placement().unwrap().nodes[0];
        for (w3, want) in [(0.25, NodeId(0)), (0.0, NodeId(1))] {
            let cfg = IlpConfig {
                weights: ObjectiveWeights {
                    w3,
                    ..ObjectiveWeights::default()
                },
                ..IlpConfig::default()
            };
            let p = prepare_alone(&mut state, &batch, &cfg, None);
            assert_eq!(node_of(&p.heuristic), want, "anchor, w3 = {w3}");
            let mut arm = crate::LraScheduler::new(crate::LraAlgorithm::Ilp);
            arm.ilp = cfg;
            let heuristic = Some(PlacerMode::Heuristic);
            let out = arm.place_on(&mut state, &batch, &[], None, heuristic);
            assert_eq!(node_of(&out.outcomes), want, "heuristic arm, w3 = {w3}");
        }
    }

    #[test]
    fn empty_request_list() {
        let state = cluster(2, 1);
        assert!(place(&state, &[], &[], &IlpConfig::default()).is_empty());
    }

    #[test]
    fn compound_dnf_constraint_solved_via_y_indicators() {
        let mut state = cluster(6, 2);
        // Only a "cache" exists (no "db"): the DNF (affinity to db) OR
        // (affinity to cache) must be satisfied through its second
        // conjunct.
        state
            .allocate(
                ApplicationId(9),
                NodeId(4),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("cache")]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let expr = medea_constraints::TagConstraintExpr::any([
            vec![medea_constraints::TagConstraint::new(
                "db",
                Cardinality::affinity(),
            )],
            vec![medea_constraints::TagConstraint::new(
                "cache",
                Cardinality::affinity(),
            )],
        ]);
        let compound = PlacementConstraint::compound("w", expr, NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![compound.clone()],
        );
        let out = place(
            &state,
            std::slice::from_ref(&req),
            &[],
            &IlpConfig::default(),
        );
        let pl = out[0].placement().expect("placeable");
        assert!(
            pl.nodes.iter().all(|&n| n == NodeId(4)),
            "DNF should steer both containers to the cache node: {:?}",
            pl.nodes
        );
        commit(&mut state, &req, &out[0]);
        let stats = medea_constraints::violation_stats(&state, [&compound]);
        assert_eq!(stats.containers_violating, 0);
    }

    #[test]
    fn disabling_mip_start_still_solves_small_models() {
        let state = cluster(4, 2);
        let cfg = IlpConfig {
            mip_start: false,
            ..IlpConfig::default()
        };
        let req = LraRequest::uniform(
            ApplicationId(1),
            3,
            Resources::new(1024, 1),
            vec![Tag::new("x")],
            vec![PlacementConstraint::anti_affinity(
                "x",
                "x",
                NodeGroupId::node(),
            )],
        );
        let out = place(&state, &[req], &[], &cfg);
        let pl = out[0]
            .placement()
            .expect("small model solves without start");
        let mut nodes = pl.nodes.clone();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn hard_constraints_dominate_soft_ones() {
        let mut state = cluster(2, 1);
        // A noisy container on node 0; a *hard* anti-affinity against it
        // competes with a soft affinity toward it. Hard must win.
        state
            .allocate(
                ApplicationId(9),
                NodeId(0),
                &ContainerRequest::new(Resources::new(1024, 1), [Tag::new("noisy")]),
                ExecutionKind::LongRunning,
            )
            .unwrap();
        let hard = PlacementConstraint::anti_affinity("w", "noisy", NodeGroupId::node()).hard();
        let soft = PlacementConstraint::affinity("w", "noisy", NodeGroupId::node());
        let req = LraRequest::uniform(
            ApplicationId(1),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![hard, soft],
        );
        let out = place(&state, &[req], &[], &IlpConfig::default());
        let pl = out[0].placement().expect("placeable");
        assert_eq!(pl.nodes[0], NodeId(1), "hard anti-affinity must dominate");
    }

    /// Candidate selection with priority 3 keying every usable node of
    /// the cluster: the reference `select_candidates` must reproduce.
    #[allow(clippy::too_many_arguments)]
    fn select_candidates_full_scan(
        state: &ClusterState,
        classes: &[ContainerClass],
        active: &[PlacementConstraint],
        heuristic_nodes: &[NodeId],
        max_candidates: usize,
        t_total: usize,
        allowed: Option<&[NodeId]>,
    ) -> Vec<NodeId> {
        let min_demand = classes
            .iter()
            .map(|c| c.resources)
            .reduce(|a, r| a.min(&r))
            .unwrap_or(Resources::ZERO);
        let allowed_set: Option<std::collections::HashSet<NodeId>> =
            allowed.map(|a| a.iter().copied().collect());
        let usable = |n: NodeId| {
            allowed_set.as_ref().is_none_or(|a| a.contains(&n))
                && state.is_available(n)
                && state
                    .free(n)
                    .map(|f| min_demand.fits_in(&f))
                    .unwrap_or(false)
        };
        let mut out: Vec<NodeId> = heuristic_nodes
            .iter()
            .copied()
            .filter(|&n| usable(n))
            .collect();
        out.truncate(max_candidates);
        let target_budget = (out.len() + max_candidates / 4).min(max_candidates);
        'outer: for c in active {
            for leaf in c.expr.leaves() {
                if leaf.cardinality.min == 0 {
                    continue;
                }
                for n in state.nodes_with_all_tags(leaf.target.tags()) {
                    if out.len() >= target_budget {
                        break 'outer;
                    }
                    if usable(n)
                        && !out.contains(&n)
                        && leaf.target.cardinality_on_node(state, n, None) > 0
                    {
                        out.push(n);
                    }
                }
            }
        }
        type ClassKey = (u64, u32, Vec<(Tag, u32)>, Vec<Vec<usize>>);
        let mut classes: HashMap<ClassKey, Vec<NodeId>> = HashMap::new();
        let group_ids: Vec<_> = state.groups().group_ids().cloned().collect();
        for n in state.node_ids() {
            if !usable(n) || out.contains(&n) {
                continue;
            }
            let free = state.free(n).unwrap();
            let mut tags: Vec<(Tag, u32)> = state
                .node_tags(n)
                .unwrap()
                .iter()
                .map(|(t, c)| (t.clone(), c))
                .collect();
            tags.sort();
            let memberships: Vec<Vec<usize>> = group_ids
                .iter()
                .map(|g| state.groups().sets_containing(g, n).unwrap())
                .collect();
            classes
                .entry((free.memory_mb, free.vcores, tags, memberships))
                .or_default()
                .push(n);
        }
        let mut per_class: Vec<Vec<NodeId>> = classes
            .into_values()
            .map(|mut v| {
                v.sort();
                v.truncate(t_total);
                v
            })
            .collect();
        per_class.sort_by_key(|v| (std::cmp::Reverse(state.free(v[0]).unwrap().memory_mb), v[0]));
        let mut i = 0;
        while out.len() < max_candidates {
            let mut any = false;
            for class in &per_class {
                if let Some(&n) = class.get(i) {
                    any = true;
                    if !out.contains(&n) {
                        out.push(n);
                        if out.len() >= max_candidates {
                            break;
                        }
                    }
                }
            }
            if !any {
                break;
            }
            i += 1;
        }
        out.sort();
        out
    }

    /// Seeded states built to reach every branch of candidate selection:
    /// few memory sizes and tags (equal-free runs, classes with several
    /// members), a full and an unavailable node, an extra group whose sets
    /// overlap, affinity targets for priority 2, random shard subsets, and
    /// budgets on both sides of the class count.
    #[test]
    fn select_candidates_matches_full_scan() {
        use medea_rand::rngs::StdRng;
        use medea_rand::{RngExt, SeedableRng};
        let pool = ["a", "b", "c"];
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(4..48usize);
            let mut state = cluster(n, rng.random_range(1..6usize));
            let zones: Vec<Vec<NodeId>> = (0..n)
                .step_by(4)
                .map(|s| (s..(s + 6).min(n)).map(|i| NodeId(i as u32)).collect())
                .collect();
            state.register_group(NodeGroupId::new("zone"), zones);
            for _ in 0..rng.random_range(0..2 * n) {
                let node = NodeId(rng.random_range(0..n as u32));
                let memory_mb = 1024 * [2u64, 4, 4, 8][rng.random_range(0..4usize)];
                let tags: Vec<Tag> = rng
                    .random_bool(0.5)
                    .then(|| Tag::new(pool[rng.random_range(0..pool.len())]))
                    .into_iter()
                    .collect();
                let req = ContainerRequest::new(Resources::new(memory_mb, 1), tags);
                let _ = state.allocate(ApplicationId(100), node, &req, ExecutionKind::LongRunning);
            }
            let full = NodeId(rng.random_range(0..n as u32));
            let rest = state.free(full).unwrap();
            if !rest.is_zero() {
                let req = ContainerRequest::new(rest, Vec::new());
                state
                    .allocate(ApplicationId(101), full, &req, ExecutionKind::LongRunning)
                    .unwrap();
            }
            state
                .set_available(NodeId(rng.random_range(0..n as u32)), false)
                .unwrap();

            let t_total = rng.random_range(1..13usize);
            let classes: Vec<ContainerClass> = (0..t_total)
                .map(|ci| ContainerClass {
                    req_idx: 0,
                    members: vec![ci],
                    tags: vec![Tag::new("x")],
                    resources: Resources::new(1024 * rng.random_range(1..5u64), 1),
                })
                .collect();
            let active: Vec<PlacementConstraint> = (0..rng.random_range(0..3usize))
                .map(|_| {
                    let target = pool[rng.random_range(0..pool.len())];
                    if rng.random_bool(0.7) {
                        PlacementConstraint::affinity("x", target, NodeGroupId::node())
                    } else {
                        PlacementConstraint::anti_affinity("x", target, NodeGroupId::node())
                    }
                })
                .collect();
            let heuristic_nodes: Vec<NodeId> =
                state.node_ids().filter(|_| rng.random_bool(0.15)).collect();
            let max_candidates = rng.random_range(1..40usize);
            let allowed: Option<Vec<NodeId>> = rng
                .random_bool(0.5)
                .then(|| state.node_ids().filter(|_| rng.random_bool(0.6)).collect());
            let args = (
                &state,
                &classes[..],
                &active[..],
                &heuristic_nodes[..],
                max_candidates,
                t_total,
                allowed.as_deref(),
            );
            assert_eq!(
                select_candidates(args.0, args.1, args.2, args.3, args.4, args.5, args.6),
                select_candidates_full_scan(args.0, args.1, args.2, args.3, args.4, args.5, args.6),
                "seed {seed}"
            );
        }
    }

    /// `scale_sharded`'s census shape: 5,000 16 GB nodes in 40-node racks,
    /// 100-node service units and 10 upgrade domains, 10,000 seeded 2 GB
    /// background containers; the first of four shards and a burst of two
    /// 8-container spread apps (16 anchor nodes, a budget of 32).
    fn census_shard() -> (ClusterState, Vec<NodeId>, Vec<LraRequest>) {
        use medea_rand::rngs::StdRng;
        use medea_rand::{RngExt, SeedableRng};
        let n = 5_000;
        let mut state = cluster(n, n / 40);
        let partition = |parts: usize| -> Vec<Vec<NodeId>> {
            (0..parts)
                .map(|p| {
                    (p * n / parts..(p + 1) * n / parts)
                        .map(|i| NodeId(i as u32))
                        .collect()
                })
                .collect()
        };
        state.register_group(NodeGroupId::service_unit(), partition(n / 100));
        state.register_group(NodeGroupId::upgrade_domain(), partition(10));
        let mut rng = StdRng::seed_from_u64(7);
        for k in 0..2 * n {
            let svc = rng.random_range(0..50u32);
            let req =
                ContainerRequest::new(Resources::new(2048, 1), [Tag::new(format!("svc{svc}"))]);
            let app = ApplicationId(1_000 + (k / 4) as u64);
            while state
                .allocate(
                    app,
                    NodeId(rng.random_range(0..n as u32)),
                    &req,
                    ExecutionKind::LongRunning,
                )
                .is_err()
            {}
        }
        let shard = medea_cluster::ShardPlan::build(state.groups(), 4)
            .nodes(0)
            .to_vec();
        let spread = |app: u64| {
            let tag = Tag::new(format!("lra{app}"));
            LraRequest::uniform(
                ApplicationId(app),
                8,
                Resources::new(1024, 1),
                vec![tag.clone()],
                vec![PlacementConstraint::anti_affinity(
                    tag.clone(),
                    tag,
                    NodeGroupId::node(),
                )],
            )
        };
        (state, shard, vec![spread(1), spread(2)])
    }

    /// The model's shape is part of the placement contract: its skeleton
    /// hash and its row and column counts are pinned.
    #[test]
    fn prepared_models_are_pinned() {
        use crate::heuristics::tests::hbase;
        let hbase_state = ClusterState::homogeneous(500, Resources::new(16 * 1024, 16), 12);
        let (census, shard, spread) = census_shard();
        let cases = [
            (
                "3 x HBase / 500 nodes",
                hbase_state,
                vec![hbase(1), hbase(2), hbase(3)],
                None,
                (0x589d_4393_d84f_df25, 683, 1044),
            ),
            (
                "census shard",
                census,
                spread,
                Some(shard),
                (0xfc5f_f159_2961_6f13, 226, 226),
            ),
        ];
        for (name, mut state, requests, allowed, pinned) in cases {
            let cfg = IlpConfig::default();
            let p = prepare_alone(&mut state, &requests, &cfg, allowed.as_deref());
            let problem = &p.model.problem;
            assert_eq!(
                (
                    problem.skeleton_hash(),
                    problem.num_constraints(),
                    problem.num_vars()
                ),
                pinned,
                "{name}"
            );
        }
    }

    /// The model does not depend on how tenants list their containers
    /// and constraints, nor on their app ids: a 3 x HBase batch and the
    /// same batch under fresh ids, each request shuffled, build the same
    /// skeleton and the same LP optimum.
    #[test]
    fn model_is_independent_of_listing_order_and_app_ids() {
        use crate::heuristics::tests::hbase3;
        let cfg = IlpConfig::default();
        let shape = |requests: &[LraRequest]| {
            let mut state = ClusterState::homogeneous(500, Resources::new(16 * 1024, 16), 12);
            let p = prepare_alone(&mut state, requests, &cfg, None);
            let problem = &p.model.problem;
            let lp = medea_solver::Simplex::new(problem).solve();
            assert_eq!(lp.status, medea_solver::LpStatus::Optimal);
            let key = (
                problem.skeleton_hash(),
                problem.num_constraints(),
                problem.num_vars(),
            );
            (key, lp.objective)
        };
        let (key, objective) = shape(&hbase3(1, None));
        for seed in 0..32 {
            let (k, o) = shape(&hbase3(100 + 7 * seed, Some(seed)));
            assert_eq!(k, key, "seed {seed}");
            assert!(
                (o - objective).abs() <= 1e-9,
                "seed {seed}: {o} != {objective}"
            );
        }
    }

    /// Counts, not timings: on a 5,000-node cluster one shard's candidate
    /// selection walks only the freest run of the free-memory ordering
    /// (a full scan keyed every node), and the `node` constraint's rows
    /// visit one set per candidate (a walk over all sets visited 5,000).
    #[test]
    fn candidate_work_follows_the_budget() {
        let (mut state, shard, requests) = census_shard();
        let classes = container_classes(&requests);
        let active: Vec<PlacementConstraint> = requests
            .iter()
            .flat_map(|r| r.constraints.clone())
            .collect();
        let (anchor, _) = HeuristicScheduler::new(Ordering::NodeCandidates).place_counted(
            &mut state,
            &requests,
            &[],
            Some(&shard),
        );
        let mut anchor_nodes: Vec<NodeId> = anchor
            .iter()
            .flat_map(|o| o.placement().unwrap().nodes.clone())
            .collect();
        anchor_nodes.sort();
        anchor_nodes.dedup();
        assert_eq!(anchor_nodes.len(), 16);

        let before = state.index_stats().nodes_visited;
        let candidates = select_candidates(
            &state,
            &classes,
            &active,
            &anchor_nodes,
            32,
            16,
            Some(&shard),
        );
        // The run of empty nodes, cluster-wide, and the next run's first.
        let empty = state
            .node_ids()
            .filter(|&n| state.free(n).unwrap().memory_mb == 16 * 1024)
            .count();
        assert_eq!(empty, 662);
        assert_eq!(state.index_stats().nodes_visited - before, 663);
        assert_eq!(candidates.len(), 32);
        let sets = sets_holding(&state, &NodeGroupId::node(), &candidates).unwrap();
        assert_eq!(sets.len(), 32);
    }

    /// Extraction hands a class's members, in container order, to
    /// candidates in ascending index; counts that fall short of the
    /// class's size leave the request unplaced. The larger class comes
    /// first, whatever the order its members were listed in.
    #[test]
    fn extraction_hands_class_counts_to_members_in_container_order() {
        let mut state = cluster(4, 1);
        let small = ContainerRequest::new(Resources::new(1024, 1), [Tag::new("a")]);
        let large = ContainerRequest::new(Resources::new(2048, 1), [Tag::new("a")]);
        let containers = vec![small.clone(), large, small.clone(), small];
        let requests = [LraRequest::new(ApplicationId(1), containers, vec![])];
        let cfg = IlpConfig::default();
        let p = prepare_alone(&mut state, &requests, &cfg, None);
        assert_eq!(p.candidates, (0..4).map(NodeId).collect::<Vec<_>>());
        let members: Vec<&[usize]> = p.classes.iter().map(|c| &c.members[..]).collect();
        assert_eq!(members, [&[1][..], &[0, 2, 3][..]]);

        let extract_with = |small_counts: [f64; 4]| {
            let mut v = vec![0.0; p.model.problem.num_vars()];
            v[p.model.s_vars[0].index()] = 1.0;
            for (x, count) in p.model.x_vars[1].iter().zip(small_counts) {
                v[x.index()] = count;
            }
            v[p.model.x_vars[0][3].index()] = 1.0;
            extract(&requests, &p.classes, &p.candidates, &p.model, |x| {
                v[x.index()]
            })
        };
        let out = extract_with([2.0, 0.0, 1.0, 0.0]);
        assert_eq!(
            out[0].placement().expect("placed").nodes,
            [NodeId(0), NodeId(3), NodeId(0), NodeId(2)]
        );
        let out = extract_with([1.0, 0.0, 1.0, 0.0]);
        assert_eq!(
            out,
            [PlacementOutcome::Unplaced {
                app: ApplicationId(1)
            }]
        );
    }

    /// A seeded batch small enough for a gap-0 exact solve, sized like
    /// `placer_differential.rs`'s: up to 7 containers on 2–6 nodes, two
    /// container shapes within a request, soft and hard constraints over
    /// nodes and racks.
    fn small_instance(seed: u64) -> (ClusterState, Vec<LraRequest>) {
        use medea_rand::rngs::StdRng;
        use medea_rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = rng.random_range(2..7usize);
        let node_mem = [4096u64, 6144, 8192][rng.random_range(0..3usize)];
        let racks = rng.random_range(1..3usize).min(n);
        let state = ClusterState::homogeneous(n, Resources::new(node_mem, 8), racks);
        let pool = ["a", "b", "c"];
        let mut requests: Vec<LraRequest> = Vec::new();
        let mut budget = 7usize;
        for ri in 0..rng.random_range(1..4u64) {
            let count = rng.random_range(1..4usize).min(budget);
            if count == 0 {
                break;
            }
            budget -= count;
            let tag = Tag::new(pool[rng.random_range(0..pool.len())]);
            let containers = (0..count)
                .map(|_| {
                    let mem = 1024 * rng.random_range(1..3u64);
                    ContainerRequest::new(Resources::new(mem, 1), [tag.clone()])
                })
                .collect();
            requests.push(LraRequest::new(ApplicationId(ri + 1), containers, vec![]));
        }
        for i in 0..rng.random_range(0..4usize) {
            let subject = pool[rng.random_range(0..pool.len())];
            let target = pool[rng.random_range(0..pool.len())];
            let cardinality = [
                Cardinality::anti_affinity(),
                Cardinality::at_most(1),
                Cardinality::affinity(),
            ][rng.random_range(0..3usize)];
            let group = if rng.random_bool(0.7) {
                NodeGroupId::node()
            } else {
                NodeGroupId::rack()
            };
            let mut c = PlacementConstraint::new(subject, target, cardinality, group);
            if rng.random_bool(0.5) {
                c = c.hard();
            }
            let ri = i % requests.len();
            requests[ri].constraints.push(c);
        }
        (state, requests)
    }

    /// `(MILP optimum, LP-relaxation objective)` of the prepared model on
    /// `small_instance(seed)` for seeds `0..`, recorded on the model with
    /// one binary column per (container, candidate node).
    const PINNED_OBJECTIVES: [(f64, f64); 64] = [
        (1.2499999999999998, 1.2499999999999998),
        (0.25, 1.2499999999999998),
        (1.25, 1.25),
        (1.2500000000000002, 1.2500000000000002),
        (1.25, 1.25),
        (0.25, 0.9166666666666666),
        (1.25, 1.25),
        (1.2500000000000002, 1.2500000000000002),
        (1.2500000000000004, 1.2500000000000004),
        (0.7499999999999998, 0.9166666666666667),
        (1.25, 1.25),
        (1.25, 1.25),
        (1.25, 1.25),
        (1.0833333333333333, 1.25),
        (1.2500000000000002, 1.2500000000000002),
        (1.25, 1.25),
        (0.9999999999999998, 1.2499999999999998),
        (1.2499999999999998, 1.2499999999999998),
        (1.2499999999999998, 1.2499999999999998),
        (1.2499999999999998, 1.2499999999999998),
        (1.1666666666666665, 1.2083333333333333),
        (1.2500000000000004, 1.2500000000000002),
        (0.5000000000000001, 1.2499999999999998),
        (1.25, 1.25),
        (1.25, 1.25),
        (1.2500000000000004, 1.2500000000000004),
        (0.5833333333333333, 1.2499999999999998),
        (0.25, 1.05),
        (1.0208333333333333, 1.25),
        (1.2499999999999998, 1.2499999999999998),
        (1.25, 1.25),
        (1.2499999999999998, 1.2499999999999996),
        (0.7500000000000002, 1.1500000000000001),
        (1.2499999999999998, 1.2499999999999998),
        (1.2500000000000002, 1.2500000000000002),
        (1.2499999999999998, 1.2499999999999998),
        (1.25, 1.25),
        (1.2499999999999998, 1.2499999999999998),
        (1.2500000000000004, 1.2500000000000002),
        (1.25, 1.25),
        (1.25, 1.25),
        (0.9166666666666664, 1.2500000000000004),
        (1.2499999999999998, 1.2499999999999998),
        (1.2499999999999998, 1.2499999999999998),
        (1.25, 1.25),
        (1.25, 1.25),
        (1.25, 1.25),
        (0.24999999999999997, 1.2500000000000004),
        (1.2500000000000004, 1.2500000000000004),
        (1.2500000000000004, 1.2500000000000002),
        (1.2499999999999998, 1.2499999999999998),
        (1.2500000000000004, 1.2500000000000004),
        (1.0833333333333335, 1.138888888888889),
        (1.2500000000000004, 1.2500000000000004),
        (1.25, 1.25),
        (1.2499999999999998, 1.2499999999999998),
        (1.2499999999999998, 1.2499999999999998),
        (0.9166666666666666, 1.25),
        (0.25, 1.25),
        (1.2500000000000004, 1.2500000000000002),
        (1.25, 1.25),
        (1.25, 1.25),
        (1.25, 1.25),
        (0.7500000000000001, 1.2499999999999998),
    ];

    /// The model's optimum is part of the placement contract; its LP
    /// relaxation may only get tighter (a smaller upper bound).
    #[test]
    fn model_objectives_are_pinned() {
        let cfg = IlpConfig {
            gap: 0.0,
            time_limit: Duration::from_secs(120),
            node_limit: 10_000_000,
            ..IlpConfig::default()
        };
        for (seed, &(optimum, bound)) in PINNED_OBJECTIVES.iter().enumerate() {
            let (mut state, requests) = small_instance(seed as u64);
            let p = prepare_alone(&mut state, &requests, &cfg, None);
            let milp = Milp::new(&p.model.problem)
                .gap(0.0)
                .time_limit(cfg.time_limit)
                .node_limit(cfg.node_limit)
                .solve()
                .unwrap();
            assert_eq!(
                milp.status,
                medea_solver::MilpStatus::Optimal,
                "seed {seed}"
            );
            let lp = medea_solver::Simplex::new(&p.model.problem).solve();
            assert_eq!(lp.status, medea_solver::LpStatus::Optimal, "seed {seed}");
            assert!(
                (milp.objective - optimum).abs() <= 1e-6,
                "seed {seed}: optimum {} != pinned {optimum}",
                milp.objective
            );
            assert!(
                lp.objective <= bound + 1e-6,
                "seed {seed}: LP bound {} looser than pinned {bound}",
                lp.objective
            );
        }
    }

    /// FNV-1a over the default exact arm's placements of the 64
    /// `small_instance` batches: the gap-0.02, MIP-started path, where
    /// the incumbent prunes nodes.
    const PINNED_DEFAULT_PLACEMENTS: u64 = 0xef25_3012_c3be_d281;

    #[test]
    fn default_solves_are_pinned() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for seed in 0..64u64 {
            let (state, requests) = small_instance(seed);
            for outcome in place(&state, &requests, &[], &IlpConfig::default()) {
                match outcome.placement() {
                    Some(pl) => {
                        mix(pl.app.0);
                        pl.nodes.iter().for_each(|n| mix(u64::from(n.0)));
                    }
                    None => mix(u64::MAX),
                }
            }
        }
        assert_eq!(hash, PINNED_DEFAULT_PLACEMENTS, "new hash {hash:#018x}");
    }
}
