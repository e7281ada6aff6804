//! Tag expressions: conjunctions of container tags (§4.2).
//!
//! The paper's `subject_tag` and `c_tag` are "a tag (or conjunction of
//! tags)"; negation is explicitly unsupported ("we do not support negation
//! yet"). A [`TagExpr`] therefore holds one or more tags that must *all*
//! be present on a container for it to match.

use std::fmt;

use medea_cluster::{Allocation, ClusterState, ContainerId, NodeGroupId, NodeId, Tag};

/// A conjunction of tags; matches containers carrying all of them.
///
/// # Examples
///
/// ```
/// use medea_constraints::TagExpr;
/// use medea_cluster::Tag;
///
/// let e = TagExpr::and([Tag::new("hb"), Tag::new("mem")]);
/// assert!(e.matches_tags(&[Tag::new("hb"), Tag::new("mem"), Tag::new("x")]));
/// assert!(!e.matches_tags(&[Tag::new("hb")]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagExpr {
    tags: Vec<Tag>,
}

impl TagExpr {
    /// A single-tag expression.
    pub fn tag(tag: impl Into<Tag>) -> Self {
        TagExpr {
            tags: vec![tag.into()],
        }
    }

    /// A conjunction of tags (duplicates removed, order normalized).
    pub fn and(tags: impl IntoIterator<Item = Tag>) -> Self {
        let mut tags: Vec<Tag> = tags.into_iter().collect();
        tags.sort();
        tags.dedup();
        TagExpr { tags }
    }

    /// The tags of the conjunction, sorted.
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Returns `true` if the expression has no tags (matches everything).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Returns `true` if every tag of the expression occurs in `tags`.
    pub fn matches_tags(&self, tags: &[Tag]) -> bool {
        self.tags.iter().all(|t| tags.contains(t))
    }

    /// Returns `true` if the given live allocation matches.
    pub fn matches_allocation(&self, alloc: &Allocation) -> bool {
        self.matches_tags(&alloc.tags)
    }

    /// Counts matching containers on a node, optionally excluding one
    /// container (the ILP's `t_ij != t_is js` self-exclusion).
    ///
    /// For single-tag expressions this is the O(1) tag-cardinality lookup
    /// `γ_n(t)`; conjunctions require walking the node's containers.
    pub fn cardinality_on_node(
        &self,
        state: &ClusterState,
        node: NodeId,
        exclude: Option<ContainerId>,
    ) -> u32 {
        if self.tags.len() == 1 && exclude.is_none() {
            return state.gamma(node, &self.tags[0]);
        }
        // A conjunction can only match on a node carrying every tag; a
        // single γ miss rules the whole node out without a container walk.
        if self.tags.iter().any(|t| state.gamma(node, t) == 0) {
            return 0;
        }
        self.walk(state, node, exclude)
    }

    /// Matching containers on a node by walking them, whatever γ says.
    fn walk(&self, state: &ClusterState, node: NodeId, exclude: Option<ContainerId>) -> u32 {
        let Ok(containers) = state.containers_on(node) else {
            return 0;
        };
        containers
            .iter()
            .filter(|&&c| Some(c) != exclude)
            .filter(|&&c| {
                state
                    .allocation(c)
                    .is_ok_and(|a| self.matches_allocation(a))
            })
            .count() as u32
    }

    /// Counts matching containers over a node set (`γ_𝒮` for this
    /// expression), optionally excluding one container.
    pub fn cardinality_on_set(
        &self,
        state: &ClusterState,
        set: &[NodeId],
        exclude: Option<ContainerId>,
    ) -> u32 {
        set.iter()
            .map(|&n| self.cardinality_on_node(state, n, exclude))
            .sum()
    }

    /// Counts matching containers in set `set_idx` of a registered node
    /// group — O(1) for single-tag expressions via the cluster's
    /// incrementally-maintained per-set `γ` caches; a conjunction walks
    /// the containers of the set's nodes that carry all its tags.
    pub fn cardinality_in_group_set(
        &self,
        state: &ClusterState,
        group: &NodeGroupId,
        set_idx: usize,
        exclude: Option<ContainerId>,
    ) -> u32 {
        self.counts_in_group_set(state, group, set_idx, exclude, None)
            .0
    }

    /// [`TagExpr::cardinality_in_group_set`] as the state stands and with
    /// an arrival allocated on a node the set lists `hits` times, from one
    /// count. The arrival counts toward a target it matches unless it is
    /// the subject (`exclude` is `None`), which its own counts leave out.
    ///
    /// It can also add containers already there. The conjunction counts
    /// skip a node (and a set) whose γ lacks one of the tags, before
    /// walking any container, and once `remove_node_tag` has consumed an
    /// occurrence a container contributed, γ can lack a tag a container on
    /// the node carries. An arrival supplying every tag γ lacks on its node
    /// lifts that skip, so only then is that one node re-walked.
    pub(crate) fn counts_in_group_set(
        &self,
        state: &ClusterState,
        group: &NodeGroupId,
        set_idx: usize,
        exclude: Option<ContainerId>,
        arrival: Option<(Arrival<'_>, u32)>,
    ) -> (u32, u32) {
        let arrival = arrival.filter(|&(_, hits)| hits > 0);
        if self.tags.len() == 1 {
            let tag = &self.tags[0];
            let gamma = state.gamma_in_set(group, set_idx, tag);
            let excluded = exclude.is_some_and(|x| {
                state.allocation(x).is_ok_and(|a| {
                    let in_set = if group.is_node() {
                        a.node.index() == set_idx
                    } else {
                        state
                            .groups()
                            .sets_containing_ref(group, a.node)
                            .is_some_and(|v| v.contains(&set_idx))
                    };
                    in_set && self.matches_allocation(a)
                })
            });
            let before = gamma.saturating_sub(u32::from(excluded));
            let Some((a, hits)) = arrival else {
                return (before, before);
            };
            // γ gains every occurrence the arrival carries.
            let occurrences = a.tags.iter().filter(|&t| t == tag).count() as u32;
            let left_out = u32::from(excluded) + u32::from(exclude.is_none() && occurrences > 0);
            return (
                before,
                (gamma + hits * occurrences).saturating_sub(left_out),
            );
        }
        let before = if group.is_node() {
            // The implicit `node` group's set `i` is the singleton {node i}.
            self.cardinality_on_node(state, NodeId(set_idx as u32), exclude)
        } else if self
            .tags
            .iter()
            .any(|t| state.gamma_in_set(group, set_idx, t) == 0)
        {
            // Conjunction over a registered group: the per-set γ caches
            // give a free upper bound — if any tag is absent from the whole
            // set, no container in it can match.
            0
        } else if self.tags.is_empty() {
            state
                .groups()
                .set_members_ref(group, set_idx)
                .map_or(0, |members| {
                    self.cardinality_on_set(state, members, exclude)
                })
        } else {
            // Only nodes where γ has every tag count: the rarest tag's, as
            // often as the set lists them; a walk where γ was never cut.
            let groups = state.groups();
            let listed = |n| groups.sets_containing_ref(group, n).unwrap_or(&[]);
            let count = |n| match listed(n).iter().filter(|&&s| s == set_idx).count() as u32 {
                0 => 0,
                hits if state.tags_removed(n) => hits * self.cardinality_on_node(state, n, exclude),
                hits => hits * self.walk(state, n, exclude),
            };
            let nodes = state.nodes_with_rarest_tag(&self.tags);
            nodes.into_iter().map(count).sum()
        };
        let Some((a, hits)) = arrival else {
            return (before, before);
        };
        let mut lacks = false;
        for t in &self.tags {
            if state.gamma(a.node, t) == 0 {
                if !a.tags.contains(t) {
                    // Still skipped, and the arrival cannot match either.
                    return (before, before);
                }
                lacks = true;
            }
        }
        let hidden = lacks.then(|| self.walk(state, a.node, exclude));
        let adds = u32::from(exclude.is_some() && self.matches_tags(a.tags));
        (before, before + hits * (hidden.unwrap_or(0) + adds))
    }
}

/// A container that is not allocated yet: the node it would join and the
/// tags it would carry there (the request's plus the automatic `appid:`).
#[derive(Debug, Clone, Copy)]
pub struct Arrival<'a> {
    /// The node it would be allocated on.
    pub node: NodeId,
    /// Its effective tags.
    pub tags: &'a [Tag],
}

impl fmt::Display for TagExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for t in &self.tags {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl From<Tag> for TagExpr {
    fn from(t: Tag) -> Self {
        TagExpr::tag(t)
    }
}

impl From<&str> for TagExpr {
    fn from(s: &str) -> Self {
        TagExpr::tag(Tag::new(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_cluster::{ApplicationId, ClusterState, ContainerRequest, ExecutionKind, Resources};

    fn cluster_with_containers() -> ClusterState {
        let mut c = ClusterState::homogeneous(2, Resources::new(8192, 8), 1);
        let mk = |tags: &[&str]| {
            ContainerRequest::new(Resources::new(256, 1), tags.iter().map(|t| Tag::new(*t)))
        };
        c.allocate(
            ApplicationId(1),
            NodeId(0),
            &mk(&["hb", "hb_m"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        c.allocate(
            ApplicationId(1),
            NodeId(0),
            &mk(&["hb", "hb_rs"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        c.allocate(
            ApplicationId(2),
            NodeId(1),
            &mk(&["hb", "hb_rs"]),
            ExecutionKind::LongRunning,
        )
        .unwrap();
        c
    }

    #[test]
    fn single_tag_uses_gamma() {
        let c = cluster_with_containers();
        let e = TagExpr::tag(Tag::new("hb"));
        assert_eq!(e.cardinality_on_node(&c, NodeId(0), None), 2);
        assert_eq!(e.cardinality_on_node(&c, NodeId(1), None), 1);
    }

    #[test]
    fn conjunction_counts_containers_not_tags() {
        let c = cluster_with_containers();
        let e = TagExpr::and([Tag::new("hb"), Tag::new("hb_rs")]);
        assert_eq!(e.cardinality_on_node(&c, NodeId(0), None), 1);
        let set = [NodeId(0), NodeId(1)];
        assert_eq!(e.cardinality_on_set(&c, &set, None), 2);
    }

    #[test]
    fn exclusion_skips_the_subject() {
        let c = cluster_with_containers();
        let first = c.containers_on(NodeId(0)).unwrap()[0];
        let e = TagExpr::tag(Tag::new("hb"));
        assert_eq!(e.cardinality_on_node(&c, NodeId(0), Some(first)), 1);
    }

    #[test]
    fn appid_expressions_restrict_to_one_app() {
        let c = cluster_with_containers();
        let e = TagExpr::and([Tag::new("hb"), Tag::app_id(ApplicationId(2))]);
        assert_eq!(e.cardinality_on_node(&c, NodeId(0), None), 0);
        assert_eq!(e.cardinality_on_node(&c, NodeId(1), None), 1);
    }

    #[test]
    fn normalization_dedups_and_sorts() {
        let a = TagExpr::and([Tag::new("b"), Tag::new("a"), Tag::new("b")]);
        let b = TagExpr::and([Tag::new("a"), Tag::new("b")]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "a ∧ b");
    }

    #[test]
    fn unknown_node_counts_zero() {
        let c = cluster_with_containers();
        let e = TagExpr::tag(Tag::new("hb"));
        assert_eq!(e.cardinality_on_node(&c, NodeId(99), None), 0);
    }
}
