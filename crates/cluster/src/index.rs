//! Incremental cluster indexes: inverted tag→node postings with per-node
//! cardinality counts, and the free-memory ordering of the nodes.
//!
//! Every scheduling round used to answer "which nodes carry tag `t`?" and
//! "which nodes have the most free?" by scanning all nodes (or all
//! allocations), making a round O(nodes × constraints) — the §6 evaluation
//! runs at 400 nodes, but production clusters (§2.1, Fig. 1) are tens of
//! thousands of machines. [`ClusterIndex`] maintains those answers
//! incrementally: every allocate/release/retag updates the affected
//! postings in O(tags · log nodes), and queries walk only the nodes that
//! can match.
//!
//! Determinism contract: every query must return *exactly* what the naive
//! full scan returns, in the same order (node ids ascending, or the
//! documented free-capacity order). The scans themselves are the oracles
//! of `tests/index_differential.rs`, which checks equality after every
//! random mutation; the library has one path per query, this one.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::resources::Resources;
use crate::tags::{Tag, TagMultiset};

/// Counters describing index maintenance and query work, exposed as the
/// `cluster.index_*` metrics and by the scale benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Distinct tags currently holding at least one posting.
    pub distinct_tags: usize,
    /// Incremental posting/ordering mutations applied since creation,
    /// not counting tentative work a [`crate::Scratch`] guard rolled back.
    pub update_ops: u64,
    /// Posting and ordering entries walked by index queries.
    pub nodes_visited: u64,
}

/// The incremental index structures of a [`crate::ClusterState`].
///
/// All maps are ordered (`BTreeMap`/`BTreeSet`) so query iteration order
/// is deterministic and matches a scan of the nodes.
#[derive(Debug, Default)]
pub(crate) struct ClusterIndex {
    /// Inverted tag index: tag → node id → tag cardinality `γ_n(t)`.
    /// Only nodes with `γ_n(t) > 0` appear.
    tag_nodes: HashMap<Tag, BTreeMap<u32, u32>>,
    /// Free-memory ordering: (free memory MB, free vcores, node).
    free_mem: BTreeSet<(u64, u32, u32)>,
    /// Maintenance counter; a [`crate::Scratch`] guard puts it back on
    /// drop, so tentative solver work is not counted as upkeep.
    pub(crate) update_ops: u64,
    /// Query-side work counter; atomic because queries take `&self` and
    /// `ClusterState` is `Sync` (a compile-time test in `state.rs`
    /// asserts it).
    nodes_visited: AtomicU64,
}

/// Manual impl: `AtomicU64` is not `Clone`; a clone carries the counter
/// value over.
impl Clone for ClusterIndex {
    fn clone(&self) -> Self {
        ClusterIndex {
            tag_nodes: self.tag_nodes.clone(),
            free_mem: self.free_mem.clone(),
            update_ops: self.update_ops,
            nodes_visited: AtomicU64::new(self.nodes_visited.load(Ordering::Relaxed)),
        }
    }
}

impl ClusterIndex {
    pub(crate) fn stats(&self) -> IndexStats {
        IndexStats {
            distinct_tags: self.tag_nodes.len(),
            update_ops: self.update_ops,
            nodes_visited: self.nodes_visited.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_visited(&self, n: u64) {
        self.nodes_visited.fetch_add(n, Ordering::Relaxed);
    }

    /// Rebuilds every structure from scratch (O(nodes × tags)).
    pub(crate) fn rebuild<'a>(
        &mut self,
        nodes: impl Iterator<Item = (u32, &'a TagMultiset, Resources)>,
    ) {
        self.tag_nodes.clear();
        self.free_mem.clear();
        for (node, tags, free) in nodes {
            for (t, c) in tags.iter() {
                self.tag_nodes.entry(t.clone()).or_default().insert(node, c);
            }
            self.free_mem.insert((free.memory_mb, free.vcores, node));
        }
    }

    /// Registers one more occurrence of `tag` on `node`.
    pub(crate) fn tag_added(&mut self, node: u32, tag: &Tag) {
        self.update_ops += 1;
        *self
            .tag_nodes
            .entry(tag.clone())
            .or_default()
            .entry(node)
            .or_insert(0) += 1;
    }

    /// Removes one occurrence of `tag` from `node`; postings that reach
    /// zero are dropped so no stale entries survive.
    pub(crate) fn tag_removed(&mut self, node: u32, tag: &Tag) {
        self.update_ops += 1;
        let Some(postings) = self.tag_nodes.get_mut(tag) else {
            return;
        };
        if let Some(c) = postings.get_mut(&node) {
            if *c > 1 {
                *c -= 1;
            } else {
                postings.remove(&node);
            }
        }
        if postings.is_empty() {
            self.tag_nodes.remove(tag);
        }
    }

    /// Moves `node` from `old` to `new` in the free-capacity ordering.
    pub(crate) fn free_changed(&mut self, node: u32, old: Resources, new: Resources) {
        if old == new {
            return;
        }
        self.update_ops += 1;
        self.free_mem.remove(&(old.memory_mb, old.vcores, node));
        self.free_mem.insert((new.memory_mb, new.vcores, node));
    }

    /// `γ_n(t)` according to the postings (0 when absent).
    pub(crate) fn tag_count(&self, node: u32, tag: &Tag) -> u32 {
        self.tag_nodes
            .get(tag)
            .and_then(|p| p.get(&node).copied())
            .unwrap_or(0)
    }

    /// Postings of one tag (node-ascending), if any.
    pub(crate) fn postings(&self, tag: &Tag) -> Option<&BTreeMap<u32, u32>> {
        self.tag_nodes.get(tag)
    }

    /// Nodes carrying *all* the given tags, ascending. Starts from the
    /// rarest tag's postings and probes the rest, so the work is bounded
    /// by the smallest posting list, not the cluster size.
    pub(crate) fn nodes_with_all_tags(&self, tags: &[Tag]) -> Vec<u32> {
        let Some(smallest) = tags
            .iter()
            .map(|t| self.tag_nodes.get(t).map(|p| p.len()).unwrap_or(0))
            .enumerate()
            .min_by_key(|&(_, len)| len)
            .map(|(i, _)| &tags[i])
        else {
            return Vec::new();
        };
        let Some(base) = self.tag_nodes.get(smallest) else {
            return Vec::new();
        };
        self.note_visited(base.len() as u64);
        let others: Vec<&Tag> = tags.iter().filter(|&t| t != smallest).collect();
        base.keys()
            .copied()
            .filter(|&n| others.iter().all(|t| self.tag_count(n, t) > 0))
            .collect()
    }

    /// Nodes ordered by free memory descending; ties broken by free
    /// vcores descending, then node id descending (the exact reverse of
    /// the ascending `(mem, vcores, node)` ordering, which a sort of the
    /// nodes reproduces). Lazy: an entry counts as visited when it is
    /// walked, so a caller that stops early pays only for what it read.
    pub(crate) fn nodes_by_free_memory(&self) -> impl Iterator<Item = u32> + '_ {
        self.free_mem.iter().rev().map(|&(_, _, n)| {
            self.note_visited(1);
            n
        })
    }

    /// Verifies the index against ground truth; returns the first
    /// discrepancy found.
    pub(crate) fn check_consistency<'a>(
        &self,
        nodes: impl Iterator<Item = (u32, &'a TagMultiset, Resources)> + Clone,
    ) -> Result<(), String> {
        let mut expected_tags: HashMap<Tag, BTreeMap<u32, u32>> = HashMap::new();
        let mut expected_mem: BTreeSet<(u64, u32, u32)> = BTreeSet::new();
        for (node, tags, free) in nodes {
            for (t, c) in tags.iter() {
                expected_tags.entry(t.clone()).or_default().insert(node, c);
            }
            expected_mem.insert((free.memory_mb, free.vcores, node));
        }
        for (t, postings) in &self.tag_nodes {
            if postings.is_empty() {
                return Err(format!("stale empty posting list for tag '{t}'"));
            }
            let Some(exp) = expected_tags.get(t) else {
                return Err(format!("stale tag '{t}' indexed on {:?}", postings));
            };
            if exp != postings {
                return Err(format!(
                    "tag '{t}': index {postings:?} != ground truth {exp:?}"
                ));
            }
        }
        for t in expected_tags.keys() {
            if !self.tag_nodes.contains_key(t) {
                return Err(format!("tag '{t}' present on nodes but not indexed"));
            }
        }
        if self.free_mem != expected_mem {
            return Err("free-memory ordering diverged from node state".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Tag {
        Tag::new(s)
    }

    fn r(mem: u64, vc: u32) -> Resources {
        Resources::new(mem, vc)
    }

    #[test]
    fn postings_add_remove_roundtrip() {
        let mut ix = ClusterIndex::default();
        ix.tag_added(3, &t("hb"));
        ix.tag_added(3, &t("hb"));
        ix.tag_added(5, &t("hb"));
        assert_eq!(ix.tag_count(3, &t("hb")), 2);
        assert_eq!(ix.nodes_with_all_tags(&[t("hb")]), vec![3, 5]);
        ix.tag_removed(3, &t("hb"));
        assert_eq!(ix.tag_count(3, &t("hb")), 1);
        ix.tag_removed(3, &t("hb"));
        assert_eq!(ix.nodes_with_all_tags(&[t("hb")]), vec![5]);
        ix.tag_removed(5, &t("hb"));
        assert!(ix.postings(&t("hb")).is_none(), "empty postings dropped");
    }

    #[test]
    fn intersection_starts_from_rarest() {
        let mut ix = ClusterIndex::default();
        for n in 0..100 {
            ix.tag_added(n, &t("common"));
        }
        ix.tag_added(7, &t("rare"));
        ix.tag_added(9, &t("rare"));
        let before = ix.stats().nodes_visited;
        assert_eq!(
            ix.nodes_with_all_tags(&[t("common"), t("rare")]),
            vec![7, 9]
        );
        // Only the rare postings were walked, not the 100 common ones.
        assert_eq!(ix.stats().nodes_visited - before, 2);
    }

    #[test]
    fn free_orderings_follow_updates() {
        let mut ix = ClusterIndex::default();
        ix.rebuild(
            [
                (0u32, &TagMultiset::new(), r(4096, 4)),
                (1, &TagMultiset::new(), r(8192, 8)),
                (2, &TagMultiset::new(), r(4096, 2)),
            ]
            .into_iter(),
        );
        let by_free = |ix: &ClusterIndex| ix.nodes_by_free_memory().collect::<Vec<_>>();
        assert_eq!(by_free(&ix), vec![1, 0, 2]);
        ix.free_changed(1, r(8192, 8), r(1024, 8));
        assert_eq!(by_free(&ix), vec![0, 2, 1]);
        // Only the entries walked are counted.
        let before = ix.stats().nodes_visited;
        assert_eq!(ix.nodes_by_free_memory().next(), Some(0));
        assert_eq!(ix.stats().nodes_visited - before, 1);
    }

    #[test]
    fn consistency_detects_staleness() {
        let mut ix = ClusterIndex::default();
        let tags: TagMultiset = [t("a")].into_iter().collect();
        ix.rebuild([(0u32, &tags, r(100, 1))].into_iter());
        assert!(ix
            .check_consistency([(0u32, &tags, r(100, 1))].into_iter())
            .is_ok());
        // Ground truth moved without the index hearing about it.
        let empty = TagMultiset::new();
        assert!(ix
            .check_consistency([(0u32, &empty, r(100, 1))].into_iter())
            .is_err());
        assert!(ix
            .check_consistency([(0u32, &tags, r(50, 1))].into_iter())
            .is_err());
    }
}
