//! Checkpoint documents: a full serialization of cluster state at one
//! epoch, installed atomically so restore never sees a half-written
//! base image.
//!
//! Like log records, the document speaks primitives only. The cluster
//! layer serializes into this shape from its live state and
//! rebuilds `ClusterState` (allocation maps, tag multisets, index, and
//! group γ caches) from it on restore.

use crate::json::{encode, JsonValue};
use crate::json_codec;

/// One node's durable description.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointNode {
    /// Dense node id.
    pub node: u32,
    /// Hostname (restored verbatim).
    pub hostname: String,
    /// Capacity memory, MB.
    pub memory_mb: u64,
    /// Capacity vcores.
    pub vcores: u32,
    /// Static tags the node was constructed with.
    pub static_tags: Vec<String>,
    /// The node's **full** current tag multiset as `(tag, count)`
    /// pairs, sorted by tag. This is the truth the restorer reproduces;
    /// it is *not* derivable from `static_tags` + allocations because
    /// `remove_node_tag` may have consumed occurrences contributed by
    /// either.
    pub tags: Vec<(String, u32)>,
    /// Current availability.
    pub available: bool,
}

/// One registered node group.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointGroup {
    /// Group name (e.g. `rack`, `service-unit`).
    pub group: String,
    /// Node-id sets.
    pub sets: Vec<Vec<u32>>,
}

/// One live allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointAlloc {
    /// Container id (restore replays in ascending id order so per-node
    /// and per-app container lists reproduce their insertion order).
    pub container: u64,
    /// Owning application.
    pub app: u64,
    /// Host node.
    pub node: u32,
    /// Allocated memory, MB.
    pub memory_mb: u64,
    /// Allocated vcores.
    pub vcores: u32,
    /// Execution kind: long-running (true) or task (false).
    pub long_running: bool,
    /// Full tag list including the `appid:` auto-tag.
    pub tags: Vec<String>,
}

/// One application's desired lifecycle spec (owned by the scheduler
/// layer above the cluster; the cluster restorer ignores it).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Application id.
    pub app: u64,
    /// Desired replica count.
    pub replicas: u64,
    /// Desired version.
    pub version: u64,
    /// Disruption budget: max replicas voluntarily down at once.
    pub budget: u64,
}

/// A complete checkpoint of cluster state at `epoch`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointDoc {
    /// Cluster mutation epoch at capture time.
    pub epoch: u64,
    /// Next container id to assign.
    pub next_container: u64,
    /// All nodes, ascending id.
    pub nodes: Vec<CheckpointNode>,
    /// All registered groups (including the implicit-on-construction
    /// `rack` partition), sorted by name.
    pub groups: Vec<CheckpointGroup>,
    /// All live allocations, ascending container id.
    pub allocs: Vec<CheckpointAlloc>,
    /// Desired app specs of the lifecycle layer, ascending app id.
    /// Checkpoints written before the lifecycle engine existed omit the
    /// field; decode treats absence as empty.
    pub specs: Vec<CheckpointSpec>,
}

json_codec! { struct CheckpointNode {
    node: "id", hostname: "host", memory_mb: "mem", vcores: "vcores",
    available: "available", static_tags: "static_tags", tags: "tags",
} }

json_codec! { struct CheckpointGroup { group: "name", sets: "sets", } }

json_codec! { struct CheckpointAlloc {
    container: "container", app: "app", node: "node", memory_mb: "mem",
    vcores: "vcores", long_running: "lr", tags: "tags",
} }

json_codec! { struct CheckpointSpec {
    app: "app", replicas: "replicas", version: "version", budget: "budget",
} }

json_codec! { struct CheckpointDoc {
    epoch: "epoch", next_container: "next_container", nodes: "nodes",
    groups: "groups", allocs: "allocs", specs: "specs" = [],
} }

impl CheckpointDoc {
    /// Encodes the document as a single-line JSON payload (unframed).
    pub fn encode(&self) -> String {
        encode(self)
    }

    /// Decodes a document from an unframed JSON payload.
    pub fn decode(payload: &str) -> Result<CheckpointDoc, String> {
        JsonValue::parse(payload)?.to()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_round_trips() {
        let doc = CheckpointDoc {
            epoch: 42,
            next_container: 7,
            nodes: vec![
                CheckpointNode {
                    node: 0,
                    hostname: "host-0000".into(),
                    memory_mb: 16384,
                    vcores: 16,
                    static_tags: vec!["ssd".into()],
                    tags: vec![("appid:1".into(), 2), ("ssd".into(), 1)],
                    available: true,
                },
                CheckpointNode {
                    node: 1,
                    hostname: "host-0001".into(),
                    memory_mb: 8192,
                    vcores: 8,
                    static_tags: vec![],
                    tags: vec![],
                    available: false,
                },
            ],
            groups: vec![CheckpointGroup {
                group: "rack".into(),
                sets: vec![vec![0], vec![1]],
            }],
            allocs: vec![CheckpointAlloc {
                container: 3,
                app: 1,
                node: 0,
                memory_mb: 1024,
                vcores: 1,
                long_running: true,
                tags: vec!["hbase".into(), "appid:1".into()],
            }],
            specs: vec![CheckpointSpec {
                app: 1,
                replicas: 4,
                version: 2,
                budget: 1,
            }],
        };
        let enc = doc.encode();
        // Exact bytes: a checkpoint on disk must keep restoring.
        assert_eq!(
            enc,
            concat!(
                r#"{"epoch":42,"next_container":7,"nodes":["#,
                r#"{"id":0,"host":"host-0000","mem":16384,"vcores":16,"available":true,"#,
                r#""static_tags":["ssd"],"tags":[["appid:1",2],["ssd",1]]},"#,
                r#"{"id":1,"host":"host-0001","mem":8192,"vcores":8,"available":false,"#,
                r#""static_tags":[],"tags":[]}],"#,
                r#""groups":[{"name":"rack","sets":[[0],[1]]}],"#,
                r#""allocs":[{"container":3,"app":1,"node":0,"mem":1024,"vcores":1,"lr":true,"#,
                r#""tags":["hbase","appid:1"]}],"#,
                r#""specs":[{"app":1,"replicas":4,"version":2,"budget":1}]}"#,
            )
        );
        let dec = CheckpointDoc::decode(&enc).unwrap();
        assert_eq!(dec, doc);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let doc = CheckpointDoc::default();
        assert_eq!(CheckpointDoc::decode(&doc.encode()).unwrap(), doc);
    }

    #[test]
    fn pre_lifecycle_checkpoint_decodes_with_empty_specs() {
        // A document written before the `specs` field existed.
        let payload = r#"{"epoch":1,"next_container":2,"nodes":[],"groups":[],"allocs":[]}"#;
        let dec = CheckpointDoc::decode(payload).unwrap();
        assert!(dec.specs.is_empty());
        assert_eq!(dec.epoch, 1);
        assert_eq!(
            dec.encode(),
            r#"{"epoch":1,"next_container":2,"nodes":[],"groups":[],"allocs":[],"specs":[]}"#
        );
    }
}
