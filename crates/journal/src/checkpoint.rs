//! Checkpoint documents: a full serialization of cluster state at one
//! epoch, installed atomically so restore never sees a half-written
//! base image.
//!
//! Like log records, the document speaks primitives only. The cluster
//! layer serializes into this shape from a consistent snapshot and
//! rebuilds `ClusterState` (allocation maps, tag multisets, index, and
//! group γ caches) from it on restore.

use std::fmt::Write as _;

use crate::json::{write_escaped, JsonValue};
use crate::record::decode_string_arr;

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

impl CheckpointDoc {
    /// Encodes the document as a single-line JSON payload (unframed).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(256 + self.nodes.len() * 96);
        let _ = write!(
            out,
            "{{\"epoch\":{},\"next_container\":{},\"nodes\":[",
            self.epoch, self.next_container
        );
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"host\":", n.node);
            write_escaped(&mut out, &n.hostname);
            let _ = write!(
                out,
                ",\"mem\":{},\"vcores\":{},\"available\":{},\"static_tags\":[",
                n.memory_mb, n.vcores, n.available
            );
            for (j, t) in n.static_tags.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, t);
            }
            out.push_str("],\"tags\":[");
            for (j, (t, c)) in n.tags.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                write_escaped(&mut out, t);
                let _ = write!(out, ",{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("],\"groups\":[");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &g.group);
            out.push_str(",\"sets\":[");
            for (j, set) in g.sets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                for (k, n) in set.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{n}");
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("],\"allocs\":[");
        for (i, a) in self.allocs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"container\":{},\"app\":{},\"node\":{},\"mem\":{},\"vcores\":{},\"lr\":{},\"tags\":[",
                a.container, a.app, a.node, a.memory_mb, a.vcores, a.long_running
            );
            for (j, t) in a.tags.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, t);
            }
            out.push_str("]}");
        }
        out.push_str("],\"specs\":[");
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"app\":{},\"replicas\":{},\"version\":{},\"budget\":{}}}",
                s.app, s.replicas, s.version, s.budget
            );
        }
        out.push_str("]}");
        out
    }

    /// Decodes a document from an unframed JSON payload.
    pub fn decode(payload: &str) -> Result<CheckpointDoc, String> {
        let doc = JsonValue::parse(payload)?;
        let mut nodes = Vec::new();
        for n in doc.req_arr("nodes")? {
            let mut tags = Vec::new();
            for pair in n.req_arr("tags")? {
                let pair = pair
                    .as_arr()
                    .ok_or_else(|| "non-array tag-count pair".to_string())?;
                let (t, c) = match pair {
                    [t, c] => (t, c),
                    _ => return Err("tag-count pair arity != 2".to_string()),
                };
                tags.push((
                    t.as_str()
                        .ok_or_else(|| "non-string tag".to_string())?
                        .to_string(),
                    c.as_u32().ok_or_else(|| "non-u32 tag count".to_string())?,
                ));
            }
            nodes.push(CheckpointNode {
                node: n.req_u32("id")?,
                hostname: n.req_str("host")?.to_string(),
                memory_mb: n.req_u64("mem")?,
                vcores: n.req_u32("vcores")?,
                static_tags: decode_string_arr(n.req_arr("static_tags")?)?,
                tags,
                available: n.req_bool("available")?,
            });
        }
        let mut groups = Vec::new();
        for g in doc.req_arr("groups")? {
            let sets = g
                .req_arr("sets")?
                .iter()
                .map(|s| {
                    s.as_arr()
                        .ok_or_else(|| "non-array group set".to_string())?
                        .iter()
                        .map(|n| n.as_u32().ok_or_else(|| "non-u32 node id".to_string()))
                        .collect()
                })
                .collect::<Result<Vec<Vec<u32>>, String>>()?;
            groups.push(CheckpointGroup {
                group: g.req_str("name")?.to_string(),
                sets,
            });
        }
        let mut allocs = Vec::new();
        for a in doc.req_arr("allocs")? {
            allocs.push(CheckpointAlloc {
                container: a.req_u64("container")?,
                app: a.req_u64("app")?,
                node: a.req_u32("node")?,
                memory_mb: a.req_u64("mem")?,
                vcores: a.req_u32("vcores")?,
                long_running: a.req_bool("lr")?,
                tags: decode_string_arr(a.req_arr("tags")?)?,
            });
        }
        let mut specs = Vec::new();
        if let Some(JsonValue::Arr(items)) = doc.get("specs") {
            for s in items {
                specs.push(CheckpointSpec {
                    app: s.req_u64("app")?,
                    replicas: s.req_u64("replicas")?,
                    version: s.req_u64("version")?,
                    budget: s.req_u64("budget")?,
                });
            }
        }
        Ok(CheckpointDoc {
            epoch: doc.req_u64("epoch")?,
            next_container: doc.req_u64("next_container")?,
            nodes,
            groups,
            allocs,
            specs,
        })
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
