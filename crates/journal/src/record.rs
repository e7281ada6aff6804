//! Log records: one epoch-stamped state mutation per line.
//!
//! The journal speaks primitives (`u64` ids, strings) rather than
//! `medea-cluster` types so the crate stays dependency-free and the
//! on-disk format is decoupled from in-memory representations; the
//! cluster layer owns the conversion in both directions.

use crate::json::{encode, JsonValue};
use crate::json_codec;

/// A single durable state mutation.
///
/// Each variant corresponds to exactly one epoch bump of the cluster
/// state's mutation clock, which is what makes `replay` exact: the
/// restorer pins the clock to `epoch - 1` before applying an op and the
/// op's own touch lands it on `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A container was placed (covers both LRA and task containers).
    Place {
        /// Assigned container id.
        container: u64,
        /// Owning application.
        app: u64,
        /// Host node.
        node: u32,
        /// Requested memory, MB.
        memory_mb: u64,
        /// Requested vcores.
        vcores: u32,
        /// Long-running (true) or task (false) execution kind.
        long_running: bool,
        /// Full tag list as stored on the allocation (includes the
        /// `appid:` auto-tag).
        tags: Vec<String>,
    },
    /// A container was released (crash, completion, or migration).
    Release {
        /// Released container id.
        container: u64,
    },
    /// A tag occurrence was added to a node.
    NodeTagAdd {
        /// Target node.
        node: u32,
        /// Tag text.
        tag: String,
    },
    /// A tag occurrence was removed from a node.
    NodeTagRemove {
        /// Target node.
        node: u32,
        /// Tag text.
        tag: String,
    },
    /// Node availability flipped (crash / recover).
    SetAvailable {
        /// Target node.
        node: u32,
        /// New availability.
        available: bool,
    },
    /// A node group was (re-)registered.
    RegisterGroup {
        /// Group name.
        group: String,
        /// Node-id sets of the group.
        sets: Vec<Vec<u32>>,
    },
    /// An application's desired spec changed (lifecycle layer).
    ///
    /// Unlike every other variant this op does not mutate cluster state:
    /// it is appended at the *current* epoch (no bump), so cluster replay
    /// skips it via the epoch guard, and the lifecycle layer above reads
    /// it back to reconstruct desired state after a restart.
    AppSpec {
        /// Target application.
        app: u64,
        /// Desired replica count.
        replicas: u64,
        /// Desired version.
        version: u64,
        /// Disruption budget: max replicas voluntarily down at once.
        budget: u64,
        /// Whether the spec was retired (app left lifecycle management).
        retired: bool,
    },
}

/// An epoch-stamped [`JournalOp`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Value of the cluster mutation epoch *after* this op applied.
    pub epoch: u64,
    /// The mutation.
    pub op: JournalOp,
}

json_codec! { enum JournalOp {
    "place" => Place {
        container: "container", app: "app", node: "node", memory_mb: "mem",
        vcores: "vcores", long_running: "lr", tags: "tags",
    },
    "release" => Release { container: "container", },
    "tag_add" => NodeTagAdd { node: "node", tag: "tag", },
    "tag_remove" => NodeTagRemove { node: "node", tag: "tag", },
    "set_available" => SetAvailable { node: "node", available: "available", },
    "register_group" => RegisterGroup { group: "group", sets: "sets", },
    "app_spec" => AppSpec {
        app: "app", replicas: "replicas", version: "version", budget: "budget",
        retired: "retired",
    },
} }

json_codec! { struct JournalRecord { epoch: "epoch", op: "op", } }

impl JournalRecord {
    /// Encodes the record as a single-line JSON payload (unframed).
    pub fn encode(&self) -> String {
        encode(self)
    }

    /// Decodes a record from an unframed JSON payload.
    pub fn decode(payload: &str) -> Result<JournalRecord, String> {
        JsonValue::parse(payload)?.to()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `golden` is the exact encoding: journals on disk must keep
    /// replaying, so the bytes are part of the contract.
    fn round_trip(rec: JournalRecord, golden: &str) {
        let enc = rec.encode();
        assert_eq!(enc, golden);
        let dec = JournalRecord::decode(&enc).unwrap();
        assert_eq!(dec, rec, "payload: {enc}");
    }

    #[test]
    fn all_ops_round_trip() {
        round_trip(
            JournalRecord {
                epoch: 12,
                op: JournalOp::Place {
                    container: u64::MAX,
                    app: 3,
                    node: 17,
                    memory_mb: 2048,
                    vcores: 4,
                    long_running: true,
                    tags: vec!["hbase".into(), "appid:3".into(), "we\"ird\\tag".into()],
                },
            },
            r#"{"epoch":12,"op":{"type":"place","container":18446744073709551615,"app":3,"node":17,"mem":2048,"vcores":4,"lr":true,"tags":["hbase","appid:3","we\"ird\\tag"]}}"#,
        );
        round_trip(
            JournalRecord {
                epoch: 0,
                op: JournalOp::Release { container: 5 },
            },
            r#"{"epoch":0,"op":{"type":"release","container":5}}"#,
        );
        round_trip(
            JournalRecord {
                epoch: 9,
                op: JournalOp::NodeTagAdd {
                    node: 0,
                    tag: "fault-domain".into(),
                },
            },
            r#"{"epoch":9,"op":{"type":"tag_add","node":0,"tag":"fault-domain"}}"#,
        );
        round_trip(
            JournalRecord {
                epoch: 10,
                op: JournalOp::NodeTagRemove {
                    node: 4,
                    tag: "fault-domain".into(),
                },
            },
            r#"{"epoch":10,"op":{"type":"tag_remove","node":4,"tag":"fault-domain"}}"#,
        );
        round_trip(
            JournalRecord {
                epoch: 11,
                op: JournalOp::SetAvailable {
                    node: 7,
                    available: false,
                },
            },
            r#"{"epoch":11,"op":{"type":"set_available","node":7,"available":false}}"#,
        );
        round_trip(
            JournalRecord {
                epoch: 13,
                op: JournalOp::RegisterGroup {
                    group: "service-unit".into(),
                    sets: vec![vec![0, 1], vec![2, 3], vec![]],
                },
            },
            r#"{"epoch":13,"op":{"type":"register_group","group":"service-unit","sets":[[0,1],[2,3],[]]}}"#,
        );
        round_trip(
            JournalRecord {
                epoch: 14,
                op: JournalOp::AppSpec {
                    app: 42,
                    replicas: 10,
                    version: 3,
                    budget: 2,
                    retired: false,
                },
            },
            r#"{"epoch":14,"op":{"type":"app_spec","app":42,"replicas":10,"version":3,"budget":2,"retired":false}}"#,
        );
    }

    #[test]
    fn app_spec_decode_rejects_missing_fields() {
        assert!(
            JournalRecord::decode(r#"{"epoch":1,"op":{"type":"app_spec","app":1}}"#).is_err(),
            "app_spec without replicas/version/budget/retired"
        );
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(JournalRecord::decode("{}").is_err());
        assert!(JournalRecord::decode(r#"{"epoch":1}"#).is_err());
        assert!(JournalRecord::decode(r#"{"epoch":1,"op":{"type":"nope"}}"#).is_err());
        assert!(
            JournalRecord::decode(r#"{"epoch":1,"op":{"type":"release"}}"#).is_err(),
            "release without container id"
        );
    }
}
