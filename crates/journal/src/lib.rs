//! `medea-journal` — crash-consistent scheduler state.
//!
//! Medea runs inside the resource manager; if the RM process dies, a
//! purely in-memory `ClusterState` loses every allocation record and
//! the long-running applications it was built to protect. This crate
//! is the durability layer underneath the scheduler:
//!
//! * an **append-only write-ahead log** of state mutations
//!   ([`JournalRecord`]: place / release / retag / availability /
//!   group registration, each stamped with the cluster mutation epoch
//!   it produced),
//! * **checkpoint documents** ([`CheckpointDoc`]) serialized from the
//!   live state between mutations, installed atomically, after which the
//!   log is truncated,
//! * pluggable [`JournalStorage`] sinks — [`MemoryStorage`] for tests
//!   and the simulator, [`FileStorage`] for real runs and benches,
//! * the [`Wal`] front end: framed, FNV-1a-checksummed lines; `load()`
//!   returns `(checkpoint, log tail)` and refuses corrupt or torn
//!   input outright,
//! * the JSON codec those are written in ([`json_codec!`],
//!   [`JsonValue`]), which `medea-server`'s wire protocol shares.
//!
//! Restore itself lives in `medea-cluster` (`ClusterState::restore`),
//! which replays the checkpoint and log tail back into a full state,
//! index and γ caches included. This crate is intentionally
//! zero-dependency and speaks only primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

mod checkpoint;
mod frame;
mod json;
mod record;
mod storage;
mod wal;

pub use checkpoint::{
    CheckpointAlloc, CheckpointDoc, CheckpointGroup, CheckpointNode, CheckpointSpec,
};
pub use frame::{fnv1a64, frame, unframe};
pub use json::{encode, FromJson, JsonValue, JsonWriter, ToJson, MAX_DEPTH};
pub use record::{JournalOp, JournalRecord};
pub use storage::{FileStorage, JournalStorage, MemoryStorage};
pub use wal::{JournalStats, Wal};

/// Errors surfaced by journal storage, framing, and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Underlying storage failed (message carries the OS error text).
    Io(String),
    /// A stored line failed checksum or decode. `line` is 1-based for
    /// log records and 0 for the checkpoint document.
    Corrupt {
        /// Offending line (0 = checkpoint).
        line: usize,
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal io error: {msg}"),
            JournalError::Corrupt { line: 0, reason } => {
                write!(f, "journal corrupt: checkpoint: {reason}")
            }
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at log line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}
