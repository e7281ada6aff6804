//! `medea-server` — scheduler-as-a-service.
//!
//! The paper runs Medea inside the resource manager; this crate is the
//! serving front-end that turns the library scheduler into a daemon:
//! a std-only TCP server speaking a length-prefixed JSON wire protocol
//! ([`proto`]), coalescing concurrent tenants' placement requests into
//! ILP batches driven by real arrival pressure ([`admission`]), and
//! sharing one scheduler between a single writer thread and concurrent
//! status readers ([`server`], via `medea_core::SharedScheduler`). What
//! that writer decides and does is two clock-free functions
//! ([`batcher`]), which a test or a replay drives without a socket.
//!
//! Guarantees, each backed by a test suite:
//!
//! - **Robustness** (`tests/protocol.rs`): malformed frames — truncated,
//!   oversized, invalid UTF-8, garbage JSON — produce a typed error or a
//!   dropped connection, never a panic or a wedged accept loop.
//! - **Concurrency** (`tests/concurrent.rs`): interleaved place /
//!   release / query traffic from many clients loses no responses and
//!   echoes every request id exactly once; the recovery ledger stays
//!   intact after a drain.
//! - **Backpressure** (`tests/admission.rs`): overload sheds with a
//!   typed `overloaded` reply — bounded queue, per-tenant quota — and
//!   never parks a client.
//! - **Durability** (`tests/drain_restart.rs`): graceful shutdown
//!   flushes in-flight batches and checkpoints through `medea-journal`,
//!   so a restarted server passes the work-preserving restart audit;
//!   a crash mid-serve restores from the WAL tail.
//! - **Determinism** (`tests/served_transcripts.rs`): four seeded
//!   request streams through the batcher's functions on a fake clock
//!   reproduce pinned transcript hashes in both build profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod proto;
pub mod server;

pub use admission::{
    AdmissionConfig, AdmissionQueue, BatchClose, PlaceWork, ShedReason, ShedStats, QUIET_MAX_US,
    RETRY_AFTER_MS,
};
pub use batcher::DrainReport;
pub use proto::{
    write_frame, ContainerSpec, FrameError, FrameReader, ProtoError, Request, Response,
    StatusReply, MAX_CONTAINERS_PER_REQUEST, MAX_FRAME_BYTES,
};
pub use server::{
    MedeaServer, ServerConfig, ServerHandle, DRAIN_MAX_CYCLES, MAX_CONNECTIONS, READ_TIMEOUT_MS,
};
