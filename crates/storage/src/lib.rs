#![warn(missing_docs)]
// The storage layer is the fail-closed boundary: production code must
// propagate typed errors, never unwrap them. Tests may unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Block-oriented storage substrate for the DOL secure XML query engine.
//!
//! The paper's central claim is architectural: access-control data should be
//! *physically clustered* with the NoK document-structure encoding so that
//! checking a node's accessibility never costs an extra I/O. This crate
//! provides everything below the access-control layer:
//!
//! * [`disk`] — a [`Disk`] trait with an in-memory simulator ([`MemDisk`])
//!   and a real file backend ([`FileDisk`]), both using 4 KiB pages as in the
//!   paper's experiments.
//! * [`buffer`] — an LRU [`BufferPool`] with dirty tracking and exact
//!   logical/physical I/O statistics ([`IoStats`]); the experiment harness
//!   reads these counters to reproduce the paper's I/O arguments.
//! * [`nok`] — the NoK succinct document-order block encoding
//!   ([`StructStore`]): fixed-size node records `(tag, subtree-size, depth,
//!   flags)` packed in document order, with per-block access-control headers
//!   (first-node code + change bit) and embedded `(slot, code)` transition
//!   entries — the physical half of DOL.
//! * [`log`] — a paged append log ([`PagedLog`]) and the [`ValueStore`]
//!   keeping character data out of the structural encoding.
//! * [`checksum`] / [`fault`] — the robustness layer: a CRC-32C page trailer
//!   verified on every physical read (see [`page`]), and a deterministic
//!   fault-injecting [`FaultDisk`] decorator used to prove the engine fails
//!   *closed* — a corrupt or unreadable block can hide authorized nodes but
//!   never leak protected ones.
//! * [`wal`] — the crash-consistency layer: a physical write-ahead log
//!   ([`Wal`]) that every [`BufferPool::txn_commit`] appends to, with redo
//!   recovery on open and a [`CrashDisk`] power-cut simulator (in
//!   [`fault`]) plus a crash-point torture harness to prove every multi-page
//!   update is atomic.
//!
//! Higher layers: `dol-core` implements the logical DOL and drives the
//! embedded representation through [`StructStore`]'s code-run primitives;
//! `dol-nok` implements (secure) query evaluation on top of the navigation
//! API.

pub mod buffer;
pub mod checksum;
pub mod disk;
pub mod fault;
pub mod log;
pub mod nok;
pub mod page;
pub mod retry;
pub mod wal;

pub use buffer::{
    with_read_epoch, BufferPool, IoStats, DEFAULT_CHECKPOINT_THRESHOLD, MAX_IO_ATTEMPTS,
};
pub use disk::{Disk, FileDisk, MemDisk, StorageError};
pub use fault::{CrashDisk, CrashState, FaultConfig, FaultDisk, FaultStats};
pub use log::{PagedLog, ValueStore};
pub use nok::{
    BlockInfo, BlockProbe, BlockSnapshot, BulkItem, NodeRec, StoreConfig, StructStore, NO_CODE,
};
pub use page::{Page, PageId, CHECKSUM_SIZE, PAGE_SIZE, PAYLOAD_SIZE};
pub use retry::{current_io_deadline, with_io_deadline, CancelToken, Deadline, RetryPolicy};
pub use wal::{RecoveryReport, Wal, WalStats};
