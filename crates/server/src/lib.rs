//! `dol-server` — a crash-tolerant wire front door for the secure XML
//! database.
//!
//! The in-process engine (crate `secure-xml`) already has typed refusals,
//! MVCC snapshot readers, group commit, poison latches, and deadlines; this
//! crate extends that contract over TCP without weakening it:
//!
//! * [`frame`] — CRC-32C length-prefixed records; the network trust
//!   boundary (torn/oversize/corrupt frames close the connection, never
//!   touch the database).
//! * [`json`] — a minimal, hardened JSON subset (integers, strings, bools,
//!   arrays, objects; depth-capped; no floats) with deterministic encoding.
//! * [`proto`] — the request/response vocabulary and the closed
//!   [`ErrorCode`](proto::ErrorCode) set mapping
//!   [`DbError`](secure_xml::DbError) one-to-one onto the wire.
//! * [`metrics`] — per-method latency histograms and typed-refusal
//!   counters, rendered as Prometheus text (also served to a plain HTTP
//!   `GET` on the same port).
//! * [`server`] — admission control, per-request deadlines, client
//!   disconnect cancellation, degraded serving while poisoned, and the
//!   graceful drain choreography.
//! * [`client`] — a blocking typed client for harnesses and tests.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
#[cfg(test)]
mod io_counts;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use frame::{FrameError, DEFAULT_MAX_FRAME};
pub use json::Json;
pub use metrics::Metrics;
pub use proto::{ErrorCode, Method, Request, UpdateOp, WireSemantics};
pub use server::{Server, ServerConfig};
