#![warn(missing_docs)]

//! Workload generators for the DOL experiments (paper §5).
//!
//! The paper evaluates on three data sources, two of which are proprietary;
//! this crate provides seeded, deterministic stand-ins calibrated to the
//! published statistics (see DESIGN.md for the substitution rationale):
//!
//! * [`xmark`](mod@xmark) — documents with the XMark benchmark's schema shape
//!   (regions/items, categories with recursively nested `parlist`s, people,
//!   auctions, inline `bold`/`keyword`/`emph` content), so the paper's
//!   queries Q1–Q6 exercise the same structural classes;
//! * [`synth`] — the synthetic access controls of §5: random seeds
//!   controlled by a *propagation ratio*, accessible with probability the
//!   *accessibility ratio*, horizontal locality via same-labeled siblings,
//!   vertical locality via Most-Specific-Override propagation;
//! * [`livelink`] — a corporate-portal simulator (OpenText LiveLink
//!   surrogate): department/project folder trees (avg depth ≈ 8, max ≤ 19),
//!   a group hierarchy, role-based subtree grants across ten action modes —
//!   the source of the subject-correlation the multi-user experiments
//!   measure;
//! * [`unixfs`] — a multi-user Unix file-system surrogate: per-file
//!   `owner/group/mode-bits` with directory-level inheritance, users in
//!   groups, accessibility derived by the Unix permission algorithm.

pub mod grouped;
pub mod livelink;
pub mod synth;
pub mod unixfs;
pub mod xmark;

pub use grouped::{GroupedConfig, GroupedOracle, GroupedWorld};
pub use livelink::{LiveLinkConfig, LiveLinkWorld};
pub use synth::{synth_multi, synth_single, SynthAclConfig};
pub use unixfs::{UnixFsConfig, UnixFsWorld, UnixMode};
pub use xmark::{xmark, XmarkConfig};
