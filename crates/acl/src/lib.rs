#![warn(missing_docs)]
// Policies and membership tables are decoded from persisted bytes:
// production code must return typed errors, never unwrap. Tests may unwrap
// freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Fine-grained access-control model for XML (paper §2).
//!
//! The model consists of a set of **subjects** `S` (users and user groups —
//! the subject hierarchy is maintained separately, here by
//! [`SubjectCatalog`]), a set of **action modes** `M` (read, write, …,
//! [`ModeCatalog`]), and the set `D` of nodes of an XML tree. The net effect
//! of a policy over a database instance is captured by the accessibility
//! function
//!
//! ```text
//! accessible : S × M × D → {true, false}
//! ```
//!
//! materialized per mode as an [`AccessibilityMap`] (one bit per
//! subject×node) or answered lazily through the streaming [`AccessOracle`]
//! trait, which lets generators with thousands of subjects feed the DOL
//! builder one document-order ACL row at a time without ever holding the full
//! matrix.
//!
//! [`policy`] implements the rule layer above the accessibility function:
//! grant/deny rules with local or cascading propagation, resolved with
//! Most-Specific-Override (a node inherits from its *closest* labeled
//! ancestor — the propagation policy of Jajodia et al. used by the paper's
//! synthetic workloads) plus configurable tie-breaking and a closed- or
//! open-world default.

pub mod bitvec;
pub mod cascade;
pub mod groups;
pub mod map;
pub mod mode;
pub mod oracle;
pub mod policy;
pub mod subject;

pub use bitvec::BitVec;
pub use cascade::CascadeRules;
pub use groups::GroupSpace;
pub use map::AccessibilityMap;
pub use mode::{ModeCatalog, ModeId};
pub use oracle::{AccessOracle, FnOracle};
pub use policy::{ConflictResolution, Effect, Policy, Propagation, Rule};
pub use subject::{SubjectCatalog, SubjectId, SubjectKind};
