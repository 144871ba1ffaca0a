#![warn(missing_docs)]
// The DOL is what secure answers are decided from: production code must
// propagate typed errors, never unwrap them. Tests may unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! **Document Ordered Labeling (DOL)** — the paper's contribution.
//!
//! A DOL is a compact representation of a fine-grained accessibility
//! function. For a secured tree, a **transition node** is a node whose
//! access-control list differs from its document-order predecessor (the root
//! is always a transition node); the DOL is the document-ordered list of
//! transition nodes together with their ACLs. Structural locality of access
//! controls — rights propagated along the hierarchy — makes transitions
//! sparse.
//!
//! For multiple subjects, ACLs are dictionary-compressed: each distinct ACL
//! bit-vector is stored once in a [`Codebook`], and transitions carry only a
//! small integer **access-control code**. Correlation between subjects'
//! rights (departments, groups) keeps the codebook far below its worst-case
//! `min(|D|, 2^|S|)` size, which is what the paper measures on LiveLink and
//! Unix data.
//!
//! Two coupled representations are provided:
//!
//! * [`Dol`] — the *logical* DOL: a sorted `(position, code)` list plus the
//!   codebook. Built in a single document-order pass from any
//!   [`dol_acl::AccessOracle`]; supports lookups, accessibility updates
//!   (node and subtree, with the paper's **Proposition 1** bound asserted),
//!   structural splices, and exact size accounting for the experiments.
//! * [`EmbeddedDol`] — the *physical* DOL: the codebook plus the codes
//!   embedded in a [`dol_storage::StructStore`]'s blocks (header code +
//!   change bit + in-block transition entries). Provides the zero-extra-I/O
//!   accessibility check used by ε-NoK and the in-memory page-skip test.
//!
//! ```
//! use dol_core::Dol;
//! use dol_acl::{AccessibilityMap, SubjectId};
//! use dol_xml::{parse, NodeId};
//!
//! let doc = parse("<a><b/><c/><d><e/><f/></d></a>").unwrap();
//! let mut map = AccessibilityMap::new(2, doc.len());
//! // Subject 0 sees the subtree of d (positions 3..6).
//! for p in 3..6 { map.set(SubjectId(0), NodeId(p), true); }
//! let dol = Dol::build(&doc, &map);
//! assert!(dol.accessible(4, SubjectId(0)));
//! assert!(!dol.accessible(4, SubjectId(1)));
//! assert_eq!(dol.transition_count(), 2); // root run + the d-subtree run
//! ```

pub mod codebook;
pub mod column;
pub mod dol;
pub mod embedded;
pub mod stats;
pub mod stream;

pub use codebook::Codebook;
pub use column::{AccessBitmap, SubjectColumn};
pub use dol::Dol;
pub use embedded::{build_secure_items, EmbeddedDol};
pub use stats::DolStats;
pub use stream::{build_dol_from_stream, secure_filter};
