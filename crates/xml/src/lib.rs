#![warn(missing_docs)]
// The parser faces untrusted bytes: production code must return typed
// errors, never unwrap. Tests may unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! XML data model for the DOL secure query engine.
//!
//! This crate provides the document substrate every other crate builds on:
//!
//! * [`Document`] — an arena-backed ordered tree of XML element nodes stored in
//!   **document order** (preorder). A [`NodeId`] *is* the node's document-order
//!   rank, so the subtree rooted at `n` occupies the contiguous id range
//!   `[n, n + size(n))`. This is the `(order, size)` region encoding used by the
//!   NoK storage scheme (Zhang et al., ICDE 2004) and is what makes DOL lookups
//!   binary searches and structural joins interval tests.
//! * [`TagInterner`] / [`TagId`] — compact interned element names.
//! * [`parse`] / [`Document::to_xml`] — a from-scratch, dependency-free XML
//!   parser and serializer covering the subset needed by the XMark-class
//!   workloads (elements, attributes, character data, comments, CDATA,
//!   processing instructions, standard entities).
//!
//! # Model
//!
//! Following the paper, a document is a tree whose nodes are *elements*; sibling
//! order is significant. Two pseudo-element conventions extend the model to full
//! XML without introducing new node kinds:
//!
//! * attributes become value-carrying child elements whose tag starts with `@`;
//! * character data becomes child elements with the reserved tag `#text`.
//!
//! Both are first-class nodes and can therefore carry their own fine-grained
//! access controls, exactly like ordinary elements.
//!
//! # Example
//!
//! ```
//! use dol_xml::parse;
//!
//! let doc = parse("<site><regions><africa/><asia/></regions></site>").unwrap();
//! let root = doc.root();
//! assert_eq!(doc.tag_name(doc.node(root).tag), "site");
//! assert_eq!(doc.len(), 4);
//! // The subtree of `regions` is the contiguous id range [1, 4).
//! let regions = doc.first_child(root).unwrap();
//! assert_eq!(doc.subtree_range(regions), (1..4));
//! ```

mod document;
mod error;
pub mod events;
mod parser;
mod tag;
mod writer;

pub use document::{Document, DocumentBuilder, DocumentStats, Node, NodeId};
pub use error::{ParseError, XmlError};
pub use events::{EventReader, XmlEvent};
pub use parser::{parse, parse_with_options, ParseOptions};
pub use tag::{TagId, TagInterner, ATTRIBUTE_PREFIX, TEXT_TAG};
