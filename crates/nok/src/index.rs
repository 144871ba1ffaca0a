//! The node index NoK matching starts from (§4.1: "using B+ trees on the
//! subtree root's value or tag names to start the matching").
//!
//! Fidelity: the paper's B+-trees are an ordered in-memory map here. The
//! index is never persisted (it is rebuilt from the store at open and after
//! a structural update) and its I/O is part of no measured quantity.

use crate::cache::fnv1a;
use dol_storage::disk::StorageError;
use dol_storage::{StructStore, ValueStore};
use dol_xml::TagId;
use std::collections::BTreeMap;

/// `tag → positions` and `(tag, value hash) → positions` of one store, every
/// list strictly ascending in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeIndex {
    by_tag: BTreeMap<TagId, Vec<u64>>,
    /// Keyed on the value's [`fnv1a`] hash; collisions are harmless because
    /// the matcher re-checks the actual value.
    by_value: BTreeMap<(TagId, u64), Vec<u64>>,
}

impl NodeIndex {
    /// Builds both maps in one document-order scan of `store`.
    pub fn build(store: &StructStore, values: &ValueStore) -> Result<Self, StorageError> {
        let mut by_tag: BTreeMap<TagId, Vec<u64>> = BTreeMap::new();
        let mut by_value: BTreeMap<(TagId, u64), Vec<u64>> = BTreeMap::new();
        for entry in store.iter() {
            let (pos, rec) = entry?;
            by_tag.entry(rec.tag).or_default().push(pos);
            if !rec.has_value {
                continue;
            }
            if let Some(v) = values.get(pos)? {
                by_value.entry((rec.tag, fnv1a(&v))).or_default().push(pos);
            }
        }
        Ok(Self { by_tag, by_value })
    }

    /// The positions of every node with `tag`.
    pub fn by_tag(&self, tag: TagId) -> &[u64] {
        self.by_tag.get(&tag).map_or(&[], Vec::as_slice)
    }

    /// The positions of every `tag` node whose value hashes like `value` —
    /// a superset of the nodes whose value *is* `value`.
    pub fn by_value(&self, tag: TagId, value: &str) -> &[u64] {
        self.by_value
            .get(&(tag, fnv1a(value)))
            .map_or(&[], Vec::as_slice)
    }
}
