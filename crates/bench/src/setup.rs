//! Shared experiment fixtures: secured XMark databases and worlds.

use dol_acl::{AccessOracle, BitVec, SubjectId};
use dol_core::EmbeddedDol;
use dol_nok::NodeIndex;
use dol_storage::{BufferPool, Disk, MemDisk, StoreConfig, StructStore, ValueStore};
use dol_workloads::{xmark, SynthAclConfig, XmarkConfig};
use dol_xml::{Document, NodeId};
use std::sync::Arc;

/// A fully-built secured database over a generated document, owning
/// everything a `QueryEngine` borrows.
pub struct BenchDb {
    /// The master document.
    pub doc: Document,
    /// The block store with embedded codes.
    pub store: StructStore,
    /// Character data.
    pub values: ValueStore,
    /// The embedded DOL.
    pub dol: EmbeddedDol,
    /// The node index seeding every match.
    pub index: NodeIndex,
    /// The buffer pool (for I/O accounting and cache clearing).
    pub pool: Arc<BufferPool>,
}

impl BenchDb {
    /// Builds a secured database from a document and oracle.
    pub fn build(doc: Document, oracle: &impl AccessOracle, pool_pages: usize) -> BenchDb {
        Self::build_on(Arc::new(MemDisk::new()), doc, oracle, pool_pages)
    }

    /// Builds a secured database on an explicit disk (the fault-injection
    /// experiment passes a [`dol_storage::FaultDisk`] here).
    pub fn build_on(
        disk: Arc<dyn Disk>,
        doc: Document,
        oracle: &impl AccessOracle,
        pool_pages: usize,
    ) -> BenchDb {
        let pool = Arc::new(BufferPool::new(disk, pool_pages));
        let (store, dol) = EmbeddedDol::build(pool.clone(), StoreConfig::default(), &doc, oracle)
            .expect("bulk build");
        let mut values = ValueStore::new(pool.clone());
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).expect("value store");
            }
        }
        let index = NodeIndex::build(&store, &values).expect("node index");
        BenchDb {
            doc,
            store,
            values,
            dol,
            index,
            pool,
        }
    }

    /// A query engine borrowing this database.
    pub fn engine(&self) -> dol_nok::QueryEngine<'_> {
        dol_nok::QueryEngine::new(
            &self.store,
            &self.values,
            self.doc.tags(),
            Some(&self.dol),
            &self.index,
        )
    }
}

/// A single-subject column as an oracle.
pub struct ColumnOracle(pub BitVec);

impl AccessOracle for ColumnOracle {
    fn subject_count(&self) -> usize {
        1
    }
    fn acl_row(&self, node: NodeId, out: &mut BitVec) {
        out.resize(1);
        out.set(0, self.0.get(node.index()));
    }
}

/// Generates the standard XMark document for query experiments.
pub fn xmark_doc(scale: f64) -> Document {
    xmark(&XmarkConfig {
        scale,
        seed: 20050405,
    })
}

/// A synthetic single-subject column at the given accessibility ratio.
pub fn synth_column(doc: &Document, accessibility: f64, propagation: f64, seed: u64) -> BitVec {
    dol_workloads::synth_single(
        doc,
        &SynthAclConfig {
            propagation_ratio: propagation,
            accessibility_ratio: accessibility,
            sibling_locality: 0.5,
            seed,
        },
    )
}

/// Counts document-order transitions of a single-subject column — the
/// single-subject DOL size without building the structure.
pub fn column_transitions(col: &BitVec) -> usize {
    let mut t = 1;
    for i in 1..col.len() {
        if col.get(i) != col.get(i - 1) {
            t += 1;
        }
    }
    t
}

/// Percentage of accessible nodes in a column.
pub fn density(col: &BitVec) -> f64 {
    col.count_ones() as f64 / col.len().max(1) as f64
}

/// The six Table-1 queries, in paper order.
pub const TABLE1: [(&str, &str); 6] = [
    ("Q1", "/site/regions/africa/item[location][name][quantity]"),
    (
        "Q2",
        "/site/categories/category[name]/description/text/bold",
    ),
    (
        "Q3",
        "/site/categories/category/name[description/text/bold]",
    ),
    ("Q4", "//parlist//parlist"),
    ("Q5", "//listitem//keyword"),
    ("Q6", "//item//emph"),
];

/// A schema-matching single-path stand-in for Q3 (the printed Q3 requires a
/// `description` *inside* `name`, which XMark-shaped data never contains, so
/// its answer set is empty by construction; the paper describes Q3's class
/// as "a single path", which this query realizes). Both are reported.
pub const Q3_SINGLE_PATH: (&str, &str) = ("Q3'", "/site/categories/category/description/text/bold");

/// `SubjectId(0)` — the subject used by single-subject experiments.
pub const SUBJECT: SubjectId = SubjectId(0);

#[cfg(test)]
mod tests {
    use super::*;
    use dol_nok::Security;

    #[test]
    fn table1_queries_parse_and_plan() {
        for (id, q) in TABLE1.iter().chain(std::iter::once(&Q3_SINGLE_PATH)) {
            let pattern = dol_nok::parse_query(q).unwrap_or_else(|e| panic!("{id}: {e}"));
            let plan = dol_nok::QueryPlan::new(pattern);
            assert!(!plan.trees.is_empty(), "{id}");
        }
    }

    #[test]
    fn column_helpers() {
        let col = dol_acl::BitVec::from_fn(10, |i| (4..7).contains(&i));
        assert_eq!(column_transitions(&col), 3); // 0−, 4+, 7−
        assert!((density(&col) - 0.3).abs() < 1e-9);
        let empty = dol_acl::BitVec::zeros(5);
        assert_eq!(column_transitions(&empty), 1);
        assert_eq!(density(&empty), 0.0);
    }

    #[test]
    fn bench_db_smoke() {
        let doc = xmark_doc(0.02);
        let col = synth_column(&doc, 0.7, 0.03, 1);
        let n = doc.len();
        assert_eq!(col.len(), n);
        let db = BenchDb::build(doc, &ColumnOracle(col), 64);
        let engine = db.engine();
        let all = engine.execute("//item", Security::None).unwrap();
        let secure = engine
            .execute("//item", Security::BindingLevel(SUBJECT))
            .unwrap();
        assert!(secure.matches.len() <= all.matches.len());
        db.store.check_integrity().unwrap();
    }
}
