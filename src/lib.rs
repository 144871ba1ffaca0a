#![warn(missing_docs)]

//! # secure-xml — Secure XML query evaluation with Document Ordered Labeling
//!
//! A full reproduction of *Compact Access Control Labeling for Efficient
//! Secure XML Query Evaluation* (Zhang, Zhang, Salem, Zhuo — ICDE 2005):
//! fine-grained (per-node) XML access control stored as a **DOL** — a
//! document-ordered list of transition nodes with dictionary-compressed,
//! multi-subject access-control lists — physically embedded into a
//! block-oriented NoK document store so that secure twig-query evaluation
//! costs no extra I/O over unsecured evaluation.
//!
//! ## Quick start
//!
//! ```
//! use secure_xml::{SecureXmlDb, Security};
//! use secure_xml::acl::{AccessibilityMap, SubjectId};
//! use secure_xml::xml::NodeId;
//!
//! let xml = "<clinic><patient><name>Ada</name><diagnosis>flu</diagnosis></patient></clinic>";
//! // Two subjects: subject 0 (doctor) sees everything, subject 1 (billing)
//! // sees everything except diagnoses.
//! let doc = secure_xml::xml::parse(xml).unwrap();
//! let mut map = AccessibilityMap::new(2, doc.len());
//! for p in 0..doc.len() as u32 {
//!     map.set(SubjectId(0), NodeId(p), true);
//!     map.set(SubjectId(1), NodeId(p), true);
//! }
//! map.set(SubjectId(1), NodeId(3), false); // the diagnosis node
//!
//! let mut db = SecureXmlDb::from_document(doc, &map).unwrap();
//! let doctor = db
//!     .query("//patient[diagnosis]", Security::BindingLevel(SubjectId(0)))
//!     .unwrap();
//! assert_eq!(doctor.matches.len(), 1);
//! let billing = db
//!     .query("//patient[diagnosis]", Security::BindingLevel(SubjectId(1)))
//!     .unwrap();
//! assert_eq!(billing.matches.len(), 0); // the predicate node is invisible
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`xml`] | `dol-xml` | document model, parser, serializer |
//! | [`storage`] | `dol-storage` | pages, buffer pool, NoK block store, WAL |
//! | [`acl`] | `dol-acl` | subjects, modes, policies, accessibility maps |
//! | [`dol`] | `dol-core` | the DOL: codebook, transitions, embedding |
//! | [`cam`] | `dol-cam` | the CAM baseline |
//! | [`query`] | `dol-nok` | twig queries, node index, ε-NoK, structural joins |
//! | [`workloads`] | `dol-workloads` | XMark, synthetic ACLs, LiveLink, UnixFS |

mod commit;
mod persist;
mod reader;
mod stats;

pub use dol_acl as acl;
pub use dol_cam as cam;
pub use dol_core as dol;
pub use dol_nok as query;
pub use dol_storage as storage;
pub use dol_workloads as workloads;
pub use dol_xml as xml;

pub use dol_nok::{ExecOptions, ExecStats, QueryResult, Security};
pub use dol_storage::{CancelToken, Deadline, RecoveryReport, RetryPolicy};

pub use commit::{CommitObserver, GroupCommitConfig, GroupCommitStats, GroupCommitter};
pub use reader::{CacheStats, DbReader};
pub use stats::ServerStats;

use dol_acl::{AccessOracle, BitVec, SubjectId};
use dol_core::{DolStats, EmbeddedDol};
use dol_nok::{NodeIndex, QueryEngine, QueryError};
use dol_storage::disk::StorageError;
use dol_storage::{BufferPool, BulkItem, IoStats, MemDisk, StoreConfig, StructStore, ValueStore};
use dol_xml::{Document, NodeId, TagInterner};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Errors from the high-level database API.
#[derive(Debug)]
pub enum DbError {
    /// XML parsing failed.
    Xml(dol_xml::ParseError),
    /// The storage layer failed.
    Storage(StorageError),
    /// Query parsing or evaluation failed.
    Query(QueryError),
    /// A node id was out of range or structurally invalid for the operation.
    InvalidNode(u64),
    /// An update named a subject the codebook does not know: `Some(id)` is
    /// an id at or past its logical subject count, `None` a group operation
    /// on a database with no group space. Refused before any transaction
    /// opened, so nothing was applied.
    UnknownSubject(Option<SubjectId>),
    /// A previous update transaction failed (its pages rolled back, the
    /// in-memory mirrors restored to match), or the on-disk image was
    /// compacted underneath this handle: every further update is refused
    /// until the database is [recovered](SecureXmlDb::recover) or reopened.
    Poisoned,
    /// A [`DbReader`] pinned to epoch `seen` outlived the MVCC version
    /// ring's retention window: the oldest epoch still servable is `oldest`
    /// and the database has advanced to `now`. Any in-flight result was
    /// discarded — never a wrong or torn answer. Take a fresh reader and
    /// retry ([`DbReader::query_with_retry`] does so automatically); within
    /// the window this error cannot happen.
    RetentionExceeded {
        /// The update epoch the reader was created at.
        seen: u64,
        /// The oldest epoch the version ring still retains.
        oldest: u64,
        /// The database's current update epoch.
        now: u64,
    },
    /// The group-commit queue is full: [`GroupCommitter::submit`] refused
    /// the update without queueing it (admission control, not failure —
    /// nothing was applied). Only an update submission returns this, never a
    /// query; the submitter — over the wire, the client that got
    /// `overloaded` — backs off and resubmits.
    Overloaded,
    /// A query ran past its [`Deadline`] or its [`CancelToken`] fired. The
    /// boxed statistics describe the partial work done before the abort —
    /// a partial *answer* is never returned.
    DeadlineExceeded(Box<ExecStats>),
    /// [`SecureXmlDb::verify_integrity`] found the embedded DOL or the
    /// block store inconsistent; the message names the first violation.
    Integrity(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Xml(e) => write!(f, "{e}"),
            DbError::Storage(e) => write!(f, "{e}"),
            DbError::Query(e) => write!(f, "{e}"),
            DbError::InvalidNode(p) => write!(f, "invalid node position {p}"),
            DbError::UnknownSubject(Some(s)) => write!(f, "unknown subject {s}"),
            DbError::UnknownSubject(None) => {
                write!(f, "group operation on a database without a group space")
            }
            DbError::Poisoned => write!(
                f,
                "database handle poisoned by a failed or superseding update; reopen to continue"
            ),
            DbError::RetentionExceeded { seen, oldest, now } => write!(
                f,
                "snapshot reader at epoch {seen} fell out of the retention window (oldest \
                 retained epoch {oldest}, database at epoch {now}); refresh the reader and retry"
            ),
            DbError::Overloaded => write!(
                f,
                "group-commit queue full; the update was refused before queueing — back off and \
                 resubmit"
            ),
            DbError::DeadlineExceeded(stats) => write!(
                f,
                "query deadline exceeded after visiting {} node(s); no partial answer returned",
                stats.nodes_visited
            ),
            DbError::Integrity(msg) => write!(f, "integrity check failed: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<dol_xml::ParseError> for DbError {
    fn from(e: dol_xml::ParseError) -> Self {
        DbError::Xml(e)
    }
}
impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}
impl From<QueryError> for DbError {
    fn from(e: QueryError) -> Self {
        match e {
            // Keep the typed deadline signal (and its partial-work stats)
            // first-class instead of burying it inside a query error.
            QueryError::DeadlineExceeded(stats) => DbError::DeadlineExceeded(stats),
            e => DbError::Query(e),
        }
    }
}

/// Configuration of a [`SecureXmlDb`].
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Buffer-pool frames (4 KiB each).
    pub buffer_pool_pages: usize,
    /// Node records per structure block (see [`StoreConfig`]).
    pub max_records_per_block: usize,
    /// MVCC retention: how many committed epochs the version ring keeps
    /// alive behind the current one. A [`DbReader`] pinned to any of the
    /// last `N + 1` epochs keeps answering whole-epoch results, and a reader
    /// beyond it gets [`DbError::RetentionExceeded`] with a refresh path.
    /// The ring is always armed: `0` is served as `1`.
    pub epoch_retain: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            buffer_pool_pages: 1024,
            max_records_per_block: StoreConfig::default().max_records_per_block,
            epoch_retain: 8,
        }
    }
}

/// A secured XML database: a NoK block store with an embedded DOL, a value
/// store, a tag index and a query engine — the full system of the paper for
/// one action mode. (For multiple action modes, treat `(subject, mode)`
/// pairs as subjects, as the paper suggests in §2; the experiment harness
/// does exactly that for the LiveLink workload.)
pub struct SecureXmlDb {
    /// The read-side state, `Arc`-shared so [`SecureXmlDb::reader`] can hand
    /// out cheap snapshot handles; updates go through `Arc::make_mut`, which
    /// clones a mirror only while a reader still holds it (copy on write).
    /// Page *contents* are shared through the pool regardless — the version
    /// ring is what serves an overtaken reader its own epoch's pages.
    mirrors: MirrorSnapshot,
    pool: Arc<BufferPool>,
    /// Update epoch: bumped after every committed update transaction (and
    /// by a successful recovery). [`DbReader`]s stamp it at creation, pin
    /// their page reads to it, and are refused with
    /// [`DbError::RetentionExceeded`] once the version ring no longer
    /// retains it.
    epoch: Arc<AtomicU64>,
    /// Compiled-plan and secure-result caches, shared with every reader.
    caches: Arc<reader::QueryCaches>,
    /// Opened from a saved image with an attached write-ahead log: updates
    /// must also rewrite the meta sections they changed and the catalog.
    persistent: bool,
    /// The file this persistent handle was opened from (`None` for
    /// in-memory databases and explicit-disk opens). [`SecureXmlDb::save_to`]
    /// compares against it to tell same-path compaction from a save to a
    /// fresh destination.
    image_path: Option<PathBuf>,
    /// Set when an update transaction failed (its pages rolled back and the
    /// mirrors were restored to match, but whatever broke it is still out
    /// there) or when [`SecureXmlDb::save_to`] compacted the image
    /// underneath this handle; every further update fails with
    /// [`DbError::Poisoned`] until the database is
    /// [recovered](SecureXmlDb::recover) or reopened.
    poisoned: AtomicBool,
    /// Set by a same-path [`SecureXmlDb::save_to`] compaction: the on-disk
    /// image no longer matches this pool's page layout, so in-process
    /// [`SecureXmlDb::recover`] is impossible — only a reopen from the path
    /// can continue.
    detached: AtomicBool,
    /// The handle's one update transaction — the only thing the update
    /// path consults to decide who may open, join or close it. `None`: no
    /// transaction, and an update method opens (and commits) its own.
    /// `Some(before)`: a driver — a bare update method,
    /// [`SecureXmlDb::run_update`] or [`SecureXmlDb::run_batch`] — is
    /// between begin and close, update methods called now run their bodies
    /// in its transaction, and no second driver may start. `before` is the
    /// mirror set captured when the transaction opened: holding its `Arc`s
    /// forces the transaction body's `Arc::make_mut`s to copy on write, so a
    /// failed transaction puts back exactly the mirrors that match its
    /// rolled-back pages.
    txn: Option<MirrorSnapshot>,
}

/// The typed refusal for a transaction driver called out of turn.
fn out_of_turn(msg: impl Into<String>) -> DbError {
    DbError::Storage(StorageError::Io(std::io::Error::other(msg.into())))
}

/// One group-commit batch member: an update closure the batch committer
/// runs against the database — and re-runs whenever a peer's failure rolls
/// the batch back (see [`SecureXmlDb::run_batch`]), hence `Fn`, not
/// `FnOnce`.
pub type UpdateFn = Box<dyn Fn(&mut SecureXmlDb) -> Result<(), DbError> + Send>;

/// The `Arc`-shared read-side state of a [`SecureXmlDb`] at one instant,
/// each fact stored once: structure and codes in `store`, character data in
/// `values`, names in `tags`. `index` derives from the first two; `view` is
/// the [`Document`] built from all three on demand, emptied by `reindex`,
/// so a restored snapshot brings back the view that matches it.
/// Cloning it is six reference bumps; holding a clone makes the next
/// update's `Arc::make_mut` copy-on-write instead of mutating in place (the
/// price of having a known-good state to fall back to).
#[derive(Clone)]
pub(crate) struct MirrorSnapshot {
    pub(crate) tags: Arc<TagInterner>,
    pub(crate) store: Arc<StructStore>,
    pub(crate) values: Arc<ValueStore>,
    pub(crate) dol: Arc<EmbeddedDol>,
    pub(crate) index: Arc<NodeIndex>,
    pub(crate) view: Arc<OnceLock<Document>>,
}

impl MirrorSnapshot {
    /// A query engine over these mirrors and their index.
    pub(crate) fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(
            &self.store,
            &self.values,
            &self.tags,
            Some(&self.dol),
            &self.index,
        )
    }

    /// The document these mirrors describe, built in one scan of the store;
    /// with a `subject`, only what it may see: the subtree of every node it
    /// may not see is left out, and `None` means that is the root.
    pub(crate) fn to_document(
        &self,
        subject: Option<SubjectId>,
    ) -> Result<Option<Document>, DbError> {
        let column = subject.map(|s| self.dol.column(s));
        let keep = |code| column.as_ref().is_none_or(|c| c.check_code(code));
        Ok(self.store.to_document(&self.tags, &self.values, keep)?)
    }

    /// Executes `query` against the pages behind these mirrors — the one way
    /// the handle and its readers drive the engine. The plan and its
    /// lowering come from `caches` (fenced on these mirrors' tag space:
    /// `get_or_compile` re-lowers if tags grew since it was cached, and
    /// `execute_compiled_opts` falls back to an ephemeral recompile if this
    /// interner is older than the cached lowering); a deadline abort is
    /// counted there. Nothing is result-cached or epoch-pinned here.
    pub(crate) fn execute(
        &self,
        caches: &reader::QueryCaches,
        query: &str,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, DbError> {
        let (plan, compiled) = caches
            .plans()
            .get_or_compile(query, &self.tags)
            .map_err(QueryError::Parse)?;
        let exec = self
            .engine()
            .execute_compiled_opts(&plan, &compiled, security, opts);
        if let Err(QueryError::DeadlineExceeded(_)) = exec {
            caches.note_deadline_abort();
        }
        Ok(exec?)
    }
}

impl SecureXmlDb {
    /// Builds a database from XML text and an access oracle.
    pub fn from_xml(xml: &str, oracle: &impl AccessOracle) -> Result<Self, DbError> {
        Self::from_document(dol_xml::parse(xml)?, oracle)
    }

    /// Builds a database from a parsed document and an access oracle.
    pub fn from_document(doc: Document, oracle: &impl AccessOracle) -> Result<Self, DbError> {
        Self::with_config(doc, oracle, DbConfig::default())
    }

    /// Builds a database with explicit storage configuration.
    pub fn with_config(
        doc: Document,
        oracle: &impl AccessOracle,
        cfg: DbConfig,
    ) -> Result<Self, DbError> {
        Self::with_config_on(Arc::new(MemDisk::new()), doc, oracle, cfg)
    }

    /// Builds a database on an explicit disk — e.g. a
    /// [`dol_storage::FaultDisk`] for fault-injection testing.
    pub fn with_config_on(
        disk: Arc<dyn dol_storage::Disk>,
        document: Document,
        oracle: &impl AccessOracle,
        cfg: DbConfig,
    ) -> Result<Self, DbError> {
        let pool = Arc::new(BufferPool::new(disk, cfg.buffer_pool_pages));
        let store_cfg = StoreConfig {
            max_records_per_block: cfg.max_records_per_block,
        };
        let (store, dol) = EmbeddedDol::build(pool.clone(), store_cfg, &document, oracle)?;
        let mut values = ValueStore::new(pool.clone());
        for id in document.preorder() {
            if let Some(v) = &document.node(id).value {
                values.put(u64::from(id.0), v)?;
            }
        }
        let mirrors = MirrorSnapshot {
            index: Arc::new(NodeIndex::build(&store, &values)?),
            tags: Arc::new(document.tags().clone()),
            store: Arc::new(store),
            values: Arc::new(values),
            dol: Arc::new(dol),
            view: Arc::default(),
        };
        Ok(Self::assemble(mirrors, pool, cfg, false))
    }

    /// Wraps freshly built or loaded mirrors into a healthy handle at epoch
    /// 0, arming the version ring on `pool`.
    fn assemble(
        mirrors: MirrorSnapshot,
        pool: Arc<BufferPool>,
        cfg: DbConfig,
        persistent: bool,
    ) -> Self {
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), cfg.epoch_retain.max(1));
        Self {
            mirrors,
            pool,
            epoch,
            caches: Arc::new(reader::QueryCaches::default()),
            persistent,
            image_path: None,
            poisoned: AtomicBool::new(false),
            detached: AtomicBool::new(false),
            txn: None,
        }
    }

    /// Builds a **group-factored** database: `oracle` labels the document
    /// over the *physical* columns (groups plus directly-granted subjects),
    /// and `space` maps logical subjects onto those columns through the
    /// membership hierarchy. Per-subject rights are then derived — the OR of
    /// the subject's transitive group closure — so registering a millionth
    /// user is a membership-table edit, not a codebook rewrite.
    pub fn from_document_factored(
        doc: Document,
        oracle: &impl AccessOracle,
        space: dol_acl::GroupSpace,
    ) -> Result<Self, DbError> {
        let mut db = Self::from_document(doc, oracle)?;
        db.run_txn(move |db| {
            Arc::make_mut(&mut db.mirrors.dol)
                .codebook_mut()
                .attach_group_space(space);
            Ok(())
        })?;
        Ok(db)
    }

    /// Opens the handle's one update transaction for the driver `who`: the
    /// guards (no scope already open, handle not poisoned), the
    /// pre-transaction mirror snapshot, and the pool transaction — the only
    /// place any of the three happens.
    fn begin(&mut self, who: &str) -> Result<(), DbError> {
        if self.txn.is_some() {
            return Err(out_of_turn(format!("{who} inside an open transaction")));
        }
        if self.is_poisoned() {
            return Err(DbError::Poisoned);
        }
        self.pool.txn_begin()?;
        self.txn = Some(self.mirrors.clone());
        Ok(())
    }

    /// Closes the open scope, which holds `members` logical updates (the
    /// WAL batch record's count). On a persistent database the meta sections
    /// whose mirrors changed, and then the catalog, are rewritten inside the
    /// transaction, so a crash anywhere leaves the image in exactly the
    /// before- or after-state. Then the transaction **commits**
    /// (after-images to the write-ahead log before any data page) and the
    /// epoch is published; a failure poisons the handle.
    fn close(&mut self, members: u32) -> Result<(), DbError> {
        let logged = (|| -> Result<(), DbError> {
            if self.persistent {
                self.rewrite_meta()?;
            }
            self.pool.txn_commit(members)?;
            Ok(())
        })();
        match logged {
            Ok(()) => {
                self.txn = None;
                self.publish_epoch();
                Ok(())
            }
            Err(e) => {
                self.poison();
                Err(e)
            }
        }
    }

    /// The clean-abort path: pages back to their pre-images (unless the
    /// pool already rolled them back itself, as a failed commit does), mirrors back to the snapshot `begin` took. No epoch bump —
    /// the current epoch still describes the pages — and the handle stays
    /// healthy.
    fn abort(&mut self) {
        if self.pool.in_transaction() {
            self.pool.txn_rollback();
        }
        if let Some(before) = self.txn.take() {
            let aborted = std::mem::replace(&mut self.mirrors, before);
            // A reader taken inside the transaction may have cached answers
            // under the view stamps it issued; the restored codebook must
            // never issue them again.
            if !Arc::ptr_eq(&aborted.dol, &self.mirrors.dol) {
                Arc::make_mut(&mut self.mirrors.dol)
                    .codebook_mut()
                    .continue_clock(aborted.dol.codebook());
            }
        }
    }

    /// The poisoning path: a clean abort, then every further update is
    /// refused with [`DbError::Poisoned`] until
    /// [`recover`](Self::recover) or a reopen. The handle and its readers
    /// keep answering the (restored) pre-transaction state.
    fn poison(&mut self) {
        self.abort();
        self.poisoned.store(true, Ordering::Release);
    }

    /// Runs `f` in the handle's transaction: in the scope a driver already
    /// opened — **the** join rule, the only one — or else in a scope of its
    /// own, where an `Err` from `f` poisons the handle. Every update method
    /// runs its body through here.
    fn run_txn<R>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        if self.txn.is_some() {
            return f(self);
        }
        self.begin("update")?;
        match f(self) {
            Ok(r) => self.close(1).map(|()| r),
            Err(e) => {
                self.poison();
                Err(e)
            }
        }
    }

    /// Runs one update closure as one crash-consistent transaction — the
    /// public solo-commit path. The update methods `f` calls run their
    /// bodies inside this transaction: one write-ahead-log commit, one meta
    /// rewrite, one epoch for all of them.
    ///
    /// If `f` (or the commit) fails, the pages roll back to their
    /// pre-images, the in-memory mirrors are restored to match them, and
    /// the handle is **poisoned**: every further update fails with
    /// [`DbError::Poisoned`] until [`recover`](Self::recover) or a reopen
    /// (queries keep answering the pre-transaction state). `f` must
    /// propagate the errors of the update methods it calls — a swallowed
    /// one leaves that method's partial work in the transaction. Called
    /// from inside an open transaction, `f` simply joins it.
    pub fn run_update(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        self.run_txn(f)
    }

    /// Makes a committed transaction visible: the commit sealed a delta
    /// preserving the current epoch's pages, so pinned readers stay
    /// servable — the epoch is bumped only *after* success (SeqCst pairs
    /// with the readers' SeqCst loads). The result cache needs nothing: its
    /// keys carry view stamps, which the transaction moved for exactly the
    /// views it changed.
    fn publish_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Runs `members` as one **group commit**: the members execute in order
    /// inside a single transaction, so the whole batch reaches the
    /// write-ahead log as one WAL transaction and one sync — K updates, one
    /// fsync, and a power cut anywhere commits all of them or none.
    ///
    /// A batch backs out the one way a failed solo update does: when a
    /// member returns `Err`, the transaction is aborted (pages and mirrors
    /// back to the state before the batch), the error goes in that member's
    /// result slot, and the batch re-runs without it. A batch of K members
    /// therefore runs at most K + 1 times — which is why members are `Fn`.
    /// The survivors commit in one new epoch, and the WAL batch record
    /// counts only them; readers pinned to older retained epochs keep
    /// answering. A batch whose every member failed still commits
    /// (vacuously) and spends one epoch.
    ///
    /// The whole call returns `Err` in two cases only. The batch could not
    /// start: the handle is poisoned, or a transaction is open (a call from a member closure or a `run_update` closure is refused
    /// with a typed `Storage(Io(..))` error and that transaction is
    /// untouched). Or its commit failed, which poisons the handle exactly
    /// like a failed solo update.
    pub fn run_batch(&mut self, members: &[UpdateFn]) -> Result<Vec<Result<(), DbError>>, DbError> {
        if members.is_empty() {
            // Refused like any batch, but nothing to commit and no epoch to
            // spend on it.
            self.begin("run_batch")?;
            self.abort();
            return Ok(Vec::new());
        }
        let mut rejected: Vec<Option<DbError>> = members.iter().map(|_| None).collect();
        loop {
            self.begin("run_batch")?;
            let failed = members
                .iter()
                .enumerate()
                .filter(|(i, _)| rejected[*i].is_none())
                .find_map(|(i, member)| member(self).err().map(|e| (i, e)));
            let Some((i, e)) = failed else { break };
            self.abort();
            rejected[i] = Some(e);
        }
        let survivors = rejected.iter().filter(|r| r.is_none()).count();
        self.close(survivors as u32)?;
        Ok(rejected
            .into_iter()
            .map(|r| r.map_or(Ok(()), Err))
            .collect())
    }

    /// The oldest epoch the MVCC version ring still retains. A [`DbReader`]
    /// pinned below this floor gets [`DbError::RetentionExceeded`].
    pub fn retention_floor(&self) -> u64 {
        self.pool.ring_floor()
    }

    /// Whether a failed update (or a same-path [`save_to`](Self::save_to)
    /// compaction) has poisoned this handle; see [`DbError::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Repairs a poisoned handle **in process**, equivalent to dropping it
    /// and reopening the image — without losing the process, the pool, or
    /// the attached write-ahead log.
    ///
    /// * On a **persistent** database, every cached frame and any half-open
    ///   transaction state is discarded, the write-ahead log's committed
    ///   transactions are replayed onto the data disk (exactly what
    ///   [`open_on`](Self::open_on) does first), and all in-memory mirrors
    ///   — tag names, block store, value store, DOL, node index — are
    ///   rebuilt from the recovered pages.
    /// * On an **in-memory** database there is nothing to rebuild: the
    ///   failed transaction rolled its pages back to their pre-images and
    ///   restored the matching mirrors when it failed.
    ///
    /// Either way the state must pass
    /// [`verify_integrity`](Self::verify_integrity) before the poison latch
    /// is cleared; on failure the handle stays poisoned, the error is
    /// returned, and a later call may try again. Success bumps the update
    /// epoch and raises the version ring's barrier (outstanding readers
    /// fail [`DbError::RetentionExceeded`] and re-snapshot), moves every
    /// view stamp and drops all cached results, and resets the I/O circuit
    /// breaker.
    ///
    /// A handle *detached* by a same-path [`save_to`](Self::save_to)
    /// compaction cannot recover — the on-disk image no longer matches this
    /// pool's layout — and fails with [`DbError::Poisoned`]; reopen from
    /// the path instead. An un-poisoned handle recovers trivially: the call
    /// just resets the breaker and returns `Ok(None)`.
    pub fn recover(&mut self) -> Result<Option<RecoveryReport>, DbError> {
        if self.detached.load(Ordering::Acquire) {
            return Err(DbError::Poisoned);
        }
        if !self.is_poisoned() {
            self.pool.reset_breaker();
            return Ok(None);
        }
        let report = if self.persistent {
            // The cache may hold rolled-back frames or bytes that never
            // became durable (e.g. after a power cut): drop them all, then
            // redo the log's committed transactions onto the data disk and
            // reload the image exactly as a fresh open would.
            self.pool.discard_cache_and_txn();
            let wal = self.pool.wal().ok_or(DbError::Poisoned)?;
            let report = wal.recover_onto(self.pool.disk().as_ref())?;
            let prior = std::mem::replace(&mut self.mirrors, persist::load_image(&self.pool)?);
            // The reloaded codebook's stamps start at 0; continue the old
            // clock so none of the stamps results were filed under recurs.
            Arc::make_mut(&mut self.mirrors.dol)
                .codebook_mut()
                .continue_clock(prior.dol.codebook());
            Some(report)
        } else {
            // In-memory: the failed transaction already restored the page
            // pre-images and the mirrors that match them.
            None
        };
        // Never declare health unverified: the poison latch stays set if the
        // state is inconsistent (e.g. torn pages with no log to redo
        // from).
        self.verify_integrity()?;
        self.poisoned.store(false, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Recovery rewrote page provenance: collapse the version ring so
        // readers pinned to pre-recovery epochs are refused
        // (RetentionExceeded) instead of served reconstructed bytes.
        self.pool.ring_barrier();
        // Move every view: a result cached while the disk was failing may be
        // a fail-closed subset, and a reader that raced this recovery may
        // still file one under a pre-recovery stamp.
        Arc::make_mut(&mut self.mirrors.dol)
            .codebook_mut()
            .touch_all();
        // The touch already puts every cached result out of a new reader's
        // reach; the clear releases them now instead of leaving them to age
        // out of the LRU one insertion at a time.
        self.caches.invalidate_results();
        self.pool.reset_breaker();
        Ok(report)
    }

    /// Verifies the full embedded-DOL and block-store invariants:
    ///
    /// * the block store's structural integrity (directory vs. on-page
    ///   headers, transition tables, sizes and depths walked as a tree);
    /// * the logical DOL transition list is strictly document-ordered and
    ///   deduplicated — a node is flagged as a transition *iff* its code
    ///   differs from its document-order predecessor, and the first node is
    ///   always a transition;
    /// * every transition code is within the codebook's bounds;
    /// * each block header's first-code and change bit agree with the
    ///   records actually in the block;
    /// * on a persistent database outside an open transaction, the persisted
    ///   meta: the catalog names this store's structure chain, each meta
    ///   section reads back from the pool as exactly the bytes its live
    ///   mirror encodes to, and the section chains share no page with each
    ///   other, the catalog, the structure chain or the value log.
    ///
    /// Returns [`DbError::Integrity`] naming the first violation (for the
    /// meta, the section). The chaos soak and the crash sweeps run this
    /// after every in-process recovery.
    pub fn verify_integrity(&self) -> Result<(), DbError> {
        self.mirrors
            .store
            .check_integrity()
            .map_err(DbError::Integrity)?;
        let items = self
            .mirrors
            .store
            .read_block_range(0..self.mirrors.store.block_count())?;
        let codebook_len = self.mirrors.dol.codebook().len() as u32;
        let mut prev: Option<u32> = None;
        for (pos, item) in items.iter().enumerate() {
            if item.code >= codebook_len {
                return Err(DbError::Integrity(format!(
                    "node {pos}: access code {} out of codebook bounds ({codebook_len} entries)",
                    item.code
                )));
            }
            let expect_transition = prev != Some(item.code);
            if item.is_transition != expect_transition {
                return Err(DbError::Integrity(if item.is_transition {
                    format!(
                        "node {pos}: transition flagged but code {} unchanged",
                        item.code
                    )
                } else {
                    format!(
                        "node {pos}: code changed {:?} -> {} without a transition flag",
                        prev, item.code
                    )
                }));
            }
            prev = Some(item.code);
        }
        // Block headers against the records in each block.
        let mut pos = 0usize;
        for b in 0..self.mirrors.store.block_count() {
            let info = self.mirrors.store.block_info(b);
            let count = info.count as usize;
            let Some(first) = items.get(pos) else {
                return Err(DbError::Integrity(format!(
                    "block {b} starts past the item list"
                )));
            };
            if first.code != info.first_code {
                return Err(DbError::Integrity(format!(
                    "block {b}: header first_code {} but first record has code {}",
                    info.first_code, first.code
                )));
            }
            let change = items[pos + 1..pos + count].iter().any(|i| i.is_transition);
            if change != info.change {
                return Err(DbError::Integrity(format!(
                    "block {b}: change bit {} but in-block transitions {}",
                    info.change, change
                )));
            }
            pos += count;
        }
        // Mid-transaction the catalog still describes `before`.
        if self.persistent && self.txn.is_none() {
            persist::verify_meta(&self.pool, &self.mirrors)?;
        }
        Ok(())
    }

    /// Flushes all dirty pages and truncates the write-ahead log. A no-op
    /// fast path when no log is attached (in-memory databases).
    pub fn checkpoint(&self) -> Result<(), DbError> {
        Ok(self.pool.checkpoint()?)
    }

    /// Evaluates a twig query (see [`dol_nok::xpath`] for the syntax) under
    /// the given [`Security`] mode.
    ///
    /// Compiled plans are reused across calls, but *every* call executes
    /// against the pages — this path is deliberately not result-cached, so
    /// repeated queries observe storage-fault state changes exactly (the
    /// fail-closed tests and the experiment harness depend on that). The
    /// serving path with result caching is [`SecureXmlDb::reader`].
    pub fn query(&self, query: &str, security: Security) -> Result<QueryResult, DbError> {
        self.query_opts(query, security, ExecOptions::default())
    }

    /// [`query`](Self::query) with explicit [`ExecOptions`] — notably a
    /// [`Deadline`] (or [`CancelToken`]) for cooperative cancellation.
    /// An expired deadline aborts the query with
    /// [`DbError::DeadlineExceeded`] carrying the partial-work statistics;
    /// a partial answer is never returned, and the abort is counted in
    /// [`CacheStats::deadline_aborts`].
    pub fn query_opts(
        &self,
        query: &str,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, DbError> {
        self.mirrors.execute(&self.caches, query, security, opts)
    }

    /// A cheap snapshot handle for concurrent read-only serving: shares the
    /// store, indexes, and DOL by `Arc`, is stamped with the current update
    /// epoch, and serves queries through the plan and secure-result caches
    /// (a warm result hit does zero page I/O). A reader overtaken by
    /// updates keeps answering as of its own epoch for as long as the
    /// version ring retains it; past that it is refused with
    /// [`DbError::RetentionExceeded`] — take a fresh reader and retry.
    ///
    /// **Degraded mode:** a poisoned handle keeps serving readers. A failed
    /// update put the mirrors back to the pre-transaction state its
    /// rolled-back pages hold, so reads stay consistent while updates are
    /// refused, until [`recover`](Self::recover) or a reopen.
    pub fn reader(&self) -> DbReader {
        DbReader::new(self)
    }

    /// Whether `subject` may access the node at `pos`.
    pub fn accessible(&self, pos: u64, subject: SubjectId) -> Result<bool, DbError> {
        Ok(self
            .mirrors
            .dol
            .accessible(&self.mirrors.store, pos, subject)?)
    }

    /// Refuses with [`DbError::UnknownSubject`] any id in `ids` past the
    /// codebook's logical subjects — and, for a `grouped` operation, a
    /// database with no group space — before a transaction opens, so an
    /// unknown id never reaches a codebook table it would index past.
    fn check_subjects(&self, ids: &[SubjectId], grouped: bool) -> Result<(), DbError> {
        let codebook = self.mirrors.dol.codebook();
        if grouped && !codebook.is_factored() {
            return Err(DbError::UnknownSubject(None));
        }
        match ids
            .iter()
            .find(|s| s.index() >= codebook.logical_subjects())
        {
            Some(&s) => Err(DbError::UnknownSubject(Some(s))),
            None => Ok(()),
        }
    }

    /// Grants or revokes one subject's access to a single node (§3.4).
    pub fn set_node_access(
        &mut self,
        pos: u64,
        subject: SubjectId,
        allow: bool,
    ) -> Result<(), DbError> {
        if pos >= self.mirrors.store.total_nodes() {
            return Err(DbError::InvalidNode(pos));
        }
        self.check_subjects(&[subject], false)?;
        self.run_txn(|db| {
            let dol = Arc::make_mut(&mut db.mirrors.dol);
            let store = Arc::make_mut(&mut db.mirrors.store);
            Ok(dol.set_node(store, pos, subject, allow)?)
        })
    }

    /// Grants or revokes one subject's access to the whole subtree of the
    /// node at `pos` (§3.4 subtree update).
    pub fn set_subtree_access(
        &mut self,
        pos: u64,
        subject: SubjectId,
        allow: bool,
    ) -> Result<(), DbError> {
        if pos >= self.mirrors.store.total_nodes() {
            return Err(DbError::InvalidNode(pos));
        }
        self.check_subjects(&[subject], false)?;
        let end = self.subtree_end(pos)?;
        self.run_txn(|db| {
            let dol = Arc::make_mut(&mut db.mirrors.dol);
            let store = Arc::make_mut(&mut db.mirrors.store);
            Ok(dol.set_subtree(store, pos, end, subject, allow)?)
        })
    }

    /// Adds a subject, optionally copying an existing subject's rights — a
    /// pure codebook operation (§3.4).
    pub fn add_subject(&mut self, copy_from: Option<SubjectId>) -> Result<SubjectId, DbError> {
        self.check_subjects(copy_from.as_slice(), false)?;
        self.run_txn(|db| {
            Ok(Arc::make_mut(&mut db.mirrors.dol)
                .codebook_mut()
                .add_subject(copy_from))
        })
    }

    /// Removes a subject lazily (codebook-only; §3.4).
    pub fn remove_subject(&mut self, subject: SubjectId) -> Result<(), DbError> {
        self.check_subjects(&[subject], false)?;
        self.run_txn(|db| {
            Arc::make_mut(&mut db.mirrors.dol)
                .codebook_mut()
                .remove_subject(subject);
            Ok(())
        })
    }

    /// Performs the §3.4 lazy cleanup after subject removals: compacts the
    /// codebook and rewrites the embedded codes, as one transaction and one
    /// epoch. Subject ids shift in a flat codebook (removed columns
    /// disappear), so callers must re-derive ids; factored logical ids are
    /// stable. A codebook with no removed column and no duplicate entry has
    /// nothing to compact: the call opens no transaction.
    pub fn compact_subjects(&mut self) -> Result<(), DbError> {
        if self.mirrors.dol.codebook().is_compact() {
            return Ok(());
        }
        self.run_txn(|db| {
            let dol = Arc::make_mut(&mut db.mirrors.dol);
            let store = Arc::make_mut(&mut db.mirrors.store);
            Ok(dol.compact(store)?)
        })
    }

    /// Adds a logical subject with the given direct parent groups — a
    /// membership-table edit touching no codebook entry, O(1) regardless of
    /// codebook size. Requires a group-factored database
    /// (see [`from_document_factored`](SecureXmlDb::from_document_factored)).
    pub fn add_grouped_subject(&mut self, parents: &[SubjectId]) -> Result<SubjectId, DbError> {
        self.check_subjects(parents, true)?;
        self.run_txn(|db| {
            Ok(Arc::make_mut(&mut db.mirrors.dol)
                .codebook_mut()
                .add_grouped_subject(parents))
        })
    }

    /// Bulk [`add_grouped_subject`](SecureXmlDb::add_grouped_subject): adds
    /// `count` subjects with identical parent sets in **one** transaction
    /// (one WAL sync), returning the first new id — the ids are contiguous.
    pub fn add_grouped_subjects(
        &mut self,
        count: usize,
        parents: &[SubjectId],
    ) -> Result<SubjectId, DbError> {
        assert!(count > 0, "empty bulk add");
        self.check_subjects(parents, true)?;
        self.run_txn(|db| {
            let cb = Arc::make_mut(&mut db.mirrors.dol).codebook_mut();
            let first = cb.add_grouped_subject(parents);
            for _ in 1..count {
                cb.add_grouped_subject(parents);
            }
            Ok(first)
        })
    }

    /// Adds or removes one direct membership edge of a group-factored
    /// subject; its derived rights change live. Returns whether the edge
    /// actually changed.
    pub fn set_group_membership(
        &mut self,
        subject: SubjectId,
        group: SubjectId,
        member: bool,
    ) -> Result<bool, DbError> {
        self.check_subjects(&[subject, group], true)?;
        self.run_txn(|db| {
            Ok(Arc::make_mut(&mut db.mirrors.dol)
                .codebook_mut()
                .set_membership(subject, group, member))
        })
    }

    /// One past the last position of the subtree rooted at `pos`, its
    /// stored size checked against the store.
    fn subtree_end(&self, pos: u64) -> Result<u64, DbError> {
        let store = &self.mirrors.store;
        Ok(store.node(pos)?.subtree_end(pos, store.total_nodes())?)
    }

    /// Deletes the subtree rooted at `pos` (structural update, §3.4).
    pub fn delete_subtree(&mut self, pos: u64) -> Result<(), DbError> {
        if pos == 0 || pos >= self.mirrors.store.total_nodes() {
            return Err(DbError::InvalidNode(pos));
        }
        let size = self.subtree_end(pos)? - pos;
        self.run_txn(|db| {
            db.remove_subtree(pos, size)?;
            db.reindex()
        })
    }

    /// Inserts `subtree` as the last child of the node at `parent_pos`.
    /// The new nodes inherit the access-control code in effect at the
    /// insertion point's document-order predecessor; callers wanting
    /// explicit rights can follow up with
    /// [`set_subtree_access`](SecureXmlDb::set_subtree_access).
    pub fn insert_subtree(&mut self, parent_pos: u64, subtree: &Document) -> Result<u64, DbError> {
        if parent_pos >= self.mirrors.store.total_nodes() || subtree.is_empty() {
            return Err(DbError::InvalidNode(parent_pos));
        }
        self.run_txn(|db| {
            // Encode the subtree once, every node on the inherited code (the
            // first node's flag is `insert_run`'s to set, against its
            // predecessor) and its tags interned into the handle's names.
            let code = db.mirrors.store.code_at(db.subtree_end(parent_pos)? - 1)?;
            let tags = Arc::make_mut(&mut db.mirrors.tags);
            let mut values = Vec::new();
            let mut items = Vec::with_capacity(subtree.len());
            for id in subtree.preorder() {
                let n = subtree.node(id);
                values.extend(n.value.iter().map(|v| (u64::from(id.0), v.to_string())));
                items.push(BulkItem {
                    tag: tags.intern(subtree.tags().name(n.tag)),
                    size: n.size,
                    depth: n.depth,
                    has_value: n.value.is_some(),
                    code,
                    is_transition: false,
                });
            }
            let at = db.splice_subtree(parent_pos, items, &values)?;
            db.reindex()?;
            Ok(at)
        })
    }

    /// Moves the subtree rooted at `pos` to become the last child of the
    /// node at `new_parent_pos` (§3.4 "moving a node or a subtree"). The
    /// subtree keeps its access controls: its per-run codes travel with it.
    /// Returns the subtree root's new document position.
    pub fn move_subtree(&mut self, pos: u64, new_parent_pos: u64) -> Result<u64, DbError> {
        let total = self.mirrors.store.total_nodes();
        if pos == 0 || pos >= total || new_parent_pos >= total {
            return Err(DbError::InvalidNode(pos.max(new_parent_pos)));
        }
        let size = self.subtree_end(pos)? - pos;
        if new_parent_pos >= pos && new_parent_pos < pos + size {
            return Err(DbError::InvalidNode(new_parent_pos)); // own descendant
        }
        self.run_txn(|db| {
            // Capture the subtree from the store: its records (codes and
            // internal transition flags included) and its values.
            let store = &db.mirrors.store;
            let (first, last) = (store.block_of_pos(pos), store.block_of_pos(pos + size - 1));
            let from = (pos - store.block_info(first).first_pos) as usize;
            let items = store.read_block_range(first..last + 1)?;
            let items = items.into_iter().skip(from).take(size as usize).collect();
            let mut values = Vec::new();
            for off in 0..size {
                values.extend(db.mirrors.values.get(pos + off)?.map(|v| (off, v)));
            }
            db.remove_subtree(pos, size)?;
            // The new parent shifted if it lay after the removed range.
            let parent = if new_parent_pos >= pos + size {
                new_parent_pos - size
            } else {
                new_parent_pos
            };
            let at = db.splice_subtree(parent, items, &values)?;
            db.reindex()?;
            Ok(at)
        })
    }

    /// Removes the subtree `[pos, pos + size)` from the block store and the
    /// value store.
    fn remove_subtree(&mut self, pos: u64, size: u64) -> Result<(), DbError> {
        Arc::make_mut(&mut self.mirrors.store).delete_run(pos, pos + size)?;
        let values = Arc::make_mut(&mut self.mirrors.values);
        values.remove_range(pos, pos + size);
        values.shift_positions(pos + size, -(size as i64));
        Ok(())
    }

    /// Splices a subtree in as the last child of the node at `parent` —
    /// block store and value store — and returns its root's position.
    /// `items` are its records in preorder, codes and internal transition
    /// flags set (depths are rebased onto `parent`); `values` pairs a node's
    /// offset from the root with its value.
    fn splice_subtree(
        &mut self,
        parent: u64,
        mut items: Vec<BulkItem>,
        values: &[(u64, String)],
    ) -> Result<u64, DbError> {
        let store = Arc::make_mut(&mut self.mirrors.store);
        let parent_rec = store.node(parent)?;
        let at = parent + parent_rec.size as u64;
        let root_depth = items.first().map_or(0, |i| i.depth);
        for item in &mut items {
            item.depth = item.depth - root_depth + parent_rec.depth + 1;
        }
        let mut ancestors = store.ancestors_of(parent)?;
        ancestors.push(parent);
        store.insert_run(at, &ancestors, &items)?;
        let stored = Arc::make_mut(&mut self.mirrors.values);
        stored.shift_positions(at, items.len() as i64);
        for (off, v) in values {
            stored.put(at + off, v)?;
        }
        Ok(at)
    }

    /// What every structural update ends with: the node index rebuilt from
    /// the spliced store and values in one scan, the document view emptied,
    /// every view stamp moved (positions, tags and values changed under
    /// every subject).
    fn reindex(&mut self) -> Result<(), DbError> {
        self.mirrors.index = Arc::new(NodeIndex::build(&self.mirrors.store, &self.mirrors.values)?);
        self.mirrors.view = Arc::default();
        Arc::make_mut(&mut self.mirrors.dol)
            .codebook_mut()
            .touch_all();
        Ok(())
    }

    /// Exports the fragment of the document visible to `subject` as XML:
    /// subtrees rooted at inaccessible nodes are pruned entirely (the
    /// Gabillon–Bruno / dissemination semantics — a reader who cannot see an
    /// element cannot see its content). Returns `None` when the root itself
    /// is inaccessible. For filtering raw XML streams without a database,
    /// see [`dol_core::stream::secure_filter`].
    pub fn export_visible(&self, subject: SubjectId) -> Result<Option<String>, DbError> {
        Ok(self.mirrors.to_document(Some(subject))?.map(|d| d.to_xml()))
    }

    /// DOL storage statistics.
    pub fn dol_stats(&self) -> Result<DolStats, DbError> {
        Ok(self.mirrors.dol.stats(&self.mirrors.store)?)
    }

    /// Buffer-pool I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Installs the buffer pool's fault [`RetryPolicy`] (attempt budget,
    /// exponential backoff, circuit breaker). Resets the breaker.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.pool.set_retry_policy(policy);
    }

    /// The buffer pool's current fault [`RetryPolicy`].
    pub fn retry_policy(&self) -> RetryPolicy {
        self.pool.retry_policy()
    }

    /// Whether the I/O circuit breaker is open (reads and writes fail fast
    /// with [`dol_storage::StorageError::BreakerOpen`], except half-open
    /// probes). A tripped database still serves warm cached results through
    /// its readers; [`recover`](Self::recover) or
    /// [`reset_breaker`](Self::reset_breaker) closes it.
    pub fn breaker_is_open(&self) -> bool {
        self.pool.breaker_is_open()
    }

    /// Force-closes the I/O circuit breaker (e.g. after replacing a faulty
    /// disk or disarming fault injection).
    pub fn reset_breaker(&self) {
        self.pool.reset_breaker();
    }

    /// The current update epoch (starts at 0, bumped by every committed
    /// update transaction and by a successful recovery).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Hit/miss counters of the shared plan and secure-result caches.
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }

    /// Resets the I/O counters (e.g. between measured queries).
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats();
    }

    /// Drops every cached page from the buffer pool (flushing dirty ones)
    /// so subsequent reads are cold. Harnesses use this to measure or
    /// provoke physical I/O; dirty pages whose flush fails stay cached.
    pub fn drop_page_cache(&self) -> Result<(), DbError> {
        Ok(self.pool.clear_cache()?)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.mirrors.store.total_nodes() as usize
    }

    /// A database is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The document as a tree (tags, values, navigation): a view built from
    /// the block store, the value store and the tag names on first use, and
    /// again after a structural update. Panics if its pages cannot be read.
    pub fn document(&self) -> &Document {
        self.mirrors
            .view
            .get_or_init(|| match self.mirrors.to_document(None) {
                Ok(Some(doc)) => doc,
                other => panic!("document pages unreadable: {:?}", other.err()),
            })
    }

    /// The underlying block store.
    pub fn store(&self) -> &StructStore {
        &self.mirrors.store
    }

    /// The embedded DOL.
    pub fn dol(&self) -> &EmbeddedDol {
        &self.mirrors.dol
    }

    /// The value store.
    pub fn values(&self) -> &ValueStore {
        &self.mirrors.values
    }

    /// Fetches the value of the node at `pos`.
    pub fn value(&self, pos: u64) -> Result<Option<String>, DbError> {
        Ok(self.mirrors.values.get(pos)?)
    }
}

/// Combines per-mode oracles into a single oracle over `(mode, subject)`
/// columns, the paper's §2 recipe for multiple action modes: the combined
/// subject index of `(subject s, mode m)` is `m * S + s`.
pub struct ModalOracle<'a, O> {
    modes: Vec<&'a O>,
    subjects_per_mode: usize,
}

impl<'a, O: AccessOracle> ModalOracle<'a, O> {
    /// Wraps one oracle per mode (all with equal subject counts).
    pub fn new(modes: Vec<&'a O>) -> Self {
        assert!(!modes.is_empty());
        let subjects_per_mode = modes[0].subject_count();
        assert!(modes.iter().all(|o| o.subject_count() == subjects_per_mode));
        Self {
            modes,
            subjects_per_mode,
        }
    }

    /// The combined column index of `(subject, mode)`.
    pub fn column(&self, subject: SubjectId, mode: usize) -> SubjectId {
        SubjectId((mode * self.subjects_per_mode + subject.index()) as u32)
    }
}

impl<O: AccessOracle> AccessOracle for ModalOracle<'_, O> {
    fn subject_count(&self) -> usize {
        self.modes.len() * self.subjects_per_mode
    }

    fn acl_row(&self, node: NodeId, out: &mut BitVec) {
        out.resize(self.subject_count());
        out.fill(false);
        let mut tmp = BitVec::zeros(0);
        for (m, o) in self.modes.iter().enumerate() {
            o.acl_row(node, &mut tmp);
            for s in tmp.iter_ones() {
                out.set(m * self.subjects_per_mode + s, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::AccessibilityMap;

    /// The document of [`two_subject_db`]: a(0) b(1) c(2) d(3) e(4) f(5).
    const XML: &str = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";

    fn two_subject_db() -> (SecureXmlDb, AccessibilityMap) {
        let doc = dol_xml::parse(XML).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 3, 4, 5] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        (SecureXmlDb::from_document(doc, &map).unwrap(), map)
    }

    #[test]
    fn build_query_update_cycle() {
        let (mut db, _) = two_subject_db();
        assert_eq!(db.len(), 6);
        assert_eq!(
            db.query("//d/e", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![4]
        );
        assert_eq!(
            db.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
        // Grant subject 1 the subtree of b, re-query.
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        assert_eq!(
            db.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![2]
        );
        assert_eq!(db.value(2).unwrap().as_deref(), Some("v1"));
    }

    #[test]
    fn structural_updates_keep_everything_aligned() {
        let (mut db, _) = two_subject_db();
        // The model takes the same edits; the database must match it.
        let mut model = dol_xml::parse(XML).unwrap();
        // Delete subtree of b ([1,3)).
        db.delete_subtree(1).unwrap();
        model.delete_subtree(NodeId(1)).unwrap();
        assert_eq!(db.len(), 4);
        db.store().check_integrity().unwrap();
        assert_eq!(db.document().to_xml(), model.to_xml());
        // e moved from 4 to 2 and kept its value.
        assert_eq!(db.value(2).unwrap().as_deref(), Some("v2"));
        assert_eq!(db.query("//d/e", Security::None).unwrap().matches, vec![2]);
        // Insert a new subtree under d (now at position 1).
        let sub = dol_xml::parse("<g><h>v3</h></g>").unwrap();
        let at = db.insert_subtree(1, &sub).unwrap();
        model.insert_subtree(NodeId(1), None, &sub).unwrap();
        assert_eq!(db.len(), 6);
        db.store().check_integrity().unwrap();
        assert_eq!(db.value(at + 1).unwrap().as_deref(), Some("v3"));
        assert_eq!(
            db.query("//d/g/h", Security::None).unwrap().matches,
            vec![at + 1]
        );
        // Inherited accessibility: subject 1 could see d's area, so it sees g.
        assert!(db.accessible(at, SubjectId(1)).unwrap());

        // A random delete / insert / move sequence on both: after every step
        // the document is the model's, the live index is what a fresh open
        // of the saved image builds, and the Table-1 shapes (path, twig,
        // descendant join, value seed) answer as the reference evaluator
        // does on the model.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let image = std::env::temp_dir().join(format!("secure-xml-reindex-{}", std::process::id()));
        let grafts = ["<b><c>v1</c></b>", "<g><h>v3</h><e>v2</e></g>", "<f/>"];
        let mut answers = 0;
        for step in 0..40 {
            let n = db.len() as u64;
            match rng.gen_range(0..3) {
                0 if n > 12 => {
                    let pos = rng.gen_range(1..n);
                    db.delete_subtree(pos).unwrap();
                    model.delete_subtree(NodeId(pos as u32)).unwrap();
                }
                1 => {
                    // A move under the subtree's own descendant is refused
                    // by both, the database before anything is touched.
                    let (pos, parent) = (rng.gen_range(1..n), rng.gen_range(0..n));
                    let moved = db.move_subtree(pos, parent).ok();
                    let modelled = model.move_subtree(NodeId(pos as u32), NodeId(parent as u32));
                    assert_eq!(moved, modelled.ok().map(|id| u64::from(id.0)));
                }
                _ => {
                    let graft = dol_xml::parse(grafts[rng.gen_range(0..grafts.len())]).unwrap();
                    let parent = rng.gen_range(0..n);
                    let at = db.insert_subtree(parent, &graft).unwrap();
                    let modelled = model.insert_subtree(NodeId(parent as u32), None, &graft);
                    assert_eq!(modelled.unwrap(), NodeId(at as u32));
                }
            }
            db.verify_integrity().unwrap();
            assert_eq!(db.document().to_xml(), model.to_xml(), "step {step}");
            db.save_to(&image).unwrap();
            let reopened = SecureXmlDb::open_from(&image).unwrap();
            assert_eq!(db.mirrors.index, reopened.mirrors.index, "step {step}");
            for q in [
                "/a/d/e",
                "/a/d[e][f]",
                "//d//h",
                "//g//e",
                "//b/c[=\"v1\"]",
                "//g[h=\"v3\"]/e",
            ] {
                let pattern = dol_nok::parse_query(q).unwrap();
                let got = db.query(q, Security::None).unwrap().matches;
                assert_eq!(
                    got,
                    dol_nok::reference::naive_eval(
                        &model,
                        &pattern,
                        dol_nok::reference::RefSecurity::None
                    ),
                    "step {step}, query {q}"
                );
                answers += got.len();
            }
        }
        assert!(
            answers > 100,
            "the sequence must keep the queries non-trivial: {answers}"
        );
        let _ = std::fs::remove_file(&image);
        let _ = std::fs::remove_file(image.with_extension("wal"));
    }

    #[test]
    fn subject_lifecycle() {
        let (mut db, _) = two_subject_db();
        let s2 = db.add_subject(Some(SubjectId(1))).unwrap();
        assert!(db.accessible(4, s2).unwrap());
        assert!(!db.accessible(1, s2).unwrap());
        db.remove_subject(SubjectId(1)).unwrap();
        assert!(!db.accessible(4, SubjectId(1)).unwrap());
        // The copy is unaffected by removing the original.
        assert!(db.accessible(4, s2).unwrap());
    }

    /// With nothing to compact, `compact_subjects` opens no transaction: no
    /// epoch, no log record, no page write. A real compaction is one epoch.
    #[test]
    fn compact_subjects_spends_one_epoch_or_none() {
        let (built, _) = two_subject_db();
        let data = Arc::new(MemDisk::new());
        built.save_to_disk(data.clone()).unwrap();
        let mut db =
            SecureXmlDb::open_on(data, Arc::new(MemDisk::new()), DbConfig::default()).unwrap();
        let wal = db.store().pool().wal().unwrap();
        let (epoch, logged, io) = (db.epoch(), wal.stats().bytes_logged, db.io_stats());
        db.compact_subjects().unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.epoch(), epoch, "a no-op compaction spent an epoch");
        assert_eq!(wal.stats().bytes_logged, logged);
        assert_eq!(db.io_stats().since(&io).physical_writes, 0);

        let extra = db.add_subject(Some(SubjectId(1))).unwrap();
        db.remove_subject(extra).unwrap();
        assert!(!db.dol().codebook().is_compact());
        let epoch = db.epoch();
        db.compact_subjects().unwrap();
        assert_eq!(db.epoch(), epoch + 1);
        assert!(db.dol().codebook().is_compact());
        db.verify_integrity().unwrap();
    }

    #[test]
    fn move_subtree_carries_access_controls() {
        let (mut db, _) = two_subject_db();
        // Subject 1 sees {0,3,4,5}. Move b's subtree (denied to subject 1)
        // under d, in the database and in the model.
        let at = db.move_subtree(1, 3).unwrap();
        let mut model = dol_xml::parse(XML).unwrap();
        assert_eq!(
            model.move_subtree(NodeId(1), NodeId(3)).unwrap().0,
            at as u32
        );
        db.store().check_integrity().unwrap();
        assert_eq!(db.document().to_xml(), model.to_xml());
        assert_eq!(db.len(), 6);
        assert_eq!(model.name_of(NodeId(at as u32)), "b");
        // Subject 0 still sees everything.
        for p in 0..db.len() as u64 {
            assert!(db.accessible(p, SubjectId(0)).unwrap());
        }
        // Subject 1 still cannot see b or c at their new home.
        assert!(!db.accessible(at, SubjectId(1)).unwrap());
        assert!(!db.accessible(at + 1, SubjectId(1)).unwrap());
        // Values moved along, and queries see the new shape.
        assert_eq!(db.value(at + 1).unwrap().as_deref(), Some("v1"));
        assert_eq!(
            db.query("//d/b/c", Security::None).unwrap().matches,
            vec![at + 1]
        );
        // Moving a node under its own descendant is rejected.
        let d_pos = db.query("//d", Security::None).unwrap().matches[0];
        let b_pos = db.query("//b", Security::None).unwrap().matches[0];
        assert!(db.move_subtree(d_pos, b_pos).is_err());
    }

    #[test]
    fn export_visible_prunes_subtrees() {
        let (db, _) = two_subject_db();
        // Subject 0 sees everything.
        assert_eq!(
            db.export_visible(SubjectId(0)).unwrap().unwrap(),
            db.document().to_xml()
        );
        // Subject 1 sees {0, 3, 4, 5}: b's subtree is pruned.
        let out = db.export_visible(SubjectId(1)).unwrap().unwrap();
        assert_eq!(out, "<a><d><e>v2</e><f/></d></a>");
        // A subject with no rights sees nothing.
        let mut db2 = db;
        let blind = db2.add_subject(None).unwrap();
        assert_eq!(db2.export_visible(blind).unwrap(), None);
    }

    /// Everything a served handle does — queries, readers, ACL edits,
    /// subject and membership edits, compaction, structural updates,
    /// export, save and reopen — reads the store, the values and the tag
    /// names, and never builds the document view.
    #[test]
    fn the_served_path_never_builds_a_document() {
        let (_, map) = two_subject_db();
        let mut space = dol_acl::GroupSpace::new();
        let group = space.add_subject(&[]);
        space.bind_direct(group, 1);
        let user = space.add_subject(&[group]);
        let doc = dol_xml::parse(XML).unwrap();
        let built = SecureXmlDb::from_document_factored(doc, &map, space).unwrap();
        let data = Arc::new(MemDisk::new());
        built.save_to_disk(data.clone()).unwrap();
        let mut db =
            SecureXmlDb::open_on(data, Arc::new(MemDisk::new()), DbConfig::default()).unwrap();

        let sec = Security::BindingLevel(user);
        for s in [Security::None, sec, Security::SubtreeVisibility(user)] {
            db.query("//d/e", s).unwrap();
            db.reader().query("//d[e]", s).unwrap();
        }
        db.reader().accessible(4, user).unwrap();
        db.reader().value(4).unwrap();
        db.set_node_access(4, group, false).unwrap();
        db.set_subtree_access(3, group, true).unwrap();
        let other = db.add_grouped_subject(&[]).unwrap();
        db.set_group_membership(other, group, true).unwrap();
        let extra = db.add_subject(None).unwrap();
        db.remove_subject(extra).unwrap();
        db.compact_subjects().unwrap();
        let sub = dol_xml::parse("<g><h>v3</h></g>").unwrap();
        let at = db.insert_subtree(3, &sub).unwrap();
        db.move_subtree(at, 1).unwrap();
        db.delete_subtree(1).unwrap();
        db.export_visible(user).unwrap();
        db.verify_integrity().unwrap();
        let copy = Arc::new(MemDisk::new());
        db.save_to_disk(copy.clone()).unwrap();
        let back =
            SecureXmlDb::open_on(copy, Arc::new(MemDisk::new()), DbConfig::default()).unwrap();
        back.query("//d/e", sec).unwrap();

        assert!(db.mirrors.view.get().is_none(), "the handle built a view");
        assert!(back.mirrors.view.get().is_none(), "the reopen built a view");
        assert_eq!(back.document().to_xml(), db.document().to_xml());
    }

    /// A batch member that reads the view, edits the structure, reads the
    /// new view and fails leaves the view of the state before it; so does a
    /// poisoned transaction after `recover`.
    #[test]
    fn a_rollback_restores_the_matching_view() {
        let (mut db, _) = two_subject_db();
        let before = db.document().to_xml();
        let member: UpdateFn = Box::new(|db| {
            let old = db.document().to_xml();
            db.delete_subtree(1)?;
            assert_ne!(db.document().to_xml(), old);
            Err(DbError::InvalidNode(u64::MAX))
        });
        let results = db.run_batch(&[member]).unwrap();
        assert!(results[0].is_err());
        assert_eq!(db.document().to_xml(), before);

        let data = Arc::new(MemDisk::new());
        db.save_to_disk(data.clone()).unwrap();
        let mut live =
            SecureXmlDb::open_on(data, Arc::new(MemDisk::new()), DbConfig::default()).unwrap();
        let failed = live.run_update(|db| {
            db.document();
            db.move_subtree(1, 3)?;
            db.document();
            Err(DbError::InvalidNode(u64::MAX))
        });
        assert!(failed.is_err() && live.is_poisoned());
        assert_eq!(live.document().to_xml(), before);
        live.recover().unwrap();
        assert_eq!(live.document().to_xml(), before);
    }

    /// The six-node fixture, group-factored: group `g0` holds subject 0's
    /// column, `g1` subject 1's, and one user belongs to both.
    fn grouped_db() -> (SecureXmlDb, [SubjectId; 3]) {
        let (_, map) = two_subject_db();
        let mut space = dol_acl::GroupSpace::new();
        let g0 = space.add_subject(&[]);
        space.bind_direct(g0, 0);
        let g1 = space.add_subject(&[]);
        space.bind_direct(g1, 1);
        let user = space.add_subject(&[g0, g1]);
        let doc = dol_xml::parse(XML).unwrap();
        let db = SecureXmlDb::from_document_factored(doc, &map, space).unwrap();
        (db, [g0, g1, user])
    }

    /// A user's rights are its groups' rights as they stand now (§4): a
    /// revoke on a group, or a membership edit, changes what a user
    /// registered before it sees, and a user registered after it starts
    /// from the edited state.
    #[test]
    fn a_grouped_user_follows_its_groups_edits() {
        let (mut db, [g0, g1, user]) = grouped_db();
        let b = |db: &SecureXmlDb, s| db.query("//b", Security::BindingLevel(s)).unwrap().matches;
        assert_eq!(b(&db, user), vec![1]);
        // Neither group sees node 1 after this revoke, so neither does the
        // user.
        db.set_node_access(1, g0, false).unwrap();
        assert!(!db.accessible(1, g0).unwrap() && !db.accessible(1, g1).unwrap());
        assert!(!db.accessible(1, user).unwrap());
        assert!(b(&db, user).is_empty());
        let late = db.add_grouped_subject(&[g0, g1]).unwrap();
        for p in 0..db.len() as u64 {
            let expect = db.accessible(p, g0).unwrap() || db.accessible(p, g1).unwrap();
            assert_eq!(db.accessible(p, user).unwrap(), expect, "pos {p}");
            assert_eq!(db.accessible(p, late).unwrap(), expect, "pos {p}");
        }
        assert!(db.set_group_membership(late, g0, false).unwrap());
        assert!(!db.accessible(2, late).unwrap() && db.accessible(4, late).unwrap());
        assert!(db.accessible(2, user).unwrap());
    }

    /// An id the codebook does not know is refused with a typed
    /// `UnknownSubject` before a transaction opens: no epoch, no column,
    /// no subject, no poison.
    #[test]
    fn unknown_subjects_are_refused_before_a_transaction_opens() {
        let unknown = |r: Result<(), DbError>, id: Option<SubjectId>| match r {
            Err(DbError::UnknownSubject(got)) => assert_eq!(got, id),
            other => panic!("expected UnknownSubject({id:?}), got {other:?}"),
        };
        let untouched = |db: &SecureXmlDb, before: (usize, usize, u64)| {
            let cb = db.dol().codebook();
            assert_eq!((cb.width(), cb.logical_subjects(), db.epoch()), before);
            assert!(!db.is_poisoned());
        };
        let shape = |db: &SecureXmlDb| {
            let cb = db.dol().codebook();
            (cb.width(), cb.logical_subjects(), db.epoch())
        };

        let (mut flat, _) = two_subject_db();
        let before = shape(&flat);
        let s7 = Some(SubjectId(7));
        unknown(flat.set_node_access(1, SubjectId(7), false), s7);
        // A flat database has no group space to register a user in.
        unknown(flat.add_grouped_subject(&[SubjectId(0)]).map(drop), None);
        unknown(
            flat.set_group_membership(SubjectId(0), SubjectId(1), true)
                .map(drop),
            None,
        );
        untouched(&flat, before);

        let (mut db, [g0, _, user]) = grouped_db();
        let before = shape(&db);
        let s9 = Some(SubjectId(9));
        unknown(db.set_node_access(1, SubjectId(9), true), s9);
        unknown(db.add_grouped_subject(&[g0, SubjectId(9)]).map(drop), s9);
        unknown(
            db.set_group_membership(user, SubjectId(9), true).map(drop),
            s9,
        );
        unknown(
            db.set_group_membership(SubjectId(9), g0, true).map(drop),
            s9,
        );
        untouched(&db, before);
    }

    #[test]
    fn modal_oracle_combines_modes() {
        let doc = dol_xml::parse("<a><b/></a>").unwrap();
        let mut read = AccessibilityMap::new(2, doc.len());
        let mut write = AccessibilityMap::new(2, doc.len());
        read.set(SubjectId(0), NodeId(1), true);
        write.set(SubjectId(1), NodeId(1), true);
        let modal = ModalOracle::new(vec![&read, &write]);
        assert_eq!(modal.subject_count(), 4);
        let mut db = SecureXmlDb::from_document(doc, &modal).unwrap();
        // subject 0 can read b but not write it.
        assert!(db.accessible(1, modal.column(SubjectId(0), 0)).unwrap());
        assert!(!db.accessible(1, modal.column(SubjectId(0), 1)).unwrap());
        assert!(db.accessible(1, modal.column(SubjectId(1), 1)).unwrap());
        let reads = |db: &SecureXmlDb, s, m| {
            let sec = Security::BindingLevel(modal.column(SubjectId(s), m));
            db.query("//b", sec).unwrap().matches
        };
        assert_eq!(reads(&db, 0, 0), vec![1]);
        assert!(reads(&db, 0, 1).is_empty());
        // An edit on one mode's column leaves the other mode's alone.
        db.set_node_access(1, modal.column(SubjectId(1), 0), true)
            .unwrap();
        assert!(db.accessible(1, modal.column(SubjectId(1), 0)).unwrap());
        assert!(!db.accessible(1, modal.column(SubjectId(0), 1)).unwrap());
        assert_eq!(reads(&db, 1, 0), vec![1]);
    }

    #[test]
    fn dol_stats_exposed() {
        let (db, _) = two_subject_db();
        let s = db.dol_stats().unwrap();
        assert_eq!(s.total_nodes, 6);
        assert_eq!(s.subjects, 2);
        assert!(s.transitions >= 2);
    }

    #[test]
    fn verify_integrity_accepts_healthy_databases() {
        let (mut db, _) = two_subject_db();
        db.verify_integrity().unwrap();
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        db.delete_subtree(3).unwrap();
        let s2 = db.add_subject(Some(SubjectId(1))).unwrap();
        db.remove_subject(s2).unwrap();
        db.compact_subjects().unwrap();
        db.verify_integrity().unwrap();
    }

    fn faulty_two_subject_db() -> (SecureXmlDb, Arc<dol_storage::FaultDisk>) {
        let doc = dol_xml::parse(XML).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 3, 4, 5] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        let disk = Arc::new(dol_storage::FaultDisk::new(
            Arc::new(MemDisk::new()),
            dol_storage::FaultConfig {
                seed: 7,
                permanent_read_failure: 1.0,
                ..Default::default()
            },
        ));
        disk.set_armed(false);
        let db = SecureXmlDb::with_config_on(disk.clone(), doc, &map, DbConfig::default()).unwrap();
        (db, disk)
    }

    #[test]
    fn failed_update_poisons_then_degraded_reads_then_recover_heals() {
        let (mut db, disk) = faulty_two_subject_db();
        let sec = Security::BindingLevel(SubjectId(1));
        assert_eq!(db.query("//d/e", sec).unwrap().matches, vec![4]);

        // Arm: every cache-miss read fails permanently. The transaction's
        // codebook edit advances the in-memory mirrors, then its node edit
        // dies on the first page it reads: the handle is poisoned.
        db.pool.clear_cache().unwrap();
        disk.set_armed(true);
        let failed = db.run_update(|d| {
            d.remove_subject(SubjectId(1))?;
            d.set_node_access(4, SubjectId(1), false)
        });
        assert!(matches!(failed, Err(DbError::Storage(_))));
        assert!(db.is_poisoned());
        assert!(matches!(
            db.set_node_access(4, SubjectId(1), true),
            Err(DbError::Poisoned)
        ));
        assert_eq!(db.epoch(), 0, "a failed transaction publishes nothing");
        disk.set_armed(false);

        // Degraded mode: the handle and its readers all keep answering the
        // pre-transaction state — subject 1 still has its rights.
        assert_eq!(db.query("//d/e", sec).unwrap().matches, vec![4]);
        assert!(db.accessible(4, SubjectId(1)).unwrap());
        let degraded = db.reader();
        assert_eq!(degraded.query("//d/e", sec).unwrap().matches, vec![4]);

        // A recovery that cannot verify (the disk fails again underneath
        // it) leaves the handle poisoned and consumes nothing ...
        db.pool.clear_cache().unwrap();
        disk.set_armed(true);
        assert!(db.recover().is_err());
        assert!(db.is_poisoned());
        disk.set_armed(false);

        // ... so a second attempt restores the pre-transaction state,
        // verified.
        let report = db.recover().unwrap();
        assert!(report.is_none(), "in-memory recovery has no log to replay");
        assert!(!db.is_poisoned());
        db.verify_integrity().unwrap();
        assert_eq!(db.query("//d/e", sec).unwrap().matches, vec![4]);
        // The recovery epoch bump fences the degraded snapshot.
        assert!(degraded.is_stale());

        // The healed handle accepts updates again.
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        assert_eq!(db.query("//b/c", sec).unwrap().matches, vec![2]);
    }

    #[test]
    fn recover_on_a_healthy_handle_is_a_cheap_noop() {
        let (mut db, _) = two_subject_db();
        assert!(db.recover().unwrap().is_none());
        assert_eq!(db.epoch(), 0, "no-op recovery must not bump the epoch");
        db.set_node_access(4, SubjectId(1), false).unwrap();
        assert!(!db.accessible(4, SubjectId(1)).unwrap());
    }

    #[test]
    fn expired_deadline_surfaces_typed_error_and_is_counted() {
        let (db, _) = two_subject_db();
        let opts = ExecOptions {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..ExecOptions::default()
        };
        match db.query_opts("//d/e", Security::BindingLevel(SubjectId(1)), opts) {
            Err(DbError::DeadlineExceeded(stats)) => {
                assert_eq!(stats.blocks_failed_closed, 0, "not masked as inaccessible");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(db.cache_stats().deadline_aborts, 1);

        // A cancel token fired mid-flight behaves identically.
        let deadline = Deadline::never();
        deadline.token().cancel();
        let opts = ExecOptions {
            deadline,
            ..ExecOptions::default()
        };
        assert!(matches!(
            db.query_opts("//d/e", Security::None, opts),
            Err(DbError::DeadlineExceeded(_))
        ));
        assert_eq!(db.cache_stats().deadline_aborts, 2);

        // Without a deadline the same queries still answer.
        assert_eq!(
            db.query("//d/e", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![4]
        );
    }
}
