//! Snapshot readers: cheap, concurrently usable query handles over a
//! [`SecureXmlDb`], with plan and secure-result caching.
//!
//! A [`DbReader`] is a clone of the database's `Arc`-shared read-side state
//! (tag names, block-store mirror, value store, embedded DOL, tag and value
//! indexes) stamped with the **update epoch** at creation time.
//! Readers execute queries without taking the database handle at all, so any
//! number of them can run on separate threads while the owner keeps the
//! `&mut self` update API to itself.
//!
//! The buffer pool's **version ring** keeps the pre-images of the last
//! [`crate::DbConfig::epoch_retain`] committed epochs. Every query pins its
//! page reads to the reader's stamped epoch
//! ([`dol_storage::with_read_epoch`]), so a reader anywhere inside the
//! retention window keeps answering whole-epoch results — a concurrent
//! commit never turns it stale. Only a reader that outlives the window
//! fails, with the typed [`DbError::RetentionExceeded`] carrying the refresh
//! path; it is never served a wrong or torn answer.
//!
//! The window is torn-*set*, never torn-*page*: individual pages only change
//! under the buffer pool's exclusive latch, so a racing reader sees each
//! page whole — the end-of-query servability check exists because a query
//! spans many pages and two epochs' worth of them do not form a snapshot (it
//! only fires when the ring's floor advanced past the pin mid-query).
//!
//! Two caches ride along, shared by the database handle and every reader:
//!
//! * the **plan cache** interns `fnv1a(query) → parsed plan + compiled
//!   automaton` (epoch-independent: plans mention tags and axes, never
//!   data; the automaton is additionally fenced on the tag space it was
//!   lowered against);
//! * the **secure result cache** maps `(fnv1a(query), security mode, view
//!   stamp) → result`, and every entry carries the subject's closure — the
//!   physical columns whose OR is its view — which a hit must match exactly,
//!   as it must match the query string. The view stamp
//!   ([`dol_core::Codebook::view_stamp`]) moves whenever anything that
//!   closure can observe changes: an edit of one of its columns, or a
//!   structural update, a compaction or any other change that moves
//!   every view. So a hit is the answer at this snapshot, served with
//!   **zero page I/O** — not even a §3.3 header probe. An ACL commit on one
//!   subject moves only the views that include the edited column, and every
//!   other subject's entries stay warm across it; a membership edit moves
//!   no stamp but changes the member's closure. Readers pinned to older
//!   epochs key on their own snapshot's stamps, so they hit the entries of
//!   their own state. Stale entries age out through the LRU; evicting one
//!   never affects an answer.
//!
//! [`SecureXmlDb::query`] deliberately bypasses the result cache (the
//! fail-closed fault tests re-run identical queries expecting *different*
//! answers as disk faults arm and disarm); only readers serve cached
//! results. Both drive the engine through the same
//! `MirrorSnapshot::execute`.

use crate::{DbError, MirrorSnapshot, SecureXmlDb};
use dol_core::SubjectColumn;
use dol_nok::{fnv1a, ExecOptions, LruCache, PlanCache, QueryResult, Security};
use dol_storage::{with_read_epoch, IoStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Where a cached secure result is filed: the query text as its FNV-1a hash,
/// the security mode (subject and semantics), and the subject's view stamp
/// at the snapshot that computed it. The entry itself carries what the key
/// only hashes or implies — the full query string and the subject's
/// closure — and a hit must match both, so hash collisions are harmless and
/// lookups never clone a `String`.
type ResultKey = (u64, Security, u64);

/// A cached secure result together with the exact question it answers.
struct CachedResult {
    query: Box<str>,
    /// The physical columns whose OR was the subject's view (empty for
    /// [`Security::None`]). Equal stamps over different closures are
    /// different views: a subject moved from one group to another whose
    /// column stamps are equal must not be served the first group's answer.
    columns: Box<[u32]>,
    result: QueryResult,
    /// The matches as some front door sends them, encoded on the first
    /// [`DbReader::cached_encoded`] hit by that caller's encoder. Opaque
    /// here: the facade stores the bytes, it never reads them. They live and
    /// die with the entry, so whatever fences or evicts the result fences
    /// and evicts its encoding too.
    encoded: OnceLock<Arc<[u8]>>,
}

impl CachedResult {
    fn answers(&self, query: &str, columns: &[u32]) -> bool {
        &*self.query == query && &*self.columns == columns
    }
}

/// Plan- and result-cache capacities. The serve mix has a handful of hot
/// queries per subject; these bounds are generous for that shape while
/// keeping the O(n) LRU victim scans trivial.
const PLAN_CACHE_CAPACITY: usize = 64;
const RESULT_CACHE_CAPACITY: usize = 1024;

/// The caches shared between a [`SecureXmlDb`] and all its readers.
pub(crate) struct QueryCaches {
    plans: PlanCache,
    results: LruCache<ResultKey, Arc<CachedResult>>,
    /// Queries aborted by an expired [`dol_storage::Deadline`] or a fired
    /// [`dol_storage::CancelToken`], across the handle and all readers.
    deadline_aborts: AtomicU64,
}

impl Default for QueryCaches {
    fn default() -> Self {
        Self {
            plans: PlanCache::new(PLAN_CACHE_CAPACITY),
            results: LruCache::new(RESULT_CACHE_CAPACITY),
            deadline_aborts: AtomicU64::new(0),
        }
    }
}

impl QueryCaches {
    pub(crate) fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Drops every cached result. Called on [`SecureXmlDb::recover`].
    pub(crate) fn invalidate_results(&self) {
        self.results.clear();
    }

    pub(crate) fn note_deadline_abort(&self) {
        self.deadline_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            plan_hits: self.plans.hits(),
            plan_misses: self.plans.misses(),
            plan_compiles: self.plans.compiles(),
            result_hits: self.results.hits(),
            result_misses: self.results.misses(),
            deadline_aborts: self.deadline_aborts.load(Ordering::Relaxed),
        }
    }
}

/// Hit/miss counters of the shared plan and secure-result caches, plus the
/// deadline-abort count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries whose parsed plan was already cached.
    pub plan_hits: u64,
    /// Queries that had to be parsed and planned.
    pub plan_misses: u64,
    /// Query→automaton lowerings performed (first compilations plus
    /// tag-space recompilations); warm queries reuse the cached lowering.
    pub plan_compiles: u64,
    /// Reader queries answered from the result cache (zero page I/O).
    pub result_hits: u64,
    /// Reader queries that executed against the pages.
    pub result_misses: u64,
    /// Queries aborted with [`DbError::DeadlineExceeded`] (expired deadline
    /// or fired cancel token), across the handle and all readers.
    pub deadline_aborts: u64,
}

/// A snapshot read handle created by [`SecureXmlDb::reader`].
///
/// Cloning the handle is cheap (eight `Arc` bumps) and stamps nothing new:
/// clones share the original's epoch stamp. Readers are `Send`, so the
/// usual serving shape is one reader per client thread. A reader keeps
/// answering across concurrent updates for as long as the version ring
/// retains its epoch, and is re-created only on
/// [`DbError::RetentionExceeded`].
#[derive(Clone)]
pub struct DbReader {
    snap: MirrorSnapshot,
    epoch: Arc<AtomicU64>,
    caches: Arc<QueryCaches>,
    /// The update epoch this snapshot was taken at.
    seen: u64,
}

impl DbReader {
    /// A reader over `db`'s mirrors, stamped with the current epoch. On a
    /// poisoned database those are the pre-transaction mirrors the failed
    /// update restored, and no further update can commit, so a degraded
    /// snapshot stays fresh until [`SecureXmlDb::recover`] bumps the epoch
    /// — and raises the version ring's barrier — at which point it fails
    /// [`DbError::RetentionExceeded`] like any outlived reader.
    pub(crate) fn new(db: &SecureXmlDb) -> Self {
        Self {
            snap: db.mirrors.clone(),
            epoch: Arc::clone(&db.epoch),
            caches: Arc::clone(&db.caches),
            seen: db.epoch.load(Ordering::SeqCst),
        }
    }

    /// The update epoch this snapshot was stamped with.
    pub fn epoch(&self) -> u64 {
        self.seen
    }

    /// Whether an update has overtaken this snapshot. A stale reader keeps
    /// answering as of its pinned epoch for as long as the version ring
    /// retains it — staleness only means "a newer epoch exists", not
    /// "unservable".
    pub fn is_stale(&self) -> bool {
        self.epoch.load(Ordering::SeqCst) != self.seen
    }

    /// The gate every read path runs before and after touching pages. At the
    /// current epoch the snapshot is trivially servable. Behind it, the
    /// version ring decides: an epoch at or above the retention floor is
    /// served whole from the ring's pre-images ([`with_read_epoch`] pins the
    /// pool reads); one below it gets the typed [`DbError::RetentionExceeded`]
    /// with the refresh path.
    fn check_servable(&self) -> Result<(), DbError> {
        let now = self.epoch.load(Ordering::SeqCst);
        let pool = self.snap.store.pool();
        if now == self.seen || pool.epoch_servable(self.seen) {
            return Ok(());
        }
        Err(DbError::RetentionExceeded {
            seen: self.seen,
            oldest: pool.ring_floor(),
            now,
        })
    }

    /// The result-cache key of `query` under `security` in this snapshot,
    /// and the decoded column whose closure the entry must carry (`None`
    /// for [`Security::None`], whose closure is empty).
    fn result_key(
        &self,
        query: &str,
        security: Security,
    ) -> (ResultKey, Option<Arc<SubjectColumn>>) {
        let column = security.subject().map(|s| self.snap.dol.column(s));
        let stamp = self.snap.dol.codebook().view_stamp(closure(&column));
        ((fnv1a(query), security, stamp), column)
    }

    /// Evaluates a twig query under the given [`Security`] mode against this
    /// snapshot.
    ///
    /// A warm result-cache hit performs **zero page I/O** (the returned
    /// statistics report an all-zero [`IoStats`] and zero elapsed time for
    /// the call). On a miss the query executes normally and the result is
    /// cached — but only after a second servability check proves the whole
    /// execution was answerable as of this snapshot's epoch. The execution
    /// is pinned to that epoch (concurrent commits never tear or stale it);
    /// a result whose epoch fell out of the retention window mid-flight is
    /// discarded and reported as [`DbError::RetentionExceeded`].
    pub fn query(&self, query: &str, security: Security) -> Result<QueryResult, DbError> {
        self.query_opts(query, security, ExecOptions::default())
    }

    /// [`query`](Self::query) with explicit [`ExecOptions`] — notably a
    /// [`dol_storage::Deadline`] or [`dol_storage::CancelToken`] for
    /// cooperative cancellation. A warm result-cache hit is served
    /// regardless of the deadline (it costs no I/O); a miss that runs past
    /// the deadline aborts with [`DbError::DeadlineExceeded`] carrying the
    /// partial-work statistics, is counted in
    /// [`CacheStats::deadline_aborts`], and caches nothing.
    pub fn query_opts(
        &self,
        query: &str,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, DbError> {
        self.check_servable()?;
        let (key, column) = self.result_key(query, security);
        let columns = closure(&column);
        // A colliding entry misses, and the answer below overwrites it.
        if let Some(hit) = self.caches.results.get(&key, |e| e.answers(query, columns)) {
            let mut result = hit.result.clone();
            result.stats.io = IoStats::default();
            result.stats.elapsed = Duration::ZERO;
            return Ok(result);
        }
        // Pin every page read to this snapshot's epoch: the pool serves each
        // page as of `seen` even while commits land concurrently.
        let result = with_read_epoch(self.seen, || {
            self.snap.execute(&self.caches, query, security, opts)
        })?;
        // Cache (and return) only results that were servable end-to-end:
        // the retention floor never advanced past the pin mid-query (a
        // pinned read past the floor may have been served a live frame, so
        // the result is discarded unseen). This is the only place the query
        // string is cloned.
        self.check_servable()?;
        self.caches.results.insert(
            key,
            Arc::new(CachedResult {
                query: query.into(),
                columns: columns.into(),
                result: result.clone(),
                encoded: OnceLock::new(),
            }),
        );
        Ok(result)
    }

    /// The answer to `query` if — and only if — the secure result cache
    /// holds it for this snapshot, as the bytes `encode` makes of the
    /// matches. `encode` runs at most once per cached entry (the first hit);
    /// every later hit is one lookup and one refcount bump, and never
    /// touches the match list. A database has one front door, so one
    /// encoding: the first caller's encoder decides the bytes every later
    /// caller gets for that entry.
    ///
    /// `None` means "ask [`query_opts`](Self::query_opts)": the entry is
    /// absent, or this snapshot is not servable. A hit is counted in
    /// [`CacheStats::result_hits`]; a miss is not counted here, because the
    /// `query_opts` call it sends the caller to will count it.
    pub fn cached_encoded(
        &self,
        query: &str,
        security: Security,
        encode: impl FnOnce(&[u64]) -> Arc<[u8]>,
    ) -> Option<Arc<[u8]>> {
        self.check_servable().ok()?;
        let (key, column) = self.result_key(query, security);
        let columns = closure(&column);
        let hit = self
            .caches
            .results
            .probe(&key, |e| e.answers(query, columns))?;
        Some(Arc::clone(
            hit.encoded.get_or_init(|| encode(&hit.result.matches)),
        ))
    }

    /// [`query`](Self::query) with bounded automatic re-snapshotting: when
    /// the query fails [`DbError::RetentionExceeded`] (the snapshot outlived
    /// the version ring's retention window), `refresh` is called for a fresh
    /// reader — typically `|| db.reader()` through whatever latch guards the
    /// handle — which replaces `self`, and the query is retried, at most
    /// `max_retries` times. Every other outcome (including the final
    /// staleness failure) is returned as-is. A query is never shed by
    /// admission control — [`DbError::Overloaded`] belongs to update
    /// submission, and its submitter does the backing off — so there is
    /// nothing here to wait out.
    ///
    /// The staleness arm is a *fallback*, not the common path: inside the
    /// retention window plain [`query`](Self::query) never fails for
    /// snapshot-age reasons, so the refresh closure only runs for readers
    /// held across more committed epochs than the ring retains.
    pub fn query_with_retry<F>(
        &mut self,
        query: &str,
        security: Security,
        max_retries: u32,
        refresh: F,
    ) -> Result<QueryResult, DbError>
    where
        F: FnMut() -> DbReader,
    {
        self.query_with_retry_opts(
            query,
            security,
            ExecOptions::default(),
            max_retries,
            refresh,
        )
    }

    /// [`query_with_retry`](Self::query_with_retry) with explicit
    /// [`ExecOptions`]. `opts.deadline` bounds the whole loop: once it
    /// expires, the loop stops retrying and returns the last outcome as-is.
    pub fn query_with_retry_opts<F>(
        &mut self,
        query: &str,
        security: Security,
        opts: ExecOptions,
        max_retries: u32,
        mut refresh: F,
    ) -> Result<QueryResult, DbError>
    where
        F: FnMut() -> DbReader,
    {
        let mut retries = 0;
        loop {
            let outcome = self.query_opts(query, security, opts.clone());
            let stale = matches!(outcome, Err(DbError::RetentionExceeded { .. }));
            if !stale || retries == max_retries || opts.deadline.is_expired() {
                return outcome;
            }
            retries += 1;
            *self = refresh();
        }
    }

    /// Whether `subject` may access the node at `pos` in this snapshot.
    pub fn accessible(&self, pos: u64, subject: dol_acl::SubjectId) -> Result<bool, DbError> {
        self.check_servable()?;
        let ok = with_read_epoch(self.seen, || {
            self.snap.dol.accessible(&self.snap.store, pos, subject)
        })?;
        self.check_servable()?;
        Ok(ok)
    }

    /// Fetches the value of the node at `pos` in this snapshot.
    pub fn value(&self, pos: u64) -> Result<Option<String>, DbError> {
        self.check_servable()?;
        let v = with_read_epoch(self.seen, || self.snap.values.get(pos))?;
        self.check_servable()?;
        Ok(v)
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.snap.store.total_nodes() as usize
    }

    /// A snapshot is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Hit/miss counters of the shared caches (same counters as
    /// [`SecureXmlDb::cache_stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }
}

/// The closure a result-cache entry carries for `column`'s subject.
fn closure(column: &Option<Arc<SubjectColumn>>) -> &[u32] {
    column.as_deref().map_or(&[], SubjectColumn::columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::{AccessibilityMap, SubjectId};
    use dol_xml::NodeId;

    fn two_subject_db() -> SecureXmlDb {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 3, 4, 5] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        SecureXmlDb::from_document(doc, &map).unwrap()
    }

    #[test]
    fn warm_result_hit_does_zero_page_io() {
        let db = two_subject_db();
        let r = db.reader();
        let sec = Security::BindingLevel(SubjectId(0));
        let cold = r.query("//d/e", sec).unwrap();
        assert_eq!(cold.matches, vec![4]);
        assert!(
            cold.stats.io.logical_reads > 0,
            "cold query must touch pages"
        );

        let before = db.io_stats();
        let warm = r.query("//d/e", sec).unwrap();
        let delta = db.io_stats().since(&before);
        assert_eq!(warm.matches, cold.matches);
        assert_eq!(delta.logical_reads, 0, "warm hit must not read pages");
        assert_eq!(delta.physical_reads, 0);
        assert_eq!(warm.stats.io, IoStats::default());
        assert_eq!(r.cache_stats().result_hits, 1);
    }

    #[test]
    fn result_cache_is_keyed_by_security_mode() {
        let db = two_subject_db();
        let r = db.reader();
        // Same query, different subjects: subject 1 cannot see //b/c.
        let open = r
            .query("//b/c", Security::BindingLevel(SubjectId(0)))
            .unwrap();
        let shut = r
            .query("//b/c", Security::BindingLevel(SubjectId(1)))
            .unwrap();
        assert_eq!(open.matches, vec![2]);
        assert_eq!(shut.matches, Vec::<u64>::new());
        // Warm re-reads stay per-subject.
        assert_eq!(
            r.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
    }

    #[test]
    fn overtaken_reader_keeps_serving_its_pinned_epoch() {
        // An update does NOT evict the reader — it keeps answering as of
        // epoch 0 while a fresh reader sees the new epoch.
        let mut db = two_subject_db();
        let r = db.reader();
        assert_eq!(r.epoch(), 0);
        assert!(!r.is_stale());
        // Subject 1 cannot see //b/c at epoch 0.
        assert_eq!(
            r.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
        db.set_subtree_access(1, SubjectId(1), true).unwrap();
        assert!(r.is_stale(), "a newer epoch exists");
        // ... but the pinned reader still serves the epoch-0 answer.
        assert_eq!(
            r.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
        assert!(r.accessible(2, SubjectId(0)).unwrap());
        assert!(!r.accessible(2, SubjectId(1)).unwrap());
        // A fresh reader sees the update.
        let r2 = db.reader();
        assert_eq!(r2.epoch(), 1);
        assert_eq!(
            r2.query("//b/c", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![2]
        );
        // And the epoch-0 reader is *still* right afterwards.
        assert_eq!(
            r.query("//d/e", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            vec![4]
        );
    }

    #[test]
    fn epoch_retain_zero_is_served_as_one() {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let cfg = crate::DbConfig {
            epoch_retain: 0,
            ..crate::DbConfig::default()
        };
        let sec = Security::BindingLevel(SubjectId(1));
        let built = SecureXmlDb::with_config(doc, &map, cfg).unwrap();
        // The same config opens a persisted image.
        let data = Arc::new(dol_storage::MemDisk::new());
        built.save_to_disk(data.clone()).unwrap();
        let opened =
            SecureXmlDb::open_on(data, Arc::new(dol_storage::MemDisk::new()), cfg).unwrap();
        for mut db in [built, opened] {
            let r = db.reader();
            db.set_subtree_access(1, SubjectId(1), true).unwrap();
            // One epoch behind is inside the window of one.
            assert!(r.is_stale());
            assert_eq!(r.query("//b/c", sec).unwrap().matches, Vec::<u64>::new());
            assert_eq!(db.reader().query("//b/c", sec).unwrap().matches, vec![2]);
            // Two behind is not.
            db.set_subtree_access(1, SubjectId(1), false).unwrap();
            assert!(matches!(
                r.query("//b/c", sec),
                Err(DbError::RetentionExceeded {
                    seen: 0,
                    oldest: 1,
                    now: 2
                })
            ));
        }
    }

    #[test]
    fn reader_past_the_retention_window_gets_retention_exceeded() {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let cfg = crate::DbConfig {
            epoch_retain: 1,
            ..crate::DbConfig::default()
        };
        let mut db = SecureXmlDb::with_config(doc, &map, cfg).unwrap();
        let mut r = db.reader();
        // One commit behind: still inside the window (retain 1 keeps the
        // last two epochs servable).
        db.set_node_access(5, SubjectId(1), true).unwrap();
        assert!(r
            .query("//d/e", Security::BindingLevel(SubjectId(0)))
            .is_ok());
        // Two commits behind: epoch 0 fell below the floor.
        db.set_node_access(5, SubjectId(1), false).unwrap();
        match r.query("//d/e", Security::BindingLevel(SubjectId(0))) {
            Err(DbError::RetentionExceeded {
                seen: 0,
                oldest: 1,
                now: 2,
            }) => {}
            other => panic!("expected RetentionExceeded, got {other:?}"),
        }
        // accessible()/value() refuse identically — never a torn answer.
        assert!(matches!(
            r.accessible(2, SubjectId(0)),
            Err(DbError::RetentionExceeded { .. })
        ));
        assert!(matches!(r.value(2), Err(DbError::RetentionExceeded { .. })));
        // The loop is bounded: with no retries left, or past the deadline,
        // the refusal comes back as-is and `refresh` never runs.
        let sec = Security::BindingLevel(SubjectId(0));
        let never = || -> DbReader { panic!("refresh must not run") };
        assert!(matches!(
            r.query_with_retry("//d/e", sec, 0, never),
            Err(DbError::RetentionExceeded { .. })
        ));
        let expired = ExecOptions {
            deadline: crate::Deadline::after(Duration::ZERO),
            ..ExecOptions::default()
        };
        assert!(matches!(
            r.query_with_retry_opts("//d/e", sec, expired, 8, never),
            Err(DbError::RetentionExceeded { .. })
        ));
        // The refresh path: query_with_retry re-snapshots and succeeds.
        let got = r
            .query_with_retry("//d/e", Security::BindingLevel(SubjectId(0)), 1, || {
                db.reader()
            })
            .unwrap();
        assert_eq!(got.matches, vec![4]);
        assert_eq!(r.epoch(), 2);
    }

    #[test]
    fn an_unrelated_commit_keeps_warm_entries_warm() {
        let mut db = two_subject_db();
        let sec0 = Security::BindingLevel(SubjectId(0));
        let sec1 = Security::BindingLevel(SubjectId(1));
        let r0 = db.reader();
        for sec in [Security::None, sec0, sec1] {
            assert_eq!(r0.query("//d/e", sec).unwrap().matches, vec![4]);
        }
        // Revoke subject 1's access to e: no other view moves.
        db.set_node_access(4, SubjectId(1), false).unwrap();
        let r1 = db.reader();
        let before = db.cache_stats();
        let io = db.io_stats();
        for sec in [Security::None, sec0] {
            let warm = r1.query("//d/e", sec).unwrap();
            assert_eq!(warm.matches, vec![4]);
            assert_eq!(warm.stats.io, IoStats::default());
        }
        assert_eq!(db.cache_stats().result_hits, before.result_hits + 2);
        assert_eq!(db.io_stats().since(&io).logical_reads, 0);
        // The edited subject re-runs and sees the revocation ...
        assert_eq!(r1.query("//d/e", sec1).unwrap().matches, Vec::<u64>::new());
        assert_eq!(db.cache_stats().result_misses, before.result_misses + 1);
        // ... while the reader pinned before the commit hits its own answer.
        assert_eq!(r0.query("//d/e", sec1).unwrap().matches, vec![4]);
        assert_eq!(db.cache_stats().result_hits, before.result_hits + 3);
    }

    #[test]
    fn epoch_bump_invalidates_cached_results() {
        let mut db = two_subject_db();
        let sec = Security::BindingLevel(SubjectId(1));
        let r = db.reader();
        assert_eq!(r.query("//d/e", sec).unwrap().matches, vec![4]);
        // Revoke access to e; the old reader is stale, and a new reader
        // must re-execute (not serve the epoch-0 cached answer).
        db.set_node_access(4, SubjectId(1), false).unwrap();
        let r2 = db.reader();
        assert_eq!(r2.query("//d/e", sec).unwrap().matches, Vec::<u64>::new());
    }

    #[test]
    fn codebook_only_updates_also_fence_the_cache() {
        let mut db = two_subject_db();
        let r = db.reader();
        let _ = r
            .query("//d/e", Security::BindingLevel(SubjectId(1)))
            .unwrap();
        // add_subject is codebook-only but still bumps the epoch.
        let s2 = db.add_subject(Some(SubjectId(0))).unwrap();
        assert!(r.is_stale());
        let r2 = db.reader();
        assert_eq!(
            r2.query("//b/c", Security::BindingLevel(s2))
                .unwrap()
                .matches,
            vec![2]
        );
    }

    #[test]
    fn readers_share_the_plan_cache_with_the_handle() {
        let db = two_subject_db();
        let _ = db.query("//d/e", Security::None).unwrap();
        let r = db.reader();
        let _ = r.query("//d/e", Security::None).unwrap();
        let stats = db.cache_stats();
        assert_eq!(stats.plan_misses, 1, "one parse for both paths");
        assert_eq!(stats.plan_hits, 1);
    }

    #[test]
    fn cloned_readers_share_the_snapshot() {
        let db = two_subject_db();
        let r = db.reader();
        let r2 = r.clone();
        assert_eq!(r2.epoch(), r.epoch());
        assert_eq!(r2.len(), 6);
        assert_eq!(r2.value(2).unwrap().as_deref(), Some("v1"));
        assert!(r2.accessible(4, SubjectId(1)).unwrap());
    }
}
