//! `ShardedDb`: crash-consistent document shards with fault-isolated
//! scatter-gather.
//!
//! The DOL is document-ordered, so the natural scaling *and* fault-domain
//! boundary is a contiguous document-order range: each shard is a complete
//! [`SecureXmlDb`] — its own buffer pool, write-ahead log and embedded DOL —
//! holding a **replica of the document root** plus one contiguous group of
//! the root's child subtrees. Global position `0` is the root (replicated in
//! every shard as local position `0`, with its access code kept identical by
//! fanning every position-`0` ACL update to all shards); global position
//! `p ≥ 1` lives in exactly one shard `s` as local position `p − base_s + 1`.
//!
//! ## Crash-consistent cross-shard commit
//!
//! Updates that span shards (anything touching the replicated root) run a
//! two-phase commit over the per-shard WALs:
//!
//! 1. **Prepare** — each touched shard runs the update inside
//!    [`SecureXmlDb::run_prepared`]: the after-images are durable in that
//!    shard's log under a `Prepare` record carrying the global transaction
//!    id, but the transaction stays open and invisible (no dirty byte can
//!    reach the shard's data disk, and recovery presumes abort).
//! 2. **Decide** — one record `[gtid][epoch vector][crc]` is appended to the
//!    **shard catalog** and synced. That single append is the commit point
//!    for the whole distributed transaction: the catalog is the only
//!    decision authority, there is no per-shard decide record.
//! 3. **Finish** — each shard resolves its prepared transaction
//!    ([`SecureXmlDb::finish_prepared`]). A crash anywhere in this phase is
//!    harmless: reopening reads the catalog's committed gtids and replays
//!    decided prepares like commits (undecided ones roll back wholesale), so
//!    no power cut can leave one shard exposing the new epoch while another
//!    still serves the old one.
//!
//! ## Fault-isolated scatter-gather
//!
//! A twig query is parsed and classified **once**, then fanned out to the
//! shards on scoped threads and merged in document order. Because every
//! shard replicates the root, three exactness classes cover all patterns
//! (`§3.1`'s pattern-tree axes: child, descendant, following-sibling):
//!
//! * **Local** — the pattern root cannot bind the document root and no
//!   sibling step can cross a shard boundary: every match is confined to one
//!   shard, and the answer is the document-order concatenation of per-shard
//!   answers.
//! * **Root-decompose** — the pattern root *can* bind the document root.
//!   With the root bound, each child subtree of the pattern constrains the
//!   data independently, so the root-bound contribution decomposes into
//!   per-subtree **presence probes** (each answerable by any one shard) plus
//!   a per-shard union for the subtree holding the returning node.
//!   Non-anchored patterns add the union of non-root bindings, computed per
//!   shard as `full-pattern answer minus root-anchored answer`.
//! * **Global** — a following-sibling step could bind at depth 1, where
//!   siblings can straddle a shard boundary. The facade assembles the global
//!   document and accessibility map from the shards (cached per commit) and
//!   evaluates with the reference evaluator. Exact, but needs every shard.
//!
//! A shard whose handle is poisoned or whose I/O circuit breaker is open is
//! **quarantined**: a query that touches it fails whole with the typed
//! [`DbError::ShardUnavailable`] — never a silently-partial answer — while
//! queries provably confined to healthy shards (the §3.3 block-skip trick
//! one level up: a per-shard tag summary and per-subject any-access boundary
//! summary) still answer exactly. [`ShardedDb::recover_shard`] heals one
//! shard in process, concurrently with serving on the healthy shards.

use crate::{DbConfig, DbError, SecureXmlDb};
use dol_acl::{AccessOracle, AccessibilityMap, BitVec, SubjectId};
use dol_nok::reference::{naive_eval, RefSecurity};
use dol_nok::{
    parse_query, Axis, ExecStats, PNodeId, PatternTree, QueryPlan, QueryResult, Security,
};
use dol_storage::checksum::crc32c;
use dol_storage::{Disk, PageId, RecoveryReport, StorageError, PAGE_SIZE};
use dol_xml::{Document, NodeId};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// One shard's persistent substrate: its `(data, wal)` disk pair, as taken
/// by [`ShardedDb::build_on`] / [`ShardedDb::open_on`].
pub type DiskPair = (Arc<dyn Disk>, Arc<dyn Disk>);

// ---------------------------------------------------------------------------
// Lock helpers: a poisoned std lock only means a worker panicked mid-read;
// the protected state is guarded by the database's own poison latch, so
// propagating lock poison would turn one panic into a permanent outage.
// ---------------------------------------------------------------------------

fn rlock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn wlock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

fn mlock<T>(l: &Mutex<T>) -> MutexGuard<'_, T> {
    l.lock().unwrap_or_else(|e| e.into_inner())
}

fn io_err(msg: &str) -> DbError {
    DbError::Storage(StorageError::Io(std::io::Error::other(msg.to_string())))
}

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// The contiguous document-order split: shard `s` holds global positions
/// `[bases[s], bases[s] + lens[s])` plus the replicated root at global `0`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardLayout {
    bases: Vec<u64>,
    lens: Vec<u64>,
}

impl ShardLayout {
    fn from_groups(doc: &Document, groups: &[Vec<NodeId>]) -> Self {
        let mut bases = Vec::with_capacity(groups.len());
        let mut lens = Vec::with_capacity(groups.len());
        let mut base = 1u64;
        for group in groups {
            let len: u64 = group.iter().map(|&c| u64::from(doc.node(c).size)).sum();
            bases.push(base);
            lens.push(len);
            base += len;
        }
        Self { bases, lens }
    }

    fn shard_count(&self) -> usize {
        self.bases.len()
    }

    fn total(&self) -> u64 {
        1 + self.lens.iter().sum::<u64>()
    }

    /// The shard owning global position `pos ≥ 1`.
    fn shard_of(&self, pos: u64) -> usize {
        debug_assert!(pos >= 1 && pos < self.total());
        match self.bases.binary_search(&pos) {
            Ok(s) => s,
            Err(i) => i - 1,
        }
    }

    fn to_local(&self, shard: usize, pos: u64) -> u64 {
        if pos == 0 {
            0
        } else {
            pos - self.bases[shard] + 1
        }
    }

    fn to_global(&self, shard: usize, local: u64) -> u64 {
        if local == 0 {
            0
        } else {
            self.bases[shard] + local - 1
        }
    }
}

/// Splits the root's children into `shards` contiguous groups of roughly
/// equal subtree weight (every group non-empty; the count is clamped to the
/// number of children).
fn partition_children(doc: &Document, shards: usize) -> Result<Vec<Vec<NodeId>>, DbError> {
    let kids: Vec<NodeId> = doc.children(doc.root()).collect();
    if kids.is_empty() {
        return Err(DbError::InvalidNode(0));
    }
    let n = shards.clamp(1, kids.len());
    let mut groups: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    let mut remaining: u64 = kids.iter().map(|&c| u64::from(doc.node(c).size)).sum();
    let mut idx = 0usize;
    for s in 0..n {
        let left = n - s;
        if left == 1 {
            groups.push(kids[idx..].to_vec());
            break;
        }
        let target = remaining.div_ceil(left as u64);
        let mut group = vec![kids[idx]];
        let mut weight = u64::from(doc.node(kids[idx]).size);
        idx += 1;
        while weight < target && kids.len() - idx > left - 1 {
            group.push(kids[idx]);
            weight += u64::from(doc.node(kids[idx]).size);
            idx += 1;
        }
        remaining -= weight;
        groups.push(group);
    }
    Ok(groups)
}

/// Groups the root's children by explicit per-group counts (differential
/// tests drive arbitrary split boundaries through this).
fn groups_from_counts(doc: &Document, counts: &[usize]) -> Result<Vec<Vec<NodeId>>, DbError> {
    let kids: Vec<NodeId> = doc.children(doc.root()).collect();
    if counts.is_empty() || counts.contains(&0) || counts.iter().sum::<usize>() != kids.len() {
        return Err(DbError::InvalidNode(0));
    }
    let mut groups = Vec::with_capacity(counts.len());
    let mut idx = 0;
    for &c in counts {
        groups.push(kids[idx..idx + c].to_vec());
        idx += c;
    }
    Ok(groups)
}

/// Builds one shard's local document: a replica of the root (same tag and
/// value) holding the group's child subtrees.
fn shard_document(doc: &Document, group: &[NodeId]) -> Result<Document, DbError> {
    let root = doc.root();
    let mut b = Document::builder();
    b.open_valued(doc.name_of(root), doc.node(root).value.as_deref());
    b.close();
    let mut d = b.finish().map_err(|_| DbError::InvalidNode(0))?;
    for &c in group {
        let sub = doc.copy_subtree(c);
        d.insert_subtree(d.root(), None, &sub)
            .map_err(|_| DbError::InvalidNode(u64::from(c.0)))?;
    }
    Ok(d)
}

/// Maps a global access oracle into one shard's local position space.
struct ShardOracle<'a, O: AccessOracle + ?Sized> {
    inner: &'a O,
    base: u64,
}

impl<O: AccessOracle + ?Sized> AccessOracle for ShardOracle<'_, O> {
    fn subject_count(&self) -> usize {
        self.inner.subject_count()
    }

    fn acl_row(&self, node: NodeId, out: &mut BitVec) {
        let global = if node.0 == 0 {
            0
        } else {
            self.base + u64::from(node.0) - 1
        };
        self.inner.acl_row(NodeId(global as u32), out);
    }
}

// ---------------------------------------------------------------------------
// Boundary summaries (the §3.3 skip test one level up)
// ---------------------------------------------------------------------------

/// What a query needs from a shard, decidable without touching the shard's
/// pages: the set of element names present, and whether each subject can
/// access *any* non-root node. A quarantined shard that provably contributes
/// nothing (required tag absent, or the subject locked out of the whole
/// range) is skipped instead of refusing the query.
struct ShardSummary {
    tags: HashSet<String>,
    any_access: Vec<bool>,
    /// Cleared when a shard is poisoned mid-commit: the summary may describe
    /// the pre-commit state, so ACL-based skips are disabled (tag skips stay
    /// valid — the facade performs no structural updates).
    acl_valid: bool,
}

impl ShardSummary {
    fn compute(db: &SecureXmlDb) -> Self {
        let (names, index) = (&db.mirrors.tags, &db.mirrors.index);
        let present = names.iter().filter(|&(t, _)| !index.by_tag(t).is_empty());
        let tags: HashSet<String> = present.map(|(_, name)| name.to_string()).collect();
        let width = db.dol().codebook().width();
        let total = db.len() as u64;
        let mut any_access = vec![false; width];
        for (s, flag) in any_access.iter_mut().enumerate() {
            for p in 1..total {
                match db.accessible(p, SubjectId(s as u32)) {
                    Ok(true) | Err(_) => {
                        // An error is conservative: unknown access means the
                        // shard cannot be skipped on ACL grounds.
                        *flag = true;
                        break;
                    }
                    Ok(false) => {}
                }
            }
        }
        Self {
            tags,
            any_access,
            acl_valid: true,
        }
    }

    fn missing_tag(&self, required: &[&str]) -> bool {
        required.iter().any(|t| !self.tags.contains(*t))
    }

    /// Whether `subject` provably has no access to any non-root node of the
    /// shard. Valid only for match shapes that bind at least one non-root
    /// node in the shard (all the scatter paths below do).
    fn no_access(&self, subject: Option<SubjectId>) -> bool {
        match subject {
            Some(s) if self.acl_valid => self.any_access.get(s.index()).is_some_and(|b| !*b),
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Shard catalog: the 2PC decision authority
// ---------------------------------------------------------------------------

const CATALOG_MAGIC: u32 = 0x444F_4C53; // "DOLS"
const CATALOG_VERSION: u32 = 1;
/// Header prefix: magic, version, shard count, pad, total node count.
const CATALOG_HEADER_FIXED: usize = 4 + 4 + 4 + 4 + 8;

enum CatalogBackend {
    /// In-memory facade: the decision list lives in this struct only.
    Mem,
    /// Persistent facade: page 0 is the header (layout + CRC), records are
    /// appended densely from page 1. One synced record append *is* the
    /// distributed commit point.
    Disk(Arc<dyn Disk>),
}

struct ShardCatalog {
    backend: CatalogBackend,
    /// Committed global transaction ids, in commit order.
    decided: Vec<u64>,
    /// The current epoch vector: per-shard count of committed transactions
    /// that touched the shard.
    epochs: Vec<u64>,
    /// Byte offset of the next record, relative to the start of page 1.
    tail: u64,
}

impl ShardCatalog {
    fn record_len(shards: usize) -> usize {
        8 + 8 * shards + 4
    }

    fn mem(shards: usize) -> Self {
        Self {
            backend: CatalogBackend::Mem,
            decided: Vec::new(),
            epochs: vec![0; shards],
            tail: 0,
        }
    }

    /// Formats a fresh catalog: writes and syncs the header page.
    fn format(disk: Arc<dyn Disk>, layout: &ShardLayout) -> Result<Self, DbError> {
        let n = layout.shard_count();
        let header_len = CATALOG_HEADER_FIXED + 16 * n + 4;
        if header_len > PAGE_SIZE {
            return Err(io_err("shard count overflows the catalog header page"));
        }
        while disk.num_pages() < 1 {
            disk.allocate_page().map_err(DbError::Storage)?;
        }
        let mut pg = dol_storage::Page::zeroed();
        pg.put_u32(0, CATALOG_MAGIC);
        pg.put_u32(4, CATALOG_VERSION);
        pg.put_u32(8, n as u32);
        pg.put_u64(16, layout.total());
        let mut off = CATALOG_HEADER_FIXED;
        for s in 0..n {
            pg.put_u64(off, layout.bases[s]);
            pg.put_u64(off + 8, layout.lens[s]);
            off += 16;
        }
        let crc = crc32c(&pg.bytes()[..off]);
        pg.put_u32(off, crc);
        disk.write_page(PageId(0), &pg).map_err(DbError::Storage)?;
        disk.sync().map_err(DbError::Storage)?;
        Ok(Self {
            backend: CatalogBackend::Disk(disk),
            decided: Vec::new(),
            epochs: vec![0; n],
            tail: 0,
        })
    }

    /// Opens an existing catalog: verifies the header, then scans records
    /// until the first torn or absent one (a torn tail is an uncommitted
    /// transaction — presumed abort).
    fn open(disk: Arc<dyn Disk>) -> Result<(Self, ShardLayout), DbError> {
        if disk.num_pages() < 1 {
            return Err(DbError::Integrity(
                "shard catalog has no header page".into(),
            ));
        }
        let mut pg = dol_storage::Page::zeroed();
        disk.read_page(PageId(0), &mut pg)
            .map_err(DbError::Storage)?;
        if pg.get_u32(0) != CATALOG_MAGIC || pg.get_u32(4) != CATALOG_VERSION {
            return Err(DbError::Integrity(
                "shard catalog header magic/version mismatch".into(),
            ));
        }
        let n = pg.get_u32(8) as usize;
        let header_len = CATALOG_HEADER_FIXED + 16 * n + 4;
        if n == 0 || header_len > PAGE_SIZE {
            return Err(DbError::Integrity(
                "shard catalog shard count invalid".into(),
            ));
        }
        let crc_off = CATALOG_HEADER_FIXED + 16 * n;
        if crc32c(&pg.bytes()[..crc_off]) != pg.get_u32(crc_off) {
            return Err(DbError::Integrity(
                "shard catalog header CRC mismatch".into(),
            ));
        }
        let total = pg.get_u64(16);
        let mut bases = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        let mut off = CATALOG_HEADER_FIXED;
        for _ in 0..n {
            bases.push(pg.get_u64(off));
            lens.push(pg.get_u64(off + 8));
            off += 16;
        }
        let layout = ShardLayout { bases, lens };
        if layout.total() != total {
            return Err(DbError::Integrity(
                "shard catalog layout inconsistent".into(),
            ));
        }

        let rec_len = Self::record_len(n);
        let mut decided = Vec::new();
        let mut epochs = vec![0u64; n];
        let mut tail = 0u64;
        let mut rec = vec![0u8; rec_len];
        loop {
            Self::read_bytes(disk.as_ref(), tail, &mut rec)?;
            let gtid = u64::from_le_bytes(rec[..8].try_into().unwrap_or_default());
            if gtid == 0 {
                break;
            }
            let crc = u32::from_le_bytes(rec[rec_len - 4..].try_into().unwrap_or_default());
            if crc32c(&rec[..rec_len - 4]) != crc {
                // Torn append: the transaction never committed.
                break;
            }
            for (s, e) in epochs.iter_mut().enumerate() {
                *e = u64::from_le_bytes(rec[8 + 8 * s..16 + 8 * s].try_into().unwrap_or_default());
            }
            decided.push(gtid);
            tail += rec_len as u64;
        }
        Ok((
            Self {
                backend: CatalogBackend::Disk(disk),
                decided,
                epochs,
                tail,
            },
            layout,
        ))
    }

    /// Appends one commit record and syncs: the distributed commit point.
    ///
    /// On a reported failure the record's durability is *unknown* (a failed
    /// `sync` may follow fully-landed writes), and what a reboot would read
    /// is the only truth — so the slot is read back and CRC-verified: a
    /// verifiably durable record commits despite the error, anything else
    /// aborts. On abort the tail does **not** advance — the next append
    /// overwrites the torn bytes, and the reopen scan stops at the CRC
    /// mismatch either way.
    fn append(&mut self, gtid: u64, new_epochs: &[u64]) -> Result<(), DbError> {
        debug_assert!(gtid != 0);
        if let CatalogBackend::Disk(disk) = &self.backend {
            let rec_len = Self::record_len(new_epochs.len());
            let mut rec = Vec::with_capacity(rec_len);
            rec.extend_from_slice(&gtid.to_le_bytes());
            for e in new_epochs {
                rec.extend_from_slice(&e.to_le_bytes());
            }
            let crc = crc32c(&rec);
            rec.extend_from_slice(&crc.to_le_bytes());
            let outcome = Self::write_bytes(disk.as_ref(), self.tail, &rec)
                .and_then(|()| disk.sync().map_err(DbError::Storage));
            if let Err(e) = outcome {
                let mut back = vec![0u8; rec_len];
                let durable =
                    Self::read_bytes(disk.as_ref(), self.tail, &mut back).is_ok() && back == rec;
                if !durable {
                    return Err(e);
                }
                // The decision landed; fall through and commit in-process
                // so this instance agrees with what recovery would decide.
            }
            self.tail += rec_len as u64;
        } else {
            self.tail += Self::record_len(new_epochs.len()) as u64;
        }
        self.decided.push(gtid);
        self.epochs = new_epochs.to_vec();
        Ok(())
    }

    /// Reads `buf.len()` bytes at record-area offset `off` (page 1 onward);
    /// unallocated pages read as zeros.
    fn read_bytes(disk: &dyn Disk, off: u64, buf: &mut [u8]) -> Result<(), DbError> {
        let mut pg = dol_storage::Page::zeroed();
        let mut done = 0usize;
        while done < buf.len() {
            let abs = PAGE_SIZE as u64 + off + done as u64;
            let page = (abs / PAGE_SIZE as u64) as u32;
            let within = (abs % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - within).min(buf.len() - done);
            if page < disk.num_pages() {
                disk.read_page(PageId(page), &mut pg)
                    .map_err(DbError::Storage)?;
                buf[done..done + take].copy_from_slice(&pg.bytes()[within..within + take]);
            } else {
                buf[done..done + take].fill(0);
            }
            done += take;
        }
        Ok(())
    }

    /// Read-modify-writes `bytes` at record-area offset `off`, allocating
    /// pages as needed. Records only ever extend previously synced bytes, so
    /// a torn (sector-prefix) rewrite of the tail page can damage the new
    /// record but never a committed one.
    fn write_bytes(disk: &dyn Disk, off: u64, bytes: &[u8]) -> Result<(), DbError> {
        let mut pg = dol_storage::Page::zeroed();
        let mut done = 0usize;
        while done < bytes.len() {
            let abs = PAGE_SIZE as u64 + off + done as u64;
            let page = (abs / PAGE_SIZE as u64) as u32;
            let within = (abs % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - within).min(bytes.len() - done);
            while disk.num_pages() <= page {
                disk.allocate_page().map_err(DbError::Storage)?;
            }
            disk.read_page(PageId(page), &mut pg)
                .map_err(DbError::Storage)?;
            pg.bytes_mut()[within..within + take].copy_from_slice(&bytes[done..done + take]);
            disk.write_page(PageId(page), &pg)
                .map_err(DbError::Storage)?;
            done += take;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Status & statistics
// ---------------------------------------------------------------------------

/// Whether a shard is serving or quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving queries and accepting prepares.
    Healthy,
    /// Poisoned handle or open circuit breaker: queries touching the shard
    /// are refused with [`DbError::ShardUnavailable`] until
    /// [`ShardedDb::recover_shard`] heals it.
    Quarantined,
}

/// One shard's row in [`ShardedDb::status`] (the bench result tables print
/// these as per-shard columns).
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// First global position of the shard's range.
    pub base: u64,
    /// Number of nodes in the range (excluding the replicated root).
    pub len: u64,
    /// Health classification (quarantined iff poisoned or breaker open).
    pub health: ShardHealth,
    /// Whether the shard handle is poisoned.
    pub poisoned: bool,
    /// Whether the shard's I/O circuit breaker is open.
    pub breaker_open: bool,
    /// The catalog epoch-vector entry: committed transactions that touched
    /// this shard.
    pub epoch: u64,
}

/// Facade-level counters (monotonic snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Queries answered (all classes).
    pub queries: u64,
    /// Queries answered by per-shard union (class *Local*).
    pub local_fanouts: u64,
    /// Queries answered by root decomposition (class *Root-decompose*).
    pub root_decompositions: u64,
    /// Queries answered on the assembled global document (class *Global*).
    pub global_fallbacks: u64,
    /// Shard visits avoided by the boundary tag/ACL summaries.
    pub shards_skipped: u64,
    /// Queries or updates refused whole with [`DbError::ShardUnavailable`].
    pub refusals: u64,
    /// Distributed transactions committed (catalog records appended).
    pub commits: u64,
    /// Distributed transactions aborted before the decision point.
    pub aborts: u64,
    /// Shards quarantined by a failed commit finish.
    pub quarantines: u64,
    /// Successful [`ShardedDb::recover_shard`] calls.
    pub recoveries: u64,
}

#[derive(Default)]
struct StatsInner {
    queries: AtomicU64,
    local_fanouts: AtomicU64,
    root_decompositions: AtomicU64,
    global_fallbacks: AtomicU64,
    shards_skipped: AtomicU64,
    refusals: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    quarantines: AtomicU64,
    recoveries: AtomicU64,
}

impl StatsInner {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ShardedStats {
        ShardedStats {
            queries: self.queries.load(Ordering::Relaxed),
            local_fanouts: self.local_fanouts.load(Ordering::Relaxed),
            root_decompositions: self.root_decompositions.load(Ordering::Relaxed),
            global_fallbacks: self.global_fallbacks.load(Ordering::Relaxed),
            shards_skipped: self.shards_skipped.load(Ordering::Relaxed),
            refusals: self.refusals.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Pattern analysis
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryClass {
    Local,
    RootDecompose,
    Global,
}

fn subject_of(security: Security) -> Option<SubjectId> {
    match security {
        Security::None => None,
        Security::BindingLevel(s) | Security::SubtreeVisibility(s) => Some(s),
    }
}

fn required_tags(pat: &PatternTree) -> Vec<&str> {
    pat.iter()
        .filter_map(|p| pat.node(p).tag.as_deref())
        .collect()
}

/// Whether pattern node `p` can bind a depth-1 node (a child of the
/// document root). Depth-1 nodes are the only place a following-sibling
/// step can cross a shard boundary.
fn depth1_capable(pat: &PatternTree, p: PNodeId, root_comp: bool) -> bool {
    let n = pat.node(p);
    match n.parent {
        // A non-anchored pattern root binds anywhere, including depth 1.
        None => !pat.anchored(),
        Some(q) => match n.axis {
            // A child or descendant binds depth 1 only under a depth-0
            // binding, and only the pattern root can bind the document root.
            Axis::Child | Axis::Descendant => q == pat.root() && root_comp,
            Axis::FollowingSibling => depth1_capable(pat, q, root_comp),
        },
    }
}

/// Whether any following-sibling step can bind at depth 1 — the only way a
/// single match can span two shards below the root.
fn sibling_hazard(pat: &PatternTree, root_comp: bool) -> bool {
    pat.iter().any(|p| {
        pat.node(p).axis == Axis::FollowingSibling
            && pat
                .node(p)
                .parent
                .is_some_and(|q| depth1_capable(pat, q, root_comp))
    })
}

/// Whether `id` lies in the pattern subtree rooted at `top`.
fn in_subtree(pat: &PatternTree, top: PNodeId, id: PNodeId) -> bool {
    let mut cur = Some(id);
    while let Some(c) = cur {
        if c == top {
            return true;
        }
        cur = pat.node(c).parent;
    }
    false
}

/// Rebuilds the pattern **anchored at the document root**, keeping only the
/// root-child subtrees in `keep` (in pattern order). `returning` must be the
/// original root or live inside a kept subtree; `None` leaves the new root
/// as the returning node (a presence probe).
fn subpattern(pat: &PatternTree, keep: &[PNodeId], returning: Option<PNodeId>) -> PatternTree {
    let root = pat.root();
    let rn = pat.node(root);
    let mut out = PatternTree::new(rn.tag.as_deref(), true);
    if let Some(v) = &rn.value {
        out.set_value(out.root(), v);
    }
    let mut map: HashMap<PNodeId, PNodeId> = HashMap::new();
    map.insert(root, out.root());
    // Depth-first copy preserving child order within each kept subtree.
    let mut stack: Vec<PNodeId> = keep.iter().rev().copied().collect();
    while let Some(old) = stack.pop() {
        let n = pat.node(old);
        let parent = n.parent.and_then(|p| map.get(&p).copied());
        if let Some(parent) = parent {
            let new = out.add_child(parent, n.axis, n.tag.as_deref());
            if let Some(v) = &n.value {
                out.set_value(new, v);
            }
            map.insert(old, new);
            for &c in n.children.iter().rev() {
                stack.push(c);
            }
        }
    }
    if let Some(r) = returning {
        if let Some(&new) = map.get(&r) {
            out.set_returning(new);
        }
    }
    out
}

/// Evaluates a pattern tree directly against one shard (probes bypass the
/// string-keyed plan cache; shard-local full-query evaluation goes through
/// [`SecureXmlDb::query`] and shares its caches).
fn eval_pattern(
    db: &SecureXmlDb,
    pat: &PatternTree,
    security: Security,
) -> Result<QueryResult, DbError> {
    let plan = QueryPlan::new(pat.clone());
    Ok(db.mirrors.engine().execute_plan(&plan, security)?)
}

fn fold_stats(acc: &mut ExecStats, s: &ExecStats) {
    acc.candidates += s.candidates;
    acc.nodes_visited += s.nodes_visited;
    acc.nodes_denied += s.nodes_denied;
    acc.blocks_skipped += s.blocks_skipped;
    acc.candidates_examined += s.candidates_examined;
    acc.join_pairs += s.join_pairs;
    acc.visibility_nodes += s.visibility_nodes;
    acc.blocks_failed_closed += s.blocks_failed_closed;
    let io = &mut acc.io;
    let o = &s.io;
    io.logical_reads += o.logical_reads;
    io.physical_reads += o.physical_reads;
    io.physical_writes += o.physical_writes;
    io.evictions += o.evictions;
    io.pages_skipped += o.pages_skipped;
    io.read_retries += o.read_retries;
    io.write_retries += o.write_retries;
    io.checksum_failures += o.checksum_failures;
    io.read_shared += o.read_shared;
    io.read_exclusive_fallback += o.read_exclusive_fallback;
    io.backoffs += o.backoffs;
    io.breaker_trips += o.breaker_trips;
    io.breaker_fast_fails += o.breaker_fast_fails;
    io.breaker_probes += o.breaker_probes;
    io.versioned_reads += o.versioned_reads;
}

// ---------------------------------------------------------------------------
// ShardedDb
// ---------------------------------------------------------------------------

struct ShardSlot {
    db: RwLock<SecureXmlDb>,
    summary: RwLock<ShardSummary>,
}

struct GlobalSnapshot {
    seq: u64,
    doc: Arc<Document>,
    map: Arc<AccessibilityMap>,
}

/// A facade over N [`SecureXmlDb`] shards split on contiguous document-order
/// ranges: crash-consistent cross-shard commit through a shard catalog, and
/// fault-isolated scatter-gather queries. See the [module docs](self).
pub struct ShardedDb {
    slots: Vec<ShardSlot>,
    layout: ShardLayout,
    root_tag: String,
    root_value: Option<String>,
    subjects: usize,
    /// Queries and per-shard recovery take this shared; a distributed commit
    /// takes it exclusive, so no query can observe the window between the
    /// catalog decision and the per-shard finishes.
    gate: RwLock<()>,
    catalog: Mutex<ShardCatalog>,
    next_gtid: AtomicU64,
    /// Bumped on every committed transaction and every recovery; keys the
    /// assembled-global-document cache.
    commit_seq: AtomicU64,
    global_cache: Mutex<Option<GlobalSnapshot>>,
    stats: StatsInner,
}

impl ShardedDb {
    // -- construction -------------------------------------------------------

    /// Builds an in-memory sharded database: `doc` split into `shards`
    /// contiguous document-order ranges of roughly equal weight (clamped to
    /// the number of root children).
    pub fn build(
        doc: &Document,
        oracle: &(impl AccessOracle + ?Sized),
        shards: usize,
        cfg: DbConfig,
    ) -> Result<Self, DbError> {
        let groups = partition_children(doc, shards)?;
        Self::build_groups(doc, oracle, &groups, cfg, None)
    }

    /// [`build`](Self::build) with explicit split boundaries: `counts[s]`
    /// root-child subtrees go to shard `s` (all non-zero, summing to the
    /// root's child count). The differential tests drive arbitrary splits
    /// through this.
    pub fn build_with_counts(
        doc: &Document,
        oracle: &(impl AccessOracle + ?Sized),
        counts: &[usize],
        cfg: DbConfig,
    ) -> Result<Self, DbError> {
        let groups = groups_from_counts(doc, counts)?;
        Self::build_groups(doc, oracle, &groups, cfg, None)
    }

    /// Builds a **persistent** sharded database onto explicit disks: one
    /// `(data, wal)` pair per shard (the shard count is `disks.len()`) plus
    /// the shard-catalog disk. Reopen after a crash with
    /// [`open_on`](Self::open_on).
    pub fn build_on(
        doc: &Document,
        oracle: &(impl AccessOracle + ?Sized),
        cfg: DbConfig,
        disks: &[DiskPair],
        catalog_disk: Arc<dyn Disk>,
    ) -> Result<Self, DbError> {
        let groups = partition_children(doc, disks.len())?;
        if groups.len() != disks.len() {
            return Err(io_err("fewer root children than shard disks"));
        }
        Self::build_groups(doc, oracle, &groups, cfg, Some((disks, catalog_disk)))
    }

    #[allow(clippy::type_complexity)]
    fn build_groups(
        doc: &Document,
        oracle: &(impl AccessOracle + ?Sized),
        groups: &[Vec<NodeId>],
        cfg: DbConfig,
        persist: Option<(&[(Arc<dyn Disk>, Arc<dyn Disk>)], Arc<dyn Disk>)>,
    ) -> Result<Self, DbError> {
        let layout = ShardLayout::from_groups(doc, groups);
        let root = doc.root();
        let root_tag = doc.name_of(root).to_string();
        let root_value = doc.node(root).value.as_deref().map(str::to_string);
        let subjects = oracle.subject_count();
        let mut slots = Vec::with_capacity(groups.len());
        for (s, group) in groups.iter().enumerate() {
            let sdoc = shard_document(doc, group)?;
            let so = ShardOracle {
                inner: oracle,
                base: layout.bases[s],
            };
            let db = match &persist {
                None => SecureXmlDb::with_config(sdoc, &so, cfg)?,
                Some((disks, _)) => {
                    let staged = SecureXmlDb::with_config(sdoc, &so, cfg)?;
                    staged.save_to_disk(disks[s].0.clone())?;
                    SecureXmlDb::open_on(disks[s].0.clone(), disks[s].1.clone(), cfg)?
                }
            };
            let summary = ShardSummary::compute(&db);
            slots.push(ShardSlot {
                db: RwLock::new(db),
                summary: RwLock::new(summary),
            });
        }
        let catalog = match persist {
            None => ShardCatalog::mem(layout.shard_count()),
            Some((_, cdisk)) => ShardCatalog::format(cdisk, &layout)?,
        };
        Ok(Self {
            slots,
            layout,
            root_tag,
            root_value,
            subjects,
            gate: RwLock::new(()),
            catalog: Mutex::new(catalog),
            next_gtid: AtomicU64::new(1),
            commit_seq: AtomicU64::new(0),
            global_cache: Mutex::new(None),
            stats: StatsInner::default(),
        })
    }

    /// Reopens a persistent sharded database after a crash: the catalog's
    /// committed records are read first and become the decision set for
    /// every shard's recovery — prepared transactions whose gtid the catalog
    /// committed are replayed like commits, undecided ones roll back
    /// wholesale. No interleaving of crash point and shard count can expose
    /// a cross-shard mixed epoch.
    pub fn open_on(
        cfg: DbConfig,
        disks: &[DiskPair],
        catalog_disk: Arc<dyn Disk>,
    ) -> Result<Self, DbError> {
        let (catalog, layout) = ShardCatalog::open(catalog_disk)?;
        if layout.shard_count() != disks.len() {
            return Err(DbError::Integrity(format!(
                "shard catalog lists {} shard(s), {} disk pair(s) given",
                layout.shard_count(),
                disks.len()
            )));
        }
        let decided = catalog.decided.clone();
        let mut slots = Vec::with_capacity(disks.len());
        for (s, (data, wal)) in disks.iter().enumerate() {
            let db = SecureXmlDb::open_on_with_decisions(data.clone(), wal.clone(), cfg, &decided)?;
            if db.len() as u64 != layout.lens[s] + 1 {
                return Err(DbError::Integrity(format!(
                    "shard {s} holds {} node(s), catalog expects {}",
                    db.len(),
                    layout.lens[s] + 1
                )));
            }
            let summary = ShardSummary::compute(&db);
            slots.push(ShardSlot {
                db: RwLock::new(db),
                summary: RwLock::new(summary),
            });
        }
        let db0 = rlock(&slots[0].db);
        let root = db0.store().node(0)?.tag.index();
        let (_, root_tag) = db0
            .mirrors
            .tags
            .iter()
            .nth(root)
            .ok_or(DbError::InvalidNode(0))?;
        let root_tag = root_tag.to_string();
        let root_value = db0.value(0)?;
        let subjects = db0.dol().codebook().width();
        drop(db0);
        let next_gtid = decided.iter().copied().max().unwrap_or(0) + 1;
        Ok(Self {
            slots,
            layout,
            root_tag,
            root_value,
            subjects,
            gate: RwLock::new(()),
            catalog: Mutex::new(catalog),
            next_gtid: AtomicU64::new(next_gtid),
            commit_seq: AtomicU64::new(0),
            global_cache: Mutex::new(None),
            stats: StatsInner::default(),
        })
    }

    // -- introspection ------------------------------------------------------

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Total node count across all shards (the unsharded document's size).
    pub fn len(&self) -> usize {
        self.layout.total() as usize
    }

    /// A sharded database always holds at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of access-control subjects.
    pub fn subjects(&self) -> usize {
        self.subjects
    }

    /// Number of committed distributed transactions (catalog records).
    /// After an update error, a count that advanced past the value observed
    /// before the call means the decision landed and per-shard recovery
    /// will complete it.
    pub fn commit_count(&self) -> u64 {
        mlock(&self.catalog).decided.len() as u64
    }

    /// Facade counters.
    pub fn stats(&self) -> ShardedStats {
        self.stats.snapshot()
    }

    /// Per-shard status rows (breaker state, poison latch, epoch vector).
    pub fn status(&self) -> Vec<ShardStatus> {
        let epochs = mlock(&self.catalog).epochs.clone();
        self.slots
            .iter()
            .enumerate()
            .map(|(s, slot)| {
                let db = rlock(&slot.db);
                let poisoned = db.is_poisoned();
                let breaker_open = db.breaker_is_open();
                ShardStatus {
                    shard: s,
                    base: self.layout.bases[s],
                    len: self.layout.lens[s],
                    health: if poisoned || breaker_open {
                        ShardHealth::Quarantined
                    } else {
                        ShardHealth::Healthy
                    },
                    poisoned,
                    breaker_open,
                    epoch: epochs.get(s).copied().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Runs [`SecureXmlDb::verify_integrity`] on every shard.
    pub fn verify_integrity(&self) -> Result<(), DbError> {
        let _g = rlock(&self.gate);
        for slot in &self.slots {
            rlock(&slot.db).verify_integrity()?;
        }
        Ok(())
    }

    /// Borrows one shard's database read-locked (experiment harnesses read
    /// per-shard I/O and DOL statistics through this).
    pub fn with_shard<T>(&self, shard: usize, f: impl FnOnce(&SecureXmlDb) -> T) -> T {
        f(&rlock(&self.slots[shard].db))
    }

    // -- health & quarantine ------------------------------------------------

    fn quarantine_cause(db: &SecureXmlDb) -> Option<DbError> {
        if db.is_poisoned() {
            Some(DbError::Poisoned)
        } else if db.breaker_is_open() {
            Some(DbError::Storage(StorageError::BreakerOpen))
        } else {
            None
        }
    }

    fn refuse(&self, shard: usize, cause: DbError) -> DbError {
        StatsInner::bump(&self.stats.refusals);
        DbError::ShardUnavailable {
            shard,
            cause: Box::new(cause),
        }
    }

    /// Errs with [`DbError::ShardUnavailable`] if any listed shard is
    /// quarantined.
    fn ensure_healthy(&self, shards: &[usize]) -> Result<(), DbError> {
        for &s in shards {
            let db = rlock(&self.slots[s].db);
            if let Some(cause) = Self::quarantine_cause(&db) {
                drop(db);
                return Err(self.refuse(s, cause));
            }
        }
        Ok(())
    }

    fn skippable(&self, shard: usize, required: &[&str], subject: Option<SubjectId>) -> bool {
        let sum = rlock(&self.slots[shard].summary);
        sum.missing_tag(required) || sum.no_access(subject)
    }

    /// Splits all shards into (not-skippable, skipped-count) for one probe
    /// shape.
    fn involved_shards(&self, required: &[&str], subject: Option<SubjectId>) -> Vec<usize> {
        let mut involved = Vec::with_capacity(self.slots.len());
        for s in 0..self.slots.len() {
            if self.skippable(s, required, subject) {
                StatsInner::bump(&self.stats.shards_skipped);
            } else {
                involved.push(s);
            }
        }
        involved
    }

    // -- scatter ------------------------------------------------------------

    /// Fans `f` out to the listed shards on scoped threads (single-shard
    /// fan-outs run inline), returning per-shard results in list order.
    fn scatter<T: Send>(
        &self,
        shards: &[usize],
        f: impl Fn(usize, &SecureXmlDb) -> Result<T, DbError> + Sync,
    ) -> Vec<Result<T, DbError>> {
        if shards.len() <= 1 {
            return shards
                .iter()
                .map(|&s| f(s, &rlock(&self.slots[s].db)))
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|&s| {
                    let f = &f;
                    scope.spawn(move || f(s, &rlock(&self.slots[s].db)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(io_err("shard query worker panicked")))
                })
                .collect()
        })
    }

    // -- queries ------------------------------------------------------------

    /// Evaluates a twig query across the shards. The answer is byte-identical
    /// to the same query on the unsharded [`SecureXmlDb`]; a query that
    /// touches a quarantined shard fails whole with
    /// [`DbError::ShardUnavailable`].
    pub fn query(&self, query: &str, security: Security) -> Result<QueryResult, DbError> {
        let pat = parse_query(query).map_err(dol_nok::QueryError::from)?;
        self.query_inner(Some(query), &pat, security)
    }

    /// [`query`](Self::query) for an already-parsed [`PatternTree`] (the
    /// differential tests drive generated patterns through this without a
    /// query-string round trip). Shard-local full evaluations bypass the
    /// per-shard plan caches, which only key on query text.
    pub fn query_pattern(
        &self,
        pat: &PatternTree,
        security: Security,
    ) -> Result<QueryResult, DbError> {
        self.query_inner(None, pat, security)
    }

    fn query_inner(
        &self,
        query: Option<&str>,
        pat: &PatternTree,
        security: Security,
    ) -> Result<QueryResult, DbError> {
        let started = Instant::now();
        let _g = rlock(&self.gate);
        StatsInner::bump(&self.stats.queries);
        let root_comp = self.root_compatible(pat);
        let class = if sibling_hazard(pat, root_comp) {
            QueryClass::Global
        } else if root_comp {
            QueryClass::RootDecompose
        } else {
            QueryClass::Local
        };
        let mut result = match class {
            QueryClass::Local => {
                StatsInner::bump(&self.stats.local_fanouts);
                self.eval_local(query, pat, security)
            }
            QueryClass::RootDecompose => {
                StatsInner::bump(&self.stats.root_decompositions);
                self.eval_root_decompose(query, pat, security)
            }
            QueryClass::Global => {
                StatsInner::bump(&self.stats.global_fallbacks);
                self.eval_global(pat, security)
            }
        }?;
        result.stats.elapsed = started.elapsed();
        Ok(result)
    }

    /// Evaluates the original full pattern on one shard: through the shard's
    /// string-keyed caches when the query text is known, directly otherwise.
    fn full_eval(
        db: &SecureXmlDb,
        query: Option<&str>,
        pat: &PatternTree,
        security: Security,
    ) -> Result<QueryResult, DbError> {
        match query {
            Some(q) => db.query(q, security),
            None => eval_pattern(db, pat, security),
        }
    }

    fn root_compatible(&self, pat: &PatternTree) -> bool {
        let rn = pat.node(pat.root());
        rn.tag.as_deref().is_none_or(|t| t == self.root_tag)
            && rn
                .value
                .as_deref()
                .is_none_or(|v| Some(v) == self.root_value.as_deref())
    }

    /// Class *Local*: the pattern root cannot bind the document root (and no
    /// sibling step can cross a boundary), so every match is confined to one
    /// shard and the answer is the per-shard union in document order.
    fn eval_local(
        &self,
        query: Option<&str>,
        pat: &PatternTree,
        security: Security,
    ) -> Result<QueryResult, DbError> {
        let required = required_tags(pat);
        let subject = subject_of(security);
        let involved = self.involved_shards(&required, subject);
        self.ensure_healthy(&involved)?;
        let results = self.scatter(&involved, |_s, db| {
            Self::full_eval(db, query, pat, security)
        });
        let mut stats = ExecStats::default();
        let mut matches = Vec::new();
        for (&s, r) in involved.iter().zip(results) {
            let r = r?;
            fold_stats(&mut stats, &r.stats);
            for p in r.matches {
                // Class-Local patterns cannot bind the root replica.
                debug_assert!(p != 0, "local-class match bound the root replica");
                if p != 0 {
                    matches.push(self.layout.to_global(s, p));
                }
            }
        }
        // Shard ranges are disjoint and visited in ascending order, so the
        // concatenation is already the document-order merge.
        debug_assert!(matches.windows(2).all(|w| w[0] < w[1]));
        Ok(QueryResult { matches, stats })
    }

    /// Evaluates one anchored probe across the shards it could touch.
    /// Returns `(matched-shard results, presence)` or refuses if presence
    /// cannot be decided without a quarantined shard.
    fn probe_presence(
        &self,
        probe: &PatternTree,
        security: Security,
        stats: &mut ExecStats,
    ) -> Result<bool, DbError> {
        let required = required_tags(probe);
        let subject = subject_of(security);
        let involved = self.involved_shards(&required, subject);
        let healthy: Vec<usize> = involved
            .iter()
            .copied()
            .filter(|&s| Self::quarantine_cause(&rlock(&self.slots[s].db)).is_none())
            .collect();
        let mut present = false;
        for (_, r) in healthy
            .iter()
            .zip(self.scatter(&healthy, |_s, db| eval_pattern(db, probe, security)))
        {
            let r = r?;
            fold_stats(stats, &r.stats);
            if !r.matches.is_empty() {
                present = true;
            }
        }
        if present {
            return Ok(true);
        }
        // Absence is only provable if every involved shard answered.
        for &s in &involved {
            let db = rlock(&self.slots[s].db);
            if let Some(cause) = Self::quarantine_cause(&db) {
                drop(db);
                return Err(self.refuse(s, cause));
            }
        }
        Ok(false)
    }

    /// Class *Root-decompose*: the pattern root can bind the document root.
    /// Root-bound matches decompose into independent per-child-subtree
    /// constraints (each satisfiable by any one shard); non-anchored
    /// patterns add the per-shard union of non-root bindings, computed as
    /// `full answer − root-anchored answer` per shard.
    fn eval_root_decompose(
        &self,
        query: Option<&str>,
        pat: &PatternTree,
        security: Security,
    ) -> Result<QueryResult, DbError> {
        let mut stats = ExecStats::default();
        let mut answers: BTreeSet<u64> = BTreeSet::new();
        let root = pat.root();
        let kids: Vec<PNodeId> = pat.node(root).children.clone();
        let ret = pat.returning();
        let ret_child = kids.iter().copied().find(|&c| in_subtree(pat, c, ret));

        // --- the root-bound contribution ---
        if kids.is_empty() {
            // Singleton pattern: the root replica answers for the document
            // root on any one healthy shard (tag, value and root ACL are
            // identical everywhere by construction).
            let anchored = subpattern(pat, &[], None);
            let shard = (0..self.slots.len())
                .find(|&s| Self::quarantine_cause(&rlock(&self.slots[s].db)).is_none());
            match shard {
                Some(s) => {
                    let r = eval_pattern(&rlock(&self.slots[s].db), &anchored, security)?;
                    fold_stats(&mut stats, &r.stats);
                    if !r.matches.is_empty() {
                        answers.insert(0);
                    }
                }
                None => {
                    let cause = Self::quarantine_cause(&rlock(&self.slots[0].db))
                        .unwrap_or(DbError::Poisoned);
                    return Err(self.refuse(0, cause));
                }
            }
        } else {
            // Presence probes: with the root bound, each child subtree only
            // needs *some* shard to satisfy it.
            let mut all_present = true;
            for &c in &kids {
                if Some(c) == ret_child {
                    continue;
                }
                let probe = subpattern(pat, &[c], None);
                if !self.probe_presence(&probe, security, &mut stats)? {
                    all_present = false;
                    break;
                }
            }
            if all_present {
                match ret_child {
                    None => {
                        // Returning node is the root itself: every subtree
                        // present somewhere ⇒ the root matches. The probes
                        // bind the root, so its accessibility is enforced.
                        answers.insert(0);
                    }
                    Some(c) => {
                        let probe = subpattern(pat, &[c], Some(ret));
                        let required = required_tags(&probe);
                        let subject = subject_of(security);
                        let involved = self.involved_shards(&required, subject);
                        self.ensure_healthy(&involved)?;
                        let results =
                            self.scatter(&involved, |_s, db| eval_pattern(db, &probe, security));
                        for (&s, r) in involved.iter().zip(results) {
                            let r = r?;
                            fold_stats(&mut stats, &r.stats);
                            for p in r.matches {
                                debug_assert!(p != 0, "subtree match bound the root replica");
                                if p != 0 {
                                    answers.insert(self.layout.to_global(s, p));
                                }
                            }
                        }
                    }
                }
            }
        }

        // --- non-root bindings (non-anchored patterns only) ---
        if !pat.anchored() {
            let anchored_full = subpattern(pat, &kids, Some(ret));
            let required = required_tags(pat);
            let subject = subject_of(security);
            let involved = self.involved_shards(&required, subject);
            self.ensure_healthy(&involved)?;
            let results = self.scatter(&involved, |_s, db| {
                let full = Self::full_eval(db, query, pat, security)?;
                let rooted = eval_pattern(db, &anchored_full, security)?;
                Ok((full, rooted))
            });
            for (&s, r) in involved.iter().zip(results) {
                let (full, rooted) = r?;
                fold_stats(&mut stats, &full.stats);
                fold_stats(&mut stats, &rooted.stats);
                // A position answerable only with the pattern root bound to
                // the local root replica belongs to the root-decomposed
                // contribution above; keep the rest (some non-root binding
                // of the pattern root produced it).
                let rooted_set: HashSet<u64> = rooted.matches.into_iter().collect();
                for p in full.matches {
                    if !rooted_set.contains(&p) {
                        debug_assert!(p != 0, "non-root binding returned the root replica");
                        if p != 0 {
                            answers.insert(self.layout.to_global(s, p));
                        }
                    }
                }
            }
        }

        Ok(QueryResult {
            matches: answers.into_iter().collect(),
            stats,
        })
    }

    /// Class *Global*: a following-sibling step could straddle a shard
    /// boundary, so the query is evaluated on the assembled global document
    /// with the reference evaluator (cached per committed transaction).
    /// Needs every shard healthy.
    fn eval_global(&self, pat: &PatternTree, security: Security) -> Result<QueryResult, DbError> {
        let all: Vec<usize> = (0..self.slots.len()).collect();
        self.ensure_healthy(&all)?;
        let snap = self.global_snapshot()?;
        let sec = match security {
            Security::None => RefSecurity::None,
            Security::BindingLevel(s) => RefSecurity::Binding(&snap.map, s),
            Security::SubtreeVisibility(s) => RefSecurity::Subtree(&snap.map, s),
        };
        let matches = naive_eval(&snap.doc, pat, sec);
        Ok(QueryResult {
            matches,
            stats: ExecStats::default(),
        })
    }

    fn global_snapshot(&self) -> Result<GlobalSnapshot, DbError> {
        let seq = self.commit_seq.load(Ordering::SeqCst);
        {
            let cache = mlock(&self.global_cache);
            if let Some(g) = cache.as_ref() {
                if g.seq == seq {
                    return Ok(GlobalSnapshot {
                        seq,
                        doc: Arc::clone(&g.doc),
                        map: Arc::clone(&g.map),
                    });
                }
            }
        }
        let mut b = Document::builder();
        b.open_valued(&self.root_tag, self.root_value.as_deref());
        b.close();
        let mut doc = b.finish().map_err(|_| DbError::InvalidNode(0))?;
        let mut map = AccessibilityMap::new(self.subjects, self.layout.total() as usize);
        for (s, slot) in self.slots.iter().enumerate() {
            let db = rlock(&slot.db);
            let sdoc = db
                .mirrors
                .to_document(None)?
                .ok_or(DbError::InvalidNode(0))?;
            for child in sdoc.children(sdoc.root()) {
                doc.insert_subtree(doc.root(), None, &sdoc.copy_subtree(child))
                    .map_err(|_| DbError::InvalidNode(u64::from(child.0)))?;
            }
            // Decode each subject's column once and scan the shard's codes
            // in one block sweep.
            let items = db
                .store()
                .read_block_range(0..db.store().block_count())
                .map_err(DbError::Storage)?;
            for subj in 0..self.subjects {
                let col = db.dol().column(SubjectId(subj as u32));
                for (local, item) in items.iter().enumerate() {
                    if !col.check_code(item.code) {
                        continue;
                    }
                    if local == 0 {
                        if s == 0 {
                            map.set(SubjectId(subj as u32), NodeId(0), true);
                        }
                    } else {
                        let global = self.layout.to_global(s, local as u64);
                        map.set(SubjectId(subj as u32), NodeId(global as u32), true);
                    }
                }
            }
        }
        if doc.len() as u64 != self.layout.total() {
            return Err(DbError::Integrity(format!(
                "assembled global document holds {} node(s), layout expects {}",
                doc.len(),
                self.layout.total()
            )));
        }
        let snap = GlobalSnapshot {
            seq,
            doc: Arc::new(doc),
            map: Arc::new(map),
        };
        *mlock(&self.global_cache) = Some(GlobalSnapshot {
            seq,
            doc: Arc::clone(&snap.doc),
            map: Arc::clone(&snap.map),
        });
        Ok(snap)
    }

    // -- updates (two-phase commit) -----------------------------------------

    /// Grants or revokes one subject's access to the node at global `pos`.
    /// Position `0` (the replicated root) fans out to every shard in one
    /// distributed transaction.
    pub fn set_node_access(
        &self,
        pos: u64,
        subject: SubjectId,
        allow: bool,
    ) -> Result<(), DbError> {
        if pos >= self.layout.total() {
            return Err(DbError::InvalidNode(pos));
        }
        if pos == 0 {
            let all: Vec<usize> = (0..self.slots.len()).collect();
            self.commit_all(&all, &|_s, db| db.set_node_access(0, subject, allow))
        } else {
            let s = self.layout.shard_of(pos);
            let local = self.layout.to_local(s, pos);
            self.commit_all(&[s], &|_s, db| db.set_node_access(local, subject, allow))
        }
    }

    /// Grants or revokes one subject's access to the whole subtree at global
    /// `pos`. The root's subtree is the entire document: every shard updates
    /// its full local range in one distributed transaction.
    pub fn set_subtree_access(
        &self,
        pos: u64,
        subject: SubjectId,
        allow: bool,
    ) -> Result<(), DbError> {
        if pos >= self.layout.total() {
            return Err(DbError::InvalidNode(pos));
        }
        if pos == 0 {
            let all: Vec<usize> = (0..self.slots.len()).collect();
            self.commit_all(&all, &|_s, db| db.set_subtree_access(0, subject, allow))
        } else {
            let s = self.layout.shard_of(pos);
            let local = self.layout.to_local(s, pos);
            self.commit_all(&[s], &|_s, db| db.set_subtree_access(local, subject, allow))
        }
    }

    /// The two-phase commit driver. Under the exclusive gate: prepare on
    /// every touched shard, append the catalog record (the commit point),
    /// then finish everywhere. Any failure before the append aborts the
    /// whole transaction cleanly; a failure after it quarantines the
    /// affected shard, whose recovery replays the decided prepare.
    fn commit_all(
        &self,
        touched: &[usize],
        f: &(dyn Fn(usize, &mut SecureXmlDb) -> Result<(), DbError> + Sync),
    ) -> Result<(), DbError> {
        let _g = wlock(&self.gate);
        for &s in touched {
            let db = rlock(&self.slots[s].db);
            if let Some(cause) = Self::quarantine_cause(&db) {
                drop(db);
                return Err(self.refuse(s, cause));
            }
        }
        let gtid = self.next_gtid.fetch_add(1, Ordering::SeqCst);

        // Phase 1: prepare.
        let mut prepared: Vec<usize> = Vec::with_capacity(touched.len());
        let mut vote_err: Option<DbError> = None;
        for &s in touched {
            let mut db = wlock(&self.slots[s].db);
            match db.run_prepared(gtid, |db| f(s, db)) {
                Ok(()) => prepared.push(s),
                Err(e) => {
                    vote_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = vote_err {
            for &s in &prepared {
                let _ = wlock(&self.slots[s].db).finish_prepared(gtid, false);
            }
            StatsInner::bump(&self.stats.aborts);
            return Err(e);
        }

        // Phase 2: decide. One synced catalog append commits the lot.
        let new_epochs = {
            let cat = mlock(&self.catalog);
            let mut e = cat.epochs.clone();
            for &s in touched {
                e[s] += 1;
            }
            e
        };
        if let Err(e) = mlock(&self.catalog).append(gtid, &new_epochs) {
            for &s in touched {
                let _ = wlock(&self.slots[s].db).finish_prepared(gtid, false);
            }
            StatsInner::bump(&self.stats.aborts);
            return Err(e);
        }

        // Phase 3: finish. The decision is durable; a local failure here
        // quarantines the shard and recovery completes the commit.
        let mut first_err: Option<(usize, DbError)> = None;
        for &s in touched {
            let mut db = wlock(&self.slots[s].db);
            match db.finish_prepared(gtid, true) {
                Ok(()) => {
                    let summary = ShardSummary::compute(&db);
                    drop(db);
                    *wlock(&self.slots[s].summary) = summary;
                }
                Err(e) => {
                    drop(db);
                    wlock(&self.slots[s].summary).acl_valid = false;
                    StatsInner::bump(&self.stats.quarantines);
                    if first_err.is_none() {
                        first_err = Some((s, e));
                    }
                }
            }
        }
        self.commit_seq.fetch_add(1, Ordering::SeqCst);
        StatsInner::bump(&self.stats.commits);
        match first_err {
            None => Ok(()),
            Some((shard, cause)) => Err(self.refuse(shard, cause)),
        }
    }

    // -- recovery -----------------------------------------------------------

    /// Heals one shard **in process**, concurrently with serving on the
    /// healthy shards: replays the shard's log with the catalog's committed
    /// gtids as the decision set (decided prepares commit, undecided ones
    /// roll back), rebuilds the boundary summaries, and resets the breaker.
    /// An un-quarantined shard recovers trivially (breaker reset only).
    pub fn recover_shard(&self, shard: usize) -> Result<Option<RecoveryReport>, DbError> {
        if shard >= self.slots.len() {
            return Err(DbError::InvalidNode(shard as u64));
        }
        let _g = rlock(&self.gate);
        let decided = mlock(&self.catalog).decided.clone();
        let mut db = wlock(&self.slots[shard].db);
        let report = db.recover_with_decisions(&decided)?;
        let summary = ShardSummary::compute(&db);
        drop(db);
        *wlock(&self.slots[shard].summary) = summary;
        StatsInner::bump(&self.stats.recoveries);
        // The shard may have replayed a decided transaction it never
        // finished in-process: refresh the assembled-document cache key.
        self.commit_seq.fetch_add(1, Ordering::SeqCst);
        Ok(report)
    }

    /// Recovers every quarantined shard; returns how many were healed.
    pub fn recover_all(&self) -> Result<usize, DbError> {
        let mut healed = 0;
        for s in 0..self.slots.len() {
            let quarantined = Self::quarantine_cause(&rlock(&self.slots[s].db)).is_some();
            if quarantined {
                self.recover_shard(s)?;
                healed += 1;
            }
        }
        Ok(healed)
    }

    /// Whether `subject` may access the node at global `pos` (routed to the
    /// owning shard; the root answers from shard 0's replica).
    pub fn accessible(&self, pos: u64, subject: SubjectId) -> Result<bool, DbError> {
        if pos >= self.layout.total() {
            return Err(DbError::InvalidNode(pos));
        }
        let _g = rlock(&self.gate);
        let (s, local) = if pos == 0 {
            (0, 0)
        } else {
            let s = self.layout.shard_of(pos);
            (s, self.layout.to_local(s, pos))
        };
        let db = rlock(&self.slots[s].db);
        if let Some(cause) = Self::quarantine_cause(&db) {
            drop(db);
            return Err(self.refuse(s, cause));
        }
        db.accessible(local, subject)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::AccessibilityMap;
    use dol_storage::{CrashDisk, CrashState, MemDisk};

    /// `(site (a (x) (y "v")) (b (x)) (a (z)) (c))` — 9 nodes, 4 root kids.
    fn sample() -> Document {
        let mut b = Document::builder();
        b.open("site");
        b.open("a");
        b.leaf("x", None);
        b.leaf("y", Some("v"));
        b.close();
        b.open("b");
        b.leaf("x", None);
        b.close();
        b.open("a");
        b.leaf("z", None);
        b.close();
        b.leaf("c", None);
        b.close();
        b.finish().expect("sample builds")
    }

    fn all_allow(doc: &Document, subjects: usize) -> AccessibilityMap {
        let mut m = AccessibilityMap::new(subjects, doc.len());
        for s in 0..subjects {
            for p in 0..doc.len() {
                m.set(SubjectId(s as u32), NodeId(p as u32), true);
            }
        }
        m
    }

    const QUERIES: &[&str] = &[
        "//a/x",
        "//x",
        "/site/a/x",
        "/site[/a][/c]",
        "/site/a[/x]/y",
        "//*",
        "//site//x",
        "//a~b",
        "//x~y",
        "/site/a~a",
        "//y[=\"v\"]",
        "//q",
        "/site/c",
    ];

    #[test]
    fn sharded_answers_match_unsharded() {
        let doc = sample();
        let map = all_allow(&doc, 2);
        let solo = SecureXmlDb::from_document(doc.clone(), &map).expect("solo builds");
        for shards in 1..=4usize {
            let sharded =
                ShardedDb::build(&doc, &map, shards, DbConfig::default()).expect("sharded builds");
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.len(), doc.len());
            for q in QUERIES {
                for sec in [
                    Security::None,
                    Security::BindingLevel(SubjectId(0)),
                    Security::SubtreeVisibility(SubjectId(1)),
                ] {
                    let want = solo.query(q, sec).expect("solo query").matches;
                    let got = sharded.query(q, sec).expect("sharded query").matches;
                    assert_eq!(got, want, "query {q:?} with {shards} shard(s)");
                }
            }
        }
    }

    #[test]
    fn acl_updates_fan_out_and_match_unsharded() {
        let doc = sample();
        let map = all_allow(&doc, 2);
        let mut solo = SecureXmlDb::from_document(doc.clone(), &map).expect("solo builds");
        let sharded = ShardedDb::build(&doc, &map, 3, DbConfig::default()).expect("sharded builds");

        // A cross-shard update (root subtree = whole document) and two
        // single-shard updates.
        let s1 = SubjectId(1);
        solo.set_subtree_access(0, s1, false).expect("solo subtree");
        sharded
            .set_subtree_access(0, s1, false)
            .expect("sharded subtree");
        solo.set_node_access(3, s1, true).expect("solo node");
        sharded.set_node_access(3, s1, true).expect("sharded node");
        solo.set_subtree_access(4, s1, true)
            .expect("solo subtree 2");
        sharded
            .set_subtree_access(4, s1, true)
            .expect("sharded subtree 2");

        for p in 0..doc.len() as u64 {
            assert_eq!(
                sharded.accessible(p, s1).expect("accessible"),
                solo.accessible(p, s1).expect("solo accessible"),
                "position {p}"
            );
        }
        for q in QUERIES {
            let want = solo
                .query(q, Security::BindingLevel(s1))
                .expect("solo query")
                .matches;
            let got = sharded
                .query(q, Security::BindingLevel(s1))
                .expect("sharded query")
                .matches;
            assert_eq!(got, want, "query {q:?} after ACL updates");
        }
        assert_eq!(sharded.commit_count(), 3);
    }

    #[test]
    fn abort_vote_rolls_back_every_shard() {
        let doc = sample();
        let map = all_allow(&doc, 2);
        let sharded = ShardedDb::build(&doc, &map, 3, DbConfig::default()).expect("builds");
        let all: Vec<usize> = (0..3).collect();
        // Second shard votes abort: nothing anywhere may change.
        let err = sharded.commit_all(&all, &|s, db| {
            if s == 1 {
                Err(DbError::InvalidNode(999))
            } else {
                db.set_node_access(0, SubjectId(1), false)
            }
        });
        assert!(err.is_err());
        assert_eq!(sharded.commit_count(), 0);
        assert!(sharded.accessible(0, SubjectId(1)).expect("accessible"));
        for st in sharded.status() {
            assert_eq!(st.health, ShardHealth::Healthy, "shard {}", st.shard);
        }
        assert_eq!(sharded.stats().aborts, 1);
    }

    #[test]
    fn quarantined_shard_refuses_typed_and_recovers() {
        let doc = sample();
        let map = all_allow(&doc, 2);
        let sharded = ShardedDb::build(&doc, &map, 2, DbConfig::default()).expect("builds");
        // Poison shard 1 with a failing solo update.
        {
            let mut db = wlock(&sharded.slots[1].db);
            let _ = db.run_update(|_| Err(DbError::InvalidNode(999)));
            assert!(db.is_poisoned());
        }
        assert_eq!(
            sharded.status()[1].health,
            ShardHealth::Quarantined,
            "poisoned shard is quarantined"
        );
        // "//z" lives in shard 1 only: typed refusal naming the shard.
        match sharded.query("//z", Security::None) {
            Err(DbError::ShardUnavailable { shard: 1, .. }) => {}
            other => panic!("expected ShardUnavailable for shard 1, got {other:?}"),
        }
        // "//q" appears in no shard's tag summary: answers (empty) exactly.
        assert!(sharded
            .query("//q", Security::None)
            .expect("skippable query")
            .matches
            .is_empty());
        // Updates touching the quarantined shard are refused too.
        match sharded.set_subtree_access(0, SubjectId(0), false) {
            Err(DbError::ShardUnavailable { shard: 1, .. }) => {}
            other => panic!("expected ShardUnavailable update, got {other:?}"),
        }
        // In-process recovery restores full service.
        sharded.recover_shard(1).expect("recover");
        assert_eq!(sharded.status()[1].health, ShardHealth::Healthy);
        assert_eq!(
            sharded
                .query("//z", Security::None)
                .expect("recovered")
                .matches,
            vec![7]
        );
        assert!(sharded.stats().recoveries >= 1);
    }

    /// Queries provably confined to healthy shards answer byte-identically
    /// to the unsharded oracle while another shard is quarantined.
    #[test]
    fn healthy_confined_queries_stay_exact_under_quarantine() {
        let doc = sample();
        let map = all_allow(&doc, 2);
        let solo = SecureXmlDb::from_document(doc.clone(), &map).expect("solo builds");
        let sharded = ShardedDb::build(&doc, &map, 2, DbConfig::default()).expect("builds");
        {
            let mut db = wlock(&sharded.slots[0].db);
            let _ = db.run_update(|_| Err(DbError::InvalidNode(999)));
        }
        // "//z" lives entirely in shard 1 ("z" is absent from shard 0's tag
        // summary), so it must answer exactly despite shard 0's quarantine.
        let want = solo.query("//z", Security::None).expect("solo").matches;
        let got = sharded
            .query("//z", Security::None)
            .expect("confined")
            .matches;
        assert_eq!(got, want);
        assert!(sharded.stats().shards_skipped >= 1);
    }

    #[test]
    fn persistent_build_open_round_trip() {
        let doc = sample();
        let map = all_allow(&doc, 2);
        let disks: Vec<(Arc<dyn Disk>, Arc<dyn Disk>)> = (0..2)
            .map(|_| {
                (
                    Arc::new(MemDisk::new()) as Arc<dyn Disk>,
                    Arc::new(MemDisk::new()) as Arc<dyn Disk>,
                )
            })
            .collect();
        let catalog: Arc<dyn Disk> = Arc::new(MemDisk::new());
        let sharded = ShardedDb::build_on(&doc, &map, DbConfig::default(), &disks, catalog.clone())
            .expect("builds");
        sharded
            .set_subtree_access(0, SubjectId(1), false)
            .expect("update");
        drop(sharded);
        let reopened = ShardedDb::open_on(DbConfig::default(), &disks, catalog).expect("reopens");
        assert_eq!(reopened.commit_count(), 1);
        for p in 0..doc.len() as u64 {
            assert!(!reopened.accessible(p, SubjectId(1)).expect("accessible"));
            assert!(reopened.accessible(p, SubjectId(0)).expect("accessible"));
        }
        reopened.verify_integrity().expect("integrity");
    }

    /// A power cut at *every* write point of a cross-shard commit leaves the
    /// reopened system in exactly the before- or after-state on **all**
    /// shards — never a mixed epoch.
    #[test]
    fn every_write_point_crash_is_all_or_nothing() {
        let doc = sample();
        let map = all_allow(&doc, 2);
        let subject = SubjectId(1);

        // Oracle pass: count the physical writes of the commit.
        type Stacks = (Vec<DiskPair>, Vec<DiskPair>, Arc<dyn Disk>, Arc<dyn Disk>);
        let build = |rail: &Arc<CrashState>| -> Stacks {
            // Build on raw disks first (the build itself is not tortured),
            // then wrap the same substrates in crash disks for the commit.
            let raw: Vec<(Arc<dyn Disk>, Arc<dyn Disk>)> = (0..2)
                .map(|_| {
                    (
                        Arc::new(MemDisk::new()) as Arc<dyn Disk>,
                        Arc::new(MemDisk::new()) as Arc<dyn Disk>,
                    )
                })
                .collect();
            let raw_cat: Arc<dyn Disk> = Arc::new(MemDisk::new());
            let wrapped: Vec<(Arc<dyn Disk>, Arc<dyn Disk>)> = raw
                .iter()
                .map(|(d, w)| {
                    (
                        Arc::new(CrashDisk::new(d.clone(), rail.clone())) as Arc<dyn Disk>,
                        Arc::new(CrashDisk::new(w.clone(), rail.clone())) as Arc<dyn Disk>,
                    )
                })
                .collect();
            let wrapped_cat: Arc<dyn Disk> =
                Arc::new(CrashDisk::new(raw_cat.clone(), rail.clone()));
            (raw, wrapped, raw_cat, wrapped_cat)
        };

        let oracle_rail = CrashState::unlimited();
        let (_raw, disks, _raw_cat, cat) = build(&oracle_rail);
        let db = ShardedDb::build_on(&doc, &map, DbConfig::default(), &disks, cat)
            .expect("oracle builds");
        let before_writes = oracle_rail.writes_issued();
        db.set_subtree_access(0, subject, false)
            .expect("oracle commit");
        let commit_writes = oracle_rail.writes_issued() - before_writes;
        assert!(commit_writes > 0, "commit must touch the disks");
        drop(db);

        for k in 0..commit_writes {
            let rail = CrashState::unlimited();
            let (raw, disks, raw_cat, cat) = build(&rail);
            let db =
                ShardedDb::build_on(&doc, &map, DbConfig::default(), &disks, cat).expect("builds");
            // Arm the cut k successful writes into the commit (tear odd k).
            let consumed = rail.writes_issued();
            let armed = CrashState::new(consumed + k, k % 2 == 1, 0xD01 + k);
            let disks_armed: Vec<(Arc<dyn Disk>, Arc<dyn Disk>)> = raw
                .iter()
                .map(|(d, w)| {
                    (
                        Arc::new(CrashDisk::new(d.clone(), armed.clone())) as Arc<dyn Disk>,
                        Arc::new(CrashDisk::new(w.clone(), armed.clone())) as Arc<dyn Disk>,
                    )
                })
                .collect();
            let cat_armed: Arc<dyn Disk> = Arc::new(CrashDisk::new(raw_cat.clone(), armed.clone()));
            drop(db);
            let db = ShardedDb::open_on(DbConfig::default(), &disks_armed, cat_armed)
                .expect("pre-crash reopen");
            // The commit dies somewhere in the middle.
            let _ = db.set_subtree_access(0, subject, false);
            drop(db);

            // Post-reboot: reopen from the raw substrates.
            let reopened =
                ShardedDb::open_on(DbConfig::default(), &raw, raw_cat).expect("post-crash reopen");
            reopened.verify_integrity().expect("integrity after crash");
            // All-or-nothing: every position shows the old state, or every
            // position shows the new one. Mixed epochs are the failure mode.
            let bits: Vec<bool> = (0..doc.len() as u64)
                .map(|p| reopened.accessible(p, subject).expect("accessible"))
                .collect();
            let all_old = bits.iter().all(|&b| b);
            let all_new = bits.iter().all(|&b| !b);
            assert!(
                all_old || all_new,
                "crash point {k}/{commit_writes}: cross-shard mixed epoch {bits:?}"
            );
            // The catalog agrees with the surviving state.
            let decided = reopened.commit_count();
            assert_eq!(
                decided > 0,
                all_new,
                "crash point {k}: catalog decision disagrees with shard state"
            );
        }
    }

    #[test]
    fn explicit_split_boundaries_respected() {
        let doc = sample();
        let map = all_allow(&doc, 1);
        let sharded = ShardedDb::build_with_counts(&doc, &map, &[1, 2, 1], DbConfig::default())
            .expect("builds");
        assert_eq!(sharded.shard_count(), 3);
        let status = sharded.status();
        assert_eq!(
            (status[0].base, status[0].len),
            (1, 3),
            "first group: (a (x) (y))"
        );
        assert_eq!((status[1].base, status[1].len), (4, 4));
        assert_eq!((status[2].base, status[2].len), (8, 1));
        // Bad splits are rejected.
        assert!(ShardedDb::build_with_counts(&doc, &map, &[4, 1], DbConfig::default()).is_err());
        assert!(ShardedDb::build_with_counts(&doc, &map, &[0, 4], DbConfig::default()).is_err());
    }
}
