//! Database persistence: save/load a [`SecureXmlDb`] to a page file, with
//! crash-consistent updates through the write-ahead log.
//!
//! The on-disk layout (version 4, "sectioned image") is self-describing:
//!
//! ```text
//! page 0      catalog: magic, version, structure chain head, records per
//!             block, node count, and one (head, len) pair per meta section
//! other pages NoK structure blocks (chained), value-log pages, and the
//!             pages of the three section chains, wherever allocation put them
//! ```
//!
//! Nothing assumes fixed page ranges: the catalog stores chain heads. The
//! meta is three **sections**, each a chain of `[next u32][len u32][bytes]`
//! pages and each owned by one in-memory mirror:
//!
//! | section | bytes | owner |
//! |---|---|---|
//! | codebook | `Codebook::to_bytes` (group table and compaction plan included) | `mirrors.dol` |
//! | tags | the `'\n'`-joined tag interner | `mirrors.tags` |
//! | values | value-log tail, log page list, value index | `mirrors.values` |
//!
//! Every update transaction on a persistent database ends in `rewrite_meta`,
//! inside the same [`BufferPool`] transaction as the structural pages, so the
//! write-ahead log recovers catalog, sections and data together: the
//! reopened database is in exactly the before- or after-state of each
//! update. It rewrites only the sections whose owner changed — an ACL edit
//! that interns no code writes no meta page at all. A changed section is
//! edited in place, page by page: an ACL edit that does intern a code writes
//! the codebook pages its bytes changed (usually one or two, whatever the
//! section's size) and the catalog, and allocates a page only when a page's
//! bytes outgrow it. Any page an in-place edit leaves over leaks until
//! [`SecureXmlDb::save_to`] compacts the image.
//!
//! Versions 2 and 3 kept one meta chain holding the same three encodings
//! back to back (codebook and tags length-prefixed). They load through the
//! same per-section decoders, and the first commit on such an image writes
//! all three sections and a version-4 catalog.
//!
//! A database at `path` pairs with its log at `path + ".wal"`.
//! [`SecureXmlDb::open_from`] replays the log *before* reading any page, so
//! a crash between page flushes is invisible to the reader.

use crate::{DbConfig, DbError, MirrorSnapshot, SecureXmlDb};
use dol_core::{Codebook, EmbeddedDol};
use dol_nok::NodeIndex;
use dol_storage::disk::StorageError;
use dol_storage::{
    BufferPool, Disk, FileDisk, PageId, StoreConfig, StructStore, ValueStore, Wal, PAYLOAD_SIZE,
};
use dol_xml::TagInterner;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: u32 = 0x444F_4C58; // "DOLX"
/// Current image version: one chain per meta section. Versions 2 and 3
/// (one meta chain; v3 only grew the codebook bytes) still open.
const VERSION: u32 = 4;

/// v4 catalog fields on page 0, after `magic u32 | version u32`. (v2/v3
/// share the first two; then meta head u32 at 16, meta length u64 at 20 and
/// node count u64 at 28.)
const CAT_STRUCT_FIRST: usize = 8;
const CAT_MAX_RECORDS: usize = 12;
const CAT_TOTAL_NODES: usize = 16;
/// The `(head u32, len u64)` pairs, one per section in [`SECTIONS`] order.
const CAT_SECTIONS: usize = 24;
const CAT_SECTION_SIZE: usize = 12;
const CAT_BYTES: usize = CAT_SECTIONS + SECTIONS.len() * CAT_SECTION_SIZE;

/// Payload bytes per chain page after the `[next u32][len u32]` header.
const CHAIN_CAP: usize = PAYLOAD_SIZE - 8;

/// A chain of pages holding `len` bytes from `head` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chain {
    head: PageId,
    len: u64,
}

impl Chain {
    const NONE: Chain = Chain {
        head: PageId::INVALID,
        len: 0,
    };
}

/// The meta sections, in catalog order. Each is owned by one mirror and
/// changes only when that mirror does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Codebook,
    Tags,
    Values,
}

const SECTIONS: [Section; 3] = [Section::Codebook, Section::Tags, Section::Values];

impl Section {
    fn name(self) -> &'static str {
        match self {
            Section::Codebook => "codebook section",
            Section::Tags => "tags section",
            Section::Values => "values section",
        }
    }

    /// Whether `a` and `b` hold the same `Arc` of this section's owner.
    fn same_owner(self, a: &MirrorSnapshot, b: &MirrorSnapshot) -> bool {
        match self {
            Section::Codebook => Arc::ptr_eq(&a.dol, &b.dol),
            Section::Tags => Arc::ptr_eq(&a.tags, &b.tags),
            Section::Values => Arc::ptr_eq(&a.values, &b.values),
        }
    }

    /// This section's bytes for the state `m` describes.
    fn encode(self, m: &MirrorSnapshot) -> Vec<u8> {
        match self {
            Section::Codebook => m.dol.codebook().to_bytes(),
            Section::Tags => {
                let names: Vec<&str> = m.tags.iter().map(|(_, n)| n).collect();
                names.join("\n").into_bytes()
            }
            Section::Values => {
                let (values, pages) = (&m.values, m.values.log_pages());
                let mut out = Vec::with_capacity(20 + 4 * pages.len() + 20 * values.len());
                out.extend_from_slice(&values.log_tail().to_le_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for p in pages {
                    out.extend_from_slice(&p.0.to_le_bytes());
                }
                out.extend_from_slice(&(values.len() as u64).to_le_bytes());
                for (pos, off, len) in values.index_entries() {
                    out.extend_from_slice(&pos.to_le_bytes());
                    out.extend_from_slice(&off.to_le_bytes());
                    out.extend_from_slice(&len.to_le_bytes());
                }
                out
            }
        }
    }
}

/// Where page 0 says the meta lives.
enum Meta {
    /// v2/v3: one chain, the three section encodings back to back.
    Blob(Chain),
    /// v4: one chain per section, in [`SECTIONS`] order.
    Sections([Chain; 3]),
}

struct Catalog {
    struct_first: PageId,
    max_records: u32,
    total_nodes: u64,
    meta: Meta,
}

fn invalid_data(msg: impl Into<String>) -> DbError {
    DbError::Storage(StorageError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        msg.into(),
    )))
}

/// The log file that pairs with a database file: `<path>.wal`.
fn wal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    os.into()
}

fn read_catalog(pool: &BufferPool) -> Result<Catalog, DbError> {
    pool.with_page(PageId(0), |p| {
        if p.get_u32(0) != MAGIC {
            return Err("not a secure-xml database file".to_string());
        }
        let chain = |at: usize| Chain {
            head: PageId(p.get_u32(at)),
            len: p.get_u64(at + 4),
        };
        let (total_nodes, meta) = match p.get_u32(4) {
            2 | 3 => (p.get_u64(28), Meta::Blob(chain(16))),
            VERSION => (
                p.get_u64(CAT_TOTAL_NODES),
                Meta::Sections(std::array::from_fn(|i| {
                    chain(CAT_SECTIONS + i * CAT_SECTION_SIZE)
                })),
            ),
            v => return Err(format!("unsupported version {v}")),
        };
        Ok(Catalog {
            struct_first: PageId(p.get_u32(CAT_STRUCT_FIRST)),
            max_records: p.get_u32(CAT_MAX_RECORDS),
            total_nodes,
            meta,
        })
    })?
    .map_err(invalid_data)
}

/// Writes the v4 catalog naming `store`'s chain and `sections` — unless
/// page 0 already holds exactly these bytes, so a commit that moved no chain
/// head logs no catalog page.
fn write_catalog(
    pool: &BufferPool,
    store: &StructStore,
    sections: &[Chain; 3],
) -> Result<(), StorageError> {
    let mut cat = Vec::with_capacity(CAT_BYTES);
    cat.extend_from_slice(&MAGIC.to_le_bytes());
    cat.extend_from_slice(&VERSION.to_le_bytes());
    cat.extend_from_slice(&store.block_info(0).page.0.to_le_bytes());
    cat.extend_from_slice(&(store.config().max_records_per_block as u32).to_le_bytes());
    cat.extend_from_slice(&store.total_nodes().to_le_bytes());
    for c in sections {
        cat.extend_from_slice(&c.head.0.to_le_bytes());
        cat.extend_from_slice(&c.len.to_le_bytes());
    }
    if pool.with_page(PageId(0), |p| p.get_bytes(0, CAT_BYTES) != cat.as_slice())? {
        pool.with_page_mut(PageId(0), |p| p.put_bytes(0, &cat))?;
    }
    Ok(())
}

/// Bytes from a walk of a chain, and its pages with the bytes each holds.
type ChainRead = (Vec<u8>, Vec<(PageId, usize)>);

/// Reads `chain` (named `what` in errors) back. Every page of a chain holds
/// at least one byte (but the one page of an empty chain), and no chain has
/// more pages than the disk, so a cycle, an overrun, a page claiming too
/// much or a lying length all end the walk in a typed error.
fn read_chain(pool: &BufferPool, what: &str, chain: Chain) -> Result<ChainRead, DbError> {
    let max_pages = chain.len.clamp(1, u64::from(pool.disk().num_pages()));
    let mut bytes = Vec::new();
    let mut pages = Vec::new();
    let mut page = chain.head;
    while page.is_valid() && (pages.len() as u64) < max_pages {
        page = pool
            .with_page(page, |p| {
                let len = p.get_u32(4) as usize;
                if len > CHAIN_CAP {
                    return Err(format!("{what} page {page} claims {len} bytes"));
                }
                bytes.extend_from_slice(p.get_bytes(8, len));
                pages.push((page, len));
                Ok(PageId(p.get_u32(0)))
            })?
            .map_err(invalid_data)?;
    }
    if page.is_valid() || bytes.len() as u64 != chain.len {
        return Err(invalid_data(format!(
            "{what} at {} holds {} bytes in {} pages{}, the catalog says {}",
            chain.head,
            bytes.len(),
            pages.len(),
            if page.is_valid() { " and runs on" } else { "" },
            chain.len
        )));
    }
    Ok((bytes, pages))
}

/// How far from where it was expected an old page's bytes are looked for in
/// a section's new encoding. The pages after an edit that moved them further
/// are rewritten: the cost grows, the bytes stay exact.
const MAX_SHIFT: usize = CHAIN_CAP;

/// The first `at` in `lo..=hi` where `needle` (non-empty, at most a page)
/// occurs in `hay`. A rolling hash screens the candidates, so the cost stays
/// linear in the window however the bytes repeat.
fn find_in(hay: &[u8], needle: &[u8], lo: usize, hi: usize) -> Option<usize> {
    const BASE: u64 = 0x0100_0000_01b3;
    let n = needle.len();
    let hi = hi.min(hay.len().checked_sub(n)?);
    if n == 0 || lo > hi {
        return None;
    }
    let hash = |s: &[u8]| {
        s.iter().fold(0u64, |h, &b| {
            h.wrapping_mul(BASE).wrapping_add(u64::from(b))
        })
    };
    let want = hash(needle);
    let lead = BASE.wrapping_pow(n as u32 - 1);
    let mut h = hash(&hay[lo..lo + n]);
    for at in lo..=hi {
        if h == want && &hay[at..at + n] == needle {
            return Some(at);
        }
        if at < hi {
            h = h
                .wrapping_sub(u64::from(hay[at]).wrapping_mul(lead))
                .wrapping_mul(BASE)
                .wrapping_add(u64::from(hay[at + n]));
        }
    }
    None
}

/// Rewrites the chain `old` — its pages and the bytes they hold, as
/// [`read_chain`] returned them — to hold `bytes`, in place; an empty `old`
/// writes a fresh chain, its pages packed full. An old page
/// whose bytes reappear in `bytes` near where they were is kept; each run of
/// bytes between kept pages is split evenly over the old pages it replaces,
/// then over old pages no run replaced, then over fresh ones. Only pages
/// whose next link or bytes change are written, so an edit costs the pages
/// it touches, not the section's size, and equal bytes write nothing. Old
/// pages left over leak until the next [`SecureXmlDb::save_to`].
fn rewrite_chain(
    pool: &BufferPool,
    (old_bytes, old): &ChainRead,
    bytes: &[u8],
) -> Result<Chain, StorageError> {
    /// A stretch of `bytes`, in chain order.
    enum Part {
        Kept(PageId, Range<usize>),
        /// To place, with the old pages whose bytes it replaces.
        Run(Range<usize>, Vec<PageId>),
    }
    let mut parts = Vec::new();
    // Old pages not found since the last kept one; old pages no run took.
    let (mut replaced, mut spare) = (Vec::new(), Vec::new());
    let (mut placed, mut from, mut shift) = (0usize, 0usize, 0isize);
    for &(page, len) in old {
        let was = from..from + len;
        from += len;
        let expect = was.start.saturating_add_signed(shift);
        let lo = placed.max(expect.saturating_sub(MAX_SHIFT));
        match find_in(bytes, &old_bytes[was.clone()], lo, expect + MAX_SHIFT) {
            Some(at) => {
                if at > placed {
                    parts.push(Part::Run(placed..at, std::mem::take(&mut replaced)));
                }
                spare.append(&mut replaced);
                parts.push(Part::Kept(page, at..at + len));
                placed = at + len;
                shift = at as isize - was.start as isize;
            }
            None => replaced.push(page),
        }
    }
    if placed < bytes.len() || parts.is_empty() {
        parts.push(Part::Run(placed..bytes.len(), replaced));
    }
    let mut layout: Vec<(PageId, Range<usize>)> = Vec::new();
    for part in parts {
        let (r, own) = match part {
            Part::Kept(page, r) => {
                layout.push((page, r));
                continue;
            }
            Part::Run(r, own) => (r, own),
        };
        let mut own = own.into_iter();
        let k = r.len().div_ceil(CHAIN_CAP).max(1);
        // A fresh chain is as compact as the image `save_to` writes; an
        // edit's run is spread evenly, leaving each page room to grow.
        let cut = |i: usize| {
            if old.is_empty() {
                (i * CHAIN_CAP).min(r.len())
            } else {
                r.len() * i / k
            }
        };
        for i in 0..k {
            let page = match own.next().or_else(|| spare.pop()) {
                Some(page) => page,
                None => pool.allocate_page()?,
            };
            layout.push((page, r.start + cut(i)..r.start + cut(i + 1)));
        }
        spare.extend(own);
    }
    for (i, (page, r)) in layout.iter().enumerate() {
        let next = layout.get(i + 1).map_or(PageId::INVALID, |&(p, _)| p);
        let chunk = &bytes[r.clone()];
        let same = pool.with_page(*page, |p| {
            p.get_u32(0) == next.0
                && p.get_u32(4) as usize == chunk.len()
                && p.get_bytes(8, chunk.len()) == chunk
        })?;
        if !same {
            pool.with_page_mut(*page, |p| {
                p.put_u32(0, next.0);
                p.put_u32(4, chunk.len() as u32);
                p.put_bytes(8, chunk);
            })?;
        }
    }
    Ok(Chain {
        head: layout[0].0,
        len: bytes.len() as u64,
    })
}

/// The persisted meta read back through the pool: each section's bytes, in
/// [`SECTIONS`] order, and the pages of every chain holding them.
struct StoredMeta {
    sections: [Vec<u8>; 3],
    chains: Vec<(&'static str, Vec<PageId>)>,
}

fn read_meta(pool: &BufferPool, meta: &Meta) -> Result<StoredMeta, DbError> {
    match *meta {
        Meta::Sections(chains) => {
            let mut sections: [Vec<u8>; 3] = Default::default();
            let mut pages = Vec::with_capacity(SECTIONS.len());
            for s in SECTIONS {
                let (bytes, chain_pages) = read_chain(pool, s.name(), chains[s as usize])?;
                sections[s as usize] = bytes;
                pages.push((s.name(), chain_pages.into_iter().map(|(p, _)| p).collect()));
            }
            Ok(StoredMeta {
                sections,
                chains: pages,
            })
        }
        Meta::Blob(chain) => {
            let (blob, pages) = read_chain(pool, "meta blob", chain)?;
            let mut r = Reader {
                bytes: &blob,
                what: "meta blob",
            };
            let codebook = r.prefixed()?.to_vec();
            let tags = r.prefixed()?.to_vec();
            Ok(StoredMeta {
                sections: [codebook, tags, r.bytes.to_vec()],
                chains: vec![("meta blob", pages.into_iter().map(|(p, _)| p).collect())],
            })
        }
    }
}

/// A cursor over section bytes; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn truncated(&self) -> DbError {
        invalid_data(format!("{} truncated", self.what))
    }

    fn take(&mut self, n: u64) -> Result<&'a [u8], DbError> {
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.bytes.len())
            .ok_or_else(|| self.truncated())?;
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DbError> {
        self.take(N as u64)?
            .try_into()
            .map_err(|_| self.truncated())
    }

    fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` length and the bytes it prefixes.
    fn prefixed(&mut self) -> Result<&'a [u8], DbError> {
        let n = self.u64()?;
        self.take(n)
    }

    /// `count` entries of `width` bytes each, checked to be in the buffer
    /// before anything is allocated for them.
    fn count(&self, count: u64, width: usize) -> Result<usize, DbError> {
        usize::try_from(count)
            .ok()
            .filter(|&n| n <= self.bytes.len() / width)
            .ok_or_else(|| self.truncated())
    }
}

fn decode_codebook(bytes: &[u8]) -> Result<Codebook, DbError> {
    Codebook::from_bytes(bytes).map_err(|e| invalid_data(format!("codebook section: {e}")))
}

fn decode_tags(bytes: &[u8]) -> TagInterner {
    let mut tags = TagInterner::new();
    for name in String::from_utf8_lossy(bytes).split('\n') {
        tags.intern(name);
    }
    tags
}

fn decode_values(pool: &Arc<BufferPool>, bytes: &[u8]) -> Result<ValueStore, DbError> {
    let mut r = Reader {
        bytes,
        what: "values section",
    };
    let tail = r.u64()?;
    let n_pages = r.u32()?;
    let n_pages = r.count(n_pages.into(), 4)?;
    let mut pages = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        pages.push(PageId(r.u32()?));
    }
    let n_index = r.u64()?;
    let n_index = r.count(n_index, 20)?;
    let mut index = Vec::with_capacity(n_index);
    for _ in 0..n_index {
        index.push((r.u64()?, r.u64()?, r.u32()?));
    }
    if !r.bytes.is_empty() {
        return Err(invalid_data(format!(
            "values section has {} trailing bytes",
            r.bytes.len()
        )));
    }
    Ok(ValueStore::from_snapshot(pool.clone(), pages, tail, index)?)
}

/// Checks that no two meta chains share a page, and that none shares one
/// with the catalog, the structure chain or the value log.
fn check_disjoint(
    chains: &[(&'static str, Vec<PageId>)],
    store: &StructStore,
    values: &ValueStore,
) -> Result<(), String> {
    let mut owner: HashMap<PageId, &str> = HashMap::new();
    owner.insert(PageId(0), "catalog");
    for b in 0..store.block_count() {
        owner.insert(store.block_info(b).page, "structure chain");
    }
    for &p in values.log_pages() {
        owner.insert(p, "value log");
    }
    for (name, pages) in chains {
        for &p in pages {
            if let Some(other) = owner.insert(p, name) {
                return Err(format!("{name} shares page {p} with the {other}"));
            }
        }
    }
    Ok(())
}

/// Loads an image (any supported version) through `pool` into the complete
/// read-side state [`SecureXmlDb`] mirrors in memory: catalog, structure
/// chain, meta sections, value store, tag names, and the node index —
/// for [`SecureXmlDb::open_on`] (fresh handle) and [`SecureXmlDb::recover`]
/// (rebuilding a poisoned handle's mirrors in place). The pool's cache must
/// reflect the durable page state (fresh pool, or one whose cache was
/// discarded after write-ahead-log recovery).
pub(crate) fn load_image(pool: &Arc<BufferPool>) -> Result<MirrorSnapshot, DbError> {
    let cat = read_catalog(pool)?;
    let store = StructStore::open_chain(
        pool.clone(),
        StoreConfig {
            max_records_per_block: cat.max_records as usize,
        },
        cat.struct_first,
    )?;
    if store.total_nodes() != cat.total_nodes {
        return Err(invalid_data(format!(
            "block chain holds {} nodes, catalog says {}",
            store.total_nodes(),
            cat.total_nodes
        )));
    }
    let meta = read_meta(pool, &cat.meta)?;
    let [codebook, tags, values] = &meta.sections;
    let values = decode_values(pool, values)?;
    // Before decoding the rest: a section chain aliasing another chain's
    // pages would decode someone else's bytes.
    check_disjoint(&meta.chains, &store, &values).map_err(invalid_data)?;
    // The index is persisted bytes: a position past the last node names no
    // node, and the node index, which reads only records with a value, would
    // never notice.
    let nodes = store.total_nodes();
    if let Some((pos, _)) = values.iter_lens().find(|&(p, _)| p >= nodes) {
        return Err(invalid_data(format!(
            "value index names position {pos}, the store has {nodes} nodes"
        )));
    }
    let dol = EmbeddedDol::from_codebook(decode_codebook(codebook)?);
    let (tags, index) = (decode_tags(tags), NodeIndex::build(&store, &values)?);
    // The index files every record under its tag: one a node names that the
    // tags section lacks is missing from the sum.
    let named: usize = tags.iter().map(|(t, _)| index.by_tag(t).len()).sum();
    if named as u64 != nodes {
        return Err(invalid_data(format!(
            "{} of {nodes} nodes name a tag the tags section lacks",
            nodes - named as u64
        )));
    }
    Ok(MirrorSnapshot {
        dol: Arc::new(dol),
        tags: Arc::new(tags),
        index: Arc::new(index),
        store: Arc::new(store),
        values: Arc::new(values),
        view: Arc::default(),
    })
}

/// The persisted-meta half of [`SecureXmlDb::verify_integrity`]: the catalog
/// names `m`'s structure chain, every section decodes from the pool to
/// exactly the bytes its mirror encodes to, and the meta chains are disjoint
/// from each other, the catalog, the structure chain and the value log. A
/// wrong "clean" verdict in `rewrite_meta` fails here.
pub(crate) fn verify_meta(pool: &BufferPool, m: &MirrorSnapshot) -> Result<(), DbError> {
    // Format errors in what was read back are integrity failures; I/O
    // errors stay what they are.
    let integrity = |e: DbError| match e {
        DbError::Storage(StorageError::Io(io)) if io.kind() == std::io::ErrorKind::InvalidData => {
            DbError::Integrity(format!("persisted meta: {io}"))
        }
        e => e,
    };
    let cat = read_catalog(pool).map_err(integrity)?;
    let first = m.store.block_info(0).page;
    if cat.struct_first != first || cat.total_nodes != m.store.total_nodes() {
        return Err(DbError::Integrity(format!(
            "catalog names a {}-node structure chain at {}, the store is {} nodes at {first}",
            cat.total_nodes,
            cat.struct_first,
            m.store.total_nodes()
        )));
    }
    let stored = read_meta(pool, &cat.meta).map_err(integrity)?;
    check_disjoint(&stored.chains, &m.store, &m.values).map_err(DbError::Integrity)?;
    for s in SECTIONS {
        if stored.sections[s as usize] != s.encode(m) {
            return Err(DbError::Integrity(format!(
                "persisted {} differs from its live mirror",
                s.name()
            )));
        }
    }
    Ok(())
}

impl SecureXmlDb {
    /// Rewrites, on the current pool, the meta sections this transaction
    /// changed, then the catalog if a chain head moved. Called by `close`
    /// inside every update transaction of a persistent database, so catalog
    /// and sections recover atomically with the data pages.
    ///
    /// A section is kept, its chain named again and not even encoded, when
    /// its owner is still the `Arc` the transaction began with: `before`
    /// holds those, so every write in the transaction copied on write. A
    /// changed section is rewritten in place ([`rewrite_chain`]): a commit
    /// writes the pages whose bytes changed, and none when the encoding did
    /// not. A v2/v3 catalog names no sections: the first commit writes all
    /// three as fresh chains.
    pub(crate) fn rewrite_meta(&self) -> Result<(), DbError> {
        let before = self.txn.as_ref();
        let current = match read_catalog(&self.pool)?.meta {
            Meta::Sections(chains) => Some(chains),
            Meta::Blob(_) => None,
        };
        let mut chains = [Chain::NONE; 3];
        for s in SECTIONS {
            let old = current.map(|c| c[s as usize]);
            chains[s as usize] = match old {
                Some(old) if before.is_some_and(|b| s.same_owner(b, &self.mirrors)) => old,
                _ => {
                    let stored = match old {
                        Some(old) => read_chain(&self.pool, s.name(), old)?,
                        None => ChainRead::default(),
                    };
                    rewrite_chain(&self.pool, &stored, &s.encode(&self.mirrors))?
                }
            };
        }
        Ok(write_catalog(&self.pool, &self.mirrors.store, &chains)?)
    }

    /// Writes a compact canonical image of the database onto `disk` (which
    /// must be empty): catalog on page 0, structure re-packed from page 1,
    /// then the value log and the three meta sections.
    pub fn save_to_disk(&self, disk: Arc<dyn Disk>) -> Result<(), DbError> {
        let pool = Arc::new(BufferPool::new(disk, 256));
        let catalog_page = pool.allocate_page()?;
        debug_assert_eq!(catalog_page, PageId(0));

        // 1. Structure blocks, re-packed deterministically from page 1.
        let items = self
            .store()
            .read_block_range(0..self.store().block_count())?;
        let cfg = self.store().config();
        let new_store = StructStore::build(pool.clone(), cfg, items)?;

        // 2. Value log, re-packed in position order.
        let mut new_values = ValueStore::new(pool.clone());
        for (pos, _) in self.values().iter_lens() {
            if let Some(v) = self.values().get(pos)? {
                new_values.put(pos, &v)?;
            }
        }

        // 3. The sections of the re-packed state (positions, and so the
        // node index, are unchanged), then the catalog.
        let image = MirrorSnapshot {
            store: Arc::new(new_store),
            values: Arc::new(new_values),
            ..self.mirrors.clone()
        };
        let mut chains = [Chain::NONE; 3];
        for s in SECTIONS {
            chains[s as usize] = rewrite_chain(&pool, &ChainRead::default(), &s.encode(&image))?;
        }
        write_catalog(&pool, &image.store, &chains)?;
        pool.flush_all()?;
        pool.disk().sync()?;
        Ok(())
    }

    /// Writes the database to `path` atomically: the paired log at
    /// `path + ".wal"` is first drained to a logically empty state, then the
    /// image is built in `path + ".tmp"`, synced, renamed over `path`, and
    /// the parent directory is fsynced. The log is neutralized *before* the
    /// rename, so there is no window in which a stale log could replay over
    /// the fresh image, and never by truncating the file out-of-band:
    ///
    /// * on a live persistent handle saving to its own path, the pool is
    ///   [checkpointed](SecureXmlDb::checkpoint) *through the attached log*
    ///   (flush + sync + epoch bump, keeping the handle's cached log state
    ///   coherent), and the handle is then **poisoned** — the compacted
    ///   image has a different page layout, so further updates through this
    ///   handle must fail until it is reopened;
    /// * an orphan log at any other destination (left by a previously
    ///   opened database there) has its committed transactions recovered
    ///   onto the old image before the epoch bump, so a crash mid-save
    ///   still leaves the previous database exactly as it was.
    pub fn save_to(&self, path: &Path) -> Result<(), DbError> {
        let same_image = self.image_path.as_deref().is_some_and(|ip| {
            match (std::fs::canonicalize(ip), std::fs::canonicalize(path)) {
                (Ok(a), Ok(b)) => a == b,
                _ => ip == path,
            }
        });
        if same_image {
            // Flush + sync the data, epoch-bump the attached log.
            self.checkpoint()?;
        } else {
            let wal_file = wal_path(path);
            if wal_file.exists() {
                match Wal::open(Arc::new(FileDisk::open(&wal_file)?)) {
                    Ok(wal) if path.exists() => {
                        // Fold committed transactions into the old image and
                        // bump the epoch: the old database stays whole until
                        // the rename below, and nothing can replay after it.
                        wal.recover_onto(&FileDisk::open(path)?)
                            .map_err(DbError::Storage)?;
                    }
                    Ok(wal) => wal.checkpoint().map_err(DbError::Storage)?,
                    // An unreadable orphan log recovers nothing: reset it.
                    Err(_) => {
                        FileDisk::create(&wal_file)?;
                    }
                }
            }
        }
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        self.save_to_disk(Arc::new(FileDisk::create(&tmp)?))?;
        std::fs::rename(&tmp, path).map_err(StorageError::Io)?;
        // The rename must itself be durable before the save is reported
        // done: fsync the directory holding the entry.
        match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(StorageError::Io)?,
            _ => {}
        }
        if same_image {
            // The live handle's pool still addresses the superseded layout:
            // updates through it would log pages that mean nothing in the
            // compacted image. Queries stay valid (the old file handle
            // survives the rename); updates require a reopen. This poison is
            // *detached* — the image on disk no longer matches this pool, so
            // [`SecureXmlDb::recover`] refuses it too: only a reopen from
            // the path can continue.
            self.detached
                .store(true, std::sync::atomic::Ordering::Release);
            self.poisoned
                .store(true, std::sync::atomic::Ordering::Release);
        }
        Ok(())
    }

    /// Opens a database previously written by
    /// [`save_to`](SecureXmlDb::save_to), running write-ahead-log recovery
    /// from the paired `path + ".wal"` first. The returned database is
    /// *persistent*: every update transactionally rewrites the image.
    pub fn open_from(path: &Path) -> Result<SecureXmlDb, DbError> {
        let data: Arc<dyn Disk> = Arc::new(FileDisk::open(path)?);
        let wal = wal_path(path);
        let wal: Arc<dyn Disk> = if wal.exists() {
            Arc::new(FileDisk::open(&wal)?)
        } else {
            Arc::new(FileDisk::create(&wal)?)
        };
        let mut db = Self::open_on(data, wal, DbConfig::default())?;
        db.image_path = Some(path.to_path_buf());
        Ok(db)
    }

    /// Opens a database image on explicit data and log disks: replays the
    /// log onto `data` (redoing committed transactions, discarding torn
    /// tails), then loads the image and attaches the log so further updates
    /// are crash-consistent. The crash-recovery torture harness drives this
    /// with [`dol_storage::CrashDisk`]-wrapped [`dol_storage::MemDisk`]s.
    pub fn open_on(
        data: Arc<dyn Disk>,
        wal_disk: Arc<dyn Disk>,
        cfg: DbConfig,
    ) -> Result<SecureXmlDb, DbError> {
        let wal = Arc::new(Wal::open(wal_disk)?);
        wal.recover_onto(data.as_ref())?;

        let pool = Arc::new(BufferPool::new(data, cfg.buffer_pool_pages));
        let mirrors = load_image(&pool)?;
        pool.attach_wal(wal);
        Ok(Self::assemble(mirrors, pool, cfg, true))
    }
}

#[cfg(test)]
mod tests {
    use super::{
        read_catalog, read_chain, rewrite_chain, Chain, ChainRead, Meta, Section, CAT_MAX_RECORDS,
        CAT_SECTIONS, CAT_SECTION_SIZE, CAT_STRUCT_FIRST, CAT_TOTAL_NODES, CHAIN_CAP, SECTIONS,
    };
    use crate::{DbConfig, DbError, SecureXmlDb, Security};
    use dol_acl::{AccessibilityMap, SubjectId};
    use dol_storage::{BufferPool, Disk, MemDisk, PageId, StorageError};
    use dol_xml::NodeId;
    use std::sync::Arc;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("secure-xml-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The v4 section chains page 0 names.
    fn sections(data: &Arc<MemDisk>) -> [Chain; 3] {
        match read_catalog(&BufferPool::new(data.clone(), 16))
            .unwrap()
            .meta
        {
            Meta::Sections(chains) => chains,
            Meta::Blob(_) => panic!("expected a v4 catalog"),
        }
    }

    /// Writes `bytes` as a fresh chain.
    fn fresh_chain(pool: &BufferPool, bytes: &[u8]) -> Chain {
        rewrite_chain(pool, &ChainRead::default(), bytes).unwrap()
    }

    /// Points section `s` of the catalog on `pool` at `c`.
    fn set_section(pool: &BufferPool, s: Section, c: Chain) {
        pool.with_page_mut(PageId(0), |p| {
            let at = CAT_SECTIONS + s as usize * CAT_SECTION_SIZE;
            p.put_u32(at, c.head.0);
            p.put_u64(at + 4, c.len);
        })
        .unwrap();
    }

    #[test]
    fn save_open_roundtrip() {
        let xml = "<a><b att=\"7\"><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for p in [0u32, 4, 5, 6] {
            map.set(SubjectId(1), NodeId(p), true);
        }
        let db = SecureXmlDb::from_document(doc, &map).unwrap();
        let path = tmp("roundtrip.dolx");
        db.save_to(&path).unwrap();

        let back = SecureXmlDb::open_from(&path).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.document().to_xml(), db.document().to_xml());
        for p in 0..db.len() as u64 {
            for s in [SubjectId(0), SubjectId(1)] {
                assert_eq!(
                    back.accessible(p, s).unwrap(),
                    db.accessible(p, s).unwrap(),
                    "pos {p} subject {s}"
                );
            }
        }
        // Queries behave identically.
        for q in ["//c", "//d/e", "//b[@att=\"7\"]"] {
            for s in [Security::None, Security::BindingLevel(SubjectId(1))] {
                assert_eq!(
                    back.query(q, s).unwrap().matches,
                    db.query(q, s).unwrap().matches,
                    "{q}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_after_updates_preserves_state() {
        let xml = "<r><x>alpha</x><y><z>beta</z></y></r>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let mut db = SecureXmlDb::from_document(doc, &map).unwrap();
        db.set_subtree_access(2, SubjectId(0), false).unwrap();
        let extra = db.add_subject(Some(SubjectId(0))).unwrap();
        let path = tmp("updated.dolx");
        db.save_to(&path).unwrap();

        let back = SecureXmlDb::open_from(&path).unwrap();
        assert!(!back.accessible(2, SubjectId(0)).unwrap());
        assert!(back.accessible(1, extra).unwrap());
        assert_eq!(back.value(1).unwrap().as_deref(), Some("alpha"));
        assert_eq!(
            back.query("//z", Security::BindingLevel(SubjectId(0)))
                .unwrap()
                .matches
                .len(),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage.dolx");
        std::fs::write(&path, vec![0u8; 8192]).unwrap();
        assert!(SecureXmlDb::open_from(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn acl_edits_that_intern_no_code_leave_the_image_size_unchanged() {
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let data = Arc::new(MemDisk::new());
        db.save_to_disk(data.clone()).unwrap();
        let mut live =
            SecureXmlDb::open_on(data.clone(), Arc::new(MemDisk::new()), DbConfig::default())
                .unwrap();
        // One subject has two possible ACLs; the first revoke interns the
        // second, and from then on every edit reuses one of the two.
        live.set_node_access(1, SubjectId(0), false).unwrap();
        live.checkpoint().unwrap();
        let (pages, codes, chains) = (
            data.num_pages(),
            live.dol().codebook().len(),
            sections(&data),
        );
        for i in 0..12u64 {
            live.set_node_access(1 + i % 5, SubjectId(0), i % 3 == 0)
                .unwrap();
        }
        assert_eq!(live.dol().codebook().len(), codes, "no code interned");
        assert_eq!(data.num_pages(), pages, "an ACL edit allocated a page");
        live.checkpoint().unwrap();
        assert_eq!(sections(&data), chains, "a clean section was rewritten");
        live.verify_integrity().unwrap();
    }

    /// An in-place rewrite of a ten-page section writes the pages an edit
    /// touches: equal bytes write nothing, an insertion near the start and a
    /// change near the end write three pages and allocate one (the page the
    /// insertion overflowed splits in two), and the next insertion lands in
    /// the split page's room. Bytes that repeat with a short period still
    /// read back exactly.
    #[test]
    fn an_in_place_section_rewrite_writes_the_pages_an_edit_touches() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 64);
        let rewrite = |from: Chain, bytes: &[u8]| {
            let stored = read_chain(&pool, "test", from).unwrap();
            let (io, pages) = (pool.stats(), pool.disk().num_pages());
            let chain = rewrite_chain(&pool, &stored, bytes).unwrap();
            pool.flush_all().unwrap();
            assert_eq!(read_chain(&pool, "test", chain).unwrap().0, bytes);
            let writes = pool.stats().since(&io).physical_writes;
            (chain, writes, pool.disk().num_pages() - pages)
        };
        let mut x = 1u64;
        let mut bytes: Vec<u8> = (0..10 * CHAIN_CAP)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        let chain = fresh_chain(&pool, &bytes);
        pool.flush_all().unwrap();
        assert_eq!(rewrite(chain, &bytes), (chain, 0, 0), "equal bytes");

        bytes.splice(100..100, [7u8; 20]);
        let end = bytes.len() - 50;
        bytes[end] ^= 1;
        let (edited, writes, grown) = rewrite(chain, &bytes);
        assert_eq!((edited.head, writes, grown), (chain.head, 3, 1));
        bytes.splice(200..200, [9u8; 20]);
        let (_, writes, grown) = rewrite(edited, &bytes);
        assert_eq!((writes, grown), (1, 0));

        let periodic: Vec<u8> = (0..4 * CHAIN_CAP).map(|i| (i / 300 % 7) as u8).collect();
        let chain = fresh_chain(&pool, &periodic);
        let mut edited = periodic.clone();
        edited.splice(1000..1000, [5u8; 30]);
        edited.truncate(3 * CHAIN_CAP);
        rewrite(chain, &edited);
    }

    #[test]
    fn a_structural_update_rewrites_the_values_section_only() {
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let data = Arc::new(MemDisk::new());
        db.save_to_disk(data.clone()).unwrap();
        let mut live =
            SecureXmlDb::open_on(data.clone(), Arc::new(MemDisk::new()), DbConfig::default())
                .unwrap();
        let before = sections(&data);
        // Known tags only: the tags section's bytes do not change either.
        let graft = dol_xml::parse("<d><e>v3</e></d>").unwrap();
        live.insert_subtree(0, &graft).unwrap();
        live.checkpoint().unwrap();
        let after = sections(&data);
        let [codebook, tags, values] = [0, 1, 2].map(|i| before[i] == after[i]);
        assert!(codebook, "the codebook section was rewritten");
        assert!(tags, "the tags section was rewritten");
        assert!(!values, "the values section was not rewritten");
        live.verify_integrity().unwrap();
        drop(live);
        let back =
            SecureXmlDb::open_on(data, Arc::new(MemDisk::new()), DbConfig::default()).unwrap();
        assert_eq!(
            back.query("//d/e", Security::None).unwrap().matches.len(),
            2
        );
    }

    #[test]
    fn verify_integrity_catches_a_stale_or_aliased_section() {
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let data = Arc::new(MemDisk::new());
        db.save_to_disk(data.clone()).unwrap();
        let live =
            SecureXmlDb::open_on(data.clone(), Arc::new(MemDisk::new()), DbConfig::default())
                .unwrap();
        live.verify_integrity().unwrap();
        let chains = sections(&data);
        let cases: [(&str, Section, Chain); 2] = [
            (
                "tags section differs",
                Section::Tags,
                fresh_chain(&live.pool, b"a\nb"),
            ),
            (
                "shares page",
                Section::Tags,
                chains[Section::Codebook as usize],
            ),
        ];
        for (expect, s, chain) in cases {
            let alias = Chain {
                len: live
                    .pool
                    .with_page(chain.head, |p| p.get_u32(4))
                    .unwrap()
                    .into(),
                ..chain
            };
            set_section(&live.pool, s, alias);
            match live.verify_integrity() {
                Err(DbError::Integrity(msg)) => assert!(msg.contains(expect), "{msg}"),
                other => panic!("{expect}: {other:?}"),
            }
            set_section(&live.pool, s, chains[s as usize]);
            live.verify_integrity().unwrap();
        }
    }

    /// Every hostile edit of a saved image's catalog or section chains —
    /// each field zeroed or bit-flipped, two sections at one head, a chain
    /// that cycles or runs past its length, a page whose length header
    /// lies, a record naming a tag that does not exist — is a typed open
    /// error, never a panic and never a database.
    #[test]
    fn hostile_catalogs_and_chains_are_typed_open_errors() {
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let base = Arc::new(MemDisk::new());
        db.save_to_disk(base.clone()).unwrap();
        let chains = sections(&base);
        let pages: Vec<Vec<PageId>> = {
            let pool = BufferPool::new(base.clone(), 16);
            SECTIONS
                .iter()
                .map(|&s| {
                    let (_, pages) = read_chain(&pool, s.name(), chains[s as usize]).unwrap();
                    pages.into_iter().map(|(p, _)| p).collect()
                })
                .collect()
        };

        type Edit = Box<dyn Fn(&BufferPool)>;
        let mut cases: Vec<(String, Edit)> = Vec::new();
        let mut fields = vec![
            ("magic", 0, 4),
            ("version", 4, 4),
            ("structure head", CAT_STRUCT_FIRST, 4),
            ("records per block", CAT_MAX_RECORDS, 4),
            ("node count", CAT_TOTAL_NODES, 8),
        ];
        for s in SECTIONS {
            let at = CAT_SECTIONS + s as usize * CAT_SECTION_SIZE;
            fields.push((s.name(), at, 4));
            fields.push((s.name(), at + 4, 8));
        }
        for (field, at, width) in fields {
            // Records per block is a build parameter: any valid value opens
            // the same database, so only the invalid ones are hostile.
            let low_bit = field != "records per block";
            for (edit, mask) in [
                ("zeroed", None),
                ("low bit", Some(0)),
                ("top bit", Some(width * 8 - 1)),
            ] {
                if edit == "low bit" && !low_bit {
                    continue;
                }
                cases.push((
                    format!("{field} @{at}: {edit}"),
                    Box::new(move |pool: &BufferPool| {
                        pool.with_page_mut(PageId(0), |p| match (width, mask) {
                            (4, None) => p.put_u32(at, 0),
                            (4, Some(b)) => p.put_u32(at, p.get_u32(at) ^ (1 << b)),
                            (_, None) => p.put_u64(at, 0),
                            (_, Some(b)) => p.put_u64(at, p.get_u64(at) ^ (1 << b)),
                        })
                        .unwrap();
                    }),
                ));
            }
        }
        for a in SECTIONS {
            for b in SECTIONS.into_iter().filter(|&b| b != a) {
                let (alias, own_len) = (chains[a as usize], chains[b as usize].len);
                cases.push((
                    format!("{} at the {}'s head", b.name(), a.name()),
                    Box::new(move |pool| set_section(pool, b, alias)),
                ));
                cases.push((
                    format!("{} at the {}'s head, own length", b.name(), a.name()),
                    Box::new(move |pool| {
                        set_section(
                            pool,
                            b,
                            Chain {
                                len: own_len,
                                ..alias
                            },
                        )
                    }),
                ));
            }
        }
        for s in SECTIONS {
            let (head, last) = (pages[s as usize][0], *pages[s as usize].last().unwrap());
            let chain = chains[s as usize];
            cases.push((
                format!("{} cycles", s.name()),
                Box::new(move |pool| pool.with_page_mut(last, |p| p.put_u32(0, head.0)).unwrap()),
            ));
            cases.push((
                format!("{} cycles under a huge length", s.name()),
                Box::new(move |pool| {
                    pool.with_page_mut(last, |p| p.put_u32(0, head.0)).unwrap();
                    set_section(
                        pool,
                        s,
                        Chain {
                            len: u64::MAX,
                            ..chain
                        },
                    );
                }),
            ));
            cases.push((
                format!("{} runs past its length", s.name()),
                Box::new(move |pool| {
                    let extra = fresh_chain(pool, b"tail");
                    pool.with_page_mut(last, |p| p.put_u32(0, extra.head.0))
                        .unwrap();
                }),
            ));
            cases.push((
                format!("{} one byte shorter than its chain", s.name()),
                Box::new(move |pool| {
                    set_section(
                        pool,
                        s,
                        Chain {
                            len: chain.len - 1,
                            ..chain
                        },
                    )
                }),
            ));
            for (what, len) in [("truncated", 0), ("too long", CHAIN_CAP as u32 + 1)] {
                cases.push((
                    format!("{} head page length {what}", s.name()),
                    Box::new(move |pool| pool.with_page_mut(head, |p| p.put_u32(4, len)).unwrap()),
                ));
            }
        }

        cases.push((
            "tags section without the names the records use".into(),
            Box::new(|pool| set_section(pool, Section::Tags, fresh_chain(pool, b"a"))),
        ));

        assert!(cases.len() > 60, "{} cases", cases.len());
        // The control: the unedited image opens.
        SecureXmlDb::open_on(
            Arc::new(base.fork()),
            Arc::new(MemDisk::new()),
            DbConfig::default(),
        )
        .unwrap();
        for (name, edit) in cases {
            let disk = Arc::new(base.fork());
            {
                let pool = BufferPool::new(disk.clone(), 16);
                edit(&pool);
                pool.flush_all().unwrap();
            }
            let opened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SecureXmlDb::open_on(disk, Arc::new(MemDisk::new()), DbConfig::default())
            }));
            match opened {
                Err(_) => panic!("{name}: open panicked"),
                Ok(Ok(_)) => panic!("{name}: the hostile image opened"),
                Ok(Err(DbError::Storage(_))) => {}
                Ok(Err(e)) => panic!("{name}: not a storage error: {e}"),
            }
        }
    }

    #[test]
    fn value_index_naming_a_missing_node_is_a_typed_open_error() {
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let data = Arc::new(MemDisk::new());
        db.save_to_disk(data.clone()).unwrap();
        // Corrupt the image the way a bad sector would, checksums intact:
        // point the last value-index entry (`pos u64 | off u64 | len u32`,
        // the final 20 bytes of the values section) at a position the
        // document does not have, and chain the edited section from the
        // catalog.
        {
            let pool = BufferPool::new(data.clone(), 16);
            let chain = sections(&data)[Section::Values as usize];
            let (mut values, _) = read_chain(&pool, "values", chain).unwrap();
            let at = values.len() - 20;
            values[at..at + 8].copy_from_slice(&10_000u64.to_le_bytes());
            set_section(&pool, Section::Values, fresh_chain(&pool, &values));
            pool.flush_all().unwrap();
        }
        let opened = SecureXmlDb::open_on(data, Arc::new(MemDisk::new()), DbConfig::default());
        assert!(matches!(
            opened.err(),
            Some(DbError::Storage(StorageError::Io(e))) if e.kind() == std::io::ErrorKind::InvalidData
        ));
    }

    #[test]
    fn updates_on_reopened_database_persist_without_save() {
        // The point of the journaled layout: a persistent database's updates
        // survive a plain drop + reopen, with no explicit save_to.
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(1), NodeId(0), true);
        let db = SecureXmlDb::from_document(doc, &map).unwrap();
        let path = tmp("journaled.dolx");
        db.save_to(&path).unwrap();
        drop(db);

        {
            let mut live = SecureXmlDb::open_from(&path).unwrap();
            live.set_subtree_access(3, SubjectId(1), true).unwrap();
            live.delete_subtree(1).unwrap();
            let s2 = live.add_subject(Some(SubjectId(1))).unwrap();
            assert!(live.accessible(1, s2).unwrap());
            live.checkpoint().unwrap();
        }
        let back = SecureXmlDb::open_from(&path).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(back.len(), 4);
        assert!(
            back.accessible(1, SubjectId(1)).unwrap(),
            "d subtree granted"
        );
        assert!(back.accessible(1, SubjectId(2)).unwrap(), "copied subject");
        assert_eq!(back.value(2).unwrap().as_deref(), Some("v2"));
        std::fs::remove_file(&path).ok();
    }

    fn all_access_db(xml: &str) -> SecureXmlDb {
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        SecureXmlDb::from_document(doc, &map).unwrap()
    }

    #[test]
    fn stale_wal_never_replays_over_a_fresh_save() {
        // A handle dropped without a checkpoint leaves committed
        // transactions in the paired log; saving a *different* database to
        // the same path must not let them replay over the fresh image.
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let path = tmp("stale-wal.dolx");
        db.save_to(&path).unwrap();
        {
            let mut live = SecureXmlDb::open_from(&path).unwrap();
            live.delete_subtree(1).unwrap();
            // No checkpoint: the delete lives only in the log.
        }
        let db2 = all_access_db("<r><x>other</x></r>");
        db2.save_to(&path).unwrap();

        let back = SecureXmlDb::open_from(&path).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(back.document().to_xml(), db2.document().to_xml());
        assert_eq!(back.value(1).unwrap().as_deref(), Some("other"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::wal_path(&path)).ok();
    }

    #[test]
    fn persistent_recover_matches_a_fresh_reopen() {
        use dol_storage::{FaultConfig, FaultDisk};
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let data = Arc::new(MemDisk::new());
        db.save_to_disk(data.clone()).unwrap();
        let fault = Arc::new(FaultDisk::new(
            data.clone(),
            FaultConfig {
                seed: 11,
                permanent_read_failure: 1.0,
                ..Default::default()
            },
        ));
        fault.set_armed(false);
        let wal = Arc::new(MemDisk::new());
        let mut live =
            SecureXmlDb::open_on(fault.clone(), wal.clone(), DbConfig::default()).unwrap();
        // A committed update that lives in the log.
        live.set_subtree_access(3, SubjectId(0), false).unwrap();
        let expect_xml = live.document().to_xml();

        // Poison: with the cache cold and reads failing permanently, the
        // next transaction dies inside its body.
        live.pool.clear_cache().unwrap();
        fault.set_armed(true);
        assert!(live.set_node_access(1, SubjectId(0), false).is_err());
        assert!(live.is_poisoned());
        fault.set_armed(false);

        // In-process recovery replays the log and rebuilds the mirrors.
        let report = live.recover().unwrap();
        assert!(report.is_some(), "persistent recovery replays the log");
        assert!(!live.is_poisoned());
        live.verify_integrity().unwrap();
        assert_eq!(live.document().to_xml(), expect_xml);
        assert!(!live.accessible(3, SubjectId(0)).unwrap());

        // Equivalent to dropping the handle and reopening the same disks.
        let back = SecureXmlDb::open_on(
            Arc::new(data.fork()),
            Arc::new(wal.fork()),
            DbConfig::default(),
        )
        .unwrap();
        assert_eq!(back.document().to_xml(), expect_xml);
        for p in 0..back.len() as u64 {
            assert_eq!(
                back.accessible(p, SubjectId(0)).unwrap(),
                live.accessible(p, SubjectId(0)).unwrap(),
                "pos {p}"
            );
        }

        // The healed handle accepts and persists updates again.
        live.set_node_access(1, SubjectId(0), false).unwrap();
        assert!(!live.accessible(1, SubjectId(0)).unwrap());
    }

    #[test]
    fn detached_handle_refuses_in_process_recovery() {
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let path = tmp("detached.dolx");
        db.save_to(&path).unwrap();
        let mut live = SecureXmlDb::open_from(&path).unwrap();
        live.delete_subtree(4).unwrap();
        // Same-path compaction detaches the handle from the on-disk layout:
        // recovery is impossible in process, only a reopen can continue.
        live.save_to(&path).unwrap();
        assert!(live.is_poisoned());
        assert!(matches!(live.recover(), Err(DbError::Poisoned)));
        assert!(live.is_poisoned());
        // Queries still serve (degraded mode on the old layout).
        assert_eq!(live.query("//c", Security::None).unwrap().matches.len(), 1);
        drop(live);
        let back = SecureXmlDb::open_from(&path).unwrap();
        back.verify_integrity().unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::wal_path(&path)).ok();
    }

    #[test]
    fn save_to_own_path_compacts_and_poisons() {
        let db = all_access_db("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>");
        let path = tmp("compact.dolx");
        db.save_to(&path).unwrap();

        let mut live = SecureXmlDb::open_from(&path).unwrap();
        live.delete_subtree(4).unwrap(); // a structural update in the log
        let expect = live.document().to_xml();
        // Compacting onto its own path checkpoints through the attached
        // log, then poisons the handle: its pool and cached log state
        // address the superseded layout.
        live.save_to(&path).unwrap();
        assert!(live.is_poisoned());
        assert!(matches!(
            live.set_node_access(1, SubjectId(0), false),
            Err(DbError::Poisoned)
        ));
        // Queries on the live handle keep working: the renamed-over inode
        // stays open underneath its pool.
        assert_eq!(live.query("//c", Security::None).unwrap().matches.len(), 1);
        drop(live);

        let back = SecureXmlDb::open_from(&path).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(back.document().to_xml(), expect);
        assert_eq!(back.value(2).unwrap().as_deref(), Some("v1"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::wal_path(&path)).ok();
    }
}
