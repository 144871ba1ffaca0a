//! Query-serving caches: a small generic LRU and the compiled-plan cache.
//!
//! The serve path re-issues a handful of hot query strings thousands of
//! times. Re-lexing, re-planning, and re-lowering each is pure waste:
//! [`PlanCache`] interns `fnv1a(query) → `[`PlanEntry`]` {plan, compiled}` so
//! a warm query costs one integer-keyed lookup (the stored query string is
//! verified on hit, so hash collisions are harmless) and the query→automaton
//! lowering ([`CompiledPlan`]) happens once per tag space. [`LruCache`] is
//! the shared mechanism — it also backs the secure result cache at the
//! database layer, keyed by `(fnv1a(query), security, view stamp)` with the
//! query and the subject's closure verified on hit.
//!
//! Both are internally synchronized (one mutex around a tick-stamped hash
//! map) and count hits/misses with relaxed atomics so serving threads can
//! share one instance behind an `Arc` and the harness can report hit rates
//! without extra locking. Eviction is exact LRU by access tick; the O(n)
//! victim scan is irrelevant at the intended capacities (tens to a few
//! thousand entries).

use crate::compiled::CompiledPlan;
use crate::plan::QueryPlan;
use crate::xpath::{parse_query, QueryParseError};
use dol_xml::TagInterner;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a over a query string — the shared cache-key hash. Callers key the
/// plan and result caches by this `u64` instead of cloning the full `String`
/// per lookup; the (astronomically unlikely) collision case is handled by
/// verifying the stored query string on every hit.
#[inline]
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct LruInner<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
}

/// A thread-safe fixed-capacity LRU map with hit/miss accounting.
///
/// Values are returned by clone; intended use is `V = Arc<T>` (or another
/// cheaply clonable handle) so a hit is one lookup plus one refcount bump.
pub struct LruCache<K, V> {
    inner: Mutex<LruInner<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU cache needs at least one slot");
        Self {
            inner: Mutex::new(LruInner {
                map: HashMap::with_capacity(capacity),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `key` up. A hit is an entry under `key` that `accept` takes
    /// (the caller's check that the entry answers its exact question, which
    /// the key only hashes); it refreshes the entry's recency. Counts one
    /// hit or miss.
    pub fn get<Q>(&self, key: &Q, accept: impl FnOnce(&V) -> bool) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let found = self.probe(key, accept);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// [`get`](Self::get) for a caller that, finding nothing, hands the
    /// question to a path ending in a full `get` of the same key: a hit
    /// counts (and refreshes recency) as usual, a miss is left for that later
    /// lookup to count, so `hits + misses` stays the number of questions
    /// asked.
    pub fn probe<Q>(&self, key: &Q, accept: impl FnOnce(&V) -> bool) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let (v, used) = inner.map.get_mut(key)?;
        if !accept(v) {
            return None;
        }
        *used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(v.clone())
    }

    /// Inserts (or replaces) `key`, evicting the least recently used entry
    /// when the cache is full.
    pub fn insert(&self, key: K, value: V) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // One key clone per eviction (the borrow must end before the
            // map is mutated), never per hit.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(key, (value, tick));
    }

    /// Drops every entry (the wholesale invalidation path). Hit/miss
    /// counters are preserved — they describe the workload, not the content.
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One cached query: the parsed plan plus, lazily, its compiled lowering.
///
/// The compiled half is fenced by the tag space it was lowered against
/// ([`CompiledPlan::is_current`]); a stale lowering is replaced in place
/// without re-parsing.
pub struct PlanEntry {
    /// The exact query string this entry was parsed from — verified on every
    /// hash hit to make FNV collisions harmless.
    query: Box<str>,
    /// The parsed, decomposed plan.
    plan: Arc<QueryPlan>,
    /// The lowered automaton, if any lowering has happened yet.
    compiled: Mutex<Option<Arc<CompiledPlan>>>,
}

impl PlanEntry {
    /// The parsed plan.
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }
}

/// An LRU of parsed (and lazily compiled) query plans keyed by the FNV-1a
/// hash of the query string — lookups never clone or allocate the key.
pub struct PlanCache {
    plans: LruCache<u64, Arc<PlanEntry>>,
    compiles: AtomicU64,
}

impl PlanCache {
    /// Creates a plan cache holding at most `capacity` compiled plans.
    pub fn new(capacity: usize) -> Self {
        Self {
            plans: LruCache::new(capacity),
            compiles: AtomicU64::new(0),
        }
    }

    /// The cache entry for `query`: from the cache if warm (string-verified
    /// against hash collisions), otherwise parsed, planned, and cached.
    /// Parse errors are not cached (they are cheap to rediscover and should
    /// not occupy slots).
    pub fn entry(&self, query: &str) -> Result<Arc<PlanEntry>, QueryParseError> {
        let key = fnv1a(query);
        // A colliding key misses and is overwritten with the newcomer.
        if let Some(entry) = self.plans.get(&key, |e| &*e.query == query) {
            return Ok(entry);
        }
        let plan = Arc::new(QueryPlan::new(parse_query(query)?));
        let entry = Arc::new(PlanEntry {
            query: query.into(),
            plan,
            compiled: Mutex::new(None),
        });
        self.plans.insert(key, Arc::clone(&entry));
        Ok(entry)
    }

    /// The parsed plan *and* its compiled lowering for `query`, lowering (or
    /// re-lowering) against `tags` only when the cached automaton is missing
    /// or stale for that tag space.
    pub fn get_or_compile(
        &self,
        query: &str,
        tags: &TagInterner,
    ) -> Result<(Arc<QueryPlan>, Arc<CompiledPlan>), QueryParseError> {
        let entry = self.entry(query)?;
        let mut slot = entry.compiled.lock();
        if let Some(c) = slot.as_ref() {
            if c.is_current(tags) {
                return Ok((Arc::clone(&entry.plan), Arc::clone(c)));
            }
        }
        let compiled = Arc::new(CompiledPlan::compile(&entry.plan, tags));
        self.compiles.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&compiled));
        Ok((Arc::clone(&entry.plan), compiled))
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.plans.hits()
    }

    /// Lookups that had to parse.
    pub fn misses(&self) -> u64 {
        self.plans.misses()
    }

    /// Plan lowerings performed (first compilations plus tag-space
    /// recompilations).
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: LruCache<u32, Arc<u32>> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        assert_eq!(cache.get(&1, |_| true).as_deref(), Some(&10)); // 1 now most recent
        cache.insert(3, Arc::new(30)); // evicts 2
        assert_eq!(cache.get(&2, |_| true), None);
        assert_eq!(cache.get(&1, |_| true).as_deref(), Some(&10));
        assert_eq!(cache.get(&3, |_| true).as_deref(), Some(&30));
        // An entry the caller refuses is a miss.
        assert_eq!(cache.get(&3, |v| **v != 30), None);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn plan_cache_parses_once() {
        let cache = PlanCache::new(8);
        let a = cache.entry("//item//emph").unwrap();
        let b = cache.entry("//item//emph").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!(cache.entry("not a { query").is_err());
    }

    #[test]
    fn plan_cache_compiles_once_per_tag_space() {
        let cache = PlanCache::new(8);
        let mut tags = TagInterner::new();
        tags.intern("item");
        tags.intern("emph");
        let (p1, c1) = cache.get_or_compile("//item//emph", &tags).unwrap();
        let (p2, c2) = cache.get_or_compile("//item//emph", &tags).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert!(Arc::ptr_eq(&c1, &c2), "same tag space must reuse");
        assert_eq!(cache.compiles(), 1);
        // Growing the tag space invalidates the lowering but not the plan.
        tags.intern("keyword");
        let (p3, c3) = cache.get_or_compile("//item//emph", &tags).unwrap();
        assert!(Arc::ptr_eq(&p1, &p3), "parse survives tag growth");
        assert!(!Arc::ptr_eq(&c1, &c3), "stale lowering must be replaced");
        assert_eq!(cache.compiles(), 2);
        let (_, c4) = cache.get_or_compile("//item//emph", &tags).unwrap();
        assert!(Arc::ptr_eq(&c3, &c4));
        assert_eq!(cache.compiles(), 2);
    }

    #[test]
    fn fnv1a_is_stable_and_distinguishes() {
        // Pinned FNV-1a test vectors (offset basis / single byte).
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a("//item//emph"), fnv1a("//item//emp"));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache: LruCache<String, Arc<u32>> = LruCache::new(4);
        cache.insert("a".into(), Arc::new(1));
        assert!(cache.get("a", |_| true).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get("a", |_| true).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }
}
