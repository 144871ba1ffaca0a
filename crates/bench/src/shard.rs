//! `shard` — [`ShardedDb`] chaos harness: crash-consistent cross-shard
//! commit and fault-isolated scatter-gather, tortured end to end (not a
//! paper artifact).
//!
//! Two phases, both gated (the run *is* the assertion — any violation
//! panics):
//!
//! 1. **Every-write-point multi-shard crash sweep.** A mixed stream of ACL
//!    updates — cross-shard (position 0: a two-phase commit over every
//!    shard's WAL plus the shard catalog) and single-shard — runs on an
//!    oracle pass that forks every shard's data and log disk plus the
//!    catalog disk after each update and fingerprints each state `S_i`
//!    (the full accessibility matrix + the secure answers of a query suite
//!    spanning all three scatter classes). Then, for each update, ONE
//!    [`CrashState`] power rail spanning *all seven disks* is cut after
//!    `k` writes for every sampled `k` in the update's write window
//!    (odd `k` tears the fatal write at a sector boundary; the window
//!    includes the reopen itself, so crashes *inside recovery* are swept
//!    too). The raw disks are then reopened — running catalog-driven
//!    recovery on every shard — integrity-checked and fingerprinted.
//!    Gates: **zero unrecoverable images, zero cross-shard mixed epochs**
//!    (every fingerprint is exactly `S_i` or `S_{i+1}`, and the catalog's
//!    decided count always agrees with the surviving state).
//!
//! 2. **Quarantine/brownout soak.** A fresh sharded database serves
//!    reader threads (the query suite under three subjects and both
//!    secure semantics) and one cross-shard updater (root-subtree access
//!    toggles through 2PC) while the driver repeatedly (a) arms a
//!    100%-transient-fault layer under one shard's data disk until that
//!    shard's circuit breaker trips — the shard is quarantined, queries
//!    touching it fail whole with the typed [`DbError::ShardUnavailable`],
//!    queries provably confined to the healthy shards keep answering
//!    exactly — then heals it **in process** with
//!    [`ShardedDb::recover_shard`], concurrently with serving; and then
//!    (b) cuts the shared power rail mid-commit, "reboots" by reopening
//!    the facade from the surviving disks, and asserts the interrupted
//!    toggle landed all-or-nothing across every shard. Gates: **zero
//!    wrong answers, zero unexpected errors, zero cross-shard mixed
//!    epochs, zero unrecovered quarantine windows**, and the typed
//!    refusal, healthy-confined-exactness and breaker-trip paths all
//!    observed at least once.
//!
//! Per-shard counters (breaker state, poison latch, epochs, quarantines,
//! in-process recoveries) are printed as result-table columns and written
//! to `BENCH_shard.json`.

use crate::setup::xmark_doc;
use crate::table::Table;
use crate::Effort;
use dol_acl::SubjectId;
use dol_storage::{CrashDisk, CrashState, Disk, FaultConfig, FaultDisk, MemDisk};
use dol_workloads::{synth_multi, SynthAclConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::{DbConfig, DbError, RetryPolicy, SecureXmlDb, Security, ShardedDb};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed seed used when the caller does not supply one (CI does not).
pub const DEFAULT_SEED: u64 = 13_639_585;

const SHARDS: usize = 3;
const SUBJECTS: usize = 3;
/// The toggled subject of the soak's cross-shard updater.
const TOGGLE: SubjectId = SubjectId(1);

/// Query suite spanning all three scatter classes over the XMark shape:
/// *Local* (the pattern root cannot bind the document root),
/// *Root-decompose* (anchored at / compatible with `site`), and *Global*
/// (a following-sibling step at depth 1 can straddle a shard boundary).
const SUITE: &[(&str, &str)] = &[
    ("L1", "//item[name]"),
    ("L2", "//listitem//keyword"),
    ("L3", "//person[name]/emailaddress"),
    ("R1", "/site/regions//item[name]"),
    ("R2", "/site[regions][people]"),
    ("R3", "//site//keyword"),
    ("G1", "/site/regions~categories"),
];

fn cfg() -> DbConfig {
    DbConfig {
        // Deliberately tiny: commits must spill and fault pages back in, so
        // each shard's data-page writes interleave with its WAL writes and
        // the catalog append inside the crash window.
        buffer_pool_pages: 24,
        max_records_per_block: 16,
        epoch_retain: 4,
    }
}

fn acl_config(seed: u64) -> SynthAclConfig {
    SynthAclConfig {
        propagation_ratio: 0.05,
        accessibility_ratio: 0.6,
        sibling_locality: 0.5,
        seed,
    }
}

// ---------------------------------------------------------------------------
// Disk images
// ---------------------------------------------------------------------------

/// Per-shard `(data, wal)` disk pairs plus the catalog disk, ready for
/// [`ShardedDb::build_on`] / [`ShardedDb::open_on`].
type Stacks = (Vec<secure_xml::DiskPair>, Arc<dyn Disk>);

/// The seven raw disks of one sharded database: per-shard (data, wal)
/// pairs plus the shard catalog.
struct Images {
    shards: Vec<(Arc<MemDisk>, Arc<MemDisk>)>,
    catalog: Arc<MemDisk>,
}

impl Images {
    fn fresh() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| (Arc::new(MemDisk::new()), Arc::new(MemDisk::new())))
                .collect(),
            catalog: Arc::new(MemDisk::new()),
        }
    }

    /// Copy-snapshot of the current contents.
    fn snapshot(&self) -> Self {
        Self {
            shards: self
                .shards
                .iter()
                .map(|(d, w)| (Arc::new(d.fork()), Arc::new(w.fork())))
                .collect(),
            catalog: Arc::new(self.catalog.fork()),
        }
    }

    /// The raw disks as trait objects (no fault layers).
    fn raw(&self) -> Stacks {
        (
            self.shards
                .iter()
                .map(|(d, w)| (d.clone() as Arc<dyn Disk>, w.clone() as Arc<dyn Disk>))
                .collect(),
            self.catalog.clone() as Arc<dyn Disk>,
        )
    }

    /// Every disk behind one shared power rail.
    fn railed(&self, rail: &Arc<CrashState>) -> Stacks {
        (
            self.shards
                .iter()
                .map(|(d, w)| {
                    (
                        Arc::new(CrashDisk::new(d.clone(), rail.clone())) as Arc<dyn Disk>,
                        Arc::new(CrashDisk::new(w.clone(), rail.clone())) as Arc<dyn Disk>,
                    )
                })
                .collect(),
            Arc::new(CrashDisk::new(self.catalog.clone(), rail.clone())) as Arc<dyn Disk>,
        )
    }
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over everything observable through the facade: the whole
/// accessibility matrix plus the secure answers of [`SUITE`] under every
/// subject. One shard serving the wrong epoch flips the fingerprint.
fn fingerprint(db: &ShardedDb) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let n = db.len() as u64;
    for s in 0..SUBJECTS as u32 {
        for p in 0..n {
            fnv(
                &mut h,
                &[u8::from(
                    db.accessible(p, SubjectId(s)).expect("accessible"),
                )],
            );
        }
    }
    for (_, q) in SUITE {
        for s in 0..SUBJECTS as u32 {
            let res = db
                .query(q, Security::BindingLevel(SubjectId(s)))
                .expect("suite query");
            for m in res.matches {
                fnv(&mut h, &m.to_le_bytes());
            }
            fnv(&mut h, b";");
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Phase 1: every-write-point crash sweep
// ---------------------------------------------------------------------------

/// One ACL update of the sweep workload, positions pre-resolved so replays
/// are exact.
#[derive(Clone, Copy)]
enum Op {
    Node(u64, u32, bool),
    Subtree(u64, u32, bool),
}

impl Op {
    fn kind(&self) -> &'static str {
        match self {
            Op::Node(0, ..) => "set-node (cross-shard)",
            Op::Node(..) => "set-node",
            Op::Subtree(0, ..) => "set-subtree (cross-shard)",
            Op::Subtree(..) => "set-subtree",
        }
    }

    fn apply(&self, db: &ShardedDb) -> Result<(), DbError> {
        match *self {
            Op::Node(p, s, a) => db.set_node_access(p, SubjectId(s), a),
            Op::Subtree(p, s, a) => db.set_subtree_access(p, SubjectId(s), a),
        }
    }
}

fn gen_op(rng: &mut StdRng, total: u64) -> Op {
    // Cross-shard commits (position 0) are the interesting torture target:
    // keep them frequent.
    let pos = if rng.gen_bool(0.35) {
        0
    } else {
        rng.gen_range(1..total)
    };
    let subject = rng.gen_range(0..SUBJECTS as u32);
    let allow = rng.gen_bool(0.5);
    if rng.gen_bool(0.5) {
        Op::Subtree(pos, subject, allow)
    } else {
        Op::Node(pos, subject, allow)
    }
}

struct SweepOutcome {
    ops: usize,
    crash_points: u64,
    pre_states: u64,
    post_states: u64,
    died_in_flight: u64,
    by_kind: BTreeMap<&'static str, [u64; 3]>,
}

fn crash_sweep(effort: Effort, seed: u64, smoke: bool) -> SweepOutcome {
    let ops_n = if smoke { 6 } else { effort.pick(12, 24) };
    // Sampling stride over each write window: full sweeps every point.
    let stride = if smoke {
        4
    } else {
        match effort {
            Effort::Quick => 2,
            Effort::Full => 1,
        }
    };
    let doc = xmark_doc(effort.scale(0.004, 0.01));
    let map = synth_multi(&doc, &acl_config(seed), SUBJECTS);

    // Build onto the live images, then run the healthy oracle pass,
    // snapshotting and fingerprinting after every update.
    let live = Images::fresh();
    let (pairs, cat) = live.raw();
    let oracle = ShardedDb::build_on(&doc, &map, cfg(), &pairs, cat).expect("build shards");
    println!(
        "phase 1: {} nodes over {SHARDS} shards (lens {:?}), {ops_n} updates, write-window stride {stride}",
        oracle.len(),
        oracle.status().iter().map(|s| s.len).collect::<Vec<_>>(),
    );
    let total = oracle.len() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut snaps: Vec<Images> = vec![live.snapshot()];
    let mut fps: Vec<u64> = vec![fingerprint(&oracle)];
    let mut ops: Vec<Op> = Vec::with_capacity(ops_n);
    for _ in 0..ops_n {
        let op = gen_op(&mut rng, total);
        op.apply(&oracle).expect("healthy update");
        ops.push(op);
        snaps.push(live.snapshot());
        fps.push(fingerprint(&oracle));
    }
    drop(oracle);

    let mut out = SweepOutcome {
        ops: ops_n,
        crash_points: 0,
        pre_states: 0,
        post_states: 0,
        died_in_flight: 0,
        by_kind: BTreeMap::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        // Measure the write window of reopen + this update (deterministic
        // replay; its end state must reproduce the oracle exactly).
        let window = {
            let trial = snaps[i].snapshot();
            let rail = CrashState::unlimited();
            let (pairs, cat) = trial.railed(&rail);
            let db = ShardedDb::open_on(cfg(), &pairs, cat).expect("replay open");
            op.apply(&db).expect("healthy replay");
            assert_eq!(
                fingerprint(&db),
                fps[i + 1],
                "replay of op {i} diverged from the oracle"
            );
            rail.writes_issued()
        };
        let counts = out.by_kind.entry(op.kind()).or_default();
        // Stride-sample the window, but always include its tail: the
        // decided-but-unfinished region after the catalog append is at most
        // a handful of writes wide (none, when the catalog append is the
        // op's last write: `k == window` cuts right after it) and must be
        // crashed into every op.
        let mut points: Vec<u64> = (0..window).step_by(stride).collect();
        points.extend(window.saturating_sub(6)..=window);
        points.sort_unstable();
        points.dedup();
        for k in points {
            let trial = snaps[i].snapshot();
            let rail = CrashState::new(k, k % 2 == 1, seed ^ ((i as u64) << 20) ^ k);
            let (pairs, cat) = trial.railed(&rail);
            let survived = match ShardedDb::open_on(cfg(), &pairs, cat) {
                Ok(db) => op.apply(&db).is_ok(),
                Err(_) => false,
            };
            if !survived {
                out.died_in_flight += 1;
            }
            // Post-reboot: reopen the raw post-crash images. Recovery reads
            // the catalog first; its decided set drives every shard's WAL
            // replay, so the whole system lands on one state boundary.
            let (pairs, cat) = trial.raw();
            let db = ShardedDb::open_on(cfg(), &pairs, cat).unwrap_or_else(|e| {
                panic!(
                    "op {i} ({}) crash at write {k}: unrecoverable: {e}",
                    op.kind()
                )
            });
            db.verify_integrity()
                .unwrap_or_else(|e| panic!("op {i} crash at write {k}: integrity: {e}"));
            let f = fingerprint(&db);
            let decided = db.commit_count();
            // A no-op update (setting a bit to its current value) leaves
            // fps[i] == fps[i+1]; the catalog's decided count then picks
            // the side. Fingerprint and catalog must agree jointly.
            if f == fps[i + 1] && decided == i as u64 + 1 {
                out.post_states += 1;
                counts[1] += 1;
            } else if f == fps[i] && decided == i as u64 {
                out.pre_states += 1;
                counts[0] += 1;
            } else if f != fps[i] && f != fps[i + 1] {
                panic!(
                    "CROSS-SHARD MIXED EPOCH: op {i} ({}) crash at write {k} \
                     recovered to neither S_{i} nor S_{}",
                    op.kind(),
                    i + 1
                );
            } else {
                panic!(
                    "op {i} ({}) crash at write {k}: recovered state and catalog \
                     disagree (decided {decided}, expected {} or {})",
                    op.kind(),
                    i,
                    i + 1
                );
            }
            counts[2] += 1;
            out.crash_points += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Phase 2: quarantine/brownout soak
// ---------------------------------------------------------------------------

/// Soak counters shared across reader/updater/driver threads.
#[derive(Default)]
struct Counters {
    /// Served answers equal to the pre- or post-toggle oracle.
    exact: AtomicU64,
    /// Fail-closed subsets flagged by `blocks_failed_closed`. Hidden
    /// answers, never invented ones.
    masked: AtomicU64,
    /// Answers matching neither oracle and not a flagged subset. Must be 0.
    wrong: AtomicU64,
    /// Typed whole-query refusals naming a quarantined shard.
    refusals: AtomicU64,
    /// Transient storage errors surfaced during fault windows.
    availability: AtomicU64,
    /// Anything else. Must be 0.
    unexpected: AtomicU64,
    /// Healthy-confined queries answered exactly *while* a shard was
    /// quarantined.
    confined_exact: AtomicU64,
    /// Cross-shard toggle commits that succeeded.
    toggles: AtomicU64,
    /// Toggle attempts refused or failed during fault windows.
    toggle_errors: AtomicU64,
}

/// Per-(query, subject, semantics) oracle: the exact answers under the
/// toggle-allowed and toggle-denied states.
struct SoakOracle {
    allow: Vec<Vec<Vec<u64>>>,
    deny: Vec<Vec<Vec<u64>>>,
    subtree_allow: Vec<Vec<u64>>,
    subtree_deny: Vec<Vec<u64>>,
}

fn oracle_answers(db: &SecureXmlDb) -> (Vec<Vec<Vec<u64>>>, Vec<Vec<u64>>) {
    let binding = SUITE
        .iter()
        .map(|(_, q)| {
            (0..SUBJECTS as u32)
                .map(|s| {
                    db.query(q, Security::BindingLevel(SubjectId(s)))
                        .expect("oracle query")
                        .matches
                })
                .collect()
        })
        .collect();
    let subtree = SUITE
        .iter()
        .map(|(_, q)| {
            db.query(q, Security::SubtreeVisibility(TOGGLE))
                .expect("oracle query")
                .matches
        })
        .collect();
    (binding, subtree)
}

impl SoakOracle {
    fn build(doc: &dol_xml::Document, base: &dol_acl::AccessibilityMap) -> Self {
        let mut allow_map = base.clone();
        let mut deny_map = base.clone();
        for p in 0..doc.len() as u32 {
            allow_map.set(TOGGLE, dol_xml::NodeId(p), true);
            deny_map.set(TOGGLE, dol_xml::NodeId(p), false);
        }
        let allow_db = SecureXmlDb::from_document(doc.clone(), &allow_map).expect("oracle build");
        let deny_db = SecureXmlDb::from_document(doc.clone(), &deny_map).expect("oracle build");
        let (allow, subtree_allow) = oracle_answers(&allow_db);
        let (deny, subtree_deny) = oracle_answers(&deny_db);
        Self {
            allow,
            deny,
            subtree_allow,
            subtree_deny,
        }
    }

    fn expected(&self, qi: usize, subject: u32, subtree: bool) -> (&[u64], &[u64]) {
        if subtree {
            (&self.subtree_allow[qi], &self.subtree_deny[qi])
        } else {
            (
                &self.allow[qi][subject as usize],
                &self.deny[qi][subject as usize],
            )
        }
    }
}

fn is_subset(sub: &[u64], sup: &[u64]) -> bool {
    // Both document-ordered.
    let mut it = sup.iter();
    sub.iter().all(|x| it.any(|y| y == x))
}

/// Classifies one served result against the two toggle oracles.
fn classify(
    c: &Counters,
    got: &Result<secure_xml::QueryResult, DbError>,
    want_allow: &[u64],
    want_deny: &[u64],
) {
    match got {
        Ok(res) => {
            if res.matches == want_allow || res.matches == want_deny {
                c.exact.fetch_add(1, Ordering::Relaxed);
            } else if res.stats.blocks_failed_closed > 0
                && (is_subset(&res.matches, want_allow) || is_subset(&res.matches, want_deny))
            {
                c.masked.fetch_add(1, Ordering::Relaxed);
            } else {
                c.wrong.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(DbError::ShardUnavailable { .. }) => {
            c.refusals.fetch_add(1, Ordering::Relaxed);
        }
        Err(DbError::Storage(_)) | Err(DbError::Query(_)) => {
            c.availability.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            c.unexpected.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct SoakOutcome {
    cycles: usize,
    quarantine_windows: u64,
    recovered_windows: u64,
    power_cuts: u64,
    reboots: u64,
    quarantines_by_shard: Vec<u64>,
    recoveries_by_shard: Vec<u64>,
    counters: Counters,
    final_status: Vec<secure_xml::ShardStatus>,
    final_stats: secure_xml::ShardedStats,
}

/// The shard targeted by brownouts (its data disk carries the fault layer).
const TARGET: usize = 1;

#[allow(clippy::too_many_lines)]
fn quarantine_soak(effort: Effort, seed: u64, smoke: bool) -> SoakOutcome {
    let cycles = if smoke { 1 } else { effort.pick(2, 5) };
    let doc = xmark_doc(effort.scale(0.004, 0.01));
    let map = synth_multi(&doc, &acl_config(seed ^ 0x5A), SUBJECTS);
    let oracle = SoakOracle::build(&doc, &map);

    // The hostile stack: every disk behind one power rail; the target
    // shard's data disk additionally behind a 100%-transient-fault layer
    // armed only during brownout windows.
    let images = Images::fresh();
    let rail = CrashState::unlimited();
    let (mut pairs, cat) = images.railed(&rail);
    let brownout = Arc::new(FaultDisk::new(
        pairs[TARGET].0.clone(),
        FaultConfig {
            seed: seed ^ 0xB0,
            transient_read_error: 1.0,
            transient_write_error: 1.0,
            ..FaultConfig::default()
        },
    ));
    brownout.set_armed(false);
    pairs[TARGET].0 = brownout.clone() as Arc<dyn Disk>;

    let mut db = Arc::new(
        ShardedDb::build_on(&doc, &map, cfg(), &pairs, cat.clone()).expect("build shards"),
    );
    println!(
        "\nphase 2: {} nodes over {SHARDS} shards, {cycles} chaos cycle(s), target shard {TARGET}",
        db.len(),
    );
    let arm_breaker = |db: &ShardedDb| {
        for s in 0..SHARDS {
            db.with_shard(s, |sdb| {
                sdb.set_retry_policy(RetryPolicy {
                    max_attempts: 2,
                    backoff_start: Duration::ZERO,
                    backoff_cap: Duration::ZERO,
                    breaker_threshold: 2,
                    breaker_probe_every: 2,
                });
            });
        }
    };
    arm_breaker(&db);

    // Establish a known toggle state before serving starts (phase B re-pins
    // it after every reboot).
    db.set_subtree_access(0, TOGGLE, true)
        .expect("initial toggle");

    // A probe tag present in the target shard (for the typed-refusal check)
    // and one absent from it but present elsewhere (for the
    // healthy-confined check).
    let target_tags: std::collections::HashSet<String> = db.with_shard(TARGET, |sdb| {
        let d = sdb.document();
        d.preorder().map(|n| d.name_of(n).to_string()).collect()
    });
    let other_tags: std::collections::HashSet<String> = (0..SHARDS)
        .filter(|&s| s != TARGET)
        .flat_map(|s| {
            db.with_shard(s, |sdb| {
                let d = sdb.document();
                d.preorder()
                    .map(|n| d.name_of(n).to_string())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let in_target = target_tags
        .iter()
        .find(|t| t.as_str() != "site")
        .expect("target shard has a tag")
        .clone();
    let confined = other_tags
        .iter()
        .find(|t| !target_tags.contains(*t))
        .expect("some tag is absent from the target shard")
        .clone();
    let confined_query = format!("//{confined}");
    let confined_want = SecureXmlDb::from_document(doc.clone(), &map)
        .expect("confined oracle")
        .query(&confined_query, Security::None)
        .expect("confined oracle query")
        .matches;

    let mut out = SoakOutcome {
        cycles,
        quarantine_windows: 0,
        recovered_windows: 0,
        power_cuts: 0,
        reboots: 0,
        quarantines_by_shard: vec![0; SHARDS],
        recoveries_by_shard: vec![0; SHARDS],
        counters: Counters::default(),
        final_status: Vec::new(),
        final_stats: secure_xml::ShardedStats::default(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let oracle = &oracle;

    for cycle in 0..cycles {
        // ---- phase A: brownout → quarantine → in-process recovery ------
        let stop = AtomicBool::new(false);
        let c = &out.counters;
        let facade = db.clone();
        std::thread::scope(|scope| {
            for r in 0..2usize {
                let facade = facade.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (r as u64) << 8 ^ cycle as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let qi = rng.gen_range(0..SUITE.len());
                        let subject = rng.gen_range(0..SUBJECTS as u32);
                        let subtree = subject == TOGGLE.0 && rng.gen_bool(0.3);
                        let sec = if subtree {
                            Security::SubtreeVisibility(TOGGLE)
                        } else {
                            Security::BindingLevel(SubjectId(subject))
                        };
                        let got = facade.query(SUITE[qi].1, sec);
                        let (wa, wd) = oracle.expected(qi, subject, subtree);
                        classify(c, &got, wa, wd);
                    }
                });
            }
            // Cross-shard updater: root-subtree toggles through 2PC.
            {
                let facade = facade.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut next = false;
                    while !stop.load(Ordering::Relaxed) {
                        match facade.set_subtree_access(0, TOGGLE, next) {
                            Ok(()) => {
                                c.toggles.fetch_add(1, Ordering::Relaxed);
                                next = !next;
                            }
                            Err(_) => {
                                c.toggle_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                });
            }

            // Driver: brownout until the target's breaker trips.
            brownout.set_armed(true);
            let deadline = Instant::now() + Duration::from_secs(30);
            while !facade.status()[TARGET].poisoned && !facade.status()[TARGET].breaker_open {
                // Cold physical reads through the armed layer.
                let _ = facade.query(SUITE[0].1, Security::BindingLevel(SubjectId(0)));
                let _ = facade.query(&format!("//{in_target}"), Security::None);
                assert!(
                    Instant::now() < deadline,
                    "cycle {cycle}: breaker never tripped under a 100% fault layer"
                );
            }
            out.quarantine_windows += 1;
            out.quarantines_by_shard[TARGET] += 1;

            // Quarantined: a query naming the target fails whole and typed…
            let refusal_deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match facade.query(&format!("//{in_target}"), Security::None) {
                    Err(DbError::ShardUnavailable { shard, .. }) => {
                        assert_eq!(shard, TARGET, "refusal names the quarantined shard");
                        c.refusals.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    // Pre-trip transient errors or a concurrent recovery
                    // race: keep probing until the typed refusal surfaces.
                    _ => assert!(
                        Instant::now() < refusal_deadline,
                        "cycle {cycle}: typed refusal never surfaced"
                    ),
                }
            }
            // …while a query provably confined to healthy shards answers
            // exactly, byte-identical to the unsharded oracle.
            let got = facade
                .query(&confined_query, Security::None)
                .expect("healthy-confined query must answer during quarantine");
            assert_eq!(
                got.matches, confined_want,
                "cycle {cycle}: healthy-confined answer diverged under quarantine"
            );
            out.counters.confined_exact.fetch_add(1, Ordering::Relaxed);

            // Heal in process, concurrently with the serving threads.
            brownout.set_armed(false);
            facade.recover_shard(TARGET).expect("in-process recovery");
            assert!(
                !facade.status()[TARGET].poisoned && !facade.status()[TARGET].breaker_open,
                "cycle {cycle}: recovery left the target quarantined"
            );
            out.recovered_windows += 1;
            out.recoveries_by_shard[TARGET] += 1;
            facade.verify_integrity().expect("post-recovery integrity");

            // Full service restored: the cross-shard updater must land at
            // least one 2PC commit against the healed facade…
            let landed = Instant::now() + Duration::from_secs(20);
            let toggles_before = c.toggles.load(Ordering::Relaxed);
            while c.toggles.load(Ordering::Relaxed) == toggles_before {
                assert!(
                    Instant::now() < landed,
                    "cycle {cycle}: no cross-shard commit landed after recovery"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            // …and the whole suite answers exactly.
            for (qi, (_, q)) in SUITE.iter().enumerate() {
                for s in 0..SUBJECTS as u32 {
                    let got = facade
                        .query(q, Security::BindingLevel(SubjectId(s)))
                        .expect("post-recovery query");
                    let (wa, wd) = oracle.expected(qi, s, false);
                    assert!(
                        got.matches == wa || got.matches == wd,
                        "cycle {cycle}: post-recovery answer for {q} subject {s} \
                         matches neither toggle oracle"
                    );
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        // ---- phase B: power cut mid-commit, reboot, all-or-nothing -----
        // The toggle is pinned `true` here; cut the rail mid-flip-to-false.
        let budget = rng.gen_range(3..60u64);
        rail.restore_power(budget);
        let res = db.set_subtree_access(0, TOGGLE, false);
        out.power_cuts += 1;
        rail.restore_power(u64::MAX);
        for (s, st) in db.status().iter().enumerate() {
            if st.poisoned {
                out.quarantines_by_shard[s] += 1;
            }
        }
        drop(res);
        // Reboot: drop the facade, reopen from the surviving disks. The
        // catalog decides which side of the commit the system is on.
        drop(db);
        let reopened = ShardedDb::open_on(cfg(), &pairs, cat.clone()).expect("post-cut reopen");
        out.reboots += 1;
        reopened.verify_integrity().expect("post-reboot integrity");
        // All-or-nothing across shards: the toggled subject's access is
        // uniform over every position of every shard.
        let first = reopened.accessible(1, TOGGLE).expect("accessible");
        for p in 1..reopened.len() as u64 {
            assert_eq!(
                reopened.accessible(p, TOGGLE).expect("accessible"),
                first,
                "cycle {cycle}: CROSS-SHARD MIXED EPOCH at position {p} after power cut"
            );
        }
        db = Arc::new(reopened);
        arm_breaker(&db);
        // Re-pin the toggle to a known state for the next cycle.
        db.set_subtree_access(0, TOGGLE, true)
            .expect("re-pin toggle");
    }

    out.final_status = db.status();
    out.final_stats = db.stats();
    out
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn write_json(seed: u64, sweep: &SweepOutcome, soak: &SoakOutcome) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"shards\": {SHARDS},\n"));
    out.push_str("  \"crash_sweep\": {\n");
    out.push_str(&format!("    \"updates\": {},\n", sweep.ops));
    out.push_str(&format!("    \"crash_points\": {},\n", sweep.crash_points));
    out.push_str(&format!("    \"pre_states\": {},\n", sweep.pre_states));
    out.push_str(&format!("    \"post_states\": {},\n", sweep.post_states));
    out.push_str(&format!(
        "    \"died_in_flight\": {},\n",
        sweep.died_in_flight
    ));
    out.push_str("    \"mixed_epochs\": 0\n  },\n");
    out.push_str("  \"quarantine_soak\": {\n");
    out.push_str(&format!("    \"cycles\": {},\n", soak.cycles));
    let c = &soak.counters;
    out.push_str(&format!(
        "    \"exact\": {}, \"masked\": {}, \"wrong\": {},\n",
        c.exact.load(Ordering::Relaxed),
        c.masked.load(Ordering::Relaxed),
        c.wrong.load(Ordering::Relaxed)
    ));
    out.push_str(&format!(
        "    \"refusals\": {}, \"availability_errors\": {}, \"unexpected_errors\": {},\n",
        c.refusals.load(Ordering::Relaxed),
        c.availability.load(Ordering::Relaxed),
        c.unexpected.load(Ordering::Relaxed)
    ));
    out.push_str(&format!(
        "    \"confined_exact\": {}, \"toggles\": {}, \"toggle_errors\": {},\n",
        c.confined_exact.load(Ordering::Relaxed),
        c.toggles.load(Ordering::Relaxed),
        c.toggle_errors.load(Ordering::Relaxed)
    ));
    out.push_str(&format!(
        "    \"quarantine_windows\": {}, \"recovered_windows\": {}, \
         \"power_cuts\": {}, \"reboots\": {},\n",
        soak.quarantine_windows, soak.recovered_windows, soak.power_cuts, soak.reboots
    ));
    out.push_str("    \"per_shard\": [\n");
    for (s, st) in soak.final_status.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"shard\": {s}, \"base\": {}, \"len\": {}, \"epoch\": {}, \
             \"breaker_open\": {}, \"poisoned\": {}, \"quarantines\": {}, \"recoveries\": {}}}{}\n",
            st.base,
            st.len,
            st.epoch,
            st.breaker_open,
            st.poisoned,
            soak.quarantines_by_shard[s],
            soak.recoveries_by_shard[s],
            if s + 1 < soak.final_status.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    match std::fs::File::create("BENCH_shard.json").and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("(wrote BENCH_shard.json)\n"),
        Err(e) => eprintln!("could not write BENCH_shard.json: {e}"),
    }
}

/// Runs the sharded-database chaos harness (`--smoke` shrinks both phases
/// to a CI-scale pinned-seed run; every gate still applies).
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    println!(
        "ShardedDb chaos harness (seed {seed}{})\n",
        if smoke { ", smoke" } else { "" }
    );
    let sweep = crash_sweep(effort, seed, smoke);
    assert!(
        sweep.post_states > 0,
        "sweep never crashed past a commit point — window sampling is broken"
    );
    let mut t = Table::new(
        "crash sweep (one power rail over all shard + catalog disks)",
        &["op kind", "pre-state", "post-state", "crash points"],
    );
    for (kind, c) in &sweep.by_kind {
        t.row(&[
            (*kind).into(),
            c[0].to_string(),
            c[1].to_string(),
            c[2].to_string(),
        ]);
    }
    t.print();
    println!(
        "\n{} crash points over {} updates: every recovery an exact before- or \
         after-state on ALL shards (zero cross-shard mixed epochs)\n",
        sweep.crash_points, sweep.ops
    );

    let soak = quarantine_soak(effort, seed, smoke);
    let mut t = Table::new(
        "quarantine soak: per-shard columns",
        &[
            "shard",
            "base",
            "nodes",
            "epoch",
            "breaker",
            "poisoned",
            "quarantines",
            "recoveries",
        ],
    );
    for (s, st) in soak.final_status.iter().enumerate() {
        t.row(&[
            s.to_string(),
            st.base.to_string(),
            st.len.to_string(),
            st.epoch.to_string(),
            if st.breaker_open { "open" } else { "closed" }.into(),
            st.poisoned.to_string(),
            soak.quarantines_by_shard[s].to_string(),
            soak.recoveries_by_shard[s].to_string(),
        ]);
    }
    t.print();
    let c = &soak.counters;
    println!(
        "\nserved: {} exact, {} masked (fail-closed subsets), {} wrong; \
         {} typed refusals, {} availability errors, {} unexpected",
        c.exact.load(Ordering::Relaxed),
        c.masked.load(Ordering::Relaxed),
        c.wrong.load(Ordering::Relaxed),
        c.refusals.load(Ordering::Relaxed),
        c.availability.load(Ordering::Relaxed),
        c.unexpected.load(Ordering::Relaxed)
    );
    println!(
        "quarantine windows: {} opened, {} recovered in process; {} power cuts, {} reboots; \
         facade stats since last reboot: {:?}",
        soak.quarantine_windows,
        soak.recovered_windows,
        soak.power_cuts,
        soak.reboots,
        soak.final_stats
    );

    // The gates.
    assert_eq!(c.wrong.load(Ordering::Relaxed), 0, "wrong answers served");
    assert_eq!(
        c.unexpected.load(Ordering::Relaxed),
        0,
        "unexpected errors surfaced"
    );
    assert_eq!(
        soak.quarantine_windows, soak.recovered_windows,
        "unrecovered quarantine window"
    );
    assert!(
        soak.quarantine_windows > 0,
        "no quarantine window exercised"
    );
    assert!(
        c.refusals.load(Ordering::Relaxed) > 0,
        "typed refusal path never observed"
    );
    assert!(
        c.confined_exact.load(Ordering::Relaxed) > 0,
        "healthy-confined exactness never observed"
    );
    assert!(
        c.toggles.load(Ordering::Relaxed) > 0,
        "no cross-shard commit landed"
    );
    println!(
        "\nall gates green: zero wrong answers, zero mixed epochs, zero unrecovered quarantines\n"
    );

    write_json(seed, &sweep, &soak);
}
