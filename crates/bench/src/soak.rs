//! `soak` — combined chaos soak: faults, power cuts, deadlines, and
//! breaker trips against a live serving mix (not a paper artifact).
//!
//! One persistent [`SecureXmlDb`] sits on a deliberately hostile disk stack
//! — `MemDisk` → `CrashDisk` (scheduled power cuts) → `FaultDisk` (1%
//! transient read errors, always armed) → `FaultDisk` (100% transient
//! errors, armed only during *brownout* windows) — while reader threads
//! replay the Table-1 mix through [`DbReader::query_with_retry`] snapshots
//! and updater threads toggle one node's access through the
//! [`GroupCommitter`]. A [`secure_xml::CommitObserver`] runs under the
//! committer's write lock after every commit and publishes the toggle's
//! post-commit state keyed by epoch, so a reader pinned to an
//! observer-recorded epoch is classified against *that epoch's* oracle
//! exactly — not merely "one of the two" — while epochs produced outside
//! the committer (the driver's direct poison-latching writes) fall back to
//! the either-oracle check. A driver choreographs repeated chaos cycles:
//!
//! 1. **Brownout** — arm the 100%-fault layer and force cold page reads
//!    until the circuit breaker trips; while open, reads fail fast with
//!    `BreakerOpen`; disarm and keep probing until a half-open probe closes
//!    it again.
//! 2. **Power cut** — give the crash rail a 3-write budget so the next
//!    update dies mid-transaction and poisons the handle; restore power,
//!    observe the *degraded window* (epoch-consistent reads keep flowing
//!    off the stashed mirrors, updates are refused with
//!    [`DbError::Poisoned`]), then heal in process with
//!    [`SecureXmlDb::recover`] + [`SecureXmlDb::verify_integrity`].
//!
//! Readers interleave expired-[`Deadline`] probes (plus one
//! `CancelToken` cancellation) on a reserved (query, subject) pair, so the
//! typed-abort path stays exercised throughout, and *cacheable-pair*
//! probes that warm a result-cache slot before re-issuing it under an
//! expired deadline: the engine serves the warm hit `Ok` (a hit costs no
//! I/O), but the accounting classifies it as a **bounded refusal** — the
//! wire front door (`dol-server`) refuses any request whose deadline
//! lapsed before dispatch, so counting the hit as served would make the
//! in-process and wire availability columns disagree.
//!
//! **Gates (asserted every run, not only `--smoke`):** zero wrong answers —
//! every served result equals the pre- or post-toggle oracle exactly, or is
//! a fail-closed *subset* with `blocks_failed_closed > 0`; zero unexpected
//! errors — only typed availability errors (`BreakerOpen`,
//! `DeadlineExceeded`) and absorbed `RetentionExceeded` refreshes ever surface;
//! zero unrecovered poison windows; at least one breaker trip, fast-fail,
//! and half-open probe; at least one deadline abort, one warm-hit bounded
//! refusal, and one cancellation, reconciled against
//! [`CacheStats::deadline_aborts`]; and after the final
//! recovery the full suite answers **exactly** (no masking), proving no
//! permanent unavailability. Machine-readable counters go to
//! `BENCH_soak.json`.

use crate::setup::{xmark_doc, TABLE1};
use crate::table::Table;
use crate::Effort;
use dol_acl::SubjectId;
use dol_nok::{QueryError, Security};
use dol_storage::{CrashDisk, CrashState, Disk, FaultConfig, FaultDisk, MemDisk, StorageError};
use dol_workloads::{synth_multi, SynthAclConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::{
    CacheStats, DbConfig, DbError, DbReader, Deadline, ExecOptions, GroupCommitConfig,
    GroupCommitStats, GroupCommitter, RetryPolicy, SecureXmlDb,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// The fixed seed used when the caller does not supply one (CI does not).
pub const DEFAULT_SEED: u64 = 0x0D01_50AC;

/// Subjects in the synthetic ACL.
const SUBJECTS: usize = 3;
/// Normal mix draws subjects `0..MIX_SUBJECTS`; subject 2 is reserved for
/// deadline probes, so its probe pair never lands in the result cache (a
/// warm hit is served even under an expired deadline, by design).
const MIX_SUBJECTS: u32 = 2;
const PROBE_SUBJECT: SubjectId = SubjectId(2);
const READERS: usize = 2;
/// Updater threads pushing toggle commits through the group committer.
const UPDATERS: usize = 2;
/// Snapshot-refresh budget per reader operation (`RetentionExceeded` past
/// the ring window; the updaters are finite per window, so a retry always
/// lands).
const MAX_STALE_RETRIES: u32 = 100_000;

/// Oracle key: (Table-1 query index, subject, subtree-visibility?).
type OpKey = (usize, u32, bool);
type Oracle = HashMap<OpKey, Vec<u64>>;
/// Epoch → the toggle's post-commit accessibility for subject 1, published
/// by the commit observer under the committer's write lock. A reader
/// pinned to a recorded epoch answers exactly that epoch's oracle.
type EpochStates = Mutex<HashMap<u64, bool>>;

fn security_of(key: OpKey) -> Security {
    let s = SubjectId(key.1);
    if key.2 {
        Security::SubtreeVisibility(s)
    } else {
        Security::BindingLevel(s)
    }
}

/// Everything the soak counts, shared across reader/updater/driver threads.
#[derive(Default)]
struct Counters {
    /// Served answers equal to the pre- or post-toggle oracle.
    exact: AtomicU64,
    /// Fail-closed subsets (`blocks_failed_closed > 0`) during fault or
    /// outage windows — hidden answers, never invented ones.
    masked: AtomicU64,
    /// Answers matching neither oracle and not a flagged subset. Must be 0.
    wrong: AtomicU64,
    /// Typed availability errors (`BreakerOpen` / `DeadlineExceeded`)
    /// surfaced to a normal mix operation.
    availability_errors: AtomicU64,
    /// Anything else a reader saw. Must be 0.
    unexpected_errors: AtomicU64,
    /// Expired-deadline probes aborted with `DbError::DeadlineExceeded`.
    deadline_aborts: AtomicU64,
    /// Expired-deadline probes on a *cacheable* pair that the engine
    /// answered `Ok` from the warm result cache. The wire front door
    /// (`dol-server`) refuses any request whose deadline lapsed before
    /// dispatch, cache or no cache — so these count as bounded refusals,
    /// never as served answers.
    bounded_refusals: AtomicU64,
    /// `CancelToken` cancellations aborted the same way.
    cancel_aborts: AtomicU64,
    /// Fresh snapshots taken after a retention-window expiry.
    stale_refreshes: AtomicU64,
    /// Answers classified against an observer-recorded *per-epoch* oracle
    /// (the strict check; the rest use the either-oracle fallback).
    epoch_checked: AtomicU64,
    /// Committed updater transactions (group-commit members).
    commits: AtomicU64,
    /// Submissions pushed back by the committer's admission control.
    gc_overloads: AtomicU64,
    /// Updates refused with `DbError::Poisoned` (degraded windows).
    refused_updates: AtomicU64,
    /// Updates that died on the failing disk (the poison moments).
    failed_updates: AtomicU64,
    /// Driver-observed poison windows (one per power cut).
    poison_windows: AtomicU64,
    /// Successful suite queries served off a *degraded* (poisoned-handle)
    /// snapshot.
    degraded_served: AtomicU64,
    /// In-process `recover()` calls that healed a poisoned handle.
    recoveries: AtomicU64,
    /// WAL transactions / pages redone across those recoveries.
    txns_redone: AtomicU64,
    pages_redone: AtomicU64,
}

impl Counters {
    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

fn is_availability(e: &DbError) -> bool {
    matches!(e, DbError::DeadlineExceeded(_))
        | matches!(
            e,
            DbError::Storage(StorageError::BreakerOpen | StorageError::DeadlineExceeded)
        )
        | matches!(
            e,
            DbError::Query(QueryError::Storage(
                StorageError::BreakerOpen | StorageError::DeadlineExceeded
            ))
        )
}

/// Classifies one served answer against the two oracle states.
fn classify(c: &Counters, got: &[u64], failed_closed: u64, allow: &[u64], deny: &[u64]) {
    if got == allow || got == deny {
        c.bump(&c.exact);
    } else if failed_closed > 0 && got.iter().all(|m| allow.contains(m) || deny.contains(m)) {
        c.bump(&c.masked);
    } else {
        c.bump(&c.wrong);
        eprintln!("WRONG ANSWER: got {got:?}, expected {allow:?} or {deny:?}");
    }
}

/// All answers for every (query, subject, mode), from an in-memory twin
/// (answers do not depend on the storage stack).
fn oracle_of(db: &SecureXmlDb) -> Oracle {
    let mut oracle = Oracle::new();
    for (qi, (_, query)) in TABLE1.iter().enumerate() {
        for subject in 0..SUBJECTS as u32 {
            for vis in [false, true] {
                let key = (qi, subject, vis);
                let r = db.query(query, security_of(key)).expect("oracle query");
                oracle.insert(key, r.matches);
            }
        }
    }
    oracle
}

/// The node the updater toggles: the deepest answer subject 1 gets from the
/// suite, so toggling it visibly changes query results. Some ACL seeds deny
/// subject 1 every suite answer; then any unsecured suite answer will do —
/// the two oracles are computed *after* the choice, so classification stays
/// sound even if the flip changes no secure answer.
fn pick_toggle(db: &SecureXmlDb) -> u64 {
    for sec in [Security::BindingLevel(SubjectId(1)), Security::None] {
        for (_, query) in &TABLE1 {
            let r = db.query(query, sec).expect("toggle probe");
            if let Some(&m) = r.matches.last() {
                return m;
            }
        }
    }
    panic!("the suite has no answers at all on this document");
}

/// One reader thread: Table-1 mix through `query_with_retry`, with every
/// 9th operation replaced by an expired-deadline probe.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    db: &RwLock<SecureXmlDb>,
    allow: &Oracle,
    deny: &Oracle,
    epochs: &EpochStates,
    c: &Counters,
    stop: &AtomicBool,
    seed: u64,
    idx: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let fresh = |c: &Counters| -> DbReader {
        c.bump(&c.stale_refreshes);
        db.read().expect("db lock").reader()
    };
    let mut reader = db.read().expect("db lock").reader();
    let mut op = 0u64;
    while !stop.load(Ordering::Relaxed) {
        op += 1;
        if op.is_multiple_of(18) {
            // Cacheable-pair probe: warm this reader's own (query, subject)
            // result-cache slot, then re-issue the same pair under
            // an already-expired deadline. The warm hit is served `Ok` by
            // design (a hit costs no I/O) — but the wire front door refuses
            // a pre-expired deadline at dispatch, so the accounting here
            // classifies that `Ok` as a *bounded refusal*; a cold second
            // read (the slot was evicted in between) aborts typed and lands
            // in the reconciled deadline-abort column instead.
            let sec = Security::BindingLevel(SubjectId(0));
            match reader.query(TABLE1[0].1, sec) {
                Ok(_) => {
                    let opts = ExecOptions {
                        deadline: Deadline::after(Duration::ZERO),
                        ..ExecOptions::default()
                    };
                    match reader.query_opts(TABLE1[0].1, sec, opts) {
                        Ok(_) => c.bump(&c.bounded_refusals),
                        Err(DbError::DeadlineExceeded(_)) => c.bump(&c.deadline_aborts),
                        Err(DbError::RetentionExceeded { .. }) => reader = fresh(c),
                        Err(e) if is_availability(&e) => c.bump(&c.availability_errors),
                        Err(_) => c.bump(&c.unexpected_errors),
                    }
                }
                Err(DbError::RetentionExceeded { .. }) => reader = fresh(c),
                Err(e) if is_availability(&e) => c.bump(&c.availability_errors),
                Err(_) => c.bump(&c.unexpected_errors),
            }
            continue;
        }
        if op.is_multiple_of(9) {
            // Expired-deadline probe on the reserved pair: never cached, so
            // it must abort with the typed error, not a partial answer.
            let opts = ExecOptions {
                deadline: Deadline::after(Duration::ZERO),
                ..ExecOptions::default()
            };
            match reader.query_opts(TABLE1[0].1, Security::BindingLevel(PROBE_SUBJECT), opts) {
                Err(DbError::DeadlineExceeded(stats)) => {
                    assert_eq!(stats.blocks_failed_closed, 0, "abort is not fail-closed");
                    c.bump(&c.deadline_aborts);
                }
                Err(DbError::RetentionExceeded { .. }) => reader = fresh(c),
                Err(e) if is_availability(&e) => c.bump(&c.availability_errors),
                Ok(_) => c.bump(&c.unexpected_errors),
                Err(_) => c.bump(&c.unexpected_errors),
            }
            continue;
        }
        let key = (
            rng.gen_range(0..TABLE1.len()),
            rng.gen_range(0..MIX_SUBJECTS),
            rng.gen_bool(0.25),
        );
        match reader.query_with_retry(TABLE1[key.0].1, security_of(key), MAX_STALE_RETRIES, || {
            fresh(c)
        }) {
            Ok(r) => {
                // The reader is pinned to one epoch; if the commit observer
                // recorded that epoch's toggle state, demand *that* oracle.
                let recorded = epochs
                    .lock()
                    .expect("epoch map")
                    .get(&reader.epoch())
                    .copied();
                match recorded {
                    Some(allowed) => {
                        let expect = if allowed { &allow[&key] } else { &deny[&key] };
                        classify(c, &r.matches, r.stats.blocks_failed_closed, expect, expect);
                        c.bump(&c.epoch_checked);
                    }
                    None => classify(
                        c,
                        &r.matches,
                        r.stats.blocks_failed_closed,
                        &allow[&key],
                        &deny[&key],
                    ),
                }
            }
            Err(e) if is_availability(&e) => c.bump(&c.availability_errors),
            Err(e) => {
                c.bump(&c.unexpected_errors);
                eprintln!("reader {idx}: unexpected error: {e}");
            }
        }
    }
}

/// One updater thread: toggles the node's access for subject 1 through the
/// group committer. Two of these run, so concurrent submissions can fold
/// into one batch. Failures are the chaos working as intended — counted,
/// never fatal here (the driver heals; the final exact-suite check proves
/// nothing was lost).
fn updater_loop(
    gc: &GroupCommitter,
    toggle: u64,
    c: &Counters,
    stop: &AtomicBool,
    enabled: &AtomicBool,
    idx: usize,
) {
    let mut state = idx.is_multiple_of(2);
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_micros(500));
        // The driver parks the updaters during brownout windows: a commit's
        // successful page *writes* would keep resetting the breaker's
        // consecutive-failure run, hiding the read outage it is staging.
        if !enabled.load(Ordering::Relaxed) {
            continue;
        }
        let next = state;
        match gc.submit_fn(move |d| d.set_node_access(toggle, SubjectId(1), next)) {
            Ok(()) => {
                c.bump(&c.commits);
                state = !state;
            }
            // The batch's commit failed (power cut) or the handle was
            // already poisoned when the member ran — either way the member
            // was refused whole, never half-applied.
            Err(DbError::Poisoned) => c.bump(&c.refused_updates),
            Err(DbError::Overloaded) => c.bump(&c.gc_overloads),
            Err(_) => c.bump(&c.failed_updates),
        }
    }
}

/// Forces physical page reads so brownout faults reach the disk. Point
/// lookups won't do: the §3.3 page-skip answers most `code_at` calls from
/// the in-memory directory. An *unsecured* query has no fail-closed mask,
/// so it must walk node records off the pages — on the deliberately tiny
/// pool that is a stream of physical reads, and its errors (the point)
/// feed the breaker.
fn force_reads(db: &RwLock<SecureXmlDb>, salt: u64) {
    let g = db.read().expect("db lock");
    // The six queries' working set can fit even the 6-frame pool once the
    // readers have warmed it, and a fully cached walk never touches the
    // breaker at all — drop the cache so the walk below issues physical
    // reads. Failures (e.g. a dirty flush refused by an open breaker) just
    // leave pages cached; the next call retries.
    let _ = g.drop_page_cache();
    let reader = g.reader();
    let (_, query) = TABLE1[(salt % TABLE1.len() as u64) as usize];
    let _ = reader.query(query, Security::None);
}

/// Heals a poisoned handle in process and records the report.
fn recover_if_poisoned(db: &RwLock<SecureXmlDb>, c: &Counters) {
    let mut g = db.write().expect("db lock");
    if !g.is_poisoned() {
        return;
    }
    let report = g
        .recover()
        .expect("in-process recovery must succeed with power restored")
        .expect("persistent recovery replays the log");
    g.verify_integrity().expect("healed image must verify");
    c.bump(&c.recoveries);
    c.txns_redone
        .fetch_add(report.committed_txns, Ordering::Relaxed);
    c.pages_redone
        .fetch_add(report.pages_redone, Ordering::Relaxed);
}

/// Runs the full suite through one snapshot, counting into `served`;
/// every answer is still oracle-checked.
fn drain_suite(reader: &DbReader, allow: &Oracle, deny: &Oracle, c: &Counters, served: &AtomicU64) {
    for (qi, (_, query)) in TABLE1.iter().enumerate() {
        for subject in 0..MIX_SUBJECTS {
            let key = (qi, subject, false);
            match reader.query(query, security_of(key)) {
                Ok(r) => {
                    classify(
                        c,
                        &r.matches,
                        r.stats.blocks_failed_closed,
                        &allow[&key],
                        &deny[&key],
                    );
                    served.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if is_availability(&e) => c.bump(&c.availability_errors),
                Err(DbError::RetentionExceeded { .. }) => {}
                Err(e) => {
                    c.bump(&c.unexpected_errors);
                    eprintln!("degraded suite: unexpected error: {e}");
                }
            }
        }
    }
}

/// Runs the chaos soak. `--smoke` shrinks the schedule to CI size; the
/// gates are asserted in every mode.
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    println!("Chaos soak (seed {seed:#x})\n");
    let scale = if smoke {
        0.02
    } else {
        effort.scale(0.03, 0.15)
    };
    let cycles = if smoke { 2 } else { effort.pick(3, 6) };
    let dwell = Duration::from_millis(if smoke { 15 } else { 40 });

    let doc = xmark_doc(scale);
    let nodes = doc.len();
    let acl = SynthAclConfig {
        propagation_ratio: 0.05,
        accessibility_ratio: 0.6,
        sibling_locality: 0.5,
        seed,
    };
    // Two oracle states: the base map with the toggle node allowed vs
    // denied for subject 1. Every mid-run answer must equal one of them.
    let mut map_allow = synth_multi(&doc, &acl, SUBJECTS);
    let probe = SecureXmlDb::from_document(doc.clone(), &map_allow).expect("probe twin");
    let toggle = pick_toggle(&probe);
    drop(probe);
    map_allow.set(SubjectId(1), dol_xml::NodeId(toggle as u32), true);
    let mut map_deny = synth_multi(&doc, &acl, SUBJECTS);
    map_deny.set(SubjectId(1), dol_xml::NodeId(toggle as u32), false);
    let allow_twin = SecureXmlDb::from_document(doc.clone(), &map_allow).expect("allow twin");
    let deny_twin = SecureXmlDb::from_document(doc.clone(), &map_deny).expect("deny twin");
    let oracle_allow = oracle_of(&allow_twin);
    let oracle_deny = oracle_of(&deny_twin);
    drop(deny_twin);

    // The hostile stack: MemDisk → CrashDisk → FaultDisk(1% transient,
    // always on) → FaultDisk(100% transient, brownout windows only).
    let data_raw = Arc::new(MemDisk::new());
    allow_twin
        .save_to_disk(data_raw.clone())
        .expect("save image");
    drop(allow_twin);
    println!(
        "({} nodes, {}-page image on a 6-frame pool, {cycles} chaos cycles)\n",
        nodes,
        data_raw.num_pages(),
    );
    let crash = CrashState::unlimited();
    let transient = Arc::new(FaultDisk::new(
        Arc::new(CrashDisk::new(data_raw, crash.clone())),
        FaultConfig {
            seed,
            transient_read_error: 0.01,
            ..FaultConfig::default()
        },
    ));
    let brownout = Arc::new(FaultDisk::new(
        transient.clone() as Arc<dyn Disk>,
        FaultConfig {
            seed: seed ^ 0xB0,
            transient_read_error: 1.0,
            ..FaultConfig::default()
        },
    ));
    brownout.set_armed(false);
    let wal_disk: Arc<dyn Disk> = Arc::new(CrashDisk::new(Arc::new(MemDisk::new()), crash.clone()));
    let db = SecureXmlDb::open_on(
        brownout.clone(),
        wal_disk,
        DbConfig {
            // Far smaller than the image, so queries keep evicting and
            // re-reading pages — faults stay reachable all soak long.
            buffer_pool_pages: 6,
            max_records_per_block: 16,
            epoch_retain: 8,
        },
    )
    .expect("open on hostile stack");
    db.set_retry_policy(RetryPolicy {
        max_attempts: 4,
        backoff_start: Duration::from_micros(20),
        backoff_cap: Duration::from_micros(200),
        breaker_threshold: 4,
        breaker_probe_every: 4,
    });
    db.reset_io_stats();
    let io0 = db.io_stats();
    let db = Arc::new(RwLock::new(db));
    let c = Counters::default();
    let stop = AtomicBool::new(false);
    let updates_enabled = AtomicBool::new(true);

    // The group committer owns the write path. Its observer runs under the
    // write lock after every commit attempt and publishes the toggle's
    // post-commit state keyed by the new epoch — the per-epoch oracle the
    // readers hold pinned snapshots against. A probe that fails under
    // chaos just skips the entry (those epochs use the fallback check).
    let epoch_states = Arc::new(EpochStates::default());
    let obs_states = Arc::clone(&epoch_states);
    let gc = GroupCommitter::with_observer(
        Arc::clone(&db),
        GroupCommitConfig {
            queue_capacity: 8,
            max_batch: 4,
        },
        Some(Box::new(move |d: &SecureXmlDb, healthy: bool| {
            if !healthy {
                return;
            }
            if let Ok(allowed) = d.reader().accessible(toggle, SubjectId(1)) {
                obs_states
                    .lock()
                    .expect("epoch map")
                    .insert(d.epoch(), allowed);
            }
        })),
    );

    std::thread::scope(|scope| {
        for idx in 0..READERS {
            let db = &db;
            let epochs = &*epoch_states;
            let (allow, deny, c, stop) = (&oracle_allow, &oracle_deny, &c, &stop);
            scope.spawn(move || reader_loop(db, allow, deny, epochs, c, stop, seed, idx));
        }
        for idx in 0..UPDATERS {
            let (gc, c, stop, enabled) = (&gc, &c, &stop, &updates_enabled);
            scope.spawn(move || updater_loop(gc, toggle, c, stop, enabled, idx));
        }

        // ---- the driver: one brownout + one power cut per cycle ----
        for cycle in 0..cycles {
            std::thread::sleep(dwell);

            // Brownout: trip the breaker, fast-fail while open, then let a
            // half-open probe close it.
            updates_enabled.store(false, Ordering::Relaxed);
            brownout.set_armed(true);
            let trips0 = db.read().expect("db lock").io_stats().breaker_trips;
            let mut spin = 0u64;
            while db.read().expect("db lock").io_stats().breaker_trips == trips0 && spin < 3000 {
                force_reads(&db, spin);
                spin += 1;
            }
            for i in 0..8 {
                force_reads(&db, 9000 + i); // fast-fails while open
            }
            brownout.set_armed(false);
            let mut spin = 0u64;
            while db.read().expect("db lock").breaker_is_open() && spin < 3000 {
                force_reads(&db, 20_000 + spin);
                spin += 1;
            }
            updates_enabled.store(true, Ordering::Relaxed);
            // A brownout-window update may have poisoned the handle; heal
            // before scheduling the power cut so the cut gets its own window.
            recover_if_poisoned(&db, &c);

            // Power cut: a 3-write budget kills the next transaction
            // mid-flight. Nudge updates until the poison latches.
            crash.restore_power(3);
            let mut flip = cycle % 2 == 0;
            let mut attempts = 0;
            while !db.read().expect("db lock").is_poisoned() && attempts < 50 {
                let mut g = db.write().expect("db lock");
                let _ = g.set_node_access(toggle, SubjectId(1), flip);
                flip = !flip;
                attempts += 1;
            }
            crash.restore_power(u64::MAX);
            // Cut-window read failures may have opened the breaker; that is
            // an availability knob, not poison — clear it for the window.
            db.read().expect("db lock").reset_breaker();

            if db.read().expect("db lock").is_poisoned() {
                c.bump(&c.poison_windows);
                // Degraded window: epoch-consistent reads keep flowing off
                // the stashed mirrors; updates are refused, typed.
                let g = db.read().expect("db lock");
                let degraded = g.reader();
                drain_suite(
                    &degraded,
                    &oracle_allow,
                    &oracle_deny,
                    &c,
                    &c.degraded_served,
                );
                drop(g);
                let mut g = db.write().expect("db lock");
                match g.set_node_access(toggle, SubjectId(1), true) {
                    Err(DbError::Poisoned) => c.bump(&c.refused_updates),
                    other => panic!("poisoned update must be refused, got {other:?}"),
                }
                drop(g);
                std::thread::sleep(dwell); // let the reader threads ride it
            }
            recover_if_poisoned(&db, &c);

            // With power restored and the handle healed, push one toggle
            // commit through the committer and, if the observer recorded
            // the resulting epoch, drain the suite against exactly that
            // epoch's oracle — the strict MVCC classification.
            let desired = cycle % 2 == 0;
            for _ in 0..5 {
                match gc.submit_fn(move |d| d.set_node_access(toggle, SubjectId(1), desired)) {
                    Ok(()) => {
                        c.bump(&c.commits);
                        break;
                    }
                    Err(_) => recover_if_poisoned(&db, &c),
                }
            }
            let reader = db.read().expect("db lock").reader();
            let recorded = epoch_states
                .lock()
                .expect("epoch map")
                .get(&reader.epoch())
                .copied();
            if let Some(allowed) = recorded {
                let oracle = if allowed { &oracle_allow } else { &oracle_deny };
                drain_suite(&reader, oracle, oracle, &c, &c.epoch_checked);
            }
        }

        // One cancellation abort, for `CancelToken` coverage.
        {
            let g = db.read().expect("db lock");
            let reader = g.reader();
            let d = Deadline::never();
            d.token().cancel();
            let opts = ExecOptions {
                deadline: d,
                ..ExecOptions::default()
            };
            match reader.query_opts(TABLE1[0].1, Security::BindingLevel(PROBE_SUBJECT), opts) {
                Err(DbError::DeadlineExceeded(_)) => c.bump(&c.cancel_aborts),
                other => panic!("cancelled query must abort typed, got {other:?}"),
            }
        }

        stop.store(true, Ordering::Relaxed);
    });
    let gc_stats = gc.stats();
    gc.close();

    // ---- final: disarm everything, heal, and demand exact answers ----
    transient.set_armed(false);
    brownout.set_armed(false);
    {
        let mut g = db.write().expect("db lock");
        recover_if_poisoned_mut(&mut g, &c);
        g.reset_breaker();
        g.set_node_access(toggle, SubjectId(1), true)
            .expect("post-recovery update must succeed");
        g.verify_integrity().expect("final image must verify");
    }
    let g = db.read().expect("db lock");
    let mut final_exact = 0u64;
    let reader = g.reader();
    for (qi, (_, query)) in TABLE1.iter().enumerate() {
        for subject in 0..SUBJECTS as u32 {
            for vis in [false, true] {
                let key = (qi, subject, vis);
                let r = reader
                    .query(query, security_of(key))
                    .expect("post-recovery query");
                assert_eq!(
                    r.matches, oracle_allow[&key],
                    "post-recovery answer diverged for {key:?}"
                );
                final_exact += 1;
            }
        }
    }
    // Deterministic warm-cache bounded-refusal coverage: the suite above
    // just warmed every pair for this reader, so re-issuing one under an
    // already-expired deadline must be served from the result cache — and
    // is accounted a bounded refusal, exactly as the wire front door
    // (`dol-server`) refuses a pre-expired deadline at dispatch. The `Ok`
    // bumps no CacheStats abort counter, so the deadline reconciliation
    // below is untouched.
    let opts = ExecOptions {
        deadline: Deadline::after(Duration::ZERO),
        ..ExecOptions::default()
    };
    match reader.query_opts(TABLE1[0].1, Security::BindingLevel(SubjectId(0)), opts) {
        Ok(_) => c.bump(&c.bounded_refusals),
        Err(e) => panic!("a warm pair under an expired deadline must serve the hit: {e}"),
    }
    let io = g.io_stats().since(&io0);
    let caches = g.cache_stats();
    // Injections from both fault layers: the low-rate background schedule
    // plus the brownout windows. (The background layer alone can legally
    // flip zero coins on a short smoke run; the brownout's injections are
    // structurally guaranteed by the trip loop, so the combined count is
    // the right liveness gate for the fault plumbing.)
    let transient_injected = transient
        .stats()
        .transient_read_errors
        .load(Ordering::Relaxed)
        + brownout
            .stats()
            .transient_read_errors
            .load(Ordering::Relaxed);
    drop(g);

    print_tables(
        &c,
        io,
        &caches,
        transient_injected,
        nodes,
        final_exact,
        &gc_stats,
    );
    write_json(seed, nodes, cycles, &c, io, transient_injected, &gc_stats);
    assert_gates(&db, &c, io, &caches, transient_injected, cycles, &gc_stats);
    if smoke {
        println!("soak --smoke: all gates passed\n");
    }
}

/// `recover_if_poisoned` for an already-held write guard.
fn recover_if_poisoned_mut(g: &mut SecureXmlDb, c: &Counters) {
    if !g.is_poisoned() {
        return;
    }
    let report = g
        .recover()
        .expect("final recovery must succeed")
        .expect("persistent recovery replays the log");
    c.bump(&c.recoveries);
    c.txns_redone
        .fetch_add(report.committed_txns, Ordering::Relaxed);
    c.pages_redone
        .fetch_add(report.pages_redone, Ordering::Relaxed);
}

#[allow(clippy::too_many_arguments)]
fn print_tables(
    c: &Counters,
    io: dol_storage::IoStats,
    caches: &CacheStats,
    transient_injected: u64,
    nodes: usize,
    final_exact: u64,
    gc: &GroupCommitStats,
) {
    let ld = |a: &AtomicU64| a.load(Ordering::Relaxed).to_string();
    let mut serving = Table::new(
        &format!(
            "serving under chaos (XMark {nodes} nodes, {READERS} readers + {UPDATERS} \
             group-commit updaters)"
        ),
        &[
            "exact",
            "masked",
            "wrong",
            "avail errors",
            "bounded refusals",
            "deadline aborts",
            "cancel aborts",
            "refreshes",
            "epoch-exact",
            "degraded reads",
            "final exact",
        ],
    );
    serving.row(&[
        ld(&c.exact),
        ld(&c.masked),
        ld(&c.wrong),
        ld(&c.availability_errors),
        ld(&c.bounded_refusals),
        ld(&c.deadline_aborts),
        ld(&c.cancel_aborts),
        ld(&c.stale_refreshes),
        ld(&c.epoch_checked),
        ld(&c.degraded_served),
        final_exact.to_string(),
    ]);
    serving.print();
    println!(
        "(`wrong` must be 0: every answer equals the pre- or post-toggle oracle, or is a\n\
         flagged fail-closed subset. `epoch-exact` answers were held to their pinned\n\
         epoch's observer-recorded oracle specifically. `final exact` is the full suite\n\
         after the last recovery — exact matches only, proving no permanent\n\
         unavailability.)\n"
    );

    let mut healing = Table::new(
        "self-healing and fault plumbing",
        &[
            "poison windows",
            "recoveries",
            "txns redone",
            "pages redone",
            "refused",
            "failed",
            "commits",
            "batches",
            "max batch",
            "trips",
            "fast fails",
            "probes",
            "read retries",
            "backoffs",
            "faults injected",
        ],
    );
    healing.row(&[
        ld(&c.poison_windows),
        ld(&c.recoveries),
        ld(&c.txns_redone),
        ld(&c.pages_redone),
        ld(&c.refused_updates),
        ld(&c.failed_updates),
        ld(&c.commits),
        gc.batches.to_string(),
        gc.max_batch_seen.to_string(),
        io.breaker_trips.to_string(),
        io.breaker_fast_fails.to_string(),
        io.breaker_probes.to_string(),
        io.read_retries.to_string(),
        io.backoffs.to_string(),
        transient_injected.to_string(),
    ]);
    healing.print();
    println!(
        "(Every poison window ends in an in-process recovery; the breaker trips under the\n\
         brownout, fast-fails while open, and a half-open probe closes it. Handle-level\n\
         deadline aborts reconcile: counted {} + {} cancellations = CacheStats {}.)\n",
        c.deadline_aborts.load(Ordering::Relaxed),
        c.cancel_aborts.load(Ordering::Relaxed),
        caches.deadline_aborts,
    );
}

#[allow(clippy::too_many_arguments)]
fn assert_gates(
    db: &RwLock<SecureXmlDb>,
    c: &Counters,
    io: dol_storage::IoStats,
    caches: &CacheStats,
    transient_injected: u64,
    cycles: usize,
    gc: &GroupCommitStats,
) {
    let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
    assert_eq!(ld(&c.wrong), 0, "a served answer matched neither oracle");
    assert_eq!(ld(&c.unexpected_errors), 0, "an untyped error escaped");
    assert!(ld(&c.exact) > 0, "the mix never served an answer");
    assert!(
        ld(&c.epoch_checked) > 0,
        "no answer was ever held to a per-epoch oracle"
    );
    // Group-commit reconciliation: every Ok a submitter saw is a committer
    // commit, every member-level failure a rejection (the driver's
    // unlogged retry rejections make this a lower bound), and nothing
    // else; what remains of `submitted` is poisoned batches.
    assert_eq!(
        gc.committed,
        ld(&c.commits),
        "committer commits failed to reconcile with submitter Oks"
    );
    assert!(
        gc.rejected >= ld(&c.failed_updates),
        "member rejections failed to reconcile"
    );
    assert!(
        gc.submitted >= gc.committed + gc.rejected,
        "the committer accounted more outcomes than submissions"
    );
    assert!(gc.batches >= 1, "the committer never committed a batch");
    assert!(
        ld(&c.poison_windows) >= 1,
        "no power cut ever poisoned the handle"
    );
    assert!(
        ld(&c.recoveries) >= ld(&c.poison_windows),
        "a poison window was never healed in process"
    );
    assert!(
        !db.read().expect("db lock").is_poisoned(),
        "the soak ended poisoned"
    );
    assert!(ld(&c.degraded_served) > 0, "no degraded-window read served");
    assert!(
        ld(&c.refused_updates) >= cycles as u64,
        "updates not refused"
    );
    assert!(io.breaker_trips >= 1, "the breaker never tripped");
    assert!(
        io.breaker_fast_fails >= 1,
        "the open breaker never fast-failed"
    );
    assert!(io.breaker_probes >= 1, "no half-open probe was admitted");
    assert!(
        !db.read().expect("db lock").breaker_is_open(),
        "the breaker ended open"
    );
    assert!(ld(&c.deadline_aborts) >= 1, "no deadline abort happened");
    assert!(
        ld(&c.bounded_refusals) >= 1,
        "no warm-cache hit was reclassified as a bounded refusal"
    );
    assert!(ld(&c.cancel_aborts) >= 1, "no cancellation abort happened");
    assert_eq!(
        ld(&c.deadline_aborts) + ld(&c.cancel_aborts),
        caches.deadline_aborts,
        "deadline aborts failed to reconcile with CacheStats"
    );
    assert!(io.read_retries >= 1, "the retry ladder never ran");
    assert!(transient_injected >= 1, "no transient fault was injected");
    assert!(ld(&c.commits) >= 1, "the updater never committed");
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    seed: u64,
    nodes: usize,
    cycles: usize,
    c: &Counters,
    io: dol_storage::IoStats,
    transient_injected: u64,
    gc: &GroupCommitStats,
) {
    let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let out = format!(
        "{{\n  \"experiment\": \"soak\",\n  \"seed\": {seed},\n  \"nodes\": {nodes},\n  \
         \"cycles\": {cycles},\n  \"readers\": {READERS},\n  \"updaters\": {UPDATERS},\n  \
         \"exact\": {},\n  \"masked\": {},\n  \"wrong\": {},\n  \
         \"availability_errors\": {},\n  \"bounded_refusals\": {},\n  \
         \"deadline_aborts\": {},\n  \
         \"cancel_aborts\": {},\n  \"stale_refreshes\": {},\n  \"epoch_checked\": {},\n  \
         \"degraded_served\": {},\n  \"poison_windows\": {},\n  \
         \"recoveries\": {},\n  \"txns_redone\": {},\n  \"pages_redone\": {},\n  \
         \"refused_updates\": {},\n  \"failed_updates\": {},\n  \"commits\": {},\n  \
         \"gc_submitted\": {},\n  \"gc_batches\": {},\n  \"gc_max_batch\": {},\n  \
         \"gc_overloads\": {},\n  \
         \"breaker_trips\": {},\n  \"breaker_fast_fails\": {},\n  \
         \"breaker_probes\": {},\n  \"read_retries\": {},\n  \"backoffs\": {},\n  \
         \"transient_faults_injected\": {}\n}}\n",
        ld(&c.exact),
        ld(&c.masked),
        ld(&c.wrong),
        ld(&c.availability_errors),
        ld(&c.bounded_refusals),
        ld(&c.deadline_aborts),
        ld(&c.cancel_aborts),
        ld(&c.stale_refreshes),
        ld(&c.epoch_checked),
        ld(&c.degraded_served),
        ld(&c.poison_windows),
        ld(&c.recoveries),
        ld(&c.txns_redone),
        ld(&c.pages_redone),
        ld(&c.refused_updates),
        ld(&c.failed_updates),
        ld(&c.commits),
        gc.submitted,
        gc.batches,
        gc.max_batch_seen,
        gc.overloads,
        io.breaker_trips,
        io.breaker_fast_fails,
        io.breaker_probes,
        io.read_retries,
        io.backoffs,
        transient_injected,
    );
    match std::fs::File::create("BENCH_soak.json").and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("(wrote BENCH_soak.json)\n"),
        Err(e) => eprintln!("could not write BENCH_soak.json: {e}"),
    }
}
