//! Fault-injection experiment: checksum detection coverage and fail-closed
//! query semantics.
//!
//! Two questions, answered on the fig-4 style workload (XMark document,
//! synthetic single-subject column):
//!
//! 1. **Detection** — under a deterministic fault schedule (transient read
//!    errors plus sticky single-bit flips), does the CRC-32C page trailer
//!    catch *every* corrupted page, with zero silent corruptions?
//! 2. **Fail-closed** — do secure queries over the faulty store always
//!    return a *subset* of the fault-free answers (corruption may hide
//!    nodes, never leak them), while unsecured queries surface the error?

use crate::setup::{synth_column, xmark_doc, BenchDb, ColumnOracle, SUBJECT, TABLE1};
use crate::table::Table;
use crate::Effort;
use dol_nok::Security;
use dol_storage::disk::StorageError;
use dol_storage::{Disk, FaultConfig, FaultDisk, MemDisk, PageId};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The fixed seed used when the caller does not supply one (CI does not).
pub const DEFAULT_SEED: u64 = 0x00D0_1FA1;

/// Runs the full experiment: detection audit, then fail-closed sweep.
pub fn run(effort: Effort, seed: u64) {
    println!("Fault injection (seed {seed:#x})\n");
    let schedules = [
        // The acceptance schedule: 1% transient reads, 0.1% sticky flips.
        ("paper-rate", 0.01, 0.001),
        // Denser corruption, so the corrupt path is exercised even on the
        // small quick-mode image where 0.1% of pages rounds to zero.
        ("10x-flips", 0.01, 0.01),
        ("stress", 0.05, 0.15),
    ];
    let mut audit = Table::new(
        "fault detection audit (full image scan, cold cache)",
        &[
            "schedule",
            "pages",
            "corrupt",
            "detected",
            "silent",
            "transient",
            "retries",
            "backoffs",
            "breaker trips",
        ],
    );
    let mut sweep = Table::new(
        "fail-closed query sweep (secure answers vs fault-free oracle)",
        &[
            "schedule",
            "mode",
            "queries",
            "subset",
            "answers kept",
            "failed closed",
            "unsec errors",
        ],
    );
    let oracle_db = build_db(effort, None, seed);
    for (i, (name, transient, flips)) in schedules.into_iter().enumerate() {
        let cfg = FaultConfig {
            // Decorrelate the schedules: with a shared seed they would all
            // reuse the same underlying coin flips.
            seed: seed.wrapping_add(i as u64),
            transient_read_error: transient,
            sticky_bit_flip: flips,
            ..FaultConfig::default()
        };
        let (db, fault) = build_faulty(effort, cfg, seed);
        audit.row(&audit_row(name, &db, &fault));
        for row in sweep_rows(name, &oracle_db, &db) {
            sweep.row(&row);
        }
    }
    audit.print();
    println!(
        "(Every sticky-corrupt page must be *detected* — surfaced as StorageError::Corrupt —\n\
         and `silent` must be 0: no corrupted page may ever read back Ok.)\n"
    );
    sweep.print();
    println!(
        "(`subset` must equal `queries`: under both secure semantics a faulty store can only\n\
         hide answers, never add them. Unsecured runs have nothing to protect, so corrupt\n\
         reads surface as errors instead — counted in `unsec errors`.)\n"
    );
}

/// The fig-4 style workload column: 50% accessibility, with the shallow
/// structural spine (depth ≤ 2) forced accessible so the anchored queries
/// measure leaf-level filtering rather than a root coin flip (as in fig7).
fn workload(effort: Effort, seed: u64) -> (dol_xml::Document, ColumnOracle) {
    let doc = xmark_doc(effort.scale(0.2, 1.0));
    let mut col = synth_column(&doc, 0.5, 0.03, seed);
    for id in doc.preorder() {
        if doc.node(id).depth <= 2 {
            col.set(id.index(), true);
        }
    }
    (doc, ColumnOracle(col))
}

fn build_db(effort: Effort, disk: Option<Arc<FaultDisk>>, seed: u64) -> BenchDb {
    let (doc, oracle) = workload(effort, seed);
    match disk {
        Some(d) => BenchDb::build_on(d, doc, &oracle, 64),
        None => BenchDb::build(doc, &oracle, 64),
    }
}

/// Builds the faulty twin: same document, same column, same layout (the
/// fault decorator is disarmed during the build, and allocation always
/// passes through, so page numbering matches the fault-free oracle).
fn build_faulty(effort: Effort, cfg: FaultConfig, seed: u64) -> (BenchDb, Arc<FaultDisk>) {
    let fault = Arc::new(FaultDisk::new(Arc::new(MemDisk::new()), cfg));
    fault.set_armed(false);
    let db = build_db(effort, Some(fault.clone()), seed);
    db.pool.flush_all().expect("flush clean build");
    fault.set_armed(true);
    db.pool.clear_cache().expect("no dirty pages after flush");
    (db, fault)
}

/// Reads every page of the image once (cold cache) and classifies the
/// outcome against the disk's own list of sticky-corrupt pages.
fn audit_row(name: &str, db: &BenchDb, fault: &FaultDisk) -> Vec<String> {
    let pages = fault.num_pages();
    let corrupt: Vec<PageId> = fault.sticky_corrupt_pages();
    let io_before = db.pool.stats();
    let mut detected = 0u64;
    let mut silent = 0u64;
    for p in 0..pages {
        let id = PageId(p);
        let is_corrupt = corrupt.contains(&id);
        match db.pool.with_page(id, |_| ()) {
            Ok(()) if is_corrupt => silent += 1,
            Ok(()) => {}
            Err(StorageError::Corrupt { page, .. }) if is_corrupt => {
                assert_eq!(page, id, "corruption reported on the failing page");
                detected += 1;
            }
            Err(e) => panic!("page {id}: unexpected error {e} (corrupt={is_corrupt})"),
        }
    }
    assert_eq!(silent, 0, "{name}: corrupted pages must never read back Ok");
    assert_eq!(
        detected,
        corrupt.len() as u64,
        "{name}: every corrupted page must surface StorageError::Corrupt"
    );
    let io = db.pool.stats().since(&io_before);
    vec![
        name.to_string(),
        pages.to_string(),
        corrupt.len().to_string(),
        detected.to_string(),
        silent.to_string(),
        fault
            .stats()
            .transient_read_errors
            .load(Ordering::Relaxed)
            .to_string(),
        io.read_retries.to_string(),
        io.backoffs.to_string(),
        // The audit runs under the default policy (breaker disabled), so a
        // deterministic fault schedule keeps its exact per-page retry
        // sequence; the column proves the counter stays quiet here (the
        // soak experiment exercises the tripping path).
        io.breaker_trips.to_string(),
    ]
}

/// Runs the Table-1 queries on the faulty store under each security mode and
/// checks them against the fault-free oracle.
fn sweep_rows(name: &str, oracle: &BenchDb, faulty: &BenchDb) -> Vec<Vec<String>> {
    let modes = [
        ("eps-NoK", Security::BindingLevel(SUBJECT)),
        ("eps-STD", Security::SubtreeVisibility(SUBJECT)),
    ];
    let mut rows = Vec::new();
    for (mode_name, sec) in modes {
        let mut subset = 0usize;
        let mut kept = 0usize;
        let mut total = 0usize;
        let mut failed_closed = 0u64;
        for (id, q) in &TABLE1 {
            let expect = oracle.engine().execute(q, sec).expect("oracle query");
            faulty.pool.clear_cache().expect("clean cache");
            let got = faulty
                .engine()
                .execute(q, sec)
                .unwrap_or_else(|e| panic!("{id} must not fail under {mode_name}: {e}"));
            let is_subset = got.matches.iter().all(|m| expect.matches.contains(m));
            assert!(
                is_subset,
                "{name}/{mode_name}/{id}: faulty answers must be a subset of the oracle"
            );
            subset += usize::from(is_subset);
            kept += got.matches.len();
            total += expect.matches.len();
            failed_closed += got.stats.blocks_failed_closed;
        }
        rows.push(vec![
            name.to_string(),
            mode_name.to_string(),
            TABLE1.len().to_string(),
            subset.to_string(),
            format!("{kept}/{total}"),
            failed_closed.to_string(),
            "-".to_string(),
        ]);
    }
    // Unsecured runs: a corrupt read is an error, never a wrong answer.
    let mut unsec_errors = 0usize;
    let mut ok_and_equal = 0usize;
    for (id, q) in &TABLE1 {
        let expect = oracle.engine().execute(q, Security::None).expect("oracle");
        faulty.pool.clear_cache().expect("clean cache");
        match faulty.engine().execute(q, Security::None) {
            Ok(got) => {
                assert_eq!(
                    got.matches, expect.matches,
                    "{name}/None/{id}: a successful unsecured run must be exact"
                );
                ok_and_equal += 1;
            }
            Err(_) => unsec_errors += 1,
        }
    }
    rows.push(vec![
        name.to_string(),
        "none".to_string(),
        TABLE1.len().to_string(),
        ok_and_equal.to_string(),
        "-".to_string(),
        "-".to_string(),
        unsec_errors.to_string(),
    ]);
    rows
}
