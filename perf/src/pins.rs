//! Pinned fingerprints of the inputs and of the default seed's answers.
//!
//! `pins.txt` holds, per workload, the node count and the hashes of the
//! serialized document and of the ACL matrix sample — the same for every
//! seed, since the datasets come from `DATA_SEED` — and the hashes of the op
//! sequences and of the warm-up answers for [`DEFAULT_SEED`]. A run that
//! computes anything else stops with "inputs drifted": a later edit to a
//! generator in `dol-workloads`, or any change to an answer byte, cannot
//! pass as the same benchmark. Seeds other than the default print their op
//! and answer fingerprints and rely on the sampled oracle. (`dol-perf pins`
//! prints a fresh file.)

use crate::ops::Fingerprints;
use crate::spec::DEFAULT_SEED;

const PINS: &str = include_str!("../pins.txt");

/// One `pins.txt` line.
pub fn line(workload: &str, f: &Fingerprints) -> String {
    format!(
        "{workload} {} {:016x} {:016x} {:016x} {:016x}",
        f.nodes, f.doc_fnv, f.acl_fnv, f.ops_fnv, f.answers_fnv
    )
}

pub fn check(workload: &str, seed: u64, f: &Fingerprints) -> Result<(), String> {
    let Some(pinned) = PINS
        .lines()
        .find(|l| l.split_whitespace().next() == Some(workload))
    else {
        // An unpinned workload can only be one that was just added.
        return Ok(());
    };
    let computed = line(workload, f);
    // Fields 0..4 are the workload and the data fingerprints; the last two
    // depend on the seed.
    let fields = if seed == DEFAULT_SEED { 6 } else { 4 };
    let head = |l: &str| {
        l.split_whitespace()
            .take(fields)
            .collect::<Vec<_>>()
            .join(" ")
    };
    if head(pinned) == head(&computed) {
        return Ok(());
    }
    Err(format!(
        "inputs drifted for {workload} at seed {seed}\n  pinned   {}\n  computed {}\n  \
         columns: workload nodes doc acl ops answers",
        pinned.trim(),
        computed
    ))
}
