//! Answer checking: the naive reference evaluator before timing, the
//! in-memory twin after it, and the durability check after the kill.

use crate::dataset::Dataset;
use crate::ops::{oracle_picks, QueryOp, Update};
use crate::spec::Workload;
use dol_acl::SubjectId;
use dol_nok::parse_query;
use dol_nok::reference::{naive_eval, RefSecurity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::xml::Document;
use secure_xml::SecureXmlDb;
use std::collections::HashMap;

/// Checks a sample of the warm-up pass's wire answers against
/// `dol_nok::reference::naive_eval` over the in-memory document and an
/// accessibility map OR-ed from the dataset's own column lists. Returns the
/// number of ops checked and a description of each mismatch.
pub fn oracle_check(
    w: &Workload,
    ds: &Dataset,
    doc: &Document,
    warm: &[QueryOp],
    answers: &[Vec<u64>],
) -> (usize, Vec<String>) {
    let picks = oracle_picks(warm.len());
    let mut users: Vec<u32> = picks.iter().map(|&i| warm[i].user).collect();
    users.sort_unstable();
    users.dedup();
    let map = ds.oracle_map(doc, &users);
    let mut wrong = Vec::new();
    for &i in &picks {
        let op = warm[i];
        let col = users.binary_search(&op.user).expect("user was collected");
        let subject = SubjectId(col as u32);
        let pattern = parse_query(w.queries[op.qi as usize]).expect("workload query parses");
        let sec = if op.subtree {
            RefSecurity::Subtree(&map, subject)
        } else {
            RefSecurity::Binding(&map, subject)
        };
        let expect = naive_eval(doc, &pattern, sec);
        if expect != answers[i] {
            wrong.push(format!(
                "oracle mismatch on {op:?}: wire {} matches, reference {}",
                answers[i].len(),
                expect.len()
            ));
        }
    }
    (picks.len(), wrong)
}

/// A measured reader answer kept for the twin replay: the epoch the
/// response carried, the op, and the hash of its matches.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub epoch: u64,
    pub op: QueryOp,
    pub hash: u64,
}

/// The in-memory database the image was saved from, advanced update by
/// update in the order the updater sent them. The server bumps its epoch
/// once per committed update (one updater connection, one request in
/// flight), so epoch `e` is the state after the first `e` updates.
pub struct Twin {
    pub db: SecureXmlDb,
    applied: usize,
}

impl Twin {
    pub fn new(db: SecureXmlDb) -> Twin {
        Twin { db, applied: 0 }
    }

    fn advance_to(&mut self, epoch: usize, updates: &[Update]) -> Result<(), String> {
        while self.applied < epoch {
            let u = updates.get(self.applied).ok_or_else(|| {
                format!("epoch {epoch} is past the {} updates sent", updates.len())
            })?;
            u.apply(&mut self.db)
                .map_err(|e| format!("twin update {u:?}: {e}"))?;
            self.applied += 1;
        }
        Ok(())
    }

    /// Re-derives every sample at its epoch. Returns one line per wrong
    /// answer. Leaves the twin at the state after all `updates`.
    pub fn replay(
        &mut self,
        w: &Workload,
        ds: &Dataset,
        mut samples: Vec<Sample>,
        updates: &[Update],
    ) -> Result<Vec<String>, String> {
        samples.sort_by_key(|s| s.epoch);
        let mut wrong = Vec::new();
        let mut memo: HashMap<QueryOp, u64> = HashMap::new();
        let mut memo_epoch = u64::MAX;
        for s in samples {
            if s.epoch != memo_epoch {
                self.advance_to(s.epoch as usize, updates)?;
                memo.clear();
                memo_epoch = s.epoch;
            }
            let expect = match memo.get(&s.op) {
                Some(&h) => h,
                None => {
                    let r = self
                        .db
                        .query(w.queries[s.op.qi as usize], s.op.security(ds))
                        .map_err(|e| format!("twin query {:?}: {e}", s.op))?;
                    let h = s.op.answer_hash(&r.matches);
                    memo.insert(s.op, h);
                    h
                }
            };
            if expect != s.hash {
                wrong.push(format!(
                    "answer at epoch {} differs from the twin: {:?}",
                    s.epoch, s.op
                ));
            }
        }
        self.advance_to(updates.len(), updates)?;
        Ok(wrong)
    }
}

/// After the SIGKILL: the reopened image must be the twin's final state.
/// Compares sampled accessibility bits of the updated users and a suite of
/// every workload query under both semantics. Returns the number of
/// comparisons and one line per violation.
pub fn durability_check(
    w: &Workload,
    ds: &Dataset,
    twin: &SecureXmlDb,
    reopened: &SecureXmlDb,
    seed: u64,
) -> Result<(usize, Vec<String>), String> {
    let mut violations = Vec::new();
    let mut compared = 0;
    if twin.len() != reopened.len() {
        violations.push(format!(
            "reopened image has {} nodes, twin {}",
            reopened.len(),
            twin.len()
        ));
        return Ok((1, violations));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd07a);
    let users = crate::spec::UPDATABLE_USERS.min(w.users);
    for _ in 0..2048 {
        let pos = rng.gen_range(0..twin.len() as u64);
        let subject = SubjectId(ds.user(rng.gen_range(0..users)));
        let a = twin.accessible(pos, subject).map_err(|e| e.to_string())?;
        let b = reopened
            .accessible(pos, subject)
            .map_err(|e| e.to_string())?;
        compared += 1;
        if a != b {
            violations.push(format!(
                "accessible({pos}, {subject}) lost: twin {a}, image {b}"
            ));
        }
    }
    for qi in 0..w.queries.len() as u8 {
        for user in [0, users - 1] {
            for subtree in [false, true] {
                let op = QueryOp { qi, user, subtree };
                let q = w.queries[qi as usize];
                let a = twin.query(q, op.security(ds)).map_err(|e| e.to_string())?;
                let b = reopened
                    .query(q, op.security(ds))
                    .map_err(|e| e.to_string())?;
                compared += 1;
                if a.matches != b.matches {
                    violations.push(format!("suite answer lost after reopen: {op:?}"));
                }
            }
        }
    }
    Ok((compared, violations))
}
