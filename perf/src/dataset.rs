//! Seeded datasets: a document, a labeling over physical columns, and a
//! population of users factored onto those columns through a group space.
//!
//! Each dataset also keeps, for every user, the list of physical columns the
//! user's rights are the OR of — written down here at generation time and
//! never read back from the `GroupSpace`, so the reference oracle
//! ([`Dataset::oracle_map`]) shares no code with the path under test.

use crate::spec::{
    DatasetKind, Workload, DATA_SEED, PORTAL_DEPARTMENTS, PORTAL_TEAMS_PER_DEPT, PORTAL_TEAM_SIZE,
    XMARK_L_SCALE, XMARK_ROLES, XMARK_S_SCALE,
};
use dol_acl::{AccessOracle, AccessibilityMap, BitVec, CascadeRules, GroupSpace, SubjectId};
use dol_workloads::{synth_multi, xmark, GroupedConfig, GroupedWorld, SynthAclConfig, XmarkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::xml::{Document, NodeId};
use secure_xml::{DbError, SecureXmlDb};

/// The labeling of a dataset over its physical columns.
enum Labels {
    /// XMark: eight independent synthetic role columns.
    Roles(AccessibilityMap),
    /// Portal: the narrow cascade policy, as rules (to derive single
    /// columns for the oracle) and as the document-order row stream the
    /// builder labels from.
    Portal {
        rules: CascadeRules,
        rows: Vec<(u64, BitVec)>,
    },
}

impl AccessOracle for Labels {
    fn subject_count(&self) -> usize {
        match self {
            Labels::Roles(map) => map.subject_count(),
            Labels::Portal { rules, .. } => rules.subjects(),
        }
    }

    fn acl_row(&self, node: NodeId, out: &mut BitVec) {
        match self {
            Labels::Roles(map) => map.acl_row(node, out),
            Labels::Portal { rules, rows } => {
                out.resize(rules.subjects());
                out.fill(false);
                let i = rows.partition_point(|&(p, _)| p <= u64::from(node.0));
                if i > 0 {
                    out.or_assign(&rows[i - 1].1);
                }
            }
        }
    }
}

/// One workload's generated inputs, minus the document (which the database
/// built from it owns; see [`Dataset::build_db`]).
pub struct Dataset {
    labels: Labels,
    /// Groups and users; attached to every database built from the dataset.
    space: GroupSpace,
    /// Logical id of user 0; users are contiguous from here.
    pub first_user: u32,
    /// Per user: the physical columns whose OR is the user's rights.
    user_columns: Vec<Vec<u32>>,
    /// Logical ids of the groups a user may join or leave in an update.
    pub groups: Vec<u32>,
}

impl Dataset {
    /// Generates the workload's document, policy and users, always from
    /// [`DATA_SEED`].
    pub fn generate(w: &Workload) -> (Dataset, Document) {
        let seed = DATA_SEED;
        match w.dataset {
            DatasetKind::XmarkS => Self::xmark(w, XMARK_S_SCALE, seed),
            DatasetKind::XmarkL => Self::xmark(w, XMARK_L_SCALE, seed),
            DatasetKind::Portal => Self::portal(w, seed),
        }
    }

    fn xmark(w: &Workload, scale: f64, seed: u64) -> (Dataset, Document) {
        let doc = xmark(&XmarkConfig { scale, seed });
        let acl = SynthAclConfig {
            propagation_ratio: 0.05,
            accessibility_ratio: 0.6,
            sibling_locality: 0.5,
            seed,
        };
        let map = synth_multi(&doc, &acl, XMARK_ROLES);
        // Roles first, so a role's logical id is its physical column.
        let mut space = GroupSpace::new();
        let roles: Vec<SubjectId> = (0..XMARK_ROLES as u32)
            .map(|c| {
                let g = space.add_subject(&[]);
                space.bind_direct(g, c);
                g
            })
            .collect();
        let first_user = space.len() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x05e7_5eed);
        let mut user_columns = Vec::with_capacity(w.users as usize);
        for _ in 0..w.users {
            let a = rng.gen_range(0..XMARK_ROLES as u32);
            let mut cols = vec![a];
            if rng.gen_bool(0.5) {
                let b = (a + rng.gen_range(1..XMARK_ROLES as u32)) % XMARK_ROLES as u32;
                cols.push(b);
            }
            let parents: Vec<SubjectId> = cols.iter().map(|&c| roles[c as usize]).collect();
            space.add_subject(&parents);
            user_columns.push(cols);
        }
        let ds = Dataset {
            labels: Labels::Roles(map),
            space,
            first_user,
            user_columns,
            groups: roles.iter().map(|g| g.0).collect(),
        };
        (ds, doc)
    }

    /// The portal document with the benchmark's own narrow policy. The stock
    /// `GroupedWorld` rules grant the company group the root, which makes
    /// every node visible to every user and leaves §3.3 nothing to skip.
    /// Here the company sees the root node and `shared`, a department its
    /// own node and non-team children, a team its own subtree.
    fn portal(w: &Workload, seed: u64) -> (Dataset, Document) {
        let world = GroupedWorld::generate(&GroupedConfig {
            departments: PORTAL_DEPARTMENTS,
            teams_per_dept: PORTAL_TEAMS_PER_DEPT,
            team_size: PORTAL_TEAM_SIZE,
            initial_users: 0,
            seed,
        });
        let company = world.company();
        let depts = world.depts().to_vec();
        let teams = world.teams().to_vec();
        let mut space = world.space().clone();
        let physical = world.physical_subjects();
        let doc = world.doc;

        let mut rules = CascadeRules::new(physical);
        rules.add(company, doc.root(), true);
        let (mut d, mut t) = (0, 0);
        for child in doc.children(doc.root()) {
            if doc.name_of(child) != "department" {
                continue;
            }
            rules.add(company, child, false);
            rules.add(depts[d], child, true);
            for grandchild in doc.children(child) {
                if doc.name_of(grandchild) == "team" {
                    rules.add(depts[d], grandchild, false);
                    rules.add(teams[t], grandchild, true);
                    t += 1;
                }
            }
            d += 1;
        }
        assert_eq!((d, t), (depts.len(), teams.len()), "portal shape changed");
        let rows = rules.row_stream(&doc, None);

        let first_user = space.len() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x05e7_5eed);
        let mut user_columns = Vec::with_capacity(w.users as usize);
        for _ in 0..w.users {
            let t = rng.gen_range(0..teams.len());
            space.add_subject(&[teams[t]]);
            let dept = depts[t / PORTAL_TEAMS_PER_DEPT];
            // Group ids coincide with their columns in a `GroupedWorld`.
            user_columns.push(vec![company.0, dept.0, teams[t].0]);
        }
        let ds = Dataset {
            labels: Labels::Portal { rules, rows },
            space,
            first_user,
            user_columns,
            groups: teams.iter().map(|g| g.0).collect(),
        };
        (ds, doc)
    }

    /// Labels `doc` and attaches the users: the in-memory database the
    /// image is saved from, which then serves as the twin.
    pub fn build_db(&self, doc: Document) -> Result<SecureXmlDb, DbError> {
        SecureXmlDb::from_document_factored(doc, &self.labels, self.space.clone())
    }

    /// Logical subject id of the `i`-th user.
    pub fn user(&self, i: u32) -> u32 {
        self.first_user + i
    }

    /// One physical column, derived without the codebook or the group space.
    fn column(&self, doc: &Document, col: u32) -> BitVec {
        match &self.labels {
            Labels::Roles(map) => map.column(SubjectId(col)).clone(),
            Labels::Portal { rules, .. } => rules.column(doc, SubjectId(col)),
        }
    }

    /// The reference accessibility of the given users (indices, not ids):
    /// column `k` of the result is the OR of user `users[k]`'s physical
    /// columns. Independent of `GroupSpace` and of the DOL.
    pub fn oracle_map(&self, doc: &Document, users: &[u32]) -> AccessibilityMap {
        let mut cache: std::collections::HashMap<u32, BitVec> = std::collections::HashMap::new();
        let mut map = AccessibilityMap::new(users.len(), doc.len());
        for (k, &u) in users.iter().enumerate() {
            let out = map.column_mut(SubjectId(k as u32));
            for &c in &self.user_columns[u as usize] {
                let col = cache.entry(c).or_insert_with(|| self.column(doc, c));
                out.or_assign(col);
            }
        }
        map
    }

    /// Serialized membership table (part of the ACL fingerprint).
    pub fn space_bytes(&self) -> Vec<u8> {
        self.space.to_bytes()
    }
}
