//! Corporate portal: the multi-user scenario behind the paper's LiveLink
//! experiments — hundreds of subjects whose rights are group-correlated,
//! compressed into one shared DOL codebook.
//!
//! ```sh
//! cargo run --release --example corporate_portal
//! ```

use secure_xml::acl::GroupSpace;
use secure_xml::dol::Dol;
use secure_xml::workloads::{LiveLinkConfig, LiveLinkWorld};
use secure_xml::{SecureXmlDb, Security};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A simulated portal: departments, projects, folders, documents, home
    // areas; users in teams, teams in departments; ten action modes.
    let world = LiveLinkWorld::generate(&LiveLinkConfig {
        departments: 6,
        projects_per_dept: 4,
        project_size: 80,
        users: 200,
        modes: 10,
        seed: 42,
    });
    println!(
        "portal: {} nodes, {} subjects ({} users + groups), {} action modes",
        world.doc.len(),
        world.subject_count(),
        world.subjects.users().count(),
        world.modes()
    );
    let stats = world.doc.stats();
    println!(
        "tree shape: avg depth {:.1}, max depth {} (LiveLink reported 7.9 / 19)\n",
        stats.avg_depth, stats.max_depth
    );

    // Codebook compression across the subject population: the whole point
    // of the multi-subject DOL. Watch entries grow sub-exponentially.
    println!("codebook growth with subject count (mode 0):");
    for n in [2usize, 10, 50, 100, world.subject_count()] {
        let subset = world.sample_subjects(n, 7);
        let stream = world.row_stream(0, Some(&subset));
        let dol = Dol::from_row_stream(world.doc.len() as u64, subset.len(), &stream);
        println!(
            "  {:>4} subjects -> {:>5} codebook entries, {:>6} transitions ({})",
            n,
            dol.codebook().len(),
            dol.transition_count(),
            secure_xml::dol::DolStats::to_string(&dol.stats())
        );
    }

    // Build a queryable secured database over ALL subjects for mode 0.
    struct StreamOracle {
        subjects: usize,
        changes: Vec<(u64, secure_xml::acl::BitVec)>,
    }
    impl secure_xml::acl::AccessOracle for StreamOracle {
        fn subject_count(&self) -> usize {
            self.subjects
        }
        fn acl_row(&self, node: secure_xml::xml::NodeId, out: &mut secure_xml::acl::BitVec) {
            let i = self
                .changes
                .partition_point(|&(p, _)| p <= u64::from(node.0))
                - 1;
            *out = self.changes[i].1.clone();
        }
    }
    // Mode 4 (a mid-privilege mode: some departments and teams hold it,
    // others don't) shows per-user differentiation better than mode 0,
    // which by design grants the whole company a view of the workspace.
    let mode = 4;
    let oracle = StreamOracle {
        subjects: world.subject_count(),
        changes: world.row_stream(mode, None),
    };
    // A user's rights are the OR of their own column and their groups'
    // (paper §4). The group-factored codebook derives that OR live from the
    // catalog's membership table, so each subject keeps its own column and
    // its direct groups as parents.
    let mut space = GroupSpace::new();
    for id in world.subjects.iter() {
        let s = space.add_subject(world.subjects.direct_groups(id));
        space.bind_direct(s, id.0);
    }
    let db = SecureXmlDb::from_document_factored(world.doc.clone(), &oracle, space)?;
    println!("\nembedded DOL (mode {mode}): {}", db.dol_stats()?);

    // Query the portal as a few users: one query answers each user's
    // derived rights.
    let users = world.sample_users(4, 11);
    let all_docs = db.query("//document", Security::None)?.matches.len();
    for u in users {
        let res = db.query("//document", Security::BindingLevel(u))?;
        println!(
            "  {:<10} reaches {:>5} of {} documents",
            world.subjects.name(u),
            res.matches.len(),
            all_docs
        );
    }

    // Page-skip in action: a subject with few rights rejects candidate
    // folders that fall in transition-free denied blocks straight from the
    // in-memory block headers, without reading the page.
    let lone = world.sample_users(1, 5)[0];
    let res = db.query("//folder", Security::BindingLevel(lone))?;
    println!(
        "\n{} querying //folder: {} matches, {} of {} candidates rejected without touching a page",
        world.subjects.name(lone),
        res.matches.len(),
        res.stats.blocks_skipped,
        res.stats.candidates,
    );
    Ok(())
}
