//! End-to-end persistence: generated documents with synthetic multi-subject
//! access controls survive a save/open round trip bit-for-bit in behaviour,
//! and an image in the previous (version 3) format opens and upgrades.

mod common;

use secure_xml::acl::{AccessibilityMap, SubjectId};
use secure_xml::workloads::{synth_multi, xmark, SynthAclConfig, XmarkConfig};
use secure_xml::xml::NodeId;
use secure_xml::{DbConfig, SecureXmlDb, Security};
use std::path::Path;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("secure-xml-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The image format version in the catalog on page 0 of `path`.
fn image_version(path: &Path) -> u32 {
    let bytes = std::fs::read(path).unwrap();
    u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]])
}

/// `tests/fixtures/v3-two-subjects.dolx` was saved by the version-3 writer
/// from this document and map: subject 0 sees every node, subject 1 every
/// node but those at positions ≡ 1 (mod 3).
#[test]
fn a_version_3_image_opens_and_its_first_commits_write_version_4() {
    const XML: &str = "<a><b><c>v1</c></b><d><e>v2</e><f/><parlist><listitem><keyword>k\
                       </keyword></listitem></parlist></d></a>";
    const SUITE: [&str; 3] = ["//b/c", "//d/e", "//d//keyword"];
    let doc = secure_xml::xml::parse(XML).unwrap();
    let mut map = AccessibilityMap::new(2, doc.len());
    for p in 0..doc.len() as u32 {
        map.set(SubjectId(0), NodeId(p), true);
        map.set(SubjectId(1), NodeId(p), p % 3 != 1);
    }
    let mut oracle = SecureXmlDb::from_document(doc, &map).unwrap();

    // Work on a copy: opening attaches a log and commits write the image.
    let path = tmp("v3-upgrade.dolx");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3-two-subjects.dolx");
    std::fs::copy(fixture, &path).unwrap();
    let mut wal = path.clone().into_os_string();
    wal.push(".wal");
    std::fs::remove_file(&wal).ok();
    assert_eq!(image_version(&path), 3);

    let mut db = SecureXmlDb::open_from(&path).unwrap();
    db.verify_integrity().unwrap();
    assert_eq!(
        common::fingerprint(&db, &SUITE),
        common::fingerprint(&oracle, &SUITE)
    );

    // One ACL edit and one structural insert, on both.
    let graft = secure_xml::xml::parse("<g><h>v3</h></g>").unwrap();
    for d in [&mut db, &mut oracle] {
        d.set_node_access(1, SubjectId(1), true).unwrap();
        d.insert_subtree(3, &graft).unwrap();
    }
    db.verify_integrity().unwrap();
    let expect = common::fingerprint(&oracle, &SUITE);
    assert_eq!(common::fingerprint(&db, &SUITE), expect);
    db.checkpoint().unwrap();
    drop(db);

    assert_eq!(image_version(&path), 4);
    let back = SecureXmlDb::open_from(&path).unwrap();
    back.verify_integrity().unwrap();
    assert_eq!(common::fingerprint(&back, &SUITE), expect);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
}

/// Every (position, subject) bit and the answers to `suite` under both
/// secure semantics, for every subject id the codebook knows.
fn secure_answers(db: &SecureXmlDb, suite: &[&str]) -> String {
    let mut out = String::new();
    for s in 0..db.dol().codebook().logical_subjects() as u32 {
        let s = SubjectId(s);
        for p in 0..db.len() as u64 {
            out.push(if db.accessible(p, s).unwrap() {
                '1'
            } else {
                '0'
            });
        }
        for q in suite {
            for sec in [Security::BindingLevel(s), Security::SubtreeVisibility(s)] {
                out.push_str(&format!("|{:?}", db.query(q, sec).unwrap().matches));
            }
        }
        out.push('\n');
    }
    out
}

/// `tests/fixtures/v4-compaction-{up,down}.dolx` were saved by an earlier
/// writer that compacted in bounded steps, each with its two-phase plan one
/// block into phase Up and phase Down respectively, from the source built
/// here: three subjects over `XML` in blocks of four records, then subject
/// 1 removed. Such an image opens with the plan dropped, answers as the
/// source does, and compacts to the codebook the source compacts to.
#[test]
fn half_compacted_images_open_and_compact_like_their_source() {
    const XML: &str = "<a><b><c>v1</c><c>v2</c></b><d><e/><e/><f><e/></f></d>\
                       <b><c/><c/></b><d><e/><f><e/><e/></f></d></a>";
    const SUITE: [&str; 3] = ["//c", "//e", "/a/d//e"];
    let source = || {
        let doc = secure_xml::xml::parse(XML).unwrap();
        let mut map = AccessibilityMap::new(3, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), p % 4 != 3);
            map.set(SubjectId(1), NodeId(p), p % 3 != 1);
            map.set(SubjectId(2), NodeId(p), (p / 3) % 2 == 0);
        }
        let cfg = DbConfig {
            buffer_pool_pages: 64,
            max_records_per_block: 4,
            epoch_retain: 8,
        };
        let mut db = SecureXmlDb::with_config(doc, &map, cfg).unwrap();
        db.remove_subject(SubjectId(1)).unwrap();
        db
    };
    let entries = |db: &SecureXmlDb| {
        let cb = db.dol().codebook();
        (
            cb.width(),
            cb.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
        )
    };
    for phase in ["up", "down"] {
        let name = format!("v4-compaction-{phase}.dolx");
        let path = tmp(&name);
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(&name);
        std::fs::copy(fixture, &path).unwrap();
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        std::fs::remove_file(&wal).ok();

        let mut db = SecureXmlDb::open_from(&path).unwrap();
        db.verify_integrity().unwrap();
        assert!(
            !db.dol().codebook().is_compact(),
            "{phase}: plan left no duplicate"
        );
        let mut src = source();
        assert_eq!(
            secure_answers(&db, &SUITE),
            secure_answers(&src, &SUITE),
            "{phase}"
        );

        db.compact_subjects().unwrap();
        src.compact_subjects().unwrap();
        db.verify_integrity().unwrap();
        assert_eq!(entries(&db), entries(&src), "{phase}");
        assert_eq!(
            secure_answers(&db, &SUITE),
            secure_answers(&src, &SUITE),
            "{phase}"
        );
        drop(db);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&wal).ok();
    }
}

#[test]
fn generated_database_roundtrips_through_disk() {
    for seed in [1u64, 2, 3] {
        let doc = xmark(&XmarkConfig { scale: 0.03, seed });
        let map = synth_multi(
            &doc,
            &SynthAclConfig {
                propagation_ratio: 0.05,
                accessibility_ratio: 0.6,
                sibling_locality: 0.5,
                seed,
            },
            3,
        );
        let mut db = SecureXmlDb::with_config(
            doc,
            &map,
            DbConfig {
                buffer_pool_pages: 64,
                max_records_per_block: 32,
                epoch_retain: 8,
            },
        )
        .unwrap();
        // A few updates before saving, so non-pristine state is covered.
        db.set_subtree_access(2, SubjectId(1), false).unwrap();
        db.set_node_access(5, SubjectId(2), true).unwrap();
        let copy = db.add_subject(Some(SubjectId(2))).unwrap();

        let path = tmp(&format!("roundtrip-{seed}.dolx"));
        db.save_to(&path).unwrap();
        let back = SecureXmlDb::open_from(&path).unwrap();

        back.store().check_integrity().unwrap();
        back.document().check_integrity().unwrap();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.document().to_xml(), db.document().to_xml());
        // Accessibility is identical for every position and subject,
        // including the copied column.
        for p in 0..db.len() as u64 {
            for s in [SubjectId(0), SubjectId(1), SubjectId(2), copy] {
                assert_eq!(
                    back.accessible(p, s).unwrap(),
                    db.accessible(p, s).unwrap(),
                    "seed {seed} pos {p} subject {s}"
                );
            }
        }
        // Queries agree under all semantics.
        for q in [
            "//item[name][quantity]",
            "//parlist//parlist",
            "/site/regions/*/item/name",
        ] {
            for sec in [
                Security::None,
                Security::BindingLevel(SubjectId(1)),
                Security::SubtreeVisibility(SubjectId(2)),
            ] {
                assert_eq!(
                    back.query(q, sec).unwrap().matches,
                    db.query(q, sec).unwrap().matches,
                    "seed {seed} query {q}"
                );
            }
        }
        // DOL statistics survive.
        let a = db.dol_stats().unwrap();
        let b = back.dol_stats().unwrap();
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.codebook_entries, b.codebook_entries);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn reopened_database_remains_updatable() {
    let doc = xmark(&XmarkConfig {
        scale: 0.02,
        seed: 9,
    });
    let map = synth_multi(&doc, &SynthAclConfig::default(), 2);
    let db = SecureXmlDb::from_document(doc, &map).unwrap();
    let path = tmp("updatable.dolx");
    db.save_to(&path).unwrap();

    let mut back = SecureXmlDb::open_from(&path).unwrap();
    // Updates keep working on the reopened database.
    back.set_subtree_access(0, SubjectId(0), true).unwrap();
    assert!(back.accessible(10, SubjectId(0)).unwrap());
    let items = back.query("//item", Security::None).unwrap().matches;
    if items.len() > 1 {
        back.delete_subtree(items[0]).unwrap();
        back.store().check_integrity().unwrap();
        assert_eq!(
            back.query("//item", Security::None).unwrap().matches.len(),
            items.len() - 1
        );
    }
    std::fs::remove_file(&path).ok();
}
