//! Committed goldens for the paper's artifacts at the default seed: every
//! table and figure the `tables` binary prints (`tables.txt`, the text of
//! [`pdn_bench::render_tables`]), and on their own Table V (pollution
//! verdicts) and Table VI (IM checking), whose outputs depend on segment
//! hashing and which perfbench pins by hash.
//!
//! A mismatch names the first differing line. After a deliberate change
//! of output, regenerate a golden from the repository root with
//! `cargo run --release --offline -p pdn-bench --bin tables > tests/goldens/tables.txt`
//! (likewise `-- table5 > tests/goldens/table5.txt` and `table6`), and say
//! why it moved.

use pdn_bench::{render_tables, table5, table6, SEED};

const TABLES: &str = include_str!("goldens/tables.txt");
const TABLE5: &str = include_str!("goldens/table5.txt");
const TABLE6: &str = include_str!("goldens/table6.txt");

/// perfbench's per-artifact hashes of the same text at the same seed.
const PERFBENCH_GOLDEN: &str = include_str!("../perfbench/goldens/paper_repro.txt");

fn assert_matches_golden(name: &str, golden: &str, actual: &str) {
    if golden == actual {
        return;
    }
    let (want, got) = (golden.lines(), actual.lines());
    let first = want
        .clone()
        .zip(got.clone())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.clone().count().min(got.clone().count()));
    panic!(
        "{name} differs from tests/goldens/{name}.txt at line {}:\n  golden: {:?}\n  actual: {:?}\n\
         full output:\n{actual}",
        first + 1,
        golden.lines().nth(first),
        actual.lines().nth(first),
    );
}

/// Tables I–VI, Fig. 4–5 and the §IV-B/D and §V-A/C studies, in full.
#[test]
fn tables_match_golden() {
    assert_matches_golden("tables", TABLES, &render_tables(SEED, |_| true));
}

#[test]
fn table5_matches_golden() {
    assert_matches_golden("table5", TABLE5, &format!("{}\n", table5(SEED).render()));
}

#[test]
fn table6_matches_golden() {
    assert_matches_golden(
        "table6",
        TABLE6,
        &format!("{}\n", table6(300, SEED).render()),
    );
}

/// The committed text is the text perfbench pins: its `paper_repro` golden
/// holds the first 16 hex digits of each artifact's SHA-256.
#[test]
fn goldens_agree_with_perfbench_hashes() {
    for (name, text) in [("table5", TABLE5), ("table6", TABLE6)] {
        let hash: String = pdn_crypto::sha256::digest(text.as_bytes())[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let pinned = PERFBENCH_GOLDEN
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("perfbench golden has no {name} line"));
        assert_eq!(hash, pinned, "{name}: committed text vs perfbench hash");
    }
}
