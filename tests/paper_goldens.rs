//! Committed goldens for the paper's artifacts at the default seed: every
//! table and figure the `tables` binary prints (`tables.txt`, the text of
//! [`pdn_bench::render_tables`]), and on their own Table V (pollution
//! verdicts) and Table VI (IM checking), whose outputs depend on segment
//! hashing and which perfbench pins by hash. The measured cells that
//! EXPERIMENTS.md quotes from the same output are checked against it.
//!
//! A mismatch names the first differing line. After a deliberate change
//! of output, regenerate a golden from the repository root with
//! `cargo run --release --offline -p pdn-bench --bin tables > tests/goldens/tables.txt`
//! (likewise `-- table5 > tests/goldens/table5.txt` and `table6`), and say
//! why it moved.

use pdn_bench::{assert_matches_golden, render_tables, table5_pooled, table6, SEED};
use pdn_core::WorldPool;

const TABLES: &str = include_str!("goldens/tables.txt");
const TABLE5: &str = include_str!("goldens/table5.txt");
const TABLE6: &str = include_str!("goldens/table6.txt");
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// perfbench's per-artifact hashes of the same text at the same seed.
const PERFBENCH_GOLDEN: &str = include_str!("../perfbench/goldens/paper_repro.txt");

/// Tables I–VI, Fig. 4–5 and the §IV-B/D and §V-A/C studies, in full.
#[test]
fn tables_match_golden() {
    assert_matches_golden(
        "tests/goldens/tables.txt",
        TABLES,
        &render_tables(SEED, &WorldPool::auto(), |_| true),
    );
}

#[test]
fn table5_matches_golden() {
    assert_matches_golden(
        "tests/goldens/table5.txt",
        TABLE5,
        &format!("{}\n", table5_pooled(SEED, &WorldPool::auto()).render()),
    );
}

#[test]
fn table6_matches_golden() {
    assert_matches_golden(
        "tests/goldens/table6.txt",
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

/// The cells of the EXPERIMENTS.md table row whose first cell is `first`.
fn experiments_row(first: &str) -> Vec<&'static str> {
    let line = EXPERIMENTS
        .lines()
        .find(|l| l.starts_with(&format!("| {first} |")))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no table row `| {first} |`"));
    line.trim_matches('|').split('|').map(str::trim).collect()
}

/// The fields of the first `tables.txt` line after `section` for which
/// `pick` holds, split on `sep`.
fn golden_fields(section: &str, sep: char, pick: impl Fn(&[&str]) -> bool) -> Vec<&'static str> {
    TABLES
        .lines()
        .skip_while(|l| !l.starts_with(section))
        .map(|l| {
            l.split(sep)
                .map(str::trim)
                .filter(|f| !f.is_empty())
                .collect::<Vec<_>>()
        })
        .find(|f| pick(f))
        .unwrap_or_else(|| panic!("tests/goldens/tables.txt: no matching line after {section:?}"))
}

/// `n` with thousands separators, as EXPERIMENTS.md writes counts.
fn thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// The measured cells EXPERIMENTS.md quotes for Table VI, Fig. 4, Fig. 5
/// and the §IV-D harvest are the numbers `tables` prints at the paper seed.
#[test]
fn experiments_md_agrees_with_golden() {
    let mismatch =
        |what: &str| format!("EXPERIMENTS.md {what} disagrees with tests/goldens/tables.txt");

    // Table VI: `Chrome  | Yes  | No   | 1.16  | 1.09   | 1572ms`.
    for (row, im) in [("PDN", "No"), ("PDN + IM", "Yes")] {
        let g = golden_fields("TABLE VI", '|', |f| {
            f.len() == 6 && f[1] == "Yes" && f[2] == im
        });
        let ms: u64 = g[5].trim_end_matches("ms").parse().expect("latency in ms");
        let cells = experiments_row(row);
        let want = [
            format!("**{}**", g[3]),
            format!("**{}**", g[4]),
            format!("{} ms", thousands(ms)),
        ];
        let got = [cells[2], cells[4], cells[6]];
        assert_eq!(
            got,
            want,
            "{}",
            mismatch(&format!("Table VI {row} CPU/memory/latency"))
        );
    }

    // Fig. 4: `overhead vs no-peer: +11% CPU, +8% memory (paper: ...)`.
    let overhead = TABLES
        .lines()
        .find_map(|l| l.strip_prefix("overhead vs no-peer: "))
        .and_then(|l| l.split(" (paper").next())
        .expect("Fig. 4 overhead line");
    assert!(
        EXPERIMENTS.contains(&format!("**{overhead}**")),
        "{}: golden reads {overhead:?}",
        mismatch("Fig. 4 overhead")
    );

    // Fig. 5: `        5         69.1         21.0     3.29x`.
    for n in ["1", "2", "3", "4", "5"] {
        let g = golden_fields("FIGURE 5", ' ', |f| f.len() == 4 && f[0] == n);
        let ratio = g[3].replace('x', "×");
        assert_eq!(
            experiments_row(n)[1],
            ratio,
            "{}",
            mismatch(&format!("Fig. 5 at {n} neighbors"))
        );
    }

    // §IV-D: `  Huya TV    unique   8418 (public ...`.
    for channel in ["Huya TV", "RT News"] {
        let g = golden_fields("§IV-D IP leak", ' ', |f| {
            f.len() > 3 && f[0..3].join(" ") == format!("{channel} unique")
        });
        let unique: u64 = g[3].parse().expect("unique IP count");
        assert_eq!(
            experiments_row(&format!("{channel} unique IPs"))[2],
            format!("**{}**", thousands(unique)),
            "{}",
            mismatch(&format!("§IV-D {channel} unique IPs"))
        );
    }
}
