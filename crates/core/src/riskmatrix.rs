//! Assembly of Table V: the security & privacy risk matrix.
//!
//! Every cell is the outcome of actually running the corresponding test
//! from this crate against the provider's profile — nothing is
//! transcribed. The cross-domain row additionally carries the `a/b` key
//! counts from the §IV-B field study (vulnerable keys / valid keys).

use pdn_provider::ProviderProfile;
use pdn_simnet::SimRng;

use crate::freeriding::{self, AuthTestOutcome, FreeRidingResult};
use crate::ip_leak;
use crate::pollution::{self, PollutionMode};
use crate::squatting;
use crate::WorldPool;

/// A Table V cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// The attack succeeded (✓ in the paper's notation).
    Vulnerable,
    /// The attack failed (×).
    Protected,
    /// Key-count cell `a/b` (vulnerable keys / valid keys).
    Keys(usize, usize),
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Vulnerable => write!(f, "vuln"),
            Cell::Protected => write!(f, "safe"),
            Cell::Keys(a, b) => write!(f, "{a}/{b}"),
        }
    }
}

/// One provider column of Table V.
#[derive(Debug, Clone)]
pub struct ProviderColumn {
    /// Provider name.
    pub provider: String,
    /// Cross-domain attack (key counts for public providers).
    pub cross_domain: Cell,
    /// Domain-spoofing attack.
    pub domain_spoofing: Cell,
    /// Direct content pollution.
    pub direct_pollution: Cell,
    /// Video segment pollution.
    pub segment_pollution: Cell,
    /// IP leak.
    pub ip_leak: Cell,
    /// Resource squatting.
    pub resource_squatting: Cell,
}

/// The assembled matrix.
#[derive(Debug, Clone)]
pub struct RiskMatrix {
    /// One column per provider.
    pub columns: Vec<ProviderColumn>,
}

impl RiskMatrix {
    /// Renders the matrix like the paper's Table V.
    pub fn render(&self) -> String {
        let mut out = String::from("TABLE V: Security and privacy risks of PDN services\n");
        out.push_str(&format!(
            "{:<24}{}\n",
            "risk",
            self.columns
                .iter()
                .map(|c| format!("{:<14}", c.provider))
                .collect::<String>()
        ));
        type RowSpec = (&'static str, fn(&ProviderColumn) -> Cell);
        let rows: [RowSpec; 6] = [
            ("cross-domain attack", |c| c.cross_domain),
            ("domain-spoofing attack", |c| c.domain_spoofing),
            ("direct pollution", |c| c.direct_pollution),
            ("segment pollution", |c| c.segment_pollution),
            ("IP leak", |c| c.ip_leak),
            ("resource squatting", |c| c.resource_squatting),
        ];
        for (label, get) in rows {
            out.push_str(&format!(
                "{:<24}{}\n",
                label,
                self.columns
                    .iter()
                    .map(|c| format!("{:<14}", get(c).to_string()))
                    .collect::<String>()
            ));
        }
        out
    }
}

/// Per-provider key counts from the §IV-B field study.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProviderKeyCounts {
    /// Keys valid at test time.
    pub valid: usize,
    /// Valid keys vulnerable to the cross-domain attack.
    pub cross_domain_vulnerable: usize,
}

/// One evaluated matrix cell, before Cell classification.
enum CellRun {
    Auth(FreeRidingResult),
    Flag(bool),
}

/// Number of independent test worlds per provider column.
const TESTS_PER_PROVIDER: usize = 5;

/// Builds the full matrix by running every test against every profile.
///
/// `key_counts` supplies the field-study numbers per provider name
/// (compute them with [`crate::freeriding::key_field_study`] over a
/// detector corpus); pass an empty closure result for boolean cells.
///
/// Every provider×test cell is an independent simulated world; the pool
/// runs them concurrently and merges in index order, so the matrix is
/// byte-identical to the serial build at any worker count. Column seeds
/// are drawn serially from the base RNG *before* the fan-out, preserving
/// the exact per-column seed sequence of the historical serial code.
pub fn build_matrix_pooled(
    profiles: &[ProviderProfile],
    key_counts: impl Fn(&str) -> Option<ProviderKeyCounts>,
    seed: u64,
    pool: &WorldPool,
) -> RiskMatrix {
    let mut rng = SimRng::seed(seed);
    let col_seeds: Vec<u64> = profiles.iter().map(|_| rng.next_u64() >> 8).collect();

    let cells = pool.run(profiles.len() * TESTS_PER_PROVIDER, |j| {
        let profile = &profiles[j / TESTS_PER_PROVIDER];
        let col_seed = col_seeds[j / TESTS_PER_PROVIDER];
        match j % TESTS_PER_PROVIDER {
            0 => CellRun::Auth(freeriding::evaluate_provider(profile, col_seed)),
            1 => CellRun::Flag(
                pollution::run_pollution(profile, PollutionMode::Direct, 2, col_seed + 10)
                    .attack_succeeded(),
            ),
            2 => CellRun::Flag(
                pollution::run_pollution(
                    profile,
                    PollutionMode::FromSeq(profile.slow_start_segments),
                    2,
                    col_seed + 20,
                )
                .attack_succeeded(),
            ),
            3 => CellRun::Flag(ip_leak::ip_leak_basic(profile, col_seed + 30)),
            _ => CellRun::Flag(
                squatting::resource_consumption(profile, 60, col_seed + 40).cpu_overhead() > 0.02,
            ),
        }
    });

    let flag_cell = |run: &CellRun| match run {
        CellRun::Flag(true) => Cell::Vulnerable,
        CellRun::Flag(false) => Cell::Protected,
        CellRun::Auth(_) => unreachable!("flag cell slot holds an auth result"),
    };
    let columns = profiles
        .iter()
        .zip(cells.chunks_exact(TESTS_PER_PROVIDER))
        .map(|(profile, runs)| {
            let fr = match &runs[0] {
                CellRun::Auth(fr) => fr,
                CellRun::Flag(_) => unreachable!("auth cell slot holds a flag"),
            };
            let cross_domain = match key_counts(&profile.name) {
                Some(k) => Cell::Keys(k.cross_domain_vulnerable, k.valid),
                None => match fr.cross_domain {
                    AuthTestOutcome::Vulnerable => Cell::Vulnerable,
                    AuthTestOutcome::Protected => Cell::Protected,
                },
            };
            let domain_spoofing = match fr.domain_spoofing {
                AuthTestOutcome::Vulnerable => Cell::Vulnerable,
                AuthTestOutcome::Protected => Cell::Protected,
            };
            ProviderColumn {
                provider: profile.name.clone(),
                cross_domain,
                domain_spoofing,
                direct_pollution: flag_cell(&runs[1]),
                segment_pollution: flag_cell(&runs[2]),
                ip_leak: flag_cell(&runs[3]),
                resource_squatting: flag_cell(&runs[4]),
            }
        })
        .collect();
    RiskMatrix { columns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_render_in_the_paper_notation() {
        assert_eq!(Cell::Vulnerable.to_string(), "vuln");
        assert_eq!(Cell::Protected.to_string(), "safe");
        assert_eq!(Cell::Keys(11, 36).to_string(), "11/36");
    }

    /// One header line, one line per risk, every cell padded to 14
    /// columns after a 24-column label.
    #[test]
    fn render_lays_out_one_row_per_risk() {
        let column = |name: &str| ProviderColumn {
            provider: name.into(),
            cross_domain: Cell::Keys(0, 3),
            domain_spoofing: Cell::Vulnerable,
            direct_pollution: Cell::Protected,
            segment_pollution: Cell::Vulnerable,
            ip_leak: Cell::Vulnerable,
            resource_squatting: Cell::Protected,
        };
        let matrix = RiskMatrix {
            columns: vec![column("A"), column("B")],
        };
        let text = matrix.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert_eq!(
            lines[0],
            "TABLE V: Security and privacy risks of PDN services"
        );
        assert_eq!(lines[1], format!("{:<24}{:<14}{:<14}", "risk", "A", "B"));
        assert_eq!(
            lines[2],
            format!("{:<24}{:<14}{:<14}", "cross-domain attack", "0/3", "0/3")
        );
        assert!(lines[7].starts_with("resource squatting"));
        assert!(lines[7].contains("safe"));
    }

    /// The headline reproduction: Table V's pattern for the three public
    /// providers. (Run time: several simulated worlds.)
    #[test]
    fn table_v_pattern_for_public_providers() {
        let profiles = [
            ProviderProfile::peer5(),
            ProviderProfile::streamroot(),
            ProviderProfile::viblast(),
        ];
        let counts = |name: &str| {
            // Field-study counts (verified end-to-end in
            // freeriding::tests::field_study_reproduces_section_4b).
            match name {
                "Peer5" => Some(ProviderKeyCounts {
                    valid: 36,
                    cross_domain_vulnerable: 11,
                }),
                "Streamroot" => Some(ProviderKeyCounts {
                    valid: 1,
                    cross_domain_vulnerable: 0,
                }),
                "Viblast" => Some(ProviderKeyCounts {
                    valid: 3,
                    cross_domain_vulnerable: 0,
                }),
                _ => None,
            }
        };
        let matrix = build_matrix_pooled(&profiles, counts, 777, &WorldPool::auto());
        for col in &matrix.columns {
            // Everyone is spoofable, pollutes on segments, leaks IPs, and
            // squats resources; nobody falls to direct pollution.
            assert_eq!(col.domain_spoofing, Cell::Vulnerable, "{}", col.provider);
            assert_eq!(col.direct_pollution, Cell::Protected, "{}", col.provider);
            assert_eq!(col.segment_pollution, Cell::Vulnerable, "{}", col.provider);
            assert_eq!(col.ip_leak, Cell::Vulnerable, "{}", col.provider);
            assert_eq!(col.resource_squatting, Cell::Vulnerable, "{}", col.provider);
        }
        assert!(matches!(matrix.columns[0].cross_domain, Cell::Keys(11, 36)));
        assert!(matches!(matrix.columns[1].cross_domain, Cell::Keys(0, 1)));
        assert!(matches!(matrix.columns[2].cross_domain, Cell::Keys(0, 3)));
        let rendered = matrix.render();
        assert!(rendered.contains("11/36"));
        assert!(rendered.contains("Peer5"));
    }
}
