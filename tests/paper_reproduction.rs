//! The headline reproduction test: every table and figure of the paper, at
//! reduced scale, in one pass. EXPERIMENTS.md documents the full-scale
//! numbers; this test pins the *shapes* so regressions are caught in CI.

use pdn_bench::*;
use pdn_core::WorldPool;

#[test]
fn tables_1_to_4_counts() {
    let (_, report) = detection_report(SEED);
    let totals: (usize, usize) = report
        .table1
        .iter()
        .fold((0, 0), |(c, p), r| (c + r.websites.0, p + r.websites.1));
    assert_eq!(totals, (17, 134), "Table I website funnel");
    let apps: (usize, usize) = report
        .table1
        .iter()
        .fold((0, 0), |(c, p), r| (c + r.apps.0, p + r.apps.1));
    assert_eq!(apps, (18, 38), "Table I app funnel");
    let apks: (u32, u32) = report
        .table1
        .iter()
        .fold((0, 0), |(c, p), r| (c + r.apks.0, p + r.apks.1));
    assert_eq!(apks, (252, 627), "Table I APK funnel");
    assert_eq!(report.table2.len(), 17, "Table II rows");
    assert_eq!(report.table3.len(), 18, "Table III rows");
    assert_eq!(report.table4.len(), 10, "Table IV rows");
    assert_eq!(report.triage.top10k_candidates, 57, "§III-D funnel");
}

#[test]
fn section_4b_field_study() {
    let s = freeriding_study(SEED);
    assert_eq!(s.tested, 44);
    assert_eq!(s.valid, 40);
    assert_eq!(s.expired, 4);
    assert_eq!(s.cross_domain_vulnerable, 11);
    assert_eq!(s.spoof_vulnerable, 40);
}

#[test]
fn figure4_overheads() {
    let fig = figure4(90, SEED);
    let cpu = fig.cpu_overhead();
    let mem = fig.mem_overhead();
    assert!(
        cpu > 0.05 && cpu < 0.35,
        "+{:.0}% CPU (paper +15%)",
        cpu * 100.0
    );
    assert!(
        mem > 0.03 && mem < 0.20,
        "+{:.0}% mem (paper +10%)",
        mem * 100.0
    );
}

#[test]
fn figure5_scaling() {
    let pts = figure5(3, 60, SEED, &WorldPool::auto());
    assert!(pts[2].upload_ratio() > pts[0].upload_ratio() * 1.8);
    assert!(pts[2].upload_ratio() > 1.2, "≥200%-of-download ballpark");
}

#[test]
fn section_4d_wild_harvest() {
    let (huya, rt) = ip_leak_wild_pooled(2.0, SEED, &WorldPool::auto());
    assert!(huya.unique_ips > 1_000);
    assert!(huya.top_country_share() > 0.9, "Huya ≈98% CN");
    assert!(rt.countries.len() > 20, "RT spreads across many countries");
    assert!(huya.bogons > 0 && huya.bogon_private > huya.bogon_cgnat);
}

#[test]
fn section_5a_token() {
    let t = token_defense(SEED);
    assert!(t.defense_holds());
    assert!((240..=330).contains(&t.token_bytes), "≈283-byte JWT");
}

#[test]
fn section_5c_mitigation() {
    let (huya_m, rt_m) = privacy_mitigation_pooled(1.0, SEED, &WorldPool::auto());
    assert_eq!(huya_m.public_ips, 0, "US observer sees no CN viewers");
    assert!(rt_m.countries.keys().all(|c| c == "US"));
}
