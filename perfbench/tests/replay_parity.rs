//! The layer replay must track `run_service`: on a short config, its
//! admitted, denied, turned-away and refused counts stay within
//! `replay::TOLERANCE_PCT` of the real run's, at the knee and under
//! overload.

use std::time::Duration;

use pdn_provider::service::{run_service, ServiceConfig};
use perfbench::replay::{Replay, TOLERANCE_PCT};
use perfbench::tracker;

fn short(mut cfg: ServiceConfig) -> ServiceConfig {
    cfg.run_for = Duration::from_secs(2);
    cfg.mean_session = Duration::from_millis(1_500);
    cfg.stats_every = Duration::from_secs(1);
    cfg
}

fn assert_within(what: &str, replayed: u64, real: u64) {
    let delta = 100.0 * (replayed as f64 - real as f64).abs() / real.max(1) as f64;
    assert!(
        delta <= TOLERANCE_PCT,
        "{what}: replay {replayed} vs real {real} ({delta:.2}% > {TOLERANCE_PCT}%)"
    );
}

#[test]
fn replay_counts_track_the_real_run() {
    for (name, cfg) in [
        ("knee", short(tracker::knee(3))),
        ("overload", short(tracker::overload(3))),
    ] {
        let real = run_service(&cfg);
        let replay = Replay::new(&cfg).run();
        assert!(real.joins_ok > 0, "{name}: the short run admits joins");
        assert_within(&format!("{name} arrivals"), replay.arrivals, real.arrivals);
        assert_within(&format!("{name} admitted"), replay.joins_ok, real.joins_ok);
        assert_within(
            &format!("{name} denied"),
            replay.joins_denied,
            real.joins_denied,
        );
        assert_within(
            &format!("{name} turned away"),
            replay.turned_away,
            real.turned_away,
        );
        assert_within(
            &format!("{name} refused"),
            replay.refused,
            real.shed.total_refused(),
        );
    }
}

#[test]
fn overload_replay_refuses_most_frames() {
    let cfg = short(tracker::overload(5));
    let replay = Replay::new(&cfg).run();
    assert!(
        replay.refused * 2 > replay.offered,
        "overload sheds or denies most frames: {} of {}",
        replay.refused,
        replay.offered
    );
    assert!(replay.drain.calls > 0 && replay.admit.calls > 0);
}
