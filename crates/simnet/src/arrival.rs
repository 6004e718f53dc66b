//! Open-loop arrival processes on virtual time.
//!
//! Closed-loop trials (spawn N viewers, run to a deadline) measure the
//! *simulator*; a serving story needs clients that arrive on their own
//! clock regardless of how the server is doing. [`PoissonArrivals`] draws
//! a nonhomogeneous Poisson process over [`SimTime`] by thinning: draw
//! candidate gaps at the plan's peak rate, accept each candidate with
//! probability `rate(t) / peak`. Every draw flows through [`SimRng`], so
//! an arrival stream is a pure function of `(plan, seed)` — reruns are
//! byte-identical.
//!
//! [`RatePlan`] covers the serving scenarios of the paper's PDN
//! providers: steady load, the diurnal wave of a live audience, a flash
//! crowd (breaking-news spike), and a regional failover (a sibling
//! tracker's audience dumped onto this one mid-run).

use std::time::Duration;

use crate::rng::SimRng;
use crate::time::SimTime;

/// A deterministic arrival-rate schedule (arrivals per virtual second).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RatePlan {
    /// Constant rate.
    Steady {
        /// Arrivals per second.
        per_sec: f64,
    },
    /// A raised-cosine day curve: `base` at the trough, `peak` at the
    /// crest, one full cycle every `period`.
    Diurnal {
        /// Trough rate.
        base_per_sec: f64,
        /// Crest rate.
        peak_per_sec: f64,
        /// Cycle length.
        period: Duration,
    },
    /// Steady `base`, multiplied by `mult` inside `[at, at + dur)` — the
    /// flash-crowd spike.
    FlashCrowd {
        /// Baseline rate.
        base_per_sec: f64,
        /// Spike multiplier (≥ 1).
        mult: f64,
        /// Spike onset.
        at: SimTime,
        /// Spike duration.
        dur: Duration,
    },
    /// Steady `base` until `at`, then `base · mult` for the rest of the
    /// run: a sibling region's tracker died and its audience failed over
    /// here, permanently (for this run).
    Failover {
        /// Baseline rate.
        base_per_sec: f64,
        /// Post-failover multiplier (≥ 1).
        mult: f64,
        /// Failover instant.
        at: SimTime,
    },
}

impl RatePlan {
    /// The instantaneous rate at `t` (arrivals per second).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            RatePlan::Steady { per_sec } => per_sec,
            RatePlan::Diurnal {
                base_per_sec,
                peak_per_sec,
                period,
            } => {
                let phase = t.as_secs_f64() / period.as_secs_f64().max(1e-9);
                let wave = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                base_per_sec + (peak_per_sec - base_per_sec) * wave
            }
            RatePlan::FlashCrowd {
                base_per_sec,
                mult,
                at,
                dur,
            } => {
                if t >= at && t < at + dur {
                    base_per_sec * mult
                } else {
                    base_per_sec
                }
            }
            RatePlan::Failover {
                base_per_sec,
                mult,
                at,
            } => {
                if t >= at {
                    base_per_sec * mult
                } else {
                    base_per_sec
                }
            }
        }
    }

    /// The supremum of [`RatePlan::rate_at`] — the thinning envelope.
    pub fn peak(&self) -> f64 {
        match *self {
            RatePlan::Steady { per_sec } => per_sec,
            RatePlan::Diurnal {
                base_per_sec,
                peak_per_sec,
                ..
            } => base_per_sec.max(peak_per_sec),
            RatePlan::FlashCrowd {
                base_per_sec, mult, ..
            } => base_per_sec * mult.max(1.0),
            RatePlan::Failover {
                base_per_sec, mult, ..
            } => base_per_sec * mult.max(1.0),
        }
    }
}

/// A deterministic nonhomogeneous Poisson arrival stream. See the
/// [module docs](self).
///
/// # Examples
///
/// ```
/// use pdn_simnet::{PoissonArrivals, RatePlan, SimTime};
///
/// let plan = RatePlan::Steady { per_sec: 100.0 };
/// let mut a = PoissonArrivals::new(plan.clone(), 7);
/// let mut b = PoissonArrivals::new(plan, 7);
/// assert_eq!(a.next_arrival(), b.next_arrival());
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    plan: RatePlan,
    rng: SimRng,
    at: SimTime,
}

impl PoissonArrivals {
    /// Creates a stream for `plan`, deterministically seeded.
    pub fn new(plan: RatePlan, seed: u64) -> Self {
        PoissonArrivals {
            plan,
            rng: SimRng::seed(seed ^ 0x0a55_0a55),
            at: SimTime::ZERO,
        }
    }

    /// The rate plan driving this stream.
    pub fn plan(&self) -> &RatePlan {
        &self.plan
    }

    /// The time of the most recently returned arrival.
    pub fn now(&self) -> SimTime {
        self.at
    }

    /// Advances to and returns the next arrival instant (strictly after
    /// the previous one).
    pub fn next_arrival(&mut self) -> SimTime {
        let peak = self.plan.peak().max(1e-9);
        loop {
            let gap = self.rng.exp(1.0 / peak).max(1e-12);
            self.at += Duration::from_secs_f64(gap);
            let accept = self.plan.rate_at(self.at) / peak;
            if self.rng.chance(accept) {
                return self.at;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_in(arrivals: &[SimTime], from: SimTime, to: SimTime) -> usize {
        arrivals.iter().filter(|&&t| t >= from && t < to).count()
    }

    fn draw(plan: RatePlan, seed: u64, until: SimTime) -> Vec<SimTime> {
        let mut p = PoissonArrivals::new(plan, seed);
        let mut out = Vec::new();
        loop {
            let t = p.next_arrival();
            if t >= until {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let plan = RatePlan::Diurnal {
            base_per_sec: 10.0,
            peak_per_sec: 100.0,
            period: Duration::from_secs(60),
        };
        let a = draw(plan.clone(), 3, SimTime::from_secs(120));
        let b = draw(plan.clone(), 3, SimTime::from_secs(120));
        let c = draw(plan, 4, SimTime::from_secs(120));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn steady_rate_is_roughly_right() {
        let got = draw(
            RatePlan::Steady { per_sec: 200.0 },
            9,
            SimTime::from_secs(50),
        );
        let rate = got.len() as f64 / 50.0;
        assert!((150.0..250.0).contains(&rate), "observed {rate}/s");
    }

    #[test]
    fn flash_crowd_spikes_inside_the_window() {
        let plan = RatePlan::FlashCrowd {
            base_per_sec: 50.0,
            mult: 10.0,
            at: SimTime::from_secs(30),
            dur: Duration::from_secs(10),
        };
        let got = draw(plan, 11, SimTime::from_secs(60));
        let before = count_in(&got, SimTime::from_secs(10), SimTime::from_secs(20));
        let during = count_in(&got, SimTime::from_secs(30), SimTime::from_secs(40));
        assert!(
            during as f64 > before as f64 * 5.0,
            "spike {during} vs base {before}"
        );
    }

    #[test]
    fn failover_steps_up_and_stays_up() {
        let plan = RatePlan::Failover {
            base_per_sec: 40.0,
            mult: 3.0,
            at: SimTime::from_secs(20),
        };
        let got = draw(plan, 13, SimTime::from_secs(60));
        let before = count_in(&got, SimTime::ZERO, SimTime::from_secs(20));
        let after = count_in(&got, SimTime::from_secs(40), SimTime::from_secs(60));
        assert!(
            after as f64 > before as f64 * 2.0,
            "failover {after} vs base {before}"
        );
    }
}
