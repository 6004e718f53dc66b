//! PDN billing models.
//!
//! §IV-B of the paper: "Peer5 and Streamroot charge their customers based on
//! monthly P2P traffic (e.g., Peer5 charges 500$ for 50TB of P2P traffic),
//! and Viblast is priced at 0.01$ per concurrent viewer hour." The
//! free-riding attack is an *economic* attack — an attacker inflates
//! exactly these meters at a victim customer's expense — so the meters are
//! first-class objects.

use std::time::Duration;

/// How a provider charges a customer.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum BillingModel {
    /// Dollars per terabyte of P2P traffic (Peer5: $500 / 50 TB = $10/TB).
    PerP2pTraffic {
        /// Price per terabyte.
        usd_per_tb: f64,
    },
    /// Dollars per concurrent viewer hour (Viblast: $0.01).
    PerViewerHour {
        /// Price per viewer-hour.
        usd_per_hour: f64,
    },
}

/// Usage meters for one customer account.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct UsageMeter {
    /// P2P bytes reported by this customer's peers.
    pub p2p_bytes: u64,
    /// Accumulated viewer time.
    pub viewer_seconds: u64,
    /// Peer join events.
    pub joins: u64,
}

impl UsageMeter {
    /// Records reported P2P traffic.
    pub fn add_p2p_bytes(&mut self, bytes: u64) {
        self.p2p_bytes += bytes;
    }

    /// Records viewer watch time.
    pub fn add_viewer_time(&mut self, time: Duration) {
        self.viewer_seconds += time.as_secs();
    }

    /// Records a peer join.
    pub fn add_join(&mut self) {
        self.joins += 1;
    }

    /// The charge under `model`.
    pub fn cost_usd(&self, model: BillingModel) -> f64 {
        match model {
            BillingModel::PerP2pTraffic { usd_per_tb } => self.p2p_bytes as f64 / 1e12 * usd_per_tb,
            BillingModel::PerViewerHour { usd_per_hour } => {
                self.viewer_seconds as f64 / 3600.0 * usd_per_hour
            }
        }
    }
}

impl BillingModel {
    /// Peer5's published pricing: $500 per 50 TB.
    pub fn peer5() -> Self {
        BillingModel::PerP2pTraffic { usd_per_tb: 10.0 }
    }

    /// Streamroot charges on P2P traffic as well.
    pub fn streamroot() -> Self {
        BillingModel::PerP2pTraffic { usd_per_tb: 12.0 }
    }

    /// Viblast's published pricing: $0.01 per concurrent viewer hour.
    pub fn viblast() -> Self {
        BillingModel::PerViewerHour { usd_per_hour: 0.01 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_traffic_billing() {
        let mut m = UsageMeter::default();
        m.add_p2p_bytes(50_000_000_000_000); // 50 TB
        assert!((m.cost_usd(BillingModel::peer5()) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn viewer_hour_billing() {
        let mut m = UsageMeter::default();
        m.add_viewer_time(Duration::from_secs(3600 * 100));
        assert!((m.cost_usd(BillingModel::viblast()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn meters_accumulate() {
        let mut m = UsageMeter::default();
        m.add_p2p_bytes(10);
        m.add_p2p_bytes(20);
        m.add_join();
        assert_eq!(m.p2p_bytes, 30);
        assert_eq!(m.joins, 1);
    }

    #[test]
    fn empty_meter_costs_nothing() {
        let m = UsageMeter::default();
        assert_eq!(m.cost_usd(BillingModel::peer5()), 0.0);
        assert_eq!(m.cost_usd(BillingModel::viblast()), 0.0);
    }

    #[test]
    fn viewer_time_is_metered_in_whole_seconds() {
        let mut m = UsageMeter::default();
        m.add_viewer_time(Duration::from_millis(1999));
        m.add_viewer_time(Duration::from_millis(999));
        assert_eq!(m.viewer_seconds, 1);
    }

    /// Each model reads only its own meter: inflating P2P traffic costs a
    /// per-viewer-hour customer nothing, and the reverse.
    #[test]
    fn each_model_reads_only_its_own_meter() {
        let mut traffic = UsageMeter::default();
        traffic.add_p2p_bytes(1_000_000_000_000);
        let mut viewers = UsageMeter::default();
        viewers.add_viewer_time(Duration::from_secs(3600));
        viewers.add_join();
        assert_eq!(traffic.cost_usd(BillingModel::viblast()), 0.0);
        assert_eq!(viewers.cost_usd(BillingModel::peer5()), 0.0);
        assert!((traffic.cost_usd(BillingModel::streamroot()) - 12.0).abs() < 1e-9);
        assert!((viewers.cost_usd(BillingModel::viblast()) - 0.01).abs() < 1e-12);
    }
}
