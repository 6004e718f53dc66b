//! Per-node resource accounting, mirroring the Docker Engine stats API.
//!
//! The PDN analyzer of the paper monitors each peer container's CPU usage,
//! memory, and network I/O per second (§IV-A "Monitoring PDN activities");
//! Figure 4, Figure 5 and Table VI are all built from those series.
//! [`ResourceModel`] reproduces that: application layers *charge* CPU
//! microseconds and memory bytes for the work they simulate, the network
//! layer records bytes on the wire, and [`ResourceModel::sample`] produces
//! the per-second time series the monitor would have captured.

use std::time::Duration;

use crate::time::SimTime;

/// One per-second sample of a node's resources (a `docker stats` row).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResourceSample {
    /// Sample time.
    pub at: SimTime,
    /// CPU utilisation in the sampling window, as a fraction of one core
    /// (1.0 = 100%).
    pub cpu: f64,
    /// Resident memory in bytes at sample time.
    pub mem_bytes: u64,
    /// Bytes received since the previous sample.
    pub rx_bytes: u64,
    /// Bytes transmitted since the previous sample.
    pub tx_bytes: u64,
}

/// Cumulative resource counters plus the sampled series for one node.
#[derive(Debug, Clone, Default)]
pub struct ResourceModel {
    cpu_busy: Duration,
    mem_bytes: u64,
    total_rx: u64,
    total_tx: u64,
    // Values at the previous sample, to produce deltas.
    last_cpu_busy: Duration,
    last_rx: u64,
    last_tx: u64,
    last_sample_at: SimTime,
    series: Vec<ResourceSample>,
}

impl ResourceModel {
    /// Creates a zeroed model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `busy` CPU time (e.g. for decrypting a segment).
    pub fn charge_cpu(&mut self, busy: Duration) {
        self.cpu_busy += busy;
    }

    /// Allocates `bytes` of resident memory.
    pub fn alloc_mem(&mut self, bytes: u64) {
        self.mem_bytes += bytes;
    }

    /// Releases `bytes` of resident memory (saturating).
    pub fn free_mem(&mut self, bytes: u64) {
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
    }

    /// Records `bytes` received on the wire.
    pub fn record_rx(&mut self, bytes: u64) {
        self.total_rx += bytes;
    }

    /// Records `bytes` transmitted on the wire.
    pub fn record_tx(&mut self, bytes: u64) {
        self.total_tx += bytes;
    }

    /// Current resident memory.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Total bytes received since creation.
    pub fn total_rx(&self) -> u64 {
        self.total_rx
    }

    /// Total bytes transmitted since creation.
    pub fn total_tx(&self) -> u64 {
        self.total_tx
    }

    /// Total CPU busy time since creation.
    pub fn cpu_busy(&self) -> Duration {
        self.cpu_busy
    }

    /// Takes a per-second style sample at `now`, appending to the series.
    ///
    /// CPU is reported as busy-time divided by wall-time since the previous
    /// sample. Samples taken at identical or regressing times report zero
    /// utilisation rather than dividing by zero.
    pub fn sample(&mut self, now: SimTime) {
        let window = now.saturating_since(self.last_sample_at);
        let busy = self.cpu_busy.saturating_sub(self.last_cpu_busy);
        let cpu = if window.is_zero() {
            0.0
        } else {
            busy.as_secs_f64() / window.as_secs_f64()
        };
        self.series.push(ResourceSample {
            at: now,
            cpu,
            mem_bytes: self.mem_bytes,
            rx_bytes: self.total_rx - self.last_rx,
            tx_bytes: self.total_tx - self.last_tx,
        });
        self.last_sample_at = now;
        self.last_cpu_busy = self.cpu_busy;
        self.last_rx = self.total_rx;
        self.last_tx = self.total_tx;
    }

    /// The sampled series so far.
    pub fn series(&self) -> &[ResourceSample] {
        &self.series
    }

    /// Summary statistics over the sampled series.
    pub fn summary(&self) -> ResourceSummary {
        ResourceSummary::from_samples(&self.series)
    }
}

/// Aggregate statistics over a sampled series.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ResourceSummary {
    /// Mean CPU utilisation across samples.
    pub mean_cpu: f64,
    /// Peak CPU utilisation.
    pub peak_cpu: f64,
    /// Mean resident memory in bytes.
    pub mean_mem_bytes: f64,
    /// Total received bytes across the series.
    pub total_rx: u64,
    /// Total transmitted bytes across the series.
    pub total_tx: u64,
    /// Number of samples.
    pub samples: usize,
}

impl ResourceSummary {
    /// Computes a summary from raw samples.
    pub fn from_samples(samples: &[ResourceSample]) -> Self {
        if samples.is_empty() {
            return ResourceSummary::default();
        }
        let n = samples.len() as f64;
        ResourceSummary {
            mean_cpu: samples.iter().map(|s| s.cpu).sum::<f64>() / n,
            peak_cpu: samples.iter().map(|s| s.cpu).fold(0.0, f64::max),
            mean_mem_bytes: samples.iter().map(|s| s.mem_bytes as f64).sum::<f64>() / n,
            total_rx: samples.iter().map(|s| s.rx_bytes).sum(),
            total_tx: samples.iter().map(|s| s.tx_bytes).sum(),
            samples: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fraction_over_window() {
        let mut m = ResourceModel::new();
        m.charge_cpu(Duration::from_millis(150));
        m.sample(SimTime::from_secs(1));
        assert!((m.series()[0].cpu - 0.15).abs() < 1e-9);
        // Next window has no work.
        m.sample(SimTime::from_secs(2));
        assert_eq!(m.series()[1].cpu, 0.0);
    }

    #[test]
    fn io_deltas_per_window() {
        let mut m = ResourceModel::new();
        m.record_rx(1000);
        m.record_tx(200);
        m.sample(SimTime::from_secs(1));
        m.record_rx(50);
        m.sample(SimTime::from_secs(2));
        assert_eq!(m.series()[0].rx_bytes, 1000);
        assert_eq!(m.series()[0].tx_bytes, 200);
        assert_eq!(m.series()[1].rx_bytes, 50);
        assert_eq!(m.series()[1].tx_bytes, 0);
        assert_eq!(m.total_rx(), 1050);
    }

    #[test]
    fn memory_tracks_alloc_free() {
        let mut m = ResourceModel::new();
        m.alloc_mem(10_000);
        m.free_mem(4_000);
        assert_eq!(m.mem_bytes(), 6_000);
        m.free_mem(100_000); // saturates, never underflows
        assert_eq!(m.mem_bytes(), 0);
    }

    #[test]
    fn zero_width_window_reports_zero_cpu() {
        let mut m = ResourceModel::new();
        m.charge_cpu(Duration::from_millis(10));
        m.sample(SimTime::ZERO);
        assert_eq!(m.series()[0].cpu, 0.0);
    }

    #[test]
    fn summary_aggregates() {
        let mut m = ResourceModel::new();
        m.alloc_mem(100);
        m.charge_cpu(Duration::from_millis(500));
        m.record_tx(10);
        m.sample(SimTime::from_secs(1));
        m.charge_cpu(Duration::from_millis(100));
        m.record_rx(20);
        m.sample(SimTime::from_secs(2));
        let s = m.summary();
        assert_eq!(s.samples, 2);
        assert!((s.mean_cpu - 0.3).abs() < 1e-9);
        assert!((s.peak_cpu - 0.5).abs() < 1e-9);
        assert_eq!(s.total_tx, 10);
        assert_eq!(s.total_rx, 20);
        assert_eq!(s.mean_mem_bytes, 100.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = ResourceSummary::from_samples(&[]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean_cpu, 0.0);
    }
}
