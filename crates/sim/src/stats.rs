//! Time-series recording, summary statistics, stability detection and CSV
//! file output.

use serde::{Deserialize, Serialize};

/// A recorded per-slot series (backlog, chosen depth, quality, ...).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Creates a series from existing values.
    pub fn from_values(name: impl Into<String>, values: Vec<f64>) -> Self {
        TimeSeries {
            name: name.into(),
            values,
        }
    }

    /// The series name (used as CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// The recorded samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Summary statistics of the series.
    pub fn summary(&self) -> SummaryStats {
        SummaryStats::from_slice(&self.values)
    }

    /// Mean over the suffix starting at `from` (time-average after warm-up).
    /// Returns `None` when the suffix is empty.
    pub fn mean_from(&self, from: usize) -> Option<f64> {
        let tail = self.values.get(from..)?;
        if tail.is_empty() {
            return None;
        }
        Some(tail.iter().sum::<f64>() / tail.len() as f64)
    }

    /// Least-squares slope of the series versus slot index over its final
    /// `window` samples (or the whole series if shorter). `None` when fewer
    /// than 2 samples.
    ///
    /// A positive slope on the queue-backlog series over a long window is the
    /// instability signature of the paper's "only max-Depth" baseline.
    pub fn tail_slope(&self, window: usize) -> Option<f64> {
        let n = self.values.len();
        if n < 2 {
            return None;
        }
        let start = n.saturating_sub(window.max(2));
        let tail = &self.values[start..];
        let m = tail.len() as f64;
        let mean_x = (m - 1.0) / 2.0;
        let mean_y = tail.iter().sum::<f64>() / m;
        let (mut sxy, mut sxx) = (0.0, 0.0);
        for (i, &y) in tail.iter().enumerate() {
            let dx = i as f64 - mean_x;
            sxy += dx * (y - mean_y);
            sxx += dx * dx;
        }
        Some(sxy / sxx)
    }

    /// Heuristic stability verdict for a backlog series: the tail slope,
    /// normalized by the series mean, stays below `tolerance`.
    ///
    /// `tolerance` of `1e-3` distinguishes the paper's diverging max-depth
    /// curve (slope ≈ arrival−service > 0) from the stabilized controller.
    pub fn is_stable(&self, window: usize, tolerance: f64) -> bool {
        let Some(slope) = self.tail_slope(window) else {
            return true; // nothing recorded: vacuously stable
        };
        let scale = self.summary().mean.abs().max(1.0);
        slope / scale < tolerance
    }
}

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty set).
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum (0 for an empty set).
    pub min: f64,
    /// Maximum (0 for an empty set).
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl SummaryStats {
    /// Computes statistics over a slice.
    pub fn from_slice(values: &[f64]) -> SummaryStats {
        if values.is_empty() {
            return SummaryStats {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |p: f64| -> f64 {
            // Nearest-rank percentile.
            let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
            sorted[rank.min(n) - 1]
        };
        SummaryStats {
            count: n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
        }
    }
}

/// A streaming quantile estimator (the P² algorithm of Jain & Chlamtac,
/// CACM 1985): tracks one quantile of an unbounded sample stream in O(1)
/// memory by maintaining five markers whose heights are adjusted with a
/// piecewise-parabolic interpolation.
///
/// This is what lets summary-only telemetry report p95/p99 backlog and
/// delay for millions of concurrent sessions without retaining per-slot
/// traces. Through the first five samples the estimate is exact
/// (nearest-rank over the buffered samples); afterwards it is an
/// approximation whose error vanishes as the stream grows (accuracy is
/// pinned against exact sorted percentiles by the property tests in
/// `tests/p2_accuracy.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights `q_0..q_4` (also the first-five sample buffer).
    heights: [f64; 5],
    /// Actual marker positions `n_0..n_4` (1-based sample ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-sample increments of the desired positions.
    rates: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile (e.g. `0.95`).
    ///
    /// # Panics
    ///
    /// Panics when `p` is not strictly inside `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1), got {p}");
        P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            rates: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The tracked quantile level.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one sample.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite sample.
    pub fn observe(&mut self, x: f64) {
        assert!(x.is_finite(), "P2 sample must be finite, got {x}");
        if self.count < 5 {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_unstable_by(|a, b| a.total_cmp(b));
            }
            return;
        }
        self.count += 1;
        // Locate the cell containing x and stretch the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x < self.heights[1] {
            0
        } else if x < self.heights[2] {
            1
        } else if x < self.heights[3] {
            2
        } else if x <= self.heights[4] {
            3
        } else {
            self.heights[4] = x;
            3
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.rates[i];
        }
        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.heights, &self.positions);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.heights, &self.positions);
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// The current quantile estimate (`0.0` before any sample; exact
    /// nearest-rank while at most five samples have been seen).
    pub fn estimate(&self) -> f64 {
        let n = self.count as usize;
        if n == 0 {
            return 0.0;
        }
        if n <= 5 {
            // The first five samples are buffered in `heights` (already
            // sorted once the fifth arrives): report the exact
            // nearest-rank quantile instead of the middle marker, which
            // for tail quantiles (p95/p99) would be badly biased low.
            let mut sorted = self.heights[..n].to_vec();
            sorted.sort_unstable_by(|a, b| a.total_cmp(b));
            let rank = ((self.p * n as f64).ceil().max(1.0) as usize).min(n);
            return sorted[rank - 1];
        }
        self.heights[2]
    }
}

/// Writes a CSV string to a file, creating parent directories as needed.
pub fn write_csv_file(path: impl AsRef<std::path::Path>, csv: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut s = TimeSeries::new("q");
        assert!(s.is_empty());
        s.push(1.0);
        s.push(2.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.values(), &[1.0, 2.0]);
        assert_eq!(s.name(), "q");
    }

    #[test]
    fn summary_known_values() {
        let s = TimeSeries::from_values("x", vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let sum = s.summary();
        assert_eq!(sum.count, 5);
        assert!((sum.mean - 3.0).abs() < 1e-12);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 5.0);
        assert_eq!(sum.median, 3.0);
        assert!((sum.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let sum = SummaryStats::from_slice(&[]);
        assert_eq!(sum.count, 0);
        assert_eq!(sum.mean, 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let sum = SummaryStats::from_slice(&values);
        assert_eq!(sum.p95, 95.0);
        assert_eq!(sum.p99, 99.0);
        assert_eq!(sum.median, 50.0);
    }

    #[test]
    fn mean_from_suffix() {
        let s = TimeSeries::from_values("x", vec![100.0, 0.0, 2.0, 4.0]);
        assert!((s.mean_from(1).unwrap() - 2.0).abs() < 1e-12);
        assert!(s.mean_from(4).is_none());
        assert!(s.mean_from(9).is_none());
    }

    #[test]
    fn slope_of_linear_series() {
        let s = TimeSeries::from_values("x", (0..100).map(|i| 3.0 * i as f64 + 7.0).collect());
        let slope = s.tail_slope(50).unwrap();
        assert!((slope - 3.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_flat_series_is_zero() {
        let s = TimeSeries::from_values("x", vec![5.0; 60]);
        assert!(s.tail_slope(30).unwrap().abs() < 1e-12);
    }

    #[test]
    fn slope_needs_two_points() {
        assert!(TimeSeries::from_values("x", vec![1.0])
            .tail_slope(10)
            .is_none());
        assert!(TimeSeries::new("x").tail_slope(10).is_none());
    }

    #[test]
    fn stability_detector() {
        // Diverging queue: slope 10/slot.
        let diverging = TimeSeries::from_values("q", (0..500).map(|i| 10.0 * i as f64).collect());
        assert!(!diverging.is_stable(200, 1e-3));
        // Stable bounded oscillation.
        let stable = TimeSeries::from_values(
            "q",
            (0..500)
                .map(|i| 100.0 + 5.0 * ((i as f64) * 0.7).sin())
                .collect(),
        );
        assert!(stable.is_stable(200, 1e-3));
        // Empty series vacuously stable.
        assert!(TimeSeries::new("q").is_stable(10, 1e-3));
    }

    #[test]
    fn p2_exact_below_five_samples() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), 0.0);
        for v in [3.0, 1.0, 2.0] {
            q.observe(v);
        }
        assert_eq!(q.estimate(), 2.0, "nearest-rank median of {{1,2,3}}");
    }

    #[test]
    fn p2_tracks_uniform_stream_quantiles() {
        // A deterministic low-discrepancy stream over [0, 1000).
        for (p, tol) in [(0.5, 10.0), (0.95, 10.0), (0.99, 10.0)] {
            let mut q = P2Quantile::new(p);
            let mut x = 0.0f64;
            for _ in 0..50_000 {
                x = (x + 617.0) % 1000.0;
                q.observe(x);
            }
            let want = p * 1000.0;
            let got = q.estimate();
            assert!(
                (got - want).abs() < tol,
                "p={p}: estimate {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn p2_agrees_with_exact_on_skewed_data() {
        // Heavy-tailed deterministic data: x_i = i^2 scaled.
        let values: Vec<f64> = (0..20_000).map(|i| (i as f64).powi(2) / 1e4).collect();
        let exact = SummaryStats::from_slice(&values);
        let mut p95 = P2Quantile::new(0.95);
        let mut p99 = P2Quantile::new(0.99);
        // Feed in a shuffled-ish order (stride coprime with the length).
        for k in 0..values.len() {
            let v = values[(k * 7919) % values.len()];
            p95.observe(v);
            p99.observe(v);
        }
        assert!((p95.estimate() - exact.p95).abs() / exact.p95 < 0.02);
        assert!((p99.estimate() - exact.p99).abs() / exact.p99 < 0.02);
        assert_eq!(p95.count(), values.len() as u64);
    }

    #[test]
    fn p2_monotone_stream_is_tight() {
        let mut q = P2Quantile::new(0.95);
        for i in 0..10_000 {
            q.observe(f64::from(i));
        }
        assert!((q.estimate() - 9_499.0).abs() < 60.0, "{}", q.estimate());
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn p2_rejects_nan() {
        P2Quantile::new(0.5).observe(f64::NAN);
    }

    #[test]
    fn csv_file_roundtrip() {
        let dir = std::env::temp_dir().join("arvis_sim_stats_test");
        let path = dir.join("nested/out.csv");
        write_csv_file(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
