//! Service (rendering-capacity) processes: how much work the device can
//! complete per slot.
//!
//! The paper's renderer is a mobile device with a finite visualization
//! throughput; the backlog grows whenever the chosen depth injects more
//! points than the device renders per unit time. These models calibrate that
//! capacity, including stochastic jitter (thermal throttling, background
//! load) for the robustness experiments.

use rand::rngs::StdRng;

use crate::rng::{seeded, standard_normal};

/// A per-slot service process producing a non-negative capacity.
pub trait ServiceProcess {
    /// Work the server can complete during slot `slot`.
    fn capacity(&mut self, slot: u64) -> f64;

    /// The long-run mean service rate per slot, when known analytically.
    fn mean_rate(&self) -> Option<f64> {
        None
    }
}

/// Constant service rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantRate {
    /// Work per slot.
    pub rate: f64,
}

impl ConstantRate {
    /// Creates a constant-rate server.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is negative or non-finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        ConstantRate { rate }
    }
}

impl ServiceProcess for ConstantRate {
    fn capacity(&mut self, _slot: u64) -> f64 {
        self.rate
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.rate)
    }
}

/// Multiplicatively jittered rate: `rate × max(0, 1 + σ·Z)` with `Z` standard
/// normal — models frame-time variance of a real renderer.
#[derive(Debug, Clone)]
pub struct JitteredRate {
    rate: f64,
    sigma: f64,
    rng: StdRng,
}

impl JitteredRate {
    /// Creates a jittered server.
    ///
    /// # Panics
    ///
    /// Panics when `rate < 0` or `sigma < 0`.
    pub fn new(rate: f64, sigma: f64, seed: u64) -> Self {
        assert!(rate >= 0.0, "rate must be >= 0");
        assert!(sigma >= 0.0, "sigma must be >= 0");
        JitteredRate {
            rate,
            sigma,
            rng: seeded(seed),
        }
    }
}

impl ServiceProcess for JitteredRate {
    fn capacity(&mut self, _slot: u64) -> f64 {
        let factor = (1.0 + self.sigma * standard_normal(&mut self.rng)).max(0.0);
        self.rate * factor
    }

    fn mean_rate(&self) -> Option<f64> {
        // Truncation at zero biases the mean upward only for large sigma;
        // for the sigmas used here (≤ 0.3) the bias is negligible.
        Some(self.rate)
    }
}

/// Duty-cycled rate: alternates `high` for `high_slots` then `low` for
/// `low_slots` — models periodic thermal throttling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycledRate {
    /// Capacity while unthrottled.
    pub high: f64,
    /// Capacity while throttled.
    pub low: f64,
    /// Slots per unthrottled phase.
    pub high_slots: u64,
    /// Slots per throttled phase.
    pub low_slots: u64,
}

impl DutyCycledRate {
    /// Creates a duty-cycled server.
    ///
    /// # Panics
    ///
    /// Panics when rates are negative or both phase lengths are zero.
    pub fn new(high: f64, low: f64, high_slots: u64, low_slots: u64) -> Self {
        assert!(high >= 0.0 && low >= 0.0, "rates must be >= 0");
        assert!(high_slots + low_slots > 0, "cycle must be non-empty");
        DutyCycledRate {
            high,
            low,
            high_slots,
            low_slots,
        }
    }
}

impl ServiceProcess for DutyCycledRate {
    fn capacity(&mut self, slot: u64) -> f64 {
        let cycle = self.high_slots + self.low_slots;
        if slot % cycle < self.high_slots {
            self.high
        } else {
            self.low
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        let cycle = (self.high_slots + self.low_slots) as f64;
        Some((self.high * self.high_slots as f64 + self.low * self.low_slots as f64) / cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate() {
        let mut s = ConstantRate::new(1000.0);
        assert_eq!(s.capacity(0), 1000.0);
        assert_eq!(s.capacity(99), 1000.0);
        assert_eq!(s.mean_rate(), Some(1000.0));
    }

    #[test]
    fn jittered_rate_stays_non_negative_and_centered() {
        let mut s = JitteredRate::new(100.0, 0.2, 4);
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n).map(|i| s.capacity(i)).collect();
        assert!(samples.iter().all(|&c| c >= 0.0));
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
        // There must be actual variation.
        assert!(samples.iter().any(|&c| (c - 100.0).abs() > 1.0));
    }

    #[test]
    fn jitter_zero_sigma_is_constant() {
        let mut s = JitteredRate::new(50.0, 0.0, 4);
        for i in 0..10 {
            assert_eq!(s.capacity(i), 50.0);
        }
    }

    #[test]
    fn duty_cycle_pattern() {
        let mut s = DutyCycledRate::new(10.0, 2.0, 3, 2);
        let caps: Vec<f64> = (0..10).map(|i| s.capacity(i)).collect();
        assert_eq!(
            caps,
            vec![10.0, 10.0, 10.0, 2.0, 2.0, 10.0, 10.0, 10.0, 2.0, 2.0]
        );
        assert!((s.mean_rate().unwrap() - (30.0 + 4.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn duty_cycle_rejects_empty_cycle() {
        let _ = DutyCycledRate::new(1.0, 1.0, 0, 0);
    }
}
