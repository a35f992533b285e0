//! Arrival processes: how much work enters the system per slot.
//!
//! In the paper the *controlled* arrival is `a(d(t))` — chosen by the
//! scheduler. These processes model the *exogenous* part: frame sources,
//! background traffic, and trace replay, used by robustness experiments and
//! the multi-stream extension.

use rand::rngs::StdRng;
use rand::Rng;

use crate::rng::{poisson, seeded};

/// A per-slot arrival process producing a non-negative amount of work.
pub trait ArrivalProcess {
    /// Work arriving in slot `slot` (units: points, or whatever work unit
    /// the consumer uses).
    fn sample(&mut self, slot: u64) -> f64;

    /// The long-run mean arrival rate per slot, when known analytically.
    fn mean_rate(&self) -> Option<f64> {
        None
    }
}

/// Poisson arrivals with mean `lambda` per slot.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    lambda: f64,
    rng: StdRng,
}

impl PoissonArrivals {
    /// Creates a Poisson process.
    ///
    /// # Panics
    ///
    /// Panics when `lambda` is negative or non-finite.
    pub fn new(lambda: f64, seed: u64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be >= 0");
        PoissonArrivals {
            lambda,
            rng: seeded(seed),
        }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn sample(&mut self, _slot: u64) -> f64 {
        poisson(&mut self.rng, self.lambda) as f64
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.lambda)
    }
}

/// A two-state Markov-modulated Poisson process (MMPP-2): bursty traffic
/// alternating between a low-rate and a high-rate state.
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    lambda: [f64; 2],
    /// Per-slot probability of switching out of state `i`.
    switch: [f64; 2],
    state: usize,
    rng: StdRng,
}

impl Mmpp2 {
    /// Creates an MMPP-2 starting in the low state.
    ///
    /// # Panics
    ///
    /// Panics when rates are negative or switch probabilities are outside
    /// `[0, 1]`.
    pub fn new(
        lambda_low: f64,
        lambda_high: f64,
        switch_up: f64,
        switch_down: f64,
        seed: u64,
    ) -> Self {
        assert!(
            lambda_low >= 0.0 && lambda_high >= 0.0,
            "rates must be >= 0"
        );
        assert!(
            (0.0..=1.0).contains(&switch_up) && (0.0..=1.0).contains(&switch_down),
            "switch probabilities must be in [0, 1]"
        );
        Mmpp2 {
            lambda: [lambda_low, lambda_high],
            switch: [switch_up, switch_down],
            state: 0,
            rng: seeded(seed),
        }
    }

    /// The current state (0 = low, 1 = high).
    pub fn state(&self) -> usize {
        self.state
    }
}

impl ArrivalProcess for Mmpp2 {
    fn sample(&mut self, _slot: u64) -> f64 {
        if self.rng.gen_bool(self.switch[self.state]) {
            self.state = 1 - self.state;
        }
        poisson(&mut self.rng, self.lambda[self.state]) as f64
    }

    fn mean_rate(&self) -> Option<f64> {
        let (up, down) = (self.switch[0], self.switch[1]);
        if up + down == 0.0 {
            return Some(self.lambda[self.state]);
        }
        // Stationary distribution of the 2-state chain.
        let pi_high = up / (up + down);
        Some(self.lambda[0] * (1.0 - pi_high) + self.lambda[1] * pi_high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean<A: ArrivalProcess>(a: &mut A, slots: u64) -> f64 {
        (0..slots).map(|s| a.sample(s)).sum::<f64>() / slots as f64
    }

    #[test]
    fn poisson_mean_matches() {
        let mut p = PoissonArrivals::new(12.0, 10);
        let mean = empirical_mean(&mut p, 20_000);
        assert!((mean - 12.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let rate = 20.0;
        let mut poisson = PoissonArrivals::new(rate, 3);
        // MMPP alternating between 2 and 38 with the same long-run mean.
        let mut mmpp = Mmpp2::new(2.0, 38.0, 0.05, 0.05, 3);
        assert!((mmpp.mean_rate().unwrap() - rate).abs() < 1e-9);
        let n = 20_000u64;
        let var = |xs: &[f64]| -> f64 {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        let ps: Vec<f64> = (0..n).map(|s| poisson.sample(s)).collect();
        let ms: Vec<f64> = (0..n).map(|s| mmpp.sample(s)).collect();
        assert!(
            var(&ms) > 2.0 * var(&ps),
            "MMPP variance {} must far exceed Poisson {}",
            var(&ms),
            var(&ps)
        );
    }

    #[test]
    fn mmpp_state_switches() {
        let mut m = Mmpp2::new(1.0, 100.0, 0.5, 0.5, 7);
        let mut seen = [false; 2];
        for s in 0..100 {
            seen[m.state()] = true;
            let _ = m.sample(s);
        }
        assert!(seen[0] && seen[1], "both MMPP states must be visited");
    }

    #[test]
    fn trait_objects_work() {
        let mut procs: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(PoissonArrivals::new(1.0, 0)),
            Box::new(Mmpp2::new(1.0, 2.0, 0.1, 0.1, 0)),
        ];
        for p in procs.iter_mut() {
            assert!(p.sample(0) >= 0.0);
        }
    }
}
