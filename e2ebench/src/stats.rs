//! Sample statistics and small timing helpers.

use std::time::{Duration, Instant};

/// Quantile `p` in `[0, 1]` of a sample, interpolating linearly between
/// the closest ranks. NaN for an empty sample.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Largest value of a sample (NaN when empty).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// Run `f`, returning its value and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Seconds in a duration.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Keeps a measurement loop inside the run's time budget: after `min`
/// iterations, another starts only if one of median length still ends
/// within the budget.
pub struct Budget {
    start: Instant,
    lap_start: Option<Instant>,
    seconds: Duration,
    laps: Vec<f64>,
    min: usize,
}

impl Budget {
    pub fn new(seconds: Duration, min: usize) -> Self {
        Budget {
            start: Instant::now(),
            lap_start: None,
            seconds,
            laps: Vec::new(),
            min,
        }
    }

    /// Call before each iteration: closes the previous lap and says
    /// whether to run another.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        if let Some(lap_start) = self.lap_start.replace(now) {
            self.laps.push(secs(now - lap_start));
        }
        self.laps.len() < self.min
            || secs(now - self.start) + median(&self.laps) <= secs(self.seconds)
    }
}
