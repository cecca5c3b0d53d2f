//! Workload inputs, all generated from the run's seed, and the output
//! fingerprints the exactness gate compares.

use crowder_crowd::{PopulationConfig, WorkerPopulation};
use crowder_datagen::{product, ProductConfig};
use crowder_types::{Dataset, GoldStandard, ScoredPair};

/// Independent sub-seeds of the run seed (SplitMix64 of `seed + stream`).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed streams.
pub const DATA_STREAM: u64 = 1;
pub const POPULATION_STREAM: u64 = 2;
pub const CROWD_STREAM: u64 = 3;
pub const QUERY_STREAM: u64 = 4;
/// First of the per-corpus streams of `rounds_t02`.
pub const ROUNDS_STREAMS: u64 = 16;

/// The Product generator with every entity and record count of the
/// paper-scale defaults multiplied by `scale` (2,173 records per unit).
pub fn product_scaled(scale: usize, seed: u64) -> Dataset {
    let base = ProductConfig::default();
    product(&ProductConfig {
        one_to_one: base.one_to_one * scale,
        one_to_two: base.one_to_two * scale,
        two_to_two: base.two_to_two * scale,
        unmatched_a: base.unmatched_a * scale,
        unmatched_b: base.unmatched_b * scale,
        family_probability: base.family_probability,
        seed: sub_seed(seed, DATA_STREAM),
    })
}

/// The simulated worker pool (default archetype mix).
pub fn population(seed: u64) -> WorkerPopulation {
    WorkerPopulation::generate(
        &PopulationConfig::default(),
        sub_seed(seed, POPULATION_STREAM),
    )
}

/// A small deterministic generator for benchmark-side choices (which
/// record a query asks about).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (sub_seed(self.0, 0) % n as u64) as usize
    }
}

/// A ranked pair list with exact likelihood bits.
pub fn ranked_key(ranked: &[ScoredPair]) -> Vec<(u32, u32, u64)> {
    ranked
        .iter()
        .map(|sp| (sp.pair.lo().0, sp.pair.hi().0, sp.likelihood.to_bits()))
        .collect()
}

/// The same, as a set ordered by pair (for engines whose tie order
/// among equal likelihoods may legitimately differ).
pub fn pair_set_key(pairs: &[ScoredPair]) -> Vec<(u32, u32, u64)> {
    let mut key = ranked_key(pairs);
    key.sort_unstable();
    key
}

/// Maximum F1 over the prefixes of a ranked list.
pub fn max_f1(ranked: &[ScoredPair], gold: &GoldStandard) -> f64 {
    crowder_metrics::pr_curve(ranked, gold).max_f1()
}

/// What must repeat exactly across passes of one run, and between the
/// traced and the untraced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Machine pairs surviving the threshold.
    pub pairs: usize,
    /// HITs (batch: generated; rounds: published in total; serve: live).
    pub hits: usize,
    /// Crowd spend, as bits.
    pub cost_bits: u64,
    /// Max F1, as bits.
    pub max_f1_bits: u64,
    /// The ranked output list.
    pub ranked: Vec<(u32, u32, u64)>,
}

impl Fingerprint {
    pub fn new(
        pairs: usize,
        hits: usize,
        cost: f64,
        ranked: &[ScoredPair],
        gold: &GoldStandard,
    ) -> Self {
        Fingerprint {
            pairs,
            hits,
            cost_bits: cost.to_bits(),
            max_f1_bits: max_f1(ranked, gold).to_bits(),
            ranked: ranked_key(ranked),
        }
    }

    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }

    pub fn max_f1(&self) -> f64 {
        f64::from_bits(self.max_f1_bits)
    }

    /// Gate: `other` must equal `self`; `what` names the comparison.
    pub fn expect_same(&self, other: &Fingerprint, what: &str) -> Result<(), String> {
        if self == other {
            return Ok(());
        }
        Err(format!(
            "exactness gate: {what} differ (pairs {} vs {}, hits {} vs {}, cost {} vs {}, \
             max_f1 {} vs {}, ranked list {})",
            self.pairs,
            other.pairs,
            self.hits,
            other.hits,
            self.cost(),
            other.cost(),
            self.max_f1(),
            other.max_f1(),
            if self.ranked == other.ranked {
                "equal"
            } else {
                "differs"
            }
        ))
    }
}

/// Time `build` `reps` times into `samples`, dropping each result.
/// Workloads take set-up samples between passes rather than all at
/// once: a few milliseconds of work lands on whatever speed the shared
/// host has at that instant, so samples spread over the run see the
/// same mix of host states as the passes do.
pub fn sample_setup<T>(reps: usize, build: impl Fn() -> T, samples: &mut Vec<f64>) {
    for _ in 0..reps {
        let (built, t) = crate::stats::timed(&build);
        samples.push(t);
        drop(built);
    }
}
