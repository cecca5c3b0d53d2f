//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of its mode. End-to-end metrics
//! must be measured, finite and non-zero on every workload. A per-layer
//! metric of a layer the workload never calls is reported as 0 (zero
//! calls timed); `README.md` lists which layers each workload runs.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "rec/s"),
    ("ack_p50_ms", "ms"),
    ("hits", "count"),
    ("crowd_cost_usd", "usd"),
    ("max_f1", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simjoin.tokenize_s", "s"),
    ("simjoin.join_s", "s"),
    ("simjoin.candidates", "count"),
    ("simjoin.results", "count"),
    ("simjoin.yield", "ratio"),
    ("hitgen.generate_s", "s"),
    ("crowd.simulate_s", "s"),
    ("crowd.session_s", "s"),
    ("crowd.assignments", "count"),
    ("aggregate.ds_s", "s"),
    ("aggregate.ds_iterations", "count"),
    ("aggregate.votes", "count"),
    ("aggregate.weights_s", "s"),
    ("aggregate.weights_iterations", "count"),
    ("stream.insert_s", "s"),
    ("stream.insert_us_p50", "us"),
    ("stream.insert_us_p99", "us"),
    ("stream.candidates_per_insert", "count"),
    ("stream.regen_s", "s"),
    ("stream.regen_ms_p50", "ms"),
    ("stream.regen_ms_max", "ms"),
    ("stream.evidence_s", "s"),
    ("stream.edges_decommitted", "count"),
    ("stream.cluster_splits", "count"),
    ("stream.query_us_p50", "us"),
    ("durable.recover_s", "s"),
    ("durable.replayed_ops", "count"),
    ("durable.sync_us_p50", "us"),
    ("durable.checkpoints", "count"),
    ("serve.ack_p99_ms", "ms"),
    ("serve.ack_overhead_us", "us"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.query_wait_ms", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// What one run measured.
pub struct Outcome {
    /// Operations attempted (jobs, ingest batches, queries).
    pub attempted: u64,
    /// Attempts refused or failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            values: BTreeMap::new(),
        }
    }

    /// Record one metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line for the mode: every metric of the mode's list.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        if trace {
            // Layer times that do not add up to the traced wall time do
            // not attribute it.
            let coverage = self.values.get("trace.coverage").copied().unwrap_or(0.0);
            if !(0.9..=1.1).contains(&coverage) {
                return Err(format!("trace coverage {coverage} is outside 0.9–1.1"));
            }
        }
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !value.is_finite() || (!trace && value == 0.0) {
                return Err(format!("metric `{name}` measured as {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Process-wide peak resident set size in MiB (`getrusage`'s
/// `ru_maxrss`; each workload runs in its own process, so this is the
/// workload's own high-water mark).
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size and layout the
    // kernel fills for RUSAGE_SELF (0).
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.0[4] as f64 / 1024.0
}
