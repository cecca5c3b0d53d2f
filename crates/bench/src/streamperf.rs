//! Machine-readable perf report for the incremental (streaming) ER
//! engine — `BENCH_stream.json`.
//!
//! Measures what a batch report cannot: the cost of *absorbing one
//! arrival*. The suite streams a full corpus through an
//! [`IncrementalResolver`], recording per-arrival delta-join latency
//! percentiles, sustained ingest throughput (insert + per-round HIT
//! regeneration), and the per-round HIT-regeneration funnel; it then
//! pits a single-record delta join against recomputing the batch
//! `prefix_join` over the same corpus — the speedup that justifies the
//! subsystem (acceptance: ≥ 10× with ≥ 1k records indexed on Product).
//!
//! Serialization shares the hand-rolled [`JsonReport`]/[`JsonRow`]
//! writers and the recursive-descent [`parse_json`] validator with
//! `BENCH_simjoin.json` (see [`crate::perf`]); no timing assertions in
//! the schema check — CI machines vary.

use crate::perf::{parse_json, Json, JsonReport, JsonRow};
use crowder::prelude::*;
use crowder_obs::stats::{format_ns as fmt_ns, median_sorted, percentile_sorted as percentile};
use std::time::Instant;

/// Default output path for the streaming report.
pub const STREAM_REPORT_PATH: &str = "BENCH_stream.json";

/// Schema version stamped into the report; bump on breaking changes.
pub const STREAM_SCHEMA_VERSION: u32 = 1;

/// Threshold the streaming suite joins at (the interesting regime:
/// Product τ = 0.3 is the paper's likelihood sweet spot).
pub const STREAM_THRESHOLD: f64 = 0.3;

/// Arrivals per HIT-regeneration round.
pub const STREAM_BATCH: usize = 128;

/// One per-round row of the streaming funnel.
#[derive(Debug, Clone)]
pub struct StreamRound {
    /// Round index.
    pub round: usize,
    /// Records ingested.
    pub arrived: usize,
    /// Pairs surfaced by this round's delta joins.
    pub new_pairs: usize,
    /// Candidates the delta joins examined.
    pub candidates: u64,
    /// Candidates surviving to exact verification.
    pub verified: u64,
    /// Clusters dirtied by the round.
    pub dirty_clusters: usize,
    /// HITs retired / created / left untouched by the flush.
    pub hits_retired: usize,
    /// Newly published HITs.
    pub hits_created: usize,
    /// Live HITs untouched (stable ids).
    pub hits_stable: usize,
}

/// The full streaming perf report.
#[derive(Debug, Clone)]
pub struct StreamPerfReport {
    /// Available parallelism of the producing machine.
    pub available_parallelism: usize,
    /// Corpus name (`product`, `restaurant`).
    pub corpus: String,
    /// Records streamed.
    pub records: usize,
    /// Join threshold.
    pub threshold: f64,
    /// Arrivals per regeneration round.
    pub batch_size: usize,
    /// Samples per timed cell of the delta-vs-batch comparison.
    pub iters: usize,
    /// End-to-end ingest throughput: records / (insert + flush) time.
    pub sustained_records_per_sec: f64,
    /// Total pairs surfaced (sanity: equals batch join size).
    pub total_pairs: usize,
    /// Dictionary re-rank epochs during the stream.
    pub epochs: u64,
    /// Per-arrival delta-join latency percentiles (nanoseconds).
    pub delta_p50_ns: u128,
    /// 90th percentile.
    pub delta_p90_ns: u128,
    /// 99th percentile.
    pub delta_p99_ns: u128,
    /// Worst arrival (includes epoch-rebuild arrivals).
    pub delta_max_ns: u128,
    /// Records indexed when the single-arrival comparison ran.
    pub prewarm_records: usize,
    /// Median single-record delta join (ns) at that corpus size, timed
    /// on a warm fork (one untimed arrival first).
    pub single_delta_median_ns: u128,
    /// Median batch `prefix_join` recompute (ns) over the same corpus
    /// (pre-built `TokenTable` — conservative for the streaming side).
    pub batch_join_median_ns: u128,
    /// Median batch recompute including `TokenTable::build` — what a
    /// batch pipeline actually redoes per arrival.
    pub batch_rebuild_median_ns: u128,
    /// `batch_join_median_ns / single_delta_median_ns`.
    pub speedup: f64,
    /// Per-round funnel rows.
    pub rounds: Vec<StreamRound>,
}

fn median_of(iters: usize, mut f: impl FnMut() -> u128) -> u128 {
    let mut samples: Vec<u128> = (0..iters.max(1)).map(|_| f()).collect();
    samples.sort_unstable();
    median_sorted(&samples)
}

/// Stream `dataset` through a resolver and measure everything the
/// report carries. `iters` controls the delta-vs-batch sample count.
pub fn run_stream_suite(corpus: &str, dataset: &Dataset, iters: usize) -> StreamPerfReport {
    let config = StreamConfig {
        threshold: STREAM_THRESHOLD,
        ..StreamConfig::default()
    };
    let mut resolver = IncrementalResolver::like(dataset, config.clone());
    let mut delta_ns: Vec<u128> = Vec::with_capacity(dataset.len());
    let mut rounds = Vec::new();
    let started = Instant::now();
    for (round, chunk) in dataset.records().chunks(STREAM_BATCH).enumerate() {
        let mut stats = JoinStats::default();
        let mut new_pairs = 0usize;
        for record in chunk {
            let t0 = Instant::now();
            let report = resolver
                .insert(record.source, record.fields.clone())
                .expect("schema matches");
            delta_ns.push(t0.elapsed().as_nanos());
            stats.absorb(&report.stats);
            new_pairs += report.new_pairs.len();
        }
        let dirty_clusters = resolver.dirty_clusters();
        let delta = resolver.regenerate_hits().expect("k is valid");
        rounds.push(StreamRound {
            round,
            arrived: chunk.len(),
            new_pairs,
            candidates: stats.candidates,
            verified: stats.verified,
            dirty_clusters,
            hits_retired: delta.retired.len(),
            hits_created: delta.created.len(),
            hits_stable: delta.stable,
        });
    }
    let total_secs = started.elapsed().as_secs_f64();

    // The delta-vs-batch comparison at the full corpus size: one more
    // arrival, replayed from the same resolver state each sample. A
    // fresh clone holds its buffers at exact capacity, so its first
    // insert mostly reallocates; one untimed warm-up arrival pays that,
    // and the timed arrival measures the engine.
    let records = dataset.records();
    let (probe, warm) = (&records[0], &records[1 % records.len()]);
    let single_delta_median_ns = median_of(iters, || {
        let mut fork = resolver.clone();
        fork.insert(warm.source, warm.fields.clone())
            .expect("schema matches");
        let t0 = Instant::now();
        fork.insert(probe.source, probe.fields.clone())
            .expect("schema matches");
        t0.elapsed().as_nanos()
    });
    let tokens = TokenTable::build(dataset);
    let batch_join_median_ns = median_of(iters, || {
        let t0 = Instant::now();
        std::hint::black_box(prefix_join(dataset, &tokens, STREAM_THRESHOLD, 0));
        t0.elapsed().as_nanos()
    });
    let batch_rebuild_median_ns = median_of(iters, || {
        let t0 = Instant::now();
        let tokens = TokenTable::build(dataset);
        std::hint::black_box(prefix_join(dataset, &tokens, STREAM_THRESHOLD, 0));
        t0.elapsed().as_nanos()
    });

    delta_ns.sort_unstable();
    StreamPerfReport {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        corpus: corpus.into(),
        records: dataset.len(),
        threshold: STREAM_THRESHOLD,
        batch_size: STREAM_BATCH,
        iters: iters.max(1),
        sustained_records_per_sec: dataset.len() as f64 / total_secs.max(1e-9),
        total_pairs: resolver.pairs().len(),
        epochs: resolver.epochs(),
        delta_p50_ns: percentile(&delta_ns, 0.50),
        delta_p90_ns: percentile(&delta_ns, 0.90),
        delta_p99_ns: percentile(&delta_ns, 0.99),
        delta_max_ns: delta_ns.last().copied().unwrap_or(0),
        prewarm_records: resolver.len(),
        single_delta_median_ns,
        batch_join_median_ns,
        batch_rebuild_median_ns,
        speedup: batch_join_median_ns as f64 / single_delta_median_ns.max(1) as f64,
        rounds,
    }
}

impl StreamPerfReport {
    /// Serialize to the `BENCH_stream.json` schema.
    pub fn to_json(&self) -> String {
        JsonReport::new()
            .num("schema_version", STREAM_SCHEMA_VERSION)
            .num("available_parallelism", self.available_parallelism)
            .str("corpus", &self.corpus)
            .num("records", self.records)
            .num("threshold", self.threshold)
            .num("batch_size", self.batch_size)
            .num("iters", self.iters)
            .num(
                "sustained_records_per_sec",
                format!("{:.1}", self.sustained_records_per_sec),
            )
            .num("total_pairs", self.total_pairs)
            .num("epochs", self.epochs)
            .num("delta_p50_ns", self.delta_p50_ns)
            .num("delta_p90_ns", self.delta_p90_ns)
            .num("delta_p99_ns", self.delta_p99_ns)
            .num("delta_max_ns", self.delta_max_ns)
            .num("prewarm_records", self.prewarm_records)
            .num("single_delta_median_ns", self.single_delta_median_ns)
            .num("batch_join_median_ns", self.batch_join_median_ns)
            .num("batch_rebuild_median_ns", self.batch_rebuild_median_ns)
            .num("speedup", format!("{:.1}", self.speedup))
            .rows(
                "rounds",
                self.rounds.iter().map(|r| {
                    JsonRow::new()
                        .num("round", r.round)
                        .num("arrived", r.arrived)
                        .num("new_pairs", r.new_pairs)
                        .num("candidates", r.candidates)
                        .num("verified", r.verified)
                        .num("dirty_clusters", r.dirty_clusters)
                        .num("hits_retired", r.hits_retired)
                        .num("hits_created", r.hits_created)
                        .num("hits_stable", r.hits_stable)
                        .build()
                }),
            )
            .build()
    }

    /// Render a human-readable summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "stream perf: {} ({} records, tau {}, batch {}, {} core(s))\n\
             sustained ingest: {:.0} records/sec; {} pairs; {} epochs\n\
             delta-join latency: p50 {} / p90 {} / p99 {} / max {}\n\
             single delta vs batch recompute at {} records:\n\
             delta {} vs prefix_join {} ({:.1}x; incl. re-interning {})\n\n\
             round  arrived  pairs  candidates  dirty  retired  created  stable\n",
            self.corpus,
            self.records,
            self.threshold,
            self.batch_size,
            self.available_parallelism,
            self.sustained_records_per_sec,
            self.total_pairs,
            self.epochs,
            fmt_ns(self.delta_p50_ns),
            fmt_ns(self.delta_p90_ns),
            fmt_ns(self.delta_p99_ns),
            fmt_ns(self.delta_max_ns),
            self.prewarm_records,
            fmt_ns(self.single_delta_median_ns),
            fmt_ns(self.batch_join_median_ns),
            self.speedup,
            fmt_ns(self.batch_rebuild_median_ns),
        );
        for r in &self.rounds {
            s.push_str(&format!(
                "{:>5}  {:>7}  {:>5}  {:>10}  {:>5}  {:>7}  {:>7}  {:>6}\n",
                r.round,
                r.arrived,
                r.new_pairs,
                r.candidates,
                r.dirty_clusters,
                r.hits_retired,
                r.hits_created,
                r.hits_stable
            ));
        }
        s
    }
}

/// Validate a `BENCH_stream.json` document: field presence, ordered
/// latency percentiles, and a well-formed non-empty rounds array.
/// Returns the round count. Deliberately no timing assertions — CI
/// machines vary; the ≥10× speedup claim is checked on the *recorded*
/// report, not on whatever machine CI lands on.
pub fn validate_stream_report_json(input: &str) -> Result<usize, String> {
    let doc = parse_json(input)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing schema_version")?;
    if version != STREAM_SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} != {STREAM_SCHEMA_VERSION}"
        ));
    }
    doc.get("corpus")
        .and_then(Json::as_str)
        .ok_or("missing string field corpus")?;
    for key in [
        "available_parallelism",
        "records",
        "threshold",
        "batch_size",
        "iters",
        "sustained_records_per_sec",
        "total_pairs",
        "epochs",
        "prewarm_records",
        "single_delta_median_ns",
        "batch_join_median_ns",
        "batch_rebuild_median_ns",
        "speedup",
    ] {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {key}"))?;
    }
    let ns = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {key}"))
    };
    let (p50, p90, p99, max) = (
        ns("delta_p50_ns")?,
        ns("delta_p90_ns")?,
        ns("delta_p99_ns")?,
        ns("delta_max_ns")?,
    );
    if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
        return Err("delta latency percentiles out of order".into());
    }
    let rounds = doc
        .get("rounds")
        .and_then(Json::as_array)
        .ok_or("missing rounds array")?;
    if rounds.is_empty() {
        return Err("rounds array is empty".into());
    }
    for (i, r) in rounds.iter().enumerate() {
        for key in [
            "round",
            "arrived",
            "new_pairs",
            "candidates",
            "verified",
            "dirty_clusters",
            "hits_retired",
            "hits_created",
            "hits_stable",
        ] {
            r.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("round {i}: missing numeric field {key}"))?;
        }
    }
    Ok(rounds.len())
}

/// Run the suite over the named corpus and write the report.
pub fn write_stream_report(
    path: &str,
    corpus: &str,
    dataset: &Dataset,
    iters: usize,
) -> std::io::Result<StreamPerfReport> {
    let report = run_stream_suite(corpus, dataset, iters);
    std::fs::write(path, report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let mut d = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        for i in 0..12 {
            d.push_record(
                SourceId(0),
                vec![format!("tok{} tok{} shared common", i % 4, i % 3)],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn report_roundtrips_through_validation() {
        let report = run_stream_suite("tiny", &tiny_dataset(), 1);
        assert_eq!(
            validate_stream_report_json(&report.to_json()),
            Ok(report.rounds.len())
        );
        // Streaming surfaced exactly the batch pair set.
        let d = tiny_dataset();
        let tokens = TokenTable::build(&d);
        assert_eq!(
            report.total_pairs,
            prefix_join(&d, &tokens, STREAM_THRESHOLD, 1).len()
        );
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_stream_report_json("").is_err());
        assert!(validate_stream_report_json("{}").is_err());
        assert!(validate_stream_report_json("{\"schema_version\": 999}").is_err());
        let mut report = run_stream_suite("tiny", &tiny_dataset(), 1);
        report.delta_p50_ns = report.delta_max_ns + 1;
        assert!(validate_stream_report_json(&report.to_json())
            .unwrap_err()
            .contains("percentiles"));
        report = run_stream_suite("tiny", &tiny_dataset(), 1);
        report.rounds.clear();
        assert!(validate_stream_report_json(&report.to_json())
            .unwrap_err()
            .contains("empty"));
    }
}
