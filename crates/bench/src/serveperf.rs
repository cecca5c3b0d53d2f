//! Machine-readable perf report for the concurrent serving layer —
//! `BENCH_serve.json`.
//!
//! A thread matrix (N ingest × M query threads) drives a
//! `ResolverService`: sustained ingest records/sec, query latency
//! p50/p99 through the full queue → worker → group-commit → reply
//! path, and how often backpressure (`TrySubmit::Full`) fired. On the
//! 1-CPU reference container the matrix shows queueing effects, not
//! parallel speedup — the cells are recorded for replay on wider
//! machines. The validator checks the schema only; absolute timings
//! are recorded for trend-reading, never asserted.

use crate::perf::{parse_json, Json, JsonReport, JsonRow};
use crowder::prelude::*;
use crowder_obs::stats::{format_ns as fmt_ns, percentile_sorted as percentile};
use crowder_serve::{IngestRecord, ResolverService, ServeConfig, TrySubmit};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Default output path for the serving report.
pub const SERVE_REPORT_PATH: &str = "BENCH_serve.json";

/// Schema version stamped into the report; bump on breaking changes.
pub const SERVE_SCHEMA_VERSION: u32 = 1;

/// Likelihood threshold of the matrix runs (the paper's Product sweet
/// spot, same as `BENCH_stream.json`).
pub const SERVE_THRESHOLD: f64 = 0.3;

/// One cell of the ingest × query thread matrix.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Concurrent ingest threads.
    pub ingest_threads: usize,
    /// Concurrent query threads.
    pub query_threads: usize,
    /// Records ingested (all acked).
    pub records: usize,
    /// Queries answered while ingest ran.
    pub queries: usize,
    /// Sustained ingest throughput: records / wall time from first
    /// submission to last group-commit ack.
    pub records_per_sec: f64,
    /// End-to-end `resolve()` latency (enqueue → worker → reply), p50.
    pub query_p50_ns: u128,
    /// End-to-end `resolve()` latency, p99.
    pub query_p99_ns: u128,
    /// Backpressure rejections (`TrySubmit::Full`) producers absorbed.
    pub rejections: u64,
}

/// The whole `BENCH_serve.json` document.
#[derive(Debug, Clone)]
pub struct ServePerfReport {
    /// Cores visible to the run (1 in the reference container: the
    /// matrix is queueing evidence there, not parallelism evidence).
    pub available_parallelism: usize,
    /// Corpus name.
    pub corpus: String,
    /// Corpus size.
    pub records: usize,
    /// Join threshold.
    pub threshold: f64,
    /// The thread matrix.
    pub cells: Vec<ServeCell>,
}

/// Drive one thread-matrix cell against a fresh service.
fn run_cell(dataset: &Dataset, ingest_threads: usize, query_threads: usize) -> ServeCell {
    let resolver = IncrementalResolver::like(
        dataset,
        crowder_stream::StreamConfig {
            threshold: SERVE_THRESHOLD,
            ..crowder_stream::StreamConfig::default()
        },
    );
    let service = ResolverService::in_memory(
        resolver,
        ServeConfig {
            queue_capacity: 64,
            group_commit_max: 16,
            flush_every_ops: usize::MAX,
        },
    );
    const BATCH: usize = 8;
    let rejections = AtomicU64::new(0);
    let ingest_done = AtomicBool::new(false);
    let records = dataset.records();
    let mut latencies: Vec<Vec<u128>> = Vec::new();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let mut ingest_handles = Vec::new();
        for t in 0..ingest_threads {
            let service = &service;
            let rejections = &rejections;
            ingest_handles.push(scope.spawn(move || {
                // Round-robin split: thread t owns records t, t+N, ...
                let own: Vec<IngestRecord> = records
                    .iter()
                    .skip(t)
                    .step_by(ingest_threads)
                    .map(|r| (r.source, r.fields.clone()))
                    .collect();
                let mut tickets = Vec::new();
                for chunk in own.chunks(BATCH) {
                    let mut batch = chunk.to_vec();
                    loop {
                        match service.try_ingest(batch) {
                            TrySubmit::Accepted(ticket) => {
                                tickets.push(ticket);
                                break;
                            }
                            TrySubmit::Full(rejected) => {
                                rejections.fetch_add(1, Ordering::Relaxed);
                                batch = rejected;
                                std::thread::yield_now();
                            }
                            TrySubmit::Closed(_) => panic!("service closed mid-bench"),
                        }
                    }
                }
                for ticket in tickets {
                    ticket.wait().expect("bench batches are well-formed");
                }
            }));
        }
        let mut query_handles = Vec::new();
        for q in 0..query_threads {
            let service = &service;
            let ingest_done = &ingest_done;
            query_handles.push(scope.spawn(move || {
                let mut ns = Vec::new();
                let mut i = q;
                // Query live while ingest runs; stop with it so the
                // cell measures contention, not an idle tail.
                while !ingest_done.load(Ordering::Relaxed) && ns.len() < 20_000 {
                    let record = &records[i % records.len()];
                    let t = Instant::now();
                    service
                        .resolve(record.source, record.fields.clone())
                        .expect("schema matches");
                    ns.push(t.elapsed().as_nanos());
                    i += query_threads;
                }
                ns
            }));
        }
        for handle in ingest_handles {
            handle.join().unwrap();
        }
        ingest_done.store(true, Ordering::Relaxed);
        for handle in query_handles {
            latencies.push(handle.join().unwrap());
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(
        report.applied_ops,
        records.len() as u64,
        "every record acked exactly once"
    );
    let mut all_ns: Vec<u128> = latencies.into_iter().flatten().collect();
    all_ns.sort_unstable();
    ServeCell {
        ingest_threads,
        query_threads,
        records: records.len(),
        queries: all_ns.len(),
        records_per_sec: records.len() as f64 / elapsed.max(1e-9),
        query_p50_ns: percentile(&all_ns, 0.50),
        query_p99_ns: percentile(&all_ns, 0.99),
        rejections: rejections.load(Ordering::Relaxed),
    }
}

/// Run the thread matrix and assemble the report. `matrix` lists the
/// (ingest, query) thread cells.
pub fn run_serve_suite(
    corpus: &str,
    dataset: &Dataset,
    matrix: &[(usize, usize)],
) -> ServePerfReport {
    let cells = matrix
        .iter()
        .map(|&(n, m)| run_cell(dataset, n, m))
        .collect();
    ServePerfReport {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        corpus: corpus.into(),
        records: dataset.len(),
        threshold: SERVE_THRESHOLD,
        cells,
    }
}

impl ServePerfReport {
    /// Serialize to the `BENCH_serve.json` schema.
    pub fn to_json(&self) -> String {
        JsonReport::new()
            .num("schema_version", SERVE_SCHEMA_VERSION)
            .num("available_parallelism", self.available_parallelism)
            .str("corpus", &self.corpus)
            .num("records", self.records)
            .num("threshold", self.threshold)
            .rows(
                "cells",
                self.cells.iter().map(|c| {
                    JsonRow::new()
                        .num("ingest_threads", c.ingest_threads)
                        .num("query_threads", c.query_threads)
                        .num("records", c.records)
                        .num("queries", c.queries)
                        .num("records_per_sec", format!("{:.1}", c.records_per_sec))
                        .num("query_p50_ns", c.query_p50_ns)
                        .num("query_p99_ns", c.query_p99_ns)
                        .num("rejections", c.rejections)
                        .build()
                }),
            )
            .build()
    }

    /// Render a human-readable summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "serve perf: {} ({} records, tau {}, {} core(s))\n\n\
             ingest x query   records/sec   query p50   query p99   rejections\n",
            self.corpus, self.records, self.threshold, self.available_parallelism,
        );
        for c in &self.cells {
            s.push_str(&format!(
                "{:>6} x {:<5}   {:>11.0}   {:>9}   {:>9}   {:>10}\n",
                c.ingest_threads,
                c.query_threads,
                c.records_per_sec,
                fmt_ns(c.query_p50_ns),
                fmt_ns(c.query_p99_ns),
                c.rejections
            ));
        }
        s
    }
}

/// Validate a `BENCH_serve.json` document: field presence and
/// well-formed matrix cells. Absolute timings are deliberately not
/// asserted. Returns the cell count.
pub fn validate_serve_report_json(input: &str) -> Result<usize, String> {
    let doc = parse_json(input)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing schema_version")?;
    if version != SERVE_SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} != {SERVE_SCHEMA_VERSION}"
        ));
    }
    doc.get("corpus")
        .and_then(Json::as_str)
        .ok_or("missing string field corpus")?;
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {key}"))
    };
    for key in ["available_parallelism", "records", "threshold"] {
        num(key)?;
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing cells array")?;
    if cells.is_empty() {
        return Err("cells array is empty".into());
    }
    for (i, c) in cells.iter().enumerate() {
        let cnum = |key: &str| -> Result<f64, String> {
            c.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell {i}: missing numeric field {key}"))
        };
        for key in [
            "ingest_threads",
            "query_threads",
            "records",
            "queries",
            "rejections",
        ] {
            cnum(key)?;
        }
        if cnum("records_per_sec")? <= 0.0 {
            return Err(format!("cell {i}: records_per_sec must be positive"));
        }
        if cnum("query_p50_ns")? > cnum("query_p99_ns")? {
            return Err(format!("cell {i}: query percentiles out of order"));
        }
    }
    Ok(cells.len())
}

/// Run the suite over the named corpus and write the report.
pub fn write_serve_report(
    path: &str,
    corpus: &str,
    dataset: &Dataset,
    matrix: &[(usize, usize)],
) -> std::io::Result<ServePerfReport> {
    let report = run_serve_suite(corpus, dataset, matrix);
    std::fs::write(path, report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let mut d = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        for i in 0..24 {
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
        let report = run_serve_suite("tiny", &tiny_dataset(), &[(1, 1), (2, 1)]);
        assert_eq!(validate_serve_report_json(&report.to_json()), Ok(2));
    }

    #[test]
    fn validation_rejects_malformed_cells() {
        let report = run_serve_suite("tiny", &tiny_dataset(), &[(1, 1)]);
        let broken = report.to_json().replace("\"records_per_sec\"", "\"rps\"");
        let err = validate_serve_report_json(&broken).unwrap_err();
        assert!(err.contains("records_per_sec"), "{err}");
    }
}
