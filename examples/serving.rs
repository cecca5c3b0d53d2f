//! Concurrent serving: a `ResolverService` owns the incremental
//! resolver behind a bounded command queue — ingest threads push record
//! batches (retrying on explicit backpressure), a query thread runs
//! `resolve()` lookups against the live state while ingest is still in
//! flight, and a graceful shutdown hands the final resolver back for
//! the exactness check against the batch machine pass.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use crowder::prelude::*;
use crowder::serve::{ResolverService, ServeConfig, TrySubmit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const INGEST_THREADS: usize = 2;
const BATCH: usize = 8;

fn main() {
    // A Restaurant-style corpus, served instead of streamed: the
    // resolver sits behind a bounded queue.
    let dataset = restaurant(&RestaurantConfig::default());
    let resolver = IncrementalResolver::like(
        &dataset,
        StreamConfig {
            threshold: 0.5,
            ..StreamConfig::default()
        },
    );
    let service = ResolverService::in_memory(
        resolver,
        ServeConfig {
            queue_capacity: 16,
            group_commit_max: 8,
            flush_every_ops: 256,
        },
    );

    // A probe the query thread will resolve while ingest runs: the
    // fields of the first record, which is in-corpus from the first
    // accepted batch onward.
    let probe_source = dataset.records()[0].source;
    let probe_fields = dataset.records()[0].fields.clone();

    let rejections = AtomicU64::new(0);
    let queries = AtomicU64::new(0);
    let ingested = AtomicU64::new(0);
    let total = dataset.len() as u64;
    // Arrival log: which fields got which record id — two threads race
    // for ids, so arrival order is a nondeterministic interleaving of
    // the two stripes, and the exactness check below replays *that*.
    let arrivals: Mutex<Vec<(RecordId, SourceId, Vec<String>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Ingest threads: round-robin split, batches of BATCH, explicit
        // backpressure — `TrySubmit::Full` hands the batch back and the
        // producer retries after a yield.
        for t in 0..INGEST_THREADS {
            let (service, rejections, ingested, arrivals) =
                (&service, &rejections, &ingested, &arrivals);
            let records: Vec<_> = dataset
                .records()
                .iter()
                .skip(t)
                .step_by(INGEST_THREADS)
                .map(|r| (r.source, r.fields.clone()))
                .collect();
            scope.spawn(move || {
                for chunk in records.chunks(BATCH) {
                    let mut batch = chunk.to_vec();
                    let ticket = loop {
                        match service.try_ingest(batch) {
                            TrySubmit::Accepted(ticket) => break ticket,
                            TrySubmit::Full(returned) => {
                                rejections.fetch_add(1, Ordering::Relaxed);
                                batch = returned;
                                std::thread::yield_now();
                            }
                            TrySubmit::Closed(_) => unreachable!("service open"),
                        }
                    };
                    let receipt = ticket.wait().expect("batch applies");
                    let mut log = arrivals.lock().unwrap();
                    for (id, (source, fields)) in receipt.records.iter().zip(chunk) {
                        log.push((*id, *source, fields.clone()));
                    }
                    drop(log);
                    ingested.fetch_add(receipt.records.len() as u64, Ordering::Relaxed);
                }
            });
        }

        // Query thread: resolve the probe against whatever prefix of
        // the ingest history has been applied — views are
        // prefix-consistent and applied_ops is monotone.
        let (service, queries, ingested) = (&service, &queries, &ingested);
        let query_fields = probe_fields.clone();
        scope.spawn(move || {
            let mut last_ops = 0;
            while ingested.load(Ordering::Relaxed) < total {
                let view = service
                    .resolve(probe_source, query_fields.clone())
                    .expect("schema matches");
                assert!(view.applied_ops >= last_ops, "applied_ops went backwards");
                last_ops = view.applied_ops;
                queries.fetch_add(1, Ordering::Relaxed);
            }
        });
    });

    // All ingest acked: one final resolve sees the whole corpus.
    let view = service
        .resolve(probe_source, probe_fields.clone())
        .expect("schema matches");
    assert_eq!(view.applied_ops, total);
    assert!(
        view.matches.iter().any(|m| m.similarity == 1.0),
        "the probe's own record is an exact match"
    );

    let report = service.shutdown().expect("clean drain");
    assert_eq!(report.applied_ops, total);

    // The exactness contract survives the concurrent service: replay
    // the logged arrival order into a batch dataset — whatever
    // interleaving the two producers raced into, the served corpus
    // joins bit-identically to a batch prefix_join over it.
    let mut arrivals = arrivals.into_inner().unwrap();
    arrivals.sort_by_key(|(id, _, _)| *id);
    let mut replay = Dataset::new(
        dataset.name.clone(),
        dataset.schema.clone(),
        dataset.pair_space,
    );
    for (id, source, fields) in arrivals {
        let got = replay.push_record(source, fields).expect("schema matches");
        assert_eq!(got, id, "arrival ids are dense and gapless");
    }
    let tokens = TokenTable::build(&replay);
    let batch = prefix_join(&replay, &tokens, 0.5, 0);
    assert_eq!(
        report.resolver.ranked_pairs(),
        batch,
        "served ≡ batch machine pass"
    );

    println!(
        "served {} records over {} ingest threads: {} pairs (≡ batch join: verified)",
        total,
        INGEST_THREADS,
        batch.len()
    );
    println!(
        "{} concurrent queries answered mid-ingest; {} clusters in the final view; \
         {} backpressure rejections retried losslessly",
        queries.load(Ordering::Relaxed),
        view.clusters.len(),
        rejections.load(Ordering::Relaxed),
    );
}
