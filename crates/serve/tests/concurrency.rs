//! The service's concurrency contract, stress-tested on real threads:
//!
//! * N ingest threads × M query threads against one `ResolverService`;
//!   every `resolve()` observes a prefix-consistent cluster view
//!   (applied-op counts monotone per observer, matches always covered
//!   by the returned clusters, acked batches visible to later queries).
//! * Backpressure loses nothing: batches rejected with
//!   `TrySubmit::Full` are retried verbatim and every record is acked
//!   exactly once.
//! * The final state is bit-for-bit the single-threaded replay of the
//!   accepted history (receipts ordered by `first_op`) — and therefore
//!   bit-for-bit the batch `prefix_join` over that corpus.

use crowder_serve::{IngestReceipt, IngestRecord, ResolverService, ServeConfig, TrySubmit};
use crowder_simjoin::{prefix_join, TokenTable};
use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{Dataset, PairSpace, RecordId, SourceId};
use std::sync::atomic::{AtomicU64, Ordering};

const NAME_POOL: &[&str] = &[
    "ipad two 16gb wifi white",
    "ipad 2nd generation 16gb wifi white",
    "iphone 4th generation white 16gb",
    "apple iphone 4 16gb white",
    "apple iphone 3rd generation black 16gb",
    "iphone 4 32gb white",
    "apple ipad2 16gb wifi white",
    "apple ipod shuffle 2gb blue",
    "apple ipod shuffle usb cable",
    "sony ericsson z310a black phone",
];

fn stream_config() -> StreamConfig {
    StreamConfig {
        threshold: 0.35,
        ..StreamConfig::default()
    }
}

fn fresh_resolver() -> IncrementalResolver {
    IncrementalResolver::new(
        "serve",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
    )
}

fn name(i: usize) -> String {
    // Pool names plus a per-record tail: plenty of near-duplicates, no
    // two records identical.
    format!("{} v{}", NAME_POOL[i % NAME_POOL.len()], i % 23)
}

/// Check the accepted history against its single-threaded replay and
/// the batch join, and return it in serial order.
fn check_replay(
    final_resolver: &IncrementalResolver,
    mut history: Vec<(IngestReceipt, Vec<IngestRecord>)>,
) {
    history.sort_by_key(|(receipt, _)| receipt.first_op);
    let mut dataset = Dataset::new("serve", vec!["name".into()], PairSpace::SelfJoin);
    let mut replay = fresh_resolver();
    let mut next_op = 1u64;
    for (receipt, batch) in &history {
        // Receipts tile the history: contiguous, no gap, no overlap,
        // ids assigned in serial order.
        assert_eq!(receipt.first_op, next_op, "op ranges must tile");
        assert_eq!(
            receipt.last_op,
            receipt.first_op + batch.len() as u64 - 1,
            "one op per record"
        );
        next_op = receipt.last_op + 1;
        for ((source, fields), &id) in batch.iter().zip(&receipt.records) {
            let got = replay.insert(*source, fields.clone()).unwrap().record;
            assert_eq!(got, id, "replay must reproduce the service's ids");
            dataset.push_record(*source, fields.clone()).unwrap();
        }
    }
    replay.regenerate_hits().unwrap();
    // Bit-for-bit: the concurrent service ≡ its serial replay ≡ batch.
    assert_eq!(
        final_resolver.ranked_pairs(),
        replay.ranked_pairs(),
        "service diverged from single-threaded replay"
    );
    let tokens = TokenTable::build(&dataset);
    assert_eq!(
        final_resolver.ranked_pairs(),
        prefix_join(&dataset, &tokens, stream_config().threshold, 0),
        "service diverged from batch join"
    );
    assert_eq!(
        final_resolver.export_state().unwrap(),
        replay.export_state().unwrap(),
        "full exported state diverged from replay"
    );
}

#[test]
fn concurrent_ingest_and_query_replay_exactly() {
    const INGEST_THREADS: usize = 4;
    const QUERY_THREADS: usize = 2;
    const PER_THREAD: usize = 30;
    const BATCH: usize = 3;

    let service = ResolverService::in_memory(
        fresh_resolver(),
        ServeConfig {
            queue_capacity: 8,
            group_commit_max: 4,
            flush_every_ops: usize::MAX,
        },
    );
    let high_water = AtomicU64::new(0);
    let mut histories: Vec<Vec<(IngestReceipt, Vec<IngestRecord>)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut ingest_handles = Vec::new();
        for t in 0..INGEST_THREADS {
            let service = &service;
            let high_water = &high_water;
            ingest_handles.push(scope.spawn(move || {
                let mut history = Vec::new();
                let records: Vec<IngestRecord> = (0..PER_THREAD)
                    .map(|i| (SourceId(0), vec![name(t * PER_THREAD + i)]))
                    .collect();
                for chunk in records.chunks(BATCH) {
                    let mut batch = chunk.to_vec();
                    // Backpressure protocol: retry the identical batch
                    // until accepted; Full means nothing was applied.
                    let ticket = loop {
                        match service.try_ingest(batch) {
                            TrySubmit::Accepted(ticket) => break ticket,
                            TrySubmit::Full(rejected) => {
                                batch = rejected;
                                std::thread::yield_now();
                            }
                            TrySubmit::Closed(_) => panic!("service closed mid-test"),
                        }
                    };
                    let receipt = ticket.wait().unwrap();
                    // Acked ⇒ visible: a query issued after the ack
                    // must observe at least this much history.
                    let view = service
                        .resolve(SourceId(0), vec![name(t * PER_THREAD)])
                        .unwrap();
                    assert!(
                        view.applied_ops >= receipt.last_op,
                        "post-ack query saw a shorter history than the ack"
                    );
                    high_water.fetch_max(receipt.last_op, Ordering::Relaxed);
                    history.push((receipt, chunk.to_vec()));
                }
                history
            }));
        }
        for q in 0..QUERY_THREADS {
            let service = &service;
            let high_water = &high_water;
            scope.spawn(move || {
                let mut last_seen = 0u64;
                for i in 0..PER_THREAD {
                    let floor = high_water.load(Ordering::Relaxed);
                    let view = service
                        .resolve(SourceId(0), vec![name(q + i * QUERY_THREADS)])
                        .unwrap();
                    // Prefix consistency: the serial apply order only
                    // grows, and a view reflects a single point of it.
                    assert!(
                        view.applied_ops >= last_seen,
                        "applied_ops went backwards for one observer"
                    );
                    assert!(
                        view.applied_ops >= floor,
                        "view older than an already-acknowledged prefix"
                    );
                    last_seen = view.applied_ops;
                    // Every match is covered by exactly one returned cluster.
                    for m in &view.matches {
                        let homes = view
                            .clusters
                            .iter()
                            .filter(|c| c.members.contains(&m.record))
                            .count();
                        assert_eq!(homes, 1, "match not covered by exactly one cluster");
                    }
                    assert!(view.live_records as u64 >= view.matches.len() as u64);
                }
            });
        }
        for handle in ingest_handles {
            histories.push(handle.join().unwrap());
        }
    });
    let report = service.shutdown().unwrap();
    assert_eq!(
        report.applied_ops,
        (INGEST_THREADS * PER_THREAD) as u64,
        "every accepted record applied exactly once"
    );
    check_replay(&report.resolver, histories.into_iter().flatten().collect());
}

/// Deterministic backpressure: stall the worker with one huge batch,
/// then overfill the 1-slot queue — the overflow submission must come
/// back as `TrySubmit::Full` with the batch intact, and retrying it
/// verbatim must ack every record exactly once.
#[test]
fn backpressure_rejection_and_retry_lose_nothing() {
    let service = ResolverService::in_memory(
        fresh_resolver(),
        ServeConfig {
            queue_capacity: 1,
            group_commit_max: 1,
            flush_every_ops: usize::MAX,
        },
    );
    // A batch big enough that the worker is busy applying it while the
    // main thread overfills the queue behind it.
    let big: Vec<IngestRecord> = (0..600).map(|i| (SourceId(0), vec![name(i)])).collect();
    let big_len = big.len();
    let big_ticket = match service.try_ingest(big) {
        TrySubmit::Accepted(ticket) => ticket,
        _ => panic!("an empty queue must accept"),
    };
    let mut tickets = Vec::new();
    let mut saw_full = false;
    let mut pending: Vec<Vec<IngestRecord>> = (0..4)
        .map(|i| vec![(SourceId(0), vec![name(600 + i)])])
        .collect();
    while let Some(batch) = pending.pop() {
        match service.try_ingest(batch) {
            TrySubmit::Accepted(ticket) => tickets.push(ticket),
            TrySubmit::Full(rejected) => {
                // The batch rides back untouched; retry it verbatim.
                assert_eq!(rejected.len(), 1);
                saw_full = true;
                pending.push(rejected);
                std::thread::yield_now();
            }
            TrySubmit::Closed(_) => panic!("service closed mid-test"),
        }
    }
    assert!(
        saw_full,
        "a 1-slot queue behind a 600-record batch must reject at least once"
    );
    let big_receipt = big_ticket.wait().unwrap();
    assert_eq!(big_receipt.records.len(), big_len);
    let mut acked: Vec<RecordId> = big_receipt.records;
    for ticket in tickets {
        acked.extend(ticket.wait().unwrap().records);
    }
    acked.sort_unstable();
    let expected: Vec<RecordId> = (0..(big_len + 4) as u32).map(RecordId).collect();
    assert_eq!(
        acked, expected,
        "every record acked exactly once, none lost"
    );
    let report = service.shutdown().unwrap();
    assert_eq!(report.applied_ops, (big_len + 4) as u64);
}

#[test]
fn schema_arity_is_checked_at_resolve_time() {
    let service = ResolverService::in_memory(fresh_resolver(), ServeConfig::default());
    let err = service.resolve(SourceId(0), vec!["a".into(), "b".into()]);
    assert!(err.is_err(), "two fields against a one-column schema");
    // The service survives a bad query; good ones still work.
    let ticket = service.ingest(vec![(SourceId(0), vec![name(0)])]).unwrap();
    ticket.wait().unwrap();
    let view = service.resolve(SourceId(0), vec![name(0)]).unwrap();
    assert_eq!(view.matches.len(), 1);
    assert_eq!(view.matches[0].similarity, 1.0);
    service.shutdown().unwrap();
}
