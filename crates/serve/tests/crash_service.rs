//! Durability under the service: group-commit acknowledgement means an
//! acked ingest batch survives a crash bit-exactly, and a crash can
//! only take the *unacknowledged* tail. Faults are injected with
//! `FaultyDir` (every write after an armed byte budget fails, like
//! power loss mid-group-commit); recovery replays the surviving WAL.

use crowder_durable::{digest, DurabilityConfig, DurableResolver, FaultyDir, MemDir};
use crowder_serve::{IngestRecord, ResolverService, ServeConfig, TrySubmit};
use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{PairSpace, SourceId};

const NAME_POOL: &[&str] = &[
    "ipad two 16gb wifi white",
    "ipad 2nd generation 16gb wifi white",
    "iphone 4th generation white 16gb",
    "apple iphone 4 16gb white",
    "apple iphone 3rd generation black 16gb",
    "iphone 4 32gb white",
    "apple ipad2 16gb wifi white",
    "apple ipod shuffle 2gb blue",
];

fn stream_config() -> StreamConfig {
    StreamConfig {
        threshold: 0.35,
        ..StreamConfig::default()
    }
}

/// Sync cadence deliberately enormous: the WAL syncs exactly when the
/// service's group commit says so, never on its own.
fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        sync_every_ops: 1_000_000,
        snapshot_every_ops: 1_000_000,
    }
}

fn name(i: usize) -> String {
    format!("{} v{}", NAME_POOL[i % NAME_POOL.len()], i % 13)
}

fn batch(start: usize, len: usize) -> Vec<IngestRecord> {
    (start..start + len)
        .map(|i| (SourceId(0), vec![name(i)]))
        .collect()
}

/// Crash the service after `budget` post-arm disk bytes; return
/// (last op acked before the crash, total ops submitted in accepted
/// batches, the surviving disk).
fn crash_run(budget: usize) -> (u64, u64, MemDir) {
    let faulty = FaultyDir::new();
    let engine = DurableResolver::create(
        faulty.clone(),
        "serve",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        durability_config(),
    )
    .unwrap();
    let service = ResolverService::durable(
        engine,
        ServeConfig {
            queue_capacity: 4,
            group_commit_max: 2,
            flush_every_ops: usize::MAX,
        },
    );
    const BATCH: usize = 2;
    let mut next = 0usize;
    let mut acked_through = 0u64;
    // Phase 1: healthy traffic, each batch acked before the next — so
    // the crash provably happens after real acknowledged history.
    for _ in 0..5 {
        let ticket = service.ingest(batch(next, BATCH)).unwrap();
        let receipt = ticket.wait().unwrap();
        acked_through = receipt.last_op;
        next += BATCH;
    }
    // Phase 2: power loss armed; keep submitting until a group commit
    // hits the fault and the stopped worker closes the queue. The cap
    // is far past every budget below, so only a worker that never
    // fails can reach it — however the threads are scheduled.
    faulty.arm(budget);
    const MAX_RECORDS: usize = 10_000;
    let mut inflight = Vec::new();
    while next < MAX_RECORDS {
        match service.try_ingest(batch(next, BATCH)) {
            TrySubmit::Accepted(ticket) => {
                next += BATCH;
                inflight.push(ticket);
            }
            TrySubmit::Full(_) => std::thread::yield_now(),
            TrySubmit::Closed(_) => break,
        }
    }
    let submitted = next as u64;
    let mut saw_failure = false;
    for ticket in inflight {
        match ticket.wait() {
            Ok(receipt) => acked_through = acked_through.max(receipt.last_op),
            Err(_) => saw_failure = true,
        }
    }
    assert!(
        saw_failure,
        "the armed fault must fail at least one group commit"
    );
    // The worker has already stopped; shutdown surfaces the sync error
    // instead of a report.
    assert!(
        service.shutdown().is_err(),
        "crashed shutdown must report the fault"
    );
    (acked_through, submitted, faulty.disk())
}

#[test]
fn acked_batches_survive_a_crash_bit_exactly() {
    let mut lost_a_tail = false;
    for budget in [0usize, 37, 301, 999, 4096] {
        let (acked_through, submitted, disk) = crash_run(budget);
        let (recovered, report) =
            DurableResolver::recover(disk, stream_config(), durability_config()).unwrap();
        // Rule 1: nothing acknowledged is ever lost.
        assert!(
            report.last_seq >= acked_through,
            "budget {budget}: acked op {acked_through} lost (recovered only {})",
            report.last_seq
        );
        // Rule 2: nothing is invented — the recovered history is a
        // prefix of what was submitted.
        assert!(
            report.last_seq <= submitted,
            "budget {budget}: recovered more ops than were submitted"
        );
        lost_a_tail |= report.last_seq < submitted;
        // Rule 3: the survivors are bit-exact — the recovered state is
        // the single-threaded replay of exactly the first `last_seq`
        // submitted records (submission order == apply order: one
        // producer, FIFO queue, serial worker).
        let mut replay = IncrementalResolver::new(
            "serve",
            vec!["name".into()],
            PairSpace::SelfJoin,
            stream_config(),
        );
        for i in 0..report.last_seq as usize {
            replay.insert(SourceId(0), vec![name(i)]).unwrap();
        }
        assert_eq!(
            recovered.digest(),
            digest(&replay, &[]),
            "budget {budget}: recovered state diverged from replay of the durable prefix"
        );
    }
    assert!(
        lost_a_tail,
        "the sweep never lost an unacked tail — faults were not exercised"
    );
}

/// A clean shutdown with no faults checkpoints everything: recovery
/// finds the full history and the exact final state.
#[test]
fn clean_shutdown_recovers_everything() {
    let dir = MemDir::new();
    let engine = DurableResolver::create(
        dir.clone(),
        "serve",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        durability_config(),
    )
    .unwrap();
    let service = ResolverService::durable(
        engine,
        ServeConfig {
            queue_capacity: 4,
            group_commit_max: 3,
            flush_every_ops: usize::MAX,
        },
    );
    let mut tickets = Vec::new();
    for b in 0..6 {
        tickets.push(service.ingest(batch(b * 3, 3)).unwrap());
    }
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let report = service.shutdown().unwrap();
    assert_eq!(report.applied_ops, 18);
    let final_digest = digest(&report.resolver, &[]);
    let (recovered, recovery) =
        DurableResolver::recover(dir, stream_config(), durability_config()).unwrap();
    assert!(recovery.last_seq >= 18, "all acked ops recovered");
    assert_eq!(
        recovered.digest(),
        final_digest,
        "recovery after clean shutdown reproduces the final state"
    );
}

/// A crash inside a cadence checkpoint fails `regenerate_hits` after
/// the batch was acknowledged. The worker stops, and every later call
/// gets an error instead of waiting on it forever.
#[test]
fn a_failed_cadence_checkpoint_fails_every_later_call() {
    // A service that checkpoints at every HIT flush, and flushes after
    // every `flush_every` records.
    let start = |flush_every| {
        let faulty = FaultyDir::new();
        let durability = DurabilityConfig {
            sync_every_ops: 1_000_000,
            snapshot_every_ops: 1,
        };
        let engine = DurableResolver::create(
            faulty.clone(),
            "serve",
            vec!["name".into()],
            PairSpace::SelfJoin,
            stream_config(),
            durability,
        )
        .unwrap();
        let config = ServeConfig {
            queue_capacity: 4,
            group_commit_max: 1,
            flush_every_ops: flush_every,
        };
        (ResolverService::durable(engine, config), faulty)
    };
    // Bytes one acked 2-record batch writes, without and with the
    // flush + checkpoint after it. The worker answers the query only
    // after that flush.
    let bytes = |flush_every| {
        let (service, faulty) = start(flush_every);
        let before = faulty.mutated();
        service.ingest(batch(0, 2)).unwrap().wait().unwrap();
        service.resolve(SourceId(0), vec![name(0)]).unwrap();
        faulty.mutated() - before
    };
    let (commit, with_checkpoint) = (bytes(usize::MAX), bytes(2));
    assert!(with_checkpoint > commit + 2, "the checkpoint writes");

    let (service, faulty) = start(2);
    faulty.arm((commit + with_checkpoint) / 2);
    let receipt = service.ingest(batch(0, 2)).unwrap().wait();
    assert!(receipt.is_ok(), "the group commit fits the budget");
    assert!(
        service.resolve(SourceId(0), vec![name(0)]).is_err(),
        "a query after the failed checkpoint must fail, not block"
    );
    assert!(faulty.crashed());
    assert!(matches!(
        service.try_ingest(batch(2, 2)),
        TrySubmit::Closed(_)
    ));
    assert!(service.shutdown().is_err(), "shutdown reports the fault");
}
