//! `serve_t03`: the serving path — Product ×16 at t = 0.3 through
//! `ResolverService::durable` on an in-memory directory, so the WAL and
//! snapshot code runs but no disk does.
//!
//! Prep (untimed, not set-up): ingest the first half at the service's
//! cadence (a group commit per batch, a HIT flush every
//! `ServeConfig::flush_every_ops` records, default durability), then
//! drop the engine without `close`, as a crash would.
//!
//! Each phase: set-up is `DurableResolver::recover` from a copy of that
//! image plus service start. Then one producer ingests the second half
//! in closed loop (an 8-record batch, wait for its ack) while a second
//! thread sends `resolve()` queries open-loop at 200/s about records
//! already acknowledged, each timed from when it was due. With one
//! closed-loop producer every worker group holds at most one batch, so
//! flush points, and the final state, do not depend on timing.
//!
//! Traced: the phase replayed serially through the engine's public
//! calls (`recover`, `insert`, `sync`, `regenerate_hits`, `query`,
//! `close`), with the same batch cadence and query count, timing each.

use crate::inputs::{self, SplitMix};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{max, median, quantile, secs, timed, Budget};
use crate::Args;
use crowder_crowd::CrowdConfig;
use crowder_durable::{digest, Dir, DurabilityConfig, DurableResolver, MemDir, StateDigest};
use crowder_serve::{IngestRecord, ResolverService, ServeConfig, TrySubmit};
use crowder_simjoin::{prefix_join, TokenTable};
use crowder_stream::{IncrementalResolver, QueryMatch, StreamConfig};
use crowder_types::{Dataset, GoldStandard, PairSpace, RecordId, SourceId};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SCALE: usize = 16;
const THRESHOLD: f64 = 0.3;
const BATCH: usize = 8;
const QUERY_INTERVAL: Duration = Duration::from_millis(5);
const MIN_PHASES: usize = 2;

fn stream_config() -> StreamConfig {
    StreamConfig {
        threshold: THRESHOLD,
        ..StreamConfig::default()
    }
}

/// The source a query about `record` is asked from: the other side of a
/// cross-source corpus, so `record` itself must come back at
/// similarity 1 — a per-query correctness check.
fn probe_source(dataset: &Dataset, record: usize) -> SourceId {
    let own = dataset.records()[record].source;
    match dataset.pair_space {
        PairSpace::CrossSource(a, b) if own == a => b,
        PairSpace::CrossSource(a, _) => a,
        PairSpace::SelfJoin => own,
    }
}

fn check_query(record: usize, matches: &[QueryMatch]) -> Result<(), String> {
    let own = RecordId(record as u32);
    if matches
        .iter()
        .any(|m| m.record == own && m.similarity == 1.0)
    {
        Ok(())
    } else {
        Err(format!(
            "query about record {record} did not return it at similarity 1 ({} matches)",
            matches.len()
        ))
    }
}

/// A deep copy of a directory image (clones of a `MemDir` share storage).
fn copy_dir(src: &MemDir) -> Result<MemDir, String> {
    let dst = MemDir::new();
    for name in src.list().map_err(|e| e.to_string())? {
        let bytes = src
            .read(&name)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("blob `{name}` vanished"))?;
        dst.replace(&name, &bytes).map_err(|e| e.to_string())?;
    }
    Ok(dst)
}

/// Ingest the first `half` records at the service's cadence into a fresh
/// durable engine and abandon it without `close`.
fn prepare(dataset: &Dataset, half: usize) -> Result<MemDir, String> {
    let disk = MemDir::new();
    let mut engine = DurableResolver::create_with(
        disk.clone(),
        IncrementalResolver::like(dataset, stream_config()),
        DurabilityConfig::default(),
    )
    .map_err(|e| format!("create: {e}"))?;
    let flush_every = ServeConfig::default().flush_every_ops;
    let mut since_flush = 0;
    for batch in dataset.records()[..half].chunks(BATCH) {
        for r in batch {
            engine
                .insert(r.source, r.fields.clone())
                .map_err(|e| format!("prep insert: {e}"))?;
        }
        engine.sync().map_err(|e| format!("prep sync: {e}"))?;
        since_flush += batch.len();
        if since_flush >= flush_every {
            engine
                .regenerate_hits()
                .and_then(|_| engine.sync())
                .map_err(|e| format!("prep flush: {e}"))?;
            since_flush = 0;
        }
    }
    drop(engine);
    Ok(disk)
}

/// The final state of one phase, compared across phases and against
/// the traced replay.
#[derive(PartialEq)]
struct FinalState {
    digest: StateDigest,
    live_hits: usize,
    /// Max F1 of the machine-ranked pair list, as bits.
    max_f1_bits: u64,
}

impl FinalState {
    fn of(resolver: &IncrementalResolver, gold: &GoldStandard) -> Self {
        FinalState {
            digest: digest(resolver, &[]),
            live_hits: resolver.live_hits().len(),
            max_f1_bits: inputs::max_f1(&resolver.ranked_pairs(), gold).to_bits(),
        }
    }
}

/// One untraced phase.
struct Phase {
    setup: f64,
    replayed: usize,
    wall: f64,
    acks_ms: Vec<f64>,
    queries_ms: Vec<f64>,
    late_ms: Vec<f64>,
    depth_max: usize,
    attempted: u64,
    failed: u64,
    state: FinalState,
}

struct QueryLane {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    depth_max: usize,
    failed: u64,
}

/// Open-loop `resolve()` queries every `QUERY_INTERVAL` from `start`
/// until `done`, each about a record below `available`.
fn query_lane<D: Dir + Clone + Send + 'static>(
    service: &ResolverService<D>,
    dataset: &Dataset,
    available: &AtomicUsize,
    done: &AtomicBool,
    start: Instant,
    mut rng: SplitMix,
) -> Result<QueryLane, String> {
    let mut lane = QueryLane {
        latencies_ms: Vec::new(),
        late_ms: Vec::new(),
        depth_max: 0,
        failed: 0,
    };
    for i in 0u32.. {
        let due = start + QUERY_INTERVAL * i;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if done.load(Ordering::Acquire) {
            break;
        }
        let record = rng.below(available.load(Ordering::Acquire));
        let fields = dataset.records()[record].fields.clone();
        lane.late_ms.push(secs(Instant::now() - due) * 1e3);
        lane.depth_max = lane.depth_max.max(service.queue_depth());
        match service.resolve(probe_source(dataset, record), fields) {
            Ok(view) => {
                lane.latencies_ms.push(secs(due.elapsed()) * 1e3);
                check_query(record, &view.matches)?;
            }
            Err(_) => lane.failed += 1,
        }
    }
    Ok(lane)
}

/// The second half as 8-record ingest batches (built outside the clock).
fn second_half_batches(dataset: &Dataset, half: usize) -> Vec<Vec<IngestRecord>> {
    dataset.records()[half..]
        .chunks(BATCH)
        .map(|b| b.iter().map(|r| (r.source, r.fields.clone())).collect())
        .collect()
}

fn untraced_phase(
    dataset: &Dataset,
    image: &MemDir,
    half: usize,
    query_seed: u64,
) -> Result<Phase, String> {
    let dir = copy_dir(image)?;
    let batches = second_half_batches(dataset, half);
    let (recovered, setup) = timed(|| {
        DurableResolver::recover(dir, stream_config(), DurabilityConfig::default()).map(
            |(engine, report)| {
                let service = ResolverService::durable(engine, ServeConfig::default());
                (service, report.replayed)
            },
        )
    });
    let (service, replayed) = recovered.map_err(|e| format!("recover: {e}"))?;

    let available = AtomicUsize::new(half);
    let done = AtomicBool::new(false);
    let mut acks_ms = Vec::with_capacity(batches.len());
    let (mut attempted, mut failed, mut depth_max) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    let (lane, wall) = std::thread::scope(|s| -> Result<(QueryLane, f64), String> {
        let rng = SplitMix::new(query_seed);
        let lane = s.spawn(|| query_lane(&service, dataset, &available, &done, start, rng));
        let produce = || -> Result<(), String> {
            let mut next = half;
            for batch in batches {
                let n = batch.len();
                let submitted = Instant::now();
                depth_max = depth_max.max(service.queue_depth());
                attempted += 1;
                let ticket = match service.try_ingest(batch) {
                    TrySubmit::Accepted(ticket) => ticket,
                    TrySubmit::Full(batch) => {
                        // Refused by backpressure: counted, then sent
                        // blocking so the history stays complete.
                        failed += 1;
                        service.ingest(batch).map_err(|e| format!("ingest: {e}"))?
                    }
                    TrySubmit::Closed(_) => return Err("service closed mid-phase".into()),
                };
                match ticket.wait() {
                    Ok(receipt) => {
                        acks_ms.push(secs(submitted.elapsed()) * 1e3);
                        let expected = (next..next + n).map(|i| RecordId(i as u32));
                        if !receipt.records.iter().copied().eq(expected) {
                            return Err(format!("batch at record {next} got other ids"));
                        }
                    }
                    Err(_) => failed += 1,
                }
                next += n;
                available.store(next, Ordering::Release);
            }
            Ok(())
        };
        let produced = produce();
        let wall = secs(start.elapsed());
        done.store(true, Ordering::Release);
        let lane = lane.join().map_err(|_| "query lane panicked".to_string())?;
        produced?;
        Ok((lane?, wall))
    })?;
    let report = service.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(Phase {
        setup,
        replayed,
        wall,
        acks_ms,
        attempted: attempted + lane.late_ms.len() as u64,
        failed: failed + lane.failed,
        queries_ms: lane.latencies_ms,
        late_ms: lane.late_ms,
        depth_max: depth_max.max(lane.depth_max),
        state: FinalState::of(&report.resolver, &dataset.gold),
    })
}

/// Per-layer samples of one traced replay.
#[derive(Default)]
struct Layers {
    recover: f64,
    replayed: usize,
    insert_us: Vec<f64>,
    candidates: u64,
    sync_us: Vec<f64>,
    /// Insert plus sync time of each batch: the work an ack waits for.
    batch_us: Vec<f64>,
    regen_ms: Vec<f64>,
    checkpoints: usize,
    query_us: Vec<f64>,
    close: f64,
    wall: f64,
}

impl Layers {
    fn covered(&self) -> f64 {
        let sum = |v: &Vec<f64>| v.iter().sum::<f64>();
        self.recover
            + (sum(&self.insert_us) + sum(&self.sync_us) + sum(&self.query_us)) / 1e6
            + sum(&self.regen_ms) / 1e3
            + self.close
    }
}

/// The phase replayed serially through the durable engine's public
/// calls: the service worker's cadence (sync per batch, flush every
/// `flush_every_ops` records), `queries` queries spread evenly over the
/// batches, and the shutdown's final flush and close.
fn traced_replay(
    dataset: &Dataset,
    image: &MemDir,
    half: usize,
    queries: usize,
    query_seed: u64,
) -> Result<(Layers, FinalState), String> {
    let err = |what: &'static str| move |e: crowder_types::Error| format!("{what}: {e}");
    let dir = copy_dir(image)?;
    let batches = second_half_batches(dataset, half);
    let mut rng = SplitMix::new(query_seed);
    let mut l = Layers::default();
    let start = Instant::now();
    let (recovered, t) = timed(|| {
        DurableResolver::recover(dir.clone(), stream_config(), DurabilityConfig::default())
    });
    let (mut engine, report) = recovered.map_err(err("recover"))?;
    l.recover = t;
    l.replayed = report.replayed;

    let flush_every = ServeConfig::default().flush_every_ops;
    let nb = batches.len();
    let (mut since_flush, mut next, mut asked) = (0usize, half, 0usize);
    for (b, batch) in batches.into_iter().enumerate() {
        let n = batch.len();
        let mut batch_us = 0.0;
        for (source, fields) in batch {
            let t = Instant::now();
            let report = engine.insert(source, fields).map_err(err("insert"))?;
            let us = secs(t.elapsed()) * 1e6;
            l.insert_us.push(us);
            l.candidates += report.stats.candidates;
            batch_us += us;
        }
        let t = Instant::now();
        engine.sync().map_err(err("sync"))?;
        let us = secs(t.elapsed()) * 1e6;
        l.sync_us.push(us);
        l.batch_us.push(batch_us + us);
        next += n;
        since_flush += n;
        if since_flush >= flush_every {
            let before = dir.list().map_err(err("list"))?;
            let t = Instant::now();
            engine
                .regenerate_hits()
                .and_then(|_| engine.sync())
                .map_err(err("flush"))?;
            l.regen_ms.push(secs(t.elapsed()) * 1e3);
            // A checkpoint rotates the snapshot, which renames it.
            if dir.list().map_err(err("list"))? != before {
                l.checkpoints += 1;
            }
            since_flush = 0;
        }
        while asked < queries && asked * nb < (b + 1) * queries {
            let record = rng.below(next);
            let (source, fields) = (
                probe_source(dataset, record),
                &dataset.records()[record].fields,
            );
            let t = Instant::now();
            let matches = engine.query(source, fields).map_err(err("query"))?;
            l.query_us.push(secs(t.elapsed()) * 1e6);
            check_query(record, &matches)?;
            asked += 1;
        }
    }
    let t = Instant::now();
    engine
        .regenerate_hits()
        .and_then(|_| engine.sync())
        .map_err(err("final flush"))?;
    let resolver = engine.close().map_err(err("close"))?;
    l.close = secs(t.elapsed());
    l.wall = secs(start.elapsed());
    Ok((l, FinalState::of(&resolver, &dataset.gold)))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dataset = inputs::product_scaled(SCALE, args.seed);
    let half = dataset.len() / 2;
    let (image, t) = timed(|| prepare(&dataset, half));
    let image = image?;
    eprintln!(
        "serve_t03: {} records, first half ingested in {t:.3} s",
        dataset.len()
    );
    // Streaming ≡ batch: the final pairs must equal one batch join over
    // the whole corpus (computed outside the clock).
    let batch_pairs = inputs::pair_set_key(&prefix_join(
        &dataset,
        &TokenTable::build(&dataset),
        THRESHOLD,
        1,
    ));
    let query_seed = inputs::sub_seed(args.seed, inputs::QUERY_STREAM);

    let mut budget = Budget::new(args.seconds, MIN_PHASES);
    let mut phases: Vec<Phase> = Vec::new();
    // The high-water mark of prep plus one phase: later phases only
    // re-run the same work, and how much of their allocator slack
    // stacks on top depends on how many fit in the run.
    let mut peak_rss = f64::NAN;
    let mut traced: Vec<Layers> = Vec::new();
    while budget.another() {
        let phase = untraced_phase(&dataset, &image, half, query_seed)?;
        eprintln!(
            "serve_t03: phase {} set-up {:.3} s, {:.3} s, {} queries",
            phases.len() + 1,
            phase.setup,
            phase.wall,
            phase.queries_ms.len()
        );
        match phases.first() {
            None => {
                peak_rss = peak_rss_mb();
                let mut streamed = phase.state.digest.ranked.clone();
                streamed.sort_unstable();
                if streamed != batch_pairs {
                    return Err(format!(
                        "exactness gate: served pairs ({}) differ from the batch join ({})",
                        streamed.len(),
                        batch_pairs.len()
                    ));
                }
            }
            Some(first) if first.state != phase.state => {
                return Err("exactness gate: final durable digest differs between phases".into())
            }
            Some(_) => {}
        }
        if args.trace {
            let queries = phase.queries_ms.len();
            let (layers, state) = traced_replay(&dataset, &image, half, queries, query_seed)?;
            if state != phase.state {
                return Err(
                    "exactness gate: traced replay's durable digest differs from the service's"
                        .into(),
                );
            }
            eprintln!("serve_t03: traced {:.3} s", layers.wall);
            traced.push(layers);
        }
        phases.push(phase);
    }

    let pooled = |f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        phases.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let acks = pooled(|p| &p.acks_ms);
    let queries = pooled(|p| &p.queries_ms);
    let state = &phases[0].state;
    let mut out = Outcome::new(
        phases.iter().map(|p| p.attempted).sum(),
        phases.iter().map(|p| p.failed).sum(),
    );
    if args.trace {
        let all = |f: fn(&Layers) -> &Vec<f64>| -> Vec<f64> {
            traced.iter().flat_map(|l| f(l).iter().copied()).collect()
        };
        let m = |f: fn(&Layers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let inserts = all(|l| &l.insert_us);
        let regens = all(|l| &l.regen_ms);
        let query_us = median(&all(|l| &l.query_us));
        let l = &traced[0];
        out.set("durable.recover_s", m(|l| l.recover));
        out.set("durable.replayed_ops", l.replayed as f64);
        out.set(
            "stream.insert_s",
            m(|l| l.insert_us.iter().sum::<f64>() / 1e6),
        );
        out.set("stream.insert_us_p50", median(&inserts));
        out.set("stream.insert_us_p99", quantile(&inserts, 0.99));
        out.set(
            "stream.candidates_per_insert",
            l.candidates as f64 / l.insert_us.len() as f64,
        );
        out.set("durable.sync_us_p50", median(&all(|l| &l.sync_us)));
        out.set(
            "stream.regen_s",
            m(|l| l.regen_ms.iter().sum::<f64>() / 1e3),
        );
        out.set("stream.regen_ms_p50", median(&regens));
        out.set("stream.regen_ms_max", max(&regens));
        out.set("durable.checkpoints", l.checkpoints as f64);
        out.set("stream.query_us_p50", query_us);
        out.set("serve.ack_p99_ms", quantile(&acks, 0.99));
        out.set(
            "serve.ack_overhead_us",
            median(&acks) * 1e3 - median(&all(|l| &l.batch_us)),
        );
        out.set("serve.query_p50_ms", median(&queries));
        out.set("serve.query_p99_ms", quantile(&queries, 0.99));
        out.set("serve.query_wait_ms", median(&queries) - query_us / 1e3);
        out.set("serve.generator_late_ms", max(&pooled(|p| &p.late_ms)));
        out.set(
            "serve.queue_depth_max",
            phases.iter().map(|p| p.depth_max).max().unwrap_or(0) as f64,
        );
        out.set("trace.coverage", m(|l| l.covered() / l.wall));
        let untraced = median(&phases.iter().map(|p| p.setup + p.wall).collect::<Vec<_>>());
        out.set("trace.overhead", m(|l| l.wall) / untraced);
        out.set("error_rate", out.error_rate());
    } else {
        let crowd = CrowdConfig::default();
        let rates: Vec<f64> = phases
            .iter()
            .map(|p| (dataset.len() - half) as f64 / p.wall)
            .collect();
        out.set(
            "setup_s",
            median(&phases.iter().map(|p| p.setup).collect::<Vec<_>>()),
        );
        out.set("records_per_s", median(&rates));
        out.set("ack_p50_ms", median(&acks));
        out.set("hits", state.live_hits as f64);
        out.set(
            "crowd_cost_usd",
            (state.live_hits * crowd.assignments_per_hit) as f64
                * (crowd.reward_per_assignment + crowd.fee_per_assignment),
        );
        out.set("max_f1", f64::from_bits(state.max_f1_bits));
        out.set("peak_rss_mb", peak_rss);
    }
    eprintln!(
        "serve_t03: {} phases, {} WAL ops replayed at set-up",
        phases.len(),
        phases[0].replayed
    );
    Ok(out)
}
