//! `rounds_t02`: the crowd-in-the-loop streaming workflow — Product ×2
//! through `run_streaming` at t = 0.2 with `StreamingConfig` defaults
//! (64 arrivals per round, a crowd session per round, Dawid–Skene
//! weighted evidence).
//!
//! A pass streams [`STREAMS`] independent corpora, each with its own
//! crowd, one `run_streaming` job apiece.
//!
//! End-to-end: repeated passes. Traced: a replay of
//! `run_streaming`'s round loop through the resolver's, the crowd's and
//! the aggregator's public calls, timing each. The replay must match
//! `run_streaming` exactly (ranked list, spend, HITs published, and the
//! resolver's state digest) or the run fails, since its layer times
//! would not describe the workflow.

use crate::inputs::{self, Fingerprint};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{max, median, quantile, secs, timed, Budget};
use crate::Args;
use crowder_aggregate::{DawidSkene, Vote};
use crowder_core::{run_streaming, Aggregation, StreamingConfig};
use crowder_crowd::{
    labeled_triples_of, simulate_session, AssignmentRecord, CrowdConfig, SessionState,
    WorkerPopulation,
};
use crowder_durable::{digest, StateDigest};
use crowder_hitgen::Hit;
use crowder_simjoin::{prefix_join, TokenTable};
use crowder_stream::{vote_weight, IncrementalResolver, StreamConfig};
use crowder_types::Dataset;
use std::collections::HashMap;
use std::time::Instant;

const SCALE: usize = 2;
const SETUP_REPS_PER_PASS: usize = 3;
const MIN_PASSES: usize = 2;

/// Independent corpora streamed per pass. A stream's cost is mostly
/// Dawid–Skene EM, and how fast EM converges depends on the corpus and
/// crowd: over seeds 1–16 one stream's weight refreshes took 50–76 M
/// vote-iterations, a quartile spread of 15% of the median. Four
/// streams per pass average that out of the run's figures.
const STREAMS: u64 = 4;

fn config(seed: u64) -> StreamingConfig {
    let config = StreamingConfig {
        crowd: CrowdConfig {
            seed: inputs::sub_seed(seed, inputs::CROWD_STREAM),
            ..CrowdConfig::default()
        },
        ..StreamingConfig::default()
    };
    // The replay below mirrors the fault-free, in-memory, Dawid–Skene
    // path of the workflow only.
    assert!(config.faults.is_empty() && config.durability.is_none());
    assert_eq!(config.aggregation, Aggregation::DawidSkene);
    config
}

/// Outputs compared between passes and against the replay.
#[derive(PartialEq)]
struct RoundsOutput {
    fingerprint: Fingerprint,
    digest: StateDigest,
    assignments: usize,
    edges_decommitted: usize,
    cluster_splits: usize,
}

fn untraced_pass(
    dataset: &Dataset,
    population: &WorkerPopulation,
    config: &StreamingConfig,
) -> Result<(f64, RoundsOutput), String> {
    let (out, wall) = timed(|| run_streaming(dataset, population, config));
    let out = out.map_err(|e| format!("run_streaming: {e}"))?;
    let published: usize =
        out.rounds.iter().map(|r| r.hits_created).sum::<usize>() + out.final_hits_created;
    let output = RoundsOutput {
        fingerprint: Fingerprint::new(
            out.resolver.pairs().len(),
            published,
            out.total_cost_dollars,
            &out.ranked,
            &dataset.gold,
        ),
        digest: digest(&out.resolver, &[]),
        assignments: out.total_assignments,
        edges_decommitted: out.rounds.iter().map(|r| r.edges_decommitted).sum(),
        cluster_splits: out.rounds.iter().map(|r| r.cluster_splits).sum(),
    };
    Ok((wall, output))
}

/// Per-layer samples of one traced replay.
#[derive(Default)]
struct Layers {
    insert_us: Vec<f64>,
    regen_ms: Vec<f64>,
    session: f64,
    weights: f64,
    evidence: f64,
    ds: f64,
    wall: f64,
    candidates: u64,
    votes: usize,
    iterations: usize,
    weights_iterations: usize,
}

impl Layers {
    /// Add another stream's replay to this pass's totals.
    fn absorb(&mut self, other: Layers) {
        self.insert_us.extend(other.insert_us);
        self.regen_ms.extend(other.regen_ms);
        self.session += other.session;
        self.weights += other.weights;
        self.evidence += other.evidence;
        self.ds += other.ds;
        self.wall += other.wall;
        self.candidates += other.candidates;
        self.votes += other.votes;
        self.iterations += other.iterations;
        self.weights_iterations += other.weights_iterations;
    }

    fn insert_s(&self) -> f64 {
        self.insert_us.iter().sum::<f64>() / 1e6
    }

    fn regen_s(&self) -> f64 {
        self.regen_ms.iter().sum::<f64>() / 1e3
    }

    fn covered(&self) -> f64 {
        self.insert_s() + self.regen_s() + self.session + self.weights + self.evidence + self.ds
    }
}

/// Per-worker evidence weights from the votes so far (the workflow's
/// Dawid–Skene weighting: Youden's J of each worker's estimate), and the
/// EM iterations it took.
fn worker_weights(votes: &[Vote]) -> Result<(HashMap<usize, f64>, usize), String> {
    if votes.is_empty() {
        return Ok((HashMap::new(), 0));
    }
    let outcome = DawidSkene::default()
        .run(votes)
        .map_err(|e| format!("Dawid–Skene weights: {e}"))?;
    let weights = outcome
        .worker_quality
        .iter()
        .map(|(&w, q)| (w, vote_weight(q.sensitivity, q.specificity)))
        .collect();
    Ok((weights, outcome.iterations))
}

/// `run_streaming`'s round loop, one public call at a time.
fn traced_replay(
    dataset: &Dataset,
    population: &WorkerPopulation,
    config: &StreamingConfig,
) -> Result<(Layers, RoundsOutput), String> {
    let err = |what: &'static str| move |e: crowder_types::Error| format!("{what}: {e}");
    let start = Instant::now();
    let mut l = Layers::default();
    let mut resolver = IncrementalResolver::like(
        dataset,
        StreamConfig {
            threshold: config.likelihood_threshold,
            cluster_size: config.cluster_size,
            two_tiered: config.two_tiered.clone(),
            rebuild_min_interval: config.rebuild_min_interval,
            evidence: config.evidence,
            layout: config.index_layout,
        },
    );
    *resolver.gold_mut() = dataset.gold.clone();
    let mut votes: Vec<Vote> = Vec::new();
    let mut history = SessionState::new();
    let mut pending: Vec<AssignmentRecord> = Vec::new();
    let per_assignment = config.crowd.reward_per_assignment + config.crowd.fee_per_assignment;
    let (mut total_cost, mut total_assignments, mut published) = (0.0, 0usize, 0usize);
    let (mut decommitted, mut splits) = (0usize, 0usize);

    for (round, chunk) in dataset.records().chunks(config.batch_size).enumerate() {
        let carried: Vec<AssignmentRecord> = std::mem::take(&mut pending);
        let carried_cost = carried.len() as f64 * per_assignment;
        for record in chunk {
            let t = Instant::now();
            let report = resolver
                .insert(record.source, record.fields.clone())
                .map_err(err("insert"))?;
            l.insert_us.push(secs(t.elapsed()) * 1e6);
            l.candidates += report.stats.candidates;
        }
        let t = Instant::now();
        let delta = resolver.regenerate_hits().map_err(err("regenerate_hits"))?;
        let fresh: Vec<Hit> = delta
            .created
            .iter()
            .map(|&id| {
                resolver
                    .live_hits()
                    .get(id)
                    .expect("created ids are live")
                    .clone()
            })
            .collect();
        l.regen_ms.push(secs(t.elapsed()) * 1e3);
        published += delta.created.len();

        let crowd = CrowdConfig {
            seed: config.crowd.seed.wrapping_add(round as u64),
            ..config.crowd.clone()
        };
        let (sim, t) =
            timed(|| simulate_session(&fresh, &dataset.gold, population, &crowd, &mut history));
        l.session += t;
        let sim = sim.map_err(err("simulate_session"))?;
        pending = sim.in_flight.clone();

        let mut triples = labeled_triples_of(&carried);
        triples.extend(sim.labeled_triples());
        votes.extend(triples.iter().map(|&(p, w, v)| (p, w.0 as usize, v)));
        let (weights, t) = timed(|| worker_weights(&votes));
        l.weights += t;
        let (weights, iterations) = weights?;
        l.weights_iterations += iterations;
        let t = Instant::now();
        for &(pair, worker, verdict) in &triples {
            let weight = weights.get(&(worker.0 as usize)).copied().unwrap_or(1.0);
            let report = resolver.record_evidence(pair, verdict, weight);
            decommitted += report.decommitted as usize;
            splits += report.split as usize;
        }
        l.evidence += secs(t.elapsed());
        total_cost += sim.cost_dollars + carried_cost;
        total_assignments += sim.assignments.len() + carried.len();
    }

    // The workflow's final flush: deliver still-pending work, then
    // regenerate what the last round's evidence touched.
    if !pending.is_empty() {
        let carried = std::mem::take(&mut pending);
        total_cost += carried.len() as f64 * per_assignment;
        total_assignments += carried.len();
        let triples = labeled_triples_of(&carried);
        votes.extend(triples.iter().map(|&(p, w, v)| (p, w.0 as usize, v)));
        let (weights, t) = timed(|| worker_weights(&votes));
        l.weights += t;
        let (weights, iterations) = weights?;
        l.weights_iterations += iterations;
        let t = Instant::now();
        for &(pair, worker, verdict) in &triples {
            let weight = weights.get(&(worker.0 as usize)).copied().unwrap_or(1.0);
            resolver.record_evidence(pair, verdict, weight);
        }
        l.evidence += secs(t.elapsed());
    }
    let t = Instant::now();
    let final_delta = resolver.regenerate_hits().map_err(err("regenerate_hits"))?;
    l.regen_ms.push(secs(t.elapsed()) * 1e3);
    published += final_delta.created.len();

    let (aggregated, t) = timed(|| DawidSkene::default().run(&votes));
    l.ds = t;
    let aggregated = aggregated.map_err(err("Dawid–Skene"))?;
    l.wall = secs(start.elapsed());
    l.votes = votes.len();
    l.iterations = aggregated.iterations;

    let output = RoundsOutput {
        fingerprint: Fingerprint::new(
            resolver.pairs().len(),
            published,
            total_cost,
            &aggregated.ranked,
            &dataset.gold,
        ),
        digest: digest(&resolver, &[]),
        assignments: total_assignments,
        edges_decommitted: decommitted,
        cluster_splits: splits,
    };
    Ok((l, output))
}

/// One corpus of the pass, with its crowd and the batch join that its
/// final streamed pairs must equal.
struct Stream {
    dataset: Dataset,
    population: WorkerPopulation,
    config: StreamingConfig,
    batch_pairs: Vec<(u32, u32, u64)>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seeds: Vec<u64> = (0..STREAMS)
        .map(|k| inputs::sub_seed(args.seed, inputs::ROUNDS_STREAMS + k))
        .collect();
    // Set-up: building the inputs (the Product corpora and their worker
    // pools) — the program work a user pays before the first job.
    let build = || {
        seeds
            .iter()
            .map(|&s| (inputs::product_scaled(SCALE, s), inputs::population(s)))
            .collect::<Vec<_>>()
    };
    let (built, first) = timed(build);
    let mut setup = vec![first];
    // Streaming ≡ batch: each stream's final machine pairs must equal one
    // batch join over its whole corpus (computed outside the clock).
    let streams: Vec<Stream> = built
        .into_iter()
        .zip(&seeds)
        .map(|((dataset, population), &seed)| {
            let config = config(seed);
            let batch_pairs = inputs::pair_set_key(&prefix_join(
                &dataset,
                &TokenTable::build(&dataset),
                config.likelihood_threshold,
                1,
            ));
            Stream {
                dataset,
                population,
                config,
                batch_pairs,
            }
        })
        .collect();
    let records: usize = streams.iter().map(|s| s.dataset.len()).sum();
    eprintln!("rounds_t02: {STREAMS} streams, {records} records, inputs built in {first:.3} s");

    let mut budget = Budget::new(args.seconds, MIN_PASSES);
    let mut reference: Option<Vec<RoundsOutput>> = None;
    let mut walls = Vec::new();
    let mut jobs = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    while budget.another() {
        inputs::sample_setup(SETUP_REPS_PER_PASS, build, &mut setup);
        let mut outputs = Vec::with_capacity(streams.len());
        for s in &streams {
            let (wall, output) = untraced_pass(&s.dataset, &s.population, &s.config)?;
            jobs.push(wall);
            outputs.push(output);
        }
        let pass: f64 = jobs[jobs.len() - streams.len()..].iter().sum();
        match &reference {
            None => {
                for (s, output) in streams.iter().zip(&outputs) {
                    let mut streamed = output.digest.ranked.clone();
                    streamed.sort_unstable();
                    if streamed != s.batch_pairs {
                        return Err(format!(
                            "exactness gate: streamed pairs ({}) differ from the batch join ({})",
                            streamed.len(),
                            s.batch_pairs.len()
                        ));
                    }
                }
                reference = Some(outputs);
            }
            Some(r) => {
                for (a, b) in r.iter().zip(&outputs) {
                    expect_same(a, b, "run_streaming passes")?;
                }
            }
        }
        walls.push(pass);
        eprintln!("rounds_t02: pass {} {:.3} s", walls.len(), pass);
        if args.trace {
            let reference = reference.as_ref().expect("untraced pass ran first");
            let mut layers = Layers::default();
            for (s, r) in streams.iter().zip(reference) {
                let (l, output) = traced_replay(&s.dataset, &s.population, &s.config)?;
                expect_same(r, &output, "replayed and run_streaming outputs")?;
                layers.absorb(l);
            }
            eprintln!("rounds_t02: traced {:.3} s", layers.wall);
            traced.push(layers);
        }
    }
    let reference = reference.expect("at least one pass");
    let total = |f: fn(&RoundsOutput) -> usize| reference.iter().map(f).sum::<usize>() as f64;

    let mut out = Outcome::new(jobs.len() as u64, 0);
    if args.trace {
        let m = |f: fn(&Layers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let inserts: Vec<f64> = traced.iter().flat_map(|l| l.insert_us.clone()).collect();
        let regens: Vec<f64> = traced.iter().flat_map(|l| l.regen_ms.clone()).collect();
        let l = &traced[0];
        out.attempted += (traced.len() * streams.len()) as u64;
        out.set("stream.insert_s", m(Layers::insert_s));
        out.set("stream.insert_us_p50", median(&inserts));
        out.set("stream.insert_us_p99", quantile(&inserts, 0.99));
        out.set(
            "stream.candidates_per_insert",
            l.candidates as f64 / l.insert_us.len() as f64,
        );
        out.set("stream.regen_s", m(Layers::regen_s));
        out.set("stream.regen_ms_p50", median(&regens));
        out.set("stream.regen_ms_max", max(&regens));
        out.set("stream.evidence_s", m(|l| l.evidence));
        out.set("stream.edges_decommitted", total(|r| r.edges_decommitted));
        out.set("stream.cluster_splits", total(|r| r.cluster_splits));
        out.set("crowd.session_s", m(|l| l.session));
        out.set("crowd.assignments", total(|r| r.assignments));
        out.set("aggregate.weights_s", m(|l| l.weights));
        out.set("aggregate.weights_iterations", l.weights_iterations as f64);
        out.set("aggregate.ds_s", m(|l| l.ds));
        out.set("aggregate.ds_iterations", l.iterations as f64);
        out.set("aggregate.votes", l.votes as f64);
        out.set("trace.coverage", m(|l| l.covered() / l.wall));
        out.set("trace.overhead", m(|l| l.wall) / median(&walls));
        out.set("error_rate", out.error_rate());
    } else {
        let f1s: Vec<f64> = reference.iter().map(|r| r.fingerprint.max_f1()).collect();
        out.set("setup_s", median(&setup));
        out.set("records_per_s", records as f64 / median(&walls));
        out.set("ack_p50_ms", median(&jobs) * 1e3);
        out.set("hits", total(|r| r.fingerprint.hits));
        out.set(
            "crowd_cost_usd",
            reference.iter().map(|r| r.fingerprint.cost()).sum(),
        );
        out.set("max_f1", f1s.iter().sum::<f64>() / f1s.len() as f64);
        out.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(out)
}

fn expect_same(a: &RoundsOutput, b: &RoundsOutput, what: &str) -> Result<(), String> {
    a.fingerprint.expect_same(&b.fingerprint, what)?;
    if a != b {
        return Err(format!(
            "exactness gate: {what} differ (resolver digest {}, assignments {} vs {}, \
             decommits {} vs {}, splits {} vs {})",
            if a.digest == b.digest {
                "equal"
            } else {
                "differs"
            },
            a.assignments,
            b.assignments,
            a.edges_decommitted,
            b.edges_decommitted,
            a.cluster_splits,
            b.cluster_splits
        ));
    }
    Ok(())
}
