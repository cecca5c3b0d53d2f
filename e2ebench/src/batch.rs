//! `batch_t02`: the paper's own job (§7.3) — Product ×8 through
//! `run_hybrid` at t = 0.2 with two-tiered cluster HITs (k = 10), three
//! assignments and Dawid–Skene aggregation, on one similarity thread.
//!
//! End-to-end: repeated `run_hybrid` passes for the run's duration.
//! Traced: the same four stages called one public function at a time
//! (`TokenTable::build`, `prefix_join_with_stats`,
//! `TwoTieredGenerator::generate`, `simulate`, `DawidSkene::run`),
//! alternated with untraced passes so `trace.overhead` compares
//! neighbours.

use crate::inputs::{self, Fingerprint};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, timed, Budget};
use crate::Args;
use crowder_aggregate::{DawidSkene, Vote};
use crowder_core::{run_hybrid, Aggregation, HitStrategy, HybridConfig};
use crowder_crowd::{simulate, CrowdConfig, WorkerPopulation};
use crowder_hitgen::{
    validate_cluster_hits, ClusterGenerator, TwoTieredConfig, TwoTieredGenerator,
};
use crowder_simjoin::{prefix_join_with_stats, TokenTable};
use crowder_types::{Dataset, Pair};
use std::time::Instant;

const SCALE: usize = 8;
const THRESHOLD: f64 = 0.2;
const CLUSTER_SIZE: usize = 10;
const SETUP_REPS_PER_PASS: usize = 3;
const MIN_PASSES: usize = 3;

fn config(seed: u64) -> HybridConfig {
    HybridConfig {
        likelihood_threshold: THRESHOLD,
        cluster_size: CLUSTER_SIZE,
        strategy: HitStrategy::ClusterBased {
            config: TwoTieredConfig::default(),
        },
        crowd: CrowdConfig {
            seed: inputs::sub_seed(seed, inputs::CROWD_STREAM),
            ..CrowdConfig::default()
        },
        aggregation: Aggregation::DawidSkene,
        similarity_threads: 1,
    }
}

/// One untraced `run_hybrid` pass: wall seconds and fingerprint.
fn untraced_pass(
    dataset: &Dataset,
    population: &WorkerPopulation,
    config: &HybridConfig,
    check: bool,
) -> Result<(f64, Fingerprint), String> {
    let (out, wall) = timed(|| run_hybrid(dataset, population, config));
    let out = out.map_err(|e| format!("run_hybrid: {e}"))?;
    if check {
        // Output validity, checked once per run outside the clock:
        // every surviving pair clears the threshold and is covered by a
        // HIT of at most k records, every HIT got its assignments, and
        // every surviving pair got a crowd posterior.
        let pairs: Vec<Pair> = out.candidate_pairs.iter().map(|sp| sp.pair).collect();
        if out
            .candidate_pairs
            .iter()
            .any(|sp| sp.likelihood < THRESHOLD)
        {
            return Err("a surviving pair is below the threshold".into());
        }
        validate_cluster_hits(&out.hits, &pairs, CLUSTER_SIZE)
            .map_err(|e| format!("HIT validation: {e}"))?;
        if out.sim.assignments.len() != out.hits.len() * config.crowd.assignments_per_hit {
            return Err("assignment count is not hits × replication".into());
        }
        let judged: std::collections::HashSet<Pair> = out.ranked.iter().map(|sp| sp.pair).collect();
        if let Some(p) = pairs.iter().find(|p| !judged.contains(p)) {
            return Err(format!("surviving pair {p} has no crowd posterior"));
        }
    }
    let fp = Fingerprint::new(
        out.candidate_pairs.len(),
        out.hits.len(),
        out.sim.cost_dollars,
        &out.ranked,
        &dataset.gold,
    );
    Ok((wall, fp))
}

/// Per-layer times of one traced pass.
#[derive(Default)]
struct Layers {
    tokenize: f64,
    join: f64,
    hitgen: f64,
    simulate: f64,
    ds: f64,
    wall: f64,
    candidates: u64,
    results: u64,
    assignments: usize,
    votes: usize,
    iterations: usize,
}

fn traced_pass(
    dataset: &Dataset,
    population: &WorkerPopulation,
    config: &HybridConfig,
) -> Result<(Layers, Fingerprint), String> {
    let start = Instant::now();
    let mut l = Layers::default();
    let (tokens, t) = timed(|| TokenTable::build(dataset));
    l.tokenize = t;
    let ((scored, stats), t) = timed(|| prefix_join_with_stats(dataset, &tokens, THRESHOLD, 1));
    l.join = t;
    let pairs: Vec<Pair> = scored.iter().map(|sp| sp.pair).collect();
    let HitStrategy::ClusterBased { config: two_tiered } = &config.strategy else {
        unreachable!("batch_t02 uses cluster HITs")
    };
    let generator = TwoTieredGenerator::with_config(two_tiered.clone());
    let (hits, t) = timed(|| generator.generate(&pairs, config.cluster_size));
    l.hitgen = t;
    let hits = hits.map_err(|e| format!("hitgen: {e}"))?;
    let (sim, t) = timed(|| simulate(&hits, &dataset.gold, population, &config.crowd));
    l.simulate = t;
    let sim = sim.map_err(|e| format!("simulate: {e}"))?;
    let votes: Vec<Vote> = sim
        .labeled_triples()
        .into_iter()
        .map(|(pair, worker, verdict)| (pair, worker.0 as usize, verdict))
        .collect();
    let (aggregated, t) = timed(|| DawidSkene::default().run(&votes));
    l.ds = t;
    let aggregated = aggregated.map_err(|e| format!("Dawid–Skene: {e}"))?;
    l.wall = start.elapsed().as_secs_f64();
    l.candidates = stats.candidates;
    l.results = stats.results;
    l.assignments = sim.assignments.len();
    l.votes = votes.len();
    l.iterations = aggregated.iterations;
    let fp = Fingerprint::new(
        scored.len(),
        hits.len(),
        sim.cost_dollars,
        &aggregated.ranked,
        &dataset.gold,
    );
    Ok((l, fp))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Set-up: building the inputs (the Product corpus and the worker
    // pool) — the program work a user pays before the first job.
    let build = || {
        (
            inputs::product_scaled(SCALE, args.seed),
            inputs::population(args.seed),
        )
    };
    let ((dataset, population), first) = timed(build);
    let mut setup = vec![first];
    let config = config(args.seed);
    eprintln!(
        "batch_t02: {} records, inputs built in {first:.3} s",
        dataset.len()
    );

    let mut budget = Budget::new(args.seconds, MIN_PASSES);
    let mut reference: Option<Fingerprint> = None;
    let mut walls = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    while budget.another() {
        inputs::sample_setup(SETUP_REPS_PER_PASS, build, &mut setup);
        let (wall, fp) = untraced_pass(&dataset, &population, &config, reference.is_none())?;
        match &reference {
            None => reference = Some(fp),
            Some(r) => r.expect_same(&fp, "run_hybrid passes")?,
        }
        walls.push(wall);
        eprintln!("batch_t02: pass {} {:.3} s", walls.len(), wall);
        if args.trace {
            let (layers, fp) = traced_pass(&dataset, &population, &config)?;
            reference
                .as_ref()
                .expect("untraced pass ran first")
                .expect_same(&fp, "traced and untraced outputs")?;
            eprintln!("batch_t02: traced {:.3} s", layers.wall);
            traced.push(layers);
        }
    }
    let fp = reference.expect("at least one pass");

    let mut out = Outcome::new(walls.len() as u64, 0);
    if args.trace {
        let m = |f: fn(&Layers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let l = &traced[0];
        out.attempted += traced.len() as u64;
        out.set("simjoin.tokenize_s", m(|l| l.tokenize));
        out.set("simjoin.join_s", m(|l| l.join));
        out.set("simjoin.candidates", l.candidates as f64);
        out.set("simjoin.results", l.results as f64);
        out.set(
            "simjoin.yield",
            l.results as f64 / l.candidates.max(1) as f64,
        );
        out.set("hitgen.generate_s", m(|l| l.hitgen));
        out.set("crowd.simulate_s", m(|l| l.simulate));
        out.set("crowd.assignments", l.assignments as f64);
        out.set("aggregate.ds_s", m(|l| l.ds));
        out.set("aggregate.ds_iterations", l.iterations as f64);
        out.set("aggregate.votes", l.votes as f64);
        out.set(
            "trace.coverage",
            m(|l| (l.tokenize + l.join + l.hitgen + l.simulate + l.ds) / l.wall),
        );
        out.set("trace.overhead", m(|l| l.wall) / median(&walls));
        out.set("error_rate", out.error_rate());
    } else {
        let pass = median(&walls);
        out.set("setup_s", median(&setup));
        out.set("records_per_s", dataset.len() as f64 / pass);
        out.set("ack_p50_ms", pass * 1e3);
        out.set("hits", fp.hits as f64);
        out.set("crowd_cost_usd", fp.cost());
        out.set("max_f1", fp.max_f1());
        out.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(out)
}
