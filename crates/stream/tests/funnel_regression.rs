//! Funnel regression for the delta index's probe pipeline.
//!
//! PR 7 replaced the per-candidate length comparison with the binary-
//! searched skip over length-bucketed posting lists (out-of-window
//! records never reach the candidate stage). The adaptive-prefix tier
//! goes further: a per-probe count-filter level picked from live
//! posting mass, last-token truncation (candidates that cannot survive
//! the positional filter are never surfaced), and a 256-bit band-
//! signature reject between the space and suffix filters.
//!
//! The pins below are measured on the deterministic Product corpus.
//! History of the candidate stage at t = 0.3:
//!
//! * pre-PR-7 per-candidate length check: 411,175 candidates counted
//!   (out-of-window enumerations included);
//! * PR 7 length-bucketed skip: 411,175 still — the t = 0.3 window is
//!   too wide to bite on this corpus;
//! * adaptive tier (this revision): **16,037** — the count filter and
//!   truncation kill ~25x of the old candidate stage before any
//!   per-pair work, with the result set bit-identical (1,425 pairs).

use crowder_datagen::{product, ProductConfig};
use crowder_simjoin::JoinStats;
use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{PairSpace, SourceId};

/// Stream the full Product corpus at `threshold`, returning the
/// cumulative probe funnel and the final pair count.
fn stream_product(threshold: f64) -> (JoinStats, usize) {
    let dataset = product(&ProductConfig::default());
    let mut resolver = IncrementalResolver::like(
        &dataset,
        StreamConfig {
            threshold,
            ..StreamConfig::default()
        },
    );
    let mut stats = JoinStats::default();
    for record in dataset.records() {
        let report = resolver
            .insert(record.source, record.fields.clone())
            .expect("schema matches");
        stats.absorb(&report.stats);
    }
    let pairs = resolver.ranked_pairs().len();
    (stats, pairs)
}

/// t = 0.3 — the `BENCH_stream.json` configuration, pinned exactly:
/// every funnel bucket is deterministic on the generated corpus, so any
/// drift in the adaptive level choice, the truncation cutoffs, or the
/// signature check shows up here before it shows up as a perf
/// surprise. The result set must stay bit-identical to the pre-tier
/// engine (1,425 pairs).
#[test]
fn product_funnel_is_pinned_at_the_bench_threshold() {
    let (stats, pairs) = stream_product(0.3);
    assert_eq!(stats.candidates, 16_037, "candidate stage diverged");
    assert_eq!(stats.positional_pruned, 2_010, "positional stage diverged");
    assert_eq!(stats.space_pruned, 8_148, "space stage diverged");
    assert_eq!(stats.signature_rejected, 4_314, "signature stage diverged");
    assert_eq!(stats.suffix_pruned, 129, "suffix stage diverged");
    assert_eq!(stats.verified, 1_436, "verify stage diverged");
    assert_eq!(pairs, 1_425, "result set diverged");
}

/// The headline regression gate, mirrored from the `BENCH_simjoin.json`
/// validator: the adaptive tier must keep the t = 0.3 candidate stage
/// at least ~3x below the ~200k/411k the plain prefix filter admitted
/// (batch/stream respectively). A hard ceiling rather than an exact pin
/// so estimator retuning has headroom without losing the gate.
#[test]
fn product_candidates_stay_under_the_enforced_ceiling() {
    let (stats, pairs) = stream_product(0.3);
    assert!(
        stats.candidates <= 65_000,
        "adaptive tier regressed: {} candidates > 65k ceiling",
        stats.candidates
    );
    assert_eq!(pairs, 1_425, "result set diverged");
}

/// t = 0.6 — the length window and truncation both bite. The pre-tier
/// length-bucketed walk surfaced 68,383 candidates; the adaptive tier
/// cuts that to 3,725 with identical results.
#[test]
fn tight_threshold_funnel_is_pinned() {
    const PRE_TIER_CANDIDATES: u64 = 68_383;
    let (stats, pairs) = stream_product(0.6);
    assert!(
        stats.candidates < PRE_TIER_CANDIDATES,
        "adaptive tier regressed: {} candidates, expected strictly fewer than {}",
        stats.candidates,
        PRE_TIER_CANDIDATES
    );
    assert_eq!(stats.candidates, 3_725, "candidate stage diverged");
    assert_eq!(stats.signature_rejected, 961, "signature stage diverged");
    assert_eq!(stats.verified, 94, "verify stage diverged");
    assert_eq!(pairs, 88, "result set diverged");
}

/// Degenerate thresholds through the adaptive paths, under every
/// posting layout the epoch cadence produces (re-ranking every few
/// arrivals, or never): t > 1 joins nothing and counts nothing; t ≤ 0
/// degrades to the exhaustive scorer (every live pair verified, no
/// filter buckets); t = 1.0 keeps only exact-duplicate token sets.
/// One-token and empty records ride along — their extended windows
/// clamp to the record length, and the count-filter cap ⌈t·lx⌉ pins
/// them to level 1.
#[test]
fn degenerate_thresholds_and_tiny_records_survive_every_layout() {
    let names = ["a", "", "a", "a b c d", "a b c d", "b", "---", "a b c e"];
    for rebuild in [1, 256] {
        let run = |threshold: f64| -> (JoinStats, usize) {
            let mut resolver = IncrementalResolver::new(
                "t",
                vec!["name".into()],
                PairSpace::SelfJoin,
                StreamConfig {
                    threshold,
                    rebuild_min_interval: rebuild,
                    ..StreamConfig::default()
                },
            );
            let mut stats = JoinStats::default();
            for name in names {
                let report = resolver
                    .insert(SourceId(0), vec![name.to_string()])
                    .expect("schema matches");
                stats.absorb(&report.stats);
            }
            (stats, resolver.ranked_pairs().len())
        };
        let (stats, pairs) = run(1.5);
        assert_eq!(pairs, 0, "cadence {rebuild}: t > 1 must join nothing");
        assert_eq!(stats, JoinStats::default(), "cadence {rebuild}");
        let (stats, pairs) = run(1.0);
        // Exactly the duplicate pairs: (0,2) "a" and (3,4) "a b c d".
        assert_eq!(
            pairs, 2,
            "cadence {rebuild}: t = 1.0 keeps exact duplicates"
        );
        assert_eq!(stats.results, 2, "cadence {rebuild}");
        let (stats, pairs) = run(0.0);
        // Exhaustive: every unordered live pair scored and verified.
        let n = names.len() as u64;
        assert_eq!(stats.verified, n * (n - 1) / 2, "cadence {rebuild}");
        assert_eq!(pairs as u64, n * (n - 1) / 2, "cadence {rebuild}");
        let (stats, pairs) = run(-0.5);
        assert_eq!(stats.verified, n * (n - 1) / 2, "cadence {rebuild}");
        assert_eq!(pairs as u64, n * (n - 1) / 2, "cadence {rebuild}");
        let (stats, pairs) = run(0.5);
        // The filtered path with 1-token and empty records in the mix:
        // "a"≡"a", "a b c d"≡"a b c d", "a b c d"~"a b c e" (x2).
        assert_eq!(pairs, 4, "cadence {rebuild}: filtered path");
        assert_eq!(
            stats.candidates,
            stats.positional_pruned
                + stats.space_pruned
                + stats.signature_rejected
                + stats.suffix_pruned
                + stats.verified,
            "cadence {rebuild}: funnel leaks"
        );
    }
}
