//! Batch funnel pins: every [`JoinStats`] bucket of
//! `prefix_join_with_stats` on the deterministic Product corpus, at the
//! three thresholds the `bench_simjoin` report times, single-threaded
//! and at the available parallelism.
//!
//! The funnel counts pairs, not work order, so it is a pure function of
//! the corpus and the threshold: the thread count must not move a
//! single bucket, and neither may a change to how the probe walks its
//! posting table. Any drift in the adaptive level choice, the
//! truncation cutoffs, the signature check or the suffix filter shows
//! up here first.

use crowder_datagen::{product, ProductConfig};
use crowder_simjoin::{prefix_join_with_stats, JoinStats, TokenTable};

/// `(threshold, funnel)` pins, measured on Product before the batch
/// and stream probes were merged into one kernel.
const PINS: [(f64, JoinStats); 3] = [
    (
        0.3,
        JoinStats {
            candidates: 6_513,
            positional_pruned: 199,
            space_pruned: 3_332,
            signature_rejected: 1_452,
            suffix_pruned: 99,
            verified: 1_431,
            results: 1_425,
        },
    ),
    (
        0.5,
        JoinStats {
            candidates: 2_292,
            positional_pruned: 265,
            space_pruned: 1_078,
            signature_rejected: 634,
            suffix_pruned: 6,
            verified: 309,
            results: 302,
        },
    ),
    (
        0.7,
        JoinStats {
            candidates: 768,
            positional_pruned: 187,
            space_pruned: 198,
            signature_rejected: 376,
            suffix_pruned: 1,
            verified: 6,
            results: 5,
        },
    ),
];

#[test]
fn product_batch_funnel_is_pinned_at_every_bench_threshold() {
    let dataset = product(&ProductConfig::default());
    let tokens = TokenTable::build(&dataset);
    for (threshold, pinned) in PINS {
        for threads in [1, 0] {
            let (pairs, stats) = prefix_join_with_stats(&dataset, &tokens, threshold, threads);
            assert_eq!(
                stats, pinned,
                "t = {threshold}, threads = {threads}: funnel diverged"
            );
            assert_eq!(
                pairs.len() as u64,
                pinned.results,
                "t = {threshold}, threads = {threads}: result count diverged"
            );
        }
    }
}
