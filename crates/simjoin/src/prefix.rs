//! The batch PPJoin+ join: a bulk-built [`PostingTable`] plus one probe
//! per record, both from the shared kernel in [`probe`](crate::probe).
//!
//! The paper's footnote to §2.2 and its related-work pointers ([2, 5,
//! 26]) note that indexing avoids the all-pairs comparison. The join
//! runs Xiao et al.'s PPJoin+ filter pipeline for Jaccard thresholds on
//! the interned, frequency-ordered id lists that [`TokenTable`] builds
//! once per corpus (see the [`probe`](crate::probe) module docs for the
//! filters and the funnel).
//!
//! What makes the batch driver different from the stream's is the
//! order: each record probes only the records before it in ascending
//! `(token count, id)` order, so every pair is generated exactly once
//! and the probing side is the longer one. Indexed records therefore
//! only ever meet longer probes, so the table holds each record's
//! shorter PPJoin *indexing prefix* — the first
//! `|y| − ⌈2t/(1+t)·|y|⌉ + 1` tokens — instead of the probe prefix,
//! which shrinks both the index and the candidate count. Every posting
//! list is ordered by `(len, id)`, so a probe bounded by
//! [`Probe::before`] reads one prefix of each list.
//!
//! The table is built once, sequentially (indexing prefixes only, so it
//! is cheap), and only read afterwards; probing strides the
//! length-sorted records across scoped threads, each with its own
//! [`Scratch`], result buffer and funnel, concatenated and summed in
//! thread order.
//!
//! Output is identical to [`all_pairs_scored`](crate::all_pairs_scored)
//! for the same threshold — a property-tested invariant — and
//! [`prefix_join_with_stats`] reports how many candidates each filter
//! stage discarded.

use crate::allpairs::effective_threads;
use crate::filters::{index_prefix_len, BandSignature};
use crate::probe::{publish_funnel, JoinStats, PostingTable, Probe, Scratch};
use crate::tokens::TokenTable;
use crowder_types::{Dataset, Pair, RecordId, ScoredPair};

pub use crate::filters::SUFFIX_FILTER_DEPTH;

/// Jaccard similarity join via the PPJoin+ filter pipeline (see the
/// module docs). Returns pairs with similarity ≥ `threshold`, sorted by
/// descending likelihood.
///
/// `threads = 0` selects the available parallelism.
///
/// Out-of-range thresholds degrade like
/// [`all_pairs_scored`](crate::all_pairs_scored) instead of being
/// rejected: `threshold ≤ 0` falls back to the exhaustive pass (a zero
/// threshold keeps everything and no filter can help), and
/// `threshold > 1` returns no pairs (Jaccard never exceeds 1).
pub fn prefix_join(
    dataset: &Dataset,
    tokens: &TokenTable,
    threshold: f64,
    threads: usize,
) -> Vec<ScoredPair> {
    prefix_join_with_stats(dataset, tokens, threshold, threads).0
}

/// [`prefix_join`] plus the filter-funnel counters. On the
/// `threshold ≤ 0` fallback path no filters run, so only
/// `verified`/`results` are populated (every candidate pair is verified).
pub fn prefix_join_with_stats(
    dataset: &Dataset,
    tokens: &TokenTable,
    threshold: f64,
    threads: usize,
) -> (Vec<ScoredPair>, JoinStats) {
    let _timer = crowder_obs::span!("simjoin.prefix_join_ns");
    if threshold <= 0.0 {
        let out = crate::allpairs::all_pairs_scored(dataset, tokens, threshold, threads);
        let stats = JoinStats {
            candidates: dataset.candidate_pair_count() as u64,
            verified: dataset.candidate_pair_count() as u64,
            results: out.len() as u64,
            ..JoinStats::default()
        };
        publish_funnel(&stats);
        return (out, stats);
    }
    if threshold > 1.0 {
        // No pair can qualify; the prefix formulas would underflow.
        return (Vec::new(), JoinStats::default());
    }
    let n = dataset.len();
    let docs: Vec<&[u32]> = (0..n).map(|i| tokens.ids(RecordId(i as u32))).collect();
    // Indexing in (len, id) order appends every posting at the end of
    // its list; probing in the same order keeps neighbouring probes on
    // the same stretch of each list.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&x| (docs[x as usize].len(), x));
    let mut table = PostingTable::with_ranks(0..tokens.dict().len() as u32);
    for &x in &order {
        let doc = docs[x as usize];
        if !doc.is_empty() {
            table.insert(x, doc, index_prefix_len(doc.len(), threshold));
        }
    }
    // Ids are dense rarest-first ranks, so the 256 residue classes of
    // the band signatures spread well.
    let sigs: Vec<BandSignature> = docs.iter().map(|d| BandSignature::build(d)).collect();

    let threads = effective_threads(threads).min(n.max(1));
    let locals: Vec<(Vec<ScoredPair>, JoinStats)> = std::thread::scope(|scope| {
        let (table, docs, sigs, order) = (&table, &docs, &sigs, &order);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut stats = JoinStats::default();
                    let mut scratch = Scratch::new(n);
                    for &x in order.iter().skip(t).step_by(threads) {
                        let pair = |y: u32| {
                            Pair::new(RecordId(x), RecordId(y)).expect("probe never yields x")
                        };
                        let probe = Probe {
                            doc: docs[x as usize],
                            sig: &sigs[x as usize],
                            threshold,
                            before: Some(x),
                            docs,
                            sigs,
                        };
                        table.probe(
                            &probe,
                            |_| true,
                            |y| dataset.is_candidate(&pair(y)),
                            &mut scratch,
                            &mut stats,
                            |y, sim| local.push(ScoredPair::new(pair(y), sim)),
                        );
                    }
                    (local, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefix-join workers do not panic"))
            .collect()
    });

    let mut out: Vec<ScoredPair> = Vec::with_capacity(locals.iter().map(|(v, _)| v.len()).sum());
    let mut stats = JoinStats::default();
    for (mut local, local_stats) in locals {
        out.append(&mut local);
        stats.absorb(&local_stats);
    }
    crowder_types::pair::sort_ranked(&mut out);
    publish_funnel(&stats);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allpairs::all_pairs_scored;
    use crate::filters::suffix_hamming_lb;
    use crowder_types::{PairSpace, SourceId};
    use proptest::prelude::*;

    fn dataset_from_names(names: &[String], cross: bool) -> Dataset {
        let space = if cross {
            PairSpace::CrossSource(SourceId(0), SourceId(1))
        } else {
            PairSpace::SelfJoin
        };
        let mut d = Dataset::new("t", vec!["name".into()], space);
        for (i, n) in names.iter().enumerate() {
            let src = if cross {
                SourceId((i % 2) as u8)
            } else {
                SourceId(0)
            };
            d.push_record(src, vec![n.clone()]).unwrap();
        }
        d
    }

    /// String-based brute-force oracle: enumerate candidate pairs and
    /// score them with the *string* Jaccard over raw token sets —
    /// independent of the interning layer, the filters, and the
    /// threading, so it cross-checks the whole interned stack.
    fn brute_force_oracle(d: &Dataset, t: &TokenTable, thr: f64) -> Vec<ScoredPair> {
        let mut out: Vec<ScoredPair> = d
            .candidate_pairs()
            .filter_map(|pair| {
                let sim = crowder_text::jaccard(t.set(pair.lo()), t.set(pair.hi()));
                (sim >= thr).then_some(ScoredPair::new(pair, sim))
            })
            .collect();
        crowder_types::pair::sort_ranked(&mut out);
        out
    }

    #[test]
    fn matches_all_pairs_on_table1() {
        let names: Vec<String> = [
            "iPad Two 16GB WiFi White",
            "iPad 2nd generation 16GB WiFi White",
            "iPhone 4th generation White 16GB",
            "Apple iPhone 4 16GB White",
            "Apple iPhone 3rd generation Black 16GB",
            "iPhone 4 32GB White",
            "Apple iPad2 16GB WiFi White",
            "Apple iPod shuffle 2GB Blue",
            "Apple iPod shuffle USB Cable",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build_with_sets(&d);
        for thr in [0.1, 0.3, 0.5, 0.9, 1.0] {
            let brute = all_pairs_scored(&d, &t, thr, 1);
            let fast = prefix_join(&d, &t, thr, 1);
            assert_eq!(brute, fast, "threshold {thr}");
            assert_eq!(
                brute,
                brute_force_oracle(&d, &t, thr),
                "oracle, threshold {thr}"
            );
        }
    }

    #[test]
    fn stats_funnel_is_leak_free() {
        let names: Vec<String> = (0..60)
            .map(|i| {
                format!(
                    "tok{} tok{} tok{} shared common extra{}",
                    i % 9,
                    i % 5,
                    i % 3,
                    i
                )
            })
            .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        for thr in [0.3, 0.5, 0.8] {
            let (out, s) = prefix_join_with_stats(&d, &t, thr, 2);
            assert_eq!(
                s.candidates,
                s.positional_pruned
                    + s.space_pruned
                    + s.signature_rejected
                    + s.suffix_pruned
                    + s.verified,
                "threshold {thr}: {s:?}"
            );
            assert_eq!(s.results as usize, out.len(), "threshold {thr}");
            assert!(s.results <= s.verified, "threshold {thr}");
        }
    }

    #[test]
    fn cross_source_stats_count_space_pruning() {
        let names: Vec<String> = (0..20)
            .map(|i| format!("alpha beta gamma d{}", i % 4))
            .collect();
        let d = dataset_from_names(&names, true);
        let t = TokenTable::build(&d);
        let (out, s) = prefix_join_with_stats(&d, &t, 0.5, 1);
        assert!(s.space_pruned > 0, "intra-source candidates exist: {s:?}");
        assert_eq!(s.results as usize, out.len());
    }

    #[test]
    fn empty_token_records_never_match() {
        let names = vec!["---".to_string(), "!!!".to_string(), "abc".to_string()];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        assert!(prefix_join(&d, &t, 0.5, 1).is_empty());
    }

    #[test]
    fn zero_threshold_falls_back_to_bruteforce() {
        let names = vec!["a b".to_string(), "b c".to_string()];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        let res = prefix_join(&d, &t, 0.0, 2);
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn above_one_threshold_returns_nothing() {
        // Unvalidated callers (e.g. CrowdJoin::threshold) may pass
        // thresholds above 1; Jaccard never exceeds 1, so the join must
        // return empty — like all_pairs_scored — instead of underflowing
        // the prefix formulas.
        let names = vec!["a b".to_string(), "a b".to_string()];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        for thr in [1.0 + f64::EPSILON, 1.5, 100.0] {
            let (res, stats) = prefix_join_with_stats(&d, &t, thr, 2);
            assert!(res.is_empty(), "threshold {thr}");
            assert_eq!(stats, JoinStats::default(), "threshold {thr}");
            assert!(all_pairs_scored(&d, &t, thr, 1).is_empty());
        }
    }

    #[test]
    fn duplicate_records_all_pair_up() {
        // Identical records exercise the tie-handling of the
        // length-sorted order and the positional filter at j == i.
        let names = vec!["a b c".to_string(); 5];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        let res = prefix_join(&d, &t, 1.0, 2);
        assert_eq!(res.len(), 5 * 4 / 2);
        assert!(res.iter().all(|sp| sp.likelihood == 1.0));
    }

    // ---- degenerate joins: the classic PPJoin+ off-by-one sites ----

    #[test]
    fn single_token_records_join_correctly() {
        // Single-token records have probe/indexing prefix 1 and *empty*
        // suffixes: the suffix filter and resume merge both see zero
        // remaining tokens and must still admit exact matches.
        let names: Vec<String> = ["a", "b", "a", "c", "b", "a"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build_with_sets(&d);
        for thr in [0.5, 1.0] {
            let fast = prefix_join(&d, &t, thr, 1);
            assert_eq!(fast, brute_force_oracle(&d, &t, thr), "threshold {thr}");
            assert_eq!(fast.len(), 3 + 1, "threshold {thr}: aa, aa, aa, bb");
        }
    }

    #[test]
    fn threshold_one_requires_identity() {
        let names: Vec<String> = ["a b c d", "a b c d", "a b c", "a b c d e", "q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build_with_sets(&d);
        let res = prefix_join(&d, &t, 1.0, 2);
        assert_eq!(res.len(), 1, "only the exact duplicate pair survives");
        assert_eq!(res[0].pair, Pair::of(0, 1));
        assert_eq!(res, brute_force_oracle(&d, &t, 1.0));
    }

    #[test]
    fn degenerate_mixes_agree_with_oracle() {
        // Empty token sets, identical records, and singletons in one
        // corpus, across thresholds, thread counts, and pair spaces.
        let names: Vec<String> = ["", "x", "x", "---", "x y z", "x y z", "y", "", "x y"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for cross in [false, true] {
            let d = dataset_from_names(&names, cross);
            let t = TokenTable::build_with_sets(&d);
            for thr in [0.05, 0.5, 1.0] {
                for threads in [0, 1, 2] {
                    assert_eq!(
                        prefix_join(&d, &t, thr, threads),
                        brute_force_oracle(&d, &t, thr),
                        "cross={cross} thr={thr} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_identical_records_at_every_threshold() {
        let names = vec!["alpha beta gamma delta".to_string(); 8];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        for thr in [0.1, 0.5, 1.0] {
            let (res, stats) = prefix_join_with_stats(&d, &t, thr, 2);
            assert_eq!(res.len(), 8 * 7 / 2, "threshold {thr}");
            assert!(res.iter().all(|sp| sp.likelihood == 1.0));
            // Identical records must never be suffix-pruned.
            assert_eq!(stats.suffix_pruned, 0, "threshold {thr}: {stats:?}");
        }
    }

    #[test]
    fn suffix_filter_bound_is_sound() {
        // The lower bound must never exceed the true Hamming distance.
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[]),
            (&[1, 2, 3], &[]),
            (&[1, 3, 5, 7], &[2, 4, 6, 8]),
            (&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5]),
            (&[1, 2, 3, 4, 5], &[2, 3, 4]),
            (&[10, 20, 30, 40, 50, 60], &[15, 20, 35, 40, 55, 60]),
        ];
        for (a, b) in cases {
            let true_h = a.len() + b.len() - 2 * crowder_text::intersection_size_ids(a, b);
            for depth in 0..=4 {
                let lb = suffix_hamming_lb(a, b, usize::MAX, depth);
                assert!(lb <= true_h, "lb {lb} > true {true_h} for {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let names: Vec<String> = (0..40)
            .map(|i| format!("tok{} tok{} tok{} shared common", i % 7, i % 5, i % 3))
            .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        for thr in [0.2, 0.5, 0.8] {
            let one = prefix_join(&d, &t, thr, 1);
            let two = prefix_join(&d, &t, thr, 2);
            let five = prefix_join(&d, &t, thr, 5);
            let auto = prefix_join(&d, &t, thr, 0);
            assert_eq!(one, two, "threshold {thr}");
            assert_eq!(one, five, "threshold {thr}");
            assert_eq!(one, auto, "threshold {thr}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn agrees_with_bruteforce(
            names in proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,4}", 2..24),
            thr in 0.05f64..=1.0,
            cross in proptest::bool::ANY,
        ) {
            let d = dataset_from_names(&names, cross);
            let t = TokenTable::build(&d);
            let brute = all_pairs_scored(&d, &t, thr, 1);
            let fast = prefix_join(&d, &t, thr, 1);
            prop_assert_eq!(brute, fast);
        }

        /// The interned parallel implementations must agree with the
        /// string-based oracle — across thresholds, pair spaces, and
        /// thread counts (0 = auto included).
        #[test]
        fn interned_joins_agree_with_string_oracle(
            names in proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,4}", 2..24),
            thr in 0.05f64..=1.0,
            cross in proptest::bool::ANY,
            threads in 0usize..=4,
        ) {
            let d = dataset_from_names(&names, cross);
            let t = TokenTable::build_with_sets(&d);
            let oracle = brute_force_oracle(&d, &t, thr);
            prop_assert_eq!(&oracle, &all_pairs_scored(&d, &t, thr, threads.max(1)));
            prop_assert_eq!(&oracle, &prefix_join(&d, &t, thr, threads));
        }

        /// Longer, more overlapping records push candidates through the
        /// positional + suffix filters and the resume merge.
        #[test]
        fn long_record_joins_agree_with_bruteforce(
            names in proptest::collection::vec("[a-h]{1,2}( [a-h]{1,2}){4,12}", 2..20),
            thr in 0.05f64..=1.0,
            threads in 1usize..=3,
        ) {
            let d = dataset_from_names(&names, false);
            let t = TokenTable::build(&d);
            let brute = all_pairs_scored(&d, &t, thr, 1);
            let fast = prefix_join(&d, &t, thr, threads);
            prop_assert_eq!(brute, fast);
        }

        /// The suffix-filter lower bound never exceeds the true Hamming
        /// distance for random sorted sets at any recursion depth.
        #[test]
        fn suffix_bound_sound_on_random_sets(
            a in proptest::collection::vec(0u32..64, 0..24),
            b in proptest::collection::vec(0u32..64, 0..24),
            depth in 0usize..=4,
        ) {
            let mut a = a;
            let mut b = b;
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let true_h = a.len() + b.len()
                - 2 * crowder_text::intersection_size_ids(&a, &b);
            prop_assert!(suffix_hamming_lb(&a, &b, usize::MAX, depth) <= true_h);
        }
    }
}
