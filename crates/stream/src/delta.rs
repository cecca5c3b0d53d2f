//! The insert-capable prefix-filter index and the per-arrival delta
//! join: a driver of the shared PPJoin+ kernel in
//! [`crowder_simjoin::probe`].
//!
//! The batch engine (`crowder_simjoin::prefix_join`) probes records in
//! ascending length order, so the probing side is always the longer one
//! and the table can hold the *shortened* PPJoin indexing prefix. A
//! stream has no such luxury: an arriving record may be shorter or
//! longer than anything indexed. [`DeltaIndex`] therefore indexes each
//! record's full **probe prefix** (`|y| − ⌈t·|y|⌉ + 1` rarest-ranked
//! tokens, plus the kernel's tiered frontier tokens) — the symmetric
//! prefix-filter guarantee: any pair with Jaccard ≥ t shares a token
//! between its two probe prefixes, whichever side is longer. Each
//! arrival is probed against everything indexed (the kernel's whole
//! length window `⌈t·|x|⌉ ≤ |y| ≤ ⌊|x|/t⌋`), then indexed itself.
//!
//! The index is the kernel's [`PostingTable`] plus the per-record rank
//! lists, band signatures and tombstones the probe verifies against,
//! and one [`Scratch`]. Postings are kept in `(len, record)` order, so
//! the table is a function of the indexed docs alone and a probe's
//! output — matches, and every funnel bucket — is a pure function of
//! the live corpus, whatever mutation history (or rebuild, or snapshot
//! import) populated it. Crash recovery depends on this. Matches come
//! back in ascending record order.
//!
//! Deletion is a **tombstone**: the dead record's postings stay in
//! place but every probe skips them, while the table's live counts
//! (the adaptive level choice's estimate) drop at once, so probes stay
//! bit-identical to a compacted index. The next epoch
//! [`DeltaIndex::rebuild`] (or [`DeltaIndex::compact`]) sweeps them.
//!
//! Degenerate thresholds mirror the batch engine so the cumulative
//! output stays bit-identical: `threshold ≤ 0` compares the arrival
//! against every indexed candidate exhaustively (no filter can help at
//! a zero threshold), and `threshold > 1` yields nothing.

use crowder_simjoin::filters::{prefix_len, BandSignature};
use crowder_simjoin::probe::{PostingTable, Probe, Scratch};
use crowder_simjoin::{publish_funnel, JoinStats};
use crowder_text::jaccard_ids;
use crowder_types::{Dataset, Error, Pair, RecordId, ScoredPair};

use crate::dict::StreamingDict;

/// The delta index's layout. It has a single value: the index is one
/// posting table probed on the calling thread. The type remains only so
/// existing configurations that forward a layout keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexLayout;

/// Mutable prefix-filter index over an appendable corpus, with
/// tombstoned deletion: a removed record's postings stay in place but
/// are skipped by every probe, and the next epoch rebuild drops them
/// for good — deletion is O(window), the cleanup amortized into the
/// rebuild the resolver already schedules.
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    threshold: f64,
    /// Rank → postings. Keyed by *rank* (the join's sort key), which is
    /// stable between dictionary epochs; `rebuild` re-keys everything.
    table: PostingTable,
    /// Per-record token lists, as ranks sorted ascending.
    docs: Vec<Vec<u32>>,
    /// Per-record 256-bit band signatures over the rank lists —
    /// recomputed wherever `docs` changes (push, update, rebuild):
    /// ranks shift between dictionary epochs, so signatures are
    /// epoch-local just like the docs they summarize.
    sigs: Vec<BandSignature>,
    /// Tombstones: `false` for deleted records (slots are never
    /// reused — record ids stay dense in arrival order).
    alive: Vec<bool>,
    /// Live (non-tombstoned) record count.
    live: usize,
    /// Probe accumulators, sized to `docs`.
    scratch: Scratch,
    /// Scratch: matches `(y, sim)` of the current probe.
    found: Vec<(u32, f64)>,
}

impl DeltaIndex {
    /// An empty index joining at `threshold`.
    pub fn new(threshold: f64) -> Self {
        DeltaIndex {
            threshold,
            table: PostingTable::default(),
            docs: Vec::new(),
            sigs: Vec::new(),
            alive: Vec::new(),
            live: 0,
            scratch: Scratch::default(),
            found: Vec::new(),
        }
    }

    /// Rebuild an index from exported per-record rank lists (empty for
    /// tombstoned records) plus liveness flags — the snapshot-import
    /// constructor. The table comes out identical to the one the
    /// exporting index held after a compaction, so a recovered index
    /// probes exactly like the index it was exported from.
    pub fn from_docs(
        threshold: f64,
        docs: Vec<Vec<u32>>,
        alive: Vec<bool>,
    ) -> crowder_types::Result<Self> {
        if docs.len() != alive.len() {
            return Err(Error::InvalidData(format!(
                "index import: {} docs but {} liveness flags",
                docs.len(),
                alive.len()
            )));
        }
        let mut index = DeltaIndex {
            live: alive.iter().filter(|&&a| a).count(),
            scratch: Scratch::new(docs.len()),
            sigs: docs.iter().map(|d| BandSignature::build(d)).collect(),
            docs,
            alive,
            ..DeltaIndex::new(threshold)
        };
        index.index_all();
        Ok(index)
    }

    /// Number of record slots (arrivals ever indexed, deletions
    /// included).
    #[inline]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Number of live (non-deleted) records.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True iff no record was indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Is `record` still live?
    #[inline]
    pub fn is_alive(&self, record: RecordId) -> bool {
        self.alive[record.index()]
    }

    /// Does the threshold run the filtered probe (and so index postings)?
    #[inline]
    fn filtered(&self) -> bool {
        self.threshold > 0.0 && self.threshold <= 1.0
    }

    /// Tombstone one record: every future probe skips it. Its postings
    /// are garbage until the next [`DeltaIndex::rebuild`] sweeps them,
    /// but the table's live counts are settled right here — an
    /// O(window) walk — so the adaptive prefix level never sees
    /// tombstone mass. Idempotent.
    pub fn remove(&mut self, record: RecordId) {
        let slot = record.index();
        if std::mem::replace(&mut self.alive[slot], false) {
            self.live -= 1;
            let doc = &self.docs[slot];
            if self.filtered() && !doc.is_empty() {
                self.table
                    .retire(doc, prefix_len(doc.len(), self.threshold));
            }
        }
    }

    /// Sweep every tombstoned posting (and dead doc) right now instead
    /// of waiting for the next epoch [`DeltaIndex::rebuild`] — called
    /// after a snapshot load so a recovered index starts dense, and
    /// available on demand for long quiet periods between epochs.
    /// Probe results are bit-identical before and after.
    pub fn compact(&mut self) {
        self.table.sweep(&self.alive);
        for (r, doc) in self.docs.iter_mut().enumerate() {
            if !self.alive[r] && !doc.is_empty() {
                doc.clear();
                doc.shrink_to_fit();
                self.sigs[r] = BandSignature::default();
            }
        }
    }

    /// The rank-sorted token list of an indexed record.
    #[inline]
    pub fn doc(&self, record: RecordId) -> &[u32] {
        &self.docs[record.index()]
    }

    /// Join threshold the index was built for.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Delta-join the next record (rank-sorted token list `doc`) against
    /// everything indexed, then index it. The record's id must be
    /// `self.len()` — records arrive densely — and must already be
    /// pushed into `dataset` (the candidate-space filter reads its
    /// source). New pairs are appended to `out` in ascending candidate
    /// order; filter decisions are tallied into `stats` with the same
    /// bucket semantics as the batch funnel.
    pub fn join_and_insert(
        &mut self,
        dataset: &Dataset,
        doc: Vec<u32>,
        out: &mut Vec<ScoredPair>,
        stats: &mut JoinStats,
    ) {
        let _timer = crowder_obs::span_light!("stream.delta.probe_ns");
        debug_assert_eq!(dataset.len(), self.docs.len() + 1, "push record first");
        let x = RecordId(self.docs.len() as u32);
        self.sigs.push(BandSignature::build(&doc));
        self.docs.push(doc);
        self.alive.push(true);
        self.live += 1;
        self.scratch.resize(self.docs.len());
        self.join_and_index(dataset, x, out, stats);
    }

    /// Probe a record that is **not** part of the corpus — the
    /// read-only query half of a `resolve()` call. `doc` must be the
    /// rank-sorted encoding of the query's token set (see
    /// `StreamingDict::encode_query`), `space_ok` the candidate-space
    /// filter for the query's source. Matches are appended to `out` in
    /// ascending record order with their exact Jaccard similarity —
    /// bit-for-bit what [`DeltaIndex::join_and_insert`] would have
    /// surfaced had the record arrived — and nothing is indexed or
    /// mutated besides probe scratch. The funnel of the probe is
    /// tallied into `stats` but *not* published to the shared
    /// `simjoin.funnel.*` counters: queries are not part of the machine
    /// pass.
    pub fn probe_query<F: Fn(u32) -> bool>(
        &mut self,
        doc: &[u32],
        space_ok: F,
        out: &mut Vec<(RecordId, f64)>,
        stats: &mut JoinStats,
    ) {
        let _timer = crowder_obs::span_light!("stream.delta.query_probe_ns");
        self.probe(doc, None, space_ok, stats);
        out.extend(self.found.iter().map(|&(y, sim)| (RecordId(y), sim)));
    }

    /// Replace the token list of an existing *live* record in place —
    /// the index half of an atomic correction. The record's stale
    /// postings are stripped first (it must not match its own old
    /// tokens), the new doc is probed against every other live record
    /// exactly like an arrival (same funnel buckets, appended to `out`),
    /// and its new prefix is indexed.
    pub fn update_doc(
        &mut self,
        dataset: &Dataset,
        record: RecordId,
        doc: Vec<u32>,
        out: &mut Vec<ScoredPair>,
        stats: &mut JoinStats,
    ) {
        let _timer = crowder_obs::span_light!("stream.delta.update_probe_ns");
        let slot = record.index();
        debug_assert!(self.alive[slot], "update of a tombstoned record");
        let old = &self.docs[slot];
        if self.filtered() && !old.is_empty() {
            self.table
                .strip(record.0, old, prefix_len(old.len(), self.threshold));
        }
        self.sigs[slot] = BandSignature::build(&doc);
        self.docs[slot] = doc;
        self.join_and_index(dataset, record, out, stats);
    }

    /// Probe the stored doc of live record `x` against every other live
    /// record, append its pairs to `out`, then index it. `x` is kept
    /// out of its own probe: its postings are not in the table yet, and
    /// the exhaustive path skips it by id.
    fn join_and_index(
        &mut self,
        dataset: &Dataset,
        x: RecordId,
        out: &mut Vec<ScoredPair>,
        stats: &mut JoinStats,
    ) {
        let pair = |y: u32| Pair::new(x, RecordId(y)).expect("probe never yields x");
        // Lent out of `docs` for the probe, which borrows the index.
        let doc = std::mem::take(&mut self.docs[x.index()]);
        let mut local = JoinStats::default();
        self.probe(
            &doc,
            Some(x.0),
            |y| dataset.is_candidate(&pair(y)),
            &mut local,
        );
        self.docs[x.index()] = doc;
        out.extend(
            self.found
                .iter()
                .map(|&(y, sim)| ScoredPair::new(pair(y), sim)),
        );
        self.index_prefix(x.0);
        publish_funnel(&local);
        stats.absorb(&local);
    }

    /// Run one probe of `doc` into `self.found`, in ascending record
    /// order. `skip` is the probing record's own id, if it has one.
    fn probe(
        &mut self,
        doc: &[u32],
        skip: Option<u32>,
        space_ok: impl Fn(u32) -> bool,
        stats: &mut JoinStats,
    ) {
        let Self {
            threshold,
            ref table,
            ref docs,
            ref sigs,
            ref alive,
            ref mut scratch,
            ref mut found,
            ..
        } = *self;
        found.clear();
        if threshold > 1.0 {
            // Jaccard never exceeds 1: nothing can match.
        } else if threshold <= 0.0 {
            // Every candidate pair is scored, like the batch fallback to
            // `all_pairs_scored`: a zero threshold keeps everything, so
            // no filter can help.
            for y in 0..docs.len() as u32 {
                if Some(y) == skip || !alive[y as usize] || !space_ok(y) {
                    continue;
                }
                stats.candidates += 1;
                stats.verified += 1;
                let sim = jaccard_ids(doc, &docs[y as usize]);
                if sim >= threshold {
                    stats.results += 1;
                    found.push((y, sim));
                }
            }
        } else {
            let probe = Probe {
                doc,
                sig: &BandSignature::build(doc),
                threshold,
                before: None,
                docs,
                sigs,
            };
            table.probe(
                &probe,
                |y| alive[y as usize],
                space_ok,
                scratch,
                stats,
                |y, sim| found.push((y, sim)),
            );
            found.sort_unstable_by_key(|&(y, _)| y);
        }
    }

    /// Index every live record, in `(len, id)` order so that every
    /// posting appends at the end of its list.
    fn index_all(&mut self) {
        let mut order: Vec<u32> = (0..self.docs.len() as u32)
            .filter(|&r| self.alive[r as usize])
            .collect();
        order.sort_unstable_by_key(|&r| (self.docs[r as usize].len(), r));
        for r in order {
            self.index_prefix(r);
        }
    }

    /// Index live record `r`'s stored doc (its extended probe window).
    fn index_prefix(&mut self, r: u32) {
        let doc = &self.docs[r as usize];
        if self.filtered() && !doc.is_empty() {
            self.table
                .insert(r, doc, prefix_len(doc.len(), self.threshold));
        }
    }

    /// Re-encode every record against the dictionary's current ranks and
    /// rebuild the postings — the epoch step after
    /// [`StreamingDict::rerank`]. `token_ids[r]` is record `r`'s stable
    /// token ids. Tombstoned records lose their doc, signature and
    /// postings for good.
    pub fn rebuild(&mut self, dict: &StreamingDict, token_ids: &[Vec<u32>]) {
        debug_assert_eq!(token_ids.len(), self.docs.len());
        for (r, ids) in token_ids.iter().enumerate() {
            let doc = &mut self.docs[r];
            doc.clear();
            if self.alive[r] {
                doc.extend(ids.iter().map(|&id| dict.rank(id)));
                doc.sort_unstable();
            }
            self.sigs[r] = BandSignature::build(doc);
        }
        self.table.clear();
        self.index_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_text::tokenize;
    use crowder_types::{PairSpace, SourceId};

    fn feed(names: &[&str], threshold: f64) -> (Vec<ScoredPair>, JoinStats) {
        let mut dataset = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict = StreamingDict::new();
        let mut index = DeltaIndex::new(threshold);
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        for name in names {
            dataset
                .push_record(SourceId(0), vec![name.to_string()])
                .unwrap();
            let ids = dict.encode_record(&tokenize(name));
            let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
            doc.sort_unstable();
            index.join_and_insert(&dataset, doc, &mut out, &mut stats);
        }
        (out, stats)
    }

    #[test]
    fn finds_matches_in_arrival_order() {
        let (out, stats) = feed(&["a b c d", "a b c d", "x y", "a b c e"], 0.5);
        let pairs: Vec<Pair> = out.iter().map(|s| s.pair).collect();
        assert_eq!(pairs, vec![Pair::of(0, 1), Pair::of(0, 3), Pair::of(1, 3)]);
        assert_eq!(stats.results, 3);
        assert_eq!(
            stats.candidates,
            stats.positional_pruned
                + stats.space_pruned
                + stats.signature_rejected
                + stats.suffix_pruned
                + stats.verified
        );
    }

    #[test]
    fn length_skip_never_enumerates_out_of_window_candidates() {
        // Probe "a b" (len 2) at t = 0.5: the length window is
        // [1, 4], so the len-8 record sharing token `a` must be
        // binary-search-skipped — not even counted as a candidate
        // (the old per-candidate length check counted it).
        let (out, stats) = feed(&["a b c d e f g h", "a b"], 0.5);
        assert!(out.is_empty());
        assert_eq!(stats.candidates, 0, "{stats:?}");
        assert_eq!(stats.positional_pruned, 0);
    }

    #[test]
    fn shorter_arrival_still_matches_longer_indexed() {
        // The symmetric prefix must catch a probe *shorter* than the
        // indexed record — the case the batch engine never sees.
        let (out, _) = feed(&["a b c d e", "a b c d"], 0.8);
        assert_eq!(out.len(), 1);
        assert!((out[0].likelihood - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_threshold_scores_every_pair() {
        let (out, stats) = feed(&["a b", "c d", "e"], 0.0);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.verified, 3);
    }

    #[test]
    fn above_one_threshold_yields_nothing() {
        let (out, stats) = feed(&["a b", "a b"], 1.5);
        assert!(out.is_empty());
        assert_eq!(stats, JoinStats::default());
    }

    #[test]
    fn empty_records_never_match_at_positive_threshold() {
        let (out, _) = feed(&["", "---", "a", ""], 0.1);
        assert!(out.is_empty());
    }

    /// Feed helper returning the live state too.
    fn feed_state(names: &[&str], threshold: f64) -> (Dataset, StreamingDict, DeltaIndex) {
        let mut dataset = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict = StreamingDict::new();
        let mut index = DeltaIndex::new(threshold);
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        for name in names {
            dataset
                .push_record(SourceId(0), vec![name.to_string()])
                .unwrap();
            let ids = dict.encode_record(&tokenize(name));
            let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
            doc.sort_unstable();
            index.join_and_insert(&dataset, doc, &mut out, &mut stats);
        }
        (dataset, dict, index)
    }

    fn rank_doc(dict: &mut StreamingDict, name: &str) -> Vec<u32> {
        let ids = dict.encode_record(&tokenize(name));
        let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
        doc.sort_unstable();
        doc
    }

    #[test]
    fn probe_query_matches_what_an_arrival_would_surface() {
        let names = ["a b c d", "a b c e", "x y z", "a b"];
        let (_dataset, dict, mut index) = feed_state(&names, 0.5);
        // Query with record 0's exact content (as an outside query, not
        // an arrival): must match what arrival 0's own doc matches, over
        // the *current* corpus.
        let qdoc = dict.encode_query(&tokenize("a b c d"));
        let (mut matches, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(&qdoc, |_| true, &mut matches, &mut stats);
        assert_eq!(
            matches,
            vec![
                (RecordId(0), 1.0), // identical
                (RecordId(1), 0.6), // 3 shared / 5 union
                (RecordId(3), 0.5), // 2 shared / 4 union
            ]
        );
        // Unknown query tokens lengthen the query exactly like an
        // arrival's fresh tokens would.
        let diluted = dict.encode_query(&tokenize("a b c d zz1 zz2 zz3 zz4 zz5"));
        let (mut none, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(&diluted, |_| true, &mut none, &mut stats);
        assert!(
            none.is_empty(),
            "diluted to 4/9 < t against every record: {none:?}"
        );
        // The index is untouched: same query, same answer.
        let (mut again, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(&qdoc, |_| true, &mut again, &mut stats);
        assert_eq!(again, matches);
    }

    #[test]
    fn update_doc_rematches_under_the_same_id() {
        let (mut dataset, mut dict, mut index) =
            feed_state(&["a b c d", "x y z w", "a b c e"], 0.5);
        // Rewrite record 1 from {x y z w} to {a b c d}: it must now
        // match records 0 and 2, and stop matching nothing it used to.
        dataset
            .set_fields(RecordId(1), vec!["a b c d".into()])
            .unwrap();
        let doc = rank_doc(&mut dict, "a b c d");
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        index.update_doc(&dataset, RecordId(1), doc, &mut out, &mut stats);
        let mut pairs: Vec<Pair> = out.iter().map(|s| s.pair).collect();
        pairs.sort();
        assert_eq!(pairs, vec![Pair::of(0, 1), Pair::of(1, 2)]);
        assert!(out.iter().any(|s| s.likelihood == 1.0), "{out:?}");
        // A later arrival sees the *new* tokens, not the stale ones.
        dataset
            .push_record(SourceId(0), vec!["x y z w".into()])
            .unwrap();
        let doc = rank_doc(&mut dict, "x y z w");
        let mut out2 = Vec::new();
        index.join_and_insert(&dataset, doc, &mut out2, &mut stats);
        assert!(out2.is_empty(), "stale postings must be stripped: {out2:?}");
    }

    #[test]
    fn update_doc_never_matches_itself() {
        // Re-probing an identical doc under an existing id must not
        // surface a self-pair (`Pair::new` would panic through the
        // probe's expect) on either the filtered or exhaustive path.
        for threshold in [0.0, 0.5] {
            let (dataset, mut dict, mut index) = feed_state(&["a b c d", "q r"], threshold);
            let doc = rank_doc(&mut dict, "a b c d");
            let mut out = Vec::new();
            let mut stats = JoinStats::default();
            index.update_doc(&dataset, RecordId(0), doc, &mut out, &mut stats);
            let expected = if threshold == 0.0 { 1 } else { 0 };
            assert_eq!(out.len(), expected, "threshold {threshold}: {out:?}");
        }
    }

    #[test]
    fn compact_sweeps_dead_postings_and_preserves_results() {
        let (mut dataset, mut dict, mut index) =
            feed_state(&["a b c d", "a b c d", "a b c e"], 0.5);
        index.remove(RecordId(0));
        index.compact();
        assert!(index.doc(RecordId(0)).is_empty(), "dead doc swept");
        assert!(!index.doc(RecordId(1)).is_empty());
        // A new arrival still matches the live records, and only them.
        dataset
            .push_record(SourceId(0), vec!["a b c d".into()])
            .unwrap();
        let doc = rank_doc(&mut dict, "a b c d");
        let (mut out, mut stats) = (Vec::new(), JoinStats::default());
        index.join_and_insert(&dataset, doc, &mut out, &mut stats);
        let mut pairs: Vec<Pair> = out.iter().map(|s| s.pair).collect();
        pairs.sort();
        assert_eq!(pairs, vec![Pair::of(1, 3), Pair::of(2, 3)]);
    }

    #[test]
    fn from_docs_round_trips_probe_behavior() {
        let names = ["a b c d", "a b c e", "x y z", "a b c d e"];
        let (mut dataset, mut dict, mut index) = feed_state(&names, 0.4);
        index.remove(RecordId(2));
        // Export docs (dead ones empty) and rebuild: the import must not
        // change a thing.
        let docs: Vec<Vec<u32>> = (0..index.len())
            .map(|r| {
                if index.is_alive(RecordId(r as u32)) {
                    index.doc(RecordId(r as u32)).to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let alive: Vec<bool> = (0..index.len())
            .map(|r| index.is_alive(RecordId(r as u32)))
            .collect();
        let mut imported = DeltaIndex::from_docs(0.4, docs, alive).unwrap();
        assert_eq!(imported.live(), index.live());
        // Identical probes on both sides: bit-identical output.
        dataset
            .push_record(SourceId(0), vec!["a b c d".into()])
            .unwrap();
        let doc = rank_doc(&mut dict, "a b c d");
        let (mut out_a, mut stats_a) = (Vec::new(), JoinStats::default());
        let (mut out_b, mut stats_b) = (Vec::new(), JoinStats::default());
        index.join_and_insert(&dataset, doc.clone(), &mut out_a, &mut stats_a);
        imported.join_and_insert(&dataset, doc, &mut out_b, &mut stats_b);
        assert_eq!(out_a, out_b);
        assert_eq!(stats_a, stats_b);
        // Mismatched import lengths are rejected.
        assert!(DeltaIndex::from_docs(0.4, vec![vec![1]], vec![true, false]).is_err());
    }

    #[test]
    fn tombstoned_records_stop_matching() {
        let mut dataset = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict = StreamingDict::new();
        let mut index = DeltaIndex::new(0.5);
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        let push = |dataset: &mut Dataset,
                    dict: &mut StreamingDict,
                    index: &mut DeltaIndex,
                    out: &mut Vec<ScoredPair>,
                    stats: &mut JoinStats,
                    name: &str| {
            dataset
                .push_record(SourceId(0), vec![name.to_string()])
                .unwrap();
            let ids = dict.encode_record(&tokenize(name));
            let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
            doc.sort_unstable();
            index.join_and_insert(dataset, doc, out, stats);
        };
        push(
            &mut dataset,
            &mut dict,
            &mut index,
            &mut out,
            &mut stats,
            "a b c d",
        );
        index.remove(RecordId(0));
        assert_eq!(index.live(), 0);
        assert!(!index.is_alive(RecordId(0)));
        // An identical arrival finds nothing: the only indexed record
        // is tombstoned (filtered probe path).
        push(
            &mut dataset,
            &mut dict,
            &mut index,
            &mut out,
            &mut stats,
            "a b c d",
        );
        assert!(out.is_empty(), "{out:?}");
        // The exhaustive path (threshold 0) also honors tombstones.
        let mut dataset0 = Dataset::new("z", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict0 = StreamingDict::new();
        let mut index0 = DeltaIndex::new(0.0);
        let mut out0 = Vec::new();
        let mut stats0 = JoinStats::default();
        push(
            &mut dataset0,
            &mut dict0,
            &mut index0,
            &mut out0,
            &mut stats0,
            "x y",
        );
        index0.remove(RecordId(0));
        push(
            &mut dataset0,
            &mut dict0,
            &mut index0,
            &mut out0,
            &mut stats0,
            "x y",
        );
        assert!(out0.is_empty());
        // A rebuild sweeps the dead postings; live records still match.
        push(
            &mut dataset,
            &mut dict,
            &mut index,
            &mut out,
            &mut stats,
            "a b c e",
        );
        assert_eq!(out.len(), 1, "record 1 (live) matches record 2");
        dict.rerank();
        let token_ids: Vec<Vec<u32>> = (0..dataset.len())
            .map(|r| {
                let mut ids = dict.encode_record(&tokenize(&dataset.records()[r].joined_text()));
                // encode_record bumps dfs; acceptable in a test.
                ids.sort_unstable();
                ids
            })
            .collect();
        index.rebuild(&dict, &token_ids);
        assert!(index.doc(RecordId(0)).is_empty(), "dead doc swept");
        assert!(!index.doc(RecordId(1)).is_empty());
    }
}
