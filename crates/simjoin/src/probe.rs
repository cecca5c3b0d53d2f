//! The PPJoin+ probe kernel: one posting table and one probe, driven by
//! both the batch join ([`prefix_join`](crate::prefix_join)) and the
//! per-arrival delta join of `crowder-stream`.
//!
//! ## The posting table
//!
//! [`PostingTable`] maps a token *rank* (the global rarest-first sort
//! key of every token list) to that rank's postings, kept in ascending
//! **`(record length, record id)`** order. The length filter is then one
//! binary search into each list, so records outside a probe's length
//! window are never enumerated. The order makes the table a function
//! of the indexed records alone, whatever order they were inserted in:
//! a rebuilt or re-imported table is the same table. Inserting records
//! in `(len, id)` order appends every posting; an arrival shorter than
//! records already indexed is inserted mid-list, which moves only the
//! postings of longer records — and a list holds just the records whose
//! prefixes contain that (rare) rank. Each list also keeps an exact
//! count of its **live** postings, settled at every insert, strip and
//! retirement, so the adaptive level choice below reads the same number
//! whatever mutation history populated the table.
//!
//! Ranks are kept in one dense window that grows at either end, so a
//! lookup is an index, not a hash. The batch join's ranks are token ids
//! `0..V`; the stream's are one contiguous band around its fresh-token
//! watermark (see `StreamingDict`). A record is indexed with its
//! *extended* window: a base prefix the driver chooses (the PPJoin
//! indexing prefix in batch, the symmetric probe prefix in the stream)
//! plus up to [`MAX_PREFIX_EXT`]` − 1` frontier tokens, each posting
//! tagged with its count-filter `tier` ([`posting_tier`]).
//!
//! ## The probe
//!
//! [`PostingTable::probe`] runs one record `x` against the table:
//!
//! 1. **Level choice.** Starting from the probe prefix
//!    `|x| − ⌈t·|x|⌉ + 1`, the window grows one frontier token at a time
//!    while the frontier list is cheap relative to the live postings the
//!    window already scans ([`extend_prefix`]), capped at `⌈t·|x|⌉` (the
//!    generalized prefix lemma's soundness bound, see
//!    [`filters`](crate::filters)). A window of `level` extra-or-base
//!    tokens demands `level` shared window tokens per candidate.
//! 2. **Phase 1: hit collection.** For each window position `i`, the
//!    postings in the length window `⌈t·|x|⌉ ≤ |y| ≤ ⌊|x|/t⌋` are
//!    scanned.
//!    Postings of tombstoned records and postings at `tier ≥ level` are
//!    skipped. Positions ascend, so a candidate's first hit is the pair's
//!    first shared token: tiers grow with position, so any earlier shared
//!    token would have been a counted hit at smaller `i` and `j`. Later
//!    hits only raise the candidate's count. **Last-token truncation**
//!    rides the same scan: a first hit on a record longer than
//!    [`positional_len_cutoff`]`(|x|, i, t)` can never pass the
//!    positional filter, and the cutoff only tightens with `i`. At level
//!    1 the scan stops at it, so those postings are never enumerated; at
//!    higher levels the first contact is suppressed (hits into live
//!    candidates still count).
//! 3. **Phase 2: filter + verify.** Candidates with fewer than `level`
//!    hits are dropped silently (count filter). Survivors face the
//!    positional filter at their first shared token, the candidate-space
//!    filter, the 256-bit [`BandSignature`] lower bound on the symmetric
//!    difference, the PPJoin+ suffix filter ([`suffix_hamming_lb`]), and
//!    resume-merge verification ([`overlap_reaching`]) from `(i+1, j+1)`
//!    with overlap exactly 1.
//!
//! Pairs killed by the length skip, the count filter, or truncation
//! never surface as [`JoinStats::candidates`]: they are proven dead from
//! index geometry alone. The funnel is a sum over candidates, so it does
//! not depend on the order in which postings are enumerated.
//!
//! The batch join bounds each probe to the records *before* `x` in
//! `(len, id)` order ([`Probe::before`]) — a prefix of every list —
//! which is what makes every pair come out exactly once with the
//! probing side the longer one, the precondition for its shorter
//! indexing prefix.

use crate::filters::{
    extend_prefix, extended_prefix_len, max_match_len, min_match_len, min_overlap,
    overlap_reaching, positional_len_cutoff, posting_tier, prefix_len, suffix_hamming_lb,
    BandSignature, MAX_PREFIX_EXT, SUFFIX_FILTER_DEPTH,
};

/// Per-probe filter-funnel counters, summed across probes (the batch
/// join's worker threads, or the stream's arrivals).
///
/// `candidates` splits into the five leak-free buckets
/// `positional_pruned + space_pruned + signature_rejected +
/// suffix_pruned + verified`; `results ≤ verified`. Pairs killed
/// *before* the candidate stage — the length skip, the count filter,
/// and the last-token truncation — never surface in the funnel at all:
/// they were proven dead from the index geometry alone, without
/// enumerating the pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Distinct pairs surviving prefix + length filtering, the count
    /// filter, and last-token truncation (index hits after per-probe
    /// dedup).
    pub candidates: u64,
    /// Candidates discarded by the positional filter.
    pub positional_pruned: u64,
    /// Candidates discarded because the pair is outside the dataset's
    /// [`PairSpace`](crowder_types::PairSpace) (e.g. intra-source).
    pub space_pruned: u64,
    /// Candidates discarded by the 256-bit band-signature lower bound
    /// on the symmetric difference (short records only: the check
    /// self-gates once `lx + ly − 2α ≥ 256`).
    pub signature_rejected: u64,
    /// Candidates discarded by the suffix filter.
    pub suffix_pruned: u64,
    /// Candidates that reached exact (resume-merge) verification.
    pub verified: u64,
    /// Verified candidates meeting the threshold — the output size.
    pub results: u64,
}

impl JoinStats {
    /// Accumulate another funnel's counters.
    pub fn absorb(&mut self, other: &JoinStats) {
        self.candidates += other.candidates;
        self.positional_pruned += other.positional_pruned;
        self.space_pruned += other.space_pruned;
        self.signature_rejected += other.signature_rejected;
        self.suffix_pruned += other.suffix_pruned;
        self.verified += other.verified;
        self.results += other.results;
    }
}

/// Publish a funnel into the global `simjoin.funnel.*` observability
/// counters — the shared export path of both drivers, so one export
/// shows the whole machine pass as a single funnel. Called once per
/// join/probe, not per candidate, so the cost is a handful of relaxed
/// atomics.
pub fn publish_funnel(stats: &JoinStats) {
    if !crowder_obs::recording() {
        return;
    }
    crowder_obs::counter!("simjoin.funnel.candidates").add(stats.candidates);
    crowder_obs::counter!("simjoin.funnel.positional_pruned").add(stats.positional_pruned);
    crowder_obs::counter!("simjoin.funnel.space_pruned").add(stats.space_pruned);
    crowder_obs::counter!("simjoin.funnel.signature_rejected").add(stats.signature_rejected);
    crowder_obs::counter!("simjoin.funnel.suffix_pruned").add(stats.suffix_pruned);
    crowder_obs::counter!("simjoin.funnel.verified").add(stats.verified);
    crowder_obs::counter!("simjoin.funnel.results").add(stats.results);
}

/// One index entry: the indexed record and its length, the token's
/// position in that record's rank-sorted list, and its count-filter
/// tier (0 inside the base prefix, `n ≥ 1` for the n-th frontier token
/// — only probes at level `> n` count it).
#[derive(Debug, Clone, Copy)]
struct Posting {
    len: u32,
    record: u32,
    /// `pos << 2 | tier`, which keeps a posting at 12 bytes.
    pos_tier: u32,
}

// Tiers run up to `MAX_PREFIX_EXT − 1` and must fit in two bits.
const _: () = assert!(MAX_PREFIX_EXT <= 4);

impl Posting {
    #[inline]
    fn key(&self) -> (u32, u32) {
        (self.len, self.record)
    }

    #[inline]
    fn pos(&self) -> u32 {
        self.pos_tier >> 2
    }

    #[inline]
    fn tier(&self) -> usize {
        (self.pos_tier & 3) as usize
    }
}

/// One rank's postings in ascending `(len, record)` order, plus the
/// exact count of live postings.
#[derive(Debug, Clone, Default)]
struct PostingList {
    postings: Vec<Posting>,
    live: u32,
}

/// The rank-keyed, length-ordered posting table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct PostingTable {
    /// Rank of `lists[0]`.
    base: u32,
    lists: Vec<PostingList>,
}

impl PostingTable {
    /// An empty table whose dense window already spans `ranks`.
    pub fn with_ranks(ranks: std::ops::Range<u32>) -> Self {
        PostingTable {
            base: ranks.start,
            lists: ranks.map(|_| PostingList::default()).collect(),
        }
    }

    fn list(&self, rank: u32) -> Option<&PostingList> {
        self.lists.get(rank.checked_sub(self.base)? as usize)
    }

    /// The list of `rank`, widening the dense window to reach it.
    fn list_mut(&mut self, rank: u32) -> &mut PostingList {
        if self.lists.is_empty() {
            self.base = rank;
        }
        if rank < self.base {
            // Grow the front by at least the window's size, so a band
            // growing downward costs amortized O(1) per new rank.
            let grow = (self.base - rank)
                .max(self.lists.len() as u32)
                .min(self.base);
            self.lists
                .splice(0..0, (0..grow).map(|_| PostingList::default()));
            self.base -= grow;
        }
        let at = (rank - self.base) as usize;
        if at >= self.lists.len() {
            self.lists.resize_with(at + 1, PostingList::default);
        }
        &mut self.lists[at]
    }

    /// Live postings under `rank` — the level choice's selectivity
    /// estimate.
    fn live(&self, rank: u32) -> u64 {
        self.list(rank).map_or(0, |l| l.live as u64)
    }

    /// Index `record`'s extended window: its first `base` tokens plus
    /// the tiered frontier tokens. `doc` must be non-empty and sorted by
    /// rank. Inserting records in ascending `(len, id)` order appends
    /// every posting at the end of its list.
    pub fn insert(&mut self, record: u32, doc: &[u32], base: usize) {
        let len = doc.len() as u32;
        let window = extended_prefix_len(base, doc.len());
        assert!(window <= 1 << 30, "indexed prefix too long to pack");
        for (pos, &rank) in doc[..window].iter().enumerate() {
            let list = self.list_mut(rank);
            list.live += 1;
            let posting = Posting {
                len,
                record,
                pos_tier: (pos as u32) << 2 | posting_tier(pos, base) as u32,
            };
            match list.postings.last() {
                Some(last) if last.key() > posting.key() => {
                    let at = list.postings.partition_point(|p| p.key() < posting.key());
                    list.postings.insert(at, posting);
                }
                _ => list.postings.push(posting),
            }
        }
    }

    /// Drop the postings [`PostingTable::insert`] made for a live
    /// `record` with the same `doc` and `base`.
    pub fn strip(&mut self, record: u32, doc: &[u32], base: usize) {
        let key = (doc.len() as u32, record);
        for &rank in &doc[..extended_prefix_len(base, doc.len())] {
            let list = self.list_mut(rank);
            if let Ok(at) = list.postings.binary_search_by_key(&key, Posting::key) {
                list.postings.remove(at);
                list.live -= 1;
            }
        }
    }

    /// Settle the live counts of a record that was just tombstoned: its
    /// postings stay until [`PostingTable::sweep`] or a rebuild, but the
    /// level choice stops counting them at once.
    pub fn retire(&mut self, doc: &[u32], base: usize) {
        for &rank in &doc[..extended_prefix_len(base, doc.len())] {
            self.list_mut(rank).live -= 1;
        }
    }

    /// Drop the postings of every record for which `alive` is false.
    pub fn sweep(&mut self, alive: &[bool]) {
        for list in &mut self.lists {
            list.postings.retain(|p| alive[p.record as usize]);
        }
    }

    /// Forget every posting.
    pub fn clear(&mut self) {
        self.lists.clear();
    }

    /// Run the two-phase probe of `q` (see the module docs). `alive`
    /// says whether an indexed record may still match, `space_ok`
    /// whether the pair with `y` is in the candidate space; every match
    /// is handed to `emit` as `(y, similarity)`, in no particular order.
    /// Requires `0 < threshold ≤ 1`.
    pub fn probe<D: AsRef<[u32]>>(
        &self,
        q: &Probe<'_, D>,
        alive: impl Fn(u32) -> bool,
        space_ok: impl Fn(u32) -> bool,
        scratch: &mut Scratch,
        stats: &mut JoinStats,
        mut emit: impl FnMut(u32, f64),
    ) {
        let (doc, t) = (q.doc, q.threshold);
        let lx = doc.len();
        if lx == 0 {
            return; // Jaccard with an empty set is 0 < threshold.
        }
        let base = prefix_len(lx, t);
        let min_len = min_match_len(lx, t) as u32;
        // Postings are scanned up to the key `(max_len, stop)`: with
        // `before`, the records ahead of x in (len, id) order.
        let (max_len, stop) = match q.before {
            Some(x) => (lx as u32, x),
            None => (max_match_len(lx, t).min(u32::MAX as usize) as u32, u32::MAX),
        };

        // Level choice. The cap ⌈t·lx⌉ also keeps the frontier index in
        // range: base + level − 1 < lx whenever level < ⌈t·lx⌉.
        let level_cap = MAX_PREFIX_EXT.min(min_len as usize);
        let mut level = 1usize;
        if level_cap > 1 {
            let mut scanned: u64 = doc[..base].iter().map(|&r| self.live(r)).sum();
            while level < level_cap {
                let frontier = self.live(doc[base + level - 1]);
                if !extend_prefix(scanned, frontier) {
                    break;
                }
                scanned += frontier;
                level += 1;
            }
        }
        let window = (base + level - 1).min(lx);

        // Phase 1: first hit and hit count per candidate.
        let stamp = scratch.next_stamp();
        let Scratch {
            seen,
            cnt,
            best_i,
            best_j,
            cand,
            ..
        } = scratch;
        cand.clear();
        for (i, &rank) in doc[..window].iter().enumerate() {
            let Some(list) = self.list(rank) else {
                continue;
            };
            // The length window of the `(len, record)`-ordered list: a
            // binary search finds its start, the scan stops at `end`. At
            // level 1 the truncation cutoff is the upper edge.
            let cut = positional_len_cutoff(lx, i, t).min(u32::MAX as usize) as u32;
            let end = if level == 1 && cut < max_len {
                (cut, u32::MAX)
            } else {
                (max_len, stop)
            };
            let lo = list.postings.partition_point(|p| p.len < min_len);
            for p in &list.postings[lo..] {
                if p.key() >= end {
                    break;
                }
                if p.tier() >= level || !alive(p.record) {
                    continue;
                }
                let y = p.record as usize;
                if seen[y] == stamp {
                    cnt[y] = cnt[y].saturating_add(1);
                } else if p.len <= cut {
                    seen[y] = stamp;
                    cnt[y] = 1;
                    best_i[y] = i as u32;
                    best_j[y] = p.pos();
                    cand.push(p.record);
                }
            }
        }

        // Phase 2: count filter, then filter + verify.
        for &yc in cand.iter() {
            let y = yc as usize;
            if (cnt[y] as usize) < level {
                continue;
            }
            stats.candidates += 1;
            let ydoc = q.docs[y].as_ref();
            let ly = ydoc.len();
            let (i, j) = (best_i[y] as usize, best_j[y] as usize);
            // Positional filter at the pair's first shared token: overlap
            // so far is exactly 1, and at most min of the remaining tails.
            let alpha = min_overlap(lx, ly, t);
            let upper = 1 + (lx - i - 1).min(ly - j - 1);
            if upper < alpha {
                stats.positional_pruned += 1;
                continue;
            }
            if !space_ok(yc) {
                stats.space_pruned += 1;
                continue;
            }
            // Band-signature reject: popcount(sig_x ^ sig_y) lower-bounds
            // |x Δ y|, which a qualifying pair keeps ≤ lx + ly − 2α. The
            // check self-gates to short records (bound < 256) and runs
            // before the costlier suffix filter; `upper ≥ α` above
            // guarantees `2α ≤ lx + ly`.
            let sig_budget = lx + ly - 2 * alpha;
            if sig_budget < 256 && q.sig.distance_lb(&q.sigs[y]) > sig_budget {
                stats.signature_rejected += 1;
                continue;
            }
            // Suffix filter: the suffixes past the first shared token must
            // contribute the remaining α − 1 overlap, so their Hamming
            // distance is bounded by |xs| + |ys| − 2(α − 1).
            let (xs, ys) = (&doc[i + 1..], &ydoc[j + 1..]);
            if alpha > 1 {
                let hmax = xs.len() + ys.len() - 2 * (alpha - 1);
                if suffix_hamming_lb(xs, ys, hmax, SUFFIX_FILTER_DEPTH) > hmax {
                    stats.suffix_pruned += 1;
                    continue;
                }
            }
            // Resume-merge verification from (i + 1, j + 1).
            stats.verified += 1;
            let Some(suffix_overlap) = overlap_reaching(xs, ys, alpha.saturating_sub(1)) else {
                continue;
            };
            let o = 1 + suffix_overlap;
            let sim = o as f64 / (lx + ly - o) as f64;
            if sim >= t {
                stats.results += 1;
                emit(yc, sim);
            }
        }
    }
}

/// One probe of [`PostingTable::probe`]: the probing record and the
/// indexed corpus it is verified against.
pub struct Probe<'a, D> {
    /// The probing record's rank-sorted token list.
    pub doc: &'a [u32],
    /// Its band signature.
    pub sig: &'a BandSignature,
    /// Join threshold, `0 < threshold ≤ 1`.
    pub threshold: f64,
    /// The batch join's self-join order: `Some(x)` reaches only indexed
    /// records before record `x` in `(len, id)` order. `None` reaches
    /// every indexed record in the length window.
    pub before: Option<u32>,
    /// Rank-sorted token lists of the indexed records, by record id.
    pub docs: &'a [D],
    /// Band signatures of the indexed records, by record id.
    pub sigs: &'a [BandSignature],
}

/// Per-prober accumulators of phase 1: candidate dedup, hit counts and
/// first-hit positions, indexed by record id. `cnt`, `best_i` and
/// `best_j` are valid only where `seen` carries the current probe's
/// stamp, so nothing is cleared between probes.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    seen: Vec<u32>,
    stamp: u32,
    cnt: Vec<u8>,
    best_i: Vec<u32>,
    best_j: Vec<u32>,
    cand: Vec<u32>,
}

impl Scratch {
    /// Scratch for probing a corpus of `n` records.
    pub fn new(n: usize) -> Self {
        let mut scratch = Scratch::default();
        scratch.resize(n);
        scratch
    }

    /// Make room for records `0..n`.
    pub fn resize(&mut self, n: usize) {
        self.seen.resize(n, 0);
        self.cnt.resize(n, 0);
        self.best_i.resize(n, 0);
        self.best_j.resize(n, 0);
    }

    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }
}
