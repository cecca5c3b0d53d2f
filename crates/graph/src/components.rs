//! Connected-component extraction.
//!
//! Algorithm 1 of the paper begins by splitting the pair graph into
//! connected components and classifying them as *small* (≤ k vertices)
//! or *large* (> k). The split is computed here; classification lives
//! with the two-tiered generator.

use crate::unionfind::UnionFind;
use crowder_types::{Pair, RecordId};

/// Partition a pair list by connected component: returns, for each
/// component, the pairs whose endpoints both lie in it (which is all the
/// pairs touching it, since pairs are edges). Components are ordered by
/// their smallest record and each group is sorted and deduplicated, so
/// the output is deterministic.
pub fn pairs_by_component(pairs: &[Pair]) -> Vec<Vec<Pair>> {
    // Dense index over the touched records, ascending.
    let mut records: Vec<RecordId> = pairs.iter().flat_map(|p| [p.lo(), p.hi()]).collect();
    records.sort_unstable();
    records.dedup();
    let dense = |r: RecordId| records.binary_search(&r).expect("touched record");
    let mut uf = UnionFind::new(records.len());
    for pair in pairs {
        uf.union(dense(pair.lo()), dense(pair.hi()));
    }
    // Label each root by its component's smallest member.
    let mut label = vec![usize::MAX; records.len()];
    let mut components = 0;
    for v in 0..records.len() {
        let root = uf.find(v);
        if label[root] == usize::MAX {
            label[root] = components;
            components += 1;
        }
    }
    let mut out: Vec<Vec<Pair>> = vec![Vec::new(); components];
    for pair in pairs {
        out[label[uf.find(dense(pair.lo()))]].push(*pair);
    }
    for group in &mut out {
        group.sort();
        group.dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure5_pairs() -> Vec<Pair> {
        vec![
            Pair::of(1, 2),
            Pair::of(2, 3),
            Pair::of(1, 7),
            Pair::of(2, 7),
            Pair::of(3, 4),
            Pair::of(3, 5),
            Pair::of(4, 5),
            Pair::of(4, 6),
            Pair::of(4, 7),
            Pair::of(8, 9),
        ]
    }

    #[test]
    fn figure5_has_two_components() {
        // Paper §5.1: the Figure 5 graph consists of two connected
        // components — {r1..r7} (an LCC at k=4) and {r8, r9} (an SCC).
        let split = pairs_by_component(&figure5_pairs());
        assert_eq!(split.len(), 2);
        let mut members: Vec<RecordId> = split[0].iter().flat_map(|p| [p.lo(), p.hi()]).collect();
        members.sort_unstable();
        members.dedup();
        assert_eq!(members, (1..=7).map(RecordId).collect::<Vec<_>>());
        assert_eq!(split[1], vec![Pair::of(8, 9)]);
    }

    #[test]
    fn pairs_by_component_splits_edges() {
        let split = pairs_by_component(&figure5_pairs());
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].len(), 9);
        assert_eq!(split[1], vec![Pair::of(8, 9)]);
    }

    #[test]
    fn empty_input() {
        assert!(pairs_by_component(&[]).is_empty());
    }

    #[test]
    fn singleton_edges_are_their_own_components() {
        let pairs = vec![Pair::of(0, 1), Pair::of(2, 3), Pair::of(4, 5)];
        let split = pairs_by_component(&pairs);
        assert_eq!(split.len(), 3);
        assert_eq!(split[1], vec![Pair::of(2, 3)]);
    }
}
