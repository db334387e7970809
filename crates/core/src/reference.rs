//! Scalar reference kernels: the pre-optimization, one-block-at-a-time
//! implementations of the [`ItemSet`] algebra, kept
//! verbatim as the ground truth the fast paths are measured against.
//!
//! Two consumers:
//!
//! * the differential proptests (`crates/core/tests/differential_kernels.rs`)
//!   assert every fast-path kernel (inline representation, single-block
//!   early exits, 4-blocks-per-iteration chunked loops) is **bit-identical**
//!   to these functions on arbitrary inputs;
//! * `qp-bench bench_kernels` uses them as the *before* rows of
//!   `BENCH_kernels.json`.
//!
//! These run at the old speed on purpose — they allocate a fresh `Vec<u64>`
//! per call (as the original implementation did) and never take the inline
//! or chunked paths. Do not "fix" them.

use crate::ItemSet;

/// Reference `a ∪ b`: clone the longer operand's blocks, OR the shorter in.
pub fn union(a: &ItemSet, b: &ItemSet) -> ItemSet {
    let (long, short) = if a.as_blocks().len() >= b.as_blocks().len() {
        (a.as_blocks(), b.as_blocks())
    } else {
        (b.as_blocks(), a.as_blocks())
    };
    let mut blocks = long.to_vec();
    for (dst, src) in blocks.iter_mut().zip(short) {
        *dst |= *src;
    }
    ItemSet::from_heap_blocks(blocks)
}

/// Reference `a ∩ b`: zip-map-collect over the common prefix.
pub fn intersection(a: &ItemSet, b: &ItemSet) -> ItemSet {
    let blocks: Vec<u64> = a
        .as_blocks()
        .iter()
        .zip(b.as_blocks())
        .map(|(x, y)| x & y)
        .collect();
    ItemSet::from_heap_blocks(blocks)
}

/// Reference `a \ b`: clone `a`, mask `b` out blockwise.
pub fn difference(a: &ItemSet, b: &ItemSet) -> ItemSet {
    let mut blocks = a.as_blocks().to_vec();
    for (dst, src) in blocks.iter_mut().zip(b.as_blocks()) {
        *dst &= !*src;
    }
    ItemSet::from_heap_blocks(blocks)
}

/// Reference `|a ∩ b|`: single zip-popcount pass, one block per iteration.
pub fn intersection_len(a: &ItemSet, b: &ItemSet) -> usize {
    a.as_blocks()
        .iter()
        .zip(b.as_blocks())
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Reference `a ⊆ b`: block-count check, then per-block stray-bit test.
pub fn is_subset(a: &ItemSet, b: &ItemSet) -> bool {
    let (a, b) = (a.as_blocks(), b.as_blocks());
    if a.len() > b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// Reference `a ∩ b = ∅`: per-block overlap test.
pub fn is_disjoint(a: &ItemSet, b: &ItemSet) -> bool {
    a.as_blocks()
        .iter()
        .zip(b.as_blocks())
        .all(|(x, y)| x & y == 0)
}
