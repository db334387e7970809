//! The [`ItemSet`] bitset and its cache-hot kernels.
//!
//! # Representation: inline small sets, transparent heap spill
//!
//! Most conflict sets in the paper's workloads touch few support databases,
//! so the common case is a set whose highest item fits in one or two u64
//! blocks (items `0..128`). [`ItemSet`] therefore stores up to
//! [`INLINE_BLOCKS`] blocks **inline** (SmallVec-style, no heap allocation)
//! and spills to a `Vec<u64>` only when an item ≥ 128 arrives:
//!
//! ```text
//!   Inline { len: 0..=2, blocks: [u64; 2] }   items 0..128, zero allocs
//!   Heap(Vec<u64>)                            any items, one allocation
//! ```
//!
//! The spill is one-way within a set's lifetime ([`ItemSet::clear`] and the
//! shrinking operators keep a spilled set's buffer so it can be refilled
//! allocation-free), but **never observable**: every comparison, hash, and
//! ordering goes through the logical block slice ([`ItemSet::as_blocks`]), so
//! an inline set and a heap set holding the same items are equal, hash equal
//! (both `std::hash::Hash` and [`ItemSet::stable_hash`]), and compare equal
//! — the representation-independence the quote caches and shard router
//! rely on.
//!
//! Both representations maintain the canonical-form invariant: **no
//! trailing zero blocks** (inline: `blocks[len..]` is all zero and
//! `blocks[len-1] != 0` when `len > 0`; heap: the last block is non-zero).
//!
//! # Kernels
//!
//! The set algebra has two tiers, both bit-identical to the scalar
//! reference implementations in [`crate::reference`] (the differential
//! proptests in `tests/differential_kernels.rs` pin this):
//!
//! * **small paths** — operands within the inline capacity (plus
//!   single-block early exits for the query kernels) run fixed-size loops
//!   with no allocation at all;
//! * **chunked loops** — larger operands process four blocks per iteration
//!   with independent accumulators, the shape LLVM autovectorizes.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

pub(crate) const BLOCK_BITS: usize = 64;

/// Blocks stored without heap allocation; items `0..INLINE_BLOCKS * 64`
/// never spill.
pub const INLINE_BLOCKS: usize = 2;

/// A set of item indices (support-database ids), stored as a bitset.
///
/// Items are `usize` indices; membership of item `i` is bit `i % 64` of
/// block `i / 64`. Sets whose blocks fit [`INLINE_BLOCKS`] are stored
/// inline without heap allocation and spill transparently (see the module
/// docs). The representation maintains the invariant that the highest
/// stored block is non-zero (no trailing zero blocks), so logical equality
/// over [`ItemSet::as_blocks`] (`==`, `Hash`, `Ord`,
/// [`ItemSet::stable_hash`]) coincides with set equality regardless of
/// which representation holds the blocks.
///
/// Iteration ([`ItemSet::iter`]) yields items in increasing order, matching
/// the sorted `Vec<usize>` representation this type replaced.
#[derive(Clone)]
pub struct ItemSet {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Up to [`INLINE_BLOCKS`] blocks, no heap. `blocks[len..]` is all
    /// zero; `blocks[len - 1]` is non-zero when `len > 0`.
    Inline {
        len: u8,
        blocks: [u64; INLINE_BLOCKS],
    },
    /// Spilled storage; the last block is non-zero. A heap set may hold
    /// fewer than `INLINE_BLOCKS` live blocks (after removals or a
    /// [`ItemSet::clear`]) — the buffer is kept so refills stay
    /// allocation-free.
    Heap(Vec<u64>),
}

impl Default for ItemSet {
    fn default() -> ItemSet {
        ItemSet::new()
    }
}

impl PartialEq for ItemSet {
    #[inline]
    fn eq(&self, other: &ItemSet) -> bool {
        self.as_blocks() == other.as_blocks()
    }
}

impl Eq for ItemSet {}

/// Hashing over the logical block slice. Because neither representation
/// stores trailing zero blocks (see [`ItemSet`]), hashing `as_blocks()`
/// gives `a == b ⇒ hash(a) == hash(b)` regardless of how the two sets were
/// built (insert order, removals, set algebra, inline vs spilled). Keyed
/// collections (`HashMap<ItemSet, _>` quote caches, dedup sets) rely on
/// this.
impl Hash for ItemSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_blocks().hash(state);
    }
}

impl PartialOrd for ItemSet {
    fn partial_cmp(&self, other: &ItemSet) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Orders sets by their value as a big-endian bitset integer: block count
/// first (the top block is never zero, so more blocks means a larger
/// number), then blocks from most to least significant.
///
/// Equivalently: `a < b` iff the largest item in the symmetric difference
/// belongs to `b`. This order is **consistent with subset**: `a ⊆ b`
/// implies `a ≤ b` (dropping bits can only decrease the integer), which is
/// what sorted containers of bundles (e.g. `BTreeMap` price tables) need to
/// agree with the pricing functions' monotonicity direction.
impl Ord for ItemSet {
    fn cmp(&self, other: &ItemSet) -> Ordering {
        let (a, b) = (self.as_blocks(), other.as_blocks());
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }
}

impl ItemSet {
    /// Creates an empty set (inline, no allocation).
    #[inline]
    pub fn new() -> ItemSet {
        ItemSet {
            repr: Repr::Inline {
                len: 0,
                blocks: [0; INLINE_BLOCKS],
            },
        }
    }

    /// Creates an empty set with room for items `0..n` without reallocating.
    /// Capacities within the inline range stay inline (and allocate
    /// nothing).
    pub fn with_capacity(n: usize) -> ItemSet {
        let blocks = n.div_ceil(BLOCK_BITS);
        if blocks <= INLINE_BLOCKS {
            ItemSet::new()
        } else {
            ItemSet {
                repr: Repr::Heap(Vec::with_capacity(blocks)),
            }
        }
    }

    /// An inline set from a fixed block array (trailing zeros trimmed by
    /// construction of `len`).
    #[inline]
    fn inline_from(blocks: [u64; INLINE_BLOCKS]) -> ItemSet {
        let mut len = INLINE_BLOCKS as u8;
        while len > 0 && blocks[len as usize - 1] == 0 {
            len -= 1;
        }
        ItemSet {
            repr: Repr::Inline { len, blocks },
        }
    }

    /// A heap-backed set from raw blocks, normalizing trailing zeros but
    /// **keeping the heap representation** even when the result would fit
    /// inline — the constructor the scalar reference kernels use so spilled
    /// buffers survive.
    pub(crate) fn from_heap_blocks(mut blocks: Vec<u64>) -> ItemSet {
        while blocks.last() == Some(&0) {
            blocks.pop();
        }
        ItemSet {
            repr: Repr::Heap(blocks),
        }
    }

    /// Whether the blocks are stored inline (no heap allocation). Exposed
    /// for representation tests and allocation accounting; never affects
    /// observable set behavior.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Moves an inline representation to the heap with room for
    /// `min_blocks`.
    fn spill(&mut self, min_blocks: usize) {
        if let Repr::Inline { len, blocks } = &self.repr {
            let (len, blocks) = (*len as usize, *blocks);
            let mut v = Vec::with_capacity(min_blocks.max(INLINE_BLOCKS));
            v.extend_from_slice(&blocks[..len]);
            self.repr = Repr::Heap(v);
        }
    }

    /// Inserts `item`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, item: usize) -> bool {
        let (block, bit) = (item / BLOCK_BITS, item % BLOCK_BITS);
        let mask = 1u64 << bit;
        match &mut self.repr {
            Repr::Inline { len, blocks } if block < INLINE_BLOCKS => {
                let fresh = blocks[block] & mask == 0;
                blocks[block] |= mask;
                *len = (*len).max(block as u8 + 1);
                return fresh;
            }
            Repr::Inline { .. } => self.spill(block + 1),
            Repr::Heap(_) => {}
        }
        let Repr::Heap(v) = &mut self.repr else {
            unreachable!("spill always lands on the heap representation")
        };
        if block >= v.len() {
            v.resize(block + 1, 0);
        }
        let fresh = v[block] & mask == 0;
        v[block] |= mask;
        fresh
    }

    /// Removes `item`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, item: usize) -> bool {
        let (block, bit) = (item / BLOCK_BITS, item % BLOCK_BITS);
        let mask = 1u64 << bit;
        let blocks = self.blocks_mut();
        if block >= blocks.len() {
            return false;
        }
        let present = blocks[block] & mask != 0;
        blocks[block] &= !mask;
        self.normalize();
        present
    }

    /// Empties the set, keeping a spilled buffer for allocation-free
    /// refills.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, blocks } => {
                *blocks = [0; INLINE_BLOCKS];
                *len = 0;
            }
            Repr::Heap(v) => v.clear(),
        }
    }

    /// Whether `item` is in the set.
    #[inline]
    pub fn contains(&self, item: usize) -> bool {
        self.as_blocks()
            .get(item / BLOCK_BITS)
            .is_some_and(|b| b & (1u64 << (item % BLOCK_BITS)) != 0)
    }

    /// Number of items in the set (popcount over the blocks).
    #[inline]
    pub fn len(&self) -> usize {
        self.as_blocks()
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum()
    }

    /// True if the set has no items. O(1): the no-trailing-zero-blocks
    /// invariant means an empty logical block slice *is* the empty set —
    /// no block scan, no popcount.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_blocks().is_empty()
    }

    /// The largest item, if any.
    #[inline]
    pub fn max_item(&self) -> Option<usize> {
        let blocks = self.as_blocks();
        let last = *blocks.last()?;
        Some((blocks.len() - 1) * BLOCK_BITS + (BLOCK_BITS - 1 - last.leading_zeros() as usize))
    }

    /// Iterates the items in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        let blocks = self.as_blocks();
        Iter {
            blocks,
            block_idx: 0,
            current: blocks.first().copied().unwrap_or(0),
        }
    }

    /// The items as a sorted `Vec` (the legacy representation).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The union `self ∪ other`.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let (a, b) = (self.as_blocks(), other.as_blocks());
        if a.len() <= INLINE_BLOCKS && b.len() <= INLINE_BLOCKS {
            // Small path: both operands fit inline, so does the union.
            let mut out = [0u64; INLINE_BLOCKS];
            out[..a.len()].copy_from_slice(a);
            for (d, s) in out.iter_mut().zip(b) {
                *d |= *s;
            }
            return ItemSet::inline_from(out);
        }
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut v = Vec::with_capacity(long.len());
        v.extend_from_slice(long);
        or_blocks(&mut v[..short.len()], short);
        // `long`'s top block is non-zero and OR cannot clear it, so the
        // result is already normalized.
        ItemSet {
            repr: Repr::Heap(v),
        }
    }

    /// The intersection `self ∩ other`.
    pub fn intersection(&self, other: &ItemSet) -> ItemSet {
        let (a, b) = (self.as_blocks(), other.as_blocks());
        let n = a.len().min(b.len());
        if n <= INLINE_BLOCKS {
            // Small path: the intersection is at most `n` blocks.
            let mut out = [0u64; INLINE_BLOCKS];
            for (d, (x, y)) in out.iter_mut().zip(a[..n].iter().zip(&b[..n])) {
                *d = x & y;
            }
            return ItemSet::inline_from(out);
        }
        let mut v = Vec::with_capacity(n);
        v.extend_from_slice(&a[..n]);
        and_blocks(&mut v, &b[..n]);
        let mut out = ItemSet {
            repr: Repr::Heap(v),
        };
        out.normalize();
        out
    }

    /// The difference `self \ other`.
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        let (a, b) = (self.as_blocks(), other.as_blocks());
        if a.len() <= INLINE_BLOCKS {
            // Small path: the difference is at most `a`'s blocks.
            let mut out = [0u64; INLINE_BLOCKS];
            out[..a.len()].copy_from_slice(a);
            for (d, s) in out.iter_mut().zip(b) {
                *d &= !*s;
            }
            return ItemSet::inline_from(out);
        }
        let mut v = Vec::with_capacity(a.len());
        v.extend_from_slice(a);
        let n = a.len().min(b.len());
        andnot_blocks(&mut v[..n], &b[..n]);
        let mut out = ItemSet {
            repr: Repr::Heap(v),
        };
        out.normalize();
        out
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &ItemSet) {
        let n = other.as_blocks().len();
        if n > self.as_blocks().len() {
            self.grow_to(n);
        }
        or_blocks(&mut self.blocks_mut()[..n], other.as_blocks());
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &ItemSet) {
        let n = other.as_blocks().len().min(self.as_blocks().len());
        self.truncate_blocks(n);
        and_blocks(self.blocks_mut(), &other.as_blocks()[..n]);
        self.normalize();
    }

    /// In-place difference: `self \= other`.
    pub fn difference_with(&mut self, other: &ItemSet) {
        let n = other.as_blocks().len().min(self.as_blocks().len());
        andnot_blocks(&mut self.blocks_mut()[..n], &other.as_blocks()[..n]);
        self.normalize();
    }

    /// `|self ∩ other|` without materializing the intersection.
    #[inline]
    pub fn intersection_len(&self, other: &ItemSet) -> usize {
        let (a, b) = (self.as_blocks(), other.as_blocks());
        let n = a.len().min(b.len());
        match n {
            0 => 0,
            // Single-block fast path: one AND, one popcount.
            1 => (a[0] & b[0]).count_ones() as usize,
            _ => popcount_and(&a[..n], &b[..n]),
        }
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &ItemSet) -> bool {
        let (a, b) = (self.as_blocks(), other.as_blocks());
        if a.len() > b.len() {
            return false; // invariant: the top block is non-zero
        }
        match a.len() {
            0 => true,
            // Single-block fast path.
            1 => a[0] & !b[0] == 0,
            n => subset_blocks(a, &b[..n]),
        }
    }

    /// Whether `self ∩ other = ∅`.
    #[inline]
    pub fn is_disjoint(&self, other: &ItemSet) -> bool {
        let (a, b) = (self.as_blocks(), other.as_blocks());
        let n = a.len().min(b.len());
        match n {
            0 => true,
            // Single-block fast path.
            1 => a[0] & b[0] == 0,
            _ => disjoint_blocks(&a[..n], &b[..n]),
        }
    }

    /// The subset of items `< k` (used to restrict a hypergraph to a support
    /// prefix). O(k/64) regardless of set size.
    pub fn restricted_below(&self, k: usize) -> ItemSet {
        let blocks = self.as_blocks();
        let full_blocks = k / BLOCK_BITS;
        let take = blocks.len().min(full_blocks + 1);
        if take <= INLINE_BLOCKS {
            let mut out = [0u64; INLINE_BLOCKS];
            out[..take].copy_from_slice(&blocks[..take]);
            if full_blocks < take {
                out[full_blocks] &= (1u64 << (k % BLOCK_BITS)) - 1; // k % 64 == 0 masks to 0
            }
            return ItemSet::inline_from(out);
        }
        let mut v = Vec::with_capacity(take);
        v.extend_from_slice(&blocks[..take]);
        if let Some(partial) = v.get_mut(full_blocks) {
            *partial &= (1u64 << (k % BLOCK_BITS)) - 1; // k % 64 == 0 masks to 0
        }
        let mut out = ItemSet {
            repr: Repr::Heap(v),
        };
        out.normalize();
        out
    }

    /// The raw u64 blocks, least-significant first, with no trailing zero
    /// block. This is the set's canonical wire form: two equal sets expose
    /// identical block slices **whether their blocks live inline or on the
    /// heap**.
    #[inline]
    pub fn as_blocks(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { len, blocks } => &blocks[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Rebuilds a set from raw blocks (e.g. decoded off the wire). Trailing
    /// zero blocks are dropped and small results land in the inline
    /// representation, so the result upholds the canonical form no matter
    /// what the peer sent.
    pub fn from_blocks(mut blocks: Vec<u64>) -> ItemSet {
        while blocks.last() == Some(&0) {
            blocks.pop();
        }
        if blocks.len() <= INLINE_BLOCKS {
            let mut inline = [0u64; INLINE_BLOCKS];
            inline[..blocks.len()].copy_from_slice(&blocks);
            ItemSet::inline_from(inline)
        } else {
            ItemSet {
                repr: Repr::Heap(blocks),
            }
        }
    }

    /// A process- and platform-independent 64-bit hash (FNV-1a over the
    /// block bytes, least-significant block first).
    ///
    /// `std::hash::Hash` goes through `RandomState`, which is seeded per
    /// process; shard routing and on-disk artifacts need the *same* bundle
    /// to land on the same shard across runs and across the client/server
    /// boundary, which this provides. Equal sets always agree: the hash
    /// reads the logical block slice, which stores no trailing zero blocks
    /// in either representation.
    #[inline]
    pub fn stable_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for &block in self.as_blocks() {
            for byte in block.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// Mutable view of the live blocks (inline: the `len` prefix).
    #[inline]
    fn blocks_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline { len, blocks } => &mut blocks[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Grows the live block count to exactly `n` (new blocks zero),
    /// spilling if `n` exceeds the inline capacity. Callers must write a
    /// non-zero top block before the set escapes (union does).
    fn grow_to(&mut self, n: usize) {
        match &mut self.repr {
            Repr::Inline { len, .. } if n <= INLINE_BLOCKS => *len = n as u8,
            Repr::Inline { .. } => {
                self.spill(n);
                let Repr::Heap(v) = &mut self.repr else {
                    unreachable!("spill always lands on the heap representation")
                };
                v.resize(n, 0);
            }
            Repr::Heap(v) => v.resize(n, 0),
        }
    }

    /// Shrinks the live block count to at most `n`, zeroing dropped inline
    /// blocks (the `blocks[len..] == 0` invariant) and keeping heap
    /// capacity.
    fn truncate_blocks(&mut self, n: usize) {
        match &mut self.repr {
            Repr::Inline { len, blocks } => {
                for b in blocks.iter_mut().take(*len as usize).skip(n) {
                    *b = 0;
                }
                *len = (*len).min(n as u8);
            }
            Repr::Heap(v) => v.truncate(n),
        }
    }

    /// Drops trailing zero blocks, restoring the canonical form.
    fn normalize(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, blocks } => {
                while *len > 0 && blocks[*len as usize - 1] == 0 {
                    *len -= 1;
                }
            }
            Repr::Heap(v) => {
                while v.last() == Some(&0) {
                    v.pop();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked block kernels
// ---------------------------------------------------------------------------
//
// Each helper processes four blocks per iteration with independent lanes —
// no cross-lane dependency inside an iteration — which is the shape LLVM
// turns into SIMD on targets with 128/256-bit vector units. The scalar
// remainder loop handles the final `len % 4` blocks. All are bit-identical
// to the one-block-at-a-time reference kernels in `crate::reference`.

/// `dst |= src`, blockwise; slices must be the same length.
#[inline]
fn or_blocks(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let split = dst.len() - dst.len() % 4;
    let (dc, dr) = dst.split_at_mut(split);
    let (sc, sr) = src.split_at(split);
    for (d, s) in dc.chunks_exact_mut(4).zip(sc.chunks_exact(4)) {
        d[0] |= s[0];
        d[1] |= s[1];
        d[2] |= s[2];
        d[3] |= s[3];
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d |= *s;
    }
}

/// `dst &= src`, blockwise; slices must be the same length.
#[inline]
fn and_blocks(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let split = dst.len() - dst.len() % 4;
    let (dc, dr) = dst.split_at_mut(split);
    let (sc, sr) = src.split_at(split);
    for (d, s) in dc.chunks_exact_mut(4).zip(sc.chunks_exact(4)) {
        d[0] &= s[0];
        d[1] &= s[1];
        d[2] &= s[2];
        d[3] &= s[3];
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d &= *s;
    }
}

/// `dst &= !src`, blockwise; slices must be the same length.
#[inline]
fn andnot_blocks(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let split = dst.len() - dst.len() % 4;
    let (dc, dr) = dst.split_at_mut(split);
    let (sc, sr) = src.split_at(split);
    for (d, s) in dc.chunks_exact_mut(4).zip(sc.chunks_exact(4)) {
        d[0] &= !s[0];
        d[1] &= !s[1];
        d[2] &= !s[2];
        d[3] &= !s[3];
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d &= !*s;
    }
}

/// `popcount(a & b)`; slices must be the same length.
///
/// Deliberately *not* hand-chunked like the bitwise kernels above: popcount
/// is a pure reduction with no stores, and the compiler already unrolls
/// this zip into an optimal `popcnt` chain — `qp-bench bench_kernels` showed the
/// manual 4-lane split/remainder form consistently ~10% slower.
#[inline]
fn popcount_and(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// `a & !b == 0` over all blocks (subset test); slices must be the same
/// length.
#[inline]
fn subset_blocks(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % 4;
    for (x, y) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        let stray = (x[0] & !y[0]) | (x[1] & !y[1]) | (x[2] & !y[2]) | (x[3] & !y[3]);
        if stray != 0 {
            return false;
        }
    }
    a[split..].iter().zip(&b[split..]).all(|(x, y)| x & !y == 0)
}

/// `a & b == 0` over all blocks (disjointness test); slices must be the
/// same length.
#[inline]
fn disjoint_blocks(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % 4;
    for (x, y) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        let hit = (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]);
        if hit != 0 {
            return false;
        }
    }
    a[split..].iter().zip(&b[split..]).all(|(x, y)| x & y == 0)
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for ItemSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> ItemSet {
        let mut set = ItemSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<usize> for ItemSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for item in iter {
            self.insert(item);
        }
    }
}

impl From<&[usize]> for ItemSet {
    fn from(items: &[usize]) -> ItemSet {
        items.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a ItemSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over the items of an [`ItemSet`].
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear the lowest set bit
        Some(self.block_idx * BLOCK_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len_roundtrip() {
        let mut s = ItemSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(s.insert(64));
        assert!(s.insert(0));
        assert!(!s.insert(5), "re-inserting reports not-fresh");
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(5) && s.contains(64));
        assert!(!s.contains(1) && !s.contains(63) && !s.contains(1000));
        assert_eq!(s.to_vec(), vec![0, 5, 64]);
        assert_eq!(s.max_item(), Some(64));
        assert!(s.is_inline(), "items below 128 never spill");
    }

    #[test]
    fn remove_restores_the_invariant() {
        let mut s: ItemSet = [3usize, 200].into_iter().collect();
        assert!(!s.is_inline(), "item 200 forces a spill");
        assert!(s.remove(200));
        assert!(!s.remove(200));
        // The trailing blocks of item 200 are gone, so equality with a
        // freshly built singleton holds — across representations (the
        // shrunk set keeps its heap buffer; the fresh one is inline).
        assert_eq!(s, [3usize].into_iter().collect());
        assert!(s.remove(3));
        assert!(s.is_empty());
        assert_eq!(s.max_item(), None);
    }

    #[test]
    fn set_algebra_on_cross_block_sets() {
        let a: ItemSet = [0usize, 63, 64, 100].into_iter().collect();
        let b: ItemSet = [63usize, 100, 300].into_iter().collect();
        assert_eq!(a.union(&b).to_vec(), vec![0, 63, 64, 100, 300]);
        assert_eq!(a.intersection(&b).to_vec(), vec![63, 100]);
        assert_eq!(a.difference(&b).to_vec(), vec![0, 64]);
        assert_eq!(b.difference(&a).to_vec(), vec![300]);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_subset(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersection(&b).is_subset(&b));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn in_place_ops_match_pure_ops() {
        let a: ItemSet = [1usize, 70, 128].into_iter().collect();
        let b: ItemSet = [70usize, 129].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, a.intersection(&b));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
    }

    #[test]
    fn in_place_ops_spill_and_shrink_correctly() {
        // Inline target forced to spill by a large operand.
        let mut u: ItemSet = [1usize].into_iter().collect();
        assert!(u.is_inline());
        let big: ItemSet = [400usize, 70].into_iter().collect();
        u.union_with(&big);
        assert_eq!(u.to_vec(), vec![1, 70, 400]);
        // Spilled set shrunk back to a small number of live blocks keeps
        // behaving like (and equal to) its inline twin.
        let mut i = u.clone();
        i.intersect_with(&[1usize, 70].as_slice().into());
        assert_eq!(i, [1usize, 70].as_slice().into());
        let mut d = u;
        d.difference_with(&[400usize].as_slice().into());
        assert_eq!(d.to_vec(), vec![1, 70]);
    }

    #[test]
    fn restricted_below_is_a_prefix_filter() {
        let s: ItemSet = [0usize, 63, 64, 65, 200].into_iter().collect();
        assert_eq!(s.restricted_below(65).to_vec(), vec![0, 63, 64]);
        assert_eq!(s.restricted_below(64).to_vec(), vec![0, 63]);
        assert_eq!(s.restricted_below(0).to_vec(), Vec::<usize>::new());
        assert_eq!(s.restricted_below(1000), s);
    }

    #[test]
    fn iteration_is_ascending_and_debug_prints_items() {
        let s: ItemSet = [9usize, 2, 130, 2].into_iter().collect();
        let items: Vec<usize> = (&s).into_iter().collect();
        assert_eq!(items, vec![2, 9, 130]);
        assert_eq!(format!("{s:?}"), "{2, 9, 130}");
    }

    #[test]
    fn equal_sets_hash_equal_regardless_of_history() {
        use std::collections::hash_map::DefaultHasher;
        let hash_of = |s: &ItemSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let direct: ItemSet = [1usize, 64, 130].into_iter().collect();
        // Same set reached through inserts beyond block 2 and removals that
        // must drop the trailing blocks again.
        let mut via_removal: ItemSet = [130usize, 64, 1, 500].into_iter().collect();
        via_removal.remove(500);
        assert_eq!(direct, via_removal);
        assert_eq!(hash_of(&direct), hash_of(&via_removal));
        assert_eq!(direct.stable_hash(), via_removal.stable_hash());
        assert_ne!(
            direct.stable_hash(),
            ItemSet::new().stable_hash(),
            "distinct sets should (overwhelmingly) hash apart"
        );
    }

    #[test]
    fn inline_and_heap_forms_of_the_same_set_are_indistinguishable() {
        use std::collections::hash_map::DefaultHasher;
        let hash_of = |s: &ItemSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        // Inline form: built directly from small items.
        let inline: ItemSet = [1usize, 64].into_iter().collect();
        assert!(inline.is_inline());
        // Heap form of the *same* set: spill via a large item, remove it.
        let mut heap: ItemSet = [1usize, 64, 500].into_iter().collect();
        heap.remove(500);
        assert!(!heap.is_inline(), "shrinking keeps the spilled buffer");
        // Equality, both hashes, ordering, and the wire form all agree.
        assert_eq!(inline, heap);
        assert_eq!(hash_of(&inline), hash_of(&heap));
        assert_eq!(inline.stable_hash(), heap.stable_hash());
        assert_eq!(inline.cmp(&heap), std::cmp::Ordering::Equal);
        assert_eq!(inline.as_blocks(), heap.as_blocks());
    }

    #[test]
    fn clear_keeps_spilled_buffers_and_inline_forms_reusable() {
        let mut inline: ItemSet = [5usize].into_iter().collect();
        inline.clear();
        assert!(inline.is_empty() && inline.is_inline());
        let mut heap: ItemSet = [5usize, 300].into_iter().collect();
        heap.clear();
        assert!(heap.is_empty());
        assert!(!heap.is_inline(), "clear keeps the buffer for refills");
        assert_eq!(heap, ItemSet::new(), "empty is empty in any repr");
        heap.insert(7);
        assert_eq!(heap.to_vec(), vec![7]);
    }

    #[test]
    fn ord_is_the_bitset_integer_order() {
        let lo: ItemSet = [0usize, 1].into_iter().collect(); // value 3
        let hi: ItemSet = [64usize].into_iter().collect(); // value 2^64
        assert!(lo < hi, "more blocks wins");
        let a: ItemSet = [0usize, 5].into_iter().collect();
        let b: ItemSet = [5usize].into_iter().collect();
        assert!(b < a, "same top item, extra low bit breaks the tie upward");
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        // Subset consistency: a ⊆ b ⇒ a ≤ b.
        assert!(b.is_subset(&a) && b <= a);
        assert!(ItemSet::new() <= b);
    }

    #[test]
    fn blocks_roundtrip_and_normalize_on_decode() {
        let s: ItemSet = [3usize, 64, 200].into_iter().collect();
        assert_eq!(ItemSet::from_blocks(s.as_blocks().to_vec()), s);
        // A peer that pads with trailing zero blocks still decodes to the
        // canonical representation.
        let mut padded = s.as_blocks().to_vec();
        padded.extend([0, 0]);
        assert_eq!(ItemSet::from_blocks(padded), s);
        assert_eq!(ItemSet::from_blocks(vec![0, 0]), ItemSet::new());
        assert!(ItemSet::new().as_blocks().is_empty());
    }

    #[test]
    fn from_blocks_normalization_is_representation_independent() {
        use std::collections::hash_map::DefaultHasher;
        let hash_of = |s: &ItemSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        // A small set decoded from padded wire blocks lands inline…
        let padded = ItemSet::from_blocks(vec![0b1010, 0, 0, 0]);
        assert!(padded.is_inline());
        // …and matches both the directly built inline form and a heap form
        // that shrank to the same blocks, under Eq AND stable_hash: the
        // trailing-zero-block normalization is what keeps `Eq`/`stable_hash`
        // representation-independent.
        let direct: ItemSet = [1usize, 3].into_iter().collect();
        let mut shrunk: ItemSet = [1usize, 3, 999].into_iter().collect();
        shrunk.remove(999);
        assert!(!shrunk.is_inline());
        for other in [&direct, &shrunk] {
            assert_eq!(&padded, other);
            assert_eq!(padded.stable_hash(), other.stable_hash());
            assert_eq!(hash_of(&padded), hash_of(other));
            assert_eq!(padded.as_blocks(), other.as_blocks());
        }
        // from_blocks with > INLINE_BLOCKS live blocks stays heap and still
        // round-trips the wire form.
        let big = ItemSet::from_blocks(vec![1, 2, 3, 0]);
        assert!(!big.is_inline());
        assert_eq!(big.as_blocks(), &[1, 2, 3]);
    }

    #[test]
    fn empty_set_edge_cases() {
        let e = ItemSet::new();
        assert!(e.is_subset(&e));
        assert!(e.is_disjoint(&e));
        assert_eq!(e.union(&e), e);
        assert_eq!(e.intersection_len(&e), 0);
        let s: ItemSet = [7usize].into_iter().collect();
        assert!(e.is_subset(&s));
        assert!(!s.is_subset(&e));
    }

    #[test]
    fn with_capacity_stays_inline_within_the_inline_range() {
        assert!(ItemSet::with_capacity(0).is_inline());
        assert!(ItemSet::with_capacity(128).is_inline());
        assert!(!ItemSet::with_capacity(129).is_inline());
    }

    #[test]
    fn chunked_kernels_cover_multi_chunk_and_remainder_lengths() {
        // 11 blocks: two full 4-chunks plus a 3-block remainder.
        let a: ItemSet = (0..700).step_by(3).collect();
        let b: ItemSet = (0..700).step_by(5).collect();
        let au: std::collections::BTreeSet<usize> = a.iter().collect();
        let bu: std::collections::BTreeSet<usize> = b.iter().collect();
        let union: Vec<usize> = au.union(&bu).copied().collect();
        let inter: Vec<usize> = au.intersection(&bu).copied().collect();
        let diff: Vec<usize> = au.difference(&bu).copied().collect();
        assert_eq!(a.union(&b).to_vec(), union);
        assert_eq!(a.intersection(&b).to_vec(), inter);
        assert_eq!(a.difference(&b).to_vec(), diff);
        assert_eq!(a.intersection_len(&b), inter.len());
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
    }
}
