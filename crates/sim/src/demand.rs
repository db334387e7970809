//! The sliding demand window, maintained by incremental deltas.
//!
//! Before this module, every repricing rebuilt the demand hypergraph from
//! the observed-quote window — O(window) `ItemSet` clones plus a fresh
//! index, the hot path that dominates live repricing at scale. The
//! [`DemandWindow`] instead owns **one** live [`Hypergraph`] and buffers
//! changes between repricings: fresh observations queue in arrival order,
//! evictions of already-flushed edges queue their ids, and
//! [`DemandWindow::flush`] turns both into one [`HypergraphDelta`], applies
//! it in O(|delta|), and returns the [`AppliedOp`] log an incremental
//! repricer consumes.
//!
//! Memory stays **O(window)** no matter how rarely the policy fires: the
//! fresh buffer is itself bounded by the window (evicting an observation
//! that never got flushed simply drops it — it would have entered and left
//! the graph without affecting any repricing), and the evicted-id list is
//! bounded by the graph size.
//!
//! [`Hypergraph::remove_edge`] swap-removes (the last edge is renumbered
//! into the vacated slot), so the flush queues removals in **descending id
//! order** — the renumbered edge then always lands on an id above every
//! remaining removal, keeping the queued indices valid — and re-threads its
//! arrival-order bookkeeping from the renumberings the `AppliedOp` log
//! reports.

use std::collections::VecDeque;

use qp_core::ItemSet;
use qp_pricing::{AppliedOp, Hypergraph, HypergraphDelta};

/// A bounded, arrival-ordered window of observed demand, backed by an
/// incrementally-maintained [`Hypergraph`].
pub struct DemandWindow {
    demand: Hypergraph,
    /// Arrival order of the flushed, not-yet-evicted edges (ids into
    /// `demand`, valid as of the last flush).
    order: VecDeque<usize>,
    /// Flushed edges evicted since the last flush, pending removal.
    evicted: Vec<usize>,
    /// Observations since the last flush, in arrival order.
    fresh: VecDeque<(ItemSet, f64)>,
    /// Maximum window size; 0 keeps every observation.
    window: usize,
    /// Reusable delta staging buffer — refilled and drained by every flush,
    /// so steady-state ticks build their delta without allocating.
    delta: HypergraphDelta,
    /// Reusable edge-id → arrival-position map for eviction re-threading.
    pos: Vec<usize>,
}

impl DemandWindow {
    /// An empty window over `num_items` support databases, keeping at most
    /// `window` observations (0 = unbounded).
    pub fn new(num_items: usize, window: usize) -> DemandWindow {
        DemandWindow {
            demand: Hypergraph::new(num_items),
            order: VecDeque::new(),
            evicted: Vec::new(),
            fresh: VecDeque::new(),
            window,
            delta: HypergraphDelta::new(),
            pos: Vec::new(),
        }
    }

    /// Records one observed quote: the conflict set plus the buyer's bid as
    /// the demand valuation (negative bids clamp to 0). Evicts the oldest
    /// observation when the window is full — a flushed edge queues its
    /// removal, an unflushed one is dropped outright (it can no longer
    /// affect any repricing).
    pub fn observe(&mut self, conflict_set: ItemSet, bid: f64) {
        self.fresh.push_back((conflict_set, bid.max(0.0)));
        if self.window > 0 && self.len() > self.window {
            match self.order.pop_front() {
                Some(id) => self.evicted.push(id),
                None => {
                    self.fresh.pop_front();
                }
            }
        }
    }

    /// Number of observations the window will hold once pending changes
    /// apply.
    pub fn len(&self) -> usize {
        self.order.len() + self.fresh.len()
    }

    /// True when the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of mutations the next flush will apply.
    pub fn pending_ops(&self) -> usize {
        self.evicted.len() + self.fresh.len()
    }

    /// Applies the buffered evictions and observations to the live demand
    /// hypergraph as one delta and returns it together with the
    /// [`AppliedOp`] log — O(|delta|) graph work (plus one O(window)
    /// arrival-order re-thread when evictions occurred), never a rebuild.
    pub fn flush(&mut self) -> (&Hypergraph, Vec<AppliedOp>) {
        // Descending removal order keeps every queued id valid under
        // swap-removal (see the module docs).
        self.evicted.sort_unstable_by(|a, b| b.cmp(a));
        let pre_removal_edges = self.order.len() + self.evicted.len();
        let had_evictions = !self.evicted.is_empty();
        debug_assert!(self.delta.is_empty(), "the staging delta is drained");
        for &id in &self.evicted {
            self.delta.remove_edge(id);
        }
        self.evicted.clear();
        for (set, bid) in self.fresh.drain(..) {
            self.delta.add_edge(set, bid);
        }
        let mut ops = Vec::new();
        self.demand.apply_delta_drain(&mut self.delta, &mut ops);

        // Re-thread the arrival order from the authoritative renumberings
        // (every `from`/`to` id is below the pre-removal edge count). Only
        // removals renumber, so a flush without evictions — the common case
        // while the window fills — skips the O(window) position map and
        // just appends the new ids.
        self.pos.clear();
        if had_evictions {
            self.pos.resize(pre_removal_edges, usize::MAX);
            for (i, &id) in self.order.iter().enumerate() {
                self.pos[id] = i;
            }
        }
        for op in &ops {
            match op {
                AppliedOp::Removed {
                    moved: Some((from, to)),
                    ..
                } => {
                    // The moved edge is always a survivor: removals run in
                    // descending id order, so the renumbered (former last)
                    // edge can never itself be pending removal.
                    let i = self.pos[*from];
                    debug_assert_ne!(i, usize::MAX, "moved edge must be tracked");
                    self.order[i] = *to;
                    self.pos[*to] = i;
                }
                AppliedOp::Removed { moved: None, .. } => {}
                AppliedOp::Added { edge, .. } => self.order.push_back(*edge),
                AppliedOp::Revalued { .. } => {
                    unreachable!("the window never queues revalues")
                }
            }
        }
        debug_assert_eq!(self.demand.num_edges(), self.order.len());
        (&self.demand, ops)
    }

    /// A fresh hypergraph with the window's edges in **arrival order** — the
    /// full-rebuild baseline (exactly what repricing built before deltas
    /// existed). Call after [`DemandWindow::flush`]; panics if mutations are
    /// still pending.
    pub fn rebuild_in_arrival_order(&self) -> Hypergraph {
        assert!(
            self.pending_ops() == 0,
            "flush the window before rebuilding from it"
        );
        let mut h = Hypergraph::new(self.demand.num_items());
        for &id in &self.order {
            let e = self.demand.edge(id);
            h.add_edge_set(e.items.clone(), e.valuation);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[usize]) -> ItemSet {
        items.iter().copied().collect()
    }

    #[test]
    fn observations_accumulate_and_flush_applies_them() {
        let mut w = DemandWindow::new(4, 0);
        assert!(w.is_empty());
        w.observe(set(&[0, 1]), 5.0);
        w.observe(set(&[2]), -3.0); // clamps to 0
        assert_eq!(w.len(), 2);
        assert_eq!(w.pending_ops(), 2);

        let (h, ops) = w.flush();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(ops.len(), 2);
        assert_eq!(h.edge(0).valuation, 5.0);
        assert_eq!(h.edge(1).valuation, 0.0);
        assert_eq!(w.pending_ops(), 0);
    }

    #[test]
    fn eviction_tracks_swap_renumbering_across_flushes() {
        // Window of 3; observe 6 bids with distinct valuations so the
        // surviving set is recognizable.
        let mut w = DemandWindow::new(8, 3);
        for i in 0..4u64 {
            w.observe(set(&[i as usize]), i as f64);
        }
        // Mid-stream flush exercises deltas straddling flush boundaries.
        w.flush();
        for i in 4..6u64 {
            w.observe(set(&[i as usize]), i as f64);
        }
        assert_eq!(w.len(), 3);
        let (h, _) = w.flush();
        let mut vals: Vec<f64> = h.edges().iter().map(|e| e.valuation).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, vec![3.0, 4.0, 5.0], "last three observations survive");
    }

    #[test]
    fn arrival_order_rebuild_matches_the_old_full_path() {
        let mut w = DemandWindow::new(8, 4);
        for i in 0..7u64 {
            w.observe(set(&[(i % 5) as usize, 5]), 10.0 + i as f64);
        }
        w.flush();
        let rebuilt = w.rebuild_in_arrival_order();
        // The old path kept the last `window` observations in arrival order.
        let vals: Vec<f64> = rebuilt.edges().iter().map(|e| e.valuation).collect();
        assert_eq!(vals, vec![13.0, 14.0, 15.0, 16.0]);
        assert_eq!(rebuilt.num_edges(), 4);
    }

    #[test]
    fn memory_stays_bounded_when_no_flush_ever_happens() {
        // A policy that never fires: the old implementation queued one op
        // per observation forever; the window must instead stay O(window).
        let mut w = DemandWindow::new(8, 16);
        for i in 0..10_000u64 {
            w.observe(set(&[(i % 8) as usize]), i as f64);
        }
        assert_eq!(w.len(), 16);
        assert!(
            w.pending_ops() <= 16,
            "pending work must stay bounded by the window, got {}",
            w.pending_ops()
        );
        let (h, _) = w.flush();
        let mut vals: Vec<f64> = h.edges().iter().map(|e| e.valuation).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = (9984..10_000).map(|i| i as f64).collect();
        assert_eq!(vals, expected, "exactly the last 16 observations survive");
    }

    #[test]
    fn flushed_edges_evictions_stay_bounded_too() {
        // Fill and flush, then keep observing without flushing: evictions of
        // flushed edges queue ids (bounded by the graph) while fresh stays
        // bounded by the window.
        let mut w = DemandWindow::new(8, 4);
        for i in 0..4u64 {
            w.observe(set(&[i as usize]), i as f64);
        }
        w.flush();
        for i in 4..104u64 {
            w.observe(set(&[(i % 8) as usize]), i as f64);
        }
        assert_eq!(w.len(), 4);
        assert!(w.pending_ops() <= 8, "got {}", w.pending_ops());
        let (h, _) = w.flush();
        let mut vals: Vec<f64> = h.edges().iter().map(|e| e.valuation).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, vec![100.0, 101.0, 102.0, 103.0]);
    }

    #[test]
    #[should_panic(expected = "flush the window")]
    fn rebuild_requires_a_flush_first() {
        let mut w = DemandWindow::new(2, 0);
        w.observe(set(&[0]), 1.0);
        let _ = w.rebuild_in_arrival_order();
    }
}
