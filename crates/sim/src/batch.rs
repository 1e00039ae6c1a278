//! Lane-batched Monte-Carlo execution: up to 64 protocol trials per
//! adjacency sweep.
//!
//! The experiments estimate round-count distributions by running many
//! independent randomized trials on the *same* graph, and each scalar trial
//! re-walks the same adjacency structure — memory traffic, not arithmetic,
//! is the bottleneck.  This module packs up to [`MAX_LANES`] independent
//! trials ("lanes") into the bits of a `u64` per node and resolves the
//! exactly-one-transmitter rule of §1.1 for all of them in a single sweep,
//! using the same two-plane saturating counter the dense kernel applies
//! across *node* lanes (`ge2 |= ge1 & t[u]; ge1 |= t[u]` per neighbor
//! edge) — the standard SIMD-across-replicas pattern from Monte-Carlo
//! simulation.
//!
//! ## Determinism contract
//!
//! Lane `l` of a multi-lane [`RunSpec`](crate::RunSpec) with master seed
//! `s` that plans this engine is **bit-identical** to the scalar run on
//! the RNG stream `child_rng(s, l)`: same completion flag, same round
//! count, same per-round trace, including lossy and faulted runs.  The
//! shared single-word lane loop (the crate-private `driver` module)
//! guarantees this; this module supplies only the CSR merge.  The
//! contract is pinned by the `batch_vs_scalar` differential suite.
//!
//! The batch engine implies [`TransmitterPolicy::InformedOnly`]
//! (transmit words are drawn from informed lanes only, exactly like the
//! scalar protocol loop) and ignores the requested round kernel: results
//! report [`KernelUsed::Batch`] instead.
//!
//! [`TransmitterPolicy::InformedOnly`]: crate::TransmitterPolicy::InformedOnly

use radio_graph::{Graph, NodeId};

use crate::bitset::BitSet;
use crate::driver::LaneMerge;
use crate::kernel::KernelUsed;

/// Maximum number of trial lanes in one batch (one bit per `u64` lane).
pub const MAX_LANES: usize = 64;

/// The lane mask with the low `lanes` bits set.
#[inline]
pub(crate) fn lane_mask(lanes: usize) -> u64 {
    debug_assert!((1..=MAX_LANES).contains(&lanes));
    u64::MAX >> (MAX_LANES - lanes)
}

/// The set bit positions of `word`, ascending.
#[inline]
pub(crate) fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Reusable scratch for [`execute_lane_round`]: the two counter planes and
/// the dirty-node list.
///
/// The planes are interleaved (`[ge1, ge2]` per node on one cache line) so
/// the merge loop's random accesses touch a single line per neighbor; at
/// `n = 8192` the working set is 128 KiB — L2-resident.
pub struct LaneScratch {
    /// `planes[v] = [ge1, ge2]`: lanes with ≥ 1 / ≥ 2 transmitting
    /// neighbors of `v` so far this round.
    planes: Vec<[u64; 2]>,
    /// Nodes whose planes went dirty this round.
    touched: Vec<NodeId>,
}

impl LaneScratch {
    /// Scratch for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        LaneScratch {
            planes: vec![[0, 0]; n],
            touched: Vec::new(),
        }
    }
}

/// One raw lane-batched round over `graph`.
///
/// `t[u]` holds node `u`'s transmit word (bit `l` = transmits in lane `l`)
/// and `tx_nodes` lists exactly the nodes with a **non-zero** word, without
/// duplicates (duplicates would double-merge a transmitter and corrupt the
/// counters).  `informed[v]` is the per-lane informed mask; it is updated
/// in place with whatever `resolve` delivers.
///
/// For every node with at least one lane reached (≥ 1 transmitting
/// neighbor, itself neither transmitting nor informed in that lane),
/// `resolve(v, reached, collided, exactly_one)` is called — in ascending
/// node-id order when `canonical_order` is set, which lossy runs need for
/// the scalar-identical coin order — and must return the delivered subset
/// of `exactly_one`.  Scratch planes are reset as they are consumed;
/// `t` is left untouched (the caller owns its lifecycle).
pub fn execute_lane_round<F>(
    graph: &Graph,
    scratch: &mut LaneScratch,
    t: &[u64],
    tx_nodes: &[NodeId],
    informed: &mut [u64],
    canonical_order: bool,
    mut resolve: F,
) where
    F: FnMut(NodeId, u64, u64, u64) -> u64,
{
    assert_eq!(informed.len(), graph.n());
    merge_planes(
        graph,
        scratch,
        t,
        tx_nodes,
        canonical_order,
        |v, ge1, ge2| {
            let vi = v as usize;
            let reached = ge1 & !t[vi] & !informed[vi];
            if reached != 0 {
                let delivered = resolve(v, reached, reached & ge2, reached & !ge2);
                debug_assert_eq!(delivered & !(reached & !ge2), 0, "delivered ⊄ exactly-one");
                informed[vi] |= delivered;
            }
        },
    );
}

/// The merge half of [`execute_lane_round`]: folds every transmitter's
/// word into its neighbors' planes, then calls `visit(v, ge1, ge2)` for
/// every node with `ge1 != 0` — in ascending order when `canonical_order`
/// is set — resetting the planes as it goes.
fn merge_planes(
    graph: &Graph,
    scratch: &mut LaneScratch,
    t: &[u64],
    tx_nodes: &[NodeId],
    canonical_order: bool,
    mut visit: impl FnMut(NodeId, u64, u64),
) {
    let n = graph.n();
    // Hard asserts (not debug): the full-sweep merge below relies on
    // `planes.len() == n` for its unchecked indexing.
    assert_eq!(t.len(), n);
    assert_eq!(scratch.planes.len(), n);
    let planes = &mut scratch.planes;
    let touched = &mut scratch.touched;

    // When the merge will dirty a large fraction of the nodes, tracking a
    // dirty list costs more than it saves: a data-dependent branch plus a
    // push per neighbor edge in the hot loop, and (for canonical order) a
    // sort of nearly `n` ids.  Past the threshold we skip the list and
    // resolve with one sequential sweep over all planes — which visits
    // nodes in ascending id order, so it is canonical for free.
    let visits: usize = tx_nodes.iter().map(|&u| graph.neighbors(u).len()).sum();
    let full_sweep = visits >= n;

    // Merge: saturating two-plane counter over trial lanes.
    if full_sweep {
        for &u in tx_nodes {
            let w = t[u as usize];
            if w == 0 {
                continue;
            }
            for &v in graph.neighbors(u) {
                // SAFETY: neighbor ids are `< n` by the `Graph` CSR
                // invariant (enforced at construction, verified by
                // `check_invariants` in debug builds), and
                // `planes.len() == n` is asserted at function entry.
                // This per-edge random read-modify-write is the kernel's
                // bottleneck; the bounds check is measurable here.
                let p = unsafe { planes.get_unchecked_mut(v as usize) };
                p[1] |= p[0] & w;
                p[0] |= w;
            }
        }
        // Resolve: one ascending sweep, resetting planes as we go.
        for (vi, p) in planes.iter_mut().enumerate() {
            let [ge1, ge2] = *p;
            if ge1 != 0 {
                *p = [0, 0];
                visit(vi as NodeId, ge1, ge2);
            }
        }
        return;
    }

    for &u in tx_nodes {
        let w = t[u as usize];
        if w == 0 {
            continue;
        }
        for &v in graph.neighbors(u) {
            let p = &mut planes[v as usize];
            if p[0] == 0 {
                touched.push(v);
            }
            p[1] |= p[0] & w;
            p[0] |= w;
        }
    }

    if canonical_order {
        touched.sort_unstable();
    }

    // Resolve: exactly-one receptions per lane, resetting planes as we go.
    for &v in touched.iter() {
        let [ge1, ge2] = std::mem::take(&mut planes[v as usize]);
        visit(v, ge1, ge2);
    }
    touched.clear();
}

/// The batch engine's [`LaneMerge`]: the transmitters' CSR rows through
/// [`execute_lane_round`]'s merge, plus the jammers' neighborhoods.
pub(crate) struct CsrLanes<'g> {
    graph: &'g Graph,
    scratch: LaneScratch,
    /// Nodes adjacent to a live jammer this round.
    jam_touch: BitSet,
}

impl<'g> CsrLanes<'g> {
    pub(crate) fn new(graph: &'g Graph) -> Self {
        CsrLanes {
            graph,
            scratch: LaneScratch::new(graph.n()),
            jam_touch: BitSet::new(graph.n()),
        }
    }
}

impl LaneMerge for CsrLanes<'_> {
    const KERNEL: KernelUsed = KernelUsed::Batch;

    fn merge(
        &mut self,
        t: &[u64],
        tx_nodes: &[NodeId],
        jammers: &[NodeId],
        canonical: bool,
        mut listener: impl FnMut(NodeId, u64, u64, bool),
    ) {
        for &j in jammers {
            for &v in self.graph.neighbors(j) {
                self.jam_touch.set(v as usize);
            }
        }
        let (jam, touch) = (!jammers.is_empty(), &self.jam_touch);
        merge_planes(
            self.graph,
            &mut self.scratch,
            t,
            tx_nodes,
            canonical,
            |v, ge1, ge2| listener(v, ge1, ge2, jam && touch.get(v as usize)),
        );
        if jam {
            self.jam_touch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RunSpec;
    use crate::fault::FaultPlan;
    use crate::protocol::{LocalNode, Protocol, RunConfig};
    use crate::trace::RunResult;
    use radio_graph::gnp::sample_gnp;
    use radio_graph::{child_rng, derive_seed, Xoshiro256pp};

    /// Transmit with a fixed probability (one coin per decision).
    struct Coin(f64);
    impl Protocol for Coin {
        fn name(&self) -> String {
            "coin".into()
        }
        fn transmits(&mut self, _node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
            rng.coin(self.0)
        }
    }

    fn spec<'a>(
        g: &'a Graph,
        source: NodeId,
        cfg: RunConfig,
        plan: Option<&'a FaultPlan>,
    ) -> RunSpec<'a> {
        let spec = RunSpec::on_graph(g, source).with_config(cfg);
        match plan {
            Some(plan) => spec.with_faults(plan),
            None => spec,
        }
    }

    fn run_batch(
        g: &Graph,
        source: NodeId,
        p: f64,
        cfg: RunConfig,
        master: u64,
        lanes: usize,
    ) -> Vec<RunResult> {
        let spec = spec(g, source, cfg, None)
            .with_lanes(lanes)
            .with_master_seed(master);
        spec.run(&mut Coin(p)).lanes
    }

    fn scalar_lane(
        g: &Graph,
        source: NodeId,
        p: f64,
        cfg: RunConfig,
        master: u64,
        lane: u64,
    ) -> RunResult {
        let mut rng = child_rng(master, lane);
        let mut result = spec(g, source, cfg, None)
            .run_with_rng(&mut Coin(p), &mut rng)
            .into_single();
        // Lane results always report the batch kernel; normalize for
        // comparison.
        result.kernel = KernelUsed::Batch;
        result
    }

    #[test]
    fn every_lane_matches_its_scalar_stream() {
        for case in 0..6u64 {
            let mut grng = Xoshiro256pp::new(derive_seed(0xBA7C, case));
            let n = 40 + grng.below(80) as usize;
            let g = sample_gnp(n, 0.12, &mut grng);
            let loss = if case % 2 == 0 { 0.0 } else { 0.25 };
            let cfg = RunConfig::for_graph(n).with_max_rounds(50).with_loss(loss);
            let master = derive_seed(0x5EED, case);
            let batch = run_batch(&g, 0, 0.3, cfg, master, MAX_LANES);
            assert_eq!(batch.len(), MAX_LANES);
            for (l, got) in batch.iter().enumerate() {
                let want = scalar_lane(&g, 0, 0.3, cfg, master, l as u64);
                assert_eq!(*got, want, "case {case}, lane {l}");
            }
        }
    }

    #[test]
    fn partial_lane_counts_work() {
        let mut grng = Xoshiro256pp::new(7);
        let g = sample_gnp(60, 0.15, &mut grng);
        let cfg = RunConfig::for_graph(60).with_max_rounds(40);
        for lanes in [1usize, 2, 17, 63] {
            let batch = run_batch(&g, 3, 0.25, cfg, 99, lanes);
            assert_eq!(batch.len(), lanes);
            for (l, got) in batch.iter().enumerate() {
                let want = scalar_lane(&g, 3, 0.25, cfg, 99, l as u64);
                // lanes == 1 plans the scalar round engine, which reports
                // its own kernel; normalize before comparing.
                let mut got = got.clone();
                got.kernel = KernelUsed::Batch;
                assert_eq!(got, want, "lanes {lanes}, lane {l}");
            }
        }
    }

    #[test]
    fn faulty_lanes_match_scalar_faulty_runs() {
        let mut grng = Xoshiro256pp::new(derive_seed(0xFA17, 0));
        let n = 96;
        let g = sample_gnp(n, 0.1, &mut grng);

        // One plan per fault type, plus everything combined (and combined
        // with i.i.d. loss on top).
        let mut crash = FaultPlan::new(n);
        crash.crash(3, 2).crash(10, 5).crash(11, 5);
        let mut sleep = FaultPlan::new(n);
        sleep.sleep(4, 6).sleep(9, 3);
        let mut jam = FaultPlan::new(n);
        jam.jam(7, 2, 12).jam(20, 1, u32::MAX);
        let mut burst = FaultPlan::new(n);
        burst.set_burst(0.4, 0.3);
        let mut combined = FaultPlan::new(n);
        combined
            .crash(3, 2)
            .sleep(4, 6)
            .jam(7, 2, 12)
            .set_burst(0.3, 0.25);

        for (case, (plan, loss)) in [
            (&crash, 0.0),
            (&sleep, 0.0),
            (&jam, 0.0),
            (&burst, 0.0),
            (&combined, 0.0),
            (&combined, 0.2),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = RunConfig::for_graph(n).with_max_rounds(40).with_loss(loss);
            let master = derive_seed(0x5EED, case as u64);
            let batch = spec(&g, 0, cfg, Some(plan))
                .with_lanes(MAX_LANES)
                .with_master_seed(master)
                .run(&mut Coin(0.3))
                .lanes;
            assert_eq!(batch.len(), MAX_LANES);
            for (l, got) in batch.iter().enumerate() {
                let mut rng = child_rng(master, l as u64);
                let mut want = spec(&g, 0, cfg, Some(plan))
                    .run_with_rng(&mut Coin(0.3), &mut rng)
                    .into_single();
                want.kernel = KernelUsed::Batch;
                assert_eq!(*got, want, "case {case}, lane {l}");
            }
        }
    }

    #[test]
    fn single_node_graph_completes_in_zero_rounds() {
        let g = Graph::empty(1);
        let batch = run_batch(&g, 0, 0.5, RunConfig::for_graph(1), 1, 8);
        for r in &batch {
            assert!(r.completed);
            assert_eq!(r.rounds, 0);
            assert_eq!(r.informed, 1);
        }
    }

    #[test]
    fn lanes_report_batch_kernel() {
        let g = Graph::path(6);
        let batch = run_batch(&g, 0, 0.9, RunConfig::for_graph(6), 4, 3);
        assert!(batch.iter().all(|r| r.kernel == KernelUsed::Batch));
    }

    #[test]
    #[should_panic]
    fn zero_lanes_rejected() {
        let g = Graph::path(3);
        let _ = run_batch(&g, 0, 0.5, RunConfig::for_graph(3), 1, 0);
    }

    #[test]
    #[should_panic]
    fn too_many_lanes_rejected() {
        // The planner widens 65 lanes to the tiled engine; the single-word
        // lane loop itself refuses them.
        let g = Graph::path(3);
        let spec = RunSpec::on_graph(&g, 0).with_lanes(MAX_LANES + 1);
        let _ = crate::driver::run_lanes(&spec, CsrLanes::new(&g), &mut Coin(0.5), MAX_LANES + 1);
    }

    #[test]
    fn lane_round_leaves_transmit_words_untouched() {
        let mut grng = Xoshiro256pp::new(11);
        let g = sample_gnp(32, 0.2, &mut grng);
        let mut scratch = LaneScratch::new(32);
        let t: Vec<u64> = (0..32)
            .map(|v| if v % 3 == 0 { 0b101 } else { 0 })
            .collect();
        let tx_nodes: Vec<NodeId> = (0..32).filter(|v| v % 3 == 0).collect();
        let before = t.clone();
        let mut informed = vec![0u64; 32];
        informed[0] = u64::MAX;
        execute_lane_round(
            &g,
            &mut scratch,
            &t,
            &tx_nodes,
            &mut informed,
            true,
            |_, _, _, e1| e1,
        );
        assert_eq!(t, before);
        assert!(scratch.touched.is_empty());
        assert!(scratch.planes.iter().all(|p| *p == [0, 0]));
    }
}
