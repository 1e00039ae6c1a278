//! Graph backends behind one neighborhood-access abstraction.
//!
//! Every simulator entry point historically took an explicit CSR
//! [`Graph`], which caps experiments at the memory needed to *store* the
//! topology (and, for the dense kernel, the `n²/8`-byte
//! [`AdjacencyBitmap`](crate::AdjacencyBitmap)).  [`GraphProvider`]
//! abstracts the one access pattern the provider-driven round engine
//! needs — iterating the *forward* edges of a row range — so backends can
//! trade memory for recomputation:
//!
//! * **explicit** — [`Graph`] implements the trait directly; forward edges
//!   come from the stored CSR rows, and [`GraphProvider::as_explicit`]
//!   exposes the graph so engines can keep their sparse/dense/batch fast
//!   paths;
//! * **implicit** — [`ImplicitGnp`] stores only `(n, p, seed)` and
//!   regenerates each row's forward neighbors on demand by per-row
//!   geometric skip sampling (Batagelj & Brandes), `O(d)` time per row and
//!   `O(1)` memory for the whole graph;
//! * **sharded** — any provider's rows can be split into disjoint ranges
//!   and swept concurrently; the parallel sweep itself lives in
//!   `radio-sim` (per-worker collision counters over row blocks, merged at
//!   the round barrier), this module only supplies the row-range
//!   iteration it needs.
//!
//! ## The canonical per-row edge scheme
//!
//! An implicit backend must be able to regenerate the **same** edge set on
//! every query, so [`ImplicitGnp`] defines its own canonical sampling
//! scheme: row `u` owns the forward edges `{u, v}` with `v > u`, drawn by
//! geometric skipping over `v ∈ u+1..n` from the dedicated lightweight
//! [`SplitMix64`] stream seeded with [`derive_seed`]`(seed, u)`.
//! [`ImplicitGnp::materialize`] replays exactly
//! this scheme into a CSR graph, so the implicit and materialized views of
//! one `(n, p, seed)` triple are the *same graph by construction* — which
//! is what the cross-backend differential suite pins (implicit and
//! explicit runs must produce bit-identical traces).
//!
//! Note this is a different (per-row, restartable) stream layout than
//! [`sample_gnp`](crate::gnp::sample_gnp)'s single sequential stream over
//! the global pair sequence; both sample `G(n, p)` exactly, but only the
//! per-row scheme can be re-entered at an arbitrary row without replaying
//! everything before it.

use std::ops::Range;

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::rng::{derive_seed, SplitMix64};

/// Neighborhood access for round engines, abstracted over storage.
///
/// The contract is deliberately minimal: a provider knows its node count
/// and can visit, for any row range, every undirected edge whose *lower*
/// endpoint lies in the range ("forward edges", `u < v`).  A full radio
/// round is then one sweep over all rows — each edge is visited exactly
/// once, and both endpoints' hit counters are updated from it.  Engines
/// that want the classic per-node adjacency walk use
/// [`GraphProvider::as_explicit`] to detect a stored CSR and take their
/// fast path.
///
/// Implementations must be deterministic: two sweeps over the same rows
/// visit the same edges in the same order.  `Sync` is required so sweep
/// engines can fill disjoint row blocks from worker threads.
pub trait GraphProvider: Sync {
    /// Number of nodes.
    fn n(&self) -> usize;

    /// A (possibly estimated) edge count, for sizing buffers and reports.
    fn edge_hint(&self) -> usize;

    /// Calls `visit(u, v)` for every edge `{u, v}` with `u < v` and
    /// `u ∈ rows`, in ascending `(u, v)` order.
    fn for_forward_edges(&self, rows: Range<NodeId>, visit: &mut dyn FnMut(NodeId, NodeId));

    /// The stored CSR graph, if this backend has one (engines use it to
    /// keep their sparse/dense/batch fast paths).
    fn as_explicit(&self) -> Option<&Graph> {
        None
    }

    /// Builds an explicit CSR graph with exactly this provider's edge set.
    fn materialize(&self) -> Graph;

    /// Short human-readable description for banners and reports.
    fn describe(&self) -> String;
}

impl GraphProvider for Graph {
    fn n(&self) -> usize {
        Graph::n(self)
    }

    fn edge_hint(&self) -> usize {
        self.m()
    }

    fn for_forward_edges(&self, rows: Range<NodeId>, visit: &mut dyn FnMut(NodeId, NodeId)) {
        for u in rows {
            let row = self.neighbors(u);
            // Adjacency lists are sorted ascending, so the forward
            // neighbors are exactly the suffix past `u`.
            let start = row.partition_point(|&v| v <= u);
            for &v in &row[start..] {
                visit(u, v);
            }
        }
    }

    fn as_explicit(&self) -> Option<&Graph> {
        Some(self)
    }

    fn materialize(&self) -> Graph {
        self.clone()
    }

    fn describe(&self) -> String {
        format!("explicit CSR (n = {}, m = {})", Graph::n(self), self.m())
    }
}

/// An implicit `G(n, p)` backend: the graph *is* `(n, p, seed)`.
///
/// No adjacency is stored; row `u`'s forward neighbors are regenerated on
/// every query by geometric skip sampling from the per-row stream
/// [`SplitMix64`]`(`[`derive_seed`]`(seed, u))`.  Queries cost `O(d)`
/// expected time per row
/// and the whole structure is a few words, so graphs with `n = 10⁷–10⁸`
/// nodes fit trivially in memory — the round engine pays `O(n + m)`
/// recomputation per sweep instead.
///
/// Two values with equal `(n, p, seed)` denote the same graph; the edge
/// set is pinned by the RNG stream and never changes across queries, row
/// ranges, or [`ImplicitGnp::materialize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplicitGnp {
    n: usize,
    p: f64,
    seed: u64,
    /// `ln(1 - p)`, precomputed for the skip draw (negative; `-inf` iff
    /// `p = 1`).
    log_q: f64,
}

impl ImplicitGnp {
    /// An implicit `G(n, p)` with edge streams derived from `seed`.
    ///
    /// Requires `0 ≤ p ≤ 1` (panics otherwise, like
    /// [`sample_gnp`](crate::gnp::sample_gnp)).
    pub fn new(n: usize, p: f64, seed: u64) -> ImplicitGnp {
        assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
        assert!(n <= NodeId::MAX as usize, "n too large for u32 node ids");
        ImplicitGnp {
            n,
            p,
            seed,
            log_q: (1.0 - p).ln(),
        }
    }

    /// `G(n, p)` with `p = d / n` (expected average degree ≈ `d`).
    pub fn with_average_degree(n: usize, d: f64, seed: u64) -> ImplicitGnp {
        let p = if n == 0 {
            0.0
        } else {
            (d / n as f64).clamp(0.0, 1.0)
        };
        ImplicitGnp::new(n, p, seed)
    }

    /// Edge probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Master seed of the per-row edge streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Expected average degree `p · (n − 1)`.
    pub fn expected_degree(&self) -> f64 {
        self.p * (self.n.saturating_sub(1)) as f64
    }

    /// Visits row `u`'s forward neighbors (`v > u`) in ascending order.
    fn forward_row(&self, u: NodeId, visit: &mut dyn FnMut(NodeId, NodeId)) {
        let n = self.n;
        let mut v = u as usize;
        if v + 1 >= n || self.p <= 0.0 {
            return;
        }
        if self.p >= 1.0 {
            for w in v + 1..n {
                visit(u, w as NodeId);
            }
            return;
        }
        // A SplitMix64 stream over the same `derive_seed(seed, u)` child
        // seed that `child_rng` would expand into a xoshiro: one wrapping
        // add + three shifts per draw and no 4-word state expansion per
        // row.  The row fill runs once per row per *round*, so the
        // construction cost dominated the implicit sweep (ROADMAP item 1);
        // the derivation is unchanged, so `(n, p, seed)` still pins the
        // graph and `materialize()` replays it identically.
        let mut rng = SplitMix64::new(derive_seed(self.seed, u as u64));
        loop {
            // Geometric(p) skip over the candidate sequence u+1..n: the
            // classic floor(ln(1-r)/ln(1-p)) draw.  next_f64() < 1
            // strictly, so the logarithm is finite; the float→usize cast
            // saturates for astronomically long skips.
            let r = rng.next_f64();
            let skip = ((1.0 - r).ln() / self.log_q).floor() as usize;
            v = v.saturating_add(1).saturating_add(skip);
            if v >= n {
                return;
            }
            visit(u, v as NodeId);
        }
    }
}

impl GraphProvider for ImplicitGnp {
    fn n(&self) -> usize {
        self.n
    }

    fn edge_hint(&self) -> usize {
        (self.p * self.n as f64 * (self.n as f64 - 1.0) / 2.0) as usize
    }

    fn for_forward_edges(&self, rows: Range<NodeId>, visit: &mut dyn FnMut(NodeId, NodeId)) {
        for u in rows {
            self.forward_row(u, visit);
        }
    }

    fn materialize(&self) -> Graph {
        let hint = self.edge_hint();
        let mut b = GraphBuilder::with_edge_capacity(self.n, hint + hint / 8 + 16);
        self.for_forward_edges(0..self.n as NodeId, &mut |u, v| b.add_edge(u, v));
        b.build()
    }

    fn describe(&self) -> String {
        format!(
            "implicit G(n, p) (n = {}, p = {:.3e}, seed = {})",
            self.n, self.p, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_edges(p: &dyn GraphProvider, rows: Range<NodeId>) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        p.for_forward_edges(rows, &mut |u, v| out.push((u, v)));
        out
    }

    #[test]
    fn explicit_adapter_visits_each_edge_once() {
        let g = Graph::from_edges(6, vec![(0, 1), (0, 5), (2, 3), (1, 4), (4, 5)]);
        let edges = collect_edges(&g, 0..6);
        assert_eq!(edges, vec![(0, 1), (0, 5), (1, 4), (2, 3), (4, 5)]);
        assert_eq!(GraphProvider::n(&g), 6);
        assert_eq!(g.edge_hint(), 5);
        assert!(g.as_explicit().is_some());
        assert_eq!(g.materialize(), g);
    }

    #[test]
    fn explicit_adapter_row_ranges_partition_edges() {
        let g = Graph::from_edges(8, vec![(0, 7), (1, 2), (3, 6), (5, 6), (6, 7)]);
        let all = collect_edges(&g, 0..8);
        for cuts in [&[0, 3, 8][..], &[0, 1, 1, 5, 7, 8], &[0, 8]] {
            let mut pieced = Vec::new();
            for w in cuts.windows(2) {
                pieced.extend(collect_edges(&g, w[0]..w[1]));
            }
            assert_eq!(all, pieced, "cuts {cuts:?}");
        }
        assert_eq!(all.len(), g.m());
    }

    #[test]
    fn implicit_is_deterministic_and_shard_invariant() {
        let imp = ImplicitGnp::new(500, 0.02, 99);
        let all = collect_edges(&imp, 0..500);
        let again = collect_edges(&imp, 0..500);
        assert_eq!(all, again, "re-query must regenerate identical edges");
        // Uneven pieces, an empty one included, in the order a block fill
        // might visit them.
        let mut pieced = Vec::new();
        for r in [0..1, 1..71, 71..71, 71..300, 300..499, 499..500] {
            pieced.extend(collect_edges(&imp, r));
        }
        assert_eq!(all, pieced, "piecewise row queries must see the same edges");
    }

    #[test]
    fn implicit_materialize_matches_row_queries() {
        let imp = ImplicitGnp::new(300, 0.05, 7);
        let g = imp.materialize();
        assert_eq!(g.n(), 300);
        let edges = collect_edges(&imp, 0..300);
        let csr: Vec<(NodeId, NodeId)> = g.edges().collect();
        assert_eq!(edges, csr);
        assert!(g.check_invariants());
    }

    #[test]
    fn implicit_edge_count_near_expectation() {
        let n = 20_000;
        let p = 10.0 / n as f64;
        let imp = ImplicitGnp::new(n, p, 42);
        let mut m = 0usize;
        imp.for_forward_edges(0..n as NodeId, &mut |_, _| m += 1);
        let expected = p * (n * (n - 1) / 2) as f64;
        let sd = expected.sqrt();
        assert!(
            (m as f64 - expected).abs() < 6.0 * sd,
            "m = {m}, expected {expected} ± {sd}"
        );
        assert_eq!(imp.edge_hint(), expected as usize);
    }

    #[test]
    fn implicit_per_pair_probability_uniform() {
        // The per-row scheme must not bias early vs late pairs.
        let trials = 4000;
        let p = 0.2;
        let (mut first, mut last) = (0, 0);
        for t in 0..trials {
            let imp = ImplicitGnp::new(12, p, t);
            let g = imp.materialize();
            if g.has_edge(0, 1) {
                first += 1;
            }
            if g.has_edge(10, 11) {
                last += 1;
            }
        }
        let f = first as f64 / trials as f64;
        let l = last as f64 / trials as f64;
        assert!((f - p).abs() < 0.03, "first-pair rate {f}");
        assert!((l - p).abs() < 0.03, "last-pair rate {l}");
    }

    #[test]
    fn implicit_extreme_probabilities() {
        let empty = ImplicitGnp::new(50, 0.0, 1);
        assert!(collect_edges(&empty, 0..50).is_empty());
        let full = ImplicitGnp::new(50, 1.0, 1);
        assert_eq!(collect_edges(&full, 0..50).len(), 50 * 49 / 2);
        assert_eq!(full.materialize(), Graph::complete(50));
        let tiny = ImplicitGnp::new(3, 1e-12, 1);
        // Skip lengths saturate instead of overflowing.
        assert!(collect_edges(&tiny, 0..3).len() <= 3);
    }

    #[test]
    fn implicit_average_degree_parameterization() {
        let imp = ImplicitGnp::with_average_degree(10_000, 20.0, 9);
        assert!((imp.expected_degree() - 20.0).abs() < 0.1);
        let g = imp.materialize();
        assert!((g.average_degree() - 20.0).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn implicit_invalid_p_panics() {
        let _ = ImplicitGnp::new(10, 1.5, 1);
    }
}
