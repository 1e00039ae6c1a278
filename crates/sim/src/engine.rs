//! The round engine: exact radio collision semantics.
//!
//! Implements the communication model of §1.1 of the paper.  In one
//! synchronous step every node either transmits or listens; a listening node
//! `w` receives the message iff **exactly one** of its neighbors transmits.
//! Two or more transmitting neighbors collide at `w` and deliver nothing;
//! a node that transmits in a step cannot receive in that step.
//!
//! [`RoundEngine`] owns two interchangeable kernels for this rule — the
//! CSR-walking *sparse* kernel below and the bit-parallel *dense* kernel in
//! [`crate::kernel`] — selected per round by [`EngineKernel`].  All scratch
//! (hit counts, transmitter mask, the effective-transmitter list, bit
//! planes) is kept between rounds, so a full broadcast run allocates `O(n)`
//! once.

use radio_graph::{Graph, NodeId};

use crate::bitset::BitSet;
use crate::fault::FaultSession;
use crate::kernel::{dense_is_cheaper, DenseState, EngineKernel, KernelUsed};
use crate::state::BroadcastState;

/// What transmissions by uninformed nodes mean.
///
/// The standard model only lets informed nodes transmit usefully.  The
/// lower-bound proofs of Theorems 6 and 8 analyze a *relaxed* model where a
/// scheduled set transmits regardless of knowledge status (this only makes
/// the adversary stronger, hence the lower bound stronger); the experiments
/// for those theorems use [`TransmitterPolicy::Unrestricted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransmitterPolicy {
    /// Uninformed transmitters are removed from the transmit set before the
    /// round is evaluated (they have nothing to send, so they neither
    /// deliver nor jam).
    #[default]
    InformedOnly,
    /// Every scheduled transmitter participates and delivers the message —
    /// the relaxed lower-bound model of Theorem 6's proof.
    Unrestricted,
}

/// Statistics of a single executed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundOutcome {
    /// Number of nodes that actually transmitted.
    pub transmitters: usize,
    /// Nodes newly informed this round.
    pub newly_informed: usize,
    /// Uninformed listeners that heard ≥ 2 transmitters (collisions that
    /// mattered).
    pub collisions: usize,
    /// Uninformed listeners in range of ≥ 1 transmitter (reached, whether
    /// or not they could decode).
    pub reached: usize,
}

/// Reusable round executor for one graph.
#[derive(Debug)]
pub struct RoundEngine<'g> {
    graph: &'g Graph,
    /// Scratch: number of transmitting neighbors per node this round.
    hits: Vec<u32>,
    /// Scratch: nodes whose `hits` entry is dirty.
    touched: Vec<NodeId>,
    /// Scratch: transmitter membership (word-packed; the dense kernel masks
    /// receptions with its raw words).
    is_transmitter: BitSet,
    /// Scratch: the effective (deduplicated, policy-filtered) transmitter
    /// list, reused across rounds.
    active: Vec<NodeId>,
    policy: TransmitterPolicy,
    kernel: EngineKernel,
    dense: DenseState,
    sparse_rounds: u64,
    dense_rounds: u64,
    tiled_rounds: u64,
}

impl<'g> RoundEngine<'g> {
    /// A new engine for `graph` with the default
    /// [`TransmitterPolicy::InformedOnly`] and [`EngineKernel::Auto`].
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_policy(graph, TransmitterPolicy::default())
    }

    /// A new engine with an explicit transmitter policy.
    pub fn with_policy(graph: &'g Graph, policy: TransmitterPolicy) -> Self {
        RoundEngine {
            graph,
            hits: vec![0; graph.n()],
            touched: Vec::new(),
            is_transmitter: BitSet::new(graph.n()),
            active: Vec::new(),
            policy,
            kernel: EngineKernel::default(),
            dense: DenseState::new(),
            sparse_rounds: 0,
            dense_rounds: 0,
            tiled_rounds: 0,
        }
    }

    /// Builder-style kernel selection (see [`RoundEngine::set_kernel`]).
    pub fn with_kernel(mut self, kernel: EngineKernel) -> Self {
        self.set_kernel(kernel);
        self
    }

    /// Selects the round kernel.  `Auto` (the default) applies the cost
    /// model of [`dense_is_cheaper`] per round; `Dense` is a request, not a
    /// guarantee — it still falls back to sparse when the adjacency bitmap
    /// would exceed [`RoundEngine::bitmap_cap`].
    pub fn set_kernel(&mut self, kernel: EngineKernel) {
        self.kernel = kernel;
    }

    /// The configured kernel selection mode.
    pub fn kernel(&self) -> EngineKernel {
        self.kernel
    }

    /// Which kernel(s) executed the rounds so far (`Sparse` before any
    /// round has run).
    pub fn kernel_used(&self) -> KernelUsed {
        match (
            self.sparse_rounds > 0,
            self.dense_rounds > 0,
            self.tiled_rounds > 0,
        ) {
            (false, true, false) => KernelUsed::Dense,
            (false, false, true) => KernelUsed::Tiled,
            (false, false, false) | (true, false, false) => KernelUsed::Sparse,
            _ => KernelUsed::Mixed,
        }
    }

    /// Rounds executed by each kernel so far, `(sparse, dense, tiled)`.
    ///
    /// On this scalar engine a "tiled" round executes on the dense
    /// bit-parallel path (a single lane needs no lane tiling) but is
    /// counted under the requested kernel.
    pub fn rounds_by_kernel(&self) -> (u64, u64, u64) {
        (self.sparse_rounds, self.dense_rounds, self.tiled_rounds)
    }

    /// The adjacency-bitmap memory cap in bytes (default
    /// [`crate::kernel::DEFAULT_BITMAP_CAP_BYTES`]).
    pub fn bitmap_cap(&self) -> usize {
        self.dense.cap_bytes()
    }

    /// Caps the dense kernel's adjacency bitmap: when
    /// [`radio_graph::AdjacencyBitmap::bytes_needed`] for this graph
    /// exceeds the cap, every round runs sparse regardless of the selected
    /// kernel, and the bitmap is never allocated.
    pub fn set_bitmap_cap(&mut self, cap_bytes: usize) {
        self.dense.set_cap_bytes(cap_bytes);
    }

    /// Wall time spent building the adjacency bitmap, or `None` if it has
    /// not been built (no dense round yet, or the cap refused it).
    pub fn bitmap_build_ns(&self) -> Option<u64> {
        self.dense.build_ns()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The configured transmitter policy.
    pub fn policy(&self) -> TransmitterPolicy {
        self.policy
    }

    /// Executes one radio round: the nodes of `transmitters` transmit
    /// simultaneously in round `round`, and `state` is updated with every
    /// successful reception.
    ///
    /// Duplicate entries in `transmitters` are ignored.  Under
    /// [`TransmitterPolicy::InformedOnly`], uninformed entries are skipped.
    pub fn execute_round(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
    ) -> RoundOutcome {
        self.execute_with(state, transmitters, round, None, false, |_| true)
    }

    /// Like [`RoundEngine::execute_round`], under a fault session (see
    /// [`crate::fault`]) and i.i.d. reception loss.  With `faults`,
    /// blocked (crashed/asleep) nodes neither transmit nor receive, muted
    /// transmitters are dropped, the session's jammers transmit noise
    /// over their whole neighborhood, and receptions at nodes whose burst
    /// channel is bad (lane 0 of the session) are lost.  On top of that,
    /// each otherwise-successful reception is lost with probability
    /// `loss_prob`.  Lost receptions count in [`RoundOutcome::reached`]
    /// but not in `newly_informed` or `collisions`.
    ///
    /// The caller must have advanced the session to `round` with
    /// [`FaultSession::begin_round`] first.  The burst veto draws no coin;
    /// the loss coin (none at `loss_prob = 0`) is drawn once per
    /// exactly-one reception at a non-jammed, non-burst-bad listener, in
    /// ascending node-id order, so lossy and faulty runs replay
    /// identically across kernels.
    pub fn execute_round_faulty(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
        faults: Option<&FaultSession<'_>>,
        loss_prob: f64,
        rng: &mut radio_graph::Xoshiro256pp,
    ) -> RoundOutcome {
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "loss_prob must be within [0, 1], got {loss_prob}"
        );
        let canonical_order = faults.is_some() || loss_prob > 0.0;
        self.execute_with(state, transmitters, round, faults, canonical_order, |w| {
            faults.is_none_or(|s| s.burst_word(w, 0) & 1 == 0)
                && (loss_prob <= 0.0 || !rng.coin(loss_prob))
        })
    }

    /// Core round logic; `deliver` is consulted once per would-be-successful
    /// reception and may veto it (fault injection).
    ///
    /// When `deliver` is stateful (`canonical_order`), receptions are
    /// resolved in ascending node-id order — the dense kernel's natural
    /// order — keeping the two kernels' RNG draw sequences identical.
    fn execute_with(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
        faults: Option<&FaultSession<'_>>,
        canonical_order: bool,
        mut deliver: impl FnMut(NodeId) -> bool,
    ) -> RoundOutcome {
        debug_assert_eq!(state.n(), self.graph.n());

        // Build the effective transmitter set into the reused scratch list
        // and its bit mask.
        self.active.clear();
        for &t in transmitters {
            if self.is_transmitter.get(t as usize) {
                continue; // duplicate
            }
            if self.policy == TransmitterPolicy::InformedOnly && !state.is_informed(t) {
                continue;
            }
            if faults.is_some_and(|s| s.mute(t)) {
                continue;
            }
            self.is_transmitter.set(t as usize);
            self.active.push(t);
        }
        // Jammers occupy the channel too: they cannot receive this round.
        let jammers = faults.map_or(&[][..], |s| s.jammers());
        for &j in jammers {
            self.is_transmitter.set(j as usize);
        }

        let use_dense = match self.kernel {
            EngineKernel::Sparse => false,
            // A single scalar lane needs no lane tiling: a `Tiled`
            // request runs the dense bit-parallel path here (counted as
            // tiled), exactly as `Dense` would.
            EngineKernel::Dense | EngineKernel::Tiled => self.dense.ensure_ready(self.graph),
            EngineKernel::Auto => {
                let words = self.graph.n().div_ceil(64) as u64;
                let sum_deg: u64 = (self.active.iter().chain(jammers))
                    .map(|&t| self.graph.degree(t) as u64)
                    .sum();
                let senders = (self.active.len() + jammers.len()) as u64;
                dense_is_cheaper(sum_deg, senders, words)
                    && self.dense.fits_cap(self.graph)
                    && self.dense.ensure_ready(self.graph)
            }
        };

        let blocked = faults.map(|s| s.blocked());
        let outcome = if use_dense {
            if self.kernel == EngineKernel::Tiled {
                self.tiled_rounds += 1;
            } else {
                self.dense_rounds += 1;
            }
            self.dense.execute(
                state,
                &self.active,
                jammers,
                &self.is_transmitter,
                blocked,
                round,
                deliver,
            )
        } else {
            self.sparse_rounds += 1;
            self.execute_sparse(
                state,
                jammers,
                blocked,
                round,
                &mut deliver,
                canonical_order,
            )
        };

        // Reset the transmitter mask; the list stays for reuse.
        for &t in self.active.iter().chain(jammers) {
            self.is_transmitter.unset(t as usize);
        }
        outcome
    }

    /// The CSR-walking kernel: count transmitting neighbors of every node
    /// the effective transmitters reach, then resolve exactly-one
    /// receptions.  A jammer's noise counts as two hits, so a node it
    /// reaches hears a collision, never a delivery; `blocked` nodes
    /// (crashed/asleep) cannot receive.
    fn execute_sparse(
        &mut self,
        state: &mut BroadcastState,
        jammers: &[NodeId],
        blocked: Option<&BitSet>,
        round: u32,
        deliver: &mut impl FnMut(NodeId) -> bool,
        canonical_order: bool,
    ) -> RoundOutcome {
        let mut outcome = RoundOutcome {
            transmitters: self.active.len() + jammers.len(),
            ..RoundOutcome::default()
        };

        let senders = self.active.iter().map(|&t| (t, 1));
        for (t, noise) in senders.chain(jammers.iter().map(|&j| (j, 2))) {
            for &w in self.graph.neighbors(t) {
                if self.hits[w as usize] == 0 {
                    self.touched.push(w);
                }
                self.hits[w as usize] += noise;
            }
        }

        // A stateful `deliver` must see receptions in ascending node id to
        // match the dense kernel draw-for-draw; with the constant-true
        // closure the outcome is order-invariant and the sort is skipped.
        if canonical_order {
            self.touched.sort_unstable();
        }

        // Resolve receptions.
        for i in 0..self.touched.len() {
            let w = self.touched[i];
            let h = self.hits[w as usize];
            if self.is_transmitter.get(w as usize) {
                continue; // transmitting (or jamming), not listening
            }
            if blocked.is_some_and(|b| b.get(w as usize)) {
                continue; // crashed or asleep: deaf
            }
            if !state.is_informed(w) {
                outcome.reached += 1;
                if h == 1 {
                    if deliver(w) {
                        state.inform(w, round);
                        outcome.newly_informed += 1;
                    }
                } else {
                    outcome.collisions += 1;
                }
            }
        }

        // Reset scratch.
        for &w in &self.touched {
            self.hits[w as usize] = 0;
        }
        self.touched.clear();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::Graph;

    #[test]
    fn single_transmitter_informs_neighbors() {
        let g = Graph::star(5);
        let mut st = BroadcastState::new(5, 0);
        let mut eng = RoundEngine::new(&g);
        let out = eng.execute_round(&mut st, &[0], 1);
        assert_eq!(out.transmitters, 1);
        assert_eq!(out.newly_informed, 4);
        assert_eq!(out.collisions, 0);
        assert!(st.is_complete());
        assert_eq!(st.informed_round(3), Some(1));
    }

    #[test]
    fn two_transmitters_collide() {
        // 0 — 2, 1 — 2: both 0 and 1 transmit → 2 hears a collision.
        let g = Graph::from_edges(3, vec![(0, 2), (1, 2)]);
        let mut st = BroadcastState::new(3, 0);
        st.inform(1, 0);
        let mut eng = RoundEngine::new(&g);
        let out = eng.execute_round(&mut st, &[0, 1], 1);
        assert_eq!(out.newly_informed, 0);
        assert_eq!(out.collisions, 1);
        assert_eq!(out.reached, 1);
        assert!(!st.is_informed(2));
    }

    #[test]
    fn transmitter_does_not_receive() {
        // 0 — 1; both informed? no: make 1 uninformed but transmitting
        // under the unrestricted policy — it must not *receive* from 0.
        let g = Graph::from_edges(2, vec![(0, 1)]);
        let mut st = BroadcastState::new(2, 0);
        let mut eng = RoundEngine::with_policy(&g, TransmitterPolicy::Unrestricted);
        let out = eng.execute_round(&mut st, &[0, 1], 1);
        assert_eq!(out.newly_informed, 0);
        assert!(!st.is_informed(1));
        assert_eq!(out.transmitters, 2);
    }

    #[test]
    fn informed_only_policy_filters() {
        let g = Graph::path(3);
        let mut st = BroadcastState::new(3, 0);
        let mut eng = RoundEngine::new(&g);
        // Node 2 is uninformed; scheduling it must be a no-op.
        let out = eng.execute_round(&mut st, &[2], 1);
        assert_eq!(out.transmitters, 0);
        assert_eq!(out.newly_informed, 0);
    }

    #[test]
    fn unrestricted_policy_lets_uninformed_deliver() {
        let g = Graph::path(3);
        let mut st = BroadcastState::new(3, 0);
        let mut eng = RoundEngine::with_policy(&g, TransmitterPolicy::Unrestricted);
        // Uninformed node 2 transmits; its neighbor 1 receives (relaxed
        // lower-bound model).
        let out = eng.execute_round(&mut st, &[2], 1);
        assert_eq!(out.transmitters, 1);
        assert_eq!(out.newly_informed, 1);
        assert!(st.is_informed(1));
    }

    #[test]
    fn duplicates_ignored() {
        let g = Graph::from_edges(3, vec![(0, 2), (1, 2)]);
        let mut st = BroadcastState::new(3, 0);
        let mut eng = RoundEngine::new(&g);
        // Duplicate 0s must not be double-counted as two transmitters.
        let out = eng.execute_round(&mut st, &[0, 0], 1);
        assert_eq!(out.transmitters, 1);
        assert_eq!(out.newly_informed, 1);
        assert!(st.is_informed(2));
    }

    #[test]
    fn already_informed_receiver_not_counted() {
        let g = Graph::path(3);
        let mut st = BroadcastState::new(3, 1);
        st.inform(0, 0);
        let mut eng = RoundEngine::new(&g);
        let out = eng.execute_round(&mut st, &[1], 1);
        // Node 0 already informed → only node 2 newly informed.
        assert_eq!(out.newly_informed, 1);
        assert_eq!(out.reached, 1);
    }

    #[test]
    fn scratch_reset_between_rounds() {
        let g = Graph::star(4);
        let mut st = BroadcastState::new(4, 0);
        let mut eng = RoundEngine::new(&g);
        eng.execute_round(&mut st, &[0], 1);
        // Second round with a different transmitter: counts must restart.
        let out = eng.execute_round(&mut st, &[1], 2);
        assert_eq!(out.transmitters, 1);
        assert_eq!(out.newly_informed, 0); // all informed already
        assert_eq!(out.collisions, 0);
    }

    #[test]
    fn lossy_round_extremes() {
        use radio_graph::Xoshiro256pp;
        let g = Graph::star(5);
        let mut rng = Xoshiro256pp::new(1);
        // loss 0 behaves like the exact engine.
        let mut st = BroadcastState::new(5, 0);
        let mut eng = RoundEngine::new(&g);
        let out = eng.execute_round_faulty(&mut st, &[0], 1, None, 0.0, &mut rng);
        assert_eq!(out.newly_informed, 4);
        // loss 1 delivers nothing but still reports reach.
        let mut st = BroadcastState::new(5, 0);
        let out = eng.execute_round_faulty(&mut st, &[0], 1, None, 1.0, &mut rng);
        assert_eq!(out.newly_informed, 0);
        assert_eq!(out.reached, 4);
        assert_eq!(st.informed_count(), 1);
    }

    #[test]
    fn lossy_round_rate_roughly_matches() {
        use radio_graph::Xoshiro256pp;
        let n = 2001;
        let g = Graph::star(n);
        let mut rng = Xoshiro256pp::new(2);
        let mut st = BroadcastState::new(n, 0);
        let mut eng = RoundEngine::new(&g);
        let out = eng.execute_round_faulty(&mut st, &[0], 1, None, 0.3, &mut rng);
        let rate = out.newly_informed as f64 / (n - 1) as f64;
        assert!((rate - 0.7).abs() < 0.05, "delivery rate {rate}");
    }

    #[test]
    fn empty_transmitter_set() {
        let g = Graph::path(2);
        let mut st = BroadcastState::new(2, 0);
        let mut eng = RoundEngine::new(&g);
        let out = eng.execute_round(&mut st, &[], 1);
        assert_eq!(out, RoundOutcome::default());
    }

    #[test]
    fn explicit_kernels_agree_on_a_full_run() {
        use radio_graph::{gnp::sample_gnp, Xoshiro256pp};
        let g = sample_gnp(300, 0.1, &mut Xoshiro256pp::new(11));
        let mut states = Vec::new();
        for kernel in [
            EngineKernel::Sparse,
            EngineKernel::Dense,
            EngineKernel::Tiled,
        ] {
            let mut eng = RoundEngine::new(&g).with_kernel(kernel);
            let mut st = BroadcastState::new(300, 0);
            let mut sched_rng = Xoshiro256pp::new(99);
            for round in 1..=40 {
                let tx: Vec<NodeId> = st
                    .informed_vec()
                    .into_iter()
                    .filter(|_| sched_rng.coin(0.25))
                    .collect();
                eng.execute_round(&mut st, &tx, round);
            }
            states.push(st);
        }
        for (i, st) in states.iter().enumerate() {
            assert_eq!(*st, states[0], "kernel {i} vs sparse");
        }
    }

    #[test]
    fn lossy_rng_draws_identical_across_kernels() {
        use radio_graph::{gnp::sample_gnp, Xoshiro256pp};
        let g = sample_gnp(256, 0.15, &mut Xoshiro256pp::new(21));
        let mut finals = Vec::new();
        for kernel in [
            EngineKernel::Sparse,
            EngineKernel::Dense,
            EngineKernel::Tiled,
        ] {
            let mut eng = RoundEngine::new(&g).with_kernel(kernel);
            let mut st = BroadcastState::new(256, 0);
            let mut loss_rng = Xoshiro256pp::new(7);
            let mut sched_rng = Xoshiro256pp::new(8);
            for round in 1..=30 {
                let tx: Vec<NodeId> = st
                    .informed_vec()
                    .into_iter()
                    .filter(|_| sched_rng.coin(0.3))
                    .collect();
                eng.execute_round_faulty(&mut st, &tx, round, None, 0.35, &mut loss_rng);
            }
            // Same informed sets AND same residual RNG stream: the loss
            // coin was flipped for the same nodes in the same order.
            finals.push((st, loss_rng.next()));
        }
        for (i, f) in finals.iter().enumerate() {
            assert_eq!(*f, finals[0], "kernel {i} vs sparse");
        }
    }

    #[test]
    #[should_panic(expected = "loss_prob must be within")]
    fn lossy_round_rejects_invalid_probability_in_release_too() {
        use radio_graph::Xoshiro256pp;
        let g = Graph::path(3);
        let mut st = BroadcastState::new(3, 0);
        let mut eng = RoundEngine::new(&g);
        let mut rng = Xoshiro256pp::new(1);
        // Hard assert, not debug_assert: must also fire with -O.
        let _ = eng.execute_round_faulty(&mut st, &[0], 1, None, 1.5, &mut rng);
    }

    #[test]
    fn faulty_rng_draws_identical_across_kernels() {
        use crate::fault::{FaultPlan, FaultSession};
        use radio_graph::{gnp::sample_gnp, Xoshiro256pp};
        let g = sample_gnp(256, 0.15, &mut Xoshiro256pp::new(23));
        let mut plan = FaultPlan::new(256);
        plan.crash(5, 4)
            .crash(17, 10)
            .sleep(30, 8)
            .sleep(31, 12)
            .jam(40, 3, 20)
            .set_burst(0.3, 0.25);
        let mut finals = Vec::new();
        for kernel in [
            EngineKernel::Sparse,
            EngineKernel::Dense,
            EngineKernel::Tiled,
        ] {
            let mut eng = RoundEngine::new(&g).with_kernel(kernel);
            let mut st = BroadcastState::new(256, 0);
            let mut rng = Xoshiro256pp::new(7);
            let mut sched_rng = Xoshiro256pp::new(8);
            let mut session = FaultSession::new(&plan, 1);
            let mut outcomes = Vec::new();
            for round in 1..=30 {
                session.begin_round(round, &[1], std::slice::from_mut(&mut rng));
                let tx: Vec<NodeId> = st
                    .informed_vec()
                    .into_iter()
                    .filter(|&v| !session.mute(v))
                    .filter(|_| sched_rng.coin(0.3))
                    .collect();
                let faults = Some(&session);
                outcomes.push(eng.execute_round_faulty(&mut st, &tx, round, faults, 0.2, &mut rng));
            }
            // Same informed sets, same per-round outcome counters, AND the
            // same residual RNG stream: burst and loss coins were drawn
            // for the same nodes in the same order.
            finals.push((st, outcomes, rng.next()));
        }
        for (i, f) in finals.iter().enumerate() {
            assert_eq!(*f, finals[0], "kernel {i} vs sparse");
        }
    }

    #[test]
    fn faulty_round_semantics() {
        use crate::fault::{FaultPlan, FaultSession};
        use radio_graph::Xoshiro256pp;
        // Star on 6 nodes, center 0.  Node 1 jams from round 1: the center
        // transmitting alone would inform every leaf, but the jam hit at
        // the center makes it a collision; leaves 2..=5 are only reached by
        // the center (node 1's noise does not reach them on a star), so
        // they still receive — except 2 (crashed) and 3 (asleep).
        let g = Graph::star(6);
        let mut plan = FaultPlan::new(6);
        plan.crash(2, 1).sleep(3, 3).jam(1, 1, u32::MAX);
        for kernel in [
            EngineKernel::Sparse,
            EngineKernel::Dense,
            EngineKernel::Tiled,
        ] {
            let mut eng = RoundEngine::new(&g).with_kernel(kernel);
            let mut st = BroadcastState::new(6, 0);
            let mut rng = Xoshiro256pp::new(1);
            let mut session = FaultSession::new(&plan, 1);
            session.begin_round(1, &[1], std::slice::from_mut(&mut rng));
            assert_eq!(session.jammers(), &[1]);
            let out = eng.execute_round_faulty(&mut st, &[0], 1, Some(&session), 0.0, &mut rng);
            // Transmitter count includes the jammer.
            assert_eq!(out.transmitters, 2, "{kernel:?}");
            // Leaves 4 and 5 delivered; 2 (crashed) and 3 (asleep) deaf;
            // 1 is busy jamming.
            assert_eq!(out.newly_informed, 2, "{kernel:?}");
            assert!(st.is_informed(4) && st.is_informed(5));
            assert!(!st.is_informed(1) && !st.is_informed(2) && !st.is_informed(3));

            // Round 2: node 4 transmits; the center hears 4 + jam noise →
            // collision, no delivery anywhere.
            session.begin_round(2, &[1], std::slice::from_mut(&mut rng));
            let mut st2 = BroadcastState::new(6, 4);
            let out2 = eng.execute_round_faulty(&mut st2, &[4], 2, Some(&session), 0.0, &mut rng);
            assert_eq!(out2.newly_informed, 0, "{kernel:?}");
            assert_eq!(out2.collisions, 1, "{kernel:?}");
            assert_eq!(out2.reached, 1, "{kernel:?}");
        }
    }

    #[test]
    fn burst_veto_reads_lane_zero_only() {
        use crate::driver::ScalarRound;
        use crate::fault::{FaultPlan, FaultSession};
        use crate::sweep::SweepEngine;
        use radio_graph::Xoshiro256pp;
        // Every channel of a stepped lane goes bad at once.  With only
        // lane 1 stepped, lane 0 — the scalar engines' lane — stays good
        // and the center reaches all three leaves; with lane 0 stepped,
        // every reception is lost.
        let g = Graph::star(4);
        let mut plan = FaultPlan::new(4);
        plan.set_burst(1.0, 0.0);
        for (active, delivered) in [(0b10u64, 3), (0b01, 0)] {
            let mut session = FaultSession::new(&plan, 1);
            let mut rngs: Vec<Xoshiro256pp> = (0..64).map(Xoshiro256pp::new).collect();
            session.begin_round(1, &[active], &mut rngs);
            let mut rng = Xoshiro256pp::new(2);
            for kernel in [
                EngineKernel::Sparse,
                EngineKernel::Dense,
                EngineKernel::Tiled,
            ] {
                let mut eng = RoundEngine::new(&g).with_kernel(kernel);
                let mut st = BroadcastState::new(4, 0);
                let out = eng.execute_round_faulty(&mut st, &[0], 1, Some(&session), 0.0, &mut rng);
                assert_eq!(
                    out.newly_informed, delivered,
                    "{kernel:?}, lanes {active:#b}"
                );
            }
            let mut sweep = SweepEngine::new(&g, None);
            let mut st = BroadcastState::new(4, 0);
            let out = sweep.execute_round_faulty(&mut st, &[0], 1, Some(&session), 0.0, &mut rng);
            assert_eq!(out.newly_informed, delivered, "sweep, lanes {active:#b}");
        }
    }

    #[test]
    fn kernel_usage_counters() {
        let g = Graph::star(80);
        let mut st = BroadcastState::new(80, 0);
        let mut eng = RoundEngine::new(&g).with_kernel(EngineKernel::Sparse);
        assert_eq!(eng.kernel_used(), KernelUsed::Sparse);
        eng.execute_round(&mut st, &[0], 1);
        assert_eq!(eng.rounds_by_kernel(), (1, 0, 0));
        eng.set_kernel(EngineKernel::Dense);
        eng.execute_round(&mut st, &[1], 2);
        assert_eq!(eng.rounds_by_kernel(), (1, 1, 0));
        assert_eq!(eng.kernel_used(), KernelUsed::Mixed);
        assert_eq!(eng.kernel(), EngineKernel::Dense);
        eng.set_kernel(EngineKernel::Tiled);
        eng.execute_round(&mut st, &[2], 3);
        assert_eq!(eng.rounds_by_kernel(), (1, 1, 1));
        assert_eq!(eng.kernel_used(), KernelUsed::Mixed);
    }

    #[test]
    fn tiled_requests_count_as_tiled_rounds() {
        let g = Graph::star(80);
        let mut st = BroadcastState::new(80, 0);
        let mut eng = RoundEngine::new(&g).with_kernel(EngineKernel::Tiled);
        eng.execute_round(&mut st, &[0], 1);
        assert_eq!(eng.rounds_by_kernel(), (0, 0, 1));
        assert_eq!(eng.kernel_used(), KernelUsed::Tiled);
    }
}
