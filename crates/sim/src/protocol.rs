//! The distributed-protocol interface.
//!
//! A distributed radio-broadcast protocol, in the model of §3.2 of the
//! paper, has **no topology knowledge**: a node's transmit decision in round
//! `t` may depend only on the global parameters it was given (`n`, `p`), its
//! own identity, the round it became informed, the current round, and its
//! private coins.  The [`Protocol`] trait encodes exactly that interface —
//! implementations receive a [`LocalNode`] view and *cannot* see the graph,
//! which makes "this protocol is distributed" a type-level guarantee rather
//! than a convention.
//!
//! [`crate::exec::RunSpec`] drives a protocol over a concrete graph with
//! the exact collision semantics of
//! [`RoundEngine`](crate::engine::RoundEngine).

use radio_graph::{NodeId, Xoshiro256pp};

use crate::kernel::EngineKernel;
use crate::trace::TraceLevel;

/// The locally observable state of one informed node at decision time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalNode {
    /// The node's identity (ids in `0..n` are globally known, as the paper
    /// assumes linearly bounded labels).
    pub id: NodeId,
    /// The round in which this node first received the message (0 = source).
    pub informed_round: u32,
    /// The current round being decided.
    pub round: u32,
}

/// A fully distributed radio-broadcast protocol.
///
/// Implementations decide, for each informed node independently, whether it
/// transmits in the current round.  They may keep internal *per-protocol*
/// configuration (derived from `n`, `p`) but no per-run topology state.
pub trait Protocol {
    /// Human-readable protocol name, used in experiment tables.
    fn name(&self) -> String;

    /// Called once at the start of each run with the node count, so
    /// protocols can derive their parameters (e.g. number of non-selective
    /// rounds).
    fn begin_run(&mut self, _n: usize) {}

    /// Whether the informed node described by `node` transmits this round.
    ///
    /// `rng` is the run's coin source; the runner calls this once per
    /// informed node per round, in node-id order.
    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool;

    /// Lane-batched decision: one transmit bit per trial lane for node
    /// `id`, for every lane set in the `lanes` mask (see [`crate::batch`]).
    ///
    /// `informed_round[l]` is the round lane `l`'s copy of the node became
    /// informed, and `rngs[l]` is lane `l`'s private coin stream.  The
    /// default implementation makes one scalar [`Protocol::transmits`] call
    /// per set lane, in ascending lane order, so every existing protocol
    /// works unchanged; a decision that is one coin of a probability fixed
    /// for the round is one [`Xoshiro256pp::lane_coins`] call instead.
    ///
    /// Overrides must preserve the bit-identity contract: for each lane,
    /// draw exactly the coins (count, order, and meaning) that the scalar
    /// `transmits` would draw from that lane's RNG, and return the same
    /// decision.  Bits outside `lanes` are ignored by the runner.
    fn transmits_lanes(
        &mut self,
        id: NodeId,
        round: u32,
        lanes: u64,
        informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        crate::batch::bits(lanes).fold(0, |word, l| {
            let node = LocalNode {
                id,
                informed_round: informed_round[l],
                round,
            };
            word | u64::from(self.transmits(node, &mut rngs[l])) << l
        })
    }
}

impl<P: Protocol + ?Sized> Protocol for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn begin_run(&mut self, n: usize) {
        (**self).begin_run(n);
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        (**self).transmits(node, rng)
    }

    fn transmits_lanes(
        &mut self,
        id: NodeId,
        round: u32,
        lanes: u64,
        informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        (**self).transmits_lanes(id, round, lanes, informed_round, rngs)
    }
}

/// Configuration of one protocol run (see [`crate::exec::RunSpec`]).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Hard cap on rounds; runs that do not complete report
    /// `completed = false`.
    pub max_rounds: u32,
    /// Trace verbosity.
    pub trace_level: TraceLevel,
    /// Per-reception independent loss probability (fault injection on top
    /// of collisions).  0 = the exact model of the paper.
    pub loss_prob: f64,
    /// Round kernel selection (default [`EngineKernel::Auto`]).  Kernel
    /// choice affects wall-clock only, never results.
    pub kernel: EngineKernel,
}

impl RunConfig {
    /// The default budget used throughout the experiments:
    /// `64·ln n + 1000` rounds, ample for every `O(ln n)` protocol while
    /// still terminating pathological runs.
    pub fn for_graph(n: usize) -> Self {
        let max_rounds = (64.0 * (n.max(2) as f64).ln()) as u32 + 1000;
        RunConfig {
            max_rounds,
            trace_level: TraceLevel::default(),
            loss_prob: 0.0,
            kernel: EngineKernel::default(),
        }
    }

    /// Overrides the trace level.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Overrides the round budget.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables fault injection: each otherwise-successful reception is lost
    /// independently with probability `loss_prob ∈ [0, 1]`.
    pub fn with_loss(mut self, loss_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss_prob));
        self.loss_prob = loss_prob;
        self
    }

    /// Overrides the round kernel (see [`crate::kernel`]).
    pub fn with_kernel(mut self, kernel: EngineKernel) -> Self {
        self.kernel = kernel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RunSpec;
    use crate::trace::RunResult;
    use radio_graph::Graph;

    fn run<P: Protocol>(
        g: &Graph,
        source: NodeId,
        protocol: &mut P,
        cfg: RunConfig,
        rng: &mut Xoshiro256pp,
    ) -> RunResult {
        RunSpec::on_graph(g, source)
            .with_config(cfg)
            .run_with_rng(protocol, rng)
            .into_single()
    }

    fn run_multi<P: Protocol>(
        g: &Graph,
        sources: &[NodeId],
        protocol: &mut P,
        cfg: RunConfig,
        rng: &mut Xoshiro256pp,
    ) -> RunResult {
        RunSpec::on_graph(g, sources[0])
            .with_sources(sources)
            .with_config(cfg)
            .run_with_rng(protocol, rng)
            .into_single()
    }

    /// Every informed node always transmits (naive flooding).
    struct AlwaysTransmit;
    impl Protocol for AlwaysTransmit {
        fn name(&self) -> String {
            "always".into()
        }
        fn transmits(&mut self, _node: LocalNode, _rng: &mut Xoshiro256pp) -> bool {
            true
        }
    }

    /// Nobody ever transmits.
    struct NeverTransmit;
    impl Protocol for NeverTransmit {
        fn name(&self) -> String {
            "never".into()
        }
        fn transmits(&mut self, _node: LocalNode, _rng: &mut Xoshiro256pp) -> bool {
            false
        }
    }

    #[test]
    fn flooding_completes_on_path() {
        // On a path, flooding has no collisions ahead of the frontier edge
        // case... actually on a path of 3+, interior nodes have two
        // neighbors; frontier moves fine from an endpoint source.
        let g = Graph::path(10);
        let mut rng = Xoshiro256pp::new(1);
        let r = run(
            &g,
            0,
            &mut AlwaysTransmit,
            RunConfig::for_graph(10),
            &mut rng,
        );
        assert!(r.completed);
        assert_eq!(r.rounds, 9);
    }

    #[test]
    fn never_transmit_times_out() {
        let g = Graph::path(3);
        let mut rng = Xoshiro256pp::new(1);
        let cfg = RunConfig::for_graph(3).with_max_rounds(17);
        let r = run(&g, 0, &mut NeverTransmit, cfg, &mut rng);
        assert!(!r.completed);
        assert_eq!(r.rounds, 17);
        assert_eq!(r.informed, 1);
    }

    #[test]
    fn flooding_stalls_on_even_collisions() {
        // Diamond: 0 — 1, 0 — 2, 1 — 3, 2 — 3. Flooding: round 1 informs
        // 1 and 2; round 2 both transmit → 3 always collides. Never
        // completes.
        let g = Graph::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut rng = Xoshiro256pp::new(1);
        let cfg = RunConfig::for_graph(4).with_max_rounds(50);
        let r = run(&g, 0, &mut AlwaysTransmit, cfg, &mut rng);
        assert!(!r.completed);
        assert_eq!(r.informed, 3);
        assert!(r.total_collisions() > 0);
    }

    #[test]
    fn single_node_completes_immediately() {
        let g = Graph::empty(1);
        let mut rng = Xoshiro256pp::new(1);
        let r = run(
            &g,
            0,
            &mut AlwaysTransmit,
            RunConfig::for_graph(1),
            &mut rng,
        );
        assert!(r.completed);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn trace_levels_respected() {
        let g = Graph::path(5);
        let mut rng = Xoshiro256pp::new(1);
        let cfg = RunConfig::for_graph(5).with_trace(TraceLevel::SummaryOnly);
        let r = run(&g, 0, &mut AlwaysTransmit, cfg, &mut rng);
        assert!(r.completed);
        assert!(r.trace.is_empty());
    }

    #[test]
    fn config_budget_scales_with_n() {
        let small = RunConfig::for_graph(10);
        let large = RunConfig::for_graph(1_000_000);
        assert!(large.max_rounds > small.max_rounds);
    }

    #[test]
    fn multi_source_run_is_faster_on_path() {
        let g = Graph::path(21);
        let mut rng = Xoshiro256pp::new(9);
        let single = run(
            &g,
            0,
            &mut AlwaysTransmit,
            RunConfig::for_graph(21),
            &mut rng,
        );
        // Source distance must be odd: two flooding frontiers meeting at a
        // midpoint with even separation collide there forever — itself a
        // nice demonstration of the radio model.
        let multi = run_multi(
            &g,
            &[0, 5],
            &mut AlwaysTransmit,
            RunConfig::for_graph(21),
            &mut rng,
        );
        assert!(single.completed && multi.completed);
        assert!(multi.rounds < single.rounds);

        let colliding = run_multi(
            &g,
            &[0, 20],
            &mut AlwaysTransmit,
            RunConfig::for_graph(21).with_max_rounds(100),
            &mut rng,
        );
        assert!(
            !colliding.completed,
            "even-separation frontiers should jam at the midpoint"
        );
    }

    #[test]
    fn lossy_run_still_completes_on_path() {
        let g = Graph::path(10);
        let mut rng = Xoshiro256pp::new(10);
        let cfg = RunConfig::for_graph(10).with_loss(0.3);
        let r = run(&g, 0, &mut AlwaysTransmit, cfg, &mut rng);
        assert!(r.completed);
        // Losses force retries: strictly more rounds than the lossless 9.
        assert!(r.rounds >= 9);
    }

    #[test]
    #[should_panic]
    fn invalid_loss_rejected() {
        let _ = RunConfig::for_graph(4).with_loss(1.5);
    }
}
