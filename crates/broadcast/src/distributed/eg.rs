//! The Elsässer–Gąsieniec randomized distributed protocol (Theorem 7).
//!
//! Nodes know only `n` and `p` (hence `d = pn`).  The protocol has three
//! stages, all defined purely by the current round number and the node's own
//! informed-time:
//!
//! 1. **Non-selective rounds** `1 … D₁ = ⌊log_d n⌋ − 1`: every informed node
//!    transmits.  By Lemma 3 the BFS layers around the source are near-trees
//!    at this depth, so flooding suffers few collisions and the informed set
//!    grows like `d^i`.
//! 2. **Seed round** `D = D₁ + 1`: informed nodes transmit with probability
//!    `n/d^D`, producing `Θ(n/d)` transmitters that inform `Θ(n)` nodes.
//! 3. **`1/d`-selective rounds** `> D`: transmit with probability `1/d`;
//!    each round informs a constant fraction of the remaining uninformed
//!    nodes (Lemma 4), so `O(ln n)` rounds finish the job — and another
//!    `O(ln n)` back-fill the stragglers in the early layers.
//!
//! The paper's statement restricts stage-3 transmissions to nodes informed
//! in rounds `1 … D` ([`EgVariant::Strict`]); the proof's final paragraph
//! then handles late-informed layers separately.  The
//! [`EgVariant::Practical`] variant lets every informed node join stage 3,
//! which is what the back-fill argument effectively uses; experiment `E-ABL`
//! compares the two.

use radio_graph::{NodeId, Xoshiro256pp};
use radio_sim::{LocalNode, Protocol};

use crate::theory::{non_selective_rounds, seed_round_probability};

/// Which nodes participate in the `1/d`-selective stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EgVariant {
    /// Only nodes informed in rounds `≤ D` transmit after round `D`
    /// (the paper's literal statement).
    Strict,
    /// Every informed node transmits with probability `1/d` after round `D`
    /// (the variant the completion argument uses; default).
    #[default]
    Practical,
}

/// The distributed protocol of Theorem 7.
///
/// ```
/// use radio_broadcast::prelude::*;
///
/// let n = 1_000;
/// let p = 30.0 / n as f64;
/// let mut rng = Xoshiro256pp::new(1);
/// let g = sample_gnp(n, p, &mut rng);
/// let mut proto = EgDistributed::new(p);
/// let run = RunSpec::on_graph(&g, 0)
///     .with_config(RunConfig::for_graph(n))
///     .run_with_rng(&mut proto, &mut rng)
///     .into_single();
/// assert!(run.completed);
/// ```
#[derive(Debug, Clone)]
pub struct EgDistributed {
    p: f64,
    variant: EgVariant,
    // Derived in `begin_run`:
    d: f64,
    d1: u32,
    seed_prob: f64,
}

impl EgDistributed {
    /// A protocol instance for edge probability `p` (the only global
    /// knowledge besides `n`, which arrives in `begin_run`).
    pub fn new(p: f64) -> Self {
        Self::with_variant(p, EgVariant::default())
    }

    /// Instance with an explicit stage-3 variant.
    pub fn with_variant(p: f64, variant: EgVariant) -> Self {
        assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
        EgDistributed {
            p,
            variant,
            d: 0.0,
            d1: 1,
            seed_prob: 1.0,
        }
    }

    /// Number of non-selective rounds `D₁` for the current run.
    pub fn d1(&self) -> u32 {
        self.d1
    }

    /// The expected degree `d = pn` for the current run.
    pub fn d(&self) -> f64 {
        self.d
    }

    /// The seed-round transmit probability.
    pub fn seed_prob(&self) -> f64 {
        self.seed_prob
    }

    /// The configured variant.
    pub fn variant(&self) -> EgVariant {
        self.variant
    }
}

impl Protocol for EgDistributed {
    fn name(&self) -> String {
        match self.variant {
            EgVariant::Strict => "eg-distributed-strict".into(),
            EgVariant::Practical => "eg-distributed".into(),
        }
    }

    fn begin_run(&mut self, n: usize) {
        self.d = (self.p * n as f64).max(2.0);
        self.d1 = non_selective_rounds(n, self.d);
        self.seed_prob = seed_round_probability(n, self.d);
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        let seed_round = self.d1 + 1;
        if node.round <= self.d1 {
            // Stage 1: non-selective flooding.
            true
        } else if node.round == seed_round {
            // Stage 2: n/d^D-selective seed round.
            rng.coin(self.seed_prob)
        } else {
            // Stage 3: 1/d-selective.
            if self.variant == EgVariant::Strict && node.informed_round > seed_round {
                return false;
            }
            rng.coin(1.0 / self.d)
        }
    }

    fn transmits_lanes(
        &mut self,
        _id: NodeId,
        round: u32,
        lanes: u64,
        informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        let seed_round = self.d1 + 1;
        if round <= self.d1 {
            lanes
        } else if round == seed_round {
            Xoshiro256pp::lane_coins(rngs, lanes, self.seed_prob)
        } else {
            let mut lanes = lanes;
            if self.variant == EgVariant::Strict {
                for (l, &r) in informed_round.iter().enumerate() {
                    if r > seed_round {
                        lanes &= !(1 << l);
                    }
                }
            }
            Xoshiro256pp::lane_coins(rngs, lanes, 1.0 / self.d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::gnp::sample_gnp;
    use radio_sim::{RunConfig, RunSpec};

    #[test]
    fn stages_follow_round_structure() {
        let mut proto = EgDistributed::new(16.0 / 65536.0);
        proto.begin_run(65536);
        assert_eq!(proto.d1(), 3);
        let mut rng = Xoshiro256pp::new(1);
        // Stage 1: always transmits.
        for round in 1..=3 {
            let node = LocalNode {
                id: 0,
                informed_round: 0,
                round,
            };
            assert!(proto.transmits(node, &mut rng));
        }
    }

    #[test]
    fn strict_variant_excludes_late_nodes() {
        let mut proto = EgDistributed::with_variant(0.01, EgVariant::Strict);
        proto.begin_run(10_000);
        let seed_round = proto.d1() + 1;
        let mut rng = Xoshiro256pp::new(2);
        let late = LocalNode {
            id: 5,
            informed_round: seed_round + 3,
            round: seed_round + 10,
        };
        // A late-informed node never transmits in stage 3 under Strict.
        assert!(!(0..200).any(|_| {
            let mut p = proto.clone();
            p.transmits(late, &mut rng)
        }));
    }

    #[test]
    fn practical_late_nodes_sometimes_transmit() {
        let mut proto = EgDistributed::new(0.01);
        proto.begin_run(10_000);
        let seed_round = proto.d1() + 1;
        let mut rng = Xoshiro256pp::new(3);
        let late = LocalNode {
            id: 5,
            informed_round: seed_round + 3,
            round: seed_round + 10,
        };
        assert!((0..5000).any(|_| proto.transmits(late, &mut rng)));
    }

    #[test]
    fn completes_on_random_graph() {
        let mut rng = Xoshiro256pp::new(4);
        let n = 4000;
        let p = 25.0 / n as f64;
        let g = sample_gnp(n, p, &mut rng);
        let mut proto = EgDistributed::new(p);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed, "informed {}/{}", r.informed, n);
        // O(ln n) scale: ln 4000 ≈ 8.3; allow a generous constant.
        assert!(r.rounds < 40 * 9, "rounds = {}", r.rounds);
    }

    #[test]
    fn completes_on_dense_graph() {
        let mut rng = Xoshiro256pp::new(5);
        let n = 2000;
        let p = 0.2;
        let g = sample_gnp(n, p, &mut rng);
        let mut proto = EgDistributed::new(p);
        let r = RunSpec::on_graph(&g, 7)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed);
    }

    #[test]
    #[should_panic]
    fn invalid_p_rejected() {
        let _ = EgDistributed::new(1.5);
    }
}
