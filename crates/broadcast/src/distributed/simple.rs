//! Simple baseline protocols: flooding, constant-probability, round-robin.
//!
//! These are the control group for experiment `E-CMP`:
//!
//! * [`Flooding`] — every informed node transmits every round.  On sparse
//!   tree-like frontiers this is fast, but on dense graphs every uninformed
//!   node hears many transmitters at once and *never* decodes anything;
//!   experiment `E-FLD` measures its collapse as `d` grows, motivating the
//!   collision model (§1.1 of the paper).
//! * [`ConstantProb`] — transmit with fixed probability `q` every round.
//!   With `q = Θ(1/d)` this is a stripped-down version of the paper's
//!   stage-3; the sweep over `q` in `E-ABL` shows the `1/d` choice is the
//!   right one.
//! * [`RoundRobin`] — the trivial deterministic protocol: node `v` transmits
//!   in rounds `t ≡ v (mod n)`.  Collision-free but `Θ(n·D)` — the
//!   quadratic-flavored upper bound the paper's introduction contrasts
//!   against.

use radio_graph::{NodeId, Xoshiro256pp};
use radio_sim::{LocalNode, Protocol};

/// Naive flooding: every informed node transmits every round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flooding;

impl Protocol for Flooding {
    fn name(&self) -> String {
        "flooding".into()
    }

    fn transmits(&mut self, _node: LocalNode, _rng: &mut Xoshiro256pp) -> bool {
        true
    }

    fn transmits_lanes(
        &mut self,
        _id: NodeId,
        _round: u32,
        lanes: u64,
        _informed_round: &[u32],
        _rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        lanes
    }
}

/// Transmit with a fixed probability `q` every round.
#[derive(Debug, Clone, Copy)]
pub struct ConstantProb {
    q: f64,
}

impl ConstantProb {
    /// A constant-probability protocol with parameter `q ∈ [0, 1]`.
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "q = {q} outside [0, 1]");
        ConstantProb { q }
    }

    /// The transmit probability.
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl Protocol for ConstantProb {
    fn name(&self) -> String {
        format!("constant-q={:.4}", self.q)
    }

    fn transmits(&mut self, _node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        rng.coin(self.q)
    }

    fn transmits_lanes(
        &mut self,
        _id: NodeId,
        _round: u32,
        lanes: u64,
        _informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        Xoshiro256pp::lane_coins(rngs, lanes, self.q)
    }
}

/// Deterministic round-robin over node ids.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    n: u64,
}

impl Protocol for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn begin_run(&mut self, n: usize) {
        self.n = n.max(1) as u64;
    }

    fn transmits(&mut self, node: LocalNode, _rng: &mut Xoshiro256pp) -> bool {
        (node.round as u64 - 1) % self.n == node.id as u64
    }

    fn transmits_lanes(
        &mut self,
        id: NodeId,
        round: u32,
        lanes: u64,
        _informed_round: &[u32],
        _rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        if (round as u64 - 1) % self.n == id as u64 {
            lanes
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::gnp::sample_gnp;
    use radio_graph::Graph;
    use radio_sim::{RunConfig, RunSpec, TraceLevel};

    #[test]
    fn round_robin_is_collision_free() {
        let mut rng = Xoshiro256pp::new(1);
        let n = 64;
        let g = sample_gnp(n, 0.2, &mut rng);
        let mut proto = RoundRobin::default();
        let cfg = RunConfig::for_graph(n)
            .with_max_rounds((n * n) as u32)
            .with_trace(TraceLevel::PerRound);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed);
        assert_eq!(r.total_collisions(), 0);
        // At most one transmitter per round.
        assert!(r.trace.iter().all(|rec| rec.transmitters <= 1));
    }

    #[test]
    fn round_robin_completes_in_n_times_depth() {
        let g = Graph::path(10);
        let mut rng = Xoshiro256pp::new(2);
        let mut proto = RoundRobin::default();
        let cfg = RunConfig::for_graph(10).with_max_rounds(200);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed);
        assert!(r.rounds <= 100);
    }

    #[test]
    fn flooding_fails_on_dense_graph() {
        // Dense G(n, p): after round 1, many informed neighbors per
        // uninformed node → permanent collisions.
        let mut rng = Xoshiro256pp::new(3);
        let n = 500;
        let g = sample_gnp(n, 0.3, &mut rng);
        let mut proto = Flooding;
        let cfg = RunConfig::for_graph(n).with_max_rounds(300);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(!r.completed, "flooding unexpectedly completed");
    }

    #[test]
    fn flooding_succeeds_on_path() {
        let g = Graph::path(20);
        let mut rng = Xoshiro256pp::new(4);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(20))
            .run_with_rng(&mut Flooding, &mut rng)
            .into_single();
        assert!(r.completed);
        assert_eq!(r.rounds, 19);
    }

    #[test]
    fn constant_prob_near_inverse_degree_completes() {
        let mut rng = Xoshiro256pp::new(5);
        let n = 2000;
        let d = 25.0;
        let g = sample_gnp(n, d / n as f64, &mut rng);
        let mut proto = ConstantProb::new(1.0 / d);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed);
    }

    #[test]
    fn constant_prob_zero_stalls() {
        let g = Graph::path(3);
        let mut rng = Xoshiro256pp::new(6);
        let mut proto = ConstantProb::new(0.0);
        let cfg = RunConfig::for_graph(3).with_max_rounds(10);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(!r.completed);
        assert_eq!(r.informed, 1);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Flooding.name(), "flooding");
        assert_eq!(RoundRobin::default().name(), "round-robin");
        assert!(ConstantProb::new(0.25).name().contains("0.25"));
    }

    #[test]
    #[should_panic]
    fn constant_prob_validates_q() {
        let _ = ConstantProb::new(-0.1);
    }
}
