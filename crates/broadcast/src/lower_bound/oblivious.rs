//! Oblivious probability-profile protocols (Theorem 8 machinery).
//!
//! Theorem 8 lower-bounds *every* distributed protocol whose nodes know only
//! `n`, `p`, and the current time `t`.  The proof observes that such a
//! protocol is equivalent to each informed node transmitting with a
//! probability `q(t)` that depends on `(n, p, t)` alone — a **probability
//! profile**.  [`ProbabilityProfile`] implements that class as a
//! [`radio_sim::Protocol`], and the generators below produce the families
//! experiment `E-T8` sweeps:
//!
//! * [`ProbabilityProfile::constant`] — fixed `q`;
//! * [`ProbabilityProfile::geometric`] — `q₀·f^t` decays;
//! * [`ProbabilityProfile::random`] — log-uniform random `q(t) ∈ [d^{-2}, 1]`
//!   per round, the "generic oblivious protocol";
//! * [`eg_profile`] — the paper's own protocol flattened into profile form
//!   (its stage structure is a function of `t` only, so it *is* a profile —
//!   modulo the strict variant's informed-time gate).
//!
//! Truncating any of these at `c·ln n` rounds for small `c` and measuring
//! the completion probability is the empirical analogue of the theorem.

use radio_graph::{NodeId, Xoshiro256pp};
use radio_sim::{LocalNode, Protocol};

use crate::theory::{non_selective_rounds, seed_round_probability};

/// A protocol defined entirely by a per-round transmit probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityProfile {
    name: String,
    probs: Vec<f64>,
    /// Probability used for rounds beyond `probs.len()`.
    tail: f64,
}

impl ProbabilityProfile {
    /// A profile from explicit per-round probabilities; rounds past the end
    /// use `tail`.
    pub fn new(name: impl Into<String>, probs: Vec<f64>, tail: f64) -> Self {
        assert!(
            probs.iter().chain([&tail]).all(|q| (0.0..=1.0).contains(q)),
            "probabilities must lie in [0, 1]"
        );
        ProbabilityProfile {
            name: name.into(),
            probs,
            tail,
        }
    }

    /// Constant profile `q(t) = q`.
    pub fn constant(q: f64) -> Self {
        Self::new(format!("profile-const-{q:.4}"), Vec::new(), q)
    }

    /// Geometric decay `q(t) = max(q₀·f^{t−1}, floor)`.
    pub fn geometric(q0: f64, factor: f64, floor: f64, horizon: usize) -> Self {
        assert!((0.0..=1.0).contains(&q0) && factor > 0.0 && factor <= 1.0);
        let probs = (0..horizon)
            .map(|t| (q0 * factor.powi(t as i32)).max(floor))
            .collect();
        Self::new(format!("profile-geo-{q0:.3}x{factor:.3}"), probs, floor)
    }

    /// A random profile: each `q(t)` log-uniform in `[lo, 1]`.
    pub fn random(lo: f64, horizon: usize, rng: &mut Xoshiro256pp) -> Self {
        assert!(lo > 0.0 && lo <= 1.0);
        let ln_lo = lo.ln();
        let probs: Vec<f64> = (0..horizon)
            .map(|_| (ln_lo * rng.next_f64()).exp())
            .collect();
        let tail = *probs.last().unwrap_or(&1.0);
        Self::new("profile-random", probs, tail)
    }

    /// The transmit probability for (1-based) round `t`.
    pub fn prob_at(&self, t: u32) -> f64 {
        let idx = (t as usize).saturating_sub(1);
        self.probs.get(idx).copied().unwrap_or(self.tail)
    }

    /// Length of the explicit (non-tail) part.
    pub fn horizon(&self) -> usize {
        self.probs.len()
    }
}

impl Protocol for ProbabilityProfile {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        rng.coin(self.prob_at(node.round))
    }

    fn transmits_lanes(
        &mut self,
        _id: NodeId,
        round: u32,
        lanes: u64,
        _informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        // A probability-1 round still draws its coin, like `transmits`.
        Xoshiro256pp::lane_coins(rngs, lanes, self.prob_at(round))
    }
}

/// The EG protocol of Theorem 7 as a probability profile: `D₁` rounds at
/// probability 1, the seed probability once, then `1/d` forever.
pub fn eg_profile(n: usize, p: f64) -> ProbabilityProfile {
    let d = (p * n as f64).max(2.0);
    let d1 = non_selective_rounds(n, d) as usize;
    let mut probs = vec![1.0; d1];
    probs.push(seed_round_probability(n, d));
    ProbabilityProfile::new("profile-eg", probs, 1.0 / d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::gnp::sample_gnp;
    use radio_sim::{RunConfig, RunSpec};

    #[test]
    fn prob_at_explicit_and_tail() {
        let p = ProbabilityProfile::new("t", vec![1.0, 0.5], 0.25);
        assert_eq!(p.prob_at(1), 1.0);
        assert_eq!(p.prob_at(2), 0.5);
        assert_eq!(p.prob_at(3), 0.25);
        assert_eq!(p.prob_at(100), 0.25);
        assert_eq!(p.horizon(), 2);
    }

    #[test]
    fn constant_profile() {
        let p = ProbabilityProfile::constant(0.3);
        assert_eq!(p.prob_at(1), 0.3);
        assert_eq!(p.prob_at(77), 0.3);
    }

    #[test]
    fn geometric_profile_decays_to_floor() {
        let p = ProbabilityProfile::geometric(1.0, 0.5, 0.01, 12);
        assert_eq!(p.prob_at(1), 1.0);
        assert!(p.prob_at(2) < p.prob_at(1));
        assert_eq!(p.prob_at(12), 0.01); // 0.5^11 < 0.01 → floored
        assert_eq!(p.prob_at(1000), 0.01);
    }

    #[test]
    fn random_profile_in_range() {
        let mut rng = Xoshiro256pp::new(1);
        let p = ProbabilityProfile::random(1e-3, 50, &mut rng);
        for t in 1..=50 {
            let q = p.prob_at(t);
            assert!((1e-3..=1.0).contains(&q), "q({t}) = {q}");
        }
    }

    #[test]
    fn eg_profile_matches_protocol_shape() {
        let n = 1 << 16;
        let p = 16.0 / n as f64;
        let prof = eg_profile(n, p);
        // D₁ = 3 rounds at probability 1.
        assert_eq!(prof.prob_at(1), 1.0);
        assert_eq!(prof.prob_at(3), 1.0);
        // Tail is 1/d.
        assert!((prof.prob_at(100) - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn eg_profile_completes_like_the_protocol() {
        let mut rng = Xoshiro256pp::new(2);
        let n = 3000;
        let p = 20.0 / n as f64;
        let g = sample_gnp(n, p, &mut rng);
        let mut prof = eg_profile(n, p);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut prof, &mut rng)
            .into_single();
        assert!(r.completed);
    }

    #[test]
    fn truncated_profiles_fail() {
        // Any profile cut off after 2 rounds cannot finish a graph of
        // diameter > 2-ish; model the truncation with max_rounds.
        let mut rng = Xoshiro256pp::new(3);
        let n = 3000;
        let p = 10.0 / n as f64;
        let g = sample_gnp(n, p, &mut rng);
        let mut prof = ProbabilityProfile::constant(0.1);
        let cfg = RunConfig::for_graph(n).with_max_rounds(2);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut prof, &mut rng)
            .into_single();
        assert!(!r.completed);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        let _ = ProbabilityProfile::new("bad", vec![1.5], 0.5);
    }
}
