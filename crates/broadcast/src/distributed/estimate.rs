//! Broadcasting without knowing `p` — the unknown-density extension.
//!
//! Theorem 7 assumes every node knows both `n` and `p`.  If `p` is unknown
//! (say, the deployment density varies), the standard trick is **guess
//! doubling**: run the protocol in *epochs*, epoch `j` assuming degree
//! guess `d̂_j = 2^{j mod ⌈log₂ n⌉ + 1}`; each epoch lasts `Θ(ln n)` rounds.
//! Whatever the true `d`, some epoch's guess is within a factor 2, and that
//! epoch behaves like the known-`p` protocol's selective stage — at the
//! cost of a multiplicative `O(log n)` (all epochs are paid for), i.e.
//! `O(log² n)` total, the same degradation Decay accepts.
//!
//! [`EgUnknownDegree`] implements this: within an epoch, it transmits with
//! probability `1/d̂`, except the very first epoch which floods briefly to
//! seed the neighborhood.  Experiment interest: how much the missing
//! knowledge actually costs on `G(n, p)` versus the tuned protocol
//! (`exp_ablation`-style comparison done in its unit tests and available to
//! the CLI as protocol `unknown`).

use radio_graph::{NodeId, Xoshiro256pp};
use radio_sim::{LocalNode, Protocol};

/// Guess-doubling broadcast for unknown edge probability.
#[derive(Debug, Clone, Default)]
pub struct EgUnknownDegree {
    /// Epoch length `⌈c·ln n⌉` (set at run start).
    epoch_len: u32,
    /// Number of distinct guesses before cycling (`⌈log₂ n⌉`).
    num_guesses: u32,
}

impl EgUnknownDegree {
    /// A fresh instance (parameters derived from `n` at run start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Epoch length for the current run.
    pub fn epoch_len(&self) -> u32 {
        self.epoch_len
    }

    /// The degree guess used in (1-based) round `t`.
    pub fn guess_at(&self, round: u32) -> f64 {
        let epoch = (round - 1) / self.epoch_len.max(1);
        let j = epoch % self.num_guesses.max(1);
        2f64.powi(j as i32 + 1)
    }
}

impl Protocol for EgUnknownDegree {
    fn name(&self) -> String {
        "eg-unknown-degree".into()
    }

    fn begin_run(&mut self, n: usize) {
        let ln_n = (n.max(2) as f64).ln();
        self.epoch_len = (2.0 * ln_n).ceil() as u32;
        self.num_guesses = (n.max(2) as f64).log2().ceil() as u32;
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        let d_hat = self.guess_at(node.round);
        rng.coin(1.0 / d_hat)
    }

    fn transmits_lanes(
        &mut self,
        _id: NodeId,
        round: u32,
        lanes: u64,
        _informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        Xoshiro256pp::lane_coins(rngs, lanes, 1.0 / self.guess_at(round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::gnp::sample_gnp;
    use radio_sim::{RunConfig, RunSpec};

    #[test]
    fn guesses_cycle_through_powers_of_two() {
        let mut p = EgUnknownDegree::new();
        p.begin_run(1 << 10);
        let e = p.epoch_len();
        assert!(e >= 13); // 2·ln 1024 ≈ 13.9
        assert_eq!(p.guess_at(1), 2.0);
        assert_eq!(p.guess_at(e), 2.0);
        assert_eq!(p.guess_at(e + 1), 4.0);
        assert_eq!(p.guess_at(2 * e + 1), 8.0);
        // Cycles back after num_guesses epochs (10 for n = 1024).
        assert_eq!(p.guess_at(10 * e + 1), 2.0);
    }

    #[test]
    fn completes_without_knowing_p() {
        let mut rng = Xoshiro256pp::new(1);
        let n = 2000;
        let d = 40.0; // protocol never sees this
        let g = sample_gnp(n, d / n as f64, &mut rng);
        let mut proto = EgUnknownDegree::new();
        let cfg = RunConfig::for_graph(n);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed, "informed {}/{n}", r.informed);
    }

    #[test]
    fn completes_across_densities() {
        // The same parameter-free protocol must handle sparse and dense.
        let mut rng = Xoshiro256pp::new(2);
        for &d in &[10.0, 100.0, 400.0] {
            let n = 1500;
            let g = sample_gnp(n, d / n as f64, &mut rng);
            if !radio_graph::components::is_connected(&g) {
                continue;
            }
            let mut proto = EgUnknownDegree::new();
            let r = RunSpec::on_graph(&g, 0)
                .with_config(RunConfig::for_graph(n))
                .run_with_rng(&mut proto, &mut rng)
                .into_single();
            assert!(r.completed, "d = {d}: informed {}/{n}", r.informed);
        }
    }

    #[test]
    fn slower_than_tuned_protocol() {
        use crate::distributed::EgDistributed;
        let mut rng = Xoshiro256pp::new(3);
        let n = 3000;
        let p = 30.0 / n as f64;
        let g = sample_gnp(n, p, &mut rng);
        let mut unknown = EgUnknownDegree::new();
        let r_unknown = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut unknown, &mut rng)
            .into_single();
        let mut tuned = EgDistributed::new(p);
        let r_tuned = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut tuned, &mut rng)
            .into_single();
        assert!(r_unknown.completed && r_tuned.completed);
        // Knowledge of p buys a real constant/log factor.
        assert!(
            r_unknown.rounds > r_tuned.rounds,
            "unknown {} vs tuned {}",
            r_unknown.rounds,
            r_tuned.rounds
        );
    }
}
