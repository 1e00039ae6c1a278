//! The Decay protocol of Bar-Yehuda, Goldreich & Itai (baseline).
//!
//! The classical randomized broadcast for *unknown arbitrary* radio
//! networks, included as the natural baseline the related-work section of
//! the paper measures against.  Time is divided into phases of
//! `k = ⌈log₂ n⌉ rounds`; in round `j` of a phase (1-based), every informed
//! node transmits with probability `2^{−(j−1)}`.  Whatever the unknown local
//! density, some round of each phase has transmit probability within a
//! factor 2 of the inverse frontier size, so each phase delivers to each
//! frontier neighbor with constant probability — giving
//! `O((D + log n)·log n)` broadcast w.h.p. on arbitrary graphs, hence
//! `O(log²n / log d + log n · log d)`-ish behaviour on random graphs:
//! asymptotically a `log` factor worse than
//! [`EgDistributed`](crate::distributed::EgDistributed), which experiment
//! `E-CMP` demonstrates.

use radio_graph::{NodeId, Xoshiro256pp};
use radio_sim::{LocalNode, Protocol};

/// The Decay protocol; knows only `n`.
#[derive(Debug, Clone, Default)]
pub struct Decay {
    /// Rounds per phase, `⌈log₂ n⌉` (set in `begin_run`).
    phase_len: u32,
}

impl Decay {
    /// A fresh Decay instance (parameters derived at run start).
    pub fn new() -> Self {
        Decay::default()
    }

    /// Rounds per phase for the current run.
    pub fn phase_len(&self) -> u32 {
        self.phase_len
    }
}

impl Protocol for Decay {
    fn name(&self) -> String {
        "decay".into()
    }

    fn begin_run(&mut self, n: usize) {
        self.phase_len = (n.max(2) as f64).log2().ceil() as u32;
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        let j = (node.round - 1) % self.phase_len; // 0-based position in phase
        if j == 0 {
            true // 2^0 = probability 1
        } else {
            rng.coin(0.5f64.powi(j as i32))
        }
    }

    fn transmits_lanes(
        &mut self,
        _id: NodeId,
        round: u32,
        lanes: u64,
        _informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        let j = (round - 1) % self.phase_len;
        if j == 0 {
            lanes
        } else {
            Xoshiro256pp::lane_coins(rngs, lanes, 0.5f64.powi(j as i32))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::gnp::sample_gnp;
    use radio_sim::{RunConfig, RunSpec};

    #[test]
    fn phase_length_is_log2() {
        let mut d = Decay::new();
        d.begin_run(1024);
        assert_eq!(d.phase_len(), 10);
        d.begin_run(1025);
        assert_eq!(d.phase_len(), 11);
        d.begin_run(1);
        assert_eq!(d.phase_len(), 1);
    }

    #[test]
    fn first_round_of_phase_always_transmits() {
        let mut d = Decay::new();
        d.begin_run(16);
        let mut rng = Xoshiro256pp::new(1);
        for phase in 0..3u32 {
            let node = LocalNode {
                id: 0,
                informed_round: 0,
                round: phase * 4 + 1,
            };
            assert!(d.transmits(node, &mut rng));
        }
    }

    #[test]
    fn deep_round_rarely_transmits() {
        let mut d = Decay::new();
        d.begin_run(1 << 20); // phase_len = 20
        let mut rng = Xoshiro256pp::new(2);
        let node = LocalNode {
            id: 0,
            informed_round: 0,
            round: 20, // j = 19 → prob 2^-19
        };
        let hits = (0..10_000).filter(|_| d.transmits(node, &mut rng)).count();
        assert!(hits < 10, "transmitted {hits}/10000 at 2^-19");
    }

    #[test]
    fn completes_on_random_graph() {
        let mut rng = Xoshiro256pp::new(3);
        let n = 2000;
        let g = sample_gnp(n, 20.0 / n as f64, &mut rng);
        let mut proto = Decay::new();
        let r = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed, "informed {}/{n}", r.informed);
    }

    #[test]
    fn completes_on_star() {
        // Extreme degree asymmetry — the scenario Decay is designed for.
        let g = radio_graph::Graph::star(256);
        let mut rng = Xoshiro256pp::new(4);
        let mut proto = Decay::new();
        let r = RunSpec::on_graph(&g, 1)
            .with_config(RunConfig::for_graph(256))
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed);
    }
}
