//! Protocol combinators.
//!
//! The paper's distributed algorithm is a time-staged composition (flood,
//! then seed, then select); the lower-bound class is "any function of
//! `(n, p, t)`".  These combinators make such compositions first-class so
//! experiments can assemble protocol variants without writing new types:
//!
//! * [`Staged`] — protocol `A` for the first `T` rounds, then `B` (with
//!   `B` seeing rounds and informed rounds re-based by `T`, so stage
//!   protocols compose cleanly);
//! * [`Named`] — relabel any protocol for experiment tables.

use radio_graph::{NodeId, Xoshiro256pp};

use crate::batch::MAX_LANES;
use crate::protocol::{LocalNode, Protocol};

/// Runs `first` for rounds `1..=switch_round`, then `second` (which sees
/// round numbers starting again from 1, and nodes informed before the
/// switch as informed in round 0).
#[derive(Debug, Clone)]
pub struct Staged<A, B> {
    first: A,
    second: B,
    switch_round: u32,
}

impl<A: Protocol, B: Protocol> Staged<A, B> {
    /// Composes two protocols at a fixed switch round.
    pub fn new(first: A, switch_round: u32, second: B) -> Self {
        Staged {
            first,
            second,
            switch_round,
        }
    }

    /// The switch round.
    pub fn switch_round(&self) -> u32 {
        self.switch_round
    }
}

impl<A: Protocol, B: Protocol> Protocol for Staged<A, B> {
    fn name(&self) -> String {
        format!(
            "staged({} @{} {})",
            self.first.name(),
            self.switch_round,
            self.second.name()
        )
    }

    fn begin_run(&mut self, n: usize) {
        self.first.begin_run(n);
        self.second.begin_run(n);
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        if node.round <= self.switch_round {
            self.first.transmits(node, rng)
        } else {
            let rebased = LocalNode {
                id: node.id,
                informed_round: node.informed_round.saturating_sub(self.switch_round),
                round: node.round - self.switch_round,
            };
            self.second.transmits(rebased, rng)
        }
    }

    fn transmits_lanes(
        &mut self,
        id: NodeId,
        round: u32,
        lanes: u64,
        informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        if round <= self.switch_round {
            return self
                .first
                .transmits_lanes(id, round, lanes, informed_round, rngs);
        }
        // Rebase every lane like `transmits`, keeping the inner fast path.
        let mut rebased = [0u32; MAX_LANES];
        let rebased = &mut rebased[..informed_round.len()];
        for (dst, &src) in rebased.iter_mut().zip(informed_round) {
            *dst = src.saturating_sub(self.switch_round);
        }
        let round = round - self.switch_round;
        self.second.transmits_lanes(id, round, lanes, rebased, rngs)
    }
}

/// Relabels a protocol (for experiment tables).
#[derive(Debug, Clone)]
pub struct Named<P> {
    inner: P,
    name: String,
}

impl<P: Protocol> Named<P> {
    /// Wraps `inner` with display name `name`.
    pub fn new(name: impl Into<String>, inner: P) -> Self {
        Named {
            inner,
            name: name.into(),
        }
    }
}

impl<P: Protocol> Protocol for Named<P> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn begin_run(&mut self, n: usize) {
        self.inner.begin_run(n);
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        self.inner.transmits(node, rng)
    }

    fn transmits_lanes(
        &mut self,
        id: NodeId,
        round: u32,
        lanes: u64,
        informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        self.inner
            .transmits_lanes(id, round, lanes, informed_round, rngs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RunSpec;
    use crate::protocol::RunConfig;
    use crate::trace::RunResult;
    use radio_graph::Graph;

    fn run(g: &Graph, protocol: &mut impl Protocol, cfg: RunConfig, seed: u64) -> RunResult {
        RunSpec::on_graph(g, 0)
            .with_config(cfg)
            .run_with_rng(protocol, &mut Xoshiro256pp::new(seed))
            .into_single()
    }

    /// Always transmit.
    #[derive(Clone)]
    struct Always;
    impl Protocol for Always {
        fn name(&self) -> String {
            "always".into()
        }
        fn transmits(&mut self, _n: LocalNode, _r: &mut Xoshiro256pp) -> bool {
            true
        }
    }

    /// Never transmit.
    #[derive(Clone)]
    struct Never;
    impl Protocol for Never {
        fn name(&self) -> String {
            "never".into()
        }
        fn transmits(&mut self, _n: LocalNode, _r: &mut Xoshiro256pp) -> bool {
            false
        }
    }

    #[test]
    fn staged_switches_behaviour() {
        // Flood for 3 rounds, then go silent: on a path of 10 from node 0,
        // exactly nodes 0..=3 end up informed.
        let g = Graph::path(10);
        let mut proto = Staged::new(Always, 3, Never);
        let cfg = RunConfig::for_graph(10).with_max_rounds(30);
        let r = run(&g, &mut proto, cfg, 1);
        assert!(!r.completed);
        assert_eq!(r.informed, 4);
    }

    #[test]
    fn staged_second_stage_sees_rebased_rounds() {
        struct AssertRound;
        impl Protocol for AssertRound {
            fn name(&self) -> String {
                "assert".into()
            }
            fn transmits(&mut self, n: LocalNode, _r: &mut Xoshiro256pp) -> bool {
                assert!(n.round >= 1, "second stage must start at round 1");
                true
            }
        }
        let g = Graph::path(6);
        let mut proto = Staged::new(Never, 2, AssertRound);
        let r = run(&g, &mut proto, RunConfig::for_graph(6), 2);
        assert!(r.completed);
        // 2 silent rounds + 5 flood rounds.
        assert_eq!(r.rounds, 7);
    }

    #[test]
    fn staged_second_stage_sees_rebased_informed_rounds() {
        // Stage-2 clocks are stage-local: every informed node was informed
        // strictly before the current stage-local round.
        struct AssertInformedBefore;
        impl Protocol for AssertInformedBefore {
            fn name(&self) -> String {
                "probe".into()
            }
            fn transmits(&mut self, n: LocalNode, _r: &mut Xoshiro256pp) -> bool {
                assert!(
                    n.informed_round < n.round,
                    "informed round {} not below stage-local round {}",
                    n.informed_round,
                    n.round
                );
                true
            }
        }
        let g = Graph::path(8);
        let mut proto = Staged::new(Always, 3, AssertInformedBefore);
        let r = run(&g, &mut proto, RunConfig::for_graph(8), 4);
        assert!(r.completed);
        assert_eq!(r.rounds, 7);
        // The lane path rebases each lane the same way.
        let lanes = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(8))
            .with_lanes(4)
            .run(&mut proto)
            .lanes;
        assert!(lanes.iter().all(|l| l.completed && l.rounds == 7));
    }

    #[test]
    fn named_renames_only() {
        let mut a = Named::new("custom", Always);
        assert_eq!(a.name(), "custom");
        let g = Graph::path(4);
        let r = run(&g, &mut a, RunConfig::for_graph(4), 3);
        assert!(r.completed);
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn staged_name_is_descriptive() {
        let p = Staged::new(Always, 5, Never);
        assert_eq!(p.name(), "staged(always @5 never)");
    }
}
