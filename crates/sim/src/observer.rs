//! Run observers: per-round telemetry hooks with a zero-cost default.
//!
//! The round engine and the schedule/protocol runners are hot paths — a
//! Monte-Carlo sweep executes millions of rounds — so telemetry must cost
//! nothing unless somebody asks for it.  The runners are therefore generic
//! over a [`RunObserver`]; the default [`NoopObserver`] has empty inlined
//! hooks that the optimizer deletes entirely, while [`CollectingObserver`]
//! captures a full [`RoundEvent`] stream (optionally with per-round
//! wall-clock) for JSON reports and JSONL trace dumps.
//!
//! ```
//! use radio_graph::{Graph, Xoshiro256pp};
//! use radio_sim::observer::CollectingObserver;
//! use radio_sim::{LocalNode, Protocol, RunSpec};
//!
//! struct Flood;
//! impl Protocol for Flood {
//!     fn name(&self) -> String { "flood".into() }
//!     fn transmits(&mut self, _n: LocalNode, _rng: &mut Xoshiro256pp) -> bool { true }
//! }
//!
//! let g = Graph::path(6);
//! let mut rng = Xoshiro256pp::new(1);
//! let mut obs = CollectingObserver::new();
//! let r = RunSpec::on_graph(&g, 0)
//!     .run_observed(&mut Flood, &mut rng, &mut obs)
//!     .into_single();
//! assert!(r.completed);
//! assert_eq!(obs.events.len() as u32, r.rounds);
//! assert_eq!(obs.events.last().unwrap().informed_after, 6);
//! ```

use crate::engine::RoundOutcome;
use crate::fault::FaultEvent;

/// Everything the engine knows about one executed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundEvent {
    /// Round index (1-based).
    pub round: u32,
    /// Nodes that actually transmitted.
    pub transmitters: usize,
    /// Uninformed listeners in range of ≥ 1 transmitter.
    pub reached: usize,
    /// Uninformed listeners that heard ≥ 2 transmitters.
    pub collisions: usize,
    /// Nodes newly informed this round.
    pub newly_informed: usize,
    /// Cumulative informed count after the round.
    pub informed_after: usize,
    /// Wall-clock of the round in nanoseconds; 0 unless the observer
    /// requested timing via [`RunObserver::wants_timing`].
    pub elapsed_ns: u64,
}

impl RoundEvent {
    /// Assembles an event from a round's outcome.
    pub fn from_outcome(
        round: u32,
        outcome: &RoundOutcome,
        informed_after: usize,
        elapsed_ns: u64,
    ) -> RoundEvent {
        RoundEvent {
            round,
            transmitters: outcome.transmitters,
            reached: outcome.reached,
            collisions: outcome.collisions,
            newly_informed: outcome.newly_informed,
            informed_after,
            elapsed_ns,
        }
    }
}

/// Telemetry sink for a single run.
///
/// All hooks have empty defaults; an observer overrides only what it needs.
/// Runners call the hooks through monomorphized generics, so an observer
/// with empty hooks (like [`NoopObserver`]) compiles to nothing.
pub trait RunObserver {
    /// Whether the runner should measure per-round wall-clock time.
    ///
    /// Defaults to `false`; runners skip the `Instant::now()` pair entirely
    /// when this is false, keeping the disabled-telemetry path free of
    /// timing syscalls.
    fn wants_timing(&self) -> bool {
        false
    }

    /// Called once before the first round with the node count and the
    /// number of initially informed nodes.
    fn on_run_start(&mut self, _n: usize, _initially_informed: usize) {}

    /// Called after every executed round.
    fn on_round(&mut self, _event: &RoundEvent) {}

    /// Called when a fault event fires (faulty runs only), before the
    /// round's transmit decisions.  Events arrive in (round, node) order.
    fn on_fault(&mut self, _event: &FaultEvent) {}

    /// Called once after the last round.
    fn on_run_end(&mut self, _completed: bool, _rounds: u32, _informed: usize) {}
}

/// The zero-cost default observer: every hook is a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl RunObserver for NoopObserver {}

/// Captures the full event stream of one run.
///
/// Construct with [`CollectingObserver::new`] (no timing) or
/// [`CollectingObserver::with_timing`] (per-round wall-clock in
/// [`RoundEvent::elapsed_ns`]).
#[derive(Debug, Clone, Default)]
pub struct CollectingObserver {
    timing: bool,
    /// Node count reported at run start.
    pub n: usize,
    /// Initially informed count reported at run start.
    pub initially_informed: usize,
    /// One event per executed round, in order.
    pub events: Vec<RoundEvent>,
    /// Fault events seen during the run, in (round, node) order (empty for
    /// fault-free runs).
    pub fault_events: Vec<FaultEvent>,
    /// Completion flag reported at run end.
    pub completed: bool,
    /// Final round count reported at run end.
    pub rounds: u32,
    /// Final informed count reported at run end.
    pub informed: usize,
}

impl CollectingObserver {
    /// A collector without per-round timing.
    pub fn new() -> CollectingObserver {
        CollectingObserver::default()
    }

    /// A collector that also records per-round wall-clock nanoseconds.
    pub fn with_timing() -> CollectingObserver {
        CollectingObserver {
            timing: true,
            ..CollectingObserver::default()
        }
    }

    /// Sum of recorded per-round wall-clock (0 without timing).
    pub fn total_elapsed_ns(&self) -> u64 {
        self.events.iter().map(|e| e.elapsed_ns).sum()
    }
}

impl RunObserver for CollectingObserver {
    fn wants_timing(&self) -> bool {
        self.timing
    }

    fn on_run_start(&mut self, n: usize, initially_informed: usize) {
        self.n = n;
        self.initially_informed = initially_informed;
        self.events.clear();
        self.fault_events.clear();
    }

    fn on_round(&mut self, event: &RoundEvent) {
        self.events.push(*event);
    }

    fn on_fault(&mut self, event: &FaultEvent) {
        self.fault_events.push(*event);
    }

    fn on_run_end(&mut self, completed: bool, rounds: u32, informed: usize) {
        self.completed = completed;
        self.rounds = rounds;
        self.informed = informed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u32) -> RoundEvent {
        RoundEvent {
            round,
            transmitters: 2,
            reached: 3,
            collisions: 1,
            newly_informed: 2,
            informed_after: 4,
            elapsed_ns: 5,
        }
    }

    #[test]
    fn collector_records_stream() {
        let mut obs = CollectingObserver::with_timing();
        assert!(obs.wants_timing());
        obs.on_run_start(10, 1);
        obs.on_round(&ev(1));
        obs.on_round(&ev(2));
        obs.on_run_end(true, 2, 10);
        assert_eq!(obs.n, 10);
        assert_eq!(obs.events.len(), 2);
        assert_eq!(obs.total_elapsed_ns(), 10);
        assert!(obs.completed);
        assert_eq!(obs.rounds, 2);
    }

    #[test]
    fn run_start_resets_events() {
        let mut obs = CollectingObserver::new();
        assert!(!obs.wants_timing());
        obs.on_round(&ev(1));
        obs.on_run_start(5, 1);
        assert!(obs.events.is_empty());
    }

    #[test]
    fn noop_observer_is_trivial() {
        let mut obs = NoopObserver;
        assert!(!obs.wants_timing());
        obs.on_run_start(4, 1);
        obs.on_round(&ev(1));
        obs.on_run_end(false, 1, 2);
    }

    #[test]
    fn event_from_outcome() {
        let out = RoundOutcome {
            transmitters: 3,
            newly_informed: 2,
            collisions: 1,
            reached: 3,
        };
        let e = RoundEvent::from_outcome(7, &out, 9, 11);
        assert_eq!(e.round, 7);
        assert_eq!(e.transmitters, 3);
        assert_eq!(e.reached, 3);
        assert_eq!(e.informed_after, 9);
        assert_eq!(e.elapsed_ns, 11);
    }
}
