//! Execution traces and run results.
//!
//! Every run of a schedule or protocol yields a [`RunResult`]: did the
//! broadcast complete, in how many rounds, and (optionally) the full
//! per-round [`RoundRecord`] trace.  Traces are what the experiments
//! aggregate; recording can be dialed down with [`TraceLevel`] for large
//! sweeps where only the summary matters.

use crate::engine::RoundOutcome;
use crate::fault::{FaultEvent, FaultSummary};
use crate::kernel::KernelUsed;

/// How much per-round detail to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record only the summary (rounds, completion).
    SummaryOnly,
    /// Record a [`RoundRecord`] for every round.
    #[default]
    PerRound,
}

/// One recorded round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round index (1-based; round 0 is the initial state).
    pub round: u32,
    /// Number of transmitting nodes.
    pub transmitters: usize,
    /// Nodes newly informed this round.
    pub newly_informed: usize,
    /// Uninformed listeners that heard a collision.
    pub collisions: usize,
    /// Uninformed listeners in range of ≥ 1 transmitter (decodable or not).
    pub reached: usize,
    /// Cumulative informed count after the round.
    pub informed_after: usize,
}

impl RoundRecord {
    /// The record as a telemetry event (elapsed time is not recorded in
    /// traces; see [`CollectingObserver`](crate::observer::CollectingObserver)
    /// for timed streams).
    pub fn to_event(self) -> crate::observer::RoundEvent {
        crate::observer::RoundEvent {
            round: self.round,
            transmitters: self.transmitters,
            reached: self.reached,
            collisions: self.collisions,
            newly_informed: self.newly_informed,
            informed_after: self.informed_after,
            elapsed_ns: 0,
        }
    }
}

/// The outcome of a complete run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Whether every node was informed within the round budget.
    pub completed: bool,
    /// Rounds used: if `completed`, the round in which the last node was
    /// informed; otherwise the budget that was exhausted.
    pub rounds: u32,
    /// Informed count at the end of the run.
    pub informed: usize,
    /// Number of nodes.
    pub n: usize,
    /// Which round kernel(s) executed the run (set by the runners from
    /// [`RoundEngine::kernel_used`](crate::engine::RoundEngine::kernel_used);
    /// [`TraceBuilder::finish`] defaults it to `Sparse`).  Informational
    /// only: kernel choice never changes any other field.
    pub kernel: KernelUsed,
    /// Worker threads that executed the run's rounds (1 for the round and
    /// batch kernels; the tiled merge and the provider sweeps' fill record
    /// their intra-round worker count).
    /// Informational only: thread count never changes any other field.
    pub threads: u32,
    /// The last round in which any node was newly informed (0 if the source
    /// never reached anyone).  Under faults this is the graceful-degradation
    /// "round of last new delivery"; recorded at every [`TraceLevel`].
    pub last_delivery_round: u32,
    /// Fault events that fired during the run, in (round, node) order.
    /// Empty for fault-free runs.
    pub fault_events: Vec<FaultEvent>,
    /// Graceful-degradation summary of the surviving subgraph (faulty runs
    /// only; `None` for fault-free runs).
    pub faults: Option<FaultSummary>,
    /// Per-round records (empty under [`TraceLevel::SummaryOnly`]).
    pub trace: Vec<RoundRecord>,
}

impl RunResult {
    /// Fraction of nodes informed at the end.
    pub fn informed_fraction(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.informed as f64 / self.n as f64
        }
    }

    /// Total transmissions across the recorded trace (energy proxy).
    pub fn total_transmissions(&self) -> usize {
        self.trace.iter().map(|r| r.transmitters).sum()
    }

    /// Total collision events across the recorded trace.
    pub fn total_collisions(&self) -> usize {
        self.trace.iter().map(|r| r.collisions).sum()
    }

    /// The round by which at least `fraction` of nodes were informed, if
    /// reached (requires a per-round trace).
    pub fn round_to_fraction(&self, fraction: f64) -> Option<u32> {
        let target = (fraction * self.n as f64).ceil() as usize;
        if target <= 1 {
            return Some(0);
        }
        self.trace
            .iter()
            .find(|r| r.informed_after >= target)
            .map(|r| r.round)
    }
}

/// Incrementally builds a [`RunResult`] as rounds execute.
#[derive(Debug)]
pub struct TraceBuilder {
    level: TraceLevel,
    records: Vec<RoundRecord>,
    last_delivery: u32,
}

impl TraceBuilder {
    /// A builder recording at `level`.
    pub fn new(level: TraceLevel) -> Self {
        TraceBuilder {
            level,
            records: Vec::new(),
            last_delivery: 0,
        }
    }

    /// Records one executed round.  Last-delivery tracking happens at every
    /// level; only the per-round record is gated on [`TraceLevel::PerRound`].
    pub fn record(&mut self, round: u32, outcome: &RoundOutcome, informed_after: usize) {
        if outcome.newly_informed > 0 {
            self.last_delivery = round;
        }
        if self.level == TraceLevel::PerRound {
            self.records.push(RoundRecord {
                round,
                transmitters: outcome.transmitters,
                newly_informed: outcome.newly_informed,
                collisions: outcome.collisions,
                reached: outcome.reached,
                informed_after,
            });
        }
    }

    /// Finalizes into a [`RunResult`].
    pub fn finish(self, completed: bool, rounds: u32, informed: usize, n: usize) -> RunResult {
        RunResult {
            completed,
            rounds,
            informed,
            n,
            kernel: KernelUsed::default(),
            threads: 1,
            last_delivery_round: self.last_delivery,
            fault_events: Vec::new(),
            faults: None,
            trace: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(transmitters: usize, newly: usize, collisions: usize) -> RoundOutcome {
        RoundOutcome {
            transmitters,
            newly_informed: newly,
            collisions,
            reached: newly + collisions,
        }
    }

    #[test]
    fn per_round_trace_recorded() {
        let mut tb = TraceBuilder::new(TraceLevel::PerRound);
        tb.record(1, &outcome(1, 3, 0), 4);
        tb.record(2, &outcome(2, 1, 2), 5);
        let r = tb.finish(true, 2, 5, 5);
        assert_eq!(r.trace.len(), 2);
        assert_eq!(r.total_transmissions(), 3);
        assert_eq!(r.total_collisions(), 2);
        assert_eq!(r.informed_fraction(), 1.0);
    }

    #[test]
    fn summary_only_drops_records() {
        let mut tb = TraceBuilder::new(TraceLevel::SummaryOnly);
        tb.record(1, &outcome(1, 3, 0), 4);
        let r = tb.finish(false, 1, 4, 10);
        assert!(r.trace.is_empty());
        assert!(!r.completed);
        assert!((r.informed_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn round_to_fraction() {
        let mut tb = TraceBuilder::new(TraceLevel::PerRound);
        tb.record(1, &outcome(1, 4, 0), 5);
        tb.record(2, &outcome(2, 5, 0), 10);
        let r = tb.finish(true, 2, 10, 10);
        assert_eq!(r.round_to_fraction(0.5), Some(1));
        assert_eq!(r.round_to_fraction(1.0), Some(2));
        assert_eq!(r.round_to_fraction(0.0), Some(0));
    }

    #[test]
    fn round_to_fraction_not_reached() {
        let mut tb = TraceBuilder::new(TraceLevel::PerRound);
        tb.record(1, &outcome(1, 1, 0), 2);
        let r = tb.finish(false, 1, 2, 10);
        assert_eq!(r.round_to_fraction(0.9), None);
    }

    #[test]
    fn empty_run_fraction() {
        let tb = TraceBuilder::new(TraceLevel::PerRound);
        let r = tb.finish(true, 0, 0, 0);
        assert_eq!(r.informed_fraction(), 1.0);
    }
}
