//! Static broadcast schedules and their executor.
//!
//! A centralized algorithm (the paper's §3.1 setting, where every node knows
//! the whole topology) produces a [`Schedule`]: for each round, the set of
//! nodes that transmit.  [`run_schedule`] replays a schedule against the
//! collision engine; because the engine is deterministic, replaying the
//! schedule the builder produced must reproduce the builder's predicted
//! informed sets — the integration tests rely on this to validate the
//! Elsässer–Gąsieniec schedule builder.

use radio_graph::{Graph, NodeId};

use crate::engine::{RoundEngine, TransmitterPolicy};
use crate::observer::{NoopObserver, RoundEvent, RunObserver};
use crate::state::BroadcastState;
use crate::trace::{RunResult, TraceBuilder, TraceLevel};

/// A precomputed transmission schedule: `rounds[t]` is the set transmitting
/// in round `t + 1`.
///
/// ```
/// use radio_graph::Graph;
/// use radio_sim::{run_schedule, Schedule, TraceLevel, TransmitterPolicy};
///
/// let g = Graph::path(3);
/// let s = Schedule::from_rounds(vec![vec![0], vec![1]]);
/// let r = run_schedule(&g, 0, &s, TransmitterPolicy::InformedOnly, TraceLevel::PerRound);
/// assert!(r.completed);
/// assert_eq!(r.rounds, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    rounds: Vec<Vec<NodeId>>,
}

impl Schedule {
    /// The empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Builds a schedule from explicit per-round transmitter sets.
    pub fn from_rounds(rounds: Vec<Vec<NodeId>>) -> Self {
        Schedule { rounds }
    }

    /// Appends a round.
    pub fn push_round(&mut self, transmitters: Vec<NodeId>) {
        self.rounds.push(transmitters);
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the schedule has no rounds.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The transmitter set of round `t` (0-based).
    pub fn round(&self, t: usize) -> &[NodeId] {
        &self.rounds[t]
    }

    /// Iterator over the per-round transmitter sets.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.rounds.iter().map(|r| r.as_slice())
    }

    /// Total number of (node, round) transmission slots — the energy cost.
    pub fn total_transmissions(&self) -> usize {
        self.rounds.iter().map(|r| r.len()).sum()
    }

    /// Largest transmitter set in any round.
    pub fn max_round_size(&self) -> usize {
        self.rounds.iter().map(|r| r.len()).max().unwrap_or(0)
    }
}

/// Replays `schedule` on `graph` from `source`.
///
/// Stops early (reporting the actual completion round) once every node is
/// informed; later rounds of the schedule are not executed.
pub fn run_schedule(
    graph: &Graph,
    source: NodeId,
    schedule: &Schedule,
    policy: TransmitterPolicy,
    trace_level: TraceLevel,
) -> RunResult {
    run_schedule_observed(
        graph,
        source,
        schedule,
        policy,
        trace_level,
        &mut NoopObserver,
    )
}

/// Like [`run_schedule`], but streams per-round telemetry into `observer`
/// (see [`crate::observer`] for the event model; the no-op default costs
/// nothing).
pub fn run_schedule_observed<O: RunObserver>(
    graph: &Graph,
    source: NodeId,
    schedule: &Schedule,
    policy: TransmitterPolicy,
    trace_level: TraceLevel,
    observer: &mut O,
) -> RunResult {
    let n = graph.n();
    let mut state = BroadcastState::new(n, source);
    let mut engine = RoundEngine::with_policy(graph, policy);
    let mut tb = TraceBuilder::new(trace_level);
    observer.on_run_start(n, state.informed_count());
    let mut round = 0u32;
    for transmitters in schedule.iter() {
        if state.is_complete() {
            break;
        }
        round += 1;
        let started = observer.wants_timing().then(std::time::Instant::now);
        let outcome = engine.execute_round(&mut state, transmitters, round);
        let elapsed_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        tb.record(round, &outcome, state.informed_count());
        observer.on_round(&RoundEvent::from_outcome(
            round,
            &outcome,
            state.informed_count(),
            elapsed_ns,
        ));
    }
    let completed = state.is_complete();
    let informed = state.informed_count();
    observer.on_run_end(completed, round, informed);
    let mut result = tb.finish(completed, round, informed, n);
    result.kernel = engine.kernel_used();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::Graph;

    #[test]
    fn schedule_accessors() {
        let mut s = Schedule::new();
        assert!(s.is_empty());
        s.push_round(vec![0]);
        s.push_round(vec![1, 2]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.round(1), &[1, 2]);
        assert_eq!(s.total_transmissions(), 3);
        assert_eq!(s.max_round_size(), 2);
    }

    #[test]
    fn path_schedule_runs() {
        let g = Graph::path(4);
        let s = Schedule::from_rounds(vec![vec![0], vec![1], vec![2]]);
        let r = run_schedule(
            &g,
            0,
            &s,
            TransmitterPolicy::InformedOnly,
            TraceLevel::PerRound,
        );
        assert!(r.completed);
        assert_eq!(r.rounds, 3);
        assert_eq!(r.trace.len(), 3);
    }

    #[test]
    fn early_stop_when_complete() {
        let g = Graph::star(4);
        let s = Schedule::from_rounds(vec![vec![0], vec![1], vec![2]]);
        let r = run_schedule(
            &g,
            0,
            &s,
            TransmitterPolicy::InformedOnly,
            TraceLevel::PerRound,
        );
        assert!(r.completed);
        assert_eq!(r.rounds, 1); // center informs everyone in round 1
    }

    #[test]
    fn incomplete_schedule_reports_failure() {
        let g = Graph::path(4);
        let s = Schedule::from_rounds(vec![vec![0]]);
        let r = run_schedule(
            &g,
            0,
            &s,
            TransmitterPolicy::InformedOnly,
            TraceLevel::PerRound,
        );
        assert!(!r.completed);
        assert_eq!(r.informed, 2);
    }

    #[test]
    fn empty_schedule_single_node() {
        let g = Graph::empty(1);
        let s = Schedule::new();
        let r = run_schedule(
            &g,
            0,
            &s,
            TransmitterPolicy::InformedOnly,
            TraceLevel::PerRound,
        );
        assert!(r.completed);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn uninformed_scheduled_nodes_filtered() {
        // Schedule an uninformed node in round 1 under InformedOnly: no-op.
        let g = Graph::path(3);
        let s = Schedule::from_rounds(vec![vec![2], vec![0], vec![1]]);
        let r = run_schedule(
            &g,
            0,
            &s,
            TransmitterPolicy::InformedOnly,
            TraceLevel::PerRound,
        );
        assert!(r.completed);
        assert_eq!(r.trace[0].transmitters, 0);
    }
}
