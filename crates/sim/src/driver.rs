//! The protocol loops behind [`RunSpec`]: one per lane width.
//!
//! Theorem 7's protocol is simulated in one fixed coin order: fault and
//! burst coins at round start, then decision coins per informed node in
//! ascending id, then one loss coin per exactly-one reception in
//! ascending id.  That order is written out once per lane width:
//!
//! * [`run_scalar`] runs every `lanes = 1` plan on a [`ScalarRound`]
//!   executor, either [`RoundEngine`] or
//!   [`SweepEngine`](crate::sweep::SweepEngine), with a one-lane
//!   [`FaultSession`];
//! * [`run_lanes`] runs every single-word lane plan (`Batch` and
//!   `LaneSweep`).  It owns the lane RNGs, the fault session, the
//!   decisions, jammer injection and the exactly-one resolution.  A
//!   [`LaneMerge`] supplies only each listener's lane planes, and the
//!   order they come in.
//!
//! The tiled engine keeps its own multi-word parallel loop
//! ([`crate::tiled`]), sharing [`LaneBook`] and [`lane_summaries`].

use std::time::Instant;

use radio_graph::{child_rng, Graph, GraphProvider, NodeId, Xoshiro256pp};

use crate::batch::{bits, lane_mask, MAX_LANES};
use crate::engine::{RoundEngine, RoundOutcome};
use crate::exec::RunSpec;
use crate::fault::{FaultEvent, FaultPlan, FaultSession, FaultSummary, LiveView};
use crate::kernel::KernelUsed;
use crate::observer::{RoundEvent, RunObserver};
use crate::protocol::{LocalNode, Protocol};
use crate::state::{BroadcastState, NOT_INFORMED};
use crate::trace::{RoundRecord, RunResult, TraceBuilder, TraceLevel};

/// A scalar round executor: [`RoundEngine`] or
/// [`SweepEngine`](crate::sweep::SweepEngine).
pub(crate) trait ScalarRound {
    /// Executes one round under `faults` (if any) with i.i.d. loss
    /// `loss_prob`, drawing the burst-veto-then-loss coins of
    /// [`RoundEngine::execute_round_faulty`] from `rng`.
    fn execute_round_faulty(
        &mut self,
        state: &mut BroadcastState,
        tx: &[NodeId],
        round: u32,
        faults: Option<&FaultSession<'_>>,
        loss_prob: f64,
        rng: &mut Xoshiro256pp,
    ) -> RoundOutcome;
    fn kernel_used(&self) -> KernelUsed;
    /// Worker threads that execute each round.
    fn workers(&self) -> u32 {
        1
    }
}

impl ScalarRound for RoundEngine<'_> {
    fn execute_round_faulty(
        &mut self,
        state: &mut BroadcastState,
        tx: &[NodeId],
        round: u32,
        faults: Option<&FaultSession<'_>>,
        loss_prob: f64,
        rng: &mut Xoshiro256pp,
    ) -> RoundOutcome {
        RoundEngine::execute_round_faulty(self, state, tx, round, faults, loss_prob, rng)
    }
    fn kernel_used(&self) -> KernelUsed {
        RoundEngine::kernel_used(self)
    }
}

/// Runs `f` on explicit adjacency: the provider's own, or one
/// materialized copy for purely implicit backends (fault summaries need
/// the live-subgraph BFS; fault-free runs never get here).
fn with_adjacency<R>(provider: &dyn GraphProvider, f: impl FnOnce(&Graph) -> R) -> R {
    match provider.as_explicit() {
        Some(graph) => f(graph),
        None => f(&provider.materialize()),
    }
}

/// The scalar protocol loop behind every `lanes = 1` plan, on the
/// caller's RNG stream, with per-round telemetry streamed into
/// `observer`.
pub(crate) fn run_scalar<E: ScalarRound, P: Protocol + ?Sized, O: RunObserver>(
    spec: &RunSpec<'_>,
    mut engine: E,
    protocol: &mut P,
    rng: &mut Xoshiro256pp,
    observer: &mut O,
) -> RunResult {
    let provider = spec.provider();
    let n = provider.n();
    let config = spec.config;
    let mut state = spec.start_state(n);
    let mut session = spec.fault_plan.map(|plan| {
        assert_eq!(plan.n(), n, "fault plan size mismatch");
        FaultSession::new(plan, 1)
    });
    let mut tb = TraceBuilder::new(config.trace_level);
    protocol.begin_run(n);
    observer.on_run_start(n, state.informed_count());

    let mut fault_events: Vec<FaultEvent> = Vec::new();
    let mut transmitters: Vec<NodeId> = Vec::new();
    let mut round = 0u32;
    while !state.is_complete() && round < config.max_rounds {
        round += 1;
        // Faults fire (and burst channels step) before any decision coin.
        if let Some(s) = session.as_mut() {
            let fired = s.begin_round(round, &[1], std::slice::from_mut(rng));
            fired.iter().for_each(|ev| observer.on_fault(ev));
            fault_events.extend_from_slice(fired);
        }

        transmitters.clear();
        for v in state.informed_nodes() {
            // Crashed, asleep, and jamming nodes draw no decision coin.
            if session.as_ref().is_some_and(|s| s.mute(v)) {
                continue;
            }
            let local = LocalNode {
                id: v,
                informed_round: state.informed_round(v).expect("informed node"),
                round,
            };
            if protocol.transmits(local, rng) {
                transmitters.push(v);
            }
        }
        let started = observer.wants_timing().then(Instant::now);
        let outcome = engine.execute_round_faulty(
            &mut state,
            &transmitters,
            round,
            session.as_ref(),
            config.loss_prob,
            rng,
        );
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
    result.threads = engine.workers();
    if let Some(plan) = spec.fault_plan {
        let view = with_adjacency(provider, |g| plan.live_view(g, round, state.source()));
        result.faults = Some(view.summary(|v| state.is_informed(v)));
        result.fault_events = fault_events;
    }
    result
}

/// How a single-word lane engine turns one round's transmit words into
/// per-listener lane planes.
pub(crate) trait LaneMerge {
    /// The kernel every lane's [`RunResult`] reports.
    const KERNEL: KernelUsed;

    /// Worker threads that execute each merge.
    fn workers(&self) -> u32 {
        1
    }

    /// Merges the transmit words `t` (non-zero exactly at `tx_nodes`,
    /// which include the round's `jammers`) and calls
    /// `listener(v, ge1, ge2, jammed)` once for every node with a
    /// transmitting neighbor in some lane.  `ge1` / `ge2` are the lanes
    /// with ≥ 1 / ≥ 2 transmitting neighbors of `v`, and `jammed` says
    /// whether one of those neighbors is a jammer.  Listeners come in
    /// ascending node order whenever `canonical` is set.
    fn merge(
        &mut self,
        t: &[u64],
        tx_nodes: &[NodeId],
        jammers: &[NodeId],
        canonical: bool,
        listener: impl FnMut(NodeId, u64, u64, bool),
    );
}

/// The single-word lane loop behind every `Batch` and `LaneSweep` plan:
/// `lanes ≤ 64` trials, lane `l` on `child_rng(master_seed, l)`.
///
/// Lane `l` is **bit-identical** to [`run_scalar`] on that stream: each
/// lane owns a private RNG, and the node-major loops below visit each
/// lane's nodes in the scalar order, so every lane draws exactly the
/// scalar coins.
pub(crate) fn run_lanes<M: LaneMerge, P: Protocol + ?Sized>(
    spec: &RunSpec<'_>,
    mut merge: M,
    protocol: &mut P,
    lanes: usize,
) -> Vec<RunResult> {
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "lanes must be in 1..={MAX_LANES}, got {lanes}"
    );
    let provider = spec.provider();
    let n = provider.n();
    let source = spec.single_source();
    assert!(
        (source as usize) < n,
        "source {source} out of range for n = {n}"
    );
    let config = spec.config;
    let plan = spec.fault_plan;
    if let Some(p) = plan {
        assert_eq!(p.n(), n, "fault plan size mismatch");
    }
    let full = lane_mask(lanes);
    let loss = config.loss_prob;
    // Resolution draws coins under loss and faults, so listeners must
    // then arrive in ascending node order.
    let canonical = loss > 0.0 || plan.is_some();

    let mut rngs: Vec<Xoshiro256pp> = (0..lanes as u64)
        .map(|l| child_rng(spec.master_seed, l))
        .collect();
    protocol.begin_run(n);
    let mut session = plan.map(|p| FaultSession::new(p, 1));
    let mut book = LaneBook::new(n, lanes, config.trace_level);

    // Per-lane broadcast state, struct-of-words: informed mask per node,
    // informed round per (node, lane).
    let mut informed: Vec<u64> = vec![0; n];
    informed[source as usize] = full;
    let mut informed_round: Vec<u32> = vec![NOT_INFORMED; n * lanes];
    informed_round[source as usize * lanes..][..lanes].fill(0);
    // Transmit words (bit l = transmits in lane l) and their nodes.
    let mut t: Vec<u64> = vec![0; n];
    let mut tx_nodes: Vec<NodeId> = Vec::new();

    let mut active = if n == 1 { 0 } else { full };
    let mut round = 0u32;
    while active != 0 && round < config.max_rounds {
        round += 1;

        // Faults fire (and burst channels step) before any decision coin,
        // exactly like the scalar loop.
        if let Some(s) = session.as_mut() {
            book.fault_events(0, active, s.begin_round(round, &[active], &mut rngs));
        }

        // Decision phase, node-major: each lane sees its informed nodes
        // in ascending id order on its private RNG (the scalar order).
        for u in 0..n {
            let mask = informed[u] & active;
            // Crashed, asleep, and jamming nodes draw no decision coin.
            if mask == 0 || session.as_ref().is_some_and(|s| s.mute(u as NodeId)) {
                continue;
            }
            let base = u * lanes;
            let word = protocol.transmits_lanes(
                u as NodeId,
                round,
                mask,
                &informed_round[base..base + lanes],
                &mut rngs,
            ) & mask;
            if word != 0 {
                t[u] = word;
                tx_nodes.push(u as NodeId);
                book.transmit(0, word);
            }
        }

        // Jammers transmit in every active lane: a jam hit saturates the
        // two-plane counter like a real transmitter, and the merge flags
        // jam-only exactly-one lanes for demotion below.
        let jammers = session.as_ref().map_or(&[][..], |s| s.jammers());
        for &j in jammers {
            debug_assert_eq!(t[j as usize], 0, "jammer drew a decision coin");
            t[j as usize] = active;
            tx_nodes.push(j);
            book.transmit(0, active);
        }

        merge.merge(&t, &tx_nodes, jammers, canonical, |v, ge1, ge2, jammed| {
            let vi = v as usize;
            // A lane's transmitters (and jammers) cannot receive; informed
            // lanes have nothing to learn.  Blocked (crashed/asleep) nodes
            // count toward neither reach nor collisions.
            let reached = ge1 & !t[vi] & !informed[vi];
            if reached == 0 || session.as_ref().is_some_and(|s| s.blocked().get(vi)) {
                return;
            }
            // At a jammed node every exactly-one lane is a jam-only hit: a
            // collision, never a delivery, and no burst/loss coin is drawn.
            let e1 = if jammed { 0 } else { reached & !ge2 };
            book.reach(0, reached, reached & !e1);
            // The burst veto consumes no coin, and lost-to-burst lanes
            // skip the loss coin too (the scalar `&&` short circuit).
            let mut delivered = e1 & !session.as_ref().map_or(0, |s| s.burst_word(v, 0));
            if loss > 0.0 {
                delivered &= !Xoshiro256pp::lane_coins(&mut rngs, delivered, loss);
            }
            if delivered != 0 {
                informed[vi] |= delivered;
                book.deliver(0, delivered, round, &mut informed_round[vi * lanes..]);
            }
        });

        for l in bits(active) {
            if book.close(l, round) {
                active &= !(1u64 << l);
            }
        }
        for &u in &tx_nodes {
            t[u as usize] = 0;
        }
        tx_nodes.clear();
        book.next_round();
    }

    book.finish(round, M::KERNEL, merge.workers(), |horizons| {
        plan.map(|p| {
            lane_summaries(p, provider, source, horizons, |l, v| {
                informed[v as usize] >> l & 1 == 1
            })
        })
    })
}

/// Per-lane graceful-degradation summaries: lane `l` ends at
/// `horizons[l]`, and `informed(l, v)` tests node `v` in lane `l`.  Lanes
/// ending in the same round share one [`LiveView`], and purely implicit
/// providers materialize once for the whole batch.
pub(crate) fn lane_summaries(
    plan: &FaultPlan,
    provider: &dyn GraphProvider,
    source: NodeId,
    horizons: &[u32],
    informed: impl Fn(usize, NodeId) -> bool,
) -> Vec<FaultSummary> {
    with_adjacency(provider, |graph| {
        let mut views: Vec<(u32, LiveView)> = Vec::new();
        let mut summaries = Vec::with_capacity(horizons.len());
        for (l, &horizon) in horizons.iter().enumerate() {
            let at = views
                .iter()
                .position(|(h, _)| *h == horizon)
                .unwrap_or_else(|| {
                    views.push((horizon, plan.live_view(graph, horizon, source)));
                    views.len() - 1
                });
            summaries.push(views[at].1.summary(|v| informed(l, v)));
        }
        summaries
    })
}

/// Per-lane bookkeeping of the lane engines: this round's outcome
/// counters, and each lane's trace, completion and fault events.
///
/// Counter methods take a lane `base` and a 64-lane `word` (bit `b` is
/// lane `base + b`).  Only the newly-informed counter feeds fields kept at
/// every trace level; the others feed [`RoundRecord`]s and are skipped in
/// summary-only runs.
pub(crate) struct LaneBook {
    n: usize,
    per_round: bool,
    tx: Vec<u32>,
    newly: Vec<u32>,
    colls: Vec<u32>,
    reach: Vec<u32>,
    informed: Vec<usize>,
    rounds: Vec<u32>,
    completed: Vec<bool>,
    last: Vec<u32>,
    traces: Vec<Vec<RoundRecord>>,
    events: Vec<Vec<FaultEvent>>,
}

/// Adds one to `counter[base + b]` for every set bit `b` of `word`.
#[inline]
fn bump(counter: &mut [u32], base: usize, word: u64) {
    for b in bits(word) {
        counter[base + b] += 1;
    }
}

impl LaneBook {
    /// Bookkeeping for `lanes` lanes of an `n`-node run, each starting
    /// with its source informed.
    pub(crate) fn new(n: usize, lanes: usize, trace_level: TraceLevel) -> Self {
        LaneBook {
            n,
            per_round: trace_level == TraceLevel::PerRound,
            tx: vec![0; lanes],
            newly: vec![0; lanes],
            colls: vec![0; lanes],
            reach: vec![0; lanes],
            informed: vec![1; lanes],
            rounds: vec![0; lanes],
            completed: vec![n == 1; lanes],
            last: vec![0; lanes],
            traces: vec![Vec::new(); lanes],
            events: vec![Vec::new(); lanes],
        }
    }

    /// Appends the fault events that fired this round to every lane of
    /// `word`.
    pub(crate) fn fault_events(&mut self, base: usize, word: u64, fired: &[FaultEvent]) {
        if !fired.is_empty() {
            for b in bits(word) {
                self.events[base + b].extend_from_slice(fired);
            }
        }
    }

    /// Counts one transmitter in every lane of `word`.
    #[inline]
    pub(crate) fn transmit(&mut self, base: usize, word: u64) {
        if self.per_round {
            bump(&mut self.tx, base, word);
        }
    }

    /// Counts a listener reached in the lanes of `reached`, colliding in
    /// those of `collided`.
    #[inline]
    pub(crate) fn reach(&mut self, base: usize, reached: u64, collided: u64) {
        if self.per_round {
            bump(&mut self.reach, base, reached);
            bump(&mut self.colls, base, collided);
        }
    }

    /// Records a delivery in every lane of `word`; `informed_round` is the
    /// listener's per-lane informed-round row, indexed like the lanes.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        base: usize,
        word: u64,
        round: u32,
        informed_round: &mut [u32],
    ) {
        for b in bits(word) {
            let l = base + b;
            informed_round[l] = round;
            self.informed[l] += 1;
            self.newly[l] += 1;
        }
    }

    /// Closes `round` for lane `l`; true when the lane just completed.
    pub(crate) fn close(&mut self, l: usize, round: u32) -> bool {
        if self.per_round {
            self.traces[l].push(RoundRecord {
                round,
                transmitters: self.tx[l] as usize,
                newly_informed: self.newly[l] as usize,
                collisions: self.colls[l] as usize,
                reached: self.reach[l] as usize,
                informed_after: self.informed[l],
            });
        }
        if self.newly[l] > 0 {
            self.last[l] = round;
        }
        if self.informed[l] == self.n {
            self.completed[l] = true;
            self.rounds[l] = round;
        }
        self.completed[l]
    }

    /// Zeroes this round's counters.
    pub(crate) fn next_round(&mut self) {
        self.newly.fill(0);
        if self.per_round {
            self.tx.fill(0);
            self.colls.fill(0);
            self.reach.fill(0);
        }
    }

    /// The per-lane results after the last executed `round`: unfinished
    /// lanes report the exhausted budget, like the scalar loop, and
    /// `faults` maps the lanes' final rounds to their fault summaries.
    pub(crate) fn finish(
        mut self,
        round: u32,
        kernel: KernelUsed,
        threads: u32,
        faults: impl FnOnce(&[u32]) -> Option<Vec<FaultSummary>>,
    ) -> Vec<RunResult> {
        for (r, &done) in self.rounds.iter_mut().zip(&self.completed) {
            if !done {
                *r = round;
            }
        }
        let mut faults = faults(&self.rounds).map(Vec::into_iter);
        let n = self.n;
        (self.traces.into_iter().zip(self.events))
            .enumerate()
            .map(|(l, (trace, fault_events))| RunResult {
                completed: self.completed[l],
                rounds: self.rounds[l],
                informed: self.informed[l],
                n,
                kernel,
                threads,
                last_delivery_round: self.last[l],
                fault_events,
                faults: faults.as_mut().and_then(Iterator::next),
                trace,
            })
            .collect()
    }
}
