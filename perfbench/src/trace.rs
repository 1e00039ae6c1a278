//! Tracing from outside the program: adapters at the public layer
//! boundaries and an in-memory span log.
//!
//! Nothing here changes what the library computes.  [`TracedProvider`]
//! wraps any [`GraphProvider`] and times `for_forward_edges` and
//! `materialize`; [`TracedProtocol`] wraps any [`Protocol`], forwards
//! every call (including `transmits_lanes`, which `Restartable`
//! overrides), times decisions, counts lane decisions, and opens a round
//! span whenever the round argument advances.  The traced run compares
//! its outputs with an untraced run of the same inputs, so an adapter
//! that changed the program would fail that check.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use radio_graph::{Graph, GraphProvider, NodeId, Xoshiro256pp};
use radio_sim::{Json, LocalNode, Protocol};

/// Nanoseconds from `from` to `to` (0 if `to` is earlier).
pub fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// The cost of one timed empty region (two back-to-back clock reads),
/// subtracted from every timed call so clock reads are not billed to the
/// layer being measured.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<f64> = (0..2001)
            .map(|_| {
                let t0 = Instant::now();
                ns_between(t0, Instant::now()) as f64
            })
            .collect();
        median(&mut samples) as u64
    })
}

/// A call counter that reads the clock on every `stride`-th call only and
/// scales the sampled time up to all calls.  Stride 1 times every call.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    stride: u64,
    pub calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl Sampler {
    pub fn new(stride: u64) -> Sampler {
        Sampler {
            stride: stride.max(1),
            calls: 0,
            sampled: 0,
            sampled_ns: 0,
        }
    }

    /// Runs `f`, timing it if this call is sampled.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let take = self.calls.is_multiple_of(self.stride);
        self.calls += 1;
        if !take {
            return f();
        }
        let overhead = clock_overhead_ns();
        let t0 = Instant::now();
        let out = f();
        self.sampled_ns += ns_between(t0, Instant::now()).saturating_sub(overhead);
        self.sampled += 1;
        out
    }

    /// Estimated total nanoseconds over all calls.
    pub fn total_ns(&self) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        (self.sampled_ns as f64 * self.calls as f64 / self.sampled as f64) as u64
    }
}

/// [`GraphProvider`] adapter with spans on `for_forward_edges` (fill) and
/// `materialize`.  `Sync` like every provider: the counters are atomics.
pub struct TracedProvider<'a> {
    inner: &'a dyn GraphProvider,
    fill_ns: AtomicU64,
    fill_calls: AtomicU64,
    materialize_ns: AtomicU64,
}

/// Cumulative provider counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProviderSnapshot {
    pub fill_ns: u64,
    pub fill_calls: u64,
    pub materialize_ns: u64,
}

impl<'a> TracedProvider<'a> {
    pub fn new(inner: &'a dyn GraphProvider) -> TracedProvider<'a> {
        TracedProvider {
            inner,
            fill_ns: AtomicU64::new(0),
            fill_calls: AtomicU64::new(0),
            materialize_ns: AtomicU64::new(0),
        }
    }

    pub fn snapshot(&self) -> ProviderSnapshot {
        // Relaxed: plain statistics, read after the run's threads joined
        // (or from the thread that made the calls).
        ProviderSnapshot {
            fill_ns: self.fill_ns.load(Ordering::Relaxed),
            fill_calls: self.fill_calls.load(Ordering::Relaxed),
            materialize_ns: self.materialize_ns.load(Ordering::Relaxed),
        }
    }
}

impl GraphProvider for TracedProvider<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn edge_hint(&self) -> usize {
        self.inner.edge_hint()
    }

    fn for_forward_edges(&self, rows: Range<NodeId>, visit: &mut dyn FnMut(NodeId, NodeId)) {
        let t0 = Instant::now();
        self.inner.for_forward_edges(rows, visit);
        let dt = ns_between(t0, Instant::now());
        self.fill_ns.fetch_add(dt, Ordering::Relaxed);
        self.fill_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn as_explicit(&self) -> Option<&Graph> {
        self.inner.as_explicit()
    }

    fn materialize(&self) -> Graph {
        let t0 = Instant::now();
        let g = self.inner.materialize();
        self.materialize_ns
            .fetch_add(ns_between(t0, Instant::now()), Ordering::Relaxed);
        g
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// One closed round span, times relative to the unit start.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpan {
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub decide_ns: u64,
    pub fill_ns: u64,
    pub fill_calls: u64,
    pub materialize_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpenRound {
    round: u32,
    start: Instant,
    decide: Sampler,
    provider: ProviderSnapshot,
}

/// What a traced run of one unit measured.
#[derive(Debug, Clone, Default)]
pub struct UnitTrace {
    pub wall_ns: u64,
    /// Time before the first decision (engine state set-up).
    pub init_ns: u64,
    pub rounds: Vec<RoundSpan>,
    pub calls: u64,
    pub lane_decisions: u64,
    pub transmits: u64,
    pub decide_ns: u64,
    pub fill_ns: u64,
    pub fill_calls: u64,
    /// Materializations inside the run (the faulted sweep builds one for
    /// its fault summary).
    pub materialize_ns: u64,
}

impl UnitTrace {
    pub fn round_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.end_ns - r.start_ns).sum()
    }

    /// Round time not spent deciding, filling or materializing:
    /// resolution, the fault step, and engine bookkeeping.
    pub fn rest_ns(&self) -> u64 {
        self.round_ns()
            .saturating_sub(self.decide_ns + self.fill_ns + self.materialize_ns)
    }

    /// The unit's span and its round spans, as JSON span records.
    pub fn spans(
        &self,
        id: u64,
        parent: u64,
        start_ns: u64,
        attrs: Vec<(&str, Json)>,
    ) -> Vec<Json> {
        let mut unit_attrs: Vec<(String, Json)> =
            attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        for (k, v) in [
            ("init_ns", self.init_ns),
            ("decide_ns", self.decide_ns),
            ("fill_ns", self.fill_ns),
            ("fill_calls", self.fill_calls),
            ("materialize_ns", self.materialize_ns),
            ("rest_ns", self.rest_ns()),
            ("calls", self.calls),
            ("lane_decisions", self.lane_decisions),
        ] {
            unit_attrs.push((k.to_string(), Json::from(v)));
        }
        let mut out = vec![span(
            id,
            parent,
            "unit",
            start_ns,
            start_ns + self.wall_ns,
            Json::Obj(unit_attrs),
        )];
        for (i, r) in self.rounds.iter().enumerate() {
            out.push(span(
                id * 100_000 + i as u64 + 1,
                id,
                "round",
                start_ns + r.start_ns,
                start_ns + r.end_ns,
                Json::object([
                    ("round", Json::from(r.round)),
                    ("decide_ns", Json::from(r.decide_ns)),
                    ("fill_ns", Json::from(r.fill_ns)),
                    ("fill_calls", Json::from(r.fill_calls)),
                    ("materialize_ns", Json::from(r.materialize_ns)),
                ]),
            ));
        }
        out
    }
}

/// A span record: identifier, parent, name, start/end (ns since the
/// workload started) and attributes.
pub fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64, attrs: Json) -> Json {
    Json::object([
        ("id", Json::from(id)),
        ("parent", Json::from(parent)),
        ("name", Json::from(name)),
        ("start_ns", Json::from(start_ns)),
        ("end_ns", Json::from(end_ns)),
        ("attrs", attrs),
    ])
}

/// [`Protocol`] adapter: forwards every call to `inner` and records
/// decision time, lane decisions, transmissions, and round spans.
pub struct TracedProtocol<'p, P> {
    inner: P,
    provider: Option<&'p TracedProvider<'p>>,
    start: Instant,
    decide: Sampler,
    lane_decisions: u64,
    transmits: u64,
    open: Option<OpenRound>,
    rounds: Vec<RoundSpan>,
}

impl<'p, P: Protocol> TracedProtocol<'p, P> {
    /// Wraps `inner`; `start` is the unit's start instant, `stride` the
    /// decision-timing sample stride, and `provider` the traced provider
    /// whose fill time is attributed to each round.
    pub fn new(
        inner: P,
        start: Instant,
        stride: u64,
        provider: Option<&'p TracedProvider<'p>>,
    ) -> Self {
        TracedProtocol {
            inner,
            provider,
            start,
            decide: Sampler::new(stride),
            lane_decisions: 0,
            transmits: 0,
            open: None,
            rounds: Vec::new(),
        }
    }

    fn provider_snapshot(&self) -> ProviderSnapshot {
        self.provider.map(|p| p.snapshot()).unwrap_or_default()
    }

    fn close(&mut self, at: Instant) {
        let Some(open) = self.open.take() else { return };
        let now = self.provider_snapshot();
        let calls = self.decide.calls - open.decide.calls;
        let sampled = self.decide.sampled - open.decide.sampled;
        let sampled_ns = self.decide.sampled_ns - open.decide.sampled_ns;
        // Scale this round's sampled decision time to all its calls; a
        // round with no sampled call borrows the run-wide mean.
        let decide_ns = if sampled > 0 {
            (sampled_ns as f64 * calls as f64 / sampled as f64) as u64
        } else if self.decide.sampled > 0 {
            (self.decide.sampled_ns as f64 * calls as f64 / self.decide.sampled as f64) as u64
        } else {
            0
        };
        self.rounds.push(RoundSpan {
            round: open.round,
            start_ns: ns_between(self.start, open.start),
            end_ns: ns_between(self.start, at),
            decide_ns,
            fill_ns: now.fill_ns - open.provider.fill_ns,
            fill_calls: now.fill_calls - open.provider.fill_calls,
            materialize_ns: now.materialize_ns - open.provider.materialize_ns,
        });
    }

    fn enter(&mut self, round: u32) {
        if self.open.is_some_and(|o| o.round == round) {
            return;
        }
        let now = Instant::now();
        self.close(now);
        self.open = Some(OpenRound {
            round,
            start: now,
            decide: self.decide,
            provider: self.provider_snapshot(),
        });
    }

    /// Closes the last round at `end` (the unit's end) and returns the
    /// unit's trace.
    pub fn finish(mut self, end: Instant) -> UnitTrace {
        self.close(end);
        let wall_ns = ns_between(self.start, end);
        let init_ns = self.rounds.first().map_or(wall_ns, |r| r.start_ns);
        UnitTrace {
            wall_ns,
            init_ns,
            calls: self.decide.calls,
            lane_decisions: self.lane_decisions,
            transmits: self.transmits,
            decide_ns: self.rounds.iter().map(|r| r.decide_ns).sum(),
            fill_ns: self.rounds.iter().map(|r| r.fill_ns).sum(),
            fill_calls: self.rounds.iter().map(|r| r.fill_calls).sum(),
            materialize_ns: self.rounds.iter().map(|r| r.materialize_ns).sum(),
            rounds: self.rounds,
        }
    }
}

impl<P: Protocol> Protocol for TracedProtocol<'_, P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin_run(&mut self, n: usize) {
        self.inner.begin_run(n);
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        self.enter(node.round);
        let inner = &mut self.inner;
        let out = self.decide.time(|| inner.transmits(node, rng));
        self.lane_decisions += 1;
        self.transmits += u64::from(out);
        out
    }

    fn transmits_lanes(
        &mut self,
        id: NodeId,
        round: u32,
        lanes: u64,
        informed_round: &[u32],
        rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        self.enter(round);
        let inner = &mut self.inner;
        let word = self
            .decide
            .time(|| inner.transmits_lanes(id, round, lanes, informed_round, rngs));
        self.lane_decisions += u64::from(lanes.count_ones());
        self.transmits += u64::from((word & lanes).count_ones());
        word
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Times `passes` visit-free sweeps of `rows` and returns the median
/// nanoseconds per pass and the edge count.  The closure does nothing,
/// so the pass costs regeneration plus the per-edge callback; a real
/// fill's excess over it is the merge.
pub fn regen_pass(provider: &dyn GraphProvider, rows: Range<NodeId>, passes: usize) -> (f64, u64) {
    let mut edges = 0u64;
    provider.for_forward_edges(rows.clone(), &mut |_, _| edges += 1);
    let mut times: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let t0 = Instant::now();
            provider.for_forward_edges(rows.clone(), &mut |u, v| {
                std::hint::black_box((u, v));
            });
            ns_between(t0, Instant::now()) as f64
        })
        .collect();
    (median(&mut times), edges)
}
