//! Fault injection: crash, sleep, jamming, and burst-loss fault plans.
//!
//! The paper's model assumes perfectly reliable, synchronously started
//! nodes.  This module adds the structured fault models real deployments
//! (and the related work on collision detection and non-spontaneous
//! wake-up) care about:
//!
//! * **crash** — fail-stop at a round: the node never transmits or
//!   receives again;
//! * **sleep** — the node is deaf and mute until its wake round
//!   (non-spontaneous start);
//! * **jamming** — the node transmits noise during a round window,
//!   forcing collisions on its whole neighborhood;
//! * **Gilbert–Elliott burst loss** — a two-state good/bad channel per
//!   node, generalizing the i.i.d. loss of
//!   [`RunConfig::with_loss`](crate::RunConfig::with_loss) to correlated
//!   fading.
//!
//! A [`FaultPlan`] fixes every fault deterministically before the run;
//! [`FaultConfig`] samples plans from rates and placement policies (random
//! or adversarial highest-degree) with a seeded RNG.  During a run one
//! [`FaultSession`] per protocol loop — one lane for the scalar loop, one
//! or more 64-lane groups for the lane engines — resolves the plan round
//! by round; its only RNG draws (the burst-channel coins) happen in
//! ascending node-id order on each lane's own stream, so sparse, dense,
//! sweep, and lane-batched kernels replay faulty runs **bit-identically**
//! — the same contract the lossy path already obeys (see
//! `docs/ROBUSTNESS.md`).
//!
//! Because completion can become impossible under faults, [`LiveView`] and
//! [`FaultSummary`] provide the graceful-degradation metrics: which nodes
//! survived, which of those the source could still reach through the
//! surviving subgraph, and how many of those were left uninformed.

use radio_graph::components::DisjointSets;
use radio_graph::{Graph, NodeId, Xoshiro256pp};

use crate::bitset::BitSet;

/// What kind of state change a [`FaultEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// The node fail-stops this round (deaf and mute forever after).
    Crash,
    /// The node wakes from its initial sleep this round.
    Wake,
    /// The node starts jamming this round.
    JamStart,
    /// First round in which the node no longer jams (finite windows only).
    JamStop,
}

impl FaultEventKind {
    /// Stable lower-case name, as serialized into JSONL fault traces.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultEventKind::Crash => "crash",
            FaultEventKind::Wake => "wake",
            FaultEventKind::JamStart => "jam_start",
            FaultEventKind::JamStop => "jam_stop",
        }
    }
}

/// One scheduled fault state change, effective from `round` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// First round (1-based) in which the new state holds.
    pub round: u32,
    /// The affected node.
    pub node: NodeId,
    /// What changes.
    pub kind: FaultEventKind,
}

/// Gilbert–Elliott two-state channel parameters.
///
/// Every node owns an independent channel that starts *good*.  At the top
/// of each round the channel draws exactly one coin: a good channel turns
/// bad with probability `p_bad`, a bad channel recovers with probability
/// `p_good`.  While bad, every otherwise-successful reception at the node
/// is lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstParams {
    /// P(good → bad) per round.
    pub p_bad: f64,
    /// P(bad → good) per round.
    pub p_good: f64,
}

/// Crash-round sentinel: the node never crashes.
const NEVER: u32 = u32::MAX;

/// Why a [`FaultPlan`] construction call was rejected.
///
/// Every builder has a `try_*` twin returning this error; the panicking
/// builders delegate to them, so the checks run in release builds too
/// (mirroring the `loss_prob` release validation in
/// [`RunConfig`](crate::RunConfig)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// The node id is `>= n` for this plan.
    NodeOutOfRange {
        /// Offending node id.
        node: NodeId,
        /// Plan size.
        n: usize,
    },
    /// A crash or jam was scheduled for round 0 (rounds are 1-based).
    RoundZero {
        /// Affected node.
        node: NodeId,
    },
    /// The node already has a crash scheduled.
    DoubleCrash {
        /// Affected node.
        node: NodeId,
    },
    /// The node already has a jam window.
    DoubleJam {
        /// Affected node.
        node: NodeId,
    },
    /// A jam window with `from > to` (empty/inverted).
    InvertedWindow {
        /// Affected node.
        node: NodeId,
        /// Window start.
        from: u32,
        /// Window end.
        to: u32,
    },
    /// A probability outside `[0, 1]` (NaN included).
    RateOutOfRange {
        /// Which parameter was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A burst channel with `p_bad = 0` never enters the bad state, so
    /// every burst has length zero — a misconfiguration, not a fault model.
    ZeroLengthBurst,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultPlanError::NodeOutOfRange { node, n } => {
                write!(f, "fault node {node} out of range for plan of {n} nodes")
            }
            FaultPlanError::RoundZero { node } => {
                write!(
                    f,
                    "fault round for node {node} must be >= 1 (rounds are 1-based)"
                )
            }
            FaultPlanError::DoubleCrash { node } => write!(f, "node {node} crashes twice"),
            FaultPlanError::DoubleJam { node } => write!(f, "node {node} jams twice"),
            FaultPlanError::InvertedWindow { node, from, to } => {
                write!(f, "empty jam window {from}..={to} for node {node}")
            }
            FaultPlanError::RateOutOfRange { what, value } => {
                write!(f, "{what} must be within [0, 1], got {value}")
            }
            FaultPlanError::ZeroLengthBurst => {
                write!(
                    f,
                    "burst channel with p_bad = 0 produces zero-length bursts"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A fully resolved, deterministic fault schedule for one graph.
///
/// Build one by hand with [`FaultPlan::crash`] / [`FaultPlan::sleep`] /
/// [`FaultPlan::jam`] / [`FaultPlan::set_burst`], or sample one with
/// [`FaultPlan::generate`].  The plan is immutable during a run; a
/// [`FaultSession`] walks it round by round.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    n: usize,
    /// Round the node fail-stops, or `u32::MAX` for never.
    crash_round: Vec<u32>,
    /// Round the node wakes; `<= 1` means awake from the start.
    wake_round: Vec<u32>,
    /// `(node, from, to)` jam windows, inclusive, sorted by node; at most
    /// one window per node.  `to == u32::MAX` jams forever.
    jams: Vec<(NodeId, u32, u32)>,
    /// All scheduled state changes, sorted by `(round, node)`.
    events: Vec<FaultEvent>,
    burst: Option<BurstParams>,
}

impl FaultPlan {
    /// An empty plan (no faults) for `n` nodes.
    pub fn new(n: usize) -> FaultPlan {
        FaultPlan {
            n,
            crash_round: vec![NEVER; n],
            wake_round: vec![1; n],
            jams: Vec::new(),
            events: Vec::new(),
            burst: None,
        }
    }

    /// Node count the plan was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.jams.is_empty() && self.burst.is_none()
    }

    /// All scheduled state changes, sorted by `(round, node)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Jam windows `(node, from, to)`, inclusive, sorted by node.
    pub fn jams(&self) -> &[(NodeId, u32, u32)] {
        &self.jams
    }

    /// The burst-loss channel parameters, if enabled.
    pub fn burst(&self) -> Option<BurstParams> {
        self.burst
    }

    /// The round node `v` fail-stops, if it ever does.
    pub fn crash_round(&self, v: NodeId) -> Option<u32> {
        let r = self.crash_round[v as usize];
        (r != NEVER).then_some(r)
    }

    /// The round node `v` wakes (`<= 1` means awake from the start).
    pub fn wake_round(&self, v: NodeId) -> u32 {
        self.wake_round[v as usize]
    }

    fn push_event(&mut self, event: FaultEvent) {
        let at = self
            .events
            .partition_point(|e| (e.round, e.node) <= (event.round, event.node));
        self.events.insert(at, event);
    }

    fn check_node(&self, v: NodeId) -> Result<(), FaultPlanError> {
        if (v as usize) < self.n {
            Ok(())
        } else {
            Err(FaultPlanError::NodeOutOfRange { node: v, n: self.n })
        }
    }

    /// Schedules node `v` to fail-stop at `round >= 1`, or reports why it
    /// cannot.
    pub fn try_crash(&mut self, v: NodeId, round: u32) -> Result<&mut FaultPlan, FaultPlanError> {
        self.check_node(v)?;
        if round == 0 {
            return Err(FaultPlanError::RoundZero { node: v });
        }
        if self.crash_round[v as usize] != NEVER {
            return Err(FaultPlanError::DoubleCrash { node: v });
        }
        self.crash_round[v as usize] = round;
        self.push_event(FaultEvent {
            round,
            node: v,
            kind: FaultEventKind::Crash,
        });
        Ok(self)
    }

    /// Schedules node `v` to fail-stop at `round >= 1`.
    ///
    /// # Panics
    ///
    /// If `v` is out of range, already crashes, or `round == 0` (in release
    /// builds too; see [`FaultPlan::try_crash`]).
    pub fn crash(&mut self, v: NodeId, round: u32) -> &mut FaultPlan {
        if let Err(e) = self.try_crash(v, round) {
            panic!("{e}");
        }
        self
    }

    /// Puts node `v` to sleep until `wake_round`, or reports why it cannot.
    /// `wake_round <= 1` is accepted as a no-op (awake from the start).
    pub fn try_sleep(
        &mut self,
        v: NodeId,
        wake_round: u32,
    ) -> Result<&mut FaultPlan, FaultPlanError> {
        self.check_node(v)?;
        if wake_round <= 1 {
            return Ok(self);
        }
        self.wake_round[v as usize] = wake_round;
        self.push_event(FaultEvent {
            round: wake_round,
            node: v,
            kind: FaultEventKind::Wake,
        });
        Ok(self)
    }

    /// Puts node `v` to sleep until `wake_round`: it neither transmits nor
    /// receives in rounds `< wake_round`.  `wake_round <= 1` is a no-op
    /// (the node is awake from the start).
    ///
    /// # Panics
    ///
    /// If `v` is out of range (see [`FaultPlan::try_sleep`]).
    pub fn sleep(&mut self, v: NodeId, wake_round: u32) -> &mut FaultPlan {
        if let Err(e) = self.try_sleep(v, wake_round) {
            panic!("{e}");
        }
        self
    }

    /// Makes node `v` jam in rounds `from..=to`, or reports why it cannot
    /// (out-of-range node, `from == 0`, inverted window, double jam).
    pub fn try_jam(
        &mut self,
        v: NodeId,
        from: u32,
        to: u32,
    ) -> Result<&mut FaultPlan, FaultPlanError> {
        self.check_node(v)?;
        if from == 0 {
            return Err(FaultPlanError::RoundZero { node: v });
        }
        if from > to {
            return Err(FaultPlanError::InvertedWindow { node: v, from, to });
        }
        let at = self.jams.partition_point(|&(u, _, _)| u < v);
        if self.jams.get(at).is_some_and(|&(u, _, _)| u == v) {
            return Err(FaultPlanError::DoubleJam { node: v });
        }
        self.jams.insert(at, (v, from, to));
        self.push_event(FaultEvent {
            round: from,
            node: v,
            kind: FaultEventKind::JamStart,
        });
        if to != u32::MAX {
            self.push_event(FaultEvent {
                round: to + 1,
                node: v,
                kind: FaultEventKind::JamStop,
            });
        }
        Ok(self)
    }

    /// Makes node `v` jam (transmit noise) in rounds `from..=to` inclusive;
    /// `to == u32::MAX` jams forever.  A crashed or still-asleep jammer is
    /// silent.  At most one window per node.
    ///
    /// # Panics
    ///
    /// On any [`FaultPlan::try_jam`] error (release builds included).
    pub fn jam(&mut self, v: NodeId, from: u32, to: u32) -> &mut FaultPlan {
        if let Err(e) = self.try_jam(v, from, to) {
            panic!("{e}");
        }
        self
    }

    /// Enables the Gilbert–Elliott burst-loss channel on every node, or
    /// reports why the parameters are rejected: probabilities outside
    /// `[0, 1]` (NaN included), or `p_bad = 0` (zero-length bursts).
    pub fn try_set_burst(
        &mut self,
        p_bad: f64,
        p_good: f64,
    ) -> Result<&mut FaultPlan, FaultPlanError> {
        if !(0.0..=1.0).contains(&p_bad) {
            return Err(FaultPlanError::RateOutOfRange {
                what: "burst p_bad",
                value: p_bad,
            });
        }
        if !(0.0..=1.0).contains(&p_good) {
            return Err(FaultPlanError::RateOutOfRange {
                what: "burst p_good",
                value: p_good,
            });
        }
        if p_bad == 0.0 {
            return Err(FaultPlanError::ZeroLengthBurst);
        }
        self.burst = Some(BurstParams { p_bad, p_good });
        Ok(self)
    }

    /// Enables the Gilbert–Elliott burst-loss channel on every node.
    ///
    /// # Panics
    ///
    /// If either probability is outside `[0, 1]`, or `p_bad = 0` (see
    /// [`FaultPlan::try_set_burst`]; checks run in release builds too).
    pub fn set_burst(&mut self, p_bad: f64, p_good: f64) -> &mut FaultPlan {
        if let Err(e) = self.try_set_burst(p_bad, p_good) {
            panic!("{e}");
        }
        self
    }

    /// Whether node `v` is up (neither crashed nor still asleep) at
    /// `round`.  This is the node-level availability predicate the
    /// `radio-node` event loop adapts into link-level faults.
    pub fn node_up(&self, v: NodeId, round: u32) -> bool {
        let i = v as usize;
        self.crash_round[i] > round && self.wake_round[i] <= round.max(1)
    }

    /// Whether node `v` is inside its jam window at `round` (regardless of
    /// whether it is awake enough to actually jam).
    pub fn jammed(&self, v: NodeId, round: u32) -> bool {
        self.jams
            .binary_search_by_key(&v, |&(u, _, _)| u)
            .map(|at| {
                let (_, from, to) = self.jams[at];
                from <= round && round <= to
            })
            .unwrap_or(false)
    }

    /// Samples a plan from `config` with a dedicated RNG seeded by `seed`.
    ///
    /// Generation is deterministic: one [`Xoshiro256pp`] seeded with
    /// `seed`, phases in fixed order (crash, sleep, jam), and within each
    /// phase all draws in ascending node-id order.
    pub fn generate(graph: &Graph, config: &FaultConfig, seed: u64) -> FaultPlan {
        let n = graph.n();
        let mut rng = Xoshiro256pp::new(seed);
        let mut plan = FaultPlan::new(n);
        let eligible = |v: NodeId| config.exempt != Some(v);
        let eligible_count = n - usize::from(config.exempt.is_some_and(|e| (e as usize) < n));
        let auto = |h: u32, factor: f64| -> u64 {
            if h > 0 {
                h as u64
            } else {
                (factor * (n.max(2) as f64).ln()).ceil().max(1.0) as u64
            }
        };

        // Crash phase.
        let crash_h = auto(config.crash_horizon, 2.0);
        if config.crash_rate > 0.0 {
            match config.placement {
                Placement::Random => {
                    for v in 0..n as NodeId {
                        if eligible(v) && rng.coin(config.crash_rate) {
                            plan.crash(v, 1 + rng.below(crash_h) as u32);
                        }
                    }
                }
                Placement::HighDegree => {
                    let k = (config.crash_rate * eligible_count as f64).round() as usize;
                    for v in top_degree(graph, k, config.exempt) {
                        plan.crash(v, 1 + rng.below(crash_h) as u32);
                    }
                }
            }
        }

        // Sleep phase (placement is always random: wake-up times model
        // non-spontaneous starts, which are not adversarially placed).
        let wake_h = auto(config.wake_horizon, 4.0);
        if config.sleep_rate > 0.0 {
            for v in 0..n as NodeId {
                if eligible(v) && rng.coin(config.sleep_rate) {
                    plan.sleep(v, 2 + rng.below(wake_h) as u32);
                }
            }
        }

        // Jam phase.
        let jammers = config.jammers.min(eligible_count);
        if jammers > 0 {
            let from = config.jam_from.max(1);
            let to = if config.jam_len == 0 {
                u32::MAX
            } else {
                from.saturating_add(config.jam_len - 1)
            };
            let chosen: Vec<NodeId> = match config.placement {
                Placement::Random => {
                    let mut picked = Vec::with_capacity(jammers);
                    while picked.len() < jammers {
                        let v = rng.below(n as u64) as NodeId;
                        if eligible(v) && !picked.contains(&v) {
                            picked.push(v);
                        }
                    }
                    picked
                }
                Placement::HighDegree => top_degree(graph, jammers, config.exempt),
            };
            for v in chosen {
                plan.jam(v, from, to);
            }
        }

        // A zero-rate burst means "no burst", like crash_rate = 0 above.
        if let Some(b) = config.burst {
            if b.p_bad > 0.0 {
                plan.set_burst(b.p_bad, b.p_good);
            }
        }
        plan
    }

    /// The surviving subgraph at the end of a run of `rounds` rounds: who
    /// crashed, who never woke, and which live nodes the (live) source can
    /// still reach through live–live edges.
    pub fn live_view(&self, graph: &Graph, rounds: u32, source: NodeId) -> LiveView {
        assert_eq!(graph.n(), self.n, "graph/plan size mismatch");
        let horizon = rounds.max(1);
        let mut live_mask = BitSet::new(self.n);
        let (mut crashed, mut asleep, mut live) = (0usize, 0usize, 0usize);
        for v in 0..self.n {
            if self.crash_round[v] <= rounds {
                crashed += 1;
            } else if self.wake_round[v] > horizon {
                asleep += 1;
            } else {
                live += 1;
                live_mask.set(v);
            }
        }
        let mut live_reachable = Vec::new();
        if live_mask.get(source as usize) {
            let mut dsu = DisjointSets::new(self.n);
            for (a, b) in graph.edges() {
                if live_mask.get(a as usize) && live_mask.get(b as usize) {
                    dsu.union(a, b);
                }
            }
            for v in live_mask.iter_ones() {
                if dsu.connected(v as u32, source) {
                    live_reachable.push(v as NodeId);
                }
            }
        }
        LiveView {
            crashed,
            asleep,
            live,
            live_reachable,
        }
    }
}

/// The `k` highest-degree nodes (ties broken by lower id), excluding
/// `exempt`, returned in ascending id order.
fn top_degree(graph: &Graph, k: usize, exempt: Option<NodeId>) -> Vec<NodeId> {
    let mut by_degree: Vec<NodeId> = (0..graph.n() as NodeId)
        .filter(|&v| exempt != Some(v))
        .collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    by_degree.truncate(k);
    by_degree.sort_unstable();
    by_degree
}

/// Where randomly generated faults land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Faults hit uniformly random nodes.
    #[default]
    Random,
    /// Adversarial: faults hit the highest-degree nodes (the hubs the
    /// `O(ln n)` argument leans on).  Applies to crashes and jammers;
    /// sleep is always random.
    HighDegree,
}

/// Rates and placement for sampling a [`FaultPlan`]
/// (see [`FaultPlan::generate`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Fraction of nodes that crash (per-node probability under
    /// [`Placement::Random`], a count fraction under
    /// [`Placement::HighDegree`]).
    pub crash_rate: f64,
    /// Crash rounds are uniform in `1..=crash_horizon`; 0 picks
    /// `ceil(2 ln n)` so crashes land while the broadcast is in flight.
    pub crash_horizon: u32,
    /// Fraction of nodes that start asleep.
    pub sleep_rate: f64,
    /// Wake rounds are uniform in `2..=1+wake_horizon`; 0 picks
    /// `ceil(4 ln n)`.
    pub wake_horizon: u32,
    /// Number of jamming nodes.
    pub jammers: usize,
    /// First jammed round (default 1; 0 is treated as 1).
    pub jam_from: u32,
    /// Jam window length in rounds; 0 jams forever.
    pub jam_len: u32,
    /// Gilbert–Elliott burst-loss channel, if any.
    pub burst: Option<BurstParams>,
    /// Placement policy for crashes and jammers.
    pub placement: Placement,
    /// A node no fault may hit (the runners exempt the source, so a
    /// "faulty run" is never trivially dead on arrival).
    pub exempt: Option<NodeId>,
}

impl FaultConfig {
    /// Parses the CLI fault grammar: comma-separated clauses
    /// `crash=RATE[@HORIZON]`, `sleep=RATE[@HORIZON]`,
    /// `jam=COUNT[@FROM:LEN]`, `burst=P_BAD:P_GOOD`, and
    /// `place=random|high`.
    ///
    /// Example: `crash=0.05,sleep=0.1,jam=2,burst=0.3:0.1`.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut config = FaultConfig::default();
        let prob = |what: &str, s: &str| -> Result<f64, String> {
            let p: f64 = s.parse().map_err(|_| format!("{what}: bad number {s:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{what}: {p} outside [0, 1]"));
            }
            Ok(p)
        };
        let int = |what: &str, s: &str| -> Result<u32, String> {
            s.parse().map_err(|_| format!("{what}: bad integer {s:?}"))
        };
        for clause in spec.split(',').filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} is not KEY=VALUE"))?;
            match key {
                "crash" | "sleep" => {
                    let (rate, horizon) = match value.split_once('@') {
                        None => (prob(key, value)?, 0),
                        Some((r, h)) => (prob(key, r)?, int(key, h)?),
                    };
                    if key == "crash" {
                        (config.crash_rate, config.crash_horizon) = (rate, horizon);
                    } else {
                        (config.sleep_rate, config.wake_horizon) = (rate, horizon);
                    }
                }
                "jam" => match value.split_once('@') {
                    None => config.jammers = int(key, value)? as usize,
                    Some((count, window)) => {
                        let (from, len) = window
                            .split_once(':')
                            .ok_or_else(|| format!("jam window {window:?} is not FROM:LEN"))?;
                        config.jammers = int(key, count)? as usize;
                        config.jam_from = int("jam from", from)?;
                        config.jam_len = int("jam len", len)?;
                    }
                },
                "burst" => {
                    let (bad, good) = value
                        .split_once(':')
                        .ok_or_else(|| format!("burst {value:?} is not P_BAD:P_GOOD"))?;
                    config.burst = Some(BurstParams {
                        p_bad: prob("burst p_bad", bad)?,
                        p_good: prob("burst p_good", good)?,
                    });
                }
                "place" => {
                    config.placement = match value {
                        "random" => Placement::Random,
                        "high" => Placement::HighDegree,
                        other => return Err(format!("unknown placement {other:?}")),
                    };
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(config)
    }
}

/// Round-by-round resolution of a [`FaultPlan`] during one run of
/// `groups × 64` trial lanes.
///
/// Fault state is shared across lanes (the plan is per-node, not
/// per-trial), but each lane owns a private burst channel at every node,
/// stepped from that lane's RNG.  The scalar loop holds one lane
/// (`groups = 1`, active mask `[1]`), the single-word lane loop one group,
/// and the tiled kernel up to 16.
///
/// Call [`FaultSession::begin_round`] at the top of every round — before
/// any protocol decision — to advance the fault state and draw the burst
/// coins; the returned slice is the events that became effective this
/// round.  Burst coins are the *only* RNG consumption: each active lane
/// draws exactly one coin per node per round in ascending node-id order
/// (and none at all without burst loss), which is what keeps faulty
/// replays kernel-independent.
#[derive(Debug)]
pub struct FaultSession<'p> {
    plan: &'p FaultPlan,
    /// Nodes currently deaf and mute (crashed, or asleep).
    blocked: BitSet,
    /// Nodes jamming this round (live jammers inside their window),
    /// ascending.
    jammers: Vec<NodeId>,
    cursor: usize,
    groups: usize,
    /// `burst_bad[v * groups + g]` bit `l` = lane `g·64 + l`'s channel at
    /// `v` is bad; empty when the plan has no burst channel.
    burst_bad: Vec<u64>,
}

impl<'p> FaultSession<'p> {
    /// A session at round 0 (initially asleep nodes already blocked)
    /// tracking `groups × 64` lanes of burst-channel state.
    pub fn new(plan: &'p FaultPlan, groups: usize) -> FaultSession<'p> {
        assert!(groups >= 1, "need at least one lane group");
        let mut blocked = BitSet::new(plan.n);
        for v in 0..plan.n {
            if plan.wake_round[v] > 1 {
                blocked.set(v);
            }
        }
        FaultSession {
            plan,
            blocked,
            jammers: Vec::new(),
            cursor: 0,
            groups,
            burst_bad: vec![0; plan.burst.map_or(0, |_| plan.n * groups)],
        }
    }

    /// Advances to `round` (rounds must be visited in increasing order):
    /// applies crashes and wake-ups, recomputes the live jammer set, and
    /// steps the burst channels of every lane in `active` (one mask word
    /// per group; lane `l` draws from `rngs[l]`).  Each lane draws one
    /// coin per node in ascending node order, and inactive (finished)
    /// lanes draw nothing.  Returns the plan events that became effective
    /// this round.
    pub fn begin_round(
        &mut self,
        round: u32,
        active: &[u64],
        rngs: &mut [Xoshiro256pp],
    ) -> &'p [FaultEvent] {
        assert_eq!(active.len(), self.groups, "active mask per lane group");
        let plan = self.plan;
        let start = self.cursor;
        while let Some(ev) = plan.events.get(self.cursor) {
            if ev.round > round {
                break;
            }
            match ev.kind {
                FaultEventKind::Crash => self.blocked.set(ev.node as usize),
                // A wake-up never revives a node that has already crashed;
                // checking the crash round (not event order) makes
                // same-round crash-vs-wake order-independent.
                FaultEventKind::Wake => {
                    if plan.crash_round[ev.node as usize] > round {
                        self.blocked.unset(ev.node as usize);
                    }
                }
                // Jamming is recomputed from the windows below; the events
                // exist for tracing only.
                FaultEventKind::JamStart | FaultEventKind::JamStop => {}
            }
            self.cursor += 1;
        }
        self.jammers.clear();
        for &(v, from, to) in &plan.jams {
            if from <= round && round <= to && !self.blocked.get(v as usize) {
                self.jammers.push(v);
            }
        }
        if let Some(b) = plan.burst {
            for words in self.burst_bad.chunks_exact_mut(self.groups) {
                for ((g, word), &act) in words.iter_mut().enumerate().zip(active) {
                    // Bad channels heal with `p_good`, good ones fail with `p_bad`.
                    let rngs = &mut rngs[g * 64..];
                    let healed = Xoshiro256pp::lane_coins(rngs, *word & act, b.p_good);
                    let failed = Xoshiro256pp::lane_coins(rngs, !*word & act, b.p_bad);
                    *word = (*word & !healed) | failed;
                }
            }
        }
        &plan.events[start..self.cursor]
    }

    /// Nodes that currently neither transmit nor receive (crashed or
    /// asleep), as a packed mask.
    pub fn blocked(&self) -> &BitSet {
        &self.blocked
    }

    /// Nodes jamming this round, in ascending id order.
    pub fn jammers(&self) -> &[NodeId] {
        &self.jammers
    }

    /// Lane group `g`'s burst word at `v`: bit `l` is set when lane
    /// `g·64 + l`'s channel at `v` is bad, so receptions there are lost.
    /// Zero when the plan has no burst channel, and for `g ≥ groups`
    /// (lanes the session does not track).
    pub fn burst_word(&self, v: NodeId, g: usize) -> u64 {
        if self.burst_bad.is_empty() || g >= self.groups {
            return 0;
        }
        self.burst_bad[v as usize * self.groups + g]
    }

    /// Whether `v` cannot usefully transmit this round: blocked, or busy
    /// jamming.  The protocol loops skip muted nodes *before* drawing
    /// their transmit coin.
    pub fn mute(&self, v: NodeId) -> bool {
        self.blocked.get(v as usize) || self.jammers.binary_search(&v).is_ok()
    }
}

/// The surviving subgraph at the end of a faulty run
/// (see [`FaultPlan::live_view`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveView {
    /// Nodes that crashed during the run.
    pub crashed: usize,
    /// Nodes still asleep when the run ended (never woke).
    pub asleep: usize,
    /// Nodes alive at the end (neither crashed nor asleep; jammers count
    /// as live).
    pub live: usize,
    /// Live nodes connected to the source through live–live edges
    /// (includes the source itself; empty when the source is dead).
    pub live_reachable: Vec<NodeId>,
}

impl LiveView {
    /// Condenses the view into the graceful-degradation counters, using
    /// `informed` to test each live reachable node.
    pub fn summary(&self, informed: impl Fn(NodeId) -> bool) -> FaultSummary {
        FaultSummary {
            crashed: self.crashed,
            asleep: self.asleep,
            live: self.live,
            live_reachable: self.live_reachable.len(),
            residual_uninformed: self
                .live_reachable
                .iter()
                .filter(|&&v| !informed(v))
                .count(),
        }
    }
}

/// Graceful-degradation counters of one faulty run, reported through
/// [`RunResult`](crate::RunResult) and `RunReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSummary {
    /// Nodes that crashed during the run.
    pub crashed: usize,
    /// Nodes still asleep when the run ended.
    pub asleep: usize,
    /// Nodes alive at the end.
    pub live: usize,
    /// Live nodes the source could still reach through the surviving
    /// subgraph.
    pub live_reachable: usize,
    /// Live reachable nodes left uninformed — the count that *should* have
    /// been informed but was not.
    pub residual_uninformed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::gnp::sample_gnp;
    use radio_graph::Graph;

    /// Advances a one-lane session on `rng`, the way the scalar loop does.
    fn step<'p>(
        session: &mut FaultSession<'p>,
        round: u32,
        rng: &mut Xoshiro256pp,
    ) -> &'p [FaultEvent] {
        session.begin_round(round, &[1], std::slice::from_mut(rng))
    }

    /// The burst rule written out for one lane, independent of the
    /// session: over `rounds` rounds on `rng`, each node in ascending
    /// order draws one coin — a bad channel heals with `p_good`, a good
    /// one fails with `p_bad`.  Returns which channels end bad.
    fn reference_burst(
        n: usize,
        rounds: u32,
        (p_bad, p_good): (f64, f64),
        rng: &mut Xoshiro256pp,
    ) -> Vec<bool> {
        let mut bad = vec![false; n];
        for _ in 0..rounds {
            for b in &mut bad {
                *b = if *b {
                    !rng.coin(p_good)
                } else {
                    rng.coin(p_bad)
                };
            }
        }
        bad
    }

    #[test]
    fn parse_full_spec() {
        let c = FaultConfig::parse("crash=0.05,sleep=0.1,jam=2,burst=0.3:0.1").unwrap();
        assert_eq!(c.crash_rate, 0.05);
        assert_eq!(c.sleep_rate, 0.1);
        assert_eq!(c.jammers, 2);
        assert_eq!(
            c.burst,
            Some(BurstParams {
                p_bad: 0.3,
                p_good: 0.1
            })
        );
        assert_eq!(c.placement, Placement::Random);
    }

    #[test]
    fn parse_horizons_windows_and_placement() {
        let c = FaultConfig::parse("crash=0.2@7,sleep=0.3@9,jam=3@5:10,place=high").unwrap();
        assert_eq!(c.crash_horizon, 7);
        assert_eq!(c.wake_horizon, 9);
        assert_eq!((c.jammers, c.jam_from, c.jam_len), (3, 5, 10));
        assert_eq!(c.placement, Placement::HighDegree);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultConfig::parse("crash=1.5").is_err());
        assert!(FaultConfig::parse("crash").is_err());
        assert!(FaultConfig::parse("warp=0.1").is_err());
        assert!(FaultConfig::parse("burst=0.3").is_err());
        assert!(FaultConfig::parse("place=midway").is_err());
        assert!(FaultConfig::parse("jam=2@5").is_err());
    }

    #[test]
    fn plan_events_sorted_and_typed() {
        let mut plan = FaultPlan::new(8);
        plan.crash(3, 5)
            .sleep(1, 4)
            .jam(6, 2, 9)
            .set_burst(0.2, 0.5);
        let rounds: Vec<u32> = plan.events().iter().map(|e| e.round).collect();
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.crash_round(3), Some(5));
        assert_eq!(plan.crash_round(0), None);
        assert_eq!(plan.wake_round(1), 4);
        assert_eq!(plan.jams(), &[(6, 2, 9)]);
        assert!(!plan.is_empty());
        assert!(plan
            .events()
            .iter()
            .any(|e| e.kind == FaultEventKind::JamStop && e.round == 10));
        // A forever jam has no stop event.
        let mut forever = FaultPlan::new(4);
        forever.jam(2, 1, u32::MAX);
        assert!(forever
            .events()
            .iter()
            .all(|e| e.kind != FaultEventKind::JamStop));
    }

    #[test]
    fn generation_is_deterministic_and_exempts() {
        let g = sample_gnp(200, 0.05, &mut Xoshiro256pp::new(4));
        let config = FaultConfig {
            crash_rate: 0.2,
            sleep_rate: 0.2,
            jammers: 3,
            burst: Some(BurstParams {
                p_bad: 0.1,
                p_good: 0.4,
            }),
            exempt: Some(7),
            ..FaultConfig::default()
        };
        let a = FaultPlan::generate(&g, &config, 42);
        let b = FaultPlan::generate(&g, &config, 42);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::generate(&g, &config, 43));
        assert!(a.crash_round(7).is_none());
        assert_eq!(a.wake_round(7), 1);
        assert!(a.jams().iter().all(|&(v, _, _)| v != 7));
        assert!(!a.events().is_empty());
    }

    #[test]
    fn high_degree_placement_hits_hubs() {
        // Star + pendant path: node 0 is the hub.
        let g = Graph::star(10);
        let config = FaultConfig {
            crash_rate: 0.1, // k = round(0.1 * 9) = 1 with node 9 exempt
            placement: Placement::HighDegree,
            exempt: Some(9),
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&g, &config, 1);
        assert!(
            plan.crash_round(0).is_some(),
            "hub must be the crash target"
        );
    }

    #[test]
    fn session_crash_sleep_jam_semantics() {
        let mut plan = FaultPlan::new(6);
        plan.crash(2, 3).sleep(4, 4).jam(5, 2, 3);
        let mut session = FaultSession::new(&plan, 1);
        let mut rng = Xoshiro256pp::new(1);

        let fired = step(&mut session, 1, &mut rng);
        assert!(fired.is_empty());
        assert!(session.blocked().get(4), "asleep from the start");
        assert!(!session.blocked().get(2));
        assert!(session.jammers().is_empty());
        assert!(session.mute(4) && !session.mute(2));

        let fired = step(&mut session, 2, &mut rng);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, FaultEventKind::JamStart);
        assert_eq!(session.jammers(), &[5]);
        assert!(session.mute(5));

        let fired = step(&mut session, 3, &mut rng);
        assert!(fired.iter().any(|e| e.kind == FaultEventKind::Crash));
        assert!(session.blocked().get(2));

        let fired = step(&mut session, 4, &mut rng);
        assert!(fired.iter().any(|e| e.kind == FaultEventKind::Wake));
        assert!(!session.blocked().get(4), "woke up");
        assert!(session.jammers().is_empty(), "jam window over");
        assert!(session.blocked().get(2), "crash is forever");
        // No burst configured: no burst words, and the RNG was never
        // consulted.
        assert!(session.burst_bad.is_empty());
        assert_eq!(Xoshiro256pp::new(1).next(), rng.next());
    }

    #[test]
    fn wake_never_revives_a_crashed_node() {
        // Crash and wake at the same round: the node must stay dead.
        let mut plan = FaultPlan::new(3);
        plan.crash(1, 4).sleep(1, 4);
        let mut session = FaultSession::new(&plan, 1);
        let mut rng = Xoshiro256pp::new(1);
        for round in 1..=5 {
            step(&mut session, round, &mut rng);
        }
        assert!(session.blocked().get(1));
    }

    #[test]
    fn crashed_jammer_goes_silent() {
        let mut plan = FaultPlan::new(4);
        plan.jam(2, 1, u32::MAX).crash(2, 3);
        let mut session = FaultSession::new(&plan, 1);
        let mut rng = Xoshiro256pp::new(1);
        step(&mut session, 1, &mut rng);
        assert_eq!(session.jammers(), &[2]);
        step(&mut session, 2, &mut rng);
        step(&mut session, 3, &mut rng);
        assert!(session.jammers().is_empty(), "crashed jammer stops jamming");
    }

    #[test]
    fn burst_channel_draws_one_coin_per_node_per_round() {
        let mut plan = FaultPlan::new(5);
        plan.set_burst(1.0, 0.0); // good → bad immediately, never recovers
        let mut session = FaultSession::new(&plan, 1);
        let mut rng = Xoshiro256pp::new(9);
        step(&mut session, 1, &mut rng);
        for v in 0..5 {
            assert_eq!(
                session.burst_word(v, 0),
                1,
                "all channels bad after round 1"
            );
        }
        // Exactly 5 coins per round were drawn.
        let mut reference = Xoshiro256pp::new(9);
        for _ in 0..5 {
            reference.coin(1.0);
        }
        step(&mut session, 2, &mut rng);
        for _ in 0..5 {
            reference.coin(0.0);
        }
        assert_eq!(reference.next(), rng.next());
    }

    #[test]
    fn lane_session_matches_scalar_burst_streams() {
        let mut plan = FaultPlan::new(7);
        plan.set_burst(0.4, 0.3);
        let lanes = 4;
        let mut lane_session = FaultSession::new(&plan, 1);
        let mut rngs: Vec<Xoshiro256pp> =
            (0..lanes).map(|l| radio_graph::child_rng(11, l)).collect();
        // Lane 2 goes inactive after round 2.
        let actives = [0b1111u64, 0b1111, 0b1011, 0b1011];
        for (i, &active) in actives.iter().enumerate() {
            lane_session.begin_round(i as u32 + 1, &[active], &mut rngs);
        }

        for (l, lane_rng) in rngs.iter_mut().enumerate() {
            let mut scalar = FaultSession::new(&plan, 1);
            let mut rng = radio_graph::child_rng(11, l as u64);
            let rounds = if l == 2 { 2 } else { 4 };
            for round in 1..=rounds {
                step(&mut scalar, round, &mut rng);
            }
            let mut inline = radio_graph::child_rng(11, l as u64);
            let bad = reference_burst(7, rounds, (0.4, 0.3), &mut inline);
            for v in 0..7 {
                let lane_bad = lane_session.burst_word(v, 0) >> l & 1 == 1;
                assert_eq!(scalar.burst_word(v, 0) == 1, lane_bad, "lane {l} node {v}");
                assert_eq!(bad[v as usize], lane_bad, "lane {l} node {v}, inline rule");
            }
            let residual = lane_rng.next();
            assert_eq!(rng.next(), residual, "lane {l} residual stream");
            assert_eq!(inline.next(), residual, "lane {l} residual, inline rule");
        }
    }

    #[test]
    fn grouped_lane_session_matches_scalar_burst_streams() {
        let mut plan = FaultPlan::new(5);
        plan.set_burst(0.4, 0.3);
        let lanes = 70u64; // two groups: 64 full + 6 partial
        let mut session = FaultSession::new(&plan, 2);
        let mut rngs: Vec<Xoshiro256pp> =
            (0..lanes).map(|l| radio_graph::child_rng(23, l)).collect();
        let active = [u64::MAX, (1u64 << 6) - 1];
        for round in 1..=3 {
            session.begin_round(round, &active, &mut rngs);
        }
        for (l, lane_rng) in rngs.iter_mut().enumerate() {
            let mut scalar = FaultSession::new(&plan, 1);
            let mut rng = radio_graph::child_rng(23, l as u64);
            for round in 1..=3 {
                step(&mut scalar, round, &mut rng);
            }
            let mut inline = radio_graph::child_rng(23, l as u64);
            let bad = reference_burst(5, 3, (0.4, 0.3), &mut inline);
            for v in 0..5 {
                let lane_bad = session.burst_word(v, l >> 6) >> (l & 63) & 1 == 1;
                assert_eq!(scalar.burst_word(v, 0) == 1, lane_bad, "lane {l} node {v}");
                assert_eq!(bad[v as usize], lane_bad, "lane {l} node {v}, inline rule");
            }
            let residual = lane_rng.next();
            assert_eq!(rng.next(), residual, "lane {l} residual stream");
            assert_eq!(inline.next(), residual, "lane {l} residual, inline rule");
        }
    }

    #[test]
    fn live_view_counts_and_reachability() {
        // Path 0-1-2-3-4; crash node 2 → 3,4 unreachable from 0.
        let g = Graph::path(5);
        let mut plan = FaultPlan::new(5);
        plan.crash(2, 3).sleep(4, 100);
        let view = plan.live_view(&g, 10, 0);
        assert_eq!(view.crashed, 1);
        assert_eq!(view.asleep, 1, "node 4 never woke within 10 rounds");
        assert_eq!(view.live, 3);
        assert_eq!(view.live_reachable, vec![0, 1]);
        let summary = view.summary(|v| v == 0);
        assert_eq!(summary.live_reachable, 2);
        assert_eq!(summary.residual_uninformed, 1);

        // Dead source: nothing is reachable.
        let mut dead = FaultPlan::new(5);
        dead.crash(0, 1);
        let view = dead.live_view(&g, 10, 0);
        assert!(view.live_reachable.is_empty());

        // Before the crash round the node still counts as live.
        let early = plan.live_view(&g, 2, 0);
        assert_eq!(early.crashed, 0);
        assert_eq!(early.live_reachable.len(), 4);
    }

    #[test]
    #[should_panic]
    fn double_crash_rejected() {
        let mut plan = FaultPlan::new(3);
        plan.crash(1, 2).crash(1, 3);
    }

    #[test]
    #[should_panic]
    fn bad_burst_probability_rejected() {
        let mut plan = FaultPlan::new(3);
        plan.set_burst(1.5, 0.1);
    }

    #[test]
    fn try_crash_reports_typed_errors() {
        let mut plan = FaultPlan::new(3);
        assert_eq!(
            plan.try_crash(3, 2).unwrap_err(),
            FaultPlanError::NodeOutOfRange { node: 3, n: 3 }
        );
        assert_eq!(
            plan.try_crash(1, 0).unwrap_err(),
            FaultPlanError::RoundZero { node: 1 }
        );
        plan.try_crash(1, 2).unwrap();
        assert_eq!(
            plan.try_crash(1, 5).unwrap_err(),
            FaultPlanError::DoubleCrash { node: 1 }
        );
        // The failed calls left no partial state behind.
        assert_eq!(plan.crash_round(1), Some(2));
        assert_eq!(plan.events().len(), 1);
    }

    #[test]
    fn try_sleep_reports_typed_errors() {
        let mut plan = FaultPlan::new(3);
        assert_eq!(
            plan.try_sleep(9, 4).unwrap_err(),
            FaultPlanError::NodeOutOfRange { node: 9, n: 3 }
        );
        // wake_round <= 1 is an accepted no-op, not an error.
        plan.try_sleep(1, 1).unwrap();
        assert_eq!(plan.wake_round(1), 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn try_jam_reports_typed_errors() {
        let mut plan = FaultPlan::new(4);
        assert_eq!(
            plan.try_jam(4, 1, 2).unwrap_err(),
            FaultPlanError::NodeOutOfRange { node: 4, n: 4 }
        );
        assert_eq!(
            plan.try_jam(2, 0, 2).unwrap_err(),
            FaultPlanError::RoundZero { node: 2 }
        );
        assert_eq!(
            plan.try_jam(2, 5, 3).unwrap_err(),
            FaultPlanError::InvertedWindow {
                node: 2,
                from: 5,
                to: 3
            }
        );
        plan.try_jam(2, 1, 4).unwrap();
        assert_eq!(
            plan.try_jam(2, 6, 8).unwrap_err(),
            FaultPlanError::DoubleJam { node: 2 }
        );
        assert_eq!(plan.jams(), &[(2, 1, 4)]);
    }

    #[test]
    fn try_set_burst_reports_typed_errors() {
        let mut plan = FaultPlan::new(2);
        assert_eq!(
            plan.try_set_burst(1.5, 0.1).unwrap_err(),
            FaultPlanError::RateOutOfRange {
                what: "burst p_bad",
                value: 1.5
            }
        );
        assert_eq!(
            plan.try_set_burst(0.5, -0.1).unwrap_err(),
            FaultPlanError::RateOutOfRange {
                what: "burst p_good",
                value: -0.1
            }
        );
        assert!(matches!(
            plan.try_set_burst(f64::NAN, 0.1).unwrap_err(),
            FaultPlanError::RateOutOfRange {
                what: "burst p_bad",
                ..
            }
        ));
        assert_eq!(
            plan.try_set_burst(0.0, 0.5).unwrap_err(),
            FaultPlanError::ZeroLengthBurst
        );
        assert!(plan.burst().is_none(), "failed calls left no channel");
        plan.try_set_burst(1.0, 0.0).unwrap(); // never-recovering is legal
        assert!(plan.burst().is_some());
        // Errors render as readable messages.
        let msg = FaultPlanError::InvertedWindow {
            node: 2,
            from: 5,
            to: 3,
        }
        .to_string();
        assert!(msg.contains("5..=3"), "{msg}");
    }

    #[test]
    fn zero_rate_burst_config_generates_no_channel() {
        let g = sample_gnp(32, 0.2, &mut Xoshiro256pp::new(2));
        let config = FaultConfig {
            burst: Some(BurstParams {
                p_bad: 0.0,
                p_good: 0.5,
            }),
            ..FaultConfig::default()
        };
        assert!(FaultPlan::generate(&g, &config, 1).burst().is_none());
    }

    #[test]
    fn node_up_and_jammed_track_the_schedule() {
        let mut plan = FaultPlan::new(5);
        plan.crash(1, 4).sleep(2, 3).jam(3, 2, 6);
        assert!(plan.node_up(1, 1) && plan.node_up(1, 3));
        assert!(!plan.node_up(1, 4), "crashed at its crash round");
        assert!(!plan.node_up(2, 2) && plan.node_up(2, 3));
        assert!(plan.node_up(0, 0), "round 0 treated as the start");
        assert!(!plan.jammed(3, 1) && plan.jammed(3, 2) && plan.jammed(3, 6));
        assert!(!plan.jammed(3, 7) && !plan.jammed(0, 3));
    }
}
