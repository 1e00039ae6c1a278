//! Lane-decision differential suite: every stock protocol's batched
//! `transmits_lanes` against its scalar `transmits`.
//!
//! Each protocol that overrides [`Protocol::transmits_lanes`] (most of them
//! through `Xoshiro256pp::lane_coins`) runs on every lane engine: `Batch`
//! at 64 lanes, `Tiled` at 1024 lanes on one and on two worker threads,
//! and the `LaneSweep` over a seed-only [`ImplicitGnp`].  Each runs plain,
//! lossy, and under a crash/sleep/jam/burst fault plan.  Lane `l` must
//! equal the scalar run on `child_rng(master, l)`: the same [`RunResult`]
//! (per-round trace, fault events and summary), and the same decisions,
//! each made from the same RNG state and leaving the same state behind.
//! So every coin a lane draws between two of its decisions (burst and
//! loss coins included) is pinned too.  Decisions are compared as an
//! order-independent [`Digest`]: the tiled engine hands a protocol only a
//! 64-lane window of its streams, so a probe cannot tell which lanes it
//! sees.

use std::cell::Cell;
use std::rc::Rc;

use radio_broadcast::distributed::{
    ConstantProb, Decay, EgDistributed, EgUnknownDegree, EgVariant, Flooding, Restartable,
    RoundRobin, SelectiveBroadcast,
};
use radio_broadcast::lower_bound::eg_profile;
use radio_graph::{child_rng, Graph, GraphProvider, ImplicitGnp, NodeId, SplitMix64, Xoshiro256pp};
use radio_sim::{
    FaultConfig, FaultPlan, KernelUsed, LocalNode, Named, PlannedEngine, Protocol, RunConfig,
    RunResult, RunSpec, Staged, MAX_LANES,
};

const N: usize = 64;
const MASTER: u64 = 0x1A9E_C01D;
const TILED_LANES: usize = 1024;
/// Caps the deterministic schedules (round-robin, selective families),
/// which need far more than this to finish; unfinished lanes are part of
/// the contract too.
const MAX_ROUNDS: u32 = 48;

/// The set lanes of `word`, ascending.
fn lanes_of(word: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |l| word >> l & 1 == 1)
}

/// The next output of a copy of `rng`: a fingerprint of its state.
fn fingerprint(rng: &Xoshiro256pp) -> u64 {
    rng.clone().next()
}

/// An order-independent digest of a set of decisions: their count, and
/// the wrapping sum of one hash per decision over its round, node,
/// informed round, transmit bit, and RNG state before and after.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Digest {
    decisions: u64,
    sum: u64,
}

impl Digest {
    fn add(&mut self, node: LocalNode, transmit: bool, before: u64, after: u64) {
        let fields = [
            u64::from(node.round) << 32 | u64::from(node.id),
            u64::from(node.informed_round) << 1 | u64::from(transmit),
            before,
            after,
        ];
        let hash = fields
            .iter()
            .fold(0x5EED, |h, &x| SplitMix64::new(h ^ x).next());
        self.decisions += 1;
        self.sum = self.sum.wrapping_add(hash);
    }

    fn merge(self, other: Digest) -> Digest {
        Digest {
            decisions: self.decisions + other.decisions,
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

/// Wraps a protocol and digests every decision it makes, on both paths.
struct Probe<P> {
    inner: P,
    digest: Digest,
}

impl<P> Probe<P> {
    fn new(inner: P) -> Probe<P> {
        Probe {
            inner,
            digest: Digest::default(),
        }
    }
}

impl<P: Protocol> Protocol for Probe<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin_run(&mut self, n: usize) {
        self.inner.begin_run(n);
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        let before = fingerprint(rng);
        let out = self.inner.transmits(node, rng);
        self.digest.add(node, out, before, fingerprint(rng));
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
        let mut before = [0u64; MAX_LANES];
        for l in lanes_of(lanes) {
            before[l] = fingerprint(&rngs[l]);
        }
        let word = self
            .inner
            .transmits_lanes(id, round, lanes, informed_round, rngs);
        for l in lanes_of(lanes) {
            let node = LocalNode {
                id,
                informed_round: informed_round[l],
                round,
            };
            let transmit = word >> l & 1 == 1;
            self.digest
                .add(node, transmit, before[l], fingerprint(&rngs[l]));
        }
        word
    }
}

/// Counts the scalar `transmits` calls that reach the wrapped protocol
/// and forwards `transmits_lanes`, so a wrapper that drops the lane path
/// shows up as calls here.
struct ScalarCalls<P> {
    inner: P,
    calls: Rc<Cell<u64>>,
}

impl<P: Protocol> Protocol for ScalarCalls<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin_run(&mut self, n: usize) {
        self.inner.begin_run(n);
    }

    fn transmits(&mut self, node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
        self.calls.set(self.calls.get() + 1);
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

type Factory = Box<dyn Fn() -> Box<dyn Protocol>>;

fn boxed<P: Protocol + 'static>(make: impl Fn() -> P + 'static) -> Factory {
    Box::new(move || Box::new(make()))
}

/// Every stock protocol with a `transmits_lanes` override, and the
/// combinators that forward it.
fn overriding_protocols(p: f64) -> Vec<(&'static str, Factory)> {
    let d = p * N as f64;
    vec![
        ("eg", boxed(move || EgDistributed::new(p))),
        (
            "eg-strict",
            boxed(move || EgDistributed::with_variant(p, EgVariant::Strict)),
        ),
        ("decay", boxed(Decay::new)),
        ("constant", boxed(move || ConstantProb::new(1.0 / d))),
        ("unknown-degree", boxed(EgUnknownDegree::new)),
        ("eg-profile", boxed(move || eg_profile(N, p))),
        ("flooding", boxed(|| Flooding)),
        ("round-robin", boxed(RoundRobin::default)),
        (
            "selective",
            boxed(|| SelectiveBroadcast::for_degree_bound(N, 3)),
        ),
        (
            "restartable-eg",
            boxed(move || Restartable::new(EgDistributed::new(p), 12, 2)),
        ),
        ("staged", boxed(|| Staged::new(Flooding, 3, Decay::new()))),
        (
            "named",
            boxed(move || Named::new("x", EgDistributed::new(p))),
        ),
    ]
}

/// The informational tags every lane engine sets its own way.
fn normalized(mut r: RunResult) -> RunResult {
    r.kernel = KernelUsed::Sparse;
    r.threads = 1;
    r
}

/// The shared inputs: one `G(n, p)` as a seed-only provider and its
/// materialized CSR, and a fault plan with every fault kind.
struct Fixture {
    imp: ImplicitGnp,
    graph: Graph,
    plan: FaultPlan,
    p: f64,
}

impl Fixture {
    fn new() -> Fixture {
        let p = 2.5 * (N as f64).ln() / N as f64;
        let imp = ImplicitGnp::new(N, p, 0xDEC1DE);
        let graph = imp.materialize();
        let config = FaultConfig {
            crash_rate: 0.05,
            sleep_rate: 0.1,
            jammers: 2,
            burst: Some(radio_sim::BurstParams {
                p_bad: 0.25,
                p_good: 0.3,
            }),
            exempt: Some(0),
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&graph, &config, 4242);
        Fixture {
            imp,
            graph,
            plan,
            p,
        }
    }
}

/// The run configuration every condition starts from.
fn base_config() -> RunConfig {
    RunConfig::for_graph(N).with_max_rounds(MAX_ROUNDS)
}

/// The lane engines under test: the spec each runs, and the engine the
/// planner must pick for it.
fn lane_runs<'a>(
    fx: &'a Fixture,
    cfg: RunConfig,
    faults: Option<&'a FaultPlan>,
) -> Vec<(&'static str, RunSpec<'a>, PlannedEngine)> {
    let finish = |spec: RunSpec<'a>| {
        let spec = spec.with_config(cfg).with_master_seed(MASTER);
        match faults {
            Some(plan) => spec.with_faults(plan),
            None => spec,
        }
    };
    let on_graph = |lanes| finish(RunSpec::on_graph(&fx.graph, 0).with_lanes(lanes));
    let sweep = RunSpec::on_provider(&fx.imp, 1, 0).with_lanes(MAX_LANES);
    vec![
        ("batch", on_graph(MAX_LANES), PlannedEngine::Batch),
        (
            "tiled/1",
            on_graph(TILED_LANES).with_threads(1),
            PlannedEngine::Tiled,
        ),
        (
            "tiled/2",
            on_graph(TILED_LANES).with_threads(2),
            PlannedEngine::Tiled,
        ),
        ("lane-sweep", finish(sweep), PlannedEngine::LaneSweep),
    ]
}

/// Runs every overriding protocol on every lane engine under `cfg` and
/// `faults`, and asserts that each lane equals its scalar run, decisions
/// included.
fn assert_lanes_match_scalar(
    fx: &Fixture,
    condition: &str,
    cfg: RunConfig,
    faults: Option<&FaultPlan>,
) {
    for (name, make) in overriding_protocols(fx.p) {
        // The scalar run on every lane's stream, once for all engines.
        let scalar: Vec<(RunResult, Digest)> = (0..TILED_LANES as u64)
            .map(|l| {
                let mut probe = Probe::new(make());
                let mut spec = RunSpec::on_graph(&fx.graph, 0).with_config(cfg);
                if let Some(plan) = faults {
                    spec = spec.with_faults(plan);
                }
                let result = spec
                    .run_with_rng(&mut probe, &mut child_rng(MASTER, l))
                    .into_single();
                (normalized(result), probe.digest)
            })
            .collect();
        for (engine, spec, planned) in lane_runs(fx, cfg, faults) {
            let ctx = format!("{name} {condition} {engine}");
            let mut probe = Probe::new(make());
            let outcome = spec.run(&mut probe);
            assert_eq!(outcome.plan.engine, planned, "{ctx}: planned engine");
            let lanes = outcome.lanes.len();
            for (l, got) in outcome.lanes.into_iter().enumerate() {
                assert_eq!(normalized(got), scalar[l].0, "{ctx}: lane {l} diverged");
            }
            let want = scalar[..lanes]
                .iter()
                .fold(Digest::default(), |d, (_, lane)| d.merge(*lane));
            assert_eq!(probe.digest, want, "{ctx}: decision streams differ");
        }
    }
}

#[test]
fn overrides_match_scalar_plain() {
    assert_lanes_match_scalar(&Fixture::new(), "plain", base_config(), None);
}

#[test]
fn overrides_match_scalar_lossy() {
    let cfg = base_config().with_loss(0.2);
    assert_lanes_match_scalar(&Fixture::new(), "lossy", cfg, None);
}

#[test]
fn overrides_match_scalar_faulted() {
    let fx = Fixture::new();
    let cfg = base_config().with_loss(0.2);
    assert_lanes_match_scalar(&fx, "faulted", cfg, Some(&fx.plan));
}

/// `Named` and `Staged` forward `transmits_lanes`: wrapped protocols
/// decide through their own lane path on every lane engine, so no scalar
/// `transmits` call reaches them.  (The table above pins that
/// `Named("x", EG)` and `Staged(Flooding, 3, Decay)` lanes equal their
/// scalar runs on `Batch`, `Tiled` and `LaneSweep`.)
#[test]
fn combinators_keep_the_lane_fast_path() {
    let fx = Fixture::new();
    let calls = Rc::new(Cell::new(0u64));
    let counted = |inner| ScalarCalls {
        inner,
        calls: Rc::clone(&calls),
    };
    let p = fx.p;
    let named = Named::new(
        "x",
        counted(Box::new(EgDistributed::new(p)) as Box<dyn Protocol>),
    );
    let staged = Staged::new(
        counted(Box::new(Flooding) as Box<dyn Protocol>),
        3,
        counted(Box::new(Decay::new()) as Box<dyn Protocol>),
    );
    let mut wrapped: [(&str, Box<dyn Protocol>); 2] =
        [("named", Box::new(named)), ("staged", Box::new(staged))];
    for (name, protocol) in &mut wrapped {
        for (engine, spec, planned) in lane_runs(&fx, base_config(), None) {
            let outcome = spec.run(protocol.as_mut());
            assert_eq!(outcome.plan.engine, planned, "{name} {engine}");
            assert_eq!(calls.get(), 0, "{name} {engine}: fell back to scalar calls");
        }
    }
}
