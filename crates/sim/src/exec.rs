//! The execution planner: one front door for every way to run a protocol.
//!
//! [`RunSpec`] is a builder: describe the run (graph source, start state,
//! lanes, kernel preference, faults, loss, master seed, worker threads),
//! let the planner pick the engine, and execute.
//!
//! ```
//! use radio_graph::{Graph, Xoshiro256pp, NodeId};
//! use radio_sim::exec::RunSpec;
//! use radio_sim::{LocalNode, Protocol, RunConfig};
//!
//! struct HalfCoin;
//! impl Protocol for HalfCoin {
//!     fn name(&self) -> String { "half-coin".into() }
//!     fn transmits(&mut self, _n: LocalNode, rng: &mut Xoshiro256pp) -> bool {
//!         rng.coin(0.5)
//!     }
//! }
//!
//! let g = Graph::path(8);
//! let outcome = RunSpec::on_graph(&g, 0)
//!     .with_master_seed(1)
//!     .run(&mut HalfCoin);
//! assert_eq!(outcome.lanes.len(), 1);
//! assert!(outcome.lanes[0].completed);
//! ```
//!
//! ## The planner is a pure function
//!
//! [`RunSpec::plan`] depends **only** on the spec's own fields — node
//! count, lane count, kernel preference, backend shape, shard count —
//! never on the environment or the hardware.  (`RADIO_THREADS` affects
//! the *worker count* of the engines that parallelize, at execution
//! time, but never the engine decision or any result bit.)  Calling
//! `plan()` twice on the same spec returns the same [`Plan`]; the
//! `exec` test suite pins this property over a grid of specs.
//!
//! ## Engine decision
//!
//! | graph source | lanes | planned engine |
//! |---|---|---|
//! | explicit CSR (or provider with explicit adjacency, ≤ 1 shard) | 1 | [`PlannedEngine::Round`] with the spec's [`EngineKernel`] |
//! | explicit CSR | 2..=64, small jobs | [`PlannedEngine::Batch`] |
//! | explicit CSR | forced [`EngineKernel::Tiled`], > 64 lanes, or past the [`tiled_is_cheaper`] break-even | [`PlannedEngine::Tiled`] |
//! | provider (implicit, or explicit with > 1 shard) | 1 | [`PlannedEngine::Sweep`] |
//! | provider (implicit, or explicit with > 1 shard) | 2..=64 | [`PlannedEngine::LaneSweep`] |
//!
//! Provider backends cap lanes at [`MAX_LANES`]: the lane planes are
//! `u64` words regenerated per edge stream, so wider batches would need
//! a second plane word per node — the tiled kernel's job, which needs
//! stored adjacency.
//!
//! Every plan accepts and rejects the same specs: `plan()` checks the
//! loss probability and the start state once, whichever engine it picks.
//!
//! ## Two protocol loops
//!
//! The `Round` and `Sweep` engines execute under one scalar protocol
//! loop, and `Batch` and `LaneSweep` under one single-word lane loop
//! (both in the crate-private `driver` module); `Tiled` keeps its
//! multi-word parallel loop.
//!
//! ## Determinism contract
//!
//! Lane `l` of any multi-lane engine is **bit-identical** to the scalar
//! round engine run on `child_rng(master_seed, l)`; [`RunSpec::run`]
//! seeds scalar plans with `child_rng(master_seed, 0)` so the same spec
//! produces the same lane-0 result whichever engine the planner picks.
//! Kernel choice, shard count, and thread count never change results —
//! only the informational `kernel`/`threads` fields of [`RunResult`],
//! where `threads` is the tiled merge's or the sweep fill's worker count.

use radio_graph::{child_rng, Graph, GraphProvider, NodeId, Xoshiro256pp};

use crate::batch::{CsrLanes, MAX_LANES};
use crate::driver::{run_lanes, run_scalar};
use crate::engine::RoundEngine;
use crate::fault::FaultPlan;
use crate::kernel::{tiled_is_cheaper, EngineKernel};
use crate::observer::{NoopObserver, RunObserver};
use crate::protocol::{Protocol, RunConfig};
use crate::state::BroadcastState;
use crate::sweep::{Backend, SweepEngine, SweepLanes};
use crate::tiled::{run_tiled, MAX_TILED_LANES};
use crate::trace::RunResult;

/// Where a run's edges come from.
pub enum GraphSource<'a> {
    /// Explicit CSR adjacency, owned by the caller.
    Csr(&'a Graph),
    /// Any [`GraphProvider`] backend, run on the provider sweeps.
    Provider {
        /// The backend supplying forward edges.
        provider: &'a dyn GraphProvider,
        /// Shard count (≥ 1): only routes (see [`RunSpec::on_provider`]).
        shards: usize,
    },
}

/// Initial knowledge state of the broadcast.
enum StartState {
    /// One source node, informed at round 0.
    Source(NodeId),
    /// Several sources, all informed at round 0.
    Sources(Vec<NodeId>),
}

/// The engine the planner selected (see the [module docs](crate::exec)
/// for the decision table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedEngine {
    /// Scalar [`RoundEngine`] with the given kernel preference.
    Round(EngineKernel),
    /// Lane-batched explicit kernel, up to 64 trials per sweep
    /// ([`crate::batch`]).
    Batch,
    /// Tiled SIMD + multithreaded kernel, up to 1024 trials per sweep
    /// ([`crate::tiled`]).
    Tiled,
    /// Scalar provider-driven edge sweep ([`crate::sweep`]).
    Sweep,
    /// Lane-batched provider sweep: up to 64 trials per regenerated edge
    /// stream ([`crate::sweep`]).
    LaneSweep,
}

impl PlannedEngine {
    /// Lower-case engine name for reports and trace notes.
    pub fn as_str(self) -> &'static str {
        match self {
            PlannedEngine::Round(_) => "round",
            PlannedEngine::Batch => "batch",
            PlannedEngine::Tiled => "tiled",
            PlannedEngine::Sweep => "sweep",
            PlannedEngine::LaneSweep => "lane-sweep",
        }
    }
}

/// The planner's decision for one [`RunSpec`]: recorded in
/// [`RunOutcome::plan`] and (via
/// [`RunReport::with_plan`](crate::report::RunReport::with_plan)) in run
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Which backend family executes the run (`explicit`, `implicit`, or
    /// `sharded`; never `auto` — resolve with
    /// [`resolve_backend`](crate::sweep::resolve_backend) first).
    pub backend: Backend,
    /// The selected engine.
    pub engine: PlannedEngine,
    /// Trial lanes the run executes.
    pub lanes: usize,
    /// The spec's shard count (provider engines; 1 for explicit engines),
    /// recorded only: it sets no thread count.
    pub shards: usize,
    /// Explicit worker-thread override for the tiled merge and the sweep
    /// fills, if any (`None` = [`thread_budget`](crate::runner::thread_budget)
    /// at execution time — which never changes results).
    pub threads: Option<usize>,
}

impl Plan {
    /// One-line human-readable description, e.g.
    /// `"implicit/lane-sweep ×64 lanes, 4 shards"`.
    pub fn describe(&self) -> String {
        let mut s = format!("{}/{}", self.backend.as_str(), self.engine.as_str());
        if self.lanes > 1 {
            s.push_str(&format!(" x{} lanes", self.lanes));
        }
        if self.shards > 1 {
            s.push_str(&format!(", {} shards", self.shards));
        }
        s
    }
}

/// The result of executing a [`RunSpec`]: one [`RunResult`] per lane
/// (index = lane = RNG stream index) plus the [`Plan`] that produced
/// them.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-lane results; `lanes.len() == plan.lanes`.
    pub lanes: Vec<RunResult>,
    /// The planner decision that executed.
    pub plan: Plan,
}

impl RunOutcome {
    /// Consumes a single-lane outcome.
    ///
    /// # Panics
    ///
    /// If the outcome has more than one lane.
    pub fn into_single(self) -> RunResult {
        assert_eq!(
            self.lanes.len(),
            1,
            "into_single on a {}-lane outcome",
            self.lanes.len()
        );
        self.lanes.into_iter().next().unwrap()
    }

    /// Borrows the single lane of a scalar outcome.
    ///
    /// # Panics
    ///
    /// If the outcome has more than one lane.
    pub fn single(&self) -> &RunResult {
        assert_eq!(self.lanes.len(), 1);
        &self.lanes[0]
    }
}

/// Builder describing one protocol execution; see the [module
/// docs](crate::exec).
///
/// Construct with [`RunSpec::on_graph`] or [`RunSpec::on_provider`],
/// refine with the `with_*` methods, then call [`RunSpec::plan`] to
/// inspect the decision or one of the `run*` methods to execute.
pub struct RunSpec<'a> {
    graph: GraphSource<'a>,
    start: StartState,
    pub(crate) config: RunConfig,
    lanes: usize,
    pub(crate) fault_plan: Option<&'a FaultPlan>,
    pub(crate) master_seed: u64,
    threads: Option<usize>,
}

impl<'a> RunSpec<'a> {
    /// A run on an explicit CSR graph from a single source.
    pub fn on_graph(graph: &'a Graph, source: NodeId) -> RunSpec<'a> {
        let n = graph.n();
        RunSpec {
            graph: GraphSource::Csr(graph),
            start: StartState::Source(source),
            config: RunConfig::for_graph(n),
            lanes: 1,
            fault_plan: None,
            master_seed: 0,
            threads: None,
        }
    }

    /// A run on any [`GraphProvider`] backend.
    ///
    /// `shards` (clamped to ≥ 1) only routes a provider with explicit
    /// adjacency ([`GraphProvider::as_explicit`]): to the explicit engines
    /// at one shard, to the sharded sweep above — bit-identical either
    /// way.  It is recorded in [`Plan::shards`] and sets no thread count:
    /// the sweep fills on [`RunSpec::with_threads`] workers.
    pub fn on_provider(
        provider: &'a dyn GraphProvider,
        shards: usize,
        source: NodeId,
    ) -> RunSpec<'a> {
        let n = provider.n();
        RunSpec {
            graph: GraphSource::Provider {
                provider,
                shards: shards.max(1),
            },
            start: StartState::Source(source),
            config: RunConfig::for_graph(n),
            lanes: 1,
            fault_plan: None,
            master_seed: 0,
            threads: None,
        }
    }

    /// Overrides the run configuration (round budget, trace level, loss
    /// probability, kernel preference).
    pub fn with_config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the trial-lane count (default 1).
    ///
    /// Explicit CSR sources batch up to [`MAX_TILED_LANES`] lanes (the
    /// planner widens to the tiled engine past [`MAX_LANES`]); provider
    /// backends cap at [`MAX_LANES`].
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Runs every lane under the fault plan `plan`.
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the master seed: lane `l` executes on the RNG stream
    /// `child_rng(master_seed, l)` (default 0).  Ignored by the
    /// `*_with_rng` entry points, which consume a caller-owned stream.
    pub fn with_master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Explicit intra-round worker count for the tiled merge and the sweep
    /// fills (clamped to their row blocks), bypassing
    /// [`thread_budget`](crate::runner::thread_budget).  Never affects
    /// results.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = Some(threads);
        self
    }

    /// Multi-source start: every node of `sources` is informed at round
    /// 0.  Requires an unfaulted scalar explicit plan (see
    /// [`RunSpec::plan`]).
    pub fn with_sources(mut self, sources: &[NodeId]) -> Self {
        self.start = StartState::Sources(sources.to_vec());
        self
    }

    /// Node count of the graph source.
    pub fn n(&self) -> usize {
        self.provider().n()
    }

    /// The planner: a **pure function** of this spec (see the [module
    /// docs](crate::exec) for the decision table).
    ///
    /// # Panics
    ///
    /// If `lanes` is 0 or exceeds the engine family's cap
    /// ([`MAX_TILED_LANES`] explicit, [`MAX_LANES`] provider), if the
    /// loss probability is outside `[0, 1]` (NaN included), or if a
    /// multi-source start ([`RunSpec::with_sources`]) would run on
    /// anything but the unfaulted scalar round engine — several lanes, an
    /// implicit or sharded provider, or faults.
    pub fn plan(&self) -> Plan {
        let lanes = self.lanes;
        assert!(lanes >= 1, "lanes must be >= 1, got {lanes}");
        let loss = self.config.loss_prob;
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss_prob must be within [0, 1], got {loss}"
        );
        let explicit_plan = |n: usize| -> Plan {
            assert!(
                lanes <= MAX_TILED_LANES,
                "explicit engines support at most {MAX_TILED_LANES} lanes, got {lanes}"
            );
            let engine = if lanes == 1 {
                PlannedEngine::Round(self.config.kernel)
            } else if self.config.kernel == EngineKernel::Tiled
                || lanes > MAX_LANES
                || tiled_is_cheaper(n, lanes)
            {
                // Cost-model dispatch: under the break-even the tiled
                // sweep's per-round fixed costs (compact-table build +
                // full row scan) beat its bandwidth advantage, so
                // batch-sized jobs run on the batch kernel unless the
                // caller forces Tiled.
                PlannedEngine::Tiled
            } else {
                PlannedEngine::Batch
            };
            Plan {
                backend: Backend::Explicit,
                engine,
                lanes,
                shards: 1,
                threads: self.threads,
            }
        };
        let plan = match &self.graph {
            GraphSource::Csr(g) => explicit_plan(g.n()),
            GraphSource::Provider { provider, shards } => {
                let explicit = provider.as_explicit().is_some();
                if *shards <= 1 && explicit {
                    // Single-shard explicit providers take the classic
                    // engines (the historical fast path).
                    explicit_plan(provider.n())
                } else {
                    assert!(
                        lanes <= MAX_LANES,
                        "provider backends support at most {MAX_LANES} lanes, got {lanes}"
                    );
                    let engine = if lanes == 1 {
                        PlannedEngine::Sweep
                    } else {
                        PlannedEngine::LaneSweep
                    };
                    Plan {
                        backend: if explicit {
                            Backend::Sharded
                        } else {
                            Backend::Implicit
                        },
                        engine,
                        lanes,
                        shards: (*shards).max(1),
                        threads: self.threads,
                    }
                }
            }
        };
        if let StartState::Sources(_) = self.start {
            assert!(
                matches!(plan.engine, PlannedEngine::Round(_)) && self.fault_plan.is_none(),
                "a multi-source start runs only on the unfaulted scalar round engine \
                 (planned {}, faults: {})",
                plan.describe(),
                self.fault_plan.is_some()
            );
        }
        plan
    }

    /// Executes the planned run, seeding lane `l` with
    /// `child_rng(master_seed, l)`.  Scalar plans run as lane 0.
    pub fn run<P: Protocol + ?Sized>(&self, protocol: &mut P) -> RunOutcome {
        let plan = self.plan();
        let lanes = match plan.engine {
            PlannedEngine::Round(_) | PlannedEngine::Sweep => {
                let mut rng = child_rng(self.master_seed, 0);
                vec![self.exec_scalar(&plan, protocol, &mut rng, &mut NoopObserver)]
            }
            PlannedEngine::Batch => run_lanes(
                self,
                CsrLanes::new(self.explicit_graph()),
                protocol,
                plan.lanes,
            ),
            PlannedEngine::LaneSweep => {
                let merge = SweepLanes::new(self.provider(), self.threads);
                run_lanes(self, merge, protocol, plan.lanes)
            }
            PlannedEngine::Tiled => run_tiled(self, protocol, plan.lanes, self.threads),
        };
        debug_assert_eq!(lanes.len(), plan.lanes);
        RunOutcome { lanes, plan }
    }

    /// Executes a **scalar** plan on a caller-owned RNG stream,
    /// continuing it mid-stream.
    ///
    /// # Panics
    ///
    /// If the plan is multi-lane (`lanes > 1`) — lane batching needs a
    /// master seed, not a shared stream.
    pub fn run_with_rng<P: Protocol + ?Sized>(
        &self,
        protocol: &mut P,
        rng: &mut Xoshiro256pp,
    ) -> RunOutcome {
        self.run_observed(protocol, rng, &mut NoopObserver)
    }

    /// [`RunSpec::run_with_rng`] with per-round telemetry (and fault
    /// events) streamed into `observer`.
    ///
    /// # Panics
    ///
    /// If the plan is multi-lane: the lane engines have no observer
    /// hooks.
    pub fn run_observed<P: Protocol + ?Sized, O: RunObserver>(
        &self,
        protocol: &mut P,
        rng: &mut Xoshiro256pp,
        observer: &mut O,
    ) -> RunOutcome {
        let plan = self.plan();
        let result = self.exec_scalar(&plan, protocol, rng, observer);
        RunOutcome {
            lanes: vec![result],
            plan,
        }
    }

    fn exec_scalar<P: Protocol + ?Sized, O: RunObserver>(
        &self,
        plan: &Plan,
        protocol: &mut P,
        rng: &mut Xoshiro256pp,
        observer: &mut O,
    ) -> RunResult {
        match plan.engine {
            PlannedEngine::Round(kernel) => {
                let engine = RoundEngine::new(self.explicit_graph()).with_kernel(kernel);
                run_scalar(self, engine, protocol, rng, observer)
            }
            PlannedEngine::Sweep => {
                let engine = SweepEngine::new(self.provider(), self.threads);
                run_scalar(self, engine, protocol, rng, observer)
            }
            other => panic!("a scalar run needs lanes = 1, planner chose {other:?}"),
        }
    }

    /// The graph source as a provider (explicit CSR graphs are providers
    /// too).
    pub(crate) fn provider(&self) -> &'a dyn GraphProvider {
        match &self.graph {
            GraphSource::Csr(g) => *g,
            GraphSource::Provider { provider, .. } => *provider,
        }
    }

    /// The explicit adjacency an explicit-engine plan runs on.
    pub(crate) fn explicit_graph(&self) -> &'a Graph {
        self.provider()
            .as_explicit()
            .expect("planned an explicit engine on a non-explicit provider")
    }

    /// The start state of a scalar run on `n` nodes.
    pub(crate) fn start_state(&self, n: usize) -> BroadcastState {
        match &self.start {
            StartState::Source(s) => BroadcastState::new(n, *s),
            StartState::Sources(v) => BroadcastState::with_sources(n, v),
        }
    }

    /// The source of a single-source run; [`RunSpec::plan`] keeps
    /// multi-source starts off every lane engine.
    pub(crate) fn single_source(&self) -> NodeId {
        match self.start {
            StartState::Source(s) => s,
            StartState::Sources(_) => unreachable!("multi-source start on a lane engine"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelUsed;
    use crate::observer::{CollectingObserver, RoundEvent};
    use crate::protocol::LocalNode;
    use radio_graph::ImplicitGnp;
    use std::panic::AssertUnwindSafe;

    struct HalfCoin;
    impl Protocol for HalfCoin {
        fn name(&self) -> String {
            "half".into()
        }
        fn transmits(&mut self, _node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
            rng.coin(0.5)
        }
    }

    /// The planner decision table, pinned point by point.
    #[test]
    fn planner_decision_table() {
        let g = ImplicitGnp::new(512, 0.03, 1).materialize();
        // Scalar explicit → round engine with the requested kernel.
        for kernel in [
            EngineKernel::Auto,
            EngineKernel::Sparse,
            EngineKernel::Dense,
        ] {
            let spec =
                RunSpec::on_graph(&g, 0).with_config(RunConfig::for_graph(512).with_kernel(kernel));
            assert_eq!(spec.plan().engine, PlannedEngine::Round(kernel));
            assert_eq!(spec.plan().backend, Backend::Explicit);
        }
        // Small multi-lane explicit → batch.
        let spec = RunSpec::on_graph(&g, 0).with_lanes(16);
        assert_eq!(spec.plan().engine, PlannedEngine::Batch);
        // Forced tiled kernel → tiled, even for batch-sized jobs.
        let spec = RunSpec::on_graph(&g, 0)
            .with_lanes(16)
            .with_config(RunConfig::for_graph(512).with_kernel(EngineKernel::Tiled));
        assert_eq!(spec.plan().engine, PlannedEngine::Tiled);
        // More than 64 lanes → tiled.
        let spec = RunSpec::on_graph(&g, 0).with_lanes(65);
        assert_eq!(spec.plan().engine, PlannedEngine::Tiled);
        // Past the break-even (rows × lanes ≥ 2^19) → tiled.
        let big = Graph::empty(1 << 14);
        let spec = RunSpec::on_graph(&big, 0).with_lanes(MAX_LANES);
        assert!(tiled_is_cheaper(big.n(), MAX_LANES));
        assert_eq!(spec.plan().engine, PlannedEngine::Tiled);
        // Implicit provider → sweep engines, lane-batched past one lane.
        let imp = ImplicitGnp::new(512, 0.03, 1);
        let spec = RunSpec::on_provider(&imp, 1, 0);
        let plan = spec.plan();
        assert_eq!(plan.engine, PlannedEngine::Sweep);
        assert_eq!(plan.backend, Backend::Implicit);
        let spec = RunSpec::on_provider(&imp, 4, 0).with_lanes(64);
        let plan = spec.plan();
        assert_eq!(plan.engine, PlannedEngine::LaneSweep);
        assert_eq!((plan.backend, plan.shards), (Backend::Implicit, 4));
        // Explicit adjacency behind the provider interface: one shard →
        // classic engines; more shards → sharded sweep.
        let spec = RunSpec::on_provider(&g, 1, 0);
        assert_eq!(spec.plan().engine, PlannedEngine::Round(EngineKernel::Auto));
        let spec = RunSpec::on_provider(&g, 4, 0);
        let plan = spec.plan();
        assert_eq!(plan.engine, PlannedEngine::Sweep);
        assert_eq!(plan.backend, Backend::Sharded);
    }

    /// The kernel decision is a pure function of the spec: re-planning
    /// any spec in a grid of shapes returns the identical plan, and the
    /// plan never smuggles in environment state (threads stays exactly
    /// what the spec set — `None` unless overridden).
    #[test]
    fn planner_is_pure() {
        let g = ImplicitGnp::new(4096, 0.004, 2).materialize();
        let imp = ImplicitGnp::new(4096, 0.004, 2);
        for lanes in [1usize, 2, 7, 63, 64, 65, 128, 1024] {
            for kernel in [
                EngineKernel::Auto,
                EngineKernel::Sparse,
                EngineKernel::Dense,
                EngineKernel::Tiled,
            ] {
                let cfg = RunConfig::for_graph(4096).with_kernel(kernel);
                let spec = RunSpec::on_graph(&g, 0).with_config(cfg).with_lanes(lanes);
                let first = spec.plan();
                for _ in 0..3 {
                    assert_eq!(first, spec.plan(), "lanes={lanes} kernel={kernel:?}");
                }
                assert_eq!(first.threads, None, "no env/hardware leakage");
                // The decision depends only on (n, lanes, kernel): an
                // identical spec built from scratch plans identically.
                let rebuilt = RunSpec::on_graph(&g, 3)
                    .with_config(cfg)
                    .with_lanes(lanes)
                    .with_master_seed(999);
                assert_eq!(first.engine, rebuilt.plan().engine);
                if lanes <= MAX_LANES && kernel != EngineKernel::Tiled {
                    for shards in [1usize, 2, 8] {
                        let pspec = RunSpec::on_provider(&imp, shards, 0)
                            .with_config(RunConfig::for_graph(4096))
                            .with_lanes(lanes);
                        let pplan = pspec.plan();
                        assert_eq!(pplan, pspec.plan());
                        assert_eq!(
                            pplan.engine,
                            if lanes == 1 {
                                PlannedEngine::Sweep
                            } else {
                                PlannedEngine::LaneSweep
                            }
                        );
                        assert_eq!(pplan.shards, shards.max(1));
                    }
                }
            }
        }
        // An explicit thread override is carried through verbatim.
        let spec = RunSpec::on_graph(&g, 0).with_lanes(128).with_threads(3);
        assert_eq!(spec.plan().threads, Some(3));
    }

    /// `run()` on a scalar plan equals the round engine on
    /// `child_rng(master, 0)` — the same lane-0 contract as the batch
    /// engines.
    #[test]
    fn scalar_run_is_lane_zero() {
        let g = ImplicitGnp::new(300, 0.03, 5).materialize();
        let cfg = RunConfig::for_graph(300);
        let outcome = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .with_master_seed(42)
            .run(&mut HalfCoin);
        assert_eq!(
            outcome.plan.engine,
            PlannedEngine::Round(EngineKernel::Auto)
        );
        let mut rng = child_rng(42, 0);
        let want = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut HalfCoin, &mut rng);
        assert_eq!(outcome.into_single(), want.into_single());
    }

    /// The batch plan's lanes each match the scalar engine on their
    /// child stream.
    #[test]
    fn batch_plan_lanes_match_scalar() {
        let g = ImplicitGnp::new(200, 0.04, 9).materialize();
        let cfg = RunConfig::for_graph(200).with_max_rounds(60);
        let outcome = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .with_lanes(8)
            .with_master_seed(7)
            .run(&mut HalfCoin);
        assert_eq!(outcome.plan.engine, PlannedEngine::Batch);
        assert_eq!(outcome.lanes.len(), 8);
        for (l, got) in outcome.lanes.iter().enumerate() {
            let mut rng = child_rng(7, l as u64);
            let mut want = RunSpec::on_graph(&g, 0)
                .with_config(cfg)
                .run_with_rng(&mut HalfCoin, &mut rng)
                .into_single();
            want.kernel = KernelUsed::Batch;
            assert_eq!(*got, want, "lane {l}");
        }
    }

    #[test]
    fn describe_is_compact() {
        let imp = ImplicitGnp::new(100, 0.1, 1);
        let plan = RunSpec::on_provider(&imp, 4, 0).with_lanes(64).plan();
        assert_eq!(plan.describe(), "implicit/lane-sweep x64 lanes, 4 shards");
        let g = Graph::path(8);
        assert_eq!(RunSpec::on_graph(&g, 0).plan().describe(), "explicit/round");
    }

    #[test]
    #[should_panic]
    fn provider_lane_cap_enforced() {
        let imp = ImplicitGnp::new(100, 0.1, 1);
        let _ = RunSpec::on_provider(&imp, 1, 0).with_lanes(65).plan();
    }

    #[test]
    #[should_panic]
    fn zero_lanes_rejected() {
        let g = Graph::path(3);
        let _ = RunSpec::on_graph(&g, 0).with_lanes(0).plan();
    }

    /// Every plan rejects the same out-of-range loss values, however
    /// `loss_prob` was set: lanes 1 and 8 × explicit and implicit sources.
    #[test]
    fn every_plan_rejects_bad_loss() {
        let imp = ImplicitGnp::new(64, 0.1, 3);
        let g = imp.materialize();
        for bad in [1.5, f64::NAN, -0.1] {
            let mut cfg = RunConfig::for_graph(64);
            cfg.loss_prob = bad;
            for lanes in [1, 8] {
                for spec in [RunSpec::on_graph(&g, 0), RunSpec::on_provider(&imp, 1, 0)] {
                    let spec = spec.with_config(cfg).with_lanes(lanes);
                    let err =
                        std::panic::catch_unwind(AssertUnwindSafe(|| spec.run(&mut HalfCoin)))
                            .expect_err("bad loss must be rejected");
                    let msg = err.downcast_ref::<String>().expect("formatted panic");
                    assert!(
                        msg.contains("loss_prob"),
                        "loss {bad}, lanes {lanes}: {msg}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multi-source")]
    fn multi_source_rejects_lanes() {
        let g = Graph::path(4);
        let _ = RunSpec::on_graph(&g, 0)
            .with_sources(&[0, 3])
            .with_lanes(2)
            .plan();
    }

    #[test]
    #[should_panic(expected = "multi-source")]
    fn multi_source_rejects_provider_sweeps() {
        let imp = ImplicitGnp::new(16, 0.3, 1);
        let _ = RunSpec::on_provider(&imp, 1, 0)
            .with_sources(&[0, 3])
            .plan();
    }

    #[test]
    #[should_panic(expected = "multi-source")]
    fn multi_source_rejects_faults() {
        let g = Graph::path(4);
        let plan = FaultPlan::new(4);
        let _ = RunSpec::on_graph(&g, 0)
            .with_sources(&[0, 3])
            .with_faults(&plan)
            .plan();
    }

    /// An observed provider run is the unobserved one: same result, same
    /// residual RNG, and its events replay the per-round trace.
    #[test]
    fn observed_provider_runs_match_unobserved() {
        let imp = ImplicitGnp::new(300, 0.03, 4);
        let mut plan = FaultPlan::new(300);
        plan.crash(5, 3).jam(9, 2, 6).set_burst(0.2, 0.3);
        let cfg = RunConfig::for_graph(300).with_loss(0.1);
        for faults in [None, Some(&plan)] {
            let mut spec = RunSpec::on_provider(&imp, 2, 0).with_config(cfg);
            if let Some(p) = faults {
                spec = spec.with_faults(p);
            }
            assert_eq!(spec.plan().engine, PlannedEngine::Sweep);
            let (mut rng_a, mut rng_b) = (Xoshiro256pp::new(8), Xoshiro256pp::new(8));
            let want = spec.run_with_rng(&mut HalfCoin, &mut rng_a).into_single();
            let mut obs = CollectingObserver::with_timing();
            let got = spec.run_observed(&mut HalfCoin, &mut rng_b, &mut obs);
            assert_eq!(got.into_single(), want);
            assert_eq!(rng_a.next(), rng_b.next());
            let events: Vec<RoundEvent> = (obs.events.iter())
                .map(|e| RoundEvent {
                    elapsed_ns: 0,
                    ..*e
                })
                .collect();
            let trace: Vec<RoundEvent> = want.trace.iter().map(|r| r.to_event()).collect();
            assert_eq!(events, trace);
            assert_eq!(obs.fault_events, want.fault_events);
        }
    }
}
