//! # radio-sim
//!
//! Synchronous radio-network simulator for the `radio-rs` workspace.
//!
//! Implements the communication model of Elsässer & Gąsieniec, *Radio
//! communication in random graphs* (§1.1): rounds are synchronous; each node
//! either transmits or listens; a listener receives iff **exactly one**
//! neighbor transmits.  On top of the round engine sit the two execution
//! styles the paper studies:
//!
//! * **Centralized** — a precomputed [`Schedule`] replayed by
//!   [`run_schedule`];
//! * **Distributed** — a [`Protocol`] implementation (which can see only
//!   per-node local state, never the topology) executed through the
//!   [`exec`] planner: describe the run with a [`RunSpec`] (graph source,
//!   lanes, kernel preference, faults, loss, master seed) and the planner
//!   picks the engine deterministically.
//!
//! [`run_trials`] fans independent Monte-Carlo trials over a scoped thread pool with
//! deterministic per-trial seeds (worker count overridable via the
//! `RADIO_THREADS` environment variable), and a multi-lane [`RunSpec`]
//! packs up to 64 trials of the same graph into `u64` bit lanes resolved
//! in a single adjacency sweep per round (see [`batch`]; up to 1024 lanes
//! on the [`tiled`] kernel) — composing the two gives threads×64 effective
//! trial parallelism.
//!
//! Rounds execute through one of two interchangeable kernels — the
//! CSR-walking sparse kernel or the bit-parallel dense kernel — selected by
//! [`EngineKernel`] (default `Auto`; see [`kernel`] and `docs/PERF.md`).
//! Kernel choice never changes results: traces replay byte-identically.
//!
//! Beyond explicit CSR graphs, [`RunSpec::on_provider`] executes any
//! [`radio_graph::GraphProvider`] backend — in particular the seed-only
//! implicit `G(n, p)` backend for `n = 10⁷`-scale runs and the sharded
//! row-range sweep, both lane-batchable up to 64 trials per regenerated
//! edge stream — with the same bit-identity guarantee (see [`sweep`]
//! and `docs/ARCHITECTURE.md`).
//!
//! ## Telemetry
//!
//! Both execution styles have observed variants ([`run_schedule_observed`],
//! [`RunSpec::run_observed`]) that stream per-round [`RoundEvent`]s into a
//! [`RunObserver`].  The default [`NoopObserver`] is zero-cost (empty,
//! monomorphized hooks); [`CollectingObserver`] captures the full event
//! stream, optionally with per-round wall-clock.  The [`report`] module
//! serializes runs as versioned JSON via the dependency-free [`json`]
//! writer/parser — see `docs/OBSERVABILITY.md` for the schemas.
//!
//! ## Example
//!
//! ```
//! use radio_graph::{Graph, Xoshiro256pp, NodeId};
//! use radio_sim::{LocalNode, Protocol, RunConfig, RunSpec};
//!
//! /// Transmit with probability 1/2 every round.
//! struct HalfCoin;
//! impl Protocol for HalfCoin {
//!     fn name(&self) -> String { "half-coin".into() }
//!     fn transmits(&mut self, _n: LocalNode, rng: &mut Xoshiro256pp) -> bool {
//!         rng.coin(0.5)
//!     }
//! }
//!
//! let g = Graph::path(8);
//! let result = RunSpec::on_graph(&g, 0)
//!     .with_master_seed(1)
//!     .run(&mut HalfCoin)
//!     .into_single();
//! assert!(result.completed);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod bitset;
pub mod combinators;
mod driver;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod observer;
pub mod protocol;
pub mod reference;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod schedule_io;
pub mod state;
pub mod sweep;
pub mod tiled;
pub mod trace;
pub mod wide;

pub use batch::MAX_LANES;
pub use combinators::{Named, Staged};
pub use engine::{RoundEngine, RoundOutcome, TransmitterPolicy};
pub use exec::{GraphSource, Plan, PlannedEngine, RunOutcome, RunSpec};
pub use fault::{
    BurstParams, FaultConfig, FaultEvent, FaultEventKind, FaultPlan, FaultPlanError, FaultSession,
    FaultSummary, LiveView, Placement,
};
pub use json::Json;
pub use kernel::{EngineKernel, KernelUsed};
pub use metrics::RunMetrics;
pub use observer::{CollectingObserver, NoopObserver, RoundEvent, RunObserver};
pub use protocol::{LocalNode, Protocol, RunConfig};
pub use report::RunReport;
pub use runner::{parse_radio_threads, run_trials, run_trials_serial, thread_budget};
pub use schedule::{run_schedule, run_schedule_observed, Schedule};
pub use schedule_io::{load_schedule, save_schedule};
pub use state::BroadcastState;
pub use sweep::{resolve_backend, Backend};
pub use tiled::MAX_TILED_LANES;
pub use trace::{RoundRecord, RunResult, TraceLevel};
