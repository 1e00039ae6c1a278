//! # radio-broadcast
//!
//! Reproduction of the algorithms of R. Elsässer and L. Gąsieniec, *Radio
//! communication in random graphs* (SPAA 2005 / JCSS 72(2006) 490–506),
//! plus the baselines and adversaries needed to evaluate them.
//!
//! The paper studies broadcasting a message from one source to every node of
//! an Erdős–Rényi random graph `G(n, p)` under radio semantics (a node
//! receives only when *exactly one* neighbor transmits).  Its results, and
//! where they live here:
//!
//! | Result | Claim | Module |
//! |--------|-------|--------|
//! | Theorem 5 | Centralized broadcast in `O(ln n/ln d + ln d)` | [`centralized::builder`] |
//! | Theorem 6 | Matching centralized lower bound | [`lower_bound::normal_form`] |
//! | Theorem 7 | Distributed broadcast in `O(ln n)` | [`distributed::eg`] |
//! | Theorem 8 | Matching distributed lower bound | [`lower_bound::oblivious`] |
//!
//! Baselines: BGI Decay, flooding, constant-probability, round-robin,
//! strongly-selective-family deterministic broadcast ([`distributed`]), and
//! push rumor spreading in the single-port model
//! ([`distributed::gossip`]).  [`theory`] holds the closed-form predictions
//! the experiments fit against.
//!
//! ## Quickstart
//!
//! ```
//! use radio_broadcast::prelude::*;
//!
//! // A random radio network: n = 2000 nodes, expected degree 25.
//! let n = 2000;
//! let p = 25.0 / n as f64;
//! let mut rng = Xoshiro256pp::new(7);
//! let g = sample_gnp(n, p, &mut rng);
//!
//! // Distributed: the O(ln n) protocol of Theorem 7.
//! let mut protocol = EgDistributed::new(p);
//! let run = RunSpec::on_graph(&g, 0)
//!     .with_config(RunConfig::for_graph(n))
//!     .run_with_rng(&mut protocol, &mut rng)
//!     .into_single();
//! assert!(run.completed);
//!
//! // Centralized: the O(ln n/ln d + ln d) schedule of Theorem 5.
//! let built = build_eg_schedule(&g, 0, CentralizedParams::default(), &mut rng);
//! assert!(built.completed);
//! assert!(built.len() as u32 <= run.rounds); // topology knowledge helps
//! ```

#![warn(missing_docs)]

pub mod centralized;
pub mod distributed;
pub mod gossiping;
pub mod lower_bound;
pub mod theory;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::centralized::{
        build_eg_schedule, exact_optimal_rounds, greedy_cover_schedule, tree_broadcast_schedule,
        verify_schedule, BuiltSchedule, CentralizedParams, Phase, ScheduleViolation,
        VerifiedSchedule,
    };
    pub use crate::distributed::{
        run_push_gossip, run_push_pull_gossip, ConstantProb, Decay, EgDistributed, EgUnknownDegree,
        EgVariant, Flooding, Restartable, RoundRobin, SelectiveBroadcast, SelectiveFamily,
    };
    pub use crate::gossiping::{run_radio_gossiping, GossipResult, GossipState};
    pub use crate::lower_bound::{eg_profile, ProbabilityProfile};
    pub use crate::theory;
    pub use radio_graph::gnp::{gnp_with_average_degree, sample_gnp};
    pub use radio_graph::{Graph, NodeId, Xoshiro256pp};
    pub use radio_sim::{
        run_schedule, RunConfig, RunResult, RunSpec, Schedule, TraceLevel, TransmitterPolicy,
    };
}
