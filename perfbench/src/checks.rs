//! Output checks and the simulated metrics derived from checked outputs.
//!
//! Checks run inside every benchmark run and count toward `failed`:
//!
//! * a sampled lane of every unit is re-run on the scalar round engine
//!   over `child_rng(master, lane)` (on `materialize()` for implicit
//!   graphs) and must match bit for bit apart from `kernel`/`threads`;
//! * fault-free lanes must complete;
//! * fault summaries must satisfy `live + crashed + asleep == n` and
//!   `residual_uninformed <= live_reachable`;
//! * node trials must all converge with coverage 1.0;
//! * traced and untraced runs of the same inputs must return identical
//!   results and plans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use radio_node::NodeReport;
use radio_sim::{Plan, RunResult};

use crate::workloads::normalized;

/// At most this many failure messages are kept (all are counted).
const MAX_MESSAGES: usize = 20;

/// Set by `--corrupt` (self-tests only): every checked output is treated
/// as wrong, so the failure path can be exercised end to end.
pub static CORRUPT: AtomicBool = AtomicBool::new(false);

fn corrupt() -> bool {
    CORRUPT.load(Ordering::Relaxed)
}

/// Simulated end-to-end metrics: they repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simulated {
    pub msgs_per_op: f64,
    pub p50: f64,
    pub p99: f64,
    pub post_heal: f64,
}

/// Delivery statistics of the re-run reference lanes of a round
/// workload: one op is one broadcast, one message one transmission, one
/// tick one round.
#[derive(Debug, Default)]
pub struct Reference {
    lanes: u64,
    transmissions: u64,
    /// Delivery round → nodes first informed in it.
    deliveries: BTreeMap<u32, u64>,
    /// Last delivery round of each lane.  Round workloads have no
    /// partition to heal (crashes are permanent, jammers and the burst
    /// channel persist), so post-heal time counts from round 0.
    post_heal: Vec<f64>,
}

impl Reference {
    /// Adds one lane re-run with a per-round trace.
    pub fn add(&mut self, r: &RunResult) {
        self.lanes += 1;
        self.transmissions += r.total_transmissions() as u64;
        // The source holds the message from round 0.
        *self.deliveries.entry(0).or_default() += 1;
        for rec in &r.trace {
            if rec.newly_informed > 0 {
                *self.deliveries.entry(rec.round).or_default() += rec.newly_informed as u64;
            }
        }
        self.post_heal.push(f64::from(r.last_delivery_round));
    }

    /// Percentile of the delivery rounds, interpolated within the round:
    /// the deliveries of round `r` are spread evenly over `(r - 1, r]`,
    /// so the value moves smoothly instead of jumping a whole round.
    fn percentile(&self, q: f64) -> f64 {
        let total: u64 = self.deliveries.values().sum();
        let rank = total as f64 * q / 100.0;
        let mut seen = 0.0;
        for (&round, &count) in &self.deliveries {
            let next = seen + count as f64;
            if next >= rank {
                return f64::from(round) - 1.0 + (rank - seen) / count as f64;
            }
            seen = next;
        }
        0.0
    }

    fn simulated(&self) -> Simulated {
        if self.lanes == 0 {
            return Simulated::default();
        }
        Simulated {
            msgs_per_op: self.transmissions as f64 / self.lanes as f64,
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
            post_heal: self.post_heal.iter().sum::<f64>() / self.post_heal.len() as f64,
        }
    }

    /// The node workload's simulated metrics over its reference units:
    /// messages per op pooled over all their ops, and the mean of the
    /// units' delivery percentiles and post-heal times.
    pub fn node(reports: &[NodeReport]) -> Simulated {
        let ops: f64 = reports.iter().map(|r| (r.ops * r.trials) as f64).sum();
        let msgs: f64 = reports
            .iter()
            .map(|r| r.msgs_per_op * (r.ops * r.trials) as f64)
            .sum();
        let mean = |f: fn(&NodeReport) -> u64| {
            reports.iter().map(|r| f(r) as f64).sum::<f64>() / reports.len().max(1) as f64
        };
        Simulated {
            msgs_per_op: msgs / ops.max(1.0),
            p50: mean(|r| r.delivery_p50),
            p99: mean(|r| r.delivery_p99),
            post_heal: mean(|r| r.post_heal_ticks),
        }
    }
}

/// Check outcomes of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: u64,
    pub failures: Vec<String>,
    pub reference: Reference,
    pub node_reference: Option<Simulated>,
    live_reachable: u64,
    residual: u64,
}

impl Checks {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < MAX_MESSAGES {
            self.failures.push(message);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.failed += other.failed;
        for m in other.failures {
            if self.failures.len() < MAX_MESSAGES {
                self.failures.push(m);
            }
        }
        self.live_reachable += other.live_reachable;
        self.residual += other.residual;
    }

    /// Fault-free lanes must complete.
    pub fn lanes(&mut self, lanes: &[RunResult]) {
        for (l, r) in lanes.iter().enumerate() {
            if !r.completed {
                self.fail(format!("lane {l} did not complete in {} rounds", r.rounds));
            }
        }
    }

    /// Completion for fault-free lanes; summary invariants for faulted
    /// ones, whose residual counts feed `success_frac`.
    pub fn lanes_or_faults(&mut self, lanes: &[RunResult], faulted: bool) {
        if !faulted {
            self.lanes(lanes);
            return;
        }
        for (l, r) in lanes.iter().enumerate() {
            let Some(f) = r.faults else {
                self.fail(format!("faulted lane {l} has no fault summary"));
                continue;
            };
            if f.live + f.crashed + f.asleep != r.n {
                self.fail(format!(
                    "lane {l}: live {} + crashed {} + asleep {} != n {}",
                    f.live, f.crashed, f.asleep, r.n
                ));
            }
            if f.residual_uninformed > f.live_reachable {
                self.fail(format!(
                    "lane {l}: residual {} > live reachable {}",
                    f.residual_uninformed, f.live_reachable
                ));
            }
            self.live_reachable += f.live_reachable as u64;
            self.residual += f.residual_uninformed as u64;
        }
    }

    /// `Σ residual_uninformed / Σ live_reachable` of the faulted lanes.
    pub fn residual_frac(&self) -> f64 {
        self.residual as f64 / self.live_reachable.max(1) as f64
    }

    /// A batched lane and its scalar re-run must agree on every field
    /// except the informational `kernel`/`threads` (and the re-run's
    /// per-round trace, which the timed run does not record).
    pub fn same_lane(&mut self, what: &str, timed: &RunResult, scalar: &RunResult) {
        let mut scalar = normalized(scalar);
        scalar.trace.clear();
        if corrupt() {
            scalar.rounds += 1;
        }
        if normalized(timed) != scalar {
            self.fail(format!(
                "{what}: scalar re-run differs (timed rounds {}, informed {}; scalar rounds {}, informed {})",
                timed.rounds, timed.informed, scalar.rounds, scalar.informed
            ));
        }
    }

    /// Traced and untraced runs of the same inputs must agree exactly.
    pub fn same_outputs(
        &mut self,
        what: &str,
        pa: &Plan,
        a: &[RunResult],
        pb: &Plan,
        b: &[RunResult],
    ) {
        if pa != pb {
            self.fail(format!(
                "{what}: traced plan {pb:?} differs from untraced {pa:?}"
            ));
        }
        if a != b {
            self.fail(format!("{what}: traced results differ from untraced"));
        }
    }

    /// Node trials must all converge with coverage 1.0.
    pub fn node(&mut self, what: &str, r: &NodeReport) {
        if r.coverage != 1.0 || r.converged_trials != r.trials || corrupt() {
            self.fail(format!(
                "{what}: coverage {} with {}/{} trials converged",
                r.coverage, r.converged_trials, r.trials
            ));
            // One failure per trial that missed, at least one per report.
            self.failed += (r.trials - r.converged_trials).saturating_sub(1) as u64;
        }
    }

    pub fn simulated(&self) -> Simulated {
        self.node_reference
            .unwrap_or_else(|| self.reference.simulated())
    }
}
