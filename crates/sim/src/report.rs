//! Versioned, machine-readable run reports.
//!
//! A [`RunReport`] is the JSON face of a single broadcast run: the summary
//! numbers every experiment prints as ASCII, plus (optionally) the full
//! per-round event stream.  The schema is versioned
//! ([`RUN_REPORT_SCHEMA_VERSION`]) and documented field-by-field in
//! `docs/OBSERVABILITY.md`; consumers must check `schema_version` and
//! `kind` before reading anything else.
//!
//! ```
//! use radio_graph::{Graph, Xoshiro256pp};
//! use radio_sim::report::RunReport;
//! use radio_sim::{Protocol, LocalNode, RunSpec};
//!
//! struct Flood;
//! impl Protocol for Flood {
//!     fn name(&self) -> String { "flood".into() }
//!     fn transmits(&mut self, _n: LocalNode, _rng: &mut Xoshiro256pp) -> bool { true }
//! }
//!
//! let g = Graph::path(5);
//! let result = RunSpec::on_graph(&g, 0)
//!     .with_master_seed(3)
//!     .run(&mut Flood)
//!     .into_single();
//! let report = RunReport::from_result("flood", &result).with_seed(3);
//! let json = report.to_json();
//! assert_eq!(json.get("kind").unwrap().as_str(), Some("run_report"));
//! assert_eq!(json.get("rounds").unwrap().as_i64(), Some(4));
//! // Round-trips through the parser.
//! let back = RunReport::from_json(&json).unwrap();
//! assert_eq!(back, report);
//! ```

use std::io::Write;

use crate::fault::{FaultEvent, FaultEventKind, FaultSummary};
use crate::json::Json;
use crate::metrics::RunMetrics;
use crate::observer::RoundEvent;
use crate::trace::RunResult;

/// Current `RunReport` schema version (see `docs/OBSERVABILITY.md` for the
/// versioning policy).  Version 4 added the epoch-backoff schedule
/// (`backoff_epochs`); version 3 added the planner-decision fields
/// (`plan_backend`, `plan_engine`, `plan_shards`); version 2 added the
/// graceful-degradation fields (`coverage`, `last_delivery_round`,
/// `faults`).  Older documents are still accepted, with those fields
/// defaulted.
pub const RUN_REPORT_SCHEMA_VERSION: i64 = 4;

/// JSON summary of one broadcast run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Protocol or schedule-builder name (e.g. `"eg"`, `"decay"`).
    pub algorithm: String,
    /// Node count.
    pub n: usize,
    /// Edge probability the run assumed, if known.
    pub p: Option<f64>,
    /// RNG seed the run was derived from, if known.
    pub seed: Option<u64>,
    /// Whether every node was informed within the budget.
    pub completed: bool,
    /// Rounds used (completion round, or the exhausted budget).
    pub rounds: u32,
    /// Final informed count.
    pub informed: usize,
    /// Final informed fraction (`informed / n`; 1.0 for `n = 0`).  The
    /// headline graceful-degradation number for runs that cannot complete.
    pub coverage: f64,
    /// Last round in which any node was newly informed (0 if none).
    pub last_delivery_round: u32,
    /// Total transmissions over the recorded trace (energy proxy).
    pub total_transmissions: usize,
    /// Total collision events over the recorded trace.
    pub total_collisions: usize,
    /// Round by which ≥ 50% of nodes were informed, if reached.
    pub round_to_half: Option<u32>,
    /// Round by which ≥ 90% were informed.
    pub round_to_90: Option<u32>,
    /// Round by which ≥ 99% were informed.
    pub round_to_99: Option<u32>,
    /// End-to-end wall-clock of the run in nanoseconds, if measured.
    pub wall_ns: Option<u64>,
    /// Round kernel(s) that executed the run (`"sparse"`, `"dense"`,
    /// `"mixed"`, `"batch"`, or `"tiled"`), if recorded.  Purely
    /// informational — the only report field (with `threads`) allowed to
    /// differ between kernel selections.
    pub kernel: Option<String>,
    /// Worker threads that executed the run's rounds, if recorded (1 for
    /// the round and batch kernels; the tiled merge and the sweep fill
    /// report their intra-round worker count).  Purely informational — thread count never changes results.
    pub threads: Option<u32>,
    /// Number of trial lanes when the run was one lane of a lane-batched
    /// execution (a multi-lane [`crate::exec::RunSpec`]); omitted from the
    /// JSON for scalar runs.
    pub batch_lanes: Option<u32>,
    /// Graph backend the execution planner selected (`"explicit"`,
    /// `"implicit"`, or `"sharded"`), if recorded via
    /// [`RunReport::with_plan`].  Purely informational — backend choice
    /// never changes results.
    pub plan_backend: Option<String>,
    /// Execution engine the planner selected (`"round"`, `"batch"`,
    /// `"tiled"`, `"sweep"`, or `"lane-sweep"`), if recorded.
    pub plan_engine: Option<String>,
    /// Shard count the planner ran with (1 for explicit CSR plans), if
    /// recorded.  Shard count never changes results.
    pub plan_shards: Option<u32>,
    /// Epoch start rounds of an epoch-restarting protocol's backoff
    /// schedule (e.g. `Restartable`), if recorded via
    /// [`RunReport::with_backoff_epochs`]; omitted from the JSON
    /// otherwise.
    pub backoff_epochs: Option<Vec<u32>>,
    /// Graceful-degradation counters of a faulty run (omitted from the
    /// JSON for fault-free runs).
    pub faults: Option<FaultSummary>,
    /// Per-round event stream (empty unless explicitly attached with
    /// [`RunReport::with_events`] or recorded in the result's trace).
    pub events: Vec<RoundEvent>,
}

impl RunReport {
    /// Builds a report from a run result.  Milestone rounds are computed
    /// from the per-round trace when one was recorded; the trace itself is
    /// **not** embedded (attach one with [`RunReport::with_events`]).
    pub fn from_result(algorithm: &str, result: &RunResult) -> RunReport {
        let metrics = RunMetrics::from_result(result);
        RunReport {
            algorithm: algorithm.to_string(),
            n: result.n,
            p: None,
            seed: None,
            completed: result.completed,
            rounds: result.rounds,
            informed: result.informed,
            coverage: result.informed_fraction(),
            last_delivery_round: result.last_delivery_round,
            total_transmissions: metrics.total_transmissions,
            total_collisions: metrics.total_collisions,
            round_to_half: metrics.round_to_half,
            round_to_90: metrics.round_to_90,
            round_to_99: metrics.round_to_99,
            wall_ns: None,
            kernel: Some(result.kernel.as_str().to_string()),
            threads: Some(result.threads),
            batch_lanes: None,
            plan_backend: None,
            plan_engine: None,
            plan_shards: None,
            backoff_epochs: None,
            faults: result.faults,
            events: Vec::new(),
        }
    }

    /// Attaches the graph parameter `p`.
    pub fn with_p(mut self, p: f64) -> RunReport {
        self.p = Some(p);
        self
    }

    /// Attaches the seed.
    pub fn with_seed(mut self, seed: u64) -> RunReport {
        self.seed = Some(seed);
        self
    }

    /// Attaches an end-to-end wall-clock measurement.
    pub fn with_wall_ns(mut self, wall_ns: u64) -> RunReport {
        self.wall_ns = Some(wall_ns);
        self
    }

    /// Attaches the lane count of a lane-batched execution.
    pub fn with_batch_lanes(mut self, lanes: u32) -> RunReport {
        self.batch_lanes = Some(lanes);
        self
    }

    /// Attaches the execution planner's decision (backend, engine, shard
    /// count, and — for multi-lane plans — the lane count).
    pub fn with_plan(mut self, plan: &crate::exec::Plan) -> RunReport {
        self.plan_backend = Some(plan.backend.as_str().to_string());
        self.plan_engine = Some(plan.engine.as_str().to_string());
        self.plan_shards = Some(plan.shards as u32);
        if plan.lanes > 1 {
            self.batch_lanes = Some(plan.lanes as u32);
        }
        self
    }

    /// Attaches the epoch-backoff schedule of an epoch-restarting protocol
    /// (the epoch start rounds over the run's horizon).
    pub fn with_backoff_epochs(mut self, epochs: Vec<u32>) -> RunReport {
        self.backoff_epochs = Some(epochs);
        self
    }

    /// Attaches a per-round event stream (e.g. from a
    /// [`CollectingObserver`](crate::observer::CollectingObserver)).
    pub fn with_events(mut self, events: Vec<RoundEvent>) -> RunReport {
        self.events = events;
        self
    }

    /// Serializes to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::Int(RUN_REPORT_SCHEMA_VERSION)),
            ("kind", Json::from("run_report")),
            ("algorithm", Json::from(self.algorithm.as_str())),
            ("n", Json::from(self.n)),
            ("p", Json::from(self.p)),
            ("seed", Json::from(self.seed)),
            ("completed", Json::from(self.completed)),
            ("rounds", Json::from(self.rounds)),
            ("informed", Json::from(self.informed)),
            ("coverage", Json::from(self.coverage)),
            ("last_delivery_round", Json::from(self.last_delivery_round)),
            ("total_transmissions", Json::from(self.total_transmissions)),
            ("total_collisions", Json::from(self.total_collisions)),
            ("round_to_half", Json::from(self.round_to_half)),
            ("round_to_90", Json::from(self.round_to_90)),
            ("round_to_99", Json::from(self.round_to_99)),
            ("wall_ns", Json::from(self.wall_ns)),
        ];
        if let Some(kernel) = &self.kernel {
            fields.push(("kernel", Json::from(kernel.as_str())));
        }
        if let Some(threads) = self.threads {
            fields.push(("threads", Json::from(threads)));
        }
        if let Some(lanes) = self.batch_lanes {
            fields.push(("batch_lanes", Json::from(lanes)));
        }
        if let Some(backend) = &self.plan_backend {
            fields.push(("plan_backend", Json::from(backend.as_str())));
        }
        if let Some(engine) = &self.plan_engine {
            fields.push(("plan_engine", Json::from(engine.as_str())));
        }
        if let Some(shards) = self.plan_shards {
            fields.push(("plan_shards", Json::from(shards)));
        }
        if let Some(epochs) = &self.backoff_epochs {
            fields.push((
                "backoff_epochs",
                Json::Arr(epochs.iter().map(|&e| Json::from(e)).collect()),
            ));
        }
        if let Some(f) = &self.faults {
            fields.push((
                "faults",
                Json::object([
                    ("crashed", Json::from(f.crashed)),
                    ("asleep", Json::from(f.asleep)),
                    ("live", Json::from(f.live)),
                    ("live_reachable", Json::from(f.live_reachable)),
                    ("residual_uninformed", Json::from(f.residual_uninformed)),
                ]),
            ));
        }
        if !self.events.is_empty() {
            fields.push((
                "events",
                Json::Arr(self.events.iter().map(round_event_to_json).collect()),
            ));
        }
        Json::object(fields)
    }

    /// Deserializes a report produced by [`RunReport::to_json`].
    ///
    /// Strict about `schema_version` and `kind` so stale readers fail loudly
    /// instead of misinterpreting a newer schema.
    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_i64)
            .ok_or("missing schema_version")?;
        if !(1..=RUN_REPORT_SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported run_report schema_version {version} (reader supports 1..={RUN_REPORT_SCHEMA_VERSION})"
            ));
        }
        if json.get("kind").and_then(Json::as_str) != Some("run_report") {
            return Err("kind is not run_report".into());
        }
        let get_usize = |key: &str| -> Result<usize, String> {
            json.get(key)
                .and_then(Json::as_i64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| format!("missing or invalid {key}"))
        };
        let get_opt_u32 = |key: &str| -> Option<u32> {
            json.get(key)
                .and_then(Json::as_i64)
                .and_then(|v| u32::try_from(v).ok())
        };
        let events = match json.get("events").and_then(Json::as_arr) {
            None => Vec::new(),
            Some(items) => items
                .iter()
                .map(round_event_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        // Schema-v2 fields are lenient so version-1 documents still parse.
        let n = get_usize("n")?;
        let informed = get_usize("informed")?;
        let coverage = json.get("coverage").and_then(Json::as_f64).unwrap_or({
            if n == 0 {
                1.0
            } else {
                informed as f64 / n as f64
            }
        });
        let faults = match json.get("faults") {
            None => None,
            Some(f) => {
                let field = |key: &str| -> Result<usize, String> {
                    f.get(key)
                        .and_then(Json::as_i64)
                        .and_then(|v| usize::try_from(v).ok())
                        .ok_or_else(|| format!("missing or invalid faults.{key}"))
                };
                Some(FaultSummary {
                    crashed: field("crashed")?,
                    asleep: field("asleep")?,
                    live: field("live")?,
                    live_reachable: field("live_reachable")?,
                    residual_uninformed: field("residual_uninformed")?,
                })
            }
        };
        Ok(RunReport {
            algorithm: json
                .get("algorithm")
                .and_then(Json::as_str)
                .ok_or("missing algorithm")?
                .to_string(),
            n,
            p: json.get("p").and_then(Json::as_f64),
            seed: json
                .get("seed")
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok()),
            completed: json
                .get("completed")
                .and_then(Json::as_bool)
                .ok_or("missing completed")?,
            rounds: get_opt_u32("rounds").ok_or("missing rounds")?,
            informed,
            coverage,
            last_delivery_round: get_opt_u32("last_delivery_round").unwrap_or(0),
            total_transmissions: get_usize("total_transmissions")?,
            total_collisions: get_usize("total_collisions")?,
            round_to_half: get_opt_u32("round_to_half"),
            round_to_90: get_opt_u32("round_to_90"),
            round_to_99: get_opt_u32("round_to_99"),
            wall_ns: json
                .get("wall_ns")
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok()),
            kernel: json
                .get("kernel")
                .and_then(Json::as_str)
                .map(str::to_string),
            threads: get_opt_u32("threads"),
            batch_lanes: get_opt_u32("batch_lanes"),
            plan_backend: json
                .get("plan_backend")
                .and_then(Json::as_str)
                .map(str::to_string),
            plan_engine: json
                .get("plan_engine")
                .and_then(Json::as_str)
                .map(str::to_string),
            plan_shards: get_opt_u32("plan_shards"),
            backoff_epochs: json.get("backoff_epochs").and_then(Json::as_arr).map(|a| {
                a.iter()
                    .filter_map(Json::as_i64)
                    .filter_map(|v| u32::try_from(v).ok())
                    .collect()
            }),
            faults,
            events,
        })
    }
}

/// Serializes one [`RoundEvent`] (the JSONL trace line format).
pub fn round_event_to_json(event: &RoundEvent) -> Json {
    Json::object([
        ("round", Json::from(event.round)),
        ("transmitters", Json::from(event.transmitters)),
        ("reached", Json::from(event.reached)),
        ("collisions", Json::from(event.collisions)),
        ("newly_informed", Json::from(event.newly_informed)),
        ("informed_after", Json::from(event.informed_after)),
        ("elapsed_ns", Json::from(event.elapsed_ns)),
    ])
}

/// Parses one [`RoundEvent`] serialized by [`round_event_to_json`].
pub fn round_event_from_json(json: &Json) -> Result<RoundEvent, String> {
    let field = |key: &str| -> Result<i64, String> {
        json.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("missing or invalid event field {key}"))
    };
    Ok(RoundEvent {
        round: u32::try_from(field("round")?).map_err(|_| "round out of range")?,
        transmitters: field("transmitters")? as usize,
        reached: field("reached")? as usize,
        collisions: field("collisions")? as usize,
        newly_informed: field("newly_informed")? as usize,
        informed_after: field("informed_after")? as usize,
        elapsed_ns: field("elapsed_ns")? as u64,
    })
}

/// Writes an event stream as JSONL (one compact JSON object per line) —
/// the replay/debugging trace format of `radio-cli run --trace-out`.
///
/// Lines may carry extra context fields (e.g. the trial index) via
/// `prefix_fields`.
pub fn write_events_jsonl<W: Write>(
    out: &mut W,
    prefix_fields: &[(&str, Json)],
    events: &[RoundEvent],
) -> std::io::Result<()> {
    for event in events {
        let mut fields: Vec<(String, Json)> = prefix_fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        if let Json::Obj(event_fields) = round_event_to_json(event) {
            fields.extend(event_fields);
        }
        writeln!(out, "{}", Json::Obj(fields).render())?;
    }
    Ok(())
}

/// Serializes one [`FaultEvent`] (the JSONL fault-trace line format).
pub fn fault_event_to_json(event: &FaultEvent) -> Json {
    Json::object([
        ("fault", Json::from(event.kind.as_str())),
        ("round", Json::from(event.round)),
        ("node", Json::from(event.node)),
    ])
}

/// Parses one [`FaultEvent`] serialized by [`fault_event_to_json`].
pub fn fault_event_from_json(json: &Json) -> Result<FaultEvent, String> {
    let kind = match json.get("fault").and_then(Json::as_str) {
        Some("crash") => FaultEventKind::Crash,
        Some("wake") => FaultEventKind::Wake,
        Some("jam_start") => FaultEventKind::JamStart,
        Some("jam_stop") => FaultEventKind::JamStop,
        Some(other) => return Err(format!("unknown fault kind {other:?}")),
        None => return Err("missing fault kind".into()),
    };
    let field = |key: &str| -> Result<i64, String> {
        json.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("missing or invalid fault field {key}"))
    };
    Ok(FaultEvent {
        round: u32::try_from(field("round")?).map_err(|_| "round out of range")?,
        node: u32::try_from(field("node")?).map_err(|_| "node out of range")?,
        kind,
    })
}

/// Writes a fault-event stream as JSONL, with the same extra-context
/// convention as [`write_events_jsonl`].  Fault lines are distinguishable
/// from round lines by their `fault` field.
pub fn write_fault_events_jsonl<W: Write>(
    out: &mut W,
    prefix_fields: &[(&str, Json)],
    events: &[FaultEvent],
) -> std::io::Result<()> {
    for event in events {
        let mut fields: Vec<(String, Json)> = prefix_fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        if let Json::Obj(event_fields) = fault_event_to_json(event) {
            fields.extend(event_fields);
        }
        writeln!(out, "{}", Json::Obj(fields).render())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RoundRecord, RunResult};

    fn sample_result() -> RunResult {
        RunResult {
            completed: true,
            rounds: 2,
            informed: 5,
            n: 5,
            kernel: crate::kernel::KernelUsed::Sparse,
            threads: 1,
            last_delivery_round: 2,
            fault_events: Vec::new(),
            faults: None,
            trace: vec![
                RoundRecord {
                    round: 1,
                    transmitters: 1,
                    newly_informed: 3,
                    collisions: 0,
                    reached: 3,
                    informed_after: 4,
                },
                RoundRecord {
                    round: 2,
                    transmitters: 2,
                    newly_informed: 1,
                    collisions: 1,
                    reached: 2,
                    informed_after: 5,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let result = sample_result();
        let plan = crate::exec::Plan {
            backend: crate::sweep::Backend::Implicit,
            engine: crate::exec::PlannedEngine::LaneSweep,
            lanes: 64,
            shards: 4,
            threads: None,
        };
        let report = RunReport::from_result("test-proto", &result)
            .with_p(0.05)
            .with_seed(42)
            .with_wall_ns(12345)
            .with_plan(&plan)
            .with_events(result.trace.iter().map(|r| r.to_event()).collect());
        assert_eq!(report.batch_lanes, Some(64));
        assert_eq!(report.plan_backend.as_deref(), Some("implicit"));
        assert_eq!(report.plan_engine.as_deref(), Some("lane-sweep"));
        assert_eq!(report.plan_shards, Some(4));
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // And through the text serializer too.
        let reparsed = Json::parse(&json.render_pretty()).unwrap();
        assert_eq!(RunReport::from_json(&reparsed).unwrap(), report);
    }

    #[test]
    fn scalar_plan_leaves_batch_lanes_unset() {
        let plan = crate::exec::Plan {
            backend: crate::sweep::Backend::Explicit,
            engine: crate::exec::PlannedEngine::Round(crate::kernel::EngineKernel::Auto),
            lanes: 1,
            shards: 1,
            threads: None,
        };
        let report = RunReport::from_result("x", &sample_result()).with_plan(&plan);
        assert_eq!(report.batch_lanes, None);
        assert_eq!(report.plan_engine.as_deref(), Some("round"));
        // v2 documents (no plan fields) still parse, with the plan unset.
        let mut v2 = RunReport::from_result("old", &sample_result()).to_json();
        if let Json::Obj(fields) = &mut v2 {
            fields[0].1 = Json::Int(2);
        }
        let old = RunReport::from_json(&v2).unwrap();
        assert!(old.plan_backend.is_none());
        assert!(old.plan_engine.is_none());
        assert!(old.plan_shards.is_none());
    }

    #[test]
    fn backoff_epochs_round_trip_and_v3_is_lenient() {
        let report = RunReport::from_result("restartable(eg)", &sample_result())
            .with_backoff_epochs(vec![1, 26, 76]);
        let json = report.to_json();
        assert_eq!(
            json.get("backoff_epochs")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(3)
        );
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.backoff_epochs.as_deref(), Some(&[1, 26, 76][..]));
        // A v3 document (no backoff field) still parses, with it unset.
        let mut v3 = RunReport::from_result("old", &sample_result()).to_json();
        if let Json::Obj(fields) = &mut v3 {
            fields[0].1 = Json::Int(3);
        }
        assert!(RunReport::from_json(&v3).unwrap().backoff_epochs.is_none());
    }

    #[test]
    fn summary_numbers_match_result() {
        let result = sample_result();
        let report = RunReport::from_result("x", &result);
        assert_eq!(report.rounds, result.rounds);
        assert_eq!(report.total_transmissions, 3);
        assert_eq!(report.total_collisions, 1);
        assert_eq!(report.round_to_half, Some(1));
        assert_eq!(report.round_to_99, Some(2));
        assert!(report.events.is_empty());
    }

    #[test]
    fn faulty_report_round_trips_and_v1_is_lenient() {
        let mut result = sample_result();
        result.completed = false;
        result.informed = 4;
        result.faults = Some(FaultSummary {
            crashed: 1,
            asleep: 0,
            live: 4,
            live_reachable: 4,
            residual_uninformed: 0,
        });
        let report = RunReport::from_result("faulty", &result);
        assert_eq!(report.coverage, 0.8);
        assert_eq!(report.last_delivery_round, 2);
        let json = report.to_json();
        assert_eq!(
            json.get("faults")
                .and_then(|f| f.get("crashed"))
                .and_then(Json::as_i64),
            Some(1)
        );
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);

        // A version-1 document (no v2 fields) still parses, with coverage
        // derived and the rest defaulted.
        let mut v1 = RunReport::from_result("old", &sample_result()).to_json();
        if let Json::Obj(fields) = &mut v1 {
            fields[0].1 = Json::Int(1);
            fields.retain(|(k, _)| k != "coverage" && k != "last_delivery_round");
        }
        let old = RunReport::from_json(&v1).unwrap();
        assert_eq!(old.coverage, 1.0);
        assert_eq!(old.last_delivery_round, 0);
        assert!(old.faults.is_none());
    }

    #[test]
    fn fault_events_jsonl_round_trip() {
        let events = vec![
            FaultEvent {
                round: 3,
                node: 7,
                kind: FaultEventKind::Crash,
            },
            FaultEvent {
                round: 5,
                node: 2,
                kind: FaultEventKind::JamStart,
            },
        ];
        let mut buf = Vec::new();
        write_fault_events_jsonl(&mut buf, &[("trial", Json::Int(1))], &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, event) in lines.iter().zip(&events) {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("trial").unwrap().as_i64(), Some(1));
            assert_eq!(fault_event_from_json(&v).unwrap(), *event);
        }
        assert!(fault_event_from_json(&Json::object([("fault", Json::from("nap"))])).is_err());
    }

    #[test]
    fn version_mismatch_rejected() {
        let result = sample_result();
        let mut json = RunReport::from_result("x", &result).to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Int(999);
        }
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.contains("schema_version 999"), "{err}");
    }

    #[test]
    fn wrong_kind_rejected() {
        let json = Json::object([
            ("schema_version", Json::Int(RUN_REPORT_SCHEMA_VERSION)),
            ("kind", Json::from("bench_report")),
        ]);
        assert!(RunReport::from_json(&json).is_err());
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let result = sample_result();
        let events: Vec<RoundEvent> = result.trace.iter().map(|r| r.to_event()).collect();
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &[("trial", Json::Int(3))], &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, event) in lines.iter().zip(&events) {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("trial").unwrap().as_i64(), Some(3));
            assert_eq!(round_event_from_json(&v).unwrap(), *event);
        }
    }
}
