//! The four workloads: inputs generated from the seed, the closed timed
//! loop, traced pairs, output checks, and metrics.
//!
//! Every workload is a closed loop of batch work from one process: the
//! next unit starts when the previous one returns.  A *unit* is one
//! `run_trials` batch of 64-lane tasks (`mc-stored`), one 64-lane
//! lane-sweep (`scale-lanes`), one scalar faulted sweep
//! (`scale-faulted`), or one `run_workload` call (`node-partition`).

use std::time::Instant;

use radio_broadcast::distributed::{Decay, EgDistributed, Restartable};
use radio_graph::components::is_connected;
use radio_graph::gnp::sample_gnp;
use radio_graph::{child_rng, derive_seed, labeled_seed, Graph, ImplicitGnp, NodeId, Xoshiro256pp};
use radio_node::{run_workload, NodeReport, Partition, WorkloadConfig};
use radio_sim::exec::RunSpec;
use radio_sim::{
    run_trials, thread_budget, FaultConfig, FaultPlan, Json, KernelUsed, Plan, PlannedEngine,
    Protocol, RunConfig, RunResult, TraceLevel,
};

use crate::checks::{Checks, Reference};
use crate::node_replay::{replay_workload, NodeLayers};
use crate::trace::{
    median, ns_between, regen_pass, span, TracedProtocol, TracedProvider, UnitTrace,
};

/// Lanes per lane-batched run (the batch/lane-sweep word width).
pub const LANES: usize = 64;

/// Command-line options of one benchmark process.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub toy: bool,
}

/// Everything one process measured, ready to print.
#[derive(Debug, Default)]
pub struct Outcome {
    pub units: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// FNV-1a digest of the outputs with timing and thread counts removed;
    /// equal digests across thread counts show the outputs did not change.
    pub digest: u64,
    pub untraced_trials_per_s: f64,
    pub spans: Vec<Json>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Runs `build` in `blocks` timed blocks of `per_block` set-ups each and
/// returns the last result with the median seconds per set-up.  Cheap
/// set-ups use large blocks, so clock reads do not swamp them.
fn setup_median<T>(blocks: usize, per_block: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(blocks);
    let mut last = None;
    for _ in 0..blocks.max(1) {
        let t0 = Instant::now();
        for _ in 0..per_block.max(1) {
            // Drop the previous set-up first so peak RSS holds one copy.
            drop(last.take());
            last = Some(build());
        }
        times.push(t0.elapsed().as_secs_f64() / per_block.max(1) as f64);
    }
    (last.expect("at least one set-up"), median(&mut times))
}

/// Closed loop: runs units back to back until the next one would end
/// past `seconds` (judged by the mean unit time), but at least
/// `min_units`.  Returns the outputs and each unit's wall seconds.
fn timed_loop<T>(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut(usize) -> T,
) -> (Vec<T>, Vec<f64>) {
    let start = Instant::now();
    let mut outs = Vec::new();
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        outs.push(unit(outs.len()));
        secs.push(t0.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / outs.len() as f64;
        if outs.len() >= min_units && elapsed + mean / 2.0 >= seconds {
            return (outs, secs);
        }
    }
}

/// Median over units of trials per second: robust to a transient
/// slowdown of the shared host during one unit.
fn unit_rate(trials: impl IntoIterator<Item = u64>, secs: &[f64]) -> f64 {
    let mut rates: Vec<f64> = trials
        .into_iter()
        .zip(secs)
        .map(|(t, s)| t as f64 / s.max(1e-12))
        .collect();
    median(&mut rates)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU seconds this process has used over all its threads, ended ones
/// included: `utime + stime` from `/proc/self/stat`, which counts in
/// ticks of 1/100 s (Linux's fixed `USER_HZ`).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) sit at indices 11 and 12.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Runs `f` and returns its output with the process CPU seconds it used.
fn with_cpu<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c0 = process_cpu_s();
    let out = f();
    (out, process_cpu_s() - c0)
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// A result with its informational fields (`kernel`, `threads`) fixed,
/// for comparisons across engines and thread counts.
pub fn normalized(r: &RunResult) -> RunResult {
    let mut r = r.clone();
    r.kernel = KernelUsed::Sparse;
    r.threads = 0;
    r
}

fn digest_runs<'a>(h: u64, plan: &Plan, lanes: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    let mut h = fnv(h, format!("{plan:?}").as_bytes());
    for r in lanes {
        h = fnv(h, format!("{:?}", normalized(r)).as_bytes());
    }
    h
}

/// Edge probability `p = ln²n / n` of the stored-graph pool.
fn mc_p(n: usize) -> f64 {
    (n as f64).ln().powi(2) / n as f64
}

/// Edge probability `p = 2.5·ln n / n` of the implicit workloads.
fn scale_p(n: usize) -> f64 {
    2.5 * (n as f64).ln() / n as f64
}

/// Per-lane shape statistics of one multi-lane run.
fn lane_shape(lanes: &[RunResult]) -> (f64, f64) {
    let max = lanes.iter().map(|r| r.rounds).max().unwrap_or(0).max(1) as f64;
    let mean = lanes.iter().map(|r| r.rounds as f64).sum::<f64>() / lanes.len().max(1) as f64;
    let useful = lanes
        .iter()
        .map(|r| r.last_delivery_round as f64 / r.rounds.max(1) as f64)
        .sum::<f64>()
        / lanes.len().max(1) as f64;
    (mean / max, useful)
}

/// Per-layer totals of the traced units of a round workload.
#[derive(Debug, Default)]
struct RoundLayers {
    units: usize,
    plans: [u64; 4],
    decide_ns: u64,
    calls: u64,
    lane_decisions: u64,
    transmits: u64,
    fill_ns: u64,
    regen_ns: f64,
    edges: u64,
    materialize_ns: u64,
    rounds: u64,
    round_ns: u64,
    rest_ns: u64,
    init_ns: u64,
    occupancy_sum: f64,
    useful_sum: f64,
    lanes_seen: u64,
    live_reachable: u64,
    residual: u64,
}

impl RoundLayers {
    fn add_unit(&mut self, plan: &Plan, lanes: &[RunResult], t: &UnitTrace) {
        self.units += 1;
        let slot = match plan.engine {
            PlannedEngine::Batch => Some(0),
            PlannedEngine::Tiled => Some(1),
            PlannedEngine::Sweep => Some(2),
            PlannedEngine::LaneSweep => Some(3),
            // No workload plans the scalar round engine.
            PlannedEngine::Round(_) => None,
        };
        if let Some(slot) = slot {
            self.plans[slot] += 1;
        }
        self.decide_ns += t.decide_ns;
        self.calls += t.calls;
        self.lane_decisions += t.lane_decisions;
        self.transmits += t.transmits;
        self.fill_ns += t.fill_ns;
        self.materialize_ns += t.materialize_ns;
        self.rounds += t.rounds.len() as u64;
        self.round_ns += t.round_ns();
        self.rest_ns += t.rest_ns();
        self.init_ns += t.init_ns;
        let (occ, useful) = lane_shape(lanes);
        self.occupancy_sum += occ;
        self.useful_sum += useful * lanes.len() as f64;
        self.lanes_seen += lanes.len() as u64;
        for r in lanes {
            if let Some(f) = r.faults {
                self.live_reachable += f.live_reachable as u64;
                self.residual += f.residual_uninformed as u64;
            }
        }
    }

    fn emit(&self, out: &mut Outcome) {
        let s = |ns: f64| ns / 1e9;
        let regen = self.regen_ns.min(self.fill_ns as f64);
        out.metric("graph.provider.regen_s", s(regen), "s");
        out.metric("graph.provider.edges", self.edges as f64, "count");
        out.metric(
            "graph.provider.edges_per_s",
            if regen > 0.0 {
                self.edges as f64 / s(regen)
            } else {
                0.0
            },
            "1/s",
        );
        for (i, name) in ["batch", "tiled", "sweep", "lane-sweep"].iter().enumerate() {
            out.metric(
                &format!("sim.exec.plan.{name}"),
                self.plans[i] as f64,
                "count",
            );
        }
        out.metric("sim.protocol.decide_s", s(self.decide_ns as f64), "s");
        out.metric("sim.protocol.calls", self.calls as f64, "count");
        out.metric(
            "sim.protocol.lane_decisions",
            self.lane_decisions as f64,
            "count",
        );
        out.metric(
            "sim.protocol.transmit_ratio",
            self.transmits as f64 / self.lane_decisions.max(1) as f64,
            "ratio",
        );
        out.metric("sim.sweep.fill_s", s(self.fill_ns as f64), "s");
        out.metric("sim.sweep.merge_s", s(self.fill_ns as f64 - regen), "s");
        out.metric("sim.engine.rounds", self.rounds as f64, "count");
        out.metric("sim.engine.round_s", s(self.round_ns as f64), "s");
        out.metric("sim.engine.rest_s", s(self.rest_ns as f64), "s");
        out.metric("sim.engine.init_s", s(self.init_ns as f64), "s");
        out.metric(
            "sim.engine.lane_occupancy",
            self.occupancy_sum / self.units.max(1) as f64,
            "ratio",
        );
        out.metric(
            "sim.engine.useful_round_ratio",
            self.useful_sum / self.lanes_seen.max(1) as f64,
            "ratio",
        );
        out.metric(
            "sim.fault.live_reachable",
            self.live_reachable as f64,
            "count",
        );
        out.metric(
            "sim.fault.residual_uninformed",
            self.residual as f64,
            "count",
        );
    }
}

/// The node-layer metrics (all 0 on the workloads that bypass the layer).
fn emit_node_layers(out: &mut Outcome, l: &NodeLayers) {
    out.metric("node.net.sent", l.sent as f64, "count");
    out.metric("node.net.delivered", l.delivered as f64, "count");
    out.metric("node.net.dropped", l.dropped as f64, "count");
    out.metric("node.net.queue_peak", l.queue_peak as f64, "count");
    out.metric("node.net.busy_s", l.net_busy_ns as f64 / 1e9, "s");
    out.metric("node.node.gossip_sent", l.gossip_sent as f64, "count");
    out.metric("node.node.acks_sent", l.acks_sent as f64, "count");
    out.metric("node.node.retries", l.retries as f64, "count");
    out.metric(
        "node.node.new_value_ratio",
        l.new_values as f64 / l.gossip_values.max(1) as f64,
        "ratio",
    );
    out.metric("node.node.busy_s", l.node_busy_ns as f64 / 1e9, "s");
}

/// Metrics every traced run reports, whatever the workload.
struct Common {
    sample_s: f64,
    accept_ratio: f64,
    materialize_s: f64,
    plan_s: f64,
    utilization: f64,
    overhead: f64,
}

fn emit_common(out: &mut Outcome, c: &Common) {
    out.metric("graph.gnp.sample_s", c.sample_s, "s");
    out.metric("graph.gnp.accept_ratio", c.accept_ratio, "ratio");
    out.metric("graph.provider.materialize_s", c.materialize_s, "s");
    out.metric("sim.fault.plan_s", c.plan_s, "s");
    out.metric("sim.runner.utilization", c.utilization, "ratio");
    out.metric("trace.overhead", c.overhead, "ratio");
}

/// Traced-vs-untraced pair bookkeeping.
#[derive(Default)]
struct Pairs {
    untraced_s: f64,
    /// Process CPU seconds of the untraced runs, all threads.
    untraced_cpu_s: f64,
    traced_s: f64,
    trials: u64,
}

impl Pairs {
    fn overhead(&self) -> f64 {
        self.traced_s / self.untraced_s.max(1e-12) - 1.0
    }

    /// CPU seconds per core-second of the untraced runs on `threads`
    /// cores: 1 when every core was busy, 0.5 when one of two sat idle.
    fn utilization(&self, threads: usize) -> f64 {
        self.untraced_cpu_s / (threads as f64 * self.untraced_s.max(1e-12))
    }

    fn untraced_tps(&self) -> f64 {
        self.trials as f64 / self.untraced_s.max(1e-12)
    }
}

/// Runs `a` and `b` in an order that alternates with `i`, returning
/// their outputs and wall seconds as `(a, a_s, b, b_s)`.
fn alternate<A, B>(i: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, f64, B, f64) {
    let time = |t0: Instant| t0.elapsed().as_secs_f64();
    if i.is_multiple_of(2) {
        let t0 = Instant::now();
        let ra = a();
        let ta = time(t0);
        let t1 = Instant::now();
        let rb = b();
        (ra, ta, rb, time(t1))
    } else {
        let t1 = Instant::now();
        let rb = b();
        let tb = time(t1);
        let t0 = Instant::now();
        let ra = a();
        (ra, time(t0), rb, tb)
    }
}

// ---------------------------------------------------------------- mc-stored

/// Tasks per `run_trials` batch: two large graphs then twelve small ones,
/// so each engine gets a comparable share of the time.
const MC_LARGE: usize = 2;
const MC_SMALL: usize = 12;
const MC_BATCH: usize = MC_LARGE + MC_SMALL;
/// Batches whose checked lanes give the simulated metrics.
const MC_REF_BATCHES: usize = 8;

struct McPool {
    small: Vec<(Graph, NodeId)>,
    large: Vec<(Graph, NodeId)>,
    samples: u64,
    accepted: u64,
    sample_ns: u64,
}

fn mc_sizes(toy: bool) -> (usize, usize) {
    if toy {
        (256, 1024)
    } else {
        (1 << 12, 1 << 14)
    }
}

fn mc_pool(seed: u64, toy: bool) -> McPool {
    let (small_n, large_n) = mc_sizes(toy);
    let mut rng = Xoshiro256pp::new(labeled_seed(seed, "mc-stored/pool"));
    let mut pool = McPool {
        small: Vec::new(),
        large: Vec::new(),
        samples: 0,
        accepted: 0,
        sample_ns: 0,
    };
    for (n, count, large) in [(small_n, 4, false), (large_n, 2, true)] {
        let p = mc_p(n);
        for _ in 0..count {
            let g = loop {
                let t0 = Instant::now();
                let g = sample_gnp(n, p, &mut rng);
                let ok = is_connected(&g);
                pool.sample_ns += ns_between(t0, Instant::now());
                pool.samples += 1;
                if ok {
                    pool.accepted += 1;
                    break g;
                }
            };
            let source = rng.below(n as u64) as NodeId;
            if large {
                pool.large.push((g, source));
            } else {
                pool.small.push((g, source));
            }
        }
    }
    pool
}

#[derive(Clone, Copy)]
struct McTask {
    large: bool,
    graph: usize,
    eg: bool,
    master: u64,
}

fn mc_task(seed: u64, pool: &McPool, batch: usize, j: usize) -> McTask {
    let large = j < MC_LARGE;
    let graph = if large {
        (batch * MC_LARGE + j) % pool.large.len()
    } else {
        (batch * MC_SMALL + j - MC_LARGE) % pool.small.len()
    };
    McTask {
        large,
        graph,
        eg: j.is_multiple_of(2),
        master: derive_seed(
            labeled_seed(seed, "mc-stored/lanes"),
            (batch * MC_BATCH + j) as u64,
        ),
    }
}

impl McTask {
    fn graph<'a>(&self, pool: &'a McPool) -> &'a (Graph, NodeId) {
        if self.large {
            &pool.large[self.graph]
        } else {
            &pool.small[self.graph]
        }
    }

    fn protocol_name(&self) -> &'static str {
        if self.eg {
            "eg"
        } else {
            "decay"
        }
    }
}

struct TaskOut {
    lanes: Vec<RunResult>,
    plan: Plan,
    started: Instant,
    trace: Option<UnitTrace>,
}

fn run_spec_task<P: Protocol>(spec: &RunSpec<'_>, proto: P, traced: bool) -> TaskOut {
    let start = Instant::now();
    if traced {
        let mut tp = TracedProtocol::new(proto, start, LANE_DECIDE_STRIDE, None);
        let outcome = spec.run(&mut tp);
        TaskOut {
            lanes: outcome.lanes,
            plan: outcome.plan,
            started: start,
            trace: Some(tp.finish(Instant::now())),
        }
    } else {
        let mut proto = proto;
        let outcome = spec.run(&mut proto);
        TaskOut {
            lanes: outcome.lanes,
            plan: outcome.plan,
            started: start,
            trace: None,
        }
    }
}

fn mc_run(task: McTask, pool: &McPool, traced: bool) -> TaskOut {
    let (g, source) = task.graph(pool);
    let n = g.n();
    let cfg = RunConfig::for_graph(n).with_trace(TraceLevel::SummaryOnly);
    let spec = RunSpec::on_graph(g, *source)
        .with_config(cfg)
        .with_lanes(LANES)
        .with_master_seed(task.master);
    if task.eg {
        run_spec_task(&spec, EgDistributed::new(mc_p(n)), traced)
    } else {
        run_spec_task(&spec, Decay::new(), traced)
    }
}

fn mc_batch(seed: u64, pool: &McPool, batch: usize, traced: bool) -> (Vec<TaskOut>, u64) {
    let start = Instant::now();
    let outs = run_trials(MC_BATCH, derive_seed(seed, batch as u64), |j, _| {
        mc_run(mc_task(seed, pool, batch, j), pool, traced)
    });
    (outs, ns_between(start, Instant::now()))
}

/// Scalar re-run of one lane of `task` on its stored graph.
fn mc_recheck(task: McTask, pool: &McPool, lane: usize, per_round: bool) -> RunResult {
    let (g, source) = task.graph(pool);
    let n = g.n();
    let level = if per_round {
        TraceLevel::PerRound
    } else {
        TraceLevel::SummaryOnly
    };
    let spec = RunSpec::on_graph(g, *source).with_config(RunConfig::for_graph(n).with_trace(level));
    let mut rng = child_rng(task.master, lane as u64);
    if task.eg {
        spec.run_with_rng(&mut EgDistributed::new(mc_p(n)), &mut rng)
            .into_single()
    } else {
        spec.run_with_rng(&mut Decay::new(), &mut rng).into_single()
    }
}

/// The lane of a unit that the output check re-runs.
fn sampled_lane(master: u64, k: u64) -> usize {
    (derive_seed(master, 0xC4EC_0000 + k) % LANES as u64) as usize
}

fn mc_checks(seed: u64, pool: &McPool, batches: &[Vec<TaskOut>], reference: bool) -> Checks {
    let mut jobs = Vec::new();
    for (b, outs) in batches.iter().enumerate() {
        for (j, out) in outs.iter().enumerate() {
            jobs.push((b, j, out));
        }
    }
    let results = run_trials(jobs.len(), 0, |i, _| {
        let (b, j, out) = jobs[i];
        let task = mc_task(seed, pool, b, j);
        let lane = sampled_lane(task.master, 0);
        let per_round = reference && b < MC_REF_BATCHES;
        (
            b,
            lane,
            mc_recheck(task, pool, lane, per_round),
            task.protocol_name(),
            out,
        )
    });
    let mut checks = Checks::default();
    for (b, lane, scalar, proto, out) in results {
        checks.lanes(&out.lanes);
        checks.same_lane(
            &format!("mc-stored batch {b} {proto} lane {lane}"),
            &out.lanes[lane],
            &scalar,
        );
        if reference && b < MC_REF_BATCHES {
            checks.reference.add(&scalar);
        }
    }
    checks
}

fn mc_stored(opt: &Options) -> Outcome {
    let mut out = Outcome::default();
    let (pool, setup_s) = setup_median(5, 1, || mc_pool(opt.seed, opt.toy));
    if !opt.traced {
        let (batches, secs) = timed_loop(opt.seconds, MC_REF_BATCHES, |b| {
            let mut outs = mc_batch(opt.seed, &pool, b, false).0;
            // The lanes were allocated on the run_trials workers; kept
            // there until the checks, they would pin those threads' malloc
            // arenas and add a random few MiB to peak_rss_mib.  Copies on
            // this thread (about 10 KiB a task) leave the arenas free.
            for t in &mut outs {
                t.lanes = t.lanes.clone();
            }
            outs
        });
        let rss = peak_rss_mib();
        let checks = mc_checks(opt.seed, &pool, &batches, true);
        out.units = batches.len();
        out.attempted = (batches.len() * MC_BATCH * LANES) as u64;
        out.digest = batches
            .iter()
            .flatten()
            .fold(FNV_START, |h, t| digest_runs(h, &t.plan, &t.lanes));
        let rate = unit_rate(batches.iter().map(|b| (b.len() * LANES) as u64), &secs);
        finish_plain(&mut out, rate, setup_s, rss, checks, 0.0);
        return out;
    }
    let units = if opt.toy { 1 } else { 3 };
    let threads = thread_budget(MC_BATCH);
    let mut pairs = Pairs::default();
    let mut layers = RoundLayers::default();
    let mut untraced_batches = Vec::new();
    let mut checks = Checks::default();
    let mut span_id = 1u64;
    let trace_start = Instant::now();
    for b in 0..units {
        let (((plain, _), cpu_s), plain_s, (traced, traced_ns), traced_s) = alternate(
            b,
            || with_cpu(|| mc_batch(opt.seed, &pool, b, false)),
            || mc_batch(opt.seed, &pool, b, true),
        );
        pairs.untraced_s += plain_s;
        pairs.untraced_cpu_s += cpu_s;
        pairs.traced_s += traced_s;
        pairs.trials += (MC_BATCH * LANES) as u64;
        let batch_start = traced
            .iter()
            .map(|t| ns_between(trace_start, t.started))
            .min()
            .unwrap_or(0);
        let batch_id = span_id;
        span_id += 1;
        out.spans.push(span(
            batch_id,
            0,
            "batch",
            batch_start,
            batch_start + traced_ns,
            Json::object([("batch", Json::from(b))]),
        ));
        for (j, (p, t)) in plain.iter().zip(&traced).enumerate() {
            checks.same_outputs(
                &format!("mc-stored batch {b} task {j}"),
                &p.plan,
                &p.lanes,
                &t.plan,
                &t.lanes,
            );
            let trace = t.trace.as_ref().expect("traced task has a trace");
            layers.add_unit(&t.plan, &t.lanes, trace);
            let task = mc_task(opt.seed, &pool, b, j);
            out.spans.extend(trace.spans(
                span_id,
                batch_id,
                ns_between(trace_start, t.started),
                vec![
                    ("engine", Json::from(t.plan.engine.as_str())),
                    ("protocol", Json::from(task.protocol_name())),
                    ("n", Json::from(task.graph(&pool).0.n())),
                ],
            ));
            span_id += 1;
        }
        untraced_batches.push(plain);
    }
    let lane_checks = mc_checks(opt.seed, &pool, &untraced_batches, false);
    checks.merge(lane_checks);
    out.units = units;
    out.attempted = pairs.trials;
    out.digest = untraced_batches
        .iter()
        .flatten()
        .fold(FNV_START, |h, t| digest_runs(h, &t.plan, &t.lanes));
    out.untraced_trials_per_s = pairs.untraced_tps();
    layers.emit(&mut out);
    emit_common(
        &mut out,
        &Common {
            sample_s: pool.sample_ns as f64 / 1e9,
            accept_ratio: pool.accepted as f64 / pool.samples.max(1) as f64,
            materialize_s: 0.0,
            plan_s: 0.0,
            utilization: pairs.utilization(threads),
            overhead: pairs.overhead(),
        },
    );
    emit_node_layers(&mut out, &NodeLayers::default());
    finish_traced(&mut out, checks);
    out
}

// ------------------------------------------------------ scale-* (implicit)

struct ScaleInput {
    graph: ImplicitGnp,
    source: NodeId,
    master: u64,
    plan: Option<FaultPlan>,
}

/// Set-up of the implicit workloads, with its materialize/plan spans.
#[derive(Default)]
struct ScaleSetup {
    inputs: Vec<ScaleInput>,
    materialize_ns: u64,
    plan_ns: u64,
}

const FAULT_SPEC: &str = "crash=0.05,sleep=0.1,jam=2,burst=0.1:0.5";

fn scale_setup(seed: u64, label: &str, n: usize, count: usize, faulted: bool) -> ScaleSetup {
    let p = scale_p(n);
    let mut rng = Xoshiro256pp::new(labeled_seed(seed, label));
    let mut setup = ScaleSetup::default();
    for _ in 0..count {
        let graph = ImplicitGnp::new(n, p, rng.next());
        let source = rng.below(n as u64) as NodeId;
        let master = rng.next();
        let plan = faulted.then(|| {
            let fc = FaultConfig {
                exempt: Some(source),
                ..FaultConfig::parse(FAULT_SPEC).expect("fault spec parses")
            };
            // Plan generation needs explicit adjacency, so the plan is
            // drawn on `materialize()`, as the CLI does for implicit runs.
            let t0 = Instant::now();
            let g = radio_graph::GraphProvider::materialize(&graph);
            let t1 = Instant::now();
            let plan = FaultPlan::generate(&g, &fc, rng.next());
            setup.materialize_ns += ns_between(t0, t1);
            setup.plan_ns += ns_between(t1, Instant::now());
            plan
        });
        setup.inputs.push(ScaleInput {
            graph,
            source,
            master,
            plan,
        });
    }
    setup
}

fn scale_config(n: usize, faulted: bool) -> RunConfig {
    let cfg = RunConfig::for_graph(n).with_trace(TraceLevel::SummaryOnly);
    if faulted {
        // E-ROB's round budget.
        cfg.with_max_rounds((24.0 * (n as f64).ln()).ceil() as u32)
    } else {
        cfg
    }
}

/// Decision-timing sample strides.  A decision call costs a few hundred
/// nanoseconds (64 lanes) or a few tens (one lane), so reading the clock
/// on every call would dominate what it measures.
const LANE_DECIDE_STRIDE: u64 = 4;
const SCALAR_DECIDE_STRIDE: u64 = 16;

struct ScaleUnit {
    lanes: Vec<RunResult>,
    plan: Plan,
    started: Instant,
    trace: Option<UnitTrace>,
}

fn run_scale_unit<P: Protocol>(
    input: &ScaleInput,
    lanes: usize,
    faulted: bool,
    proto: P,
    traced: bool,
) -> ScaleUnit {
    let n = radio_graph::GraphProvider::n(&input.graph);
    let cfg = scale_config(n, faulted);
    let start = Instant::now();
    if traced {
        let provider = TracedProvider::new(&input.graph);
        let mut spec = RunSpec::on_provider(&provider, 1, input.source)
            .with_config(cfg)
            .with_lanes(lanes)
            .with_master_seed(input.master);
        if let Some(plan) = input.plan.as_ref() {
            spec = spec.with_faults(plan);
        }
        let stride = if faulted {
            SCALAR_DECIDE_STRIDE
        } else {
            LANE_DECIDE_STRIDE
        };
        let mut tp = TracedProtocol::new(proto, start, stride, Some(&provider));
        let outcome = spec.run(&mut tp);
        ScaleUnit {
            lanes: outcome.lanes,
            plan: outcome.plan,
            started: start,
            trace: Some(tp.finish(Instant::now())),
        }
    } else {
        let mut spec = RunSpec::on_provider(&input.graph, 1, input.source)
            .with_config(cfg)
            .with_lanes(lanes)
            .with_master_seed(input.master);
        if let Some(plan) = input.plan.as_ref() {
            spec = spec.with_faults(plan);
        }
        let mut proto = proto;
        let outcome = spec.run(&mut proto);
        ScaleUnit {
            lanes: outcome.lanes,
            plan: outcome.plan,
            started: start,
            trace: None,
        }
    }
}

impl ScaleInput {
    /// Scalar re-runs of `check_lanes` of one unit on the materialized
    /// `graph`, plus the completion or fault-summary checks of every lane.
    fn recheck(
        &self,
        checks: &mut Checks,
        what: &str,
        graph: &Graph,
        unit: &ScaleUnit,
        check_lanes: &[usize],
        reference: bool,
    ) {
        let faulted = self.plan.is_some();
        let n = graph.n();
        let level = if reference {
            TraceLevel::PerRound
        } else {
            TraceLevel::SummaryOnly
        };
        let cfg = scale_config(n, faulted).with_trace(level);
        let p = scale_p(n);
        checks.lanes_or_faults(&unit.lanes, faulted);
        for &lane in check_lanes {
            let mut spec = RunSpec::on_graph(graph, self.source).with_config(cfg);
            if let Some(plan) = self.plan.as_ref() {
                spec = spec.with_faults(plan);
            }
            let mut rng = child_rng(self.master, lane as u64);
            let scalar = if faulted {
                spec.run_with_rng(&mut Restartable::auto(EgDistributed::new(p)), &mut rng)
            } else {
                spec.run_with_rng(&mut EgDistributed::new(p), &mut rng)
            }
            .into_single();
            checks.same_lane(&format!("{what} lane {lane}"), &unit.lanes[lane], &scalar);
            if reference {
                checks.reference.add(&scalar);
            }
        }
    }
}

fn scale(opt: &Options, faulted: bool) -> Outcome {
    let name = if faulted {
        "scale-faulted"
    } else {
        "scale-lanes"
    };
    let n = match (faulted, opt.toy) {
        (false, false) => 200_000,
        (true, false) => 50_000,
        (false, true) => 5_000,
        (true, true) => 3_000,
    };
    let lanes = if faulted { 1 } else { LANES };
    let pool = if faulted { 3 } else { 4 };
    // A faulted set-up (materialize + plan) takes about 0.13 s and moves
    // with the shared host from block to block, so it takes more blocks.
    let (blocks, per_block) = if faulted { (15, 1) } else { (11, 1000) };
    let (setup, setup_s) = setup_median(blocks, per_block, || {
        scale_setup(opt.seed, name, n, pool, faulted)
    });
    let p = scale_p(n);
    let unit = |i: usize, traced: bool| {
        let input = &setup.inputs[i % setup.inputs.len()];
        if faulted {
            run_scale_unit(
                input,
                lanes,
                true,
                Restartable::auto(EgDistributed::new(p)),
                traced,
            )
        } else {
            run_scale_unit(input, lanes, false, EgDistributed::new(p), traced)
        }
    };
    // The reference units whose checked lanes give the simulated metrics.
    let (ref_units, ref_lanes) = if faulted { (3, 1) } else { (1, 8) };
    let check = |checks: &mut Checks, units: &[ScaleUnit], reference: bool| {
        let mut materialized: Vec<Option<Graph>> = (0..setup.inputs.len()).map(|_| None).collect();
        for (i, u) in units.iter().enumerate() {
            let slot = i % setup.inputs.len();
            let input = &setup.inputs[slot];
            let g = materialized[slot]
                .get_or_insert_with(|| radio_graph::GraphProvider::materialize(&input.graph));
            let is_ref = reference && i < ref_units;
            let count = if is_ref { ref_lanes } else { 1 };
            let mut chosen: Vec<usize> = Vec::new();
            let mut k = 0u64;
            while chosen.len() < count.min(lanes) {
                let l = sampled_lane(input.master, k) % lanes;
                k += 1;
                if !chosen.contains(&l) {
                    chosen.push(l);
                }
            }
            input.recheck(checks, &format!("{name} unit {i}"), g, u, &chosen, is_ref);
        }
    };
    let mut out = Outcome::default();
    if !opt.traced {
        let (units, secs) = timed_loop(opt.seconds, ref_units, |i| unit(i, false));
        let rss = peak_rss_mib();
        let mut checks = Checks::default();
        check(&mut checks, &units, true);
        out.units = units.len();
        out.attempted = units.iter().map(|u| u.lanes.len() as u64).sum();
        out.digest = units
            .iter()
            .fold(FNV_START, |h, u| digest_runs(h, &u.plan, &u.lanes));
        let residual = if faulted { checks.residual_frac() } else { 0.0 };
        let rate = unit_rate(units.iter().map(|u| u.lanes.len() as u64), &secs);
        finish_plain(&mut out, rate, setup_s, rss, checks, residual);
        return out;
    }
    let threads = thread_budget(usize::MAX);
    let mut pairs = Pairs::default();
    let mut layers = RoundLayers::default();
    let mut checks = Checks::default();
    let mut plain_units = Vec::new();
    let trace_start = Instant::now();
    // Two pairs, in opposite orders, on two different inputs.
    for i in 0..2 {
        let ((plain, cpu_s), plain_s, traced, traced_s) =
            alternate(i, || with_cpu(|| unit(i, false)), || unit(i, true));
        pairs.untraced_s += plain_s;
        pairs.untraced_cpu_s += cpu_s;
        pairs.traced_s += traced_s;
        pairs.trials += plain.lanes.len() as u64;
        checks.same_outputs(
            &format!("{name} unit {i}"),
            &plain.plan,
            &plain.lanes,
            &traced.plan,
            &traced.lanes,
        );
        let trace = traced.trace.as_ref().expect("traced unit has a trace");
        layers.add_unit(&traced.plan, &traced.lanes, trace);
        // Regeneration: a visit-free pass over all rows (the units run one
        // shard, so every fill sweeps 0..n), scaled by the fill calls.
        let input = &setup.inputs[i % setup.inputs.len()];
        let (pass_ns, edges) = regen_pass(&input.graph, 0..n as NodeId, 3);
        layers.regen_ns += pass_ns * trace.fill_calls as f64;
        layers.edges += edges * trace.fill_calls;
        out.spans.extend(trace.spans(
            i as u64 + 1,
            0,
            ns_between(trace_start, traced.started),
            vec![
                ("engine", Json::from(traced.plan.engine.as_str())),
                ("n", Json::from(n)),
                ("lanes", Json::from(lanes)),
            ],
        ));
        plain_units.push(plain);
    }
    check(&mut checks, &plain_units, false);
    out.units = plain_units.len();
    out.attempted = pairs.trials;
    out.digest = plain_units
        .iter()
        .fold(FNV_START, |h, u| digest_runs(h, &u.plan, &u.lanes));
    out.untraced_trials_per_s = pairs.untraced_tps();
    layers.emit(&mut out);
    emit_common(
        &mut out,
        &Common {
            sample_s: 0.0,
            accept_ratio: 0.0,
            materialize_s: (setup.materialize_ns + layers.materialize_ns) as f64 / 1e9,
            plan_s: setup.plan_ns as f64 / 1e9,
            // One unit at a time on `threads` cores: the idle share shows.
            utilization: pairs.utilization(threads),
            overhead: pairs.overhead(),
        },
    );
    emit_node_layers(&mut out, &NodeLayers::default());
    finish_traced(&mut out, checks);
    out
}

// ----------------------------------------------------------- node-partition

fn node_configs(seed: u64, toy: bool, count: usize) -> Vec<WorkloadConfig> {
    let base = labeled_seed(seed, "node-partition/unit");
    (0..count)
        .map(|i| {
            let (n, ticks, heal) = if toy {
                (128, 400, 110)
            } else {
                (4096, 1_200, 310)
            };
            let mut cfg = WorkloadConfig {
                n,
                degree: 12.0,
                ops: 16,
                ticks,
                trials: 4,
                seed: derive_seed(base, i as u64),
                ..WorkloadConfig::default()
            };
            cfg.net.partitions = vec![Partition {
                from: 10,
                to: heal,
                groups: 2,
            }];
            cfg.faults.crash_rate = 0.05;
            cfg.faults.sleep_rate = 0.05;
            cfg
        })
        .collect()
}

/// Units whose reports give the simulated node metrics.
const NODE_REF_UNITS: usize = 8;

fn node_check(checks: &mut Checks, i: usize, r: &NodeReport) {
    checks.node(&format!("node-partition unit {i}"), r);
}

fn node_partition(opt: &Options) -> Outcome {
    let mut out = Outcome::default();
    // Short blocks, many of them: a block that a preemption hits is an
    // outlier the median drops.
    let (cfgs, setup_s) = setup_median(51, 20, || node_configs(opt.seed, opt.toy, 256));
    let cfg = |i: usize| &cfgs[i % cfgs.len()];
    if !opt.traced {
        let (reports, secs) = timed_loop(opt.seconds, NODE_REF_UNITS, |i| run_workload(cfg(i)));
        let rss = peak_rss_mib();
        let mut checks = Checks::default();
        for (i, r) in reports.iter().enumerate() {
            node_check(&mut checks, i, r);
        }
        checks.node_reference = Some(Reference::node(
            &reports[..NODE_REF_UNITS.min(reports.len())],
        ));
        out.units = reports.len();
        out.attempted = reports.iter().map(|r| r.trials as u64).sum();
        out.digest = reports.iter().fold(FNV_START, |h, r| {
            fnv(h, r.clone().strip_timing().to_json().render().as_bytes())
        });
        let rate = unit_rate(reports.iter().map(|r| r.trials as u64), &secs);
        finish_plain(&mut out, rate, setup_s, rss, checks, 0.0);
        return out;
    }
    let units = if opt.toy { 1 } else { 2 };
    let threads = thread_budget(usize::MAX);
    let mut pairs = Pairs::default();
    let mut checks = Checks::default();
    let mut layers = NodeLayers::default();
    let mut reports = Vec::new();
    let trace_start = Instant::now();
    for i in 0..units {
        let ((plain, cpu_s), plain_s, (replayed, l, started), traced_s) = alternate(
            i,
            || with_cpu(|| run_workload(cfg(i))),
            || {
                let started = Instant::now();
                let (report, layers) = replay_workload(cfg(i));
                (report, layers, started)
            },
        );
        let unit_start = ns_between(trace_start, started);
        pairs.untraced_s += plain_s;
        pairs.untraced_cpu_s += cpu_s;
        pairs.traced_s += traced_s;
        pairs.trials += plain.trials as u64;
        let stripped = plain.clone().strip_timing();
        if stripped != replayed {
            checks.fail(format!(
                "node-partition unit {i}: traced replay differs from run_workload \
                 (replay {:?} vs library {:?}); its layer numbers are invalid",
                replayed, stripped
            ));
        }
        node_check(&mut checks, i, &plain);
        out.spans.push(span(
            i as u64 + 1,
            0,
            "unit",
            unit_start,
            unit_start + (traced_s * 1e9) as u64,
            Json::object([
                ("trials", Json::from(plain.trials)),
                ("net_busy_ns", Json::from(l.net_busy_ns)),
                ("node_busy_ns", Json::from(l.node_busy_ns)),
                ("topology_ns", Json::from(l.topology_ns)),
                ("trial_ns", Json::array(l.trial_ns.iter().copied())),
            ]),
        ));
        layers.merge(&l);
        reports.push(plain);
    }
    out.units = units;
    out.attempted = pairs.trials;
    out.digest = reports.iter().fold(FNV_START, |h, r| {
        fnv(h, r.clone().strip_timing().to_json().render().as_bytes())
    });
    out.untraced_trials_per_s = pairs.untraced_tps();
    RoundLayers::default().emit(&mut out);
    emit_common(
        &mut out,
        &Common {
            sample_s: layers.topology_ns as f64 / 1e9,
            accept_ratio: 0.0,
            materialize_s: 0.0,
            plan_s: 0.0,
            utilization: pairs.utilization(threads),
            overhead: pairs.overhead(),
        },
    );
    emit_node_layers(&mut out, &layers);
    finish_traced(&mut out, checks);
    out
}

// ------------------------------------------------------------------ output

fn finish_plain(
    out: &mut Outcome,
    trials_per_s: f64,
    setup_s: f64,
    rss: f64,
    checks: Checks,
    residual_frac: f64,
) {
    out.failed = checks.failed;
    out.failures = checks.failures.clone();
    let failed_frac = (out.failed as f64 / out.attempted.max(1) as f64 + residual_frac).min(1.0);
    out.metric("trials_per_s", trials_per_s, "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("success_frac", 1.0 - failed_frac, "ratio");
    let sim = checks.simulated();
    out.metric("msgs_per_op", sim.msgs_per_op, "msgs");
    out.metric("delivery_p50_ticks", sim.p50, "ticks");
    out.metric("delivery_p99_ticks", sim.p99, "ticks");
    out.metric("post_heal_ticks", sim.post_heal, "ticks");
}

fn finish_traced(out: &mut Outcome, checks: Checks) {
    out.failed = checks.failed;
    out.failures = checks.failures;
}

/// Runs the workload `opt.workload` once.
pub fn run(opt: &Options) -> Result<Outcome, String> {
    match opt.workload.as_str() {
        "mc-stored" => Ok(mc_stored(opt)),
        "scale-lanes" => Ok(scale(opt, false)),
        "scale-faulted" => Ok(scale(opt, true)),
        "node-partition" => Ok(node_partition(opt)),
        other => Err(format!("unknown workload {other:?}")),
    }
}
