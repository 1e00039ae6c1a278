//! A traced replay of `radio_node::run_workload`.
//!
//! The replay drives [`SimNet`] and [`GossipNode`] through their public
//! functions in the same order as the library's trial loop, timing the
//! network and node layers and counting their traffic.  It rebuilds the
//! same [`NodeReport`]; the caller compares it with `run_workload`'s
//! report for the same configuration, so a replay that drifted from the
//! library would be reported as invalid rather than measured.

use std::collections::VecDeque;
use std::time::Instant;

use radio_broadcast::distributed::{EgDistributed, Restartable};
use radio_graph::{labeled_seed, Graph, NodeId};
use radio_node::node::client_msg;
use radio_node::{
    connected_topology, percentile, Body, GossipNode, NodeReport, SimNet, WorkloadConfig, CLIENT,
    NODE_REPORT_SCHEMA_VERSION, SOURCE,
};
use radio_sim::{run_trials, FaultPlan};

use crate::trace::{ns_between, Sampler};

/// Layer counters of one replayed trial (or a sum of trials).
#[derive(Debug, Clone, Default)]
pub struct NodeLayers {
    pub net_busy_ns: u64,
    pub node_busy_ns: u64,
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub queue_peak: u64,
    pub gossip_sent: u64,
    pub acks_sent: u64,
    pub retries: u64,
    /// Time sampling the gossip topology (`connected_topology`).
    pub topology_ns: u64,
    /// Values carried by delivered gossip messages.
    pub gossip_values: u64,
    /// Of those, values the receiver did not hold yet.
    pub new_values: u64,
    /// Wall time of each trial.
    pub trial_ns: Vec<u64>,
}

impl NodeLayers {
    pub fn merge(&mut self, o: &NodeLayers) {
        self.net_busy_ns += o.net_busy_ns;
        self.node_busy_ns += o.node_busy_ns;
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.queue_peak = self.queue_peak.max(o.queue_peak);
        self.gossip_sent += o.gossip_sent;
        self.acks_sent += o.acks_sent;
        self.retries += o.retries;
        self.topology_ns += o.topology_ns;
        self.gossip_values += o.gossip_values;
        self.new_values += o.new_values;
        self.trial_ns.extend_from_slice(&o.trial_ns);
    }
}

struct Trial {
    coverage: f64,
    converged: bool,
    protocol_msgs: u64,
    latencies: Vec<u64>,
    stale_window_max: u64,
    post_heal_ticks: u64,
    layers: NodeLayers,
}

/// Never-crashing nodes reachable from [`SOURCE`] through never-crashing
/// nodes: the set the library measures coverage over.
fn eligible_nodes(g: &Graph, plan: &FaultPlan, horizon: u64) -> Vec<bool> {
    let n = g.n();
    let alive = |v: NodeId| plan.crash_round(v).is_none_or(|r| u64::from(r) > horizon);
    let mut eligible = vec![false; n];
    if n == 0 || !alive(SOURCE) {
        return eligible;
    }
    let mut queue = VecDeque::from([SOURCE]);
    eligible[SOURCE as usize] = true;
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if !eligible[w as usize] && alive(w) {
                eligible[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    eligible
}

/// Clock-read strides: `on_tick` runs for every live node every tick, so
/// timing each call would dominate what it measures.
const TICK_STRIDE: u64 = 16;
const CALL_STRIDE: u64 = 4;

fn replay_trial(cfg: &WorkloadConfig, trial_master: u64) -> Trial {
    let started = Instant::now();
    let n = cfg.n;
    let mut topo_rng = radio_graph::Xoshiro256pp::new(labeled_seed(trial_master, "node/topo"));
    let g = connected_topology(n, cfg.degree, &mut topo_rng);
    let topology_ns = ns_between(started, Instant::now());
    let mut faults = cfg.faults;
    faults.exempt = Some(SOURCE);
    let plan = FaultPlan::generate(&g, &faults, labeled_seed(trial_master, "node/faults"));
    let eligible = eligible_nodes(&g, &plan, cfg.ticks);
    let eligible_count = eligible.iter().filter(|&&e| e).count().max(1);

    let mut net = SimNet::new(
        n,
        plan,
        cfg.net.clone(),
        labeled_seed(trial_master, "node/net"),
    );
    let node_master = labeled_seed(trial_master, "node/protocol");
    let p = (cfg.degree / n as f64).min(1.0);
    let mut nodes: Vec<GossipNode<Restartable<EgDistributed>>> = (0..n as NodeId)
        .map(|id| {
            GossipNode::new(
                Restartable::auto(EgDistributed::new(p)),
                id,
                n,
                g.neighbors(id).to_vec(),
                node_master,
                cfg.backoff,
            )
        })
        .collect();

    let mut net_ticks = Sampler::new(1);
    let mut net_sends = Sampler::new(CALL_STRIDE);
    let mut node_handles = Sampler::new(CALL_STRIDE);
    let mut node_ticks = Sampler::new(TICK_STRIDE);
    let mut layers = NodeLayers {
        topology_ns,
        ..NodeLayers::default()
    };

    let window = (cfg.ticks / 4).max(1);
    let inject_tick = |j: usize| 1 + (j as u64 * window) / cfg.ops.max(1) as u64;
    let value_of = |j: usize| 1_000 + j as u64;

    let mut next_op = 0usize;
    let mut convergence_tick: Option<u64> = None;
    for tick in 1..=cfg.ticks {
        net_ticks.time(|| net.begin_tick(tick));
        let due = net_ticks.time(|| net.deliver_due(tick));
        for msg in due {
            let dest = msg.dest as usize;
            let carried = match &msg.body {
                Body::Gossip { values } => values.len() as u64,
                _ => 0,
            };
            let before = nodes[dest].values().len();
            let node = &mut nodes[dest];
            let outs = node_handles.time(|| node.handle(msg, tick));
            if carried > 0 {
                layers.gossip_values += carried;
                layers.new_values += (nodes[dest].values().len() - before) as u64;
            }
            for out in outs {
                if out.dest != CLIENT {
                    net_sends.time(|| net.send(tick, out));
                }
            }
        }
        while next_op < cfg.ops && inject_tick(next_op) <= tick {
            let op = client_msg(
                SOURCE,
                Body::Broadcast {
                    msg_id: next_op as u64,
                    value: value_of(next_op),
                },
            );
            let source = &mut nodes[SOURCE as usize];
            let _ = node_handles.time(|| source.handle(op, tick));
            next_op += 1;
        }
        for (id, node) in nodes.iter_mut().enumerate() {
            if net.node_up(id as NodeId, tick) {
                for out in node_ticks.time(|| node.on_tick(tick)) {
                    net_sends.time(|| net.send(tick, out));
                }
            }
        }
        layers.queue_peak = layers.queue_peak.max(net.in_flight() as u64);
        if next_op == cfg.ops && convergence_tick.is_none() {
            let covered = (0..n)
                .filter(|&v| eligible[v] && nodes[v].values().len() >= cfg.ops)
                .count();
            if covered == eligible_count {
                convergence_tick = Some(tick);
                break;
            }
        }
    }

    let covered = (0..n)
        .filter(|&v| eligible[v] && nodes[v].values().len() >= cfg.ops)
        .count();
    let mut latencies = Vec::new();
    let mut stale_window_max = 0u64;
    for j in 0..next_op {
        let (value, injected) = (value_of(j), inject_tick(j));
        let mut last = injected;
        for v in 0..n {
            if !eligible[v] {
                continue;
            }
            if let Some(t) = nodes[v].learned_at(value) {
                latencies.push(t.saturating_sub(injected));
                last = last.max(t);
            }
        }
        stale_window_max = stale_window_max.max(last - injected);
    }
    latencies.sort_unstable();

    for nd in &nodes {
        layers.gossip_sent += nd.counters.gossip_sent;
        layers.acks_sent += nd.counters.acks_sent;
        layers.retries += nd.counters.retries;
    }
    layers.net_busy_ns = net_ticks.total_ns() + net_sends.total_ns();
    layers.node_busy_ns = node_handles.total_ns() + node_ticks.total_ns();
    layers.sent = net.stats.sent;
    layers.delivered = net.stats.delivered;
    layers.dropped = net.stats.dropped();
    let heal = net.heal_tick();
    layers.trial_ns.push(ns_between(started, Instant::now()));
    Trial {
        coverage: covered as f64 / eligible_count as f64,
        converged: convergence_tick.is_some(),
        protocol_msgs: layers.gossip_sent + layers.acks_sent,
        latencies,
        stale_window_max,
        post_heal_ticks: if heal == 0 {
            0
        } else {
            convergence_tick.map_or(0, |t| t.saturating_sub(heal))
        },
        layers,
    }
}

/// Replays `run_workload(cfg)` with layer tracing; returns the rebuilt
/// report (timing stripped) and the summed layer counters.
pub fn replay_workload(cfg: &WorkloadConfig) -> (NodeReport, NodeLayers) {
    let trials = run_trials(cfg.trials.max(1), cfg.seed, |_, rng| {
        replay_trial(cfg, rng.next())
    });
    let mut coverage = f64::INFINITY;
    let mut converged_trials = 0;
    let mut latencies = Vec::new();
    let (mut msgs, mut retries) = (0u64, 0u64);
    let (mut stale, mut post_heal) = (0u64, 0u64);
    let mut layers = NodeLayers::default();
    for t in &trials {
        coverage = coverage.min(t.coverage);
        converged_trials += t.converged as usize;
        latencies.extend_from_slice(&t.latencies);
        msgs += t.protocol_msgs;
        retries += t.layers.retries;
        stale = stale.max(t.stale_window_max);
        post_heal = post_heal.max(t.post_heal_ticks);
        layers.merge(&t.layers);
    }
    latencies.sort_unstable();
    let total_ops = (cfg.ops * trials.len()).max(1);
    let report = NodeReport {
        schema_version: NODE_REPORT_SCHEMA_VERSION,
        n: cfg.n,
        ops: cfg.ops,
        ticks: cfg.ticks,
        trials: trials.len(),
        seed: cfg.seed,
        coverage: if coverage.is_finite() { coverage } else { 0.0 },
        converged_trials,
        msgs_per_op: msgs as f64 / total_ops as f64,
        msgs_sent: layers.sent,
        msgs_delivered: layers.delivered,
        msgs_dropped: layers.dropped,
        delivery_p50: percentile(&latencies, 50),
        delivery_p99: percentile(&latencies, 99),
        stale_window_max: stale,
        post_heal_ticks: post_heal,
        retries,
        wall_ns: 0,
    };
    (report, layers)
}
