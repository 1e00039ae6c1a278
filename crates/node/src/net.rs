//! Deterministic event-loop network with link-level fault injection.
//!
//! [`SimNet`] is the cluster's only transport: a priority queue of
//! in-flight [`Message`]s ordered by `(deliver_at, seq)`, where `seq` is a
//! global send counter — total order, no wall clock, no threads, so a run
//! is a pure function of the master seed.  Time is an integer tick; one
//! protocol *round* of the lock-step engines maps to one tick here.
//!
//! The fault surface adapts [`FaultPlan`] — built for the round engines —
//! into link faults, plus two net-only fault axes the round barrier cannot
//! express:
//!
//! | plan fault | link semantics |
//! |---|---|
//! | crash(v, r) | from tick `r`, v sends nothing and all deliveries to v drop |
//! | sleep(v, w) | same as crash for ticks `< w`, then the node is up |
//! | jam(v, a..=b) | every link incident to v drops messages delivered in the window |
//! | burst (GE) | per-receiver two-state channel, stepped once per tick in id order; deliveries to a bad channel drop |
//! | — partitions | group links cut for a tick window ([`Partition`]) |
//! | — iid loss | per-message drop, decided by a seed/src/dest/seq hash |
//!
//! Drop decisions for crash/sleep/jam/burst/partition are evaluated at
//! **delivery** time (a message crossing a window boundary in flight is
//! lost — links have no memory), while iid loss and delay jitter are
//! decided at **send** time from a SplitMix64 hash so they are independent
//! of delivery order.

use radio_graph::{labeled_seed, NodeId, Xoshiro256pp};
use radio_sim::FaultPlan;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::msg::Message;

/// A group partition: for ticks `from..=to` the cluster is split into
/// `groups` contiguous id blocks and messages crossing blocks are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First partitioned tick.
    pub from: u64,
    /// Last partitioned tick (inclusive); healing starts at `to + 1`.
    pub to: u64,
    /// Number of contiguous id blocks (≥ 2).
    pub groups: u32,
}

impl Partition {
    /// Parses `FROM:LEN[:GROUPS]` (groups defaults to 2).
    pub fn parse(spec: &str) -> Result<Partition, String> {
        let mut parts = spec.split(':');
        let int = |what: &str, s: Option<&str>| -> Result<u64, String> {
            s.ok_or_else(|| format!("partition {spec:?} is missing {what}"))?
                .parse()
                .map_err(|_| format!("partition {what}: bad integer in {spec:?}"))
        };
        let from = int("FROM", parts.next())?;
        let len = int("LEN", parts.next())?;
        let groups = match parts.next() {
            None => 2,
            Some(g) => g
                .parse()
                .map_err(|_| format!("partition GROUPS: bad integer in {spec:?}"))?,
        };
        if parts.next().is_some() {
            return Err(format!("partition {spec:?} is not FROM:LEN[:GROUPS]"));
        }
        if len == 0 {
            return Err(format!("partition {spec:?} has zero length"));
        }
        if groups < 2 {
            return Err(format!("partition needs >= 2 groups, got {groups}"));
        }
        Ok(Partition {
            from,
            to: from + len - 1,
            groups,
        })
    }

    /// Which block node `v` falls into for a cluster of `n` nodes.
    pub fn group_of(&self, v: NodeId, n: usize) -> u32 {
        if n == 0 {
            return 0;
        }
        ((v as u64 * self.groups as u64) / n as u64) as u32
    }
}

/// Network-level fault and delay configuration (the axes [`FaultPlan`]
/// does not carry).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetConfig {
    /// Per-message extra delay is hash-uniform in `0..=delay_jitter`
    /// ticks on top of the 1-tick link latency.
    pub delay_jitter: u64,
    /// I.i.d. per-message drop probability.
    pub loss: f64,
    /// Group partitions (may overlap; a message crossing any active
    /// partition drops).
    pub partitions: Vec<Partition>,
}

/// Message-drop counters by cause, plus totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Messages accepted from senders.
    pub sent: u64,
    /// Messages handed to their receiver.
    pub delivered: u64,
    /// Dropped: receiver (or sender at send time) crashed/asleep.
    pub dropped_down: u64,
    /// Dropped: sender or receiver jammed at delivery.
    pub dropped_jam: u64,
    /// Dropped: an active partition separated the endpoints.
    pub dropped_partition: u64,
    /// Dropped: receiver's burst channel was bad.
    pub dropped_burst: u64,
    /// Dropped: iid loss coin.
    pub dropped_loss: u64,
}

impl NetStats {
    /// Total drops across all causes.
    pub fn dropped(&self) -> u64 {
        self.dropped_down
            + self.dropped_jam
            + self.dropped_partition
            + self.dropped_burst
            + self.dropped_loss
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlight {
    deliver_at: u64,
    seq: u64,
    msg: Message,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// SplitMix64 finalizer — the per-message hash behind loss and jitter.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The deterministic in-process network.
#[derive(Debug)]
pub struct SimNet {
    n: usize,
    cfg: NetConfig,
    plan: FaultPlan,
    queue: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
    hash_seed: u64,
    /// Per-receiver Gilbert–Elliott channel state (true = bad), stepped
    /// once per tick in ascending id order from its own RNG stream.
    burst_bad: Vec<bool>,
    burst_rng: Xoshiro256pp,
    /// Statistics by drop cause.
    pub stats: NetStats,
}

impl SimNet {
    /// A network for `n` nodes.  `plan` supplies crash/sleep/jam/burst;
    /// `cfg` supplies partitions, loss, and jitter.  All randomness
    /// derives from `master` via labeled streams, so two nets built from
    /// the same arguments behave identically.
    pub fn new(n: usize, plan: FaultPlan, cfg: NetConfig, master: u64) -> SimNet {
        assert_eq!(plan.n(), n, "fault plan size mismatch");
        SimNet {
            n,
            cfg,
            plan,
            queue: BinaryHeap::new(),
            seq: 0,
            hash_seed: labeled_seed(master, "net/msg"),
            burst_bad: vec![false; n],
            burst_rng: Xoshiro256pp::new(labeled_seed(master, "net/burst")),
            stats: NetStats::default(),
        }
    }

    /// The fault plan driving node availability.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether node `v` is up (awake and not crashed) at `tick`.
    pub fn node_up(&self, v: NodeId, tick: u64) -> bool {
        self.plan.node_up(v, clamp_round(tick))
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Steps the per-receiver burst channels for `tick`.  Call exactly
    /// once per tick, before [`SimNet::deliver_due`]; draws are in
    /// ascending node-id order (and nothing is drawn without a burst
    /// plan), mirroring one lane of `radio_sim::FaultSession::begin_round`.
    pub fn begin_tick(&mut self, _tick: u64) {
        if let Some(b) = self.plan.burst() {
            for bad in self.burst_bad.iter_mut() {
                if *bad {
                    if self.burst_rng.coin(b.p_good) {
                        *bad = false;
                    }
                } else if self.burst_rng.coin(b.p_bad) {
                    *bad = true;
                }
            }
        }
    }

    /// Accepts a message from its sender at `now`.  A down or jammed
    /// sender transmits nothing; the iid loss coin and the delay jitter
    /// are decided here from the per-message hash.
    pub fn send(&mut self, now: u64, msg: Message) {
        self.stats.sent += 1;
        let round = clamp_round(now);
        if !self.internal_up(msg.src, now) {
            self.stats.dropped_down += 1;
            return;
        }
        if self.is_node(msg.src) && self.plan.jammed(msg.src, round) {
            self.stats.dropped_jam += 1;
            return;
        }
        let h = mix(self.hash_seed
            ^ mix((msg.src as u64) << 32 | msg.dest as u64)
            ^ self.seq.wrapping_mul(0x2545f4914f6cdd1d));
        if self.cfg.loss > 0.0 && ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.cfg.loss {
            self.seq += 1;
            self.stats.dropped_loss += 1;
            return;
        }
        let jitter = if self.cfg.delay_jitter == 0 {
            0
        } else {
            mix(h) % (self.cfg.delay_jitter + 1)
        };
        self.queue.push(Reverse(InFlight {
            deliver_at: now + 1 + jitter,
            seq: self.seq,
            msg,
        }));
        self.seq += 1;
    }

    /// Pops every message due at `now` (in `(deliver_at, seq)` order),
    /// applying delivery-time drops: down receiver, jammed endpoint,
    /// active partition, bad burst channel.
    pub fn deliver_due(&mut self, now: u64) -> Vec<Message> {
        let round = clamp_round(now);
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.deliver_at > now {
                break;
            }
            let InFlight { msg, .. } = self.queue.pop().expect("peeked").0;
            if !self.internal_up(msg.dest, now) {
                self.stats.dropped_down += 1;
                continue;
            }
            let jammed = |v: NodeId| self.is_node(v) && self.plan.jammed(v, round);
            if jammed(msg.src) || jammed(msg.dest) {
                self.stats.dropped_jam += 1;
                continue;
            }
            if self.partitioned(msg.src, msg.dest, now) {
                self.stats.dropped_partition += 1;
                continue;
            }
            if self.is_node(msg.dest) && self.burst_bad[msg.dest as usize] {
                self.stats.dropped_burst += 1;
                continue;
            }
            self.stats.delivered += 1;
            out.push(msg);
        }
        out
    }

    /// Whether an active partition separates `a` and `b` at `tick`.
    /// Client messages (either endpoint outside the cluster) never
    /// partition.
    pub fn partitioned(&self, a: NodeId, b: NodeId, tick: u64) -> bool {
        if !self.is_node(a) || !self.is_node(b) {
            return false;
        }
        self.cfg.partitions.iter().any(|p| {
            p.from <= tick && tick <= p.to && p.group_of(a, self.n) != p.group_of(b, self.n)
        })
    }

    /// The first tick at which every partition has healed (0 when there
    /// are none).
    pub fn heal_tick(&self) -> u64 {
        self.cfg
            .partitions
            .iter()
            .map(|p| p.to + 1)
            .max()
            .unwrap_or(0)
    }

    fn is_node(&self, v: NodeId) -> bool {
        (v as usize) < self.n
    }

    /// Client endpoints are always up; cluster endpoints follow the plan.
    fn internal_up(&self, v: NodeId, tick: u64) -> bool {
        !self.is_node(v) || self.node_up(v, tick)
    }
}

/// Tick → 1-based fault-plan round (saturating).
fn clamp_round(tick: u64) -> u32 {
    u32::try_from(tick).unwrap_or(u32::MAX).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Body;

    fn gossip(src: NodeId, dest: NodeId) -> Message {
        Message {
            src,
            dest,
            body: Body::Gossip { values: vec![1] },
        }
    }

    fn quiet_net(n: usize) -> SimNet {
        SimNet::new(n, FaultPlan::new(n), NetConfig::default(), 7)
    }

    #[test]
    fn delivery_order_is_time_then_seq() {
        let mut net = quiet_net(4);
        net.send(1, gossip(0, 1));
        net.send(1, gossip(0, 2));
        net.send(1, gossip(1, 3));
        assert!(net.deliver_due(1).is_empty(), "1-tick link latency");
        let due = net.deliver_due(2);
        assert_eq!(
            due.iter().map(|m| m.dest).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "send order preserved at equal delivery times"
        );
        assert_eq!(net.stats.delivered, 3);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn crashed_and_sleeping_nodes_drop_both_directions() {
        let mut plan = FaultPlan::new(3);
        plan.crash(1, 5).sleep(2, 4);
        let mut net = SimNet::new(3, plan, NetConfig::default(), 7);
        // Sleeping receiver: dropped at delivery.
        net.send(1, gossip(0, 2));
        assert!(net.deliver_due(2).is_empty());
        assert_eq!(net.stats.dropped_down, 1);
        // Awake after wake tick.
        net.send(4, gossip(0, 2));
        assert_eq!(net.deliver_due(5).len(), 1);
        // Crashed sender: dropped at send.
        net.send(5, gossip(1, 0));
        assert_eq!(net.stats.dropped_down, 2);
        // Crash mid-flight: sent while up, delivered after the crash.
        net.send(4, gossip(0, 1));
        assert!(net.deliver_due(6).is_empty());
        assert_eq!(net.stats.dropped_down, 3);
    }

    #[test]
    fn jam_windows_cut_incident_links() {
        let mut plan = FaultPlan::new(3);
        plan.jam(1, 3, 4);
        let mut net = SimNet::new(3, plan, NetConfig::default(), 7);
        net.send(2, gossip(0, 1)); // delivered at 3, inside the window
        assert!(net.deliver_due(3).is_empty());
        assert_eq!(net.stats.dropped_jam, 1);
        net.send(3, gossip(1, 0)); // jammed sender
        assert_eq!(net.stats.dropped_jam, 2);
        net.send(4, gossip(0, 2)); // 0–2 link unaffected
        assert_eq!(net.deliver_due(5).len(), 1);
        net.send(5, gossip(0, 1)); // window over
        assert_eq!(net.deliver_due(6).len(), 1);
    }

    #[test]
    fn partitions_cut_cross_group_links_then_heal() {
        let cfg = NetConfig {
            partitions: vec![Partition {
                from: 10,
                to: 19,
                groups: 2,
            }],
            ..NetConfig::default()
        };
        let mut net = SimNet::new(4, FaultPlan::new(4), cfg, 7);
        assert_eq!(net.heal_tick(), 20);
        // Nodes 0,1 vs 2,3.
        net.send(10, gossip(0, 3));
        assert!(net.deliver_due(11).is_empty());
        assert_eq!(net.stats.dropped_partition, 1);
        net.send(10, gossip(0, 1)); // same group: flows
        assert_eq!(net.deliver_due(11).len(), 1);
        net.send(20, gossip(0, 3)); // healed
        assert_eq!(net.deliver_due(21).len(), 1);
        // Client traffic is never partitioned.
        assert!(!net.partitioned(crate::msg::CLIENT, 3, 12));
    }

    #[test]
    fn partition_parse_grammar() {
        assert_eq!(
            Partition::parse("10:5").unwrap(),
            Partition {
                from: 10,
                to: 14,
                groups: 2
            }
        );
        assert_eq!(Partition::parse("1:100:4").unwrap().groups, 4);
        assert!(Partition::parse("10").is_err());
        assert!(Partition::parse("10:0").is_err());
        assert!(Partition::parse("10:5:1").is_err());
        assert!(Partition::parse("10:5:2:9").is_err());
        assert!(Partition::parse("x:5").is_err());
    }

    #[test]
    fn iid_loss_is_seed_deterministic() {
        let run = |master: u64| -> u64 {
            let cfg = NetConfig {
                loss: 0.5,
                ..NetConfig::default()
            };
            let mut net = SimNet::new(2, FaultPlan::new(2), cfg, master);
            for _ in 0..200 {
                net.send(1, gossip(0, 1));
            }
            net.stats.dropped_loss
        };
        let a = run(11);
        assert!(a > 50 && a < 150, "loss rate wildly off: {a}/200");
        assert_eq!(a, run(11), "same master, same drops");
        assert_ne!(run(11), run(12), "different masters diverge");
    }

    #[test]
    fn burst_channel_drops_at_bad_receivers() {
        let mut plan = FaultPlan::new(2);
        plan.set_burst(1.0, 0.0); // all channels bad from tick 1, forever
        let mut net = SimNet::new(2, plan, NetConfig::default(), 7);
        net.begin_tick(1);
        net.send(1, gossip(0, 1));
        net.begin_tick(2);
        assert!(net.deliver_due(2).is_empty());
        assert_eq!(net.stats.dropped_burst, 1);
    }

    #[test]
    fn jitter_spreads_deliveries_deterministically() {
        let cfg = NetConfig {
            delay_jitter: 3,
            ..NetConfig::default()
        };
        let collect = |master: u64| -> Vec<usize> {
            let mut net = SimNet::new(2, FaultPlan::new(2), cfg.clone(), master);
            for _ in 0..32 {
                net.send(1, gossip(0, 1));
            }
            (2..=5).map(|t| net.deliver_due(t).len()).collect()
        };
        let a = collect(5);
        assert_eq!(a.iter().sum::<usize>(), 32, "everything arrives");
        assert!(
            a.iter().filter(|&&c| c > 0).count() > 1,
            "spread out: {a:?}"
        );
        assert_eq!(a, collect(5));
    }
}
