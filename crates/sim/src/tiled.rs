//! Tiled SIMD + intra-round multithreaded runner: up to
//! [`MAX_TILED_LANES`] protocol trials per adjacency sweep.
//!
//! The [batch runner](crate::batch) packs 64 trials into one `u64` per
//! node; this module widens that to [`TileLayout`] rows of up to 16
//! words (1024 lanes) resolved by the gather/compress sweep of
//! [`crate::wide::sweep_rows`], and — because the two-plane saturating
//! counter is commutative and every listener row is independent —
//! fans the per-round sweep across scoped worker threads with the
//! work-stealing block loop that the provider sweeps' fills share.
//!
//! ## Determinism contract
//!
//! Lane `l` of a tiled plan with master seed `s` is **bit-identical** to
//! the scalar run on the RNG stream `child_rng(s, l)` — the same contract
//! as the batch engine, extended past 64 lanes — *and* the result is
//! identical for every thread count (`RADIO_THREADS=1`, 3, 8, …).  Both
//! properties hold by construction:
//!
//! * each round is split into a parallel **merge phase** that only
//!   *stores* per-row reachability words (order-independent: row blocks
//!   are disjoint, and the saturating counter commutes), and a serial
//!   **resolution phase** that walks the stored rows in ascending node
//!   order drawing loss coins in the scalar order;
//! * every lane owns a private RNG, so lanes never perturb each other's
//!   streams, and no RNG is ever touched on a worker thread.
//!
//! The contract is pinned by the `kernel_differential` suite, which
//! replays plain, lossy, and faulted runs at several thread counts.
//!
//! Like the batch engine, the tiled engine implies
//! [`TransmitterPolicy::InformedOnly`](crate::TransmitterPolicy::InformedOnly).
//! It keeps its own multi-word loop rather than the shared single-word
//! lane loop of the crate-private `driver` module, whose per-lane
//! bookkeeping it shares.
//! The planner routes small jobs (≤ 64 lanes, below the
//! [`crate::kernel::tiled_is_cheaper`] break-even) to the batch engine
//! unless the caller forces [`EngineKernel::Tiled`](crate::EngineKernel::Tiled).

use radio_graph::{child_rng, AlignedWords, NodeId, TileLayout, Xoshiro256pp};

use crate::batch::bits;
use crate::bitset::BitSet;
use crate::driver::{lane_summaries, LaneBook};
use crate::exec::RunSpec;
use crate::fault::FaultSession;
use crate::kernel::KernelUsed;
use crate::protocol::Protocol;
use crate::runner::{block_workers, for_each_block, Disjoint};
use crate::state::NOT_INFORMED;
use crate::trace::RunResult;
use crate::wide::{sweep_rows, TiledTable};

/// Maximum number of trial lanes in one tiled run (16 × 64-bit words
/// per node row).
pub const MAX_TILED_LANES: usize = TileLayout::MAX_LANES;

/// Listener rows per work-stealing block.  A multiple of 64 so every
/// block owns whole words of the `full_bits`/`reached_bits` bitmaps —
/// which is what lets worker threads write them without atomics.
const BLOCK_ROWS: usize = 256;

/// Tiled execution core: the body behind every
/// [`PlannedEngine::Tiled`](crate::exec::PlannedEngine::Tiled) plan.
/// Lane `l` runs on `child_rng(master_seed, l)`, and the intra-round
/// worker count (`threads`, else [`thread_budget`]) never affects results
/// — only the `threads` field of the [`RunResult`]s.
pub(crate) fn run_tiled<P: Protocol + ?Sized>(
    spec: &RunSpec<'_>,
    protocol: &mut P,
    lanes: usize,
    threads: Option<usize>,
) -> Vec<RunResult> {
    assert!(
        (1..=MAX_TILED_LANES).contains(&lanes),
        "lanes must be in 1..={MAX_TILED_LANES}, got {lanes}"
    );
    let graph = spec.explicit_graph();
    let source = spec.single_source();
    let config = spec.config;
    let plan = spec.fault_plan;
    let n = graph.n();
    assert!(
        (source as usize) < n,
        "source {source} out of range for n = {n}"
    );
    if let Some(p) = plan {
        assert_eq!(p.n(), n, "fault plan size mismatch");
    }

    let layout = TileLayout::new(lanes);
    let c = layout.words_per_node();
    let groups = layout.groups();
    let full_pattern = layout.full_pattern();

    let workers = block_workers(threads, n.div_ceil(BLOCK_ROWS));

    let loss = config.loss_prob;

    let mut rngs: Vec<Xoshiro256pp> = (0..lanes as u64)
        .map(|l| child_rng(spec.master_seed, l))
        .collect();
    protocol.begin_run(n);

    let mut session = plan.map(|p| FaultSession::new(p, groups));
    let mut jam_touch = plan.map(|_| BitSet::new(n));

    // Per-lane broadcast state: informed plane (c words per node,
    // 64-byte aligned for the vector sweep), informed round per
    // (node, lane), and the full-row skip bitmap (bit v = row v's
    // informed words equal `full_pattern`).
    let mut informed = AlignedWords::zeroed(layout.plane_words(n));
    informed[source as usize * c..source as usize * c + c].copy_from_slice(&full_pattern);
    let mut informed_round: Vec<u32> = vec![NOT_INFORMED; n * lanes];
    informed_round[source as usize * lanes..source as usize * lanes + lanes].fill(0);
    let fbw = n.div_ceil(64);
    let mut full_bits = vec![0u64; fbw];
    full_bits[source as usize >> 6] |= 1u64 << (source as usize & 63);

    // Compact transmitter table: remap[u] = 0 (silent) or a 1-based
    // slot in tc.  Slot 0 stays all-zero; stale higher slots are never
    // referenced once remap is reset, so only remap needs clearing
    // between rounds.
    let mut tc = AlignedWords::zeroed((n + 1) * c);
    let mut remap = vec![0u32; n];
    let mut ntx: u32 = 0;
    let mut tx_nodes: Vec<NodeId> = Vec::new();

    // Merge-phase output, consumed (and re-zeroed) by the serial
    // resolution phase: reached/exactly-one words per (row, word), and
    // a bitmap of rows with any reached lane.
    let mut rplane = vec![0u64; n * c];
    let mut e1plane = vec![0u64; n * c];
    let mut rbits = vec![0u64; fbw];

    let max_deg = (0..n).map(|v| graph.degree(v as NodeId)).max().unwrap_or(0);
    let mut scratches: Vec<Vec<u32>> = (0..workers).map(|_| vec![0u32; max_deg + 16]).collect();
    let mut book = LaneBook::new(n, lanes, config.trace_level);

    let mut active: Vec<u64> = (0..groups)
        .map(|g| if n == 1 { 0 } else { layout.group_mask(g) })
        .collect();
    let mut round = 0u32;
    while active.iter().any(|&w| w != 0) && round < config.max_rounds {
        round += 1;

        // Faults fire (and burst channels step) before any decision
        // coin, exactly like the scalar loop.
        if let Some(s) = session.as_mut() {
            let fired = s.begin_round(round, &active, &mut rngs);
            for (g, &word) in active.iter().enumerate() {
                book.fault_events(g * 64, word, fired);
            }
        }

        // Decision phase: node-major, group-ascending — each lane sees
        // its informed nodes in ascending id order on its private RNG,
        // which is the scalar draw order.
        for (u, slot) in remap.iter_mut().enumerate() {
            let base_i = u * c;
            if (0..groups).all(|g| informed[base_i + g] & active[g] == 0) {
                continue;
            }
            // Crashed, asleep, and jamming nodes draw no decision coin.
            if session.as_ref().is_some_and(|s| s.mute(u as NodeId)) {
                continue;
            }
            let rbase = u * lanes;
            let mut chunk = [0u64; 16];
            let mut any = 0u64;
            for (g, &act) in active.iter().enumerate() {
                let mask = informed[base_i + g] & act;
                if mask == 0 {
                    continue;
                }
                let lo = g * 64;
                let glen = (lanes - lo).min(64);
                let word = protocol.transmits_lanes(
                    u as NodeId,
                    round,
                    mask,
                    &informed_round[rbase + lo..rbase + lo + glen],
                    &mut rngs[lo..lo + glen],
                ) & mask;
                chunk[g] = word;
                any |= word;
                book.transmit(lo, word);
            }
            if any != 0 {
                ntx += 1;
                *slot = ntx;
                let tcbase = ntx as usize * c;
                tc[tcbase..tcbase + c].copy_from_slice(&chunk[..c]);
                tx_nodes.push(u as NodeId);
            }
        }

        // Inject jammers into every active lane, exactly like the
        // single-word lane loop: the saturating counter resolves jam
        // collisions, and jam-only exactly-one lanes are demoted via
        // `jam_touch`.
        let jammers = session.as_ref().map_or(&[][..], |s| s.jammers());
        for &j in jammers {
            debug_assert_eq!(remap[j as usize], 0, "jammer drew a decision coin");
            ntx += 1;
            remap[j as usize] = ntx;
            let slot = ntx as usize * c;
            tc[slot..slot + groups].copy_from_slice(&active);
            tc[slot + groups..slot + c].fill(0);
            tx_nodes.push(j);
            for (g, &word) in active.iter().enumerate() {
                book.transmit(g * 64, word);
            }
            let touch = jam_touch.as_mut().expect("jammers imply a fault plan");
            for &v in graph.neighbors(j) {
                touch.set(v as usize);
            }
        }

        // Merge phase (parallel): sweep every row block, storing the
        // reached / exactly-one words and delivering nothing yet.  The
        // stores are order-independent (blocks own disjoint rows), so
        // the result is identical for every worker count.
        {
            let table = TiledTable {
                graph,
                tc: &tc,
                remap: &remap,
                c,
                full_pattern: &full_pattern,
            };
            merge_phase(
                &table,
                n,
                &mut informed,
                &mut full_bits,
                &mut rplane,
                &mut e1plane,
                &mut rbits,
                &mut scratches,
            );
        }

        // Resolution phase (serial): ascending node order, ascending
        // word then lane within a node — the scalar coin order.
        for (bw_i, rb) in rbits.iter_mut().enumerate() {
            for b in bits(std::mem::take(rb)) {
                let v = bw_i * 64 + b;
                let base = v * c;
                // Blocked (crashed/asleep) nodes receive nothing and
                // count toward neither reach nor collisions.
                if session.as_ref().is_some_and(|s| s.blocked().get(v)) {
                    rplane[base..base + c].fill(0);
                    e1plane[base..base + c].fill(0);
                    continue;
                }
                let jammed = !jammers.is_empty() && jam_touch.as_ref().is_some_and(|t| t.get(v));
                let mut now_full = true;
                for w in 0..c {
                    let reached = rplane[base + w];
                    if reached == 0 {
                        now_full &= informed[base + w] == full_pattern[w];
                        continue;
                    }
                    rplane[base + w] = 0;
                    // Jam-only exactly-one lanes are collisions, and (like
                    // the scalar engine) no burst/loss coin is drawn for
                    // them.
                    let e1 = std::mem::take(&mut e1plane[base + w]);
                    let e1 = if jammed { 0 } else { e1 };
                    book.reach(w * 64, reached, reached & !e1);
                    // Burst veto consumes no coin; lost-to-burst lanes
                    // skip the loss coin too.
                    let burst = session.as_ref().map_or(0, |s| s.burst_word(v as NodeId, w));
                    let mut delivered = e1 & !burst;
                    if loss > 0.0 {
                        delivered &=
                            !Xoshiro256pp::lane_coins(&mut rngs[w * 64..], delivered, loss);
                    }
                    let niv = informed[base + w] | delivered;
                    if delivered != 0 {
                        informed[base + w] = niv;
                        book.deliver(w * 64, delivered, round, &mut informed_round[v * lanes..]);
                    }
                    now_full &= niv == full_pattern[w];
                }
                if now_full {
                    full_bits[v >> 6] |= 1u64 << (v & 63);
                }
            }
        }

        if let Some(touch) = jam_touch.as_mut().filter(|_| !jammers.is_empty()) {
            touch.clear();
        }
        for (g, word) in active.iter_mut().enumerate() {
            for b in bits(*word) {
                if book.close(g * 64 + b, round) {
                    *word &= !(1u64 << b);
                }
            }
        }
        for &u in &tx_nodes {
            remap[u as usize] = 0;
        }
        tx_nodes.clear();
        ntx = 0;
        book.next_round();
    }

    book.finish(round, KernelUsed::Tiled, workers as u32, |horizons| {
        plan.map(|p| {
            lane_summaries(p, graph, source, horizons, |l, v| {
                informed[v as usize * c + (l >> 6)] >> (l & 63) & 1 == 1
            })
        })
    })
}

/// The parallel merge phase of one round: sweeps every row block,
/// recording reached / exactly-one words in `rplane`/`e1plane` and row
/// occupancy in `rbits`, without delivering anything.
///
/// Blocks own disjoint row ranges (and, because [`BLOCK_ROWS`] is a
/// multiple of 64, whole words of the bitmaps), so running them on any
/// number of workers stores exactly the same bytes.
#[allow(clippy::too_many_arguments)]
fn merge_phase(
    table: &TiledTable<'_>,
    n: usize,
    informed: &mut [u64],
    full_bits: &mut [u64],
    rplane: &mut [u64],
    e1plane: &mut [u64],
    rbits: &mut [u64],
    scratches: &mut [Vec<u32>],
) {
    let c = table.c;
    let (inf, full) = (Disjoint::new(informed), Disjoint::new(full_bits));
    let (rp, ep, rb) = (
        Disjoint::new(rplane),
        Disjoint::new(e1plane),
        Disjoint::new(rbits),
    );
    for_each_block(n.div_ceil(BLOCK_ROWS), scratches, |scratch, blk| {
        let row_start = blk * BLOCK_ROWS;
        let rows = BLOCK_ROWS.min(n - row_start);
        let (wlo, wcnt) = (row_start / 64, rows.div_ceil(64));
        // SAFETY: the block loop hands each block to exactly one worker;
        // blocks cover disjoint `rows * c` ranges of the planes and
        // (BLOCK_ROWS % 64 == 0) disjoint whole words of the bitmaps.
        unsafe {
            sweep_block(
                table,
                row_start,
                rows,
                inf.range(row_start * c, rows * c),
                full.range(wlo, wcnt),
                rp.range(row_start * c, rows * c),
                ep.range(row_start * c, rows * c),
                rb.range(wlo, wcnt),
                scratch,
            );
        }
    });
}

/// Sweeps one row block, storing each resolved word into the
/// block-local plane slices and delivering nothing (the resolution
/// phase applies deliveries serially).
#[allow(clippy::too_many_arguments)]
fn sweep_block(
    table: &TiledTable<'_>,
    row_start: usize,
    rows: usize,
    informed: &mut [u64],
    full_bits: &mut [u64],
    rplane: &mut [u64],
    e1plane: &mut [u64],
    rbits: &mut [u64],
    scratch: &mut [u32],
) {
    let c = table.c;
    sweep_rows(
        table,
        row_start,
        rows,
        informed,
        full_bits,
        scratch,
        &mut |v, w, reached, _collide, e1| {
            let b = v - row_start;
            rplane[b * c + w] = reached;
            e1plane[b * c + w] = e1;
            rbits[b >> 6] |= 1u64 << (b & 63);
            0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::kernel::EngineKernel;
    use crate::protocol::{LocalNode, RunConfig};
    use radio_graph::gnp::sample_gnp;
    use radio_graph::{derive_seed, Graph};

    /// Transmit with a fixed probability (one coin per decision).
    struct Coin(f64);
    impl Protocol for Coin {
        fn name(&self) -> String {
            "coin".into()
        }
        fn transmits(&mut self, _node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
            rng.coin(self.0)
        }
    }

    fn spec<'a>(g: &'a Graph, cfg: RunConfig, plan: Option<&'a FaultPlan>) -> RunSpec<'a> {
        let spec = RunSpec::on_graph(g, 0).with_config(cfg);
        match plan {
            Some(plan) => spec.with_faults(plan),
            None => spec,
        }
    }

    /// `lanes` lanes of `Coin(p)` from node 0 on `threads` workers.
    #[allow(clippy::too_many_arguments)]
    fn lanes_on_threads(
        g: &Graph,
        p: f64,
        cfg: RunConfig,
        plan: Option<&FaultPlan>,
        master: u64,
        lanes: usize,
        threads: usize,
    ) -> Vec<RunResult> {
        spec(g, cfg, plan)
            .with_lanes(lanes)
            .with_master_seed(master)
            .with_threads(threads)
            .run(&mut Coin(p))
            .lanes
    }

    /// The scalar run of lane `l`.
    fn scalar_lane(
        g: &Graph,
        cfg: RunConfig,
        plan: Option<&FaultPlan>,
        master: u64,
        l: usize,
    ) -> RunResult {
        let mut rng = child_rng(master, l as u64);
        spec(g, cfg, plan)
            .run_with_rng(&mut Coin(0.3), &mut rng)
            .into_single()
    }

    /// Forces the tiled kernel so small test graphs skip the batch
    /// fallback.
    fn tiled_cfg(n: usize) -> RunConfig {
        RunConfig::for_graph(n)
            .with_max_rounds(60)
            .with_kernel(EngineKernel::Tiled)
    }

    fn normalize(mut r: RunResult) -> RunResult {
        r.kernel = KernelUsed::Tiled;
        r.threads = 1;
        r
    }

    #[test]
    fn every_lane_matches_its_scalar_stream_past_64_lanes() {
        for (case, lanes) in [(0u64, 70usize), (1, 1), (2, 64), (3, 130)] {
            let mut grng = Xoshiro256pp::new(derive_seed(0x711D, case));
            let n = 50 + grng.below(60) as usize;
            let g = sample_gnp(n, 0.12, &mut grng);
            let loss = if case % 2 == 0 { 0.0 } else { 0.25 };
            let cfg = tiled_cfg(n).with_loss(loss);
            let master = derive_seed(0x5EED, case);
            let tiled = lanes_on_threads(&g, 0.3, cfg, None, master, lanes, 2);
            assert_eq!(tiled.len(), lanes);
            for (l, got) in tiled.iter().enumerate() {
                let want = scalar_lane(&g, cfg, None, master, l);
                assert_eq!(
                    normalize(got.clone()),
                    normalize(want),
                    "case {case}, lane {l}"
                );
            }
        }
    }

    #[test]
    fn faulty_lanes_match_scalar_faulty_runs() {
        let mut grng = Xoshiro256pp::new(derive_seed(0xFA17, 7));
        let n = 96;
        let g = sample_gnp(n, 0.1, &mut grng);
        let mut combined = FaultPlan::new(n);
        combined
            .crash(3, 2)
            .sleep(4, 6)
            .jam(7, 2, 12)
            .set_burst(0.3, 0.25);
        for (case, loss) in [(0usize, 0.0), (1, 0.2)] {
            let cfg = tiled_cfg(n).with_loss(loss);
            let master = derive_seed(0x5EED, case as u64);
            let lanes = 70;
            let tiled = lanes_on_threads(&g, 0.3, cfg, Some(&combined), master, lanes, 3);
            assert_eq!(tiled.len(), lanes);
            for (l, got) in tiled.iter().enumerate() {
                let want = scalar_lane(&g, cfg, Some(&combined), master, l);
                assert_eq!(
                    normalize(got.clone()),
                    normalize(want),
                    "case {case}, lane {l}"
                );
            }
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let mut grng = Xoshiro256pp::new(derive_seed(0x7ead, 0));
        let n = 300; // two row blocks, so multi-threading really splits work
        let g = sample_gnp(n, 0.04, &mut grng);
        let cfg = tiled_cfg(n).with_loss(0.1);
        let lanes = 96;
        let runs: Vec<Vec<RunResult>> = [1usize, 3, 8]
            .iter()
            .map(|&t| {
                lanes_on_threads(&g, 0.25, cfg, None, 42, lanes, t)
                    .into_iter()
                    .map(normalize)
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "1 vs 3 threads");
        assert_eq!(runs[0], runs[2], "1 vs 8 threads");
    }

    #[test]
    fn small_jobs_fall_back_to_batch_unless_forced() {
        let mut grng = Xoshiro256pp::new(5);
        let g = sample_gnp(60, 0.15, &mut grng);
        let auto = RunConfig::for_graph(60).with_max_rounds(40);
        let fall = spec(&g, auto, None)
            .with_lanes(8)
            .with_master_seed(9)
            .run(&mut Coin(0.3))
            .lanes;
        assert!(fall.iter().all(|r| r.kernel == KernelUsed::Batch));
        assert!(fall.iter().all(|r| r.threads == 1));
        let forced = spec(&g, auto.with_kernel(EngineKernel::Tiled), None)
            .with_lanes(8)
            .with_master_seed(9)
            .run(&mut Coin(0.3))
            .lanes;
        assert!(forced.iter().all(|r| r.kernel == KernelUsed::Tiled));
        for (f, b) in forced.iter().zip(&fall) {
            assert_eq!(normalize(f.clone()), normalize(b.clone()));
        }
    }

    #[test]
    fn single_node_graph_completes_in_zero_rounds() {
        let g = Graph::empty(1);
        let tiled = lanes_on_threads(&g, 0.5, tiled_cfg(1), None, 1, 100, 2);
        for r in &tiled {
            assert!(r.completed);
            assert_eq!(r.rounds, 0);
            assert_eq!(r.informed, 1);
            assert_eq!(r.kernel, KernelUsed::Tiled);
        }
    }

    #[test]
    #[should_panic]
    fn too_many_lanes_rejected() {
        let g = Graph::path(3);
        let _ = spec(&g, tiled_cfg(3), None)
            .with_lanes(MAX_TILED_LANES + 1)
            .run(&mut Coin(0.5));
    }
}
