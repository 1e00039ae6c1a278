//! Provider-driven round execution: the implicit and sharded backends.
//!
//! [`RoundEngine`](crate::engine::RoundEngine) walks per-transmitter CSR
//! rows, which requires the full adjacency in memory.  `SweepEngine`
//! instead resolves a round by sweeping every **forward edge** of a
//! [`GraphProvider`] once — for edge `{u, v}` it bumps `v`'s hit counter if
//! `u` transmits and vice versa — so it runs unmodified on backends that
//! have no stored adjacency at all ([`ImplicitGnp`]).  Hit counters saturate
//! at 2 (the radio rule only distinguishes "exactly one" from "two or
//! more"), and a jammer's noise counts as two hits, exactly as in the
//! sparse kernel.
//!
//! ## The block fill
//!
//! Forward edges are owned by their lower endpoint, so each round's fill
//! runs on [`with_threads`](crate::exec::RunSpec::with_threads) workers,
//! else the thread budget of its `FILL_ROWS`-row blocks (the tiled
//! merge's rule).  Every worker claims blocks from one shared cursor into
//! a private scratch; at the round barrier the scratches merge with
//! saturating addition — `min(2, a + b)` is exact for the only distinction
//! that matters and commutative, so the merged state is **independent of
//! the worker count and the block schedule**.  All coins (loss, burst) are
//! drawn in the serial resolution pass that follows, in ascending node-id
//! order, which the cross-backend differential suite pins.  `Plan.threads`
//! records the `with_threads` override and `RunResult.threads` the workers
//! used; the `shards` of `RunSpec::on_provider` set no thread count (they
//! only route an explicit provider to this sweep).
//!
//! ## Determinism contract
//!
//! Both sweep engines run under the shared protocol loops of the
//! crate-private `driver` module, which draw every coin in the scalar
//! order: fault coins at round start, decision coins per informed node
//! in ascending id, then one loss coin per exactly-one reception in
//! ascending id.  An implicit run and an explicit run on
//! [`GraphProvider::materialize`]'s graph are bit-identical — same
//! informed sets, same traces, same residual RNG stream.

use radio_graph::{
    AdjacencyBitmap, BitmapCapError, GraphProvider, ImplicitGnp, NodeId, Xoshiro256pp,
};
use std::ops::Range;

use crate::bitset::BitSet;
use crate::driver::{LaneMerge, ScalarRound};
use crate::engine::RoundOutcome;
use crate::fault::FaultSession;
use crate::kernel::{KernelUsed, DEFAULT_BITMAP_CAP_BYTES};
use crate::runner::{block_workers, for_each_block};
use crate::state::BroadcastState;

/// Which graph backend a run executes on.
///
/// `Explicit` is the classic path (CSR +
/// [`RoundEngine`](crate::engine::RoundEngine) with its sparse/dense/batch
/// kernels);
/// `Implicit` regenerates neighborhoods from the seed via [`ImplicitGnp`]
/// and runs on the forward-edge sweep; `Sharded` is that sweep over an
/// explicit CSR.  `Auto` picks per run size — see
/// [`resolve_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Decide per run: explicit when the dense bitmap would fit the default
    /// 64-MiB cap, implicit otherwise (with a note recording the decision).
    Auto,
    /// Explicit CSR adjacency, classic round engine.
    #[default]
    Explicit,
    /// Seed-only implicit `G(n, p)`, provider-driven sweep.
    Implicit,
    /// Explicit CSR swept by the provider sweep.
    Sharded,
}

impl Backend {
    /// Lower-case name, as accepted by the `FromStr` impl.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Auto => "auto",
            Backend::Explicit => "explicit",
            Backend::Implicit => "implicit",
            Backend::Sharded => "sharded",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "explicit" => Ok(Backend::Explicit),
            "implicit" => Ok(Backend::Implicit),
            "sharded" => Ok(Backend::Sharded),
            other => Err(format!(
                "unknown backend '{other}' (expected auto, explicit, implicit, or sharded)"
            )),
        }
    }
}

/// Resolves [`Backend::Auto`] for an `n`-node run: explicit while the
/// adjacency bitmap would fit [`DEFAULT_BITMAP_CAP_BYTES`], implicit beyond
/// it.  The returned [`BitmapCapError`], present exactly when the run was
/// rerouted, is the typed cap refusal — callers surface its `Display` text
/// as the trace note for the routing decision.  Non-`Auto` requests pass
/// through unchanged.
pub fn resolve_backend(requested: Backend, n: usize) -> (Backend, Option<BitmapCapError>) {
    match requested {
        Backend::Auto => {
            let needed = AdjacencyBitmap::bytes_needed(n);
            if needed > DEFAULT_BITMAP_CAP_BYTES {
                let err = BitmapCapError {
                    n,
                    needed,
                    cap: DEFAULT_BITMAP_CAP_BYTES,
                };
                (Backend::Implicit, Some(err))
            } else {
                (Backend::Explicit, None)
            }
        }
        other => (other, None),
    }
}

/// Adds one transmitting neighbor to `w`'s count, or two for a jammer's
/// noise (a jam hit is a collision, never a delivery), saturating at 2.
#[inline]
fn bump(hits: &mut [u8], w: NodeId, jam: bool) {
    let h = &mut hits[w as usize];
    *h = (*h + 1 + u8::from(jam)).min(2);
}

/// Rows per fill block: enough edges per cursor claim to hide the claim.
const FILL_ROWS: usize = 1024;

/// Runs `fill(scratch, rows)` over every block of [`FILL_ROWS`] rows of
/// `provider`, one scratch per worker (see the [module docs](crate::sweep)).
fn fill_blocks<S: Send>(
    provider: &dyn GraphProvider,
    scratches: &mut [S],
    fill: impl Fn(&mut S, Range<NodeId>) + Sync,
) {
    let n = provider.n();
    for_each_block(n.div_ceil(FILL_ROWS), scratches, |scratch, block| {
        let lo = block * FILL_ROWS;
        fill(scratch, lo as NodeId..(lo + FILL_ROWS).min(n) as NodeId);
    });
}

/// Sweeps `range`'s forward edges into one worker's hit counts: both
/// endpoints of every edge with a transmitting endpoint.
fn fill_hits(
    provider: &dyn GraphProvider,
    range: Range<NodeId>,
    tx: &BitSet,
    jam_src: &BitSet,
    hits: &mut [u8],
) {
    provider.for_forward_edges(range, &mut |u, v| {
        if tx.get(u as usize) {
            bump(hits, v, jam_src.get(u as usize));
        }
        if tx.get(v as usize) {
            bump(hits, u, jam_src.get(v as usize));
        }
    });
}

/// Reusable provider-driven round executor (see the [module
/// docs](crate::sweep)).
///
/// Semantics are identical to the sparse kernel of
/// [`RoundEngine`](crate::engine::RoundEngine) under the default
/// [`TransmitterPolicy::InformedOnly`](crate::engine::TransmitterPolicy);
/// the engine differs only in how it finds the edges.
pub(crate) struct SweepEngine<'p> {
    provider: &'p dyn GraphProvider,
    /// Per-worker transmitting-neighbor counts of the nodes its blocks'
    /// edges touch (saturating at 2; see [`bump`]).
    hits: Vec<Vec<u8>>,
    /// Transmitter membership this round (transmitters and jammers).
    is_transmitter: BitSet,
    /// Jam sources this round (the session's jammers).
    jam_src: BitSet,
    /// Effective transmitter list, reused across rounds.
    active: Vec<NodeId>,
}

impl<'p> SweepEngine<'p> {
    /// A new engine sweeping `provider` on `threads` fill workers, else
    /// the thread budget.  The worker count never changes results.
    pub(crate) fn new(provider: &'p dyn GraphProvider, threads: Option<usize>) -> Self {
        let n = provider.n();
        SweepEngine {
            provider,
            hits: vec![vec![0; n]; block_workers(threads, n.div_ceil(FILL_ROWS))],
            is_transmitter: BitSet::new(n),
            jam_src: BitSet::new(n),
            active: Vec::new(),
        }
    }
}

impl ScalarRound for SweepEngine<'_> {
    /// One round with the semantics and coin order of
    /// [`RoundEngine::execute_round_faulty`](crate::engine::RoundEngine::execute_round_faulty).
    fn execute_round_faulty(
        &mut self,
        state: &mut BroadcastState,
        transmitters: &[NodeId],
        round: u32,
        faults: Option<&FaultSession<'_>>,
        loss_prob: f64,
        rng: &mut Xoshiro256pp,
    ) -> RoundOutcome {
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "loss_prob must be within [0, 1], got {loss_prob}"
        );
        debug_assert_eq!(state.n(), self.provider.n());

        // Effective transmitter set: deduplicated, informed-only, unmuted.
        self.active.clear();
        for &t in transmitters {
            if self.is_transmitter.get(t as usize) {
                continue; // duplicate
            }
            if !state.is_informed(t) {
                continue;
            }
            if faults.is_some_and(|s| s.mute(t)) {
                continue;
            }
            self.is_transmitter.set(t as usize);
            self.active.push(t);
        }
        // Jammers occupy the channel too: they cannot receive this round.
        let jammers = faults.map_or(&[][..], |s| s.jammers());
        for &j in jammers {
            self.is_transmitter.set(j as usize);
            self.jam_src.set(j as usize);
        }

        // Fill: sweep forward edges in row blocks, one scratch per worker.
        let (provider, tx, jam_src) = (self.provider, &self.is_transmitter, &self.jam_src);
        fill_blocks(provider, &mut self.hits, |hits, rows| {
            fill_hits(provider, rows, tx, jam_src, hits);
        });

        // Merge (and clear) workers 1.. into worker 0 at the round
        // barrier: saturating counter addition is exact for the ==1 vs ≥2
        // distinction and commutative, so results are worker-invariant.
        let (hits, rest) = self.hits.split_first_mut().expect("one worker");
        for other in rest {
            for (m, o) in hits.iter_mut().zip(other.iter_mut()) {
                *m = (*m + std::mem::take(o)).min(2);
            }
        }

        // Serial resolution in ascending node-id order — all coins are
        // drawn here, never in the fill, so block scheduling cannot
        // influence the stream.  The burst veto draws no coin; the loss
        // coin only for receptions the burst channel lets through.
        let mut outcome = RoundOutcome {
            transmitters: self.active.len() + jammers.len(),
            ..RoundOutcome::default()
        };
        let blocked = faults.map(|s| s.blocked());
        for (w, &h) in hits.iter().enumerate() {
            // Transmitters and jammers do not listen; blocked (crashed or
            // asleep) nodes are deaf.
            if h == 0 || self.is_transmitter.get(w) || blocked.is_some_and(|b| b.get(w)) {
                continue;
            }
            let w = w as NodeId;
            if !state.is_informed(w) {
                outcome.reached += 1;
                if h == 1 {
                    let delivered = faults.is_none_or(|s| s.burst_word(w, 0) & 1 == 0)
                        && (loss_prob <= 0.0 || !rng.coin(loss_prob));
                    if delivered {
                        state.inform(w, round);
                        outcome.newly_informed += 1;
                    }
                } else {
                    outcome.collisions += 1;
                }
            }
        }

        // Reset scratch for the next round.
        hits.fill(0);
        for &t in self.active.iter().chain(jammers) {
            self.is_transmitter.unset(t as usize);
        }
        for &j in jammers {
            self.jam_src.unset(j as usize);
        }
        outcome
    }

    fn kernel_used(&self) -> KernelUsed {
        KernelUsed::Sweep
    }

    fn workers(&self) -> u32 {
        self.hits.len() as u32
    }
}

/// Per-worker lane scratch: two-plane saturating counters over trial
/// lanes (`planes[v] = [ge1, ge2]`, the lanes with ≥ 1 / ≥ 2
/// transmitting neighbors of `v` so far) plus jam-noise bits — the
/// lane-batched analogue of `SweepEngine`'s per-worker hit counts.
struct LaneScratch {
    planes: Vec<[u64; 2]>,
    jam: BitSet,
}

/// Sweeps `range`'s forward edges, merging each transmitting endpoint's
/// transmit word into the other endpoint's lane planes (and its jam bit
/// if the transmitter is a jam source).  Stores only — every coin is
/// drawn in the serial resolution pass.
fn fill_lanes(
    provider: &dyn GraphProvider,
    range: Range<NodeId>,
    t: &[u64],
    jam_src: &BitSet,
    scratch: &mut LaneScratch,
) {
    let LaneScratch { planes, jam } = scratch;
    provider.for_forward_edges(range, &mut |u, v| {
        let wu = t[u as usize];
        if wu != 0 {
            let p = &mut planes[v as usize];
            p[1] |= p[0] & wu;
            p[0] |= wu;
            if jam_src.get(u as usize) {
                jam.set(v as usize);
            }
        }
        let wv = t[v as usize];
        if wv != 0 {
            let p = &mut planes[u as usize];
            p[1] |= p[0] & wv;
            p[0] |= wv;
            if jam_src.get(v as usize) {
                jam.set(u as usize);
            }
        }
    });
}

/// The lane-sweep engine's [`LaneMerge`]: up to [`crate::MAX_LANES`]
/// trials resolved per regenerated edge stream, so implicit backends
/// amortize edge regeneration across a whole batch of trials.
///
/// Each worker sweeps the row blocks it claims into private planes; the
/// workers' planes merge at the round barrier, and listeners are then
/// scanned in ascending order.  No coin is drawn here, so the worker
/// count and the block schedule never change results.
pub(crate) struct SweepLanes<'p> {
    provider: &'p dyn GraphProvider,
    scratches: Vec<LaneScratch>,
    /// Jam sources this round (the session's jammers).
    jam_src: BitSet,
}

impl<'p> SweepLanes<'p> {
    pub(crate) fn new(provider: &'p dyn GraphProvider, threads: Option<usize>) -> Self {
        let n = provider.n();
        let scratches = (0..block_workers(threads, n.div_ceil(FILL_ROWS)))
            .map(|_| LaneScratch {
                planes: vec![[0, 0]; n],
                jam: BitSet::new(n),
            })
            .collect();
        SweepLanes {
            provider,
            scratches,
            jam_src: BitSet::new(n),
        }
    }
}

impl LaneMerge for SweepLanes<'_> {
    const KERNEL: KernelUsed = KernelUsed::Sweep;

    fn workers(&self) -> u32 {
        self.scratches.len() as u32
    }

    fn merge(
        &mut self,
        t: &[u64],
        _tx_nodes: &[NodeId],
        jammers: &[NodeId],
        _canonical: bool,
        mut listener: impl FnMut(NodeId, u64, u64, bool),
    ) {
        for &j in jammers {
            self.jam_src.set(j as usize);
        }
        // Fill: sweep forward edges in row blocks, one scratch per worker.
        let (provider, jam_src) = (self.provider, &self.jam_src);
        fill_blocks(provider, &mut self.scratches, |scratch, rows| {
            fill_lanes(provider, rows, t, jam_src, scratch);
        });

        // Merge (and clear) workers 1.. into worker 0 at the round
        // barrier: the per-lane saturating combine `ge2' = a2 | b2 |
        // (a1 & b1); ge1' = a1 | b1` is commutative and associative, so
        // the merged planes are worker-invariant, plus jam-bit union.
        let (merged, rest) = self.scratches.split_first_mut().expect("one worker");
        for other in rest {
            for (m, o) in merged.planes.iter_mut().zip(&mut other.planes) {
                let [o1, o2] = std::mem::take(o);
                m[1] |= o2 | (m[0] & o1);
                m[0] |= o1;
            }
            merged.jam.union_with(&other.jam);
            other.jam.clear();
        }

        // Listeners in ascending node order, clearing as they go.
        for (v, planes) in merged.planes.iter_mut().enumerate() {
            if planes[0] != 0 {
                let [ge1, ge2] = std::mem::take(planes);
                listener(v as NodeId, ge1, ge2, merged.jam.get(v));
            }
        }
        merged.jam.clear();
        for &j in jammers {
            self.jam_src.unset(j as usize);
        }
    }
}

/// Convenience: an [`ImplicitGnp`] provider for one run, seeded like the
/// explicit samplers (graph structure from its own child stream of `seed`).
pub fn implicit_gnp(n: usize, p: f64, seed: u64) -> ImplicitGnp {
    ImplicitGnp::new(n, p, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RunSpec;
    use crate::fault::FaultPlan;
    use crate::protocol::{LocalNode, Protocol, RunConfig};
    use crate::trace::RunResult;
    use crate::MAX_LANES;
    use radio_graph::{child_rng, Graph};

    /// A scalar run on `provider` in `shards` shards (one shard over
    /// explicit adjacency plans the round engine).
    fn run(
        provider: &dyn GraphProvider,
        shards: usize,
        source: NodeId,
        protocol: &mut impl Protocol,
        cfg: RunConfig,
        plan: Option<&FaultPlan>,
        rng: &mut Xoshiro256pp,
    ) -> RunResult {
        spec(provider, shards, source, cfg, plan)
            .run_with_rng(protocol, rng)
            .into_single()
    }

    fn spec<'a>(
        provider: &'a dyn GraphProvider,
        shards: usize,
        source: NodeId,
        cfg: RunConfig,
        plan: Option<&'a FaultPlan>,
    ) -> RunSpec<'a> {
        let spec = RunSpec::on_provider(provider, shards, source).with_config(cfg);
        match plan {
            Some(plan) => spec.with_faults(plan),
            None => spec,
        }
    }

    struct AlwaysTransmit;
    impl Protocol for AlwaysTransmit {
        fn name(&self) -> String {
            "always".into()
        }
        fn transmits(&mut self, _node: LocalNode, _rng: &mut Xoshiro256pp) -> bool {
            true
        }
    }

    /// Transmit with probability 1/2 every round.
    struct HalfCoin;
    impl Protocol for HalfCoin {
        fn name(&self) -> String {
            "half".into()
        }
        fn transmits(&mut self, _node: LocalNode, rng: &mut Xoshiro256pp) -> bool {
            rng.coin(0.5)
        }
    }

    #[test]
    fn backend_parsing_round_trips() {
        for b in [
            Backend::Auto,
            Backend::Explicit,
            Backend::Implicit,
            Backend::Sharded,
        ] {
            assert_eq!(b.as_str().parse::<Backend>().unwrap(), b);
        }
        assert!("bogus".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Explicit);
    }

    #[test]
    fn auto_resolution_routes_on_bitmap_cap() {
        // Small n: bitmap fits the 64-MiB cap → explicit, no note.
        let (b, note) = resolve_backend(Backend::Auto, 1000);
        assert_eq!((b, note), (Backend::Explicit, None));
        // Oversized n: rerouted to implicit with the typed cap error.
        let n = 100_000;
        let (b, note) = resolve_backend(Backend::Auto, n);
        assert_eq!(b, Backend::Implicit);
        let err = note.expect("cap error note");
        assert_eq!(err.n, n);
        assert_eq!(err.cap, DEFAULT_BITMAP_CAP_BYTES);
        assert!(err.needed > err.cap);
        // Explicit requests pass through untouched.
        let (b, note) = resolve_backend(Backend::Sharded, n);
        assert_eq!((b, note), (Backend::Sharded, None));
    }

    /// One plain round on `eng` (no faults, no loss: no coin is drawn).
    fn plain_round(
        eng: &mut SweepEngine<'_>,
        st: &mut BroadcastState,
        tx: &[NodeId],
        round: u32,
    ) -> RoundOutcome {
        let mut rng = Xoshiro256pp::new(0);
        eng.execute_round_faulty(st, tx, round, None, 0.0, &mut rng)
    }

    #[test]
    fn sweep_matches_engine_on_star() {
        let g = Graph::star(5);
        let mut st = BroadcastState::new(5, 0);
        let mut eng = SweepEngine::new(&g, None);
        let out = plain_round(&mut eng, &mut st, &[0], 1);
        assert_eq!(out.transmitters, 1);
        assert_eq!(out.newly_informed, 4);
        assert!(st.is_complete());
    }

    #[test]
    fn sweep_collision_and_dedup_semantics() {
        // 0 — 2, 1 — 2: both 0 and 1 transmit → 2 hears a collision;
        // duplicates are not double-counted.
        let g = Graph::from_edges(3, vec![(0, 2), (1, 2)]);
        let mut st = BroadcastState::new(3, 0);
        st.inform(1, 0);
        let mut eng = SweepEngine::new(&g, None);
        let out = plain_round(&mut eng, &mut st, &[0, 1, 0], 1);
        assert_eq!(out.transmitters, 2);
        assert_eq!(out.collisions, 1);
        assert!(!st.is_informed(2));
        // Uninformed entries are skipped (InformedOnly semantics).
        let out2 = plain_round(&mut eng, &mut st, &[2], 2);
        assert_eq!(out2.transmitters, 0);
    }

    #[test]
    fn provider_run_fast_path_equals_explicit_runner() {
        let g = ImplicitGnp::new(300, 0.03, 5).materialize();
        let cfg = RunConfig::for_graph(300);
        let mut rng_a = Xoshiro256pp::new(77);
        let a = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut HalfCoin, &mut rng_a)
            .into_single();
        let mut rng_b = Xoshiro256pp::new(77);
        let b = run(&g, 1, 0, &mut HalfCoin, cfg, None, &mut rng_b);
        assert_eq!(a, b, "shards=1 on explicit must take the engine fast path");
        assert_eq!(rng_a.next(), rng_b.next());
    }

    #[test]
    fn sharded_explicit_matches_engine_run() {
        let g = ImplicitGnp::new(400, 0.025, 9).materialize();
        let cfg = RunConfig::for_graph(400);
        let mut rng_a = Xoshiro256pp::new(3);
        let mut a = run(&g, 1, 2, &mut HalfCoin, cfg, None, &mut rng_a);
        for shards in [2, 4, 7] {
            let mut rng_b = Xoshiro256pp::new(3);
            let b = run(&g, shards, 2, &mut HalfCoin, cfg, None, &mut rng_b);
            assert_eq!(b.kernel, KernelUsed::Sweep);
            a.kernel = KernelUsed::Sweep;
            assert_eq!(a, b, "shards = {shards}");
            assert_eq!(rng_a.clone().next(), rng_b.next());
        }
    }

    #[test]
    fn implicit_run_matches_materialized_run() {
        let imp = implicit_gnp(350, 0.03, 11);
        let g = imp.materialize();
        let cfg = RunConfig::for_graph(350).with_loss(0.2);
        let mut rng_a = Xoshiro256pp::new(41);
        let mut a = run(&g, 1, 0, &mut HalfCoin, cfg, None, &mut rng_a);
        let mut rng_b = Xoshiro256pp::new(41);
        let b = run(&imp, 1, 0, &mut HalfCoin, cfg, None, &mut rng_b);
        a.kernel = KernelUsed::Sweep;
        assert_eq!(a, b);
        assert_eq!(rng_a.next(), rng_b.next());
    }

    #[test]
    fn faulty_provider_run_matches_explicit() {
        let imp = implicit_gnp(256, 0.04, 13);
        let g = imp.materialize();
        let mut plan = FaultPlan::new(256);
        plan.crash(5, 4)
            .sleep(30, 8)
            .jam(40, 3, 20)
            .set_burst(0.3, 0.25);
        let cfg = RunConfig::for_graph(256).with_loss(0.1);
        let mut rng_a = Xoshiro256pp::new(19);
        let mut a = run(&g, 1, 1, &mut HalfCoin, cfg, Some(&plan), &mut rng_a);
        for shards in [1, 4] {
            let mut rng_b = Xoshiro256pp::new(19);
            let b = run(&imp, shards, 1, &mut HalfCoin, cfg, Some(&plan), &mut rng_b);
            a.kernel = KernelUsed::Sweep;
            assert_eq!(a, b, "shards = {shards}");
            assert_eq!(rng_a.clone().next(), rng_b.next());
        }
    }

    /// `RunResult::threads` is the fill's worker count: `with_threads`
    /// clamped to the row-block count, so one below two blocks.
    #[test]
    fn sweeps_record_their_fill_workers() {
        let four_blocks = implicit_gnp(3 * FILL_ROWS + 1, 0.002, 5);
        let one_block = implicit_gnp(FILL_ROWS, 0.01, 5);
        let cfg = RunConfig::for_graph(FILL_ROWS).with_max_rounds(3);
        for lanes in [1, 7] {
            for threads in [1usize, 2, 3, 8] {
                let workers = |p: &dyn GraphProvider| -> Vec<u32> {
                    (spec(p, 1, 0, cfg, None).with_lanes(lanes))
                        .with_threads(threads)
                        .run(&mut HalfCoin)
                        .lanes
                        .iter()
                        .map(|r| r.threads)
                        .collect()
                };
                assert_eq!(workers(&four_blocks), vec![threads.min(4) as u32; lanes]);
                assert_eq!(workers(&one_block), vec![1; lanes]);
            }
        }
    }

    #[test]
    fn flooding_on_path_provider() {
        let g = Graph::path(10);
        let mut rng = Xoshiro256pp::new(1);
        // Three shards force the sweep path on an explicit graph.
        let cfg = RunConfig::for_graph(10);
        let r = run(&g, 3, 0, &mut AlwaysTransmit, cfg, None, &mut rng);
        assert!(r.completed);
        assert_eq!(r.rounds, 9);
        assert_eq!(r.kernel, KernelUsed::Sweep);
    }

    #[test]
    fn lane_sweep_matches_scalar_streams() {
        let imp = implicit_gnp(180, 0.05, 21);
        let g = imp.materialize();
        for (case, (lanes, loss)) in [(16usize, 0.0), (64, 0.0), (7, 0.25), (64, 0.25)]
            .into_iter()
            .enumerate()
        {
            let cfg = RunConfig::for_graph(180)
                .with_max_rounds(50)
                .with_loss(loss);
            let master = 1000 + case as u64;
            for shards in [1usize, 3] {
                let batch = spec(&imp, shards, 0, cfg, None)
                    .with_lanes(lanes)
                    .with_master_seed(master)
                    .run(&mut HalfCoin)
                    .lanes;
                assert_eq!(batch.len(), lanes);
                for (l, got) in batch.iter().enumerate() {
                    let mut rng = child_rng(master, l as u64);
                    let mut want = run(&g, 1, 0, &mut HalfCoin, cfg, None, &mut rng);
                    want.kernel = KernelUsed::Sweep;
                    assert_eq!(*got, want, "case {case}, shards {shards}, lane {l}");
                }
            }
        }
    }

    #[test]
    fn faulty_lane_sweep_matches_scalar_faulty_runs() {
        let imp = implicit_gnp(150, 0.06, 33);
        let g = imp.materialize();
        let mut plan = FaultPlan::new(150);
        plan.crash(5, 4)
            .sleep(30, 8)
            .jam(40, 3, 20)
            .set_burst(0.3, 0.25);
        for (case, loss) in [(0u64, 0.0), (1, 0.2)] {
            let cfg = RunConfig::for_graph(150)
                .with_max_rounds(40)
                .with_loss(loss);
            let master = 7000 + case;
            for shards in [1usize, 4] {
                let batch = spec(&imp, shards, 1, cfg, Some(&plan))
                    .with_lanes(MAX_LANES)
                    .with_master_seed(master)
                    .run(&mut HalfCoin)
                    .lanes;
                for (l, got) in batch.iter().enumerate() {
                    let mut rng = child_rng(master, l as u64);
                    let mut want = run(&g, 1, 1, &mut HalfCoin, cfg, Some(&plan), &mut rng);
                    want.kernel = KernelUsed::Sweep;
                    assert_eq!(*got, want, "case {case}, shards {shards}, lane {l}");
                }
            }
        }
    }
}
