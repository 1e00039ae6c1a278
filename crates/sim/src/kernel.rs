//! Round-execution kernels: selection enum, cost model, and the
//! bit-parallel dense kernel.
//!
//! The engine resolves the "exactly one transmitting neighbor" rule of
//! §1.1 in one of two ways:
//!
//! * **sparse** — walk each transmitter's CSR adjacency list, counting hits
//!   per listener (`O(Σ deg(t))` random accesses; the original kernel,
//!   cross-checked against [`crate::reference`]);
//! * **dense** — represent the transmitter set, informed set, and each
//!   adjacency row as `u64` bit vectors and run a two-plane saturating
//!   counter: for every transmitter `t`, `ge2 |= ge1 & adj[t]; ge1 |=
//!   adj[t]`.  After all rows are merged, "heard exactly one" is
//!   `ge1 & !ge2`, and masking out transmitters and already-informed nodes
//!   yields `newly_informed`, `reached`, and `collisions` as popcounts —
//!   `O((t + 2) · ⌈n/64⌉)` sequential word ops, the same trick BFS engines
//!   use for their bottom-up phases.
//!
//! [`EngineKernel`] selects between them; `Auto` applies the cost model in
//! [`dense_is_cheaper`] per round and falls back to sparse whenever the
//! [`AdjacencyBitmap`] would exceed the engine's memory cap.  Both kernels
//! produce byte-identical traces — including the RNG draw order under
//! lossy delivery, which is pinned to ascending node id — so kernel choice
//! is invisible to everything but wall-clock.  See `docs/PERF.md` for the
//! calibration of the cost-model constants.

use radio_graph::{column_tiles, AdjacencyBitmap, Graph, NodeId};

use crate::bitset::BitSet;
use crate::engine::RoundOutcome;
use crate::state::BroadcastState;
use crate::wide::{merge_tile, or_tile};

/// Column-tile width (words) for the dense kernel's merge loops: 8 KiB
/// per plane, so the `ge1`/`ge2`/row working set sits in L1 while every
/// transmitter row streams through one tile.
const DENSE_TILE_WORDS: usize = 1024;

/// Which round kernel the engine should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKernel {
    /// Per round, pick whichever kernel the cost model predicts is faster;
    /// never dense when the adjacency bitmap would exceed the memory cap.
    #[default]
    Auto,
    /// Always the CSR walking kernel.
    Sparse,
    /// The bit-parallel kernel whenever the adjacency bitmap fits the
    /// memory cap; falls back to sparse otherwise.
    Dense,
    /// The tiled SIMD + multithreaded many-lane kernel
    /// ([`crate::tiled`]).  On the scalar
    /// [`crate::engine::RoundEngine`] it executes as the dense kernel
    /// (one lane needs no lane tiling) but is counted separately so the
    /// selection is visible in reports.
    Tiled,
}

impl std::str::FromStr for EngineKernel {
    type Err = String;
    fn from_str(s: &str) -> Result<EngineKernel, String> {
        match s {
            "auto" => Ok(EngineKernel::Auto),
            "sparse" => Ok(EngineKernel::Sparse),
            "dense" => Ok(EngineKernel::Dense),
            "tiled" => Ok(EngineKernel::Tiled),
            other => Err(format!(
                "unknown kernel {other:?} (try auto, sparse, dense, tiled)"
            )),
        }
    }
}

/// Which kernel(s) actually executed the rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelUsed {
    /// Every executed round used the sparse kernel (also reported for runs
    /// with no rounds at all).
    #[default]
    Sparse,
    /// Every executed round used the dense kernel.
    Dense,
    /// `Auto` switched kernels between rounds within the run.
    Mixed,
    /// The run was one lane of a lane-batched execution
    /// ([`crate::batch`]), which resolves all trial
    /// lanes with its own two-plane sweep rather than either per-run
    /// kernel.
    Batch,
    /// The run executed on the provider-driven forward-edge sweep
    /// ([`crate::sweep`]) — the implicit/sharded backend path,
    /// which never materializes an adjacency.
    Sweep,
    /// The run was one lane of the tiled SIMD + multithreaded kernel
    /// ([`crate::tiled`]), which resolves up to
    /// 1024 lanes per adjacency sweep across a scoped thread pool.
    Tiled,
}

impl KernelUsed {
    /// Stable lower-case name, as serialized into run reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelUsed::Sparse => "sparse",
            KernelUsed::Dense => "dense",
            KernelUsed::Mixed => "mixed",
            KernelUsed::Batch => "batch",
            KernelUsed::Sweep => "sweep",
            KernelUsed::Tiled => "tiled",
        }
    }
}

impl std::fmt::Display for KernelUsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Default adjacency-bitmap memory cap: 64 MiB (`n ≲ 23_000`).  Beyond
/// this, `Auto` and `Dense` stay on the sparse kernel.
pub const DEFAULT_BITMAP_CAP_BYTES: usize = 64 << 20;

/// Cost of one sparse edge visit in dense-word-op equivalents.
///
/// The sparse kernel does a random-access read-modify-write per
/// `(transmitter, neighbor)` pair plus per-listener resolution, while the
/// dense kernel streams sequential words.  Calibrated against
/// `benches/sim_round.rs` (`kernel_crossover_*` points): ratios between 3
/// and 6 reproduce the measured crossover on the bench machine; see
/// `docs/PERF.md` for how to re-measure.
pub const SPARSE_EDGE_COST: u64 = 4;

/// Fixed dense overhead per round, in row-sweeps: one resolution sweep
/// over the planes plus one clearing sweep.
pub const DENSE_FIXED_SWEEPS: u64 = 2;

/// The `Auto` cost model: whether a dense round (`(transmitters +
/// fixed-sweeps) · words` sequential word ops) is predicted to beat a
/// sparse one (`Σ deg(t)` random edge visits).
pub fn dense_is_cheaper(sum_degrees: u64, transmitters: u64, words_per_row: u64) -> bool {
    SPARSE_EDGE_COST * sum_degrees > (transmitters + DENSE_FIXED_SWEEPS) * words_per_row
}

/// Break-even problem size (listener rows × Monte-Carlo lanes) above
/// which the tiled kernel beats the 64-lane batch kernel.
///
/// Below this the batch kernel's scalar per-`[u64; 2]` merge wins on
/// startup cost (no compact-table build, no padded planes); above it
/// the tiled kernel's 512-bit merges and full-row skips dominate.
/// Measured on the bench machine via `radio-bench run summary` (§1c/§1d
/// points, n = 8192): the tiled kernel is ahead well before half a
/// million elements even single-threaded.  See `docs/PERF.md`.
pub const TILED_BREAK_EVEN_ELEMS: usize = 1 << 19;

/// Whether the tiled kernel is predicted to beat the batch kernel for a
/// run of `rows` listeners × `lanes` trial lanes.
///
/// More than 64 lanes is out of the batch kernel's reach entirely;
/// otherwise the product must cross [`TILED_BREAK_EVEN_ELEMS`].
pub fn tiled_is_cheaper(rows: usize, lanes: usize) -> bool {
    lanes > 64 || rows.saturating_mul(lanes) >= TILED_BREAK_EVEN_ELEMS
}

/// Lazily built adjacency bitmap plus the dense kernel's scratch planes.
#[derive(Debug)]
pub(crate) struct DenseState {
    cap_bytes: usize,
    bitmap: BitmapSlot,
    build_ns: Option<u64>,
    /// Plane 1: "≥ 1 transmitting neighbor" per node.
    ge1: Vec<u64>,
    /// Plane 2: "≥ 2 transmitting neighbors" per node.
    ge2: Vec<u64>,
}

#[derive(Debug)]
enum BitmapSlot {
    /// No dense round has been attempted yet.
    Untried,
    /// The bitmap would exceed the cap; never retried.
    Refused,
    /// Built and ready.
    Ready(AdjacencyBitmap),
}

impl DenseState {
    pub(crate) fn new() -> DenseState {
        DenseState {
            cap_bytes: DEFAULT_BITMAP_CAP_BYTES,
            bitmap: BitmapSlot::Untried,
            build_ns: None,
            ge1: Vec::new(),
            ge2: Vec::new(),
        }
    }

    pub(crate) fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Changes the cap and forgets a previous refusal (a larger cap may
    /// now admit the bitmap).  An already-built bitmap is kept even if it
    /// exceeds the new cap — the memory is already spent.
    pub(crate) fn set_cap_bytes(&mut self, cap_bytes: usize) {
        self.cap_bytes = cap_bytes;
        if matches!(self.bitmap, BitmapSlot::Refused) {
            self.bitmap = BitmapSlot::Untried;
        }
    }

    pub(crate) fn build_ns(&self) -> Option<u64> {
        self.build_ns
    }

    /// Whether the bitmap for `graph` fits the cap without building it.
    pub(crate) fn fits_cap(&self, graph: &Graph) -> bool {
        AdjacencyBitmap::bytes_needed(graph.n()) <= self.cap_bytes
    }

    /// Builds the bitmap on first use; returns whether a dense round can
    /// run.  A refusal (over the cap) is remembered and costs `O(1)`
    /// thereafter.
    pub(crate) fn ensure_ready(&mut self, graph: &Graph) -> bool {
        if let BitmapSlot::Untried = self.bitmap {
            let started = std::time::Instant::now();
            self.bitmap = match AdjacencyBitmap::build(graph, self.cap_bytes) {
                Some(bm) => {
                    self.build_ns = Some(started.elapsed().as_nanos() as u64);
                    let words = bm.words_per_row();
                    self.ge1 = vec![0; words];
                    self.ge2 = vec![0; words];
                    BitmapSlot::Ready(bm)
                }
                None => BitmapSlot::Refused,
            };
        }
        matches!(self.bitmap, BitmapSlot::Ready(_))
    }

    /// Executes one round bit-parallel.  Requires a prior successful
    /// [`DenseState::ensure_ready`]; `active` must already be deduplicated
    /// and policy-filtered, and `transmitting` is its bit mask plus the
    /// `jammers` (they hold the channel and cannot receive).  A jammer's
    /// row saturates both counter planes, so a node it reaches hears a
    /// collision, never a delivery; nodes set in `blocked`
    /// (crashed/asleep) are excluded from reception entirely.
    ///
    /// `deliver` is consulted once per exactly-one reception in ascending
    /// node-id order — the same order as the sparse kernel's canonical
    /// path — so traces are byte-identical across kernels.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &mut self,
        state: &mut BroadcastState,
        active: &[NodeId],
        jammers: &[NodeId],
        transmitting: &BitSet,
        blocked: Option<&BitSet>,
        round: u32,
        mut deliver: impl FnMut(NodeId) -> bool,
    ) -> RoundOutcome {
        let BitmapSlot::Ready(bitmap) = &self.bitmap else {
            unreachable!("dense round without a ready bitmap");
        };
        let (ge1, ge2) = (&mut self.ge1, &mut self.ge2);
        let mut outcome = RoundOutcome {
            transmitters: active.len() + jammers.len(),
            ..RoundOutcome::default()
        };

        // Merge each transmitter's adjacency row through the two-plane
        // saturating counter: after the loop, ge1 = "≥ 1 transmitting
        // neighbor", ge2 = "≥ 2".  Column-tiled so the counter planes
        // stay cache-resident across rows (the merge is commutative per
        // word, so tiling cannot change the result).
        for (lo, hi) in column_tiles(ge1.len(), DENSE_TILE_WORDS) {
            for &t in active {
                merge_tile(&mut ge1[lo..hi], &mut ge2[lo..hi], &bitmap.row(t)[lo..hi]);
            }
            for &j in jammers {
                or_tile(&mut ge1[lo..hi], &bitmap.row(j)[lo..hi]);
                or_tile(&mut ge2[lo..hi], &bitmap.row(j)[lo..hi]);
            }
        }

        // Resolution sweep: count reached/collisions among uninformed,
        // unblocked listeners and stash the exactly-one mask in ge2.  ge1
        // has no bits ≥ n (adjacency rows are tail-clean), so the
        // complements' tail bits cannot leak in.
        let tx_words = transmitting.words();
        let informed_words = state.informed_mask().words();
        let blocked_words = blocked.map(BitSet::words);
        for i in 0..ge1.len() {
            let mut eligible = !tx_words[i] & !informed_words[i];
            if let Some(b) = blocked_words {
                eligible &= !b[i];
            }
            let reached = ge1[i] & eligible;
            outcome.reached += reached.count_ones() as usize;
            outcome.collisions += (reached & ge2[i]).count_ones() as usize;
            ge2[i] = reached & !ge2[i];
            ge1[i] = 0;
        }

        // Delivery sweep over the stashed exactly-one mask, clearing it as
        // we go so both planes end the round zeroed.
        for (i, slot) in ge2.iter_mut().enumerate() {
            let mut word = *slot;
            *slot = 0;
            while word != 0 {
                let v = (i * 64 + word.trailing_zeros() as usize) as NodeId;
                word &= word - 1;
                if deliver(v) {
                    state.inform(v, round);
                    outcome.newly_informed += 1;
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RoundEngine, TransmitterPolicy};
    use crate::reference::reference_round;
    use radio_graph::gnp::sample_gnp;
    use radio_graph::Xoshiro256pp;

    #[test]
    fn kernel_names_parse_and_print() {
        assert_eq!("auto".parse::<EngineKernel>().unwrap(), EngineKernel::Auto);
        assert_eq!(
            "sparse".parse::<EngineKernel>().unwrap(),
            EngineKernel::Sparse
        );
        assert_eq!(
            "dense".parse::<EngineKernel>().unwrap(),
            EngineKernel::Dense
        );
        assert_eq!(
            "tiled".parse::<EngineKernel>().unwrap(),
            EngineKernel::Tiled
        );
        let err = "fast".parse::<EngineKernel>().unwrap_err();
        assert!(err.contains("tiled"), "error should list tiled: {err}");
        assert_eq!(KernelUsed::Mixed.to_string(), "mixed");
        assert_eq!(KernelUsed::Tiled.to_string(), "tiled");
        assert_eq!(KernelUsed::default(), KernelUsed::Sparse);
    }

    #[test]
    fn tiled_cost_model_break_even() {
        // Anything past 64 lanes is out of the batch kernel's reach.
        assert!(tiled_is_cheaper(16, 65));
        // The pinned bench point (n = 8192, 64 lanes) crosses break-even.
        assert!(tiled_is_cheaper(8192, 64));
        // A small 64-lane run stays on the batch kernel.
        assert!(!tiled_is_cheaper(256, 64));
    }

    #[test]
    fn cost_model_prefers_dense_only_when_rows_pay_off() {
        // 100 transmitters of degree 80 on n = 8192 (128 words/row):
        // 4·8000 > 102·128 → dense.
        assert!(dense_is_cheaper(8000, 100, 128));
        // Same transmitters on n = 100_000 (1563 words/row): sparse.
        assert!(!dense_is_cheaper(8000, 100, 1563));
        // No transmitters: nothing to gain.
        assert!(!dense_is_cheaper(0, 0, 128));
    }

    #[test]
    fn dense_kernel_matches_reference_on_random_graphs() {
        let mut rng = Xoshiro256pp::new(77);
        for trial in 0..30u64 {
            let n = 20 + (trial as usize % 60);
            let p = [0.05, 0.3, 0.8][trial as usize % 3];
            let g = sample_gnp(n, p, &mut rng);
            for policy in [
                TransmitterPolicy::InformedOnly,
                TransmitterPolicy::Unrestricted,
            ] {
                let mut state = BroadcastState::new(n, 0);
                for v in 1..n as NodeId {
                    if rng.coin(0.4) {
                        state.inform(v, 0);
                    }
                }
                let transmitters: Vec<NodeId> =
                    (0..n as NodeId).filter(|_| rng.coin(0.3)).collect();
                let expected = reference_round(&g, &state, &transmitters, policy);

                let mut st = state.clone();
                let mut eng = RoundEngine::with_policy(&g, policy).with_kernel(EngineKernel::Dense);
                let out = eng.execute_round(&mut st, &transmitters, 1);
                assert_eq!(eng.kernel_used(), KernelUsed::Dense, "trial {trial}");
                let got: Vec<NodeId> = (0..n as NodeId)
                    .filter(|&v| !state.is_informed(v) && st.is_informed(v))
                    .collect();
                assert_eq!(got, expected, "trial {trial}, policy {policy:?}");
                assert_eq!(out.newly_informed, expected.len(), "trial {trial}");
            }
        }
    }

    #[test]
    fn dense_scratch_planes_reset_between_rounds() {
        let g = sample_gnp(200, 0.2, &mut Xoshiro256pp::new(5));
        let mut eng = RoundEngine::new(&g).with_kernel(EngineKernel::Dense);
        let mut st = BroadcastState::new(200, 0);
        let first = eng.execute_round(&mut st, &[0], 1);
        // A second round with the same single transmitter: everything it
        // reaches is now informed, so nothing new — any leftover plane bits
        // would surface as phantom collisions or receptions.
        let second = eng.execute_round(&mut st, &[0], 2);
        assert_eq!(second.newly_informed, 0);
        assert_eq!(second.reached, 0);
        assert_eq!(second.collisions, 0);
        assert!(first.newly_informed > 0);
    }

    #[test]
    fn auto_respects_bitmap_cap() {
        // Dense-friendly instance (small n, high degree)…
        let g = sample_gnp(512, 0.5, &mut Xoshiro256pp::new(9));
        let transmitters: Vec<NodeId> = (0..64).collect();

        // …with an ample cap: Auto goes dense.
        let mut eng = RoundEngine::new(&g);
        let mut st = BroadcastState::new(512, 0);
        for v in 0..256 {
            st.inform(v, 0);
        }
        eng.execute_round(&mut st.clone(), &transmitters, 1);
        assert_eq!(eng.kernel_used(), KernelUsed::Dense);

        // …with a cap below the bitmap size: Auto must stay sparse.
        let mut capped = RoundEngine::new(&g);
        capped.set_bitmap_cap(AdjacencyBitmap::bytes_needed(512) - 1);
        capped.execute_round(&mut st.clone(), &transmitters, 1);
        assert_eq!(capped.kernel_used(), KernelUsed::Sparse);
        assert_eq!(capped.bitmap_build_ns(), None, "bitmap must not be built");

        // Even an explicit Dense request falls back when over the cap.
        let mut forced = RoundEngine::new(&g).with_kernel(EngineKernel::Dense);
        forced.set_bitmap_cap(16);
        forced.execute_round(&mut st, &transmitters, 1);
        assert_eq!(forced.kernel_used(), KernelUsed::Sparse);
    }

    #[test]
    fn auto_prefers_sparse_for_tiny_transmitter_sets() {
        // One transmitter of tiny degree on a biggish graph: the row sweep
        // would touch far more words than the sparse walk touches edges.
        let g = radio_graph::Graph::path(5000);
        let mut eng = RoundEngine::new(&g);
        let mut st = BroadcastState::new(5000, 0);
        eng.execute_round(&mut st, &[0], 1);
        assert_eq!(eng.kernel_used(), KernelUsed::Sparse);
    }

    #[test]
    fn bitmap_build_time_recorded_once() {
        let g = sample_gnp(256, 0.5, &mut Xoshiro256pp::new(3));
        let mut eng = RoundEngine::new(&g).with_kernel(EngineKernel::Dense);
        assert_eq!(eng.bitmap_build_ns(), None);
        let mut st = BroadcastState::new(256, 0);
        eng.execute_round(&mut st, &[0], 1);
        let first = eng.bitmap_build_ns().expect("bitmap was built");
        eng.execute_round(&mut st, &[0], 2);
        assert_eq!(eng.bitmap_build_ns(), Some(first), "built exactly once");
    }
}
