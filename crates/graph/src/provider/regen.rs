//! Eight-row AVX-512 regeneration of [`ImplicitGnp`] rows.
//!
//! The one-row path ([`ImplicitGnp::forward_row`]) pays one libm `ln` per
//! edge on a serial chain that ends in an unpredictable exit branch.  This
//! kernel runs eight rows in lockstep instead: vector lane `l` holds row
//! `u0 + l`'s `SplitMix64(derive_seed(seed, u))` stream, so each step
//! draws one value per row, turns it into a skip with a vectorized log,
//! and advances every row that has not left the graph.  The columns of
//! each step go into a step-major `u32` buffer, and when the group's last
//! row ends the buffer is emitted row by row, so `visit` still sees
//! ascending `(u, v)` order.
//!
//! ## Exactness
//!
//! Every skip is the one-row path's [`geometric_skip`], bit for bit, so
//! every graph, run and `materialize()` is unchanged:
//!
//! * The draws are the same: `m = next() >> 11` and `r = m·2⁻⁵³`, with the
//!   seeds derived as [`derive_seed`](crate::rng::derive_seed) does, and
//!   `1 − r` is exact.
//! * `ln x` for `x = 1 − r ∈ [2⁻⁵³, 1]` is `e·ln 2 + 2·atanh(s)`, where
//!   `getexp`/`getmant` split `x = 2ᵉ·m` exactly, a `√2` fold (halve `m`,
//!   bump `e`) keeps `m ∈ [√2/2, √2)`, and `s = (m − 1)/(m + 1)` has
//!   `|s| ≤ 0.1716`.  The odd atanh series to `s¹⁷` then truncates below
//!   `2⁻⁵⁰` relative, the fold keeps `|2·atanh(s)| ≤ |e·ln 2|/2` so the sum
//!   cannot cancel, and the dozen roundings on the way add a few `2⁻⁵³`:
//!   the vector log is within `2⁻⁴⁸` of `ln x`, relative (the tests see at
//!   most `2⁻⁴⁹·⁶` against libm).  Two more roundings, a reciprocal and a
//!   product, put the vector quotient `q̃ = ln x / ln(1 − p)` within
//!   `2⁻⁴⁷·q̃` of the true one; libm's `ln` (under one ulp) and the divide
//!   put the scalar quotient within `2⁻⁵¹` of it.
//! * A lane takes `⌊q̃·(1 − 2⁻³⁶)⌋` as its skip only when that equals
//!   `⌊q̃·(1 + 2⁻³⁶)⌋`: the margin is about 2¹⁰ times the error budget, so
//!   the scalar quotient lies in the same interval and has the same floor.
//!   Every other lane (a quotient within the margin of an integer, about
//!   `2⁻³⁵·q̃` of the draws) calls [`geometric_skip`] itself, unless its
//!   interval lies past the row's last candidate, where any skip in it
//!   ends the row.
//!
//! The test module pins the vector log against libm, the skip step
//! against [`geometric_skip`] on random and constructed near-integer
//! draws, and the row path against the one-row loop.

use std::arch::x86_64::*;
use std::ops::Range;

use super::{geometric_skip, ImplicitGnp};
use crate::csr::NodeId;
use crate::rng::{DERIVE_SEED_MUL, SPLITMIX_GAMMA, SPLITMIX_MULS};

/// Buffered steps per group: the buffer is `STEPS × 8` `u32`s (16 KiB) on
/// the stack, and a row with `STEPS` or more edges is redone on the
/// one-row path.
pub(super) const STEPS: usize = 512;

/// Relative margin around each vector quotient (see the module docs).
const MARGIN: f64 = 1.0 / (1u64 << 36) as f64;

/// Whether this CPU runs the kernel: it uses exactly AVX-512F and
/// AVX-512DQ (64-bit multiplies and `u64 ↔ f64` conversions).
#[inline]
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

/// [`GraphProvider::for_forward_edges`](super::GraphProvider::for_forward_edges)
/// for an [`ImplicitGnp`], eight rows at a time, buffering up
/// to `CAP` steps per group.
///
/// Rows outside `0..n` have no edges, as on the one-row path.  A row
/// that fills the buffer is redone on [`ImplicitGnp::forward_row`], which
/// gives the same edges, and so are graphs the kernel does not cover
/// (`p` of 0 or 1, or a `ln(1 − p)` too close to 0 for its reciprocal to
/// be finite).
///
/// # Safety
///
/// Requires AVX-512F and AVX-512DQ at run time.
#[target_feature(enable = "avx512f,avx512dq")]
pub(super) unsafe fn forward_rows<const CAP: usize>(
    g: &ImplicitGnp,
    rows: Range<NodeId>,
    visit: &mut dyn FnMut(NodeId, NodeId),
) {
    let inv_log_q = 1.0 / g.log_q;
    if !(g.p > 0.0 && g.p < 1.0 && inv_log_q.is_finite()) {
        for u in rows {
            g.forward_row(u, visit);
        }
        return;
    }
    let mut buf = [[0u32; 8]; CAP];
    // Rows from `n − 1` on have no candidates.
    let end = rows.end.min(g.n.saturating_sub(1) as NodeId);
    let mut u0 = rows.start;
    while u0 < end {
        let lanes = (end - u0).min(8);
        let (lens, full) = fill_group(g, inv_log_q, u0, &mut buf);
        for l in 0..lanes {
            let u = u0 + l;
            if full >> l & 1 == 1 {
                g.forward_row(u, visit);
            } else {
                for step in &buf[..lens[l as usize] as usize] {
                    visit(u, step[l as usize]);
                }
            }
        }
        u0 += lanes;
    }
}

/// Runs rows `u0..u0 + 8` in lockstep until each has left the graph or
/// `buf` is full.  Step `k`'s columns go to `buf[k]`; returns each lane's
/// edge count (its valid prefix of `buf`) and the mask of lanes still
/// running when the buffer filled.  Rows from `n − 1` on have no edges,
/// and a group that reaches past its caller's range runs those rows too.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_group<const CAP: usize>(
    g: &ImplicitGnp,
    inv_log_q: f64,
    u0: NodeId,
    buf: &mut [[u32; 8]; CAP],
) -> ([u64; 8], u8) {
    let one = _mm512_set1_pd(1.0);
    let rows = _mm512_add_epi64(
        _mm512_set1_epi64(i64::from(u0)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
    );
    // `v` is each row's last column; `left` its candidates past `v`.
    // Both stay exact in f64 (n < 2³²).  A lane that leaves takes
    // `left = −1`, where the updates below hold it still.
    let mut v = _mm512_cvtepu64_pd(rows);
    let mut left = _mm512_sub_pd(_mm512_set1_pd((g.n - 1) as f64), v);
    let mut running = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(left, _mm512_setzero_pd());
    // derive_seed(seed, u): one SplitMix64 output from `seed ^ u·C`.
    let mut state = splitmix_mix(_mm512_add_epi64(
        _mm512_xor_si512(
            _mm512_mullo_epi64(rows, _mm512_set1_epi64(DERIVE_SEED_MUL as i64)),
            _mm512_set1_epi64(g.seed as i64),
        ),
        _mm512_set1_epi64(SPLITMIX_GAMMA as i64),
    ));
    let mut lens = _mm512_setzero_si512();
    for step in buf.iter_mut() {
        if running == 0 {
            break;
        }
        state = _mm512_add_epi64(state, _mm512_set1_epi64(SPLITMIX_GAMMA as i64));
        let m = _mm512_srli_epi64::<11>(splitmix_mix(state));
        let (skip, _) = skip_step(m, left, g.log_q, inv_log_q);
        running &= _mm512_cmp_pd_mask::<_CMP_LT_OQ>(skip, left);
        let advance = _mm512_add_pd(skip, one);
        v = _mm512_add_pd(v, advance);
        left = _mm512_sub_pd(left, advance);
        // SAFETY: `step` is one 32-byte row of the buffer.  Every lane's
        // `v` lies in `0..=n` and n ≤ u32::MAX, so the conversion is exact.
        unsafe {
            _mm256_storeu_si256(step.as_mut_ptr().cast(), _mm512_cvttpd_epu32(v));
        }
        lens = _mm512_mask_add_epi64(lens, running, lens, _mm512_set1_epi64(1));
    }
    let mut out = [0u64; 8];
    // SAFETY: `out` is eight u64s, one 64-byte vector.
    unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), lens) };
    (out, running)
}

/// SplitMix64's output mix, as in [`SplitMix64::next`](crate::SplitMix64::next).
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn splitmix_mix(z: __m512i) -> __m512i {
    let z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)),
        _mm512_set1_epi64(SPLITMIX_MULS[0] as i64),
    );
    let z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)),
        _mm512_set1_epi64(SPLITMIX_MULS[1] as i64),
    );
    _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
}

/// One skip per lane for the 53-bit draws `m` (`r = m·2⁻⁵³`), capped at
/// the lane's `left` (any skip ≥ `left` ends its row): lane by lane,
/// `min(geometric_skip(r, log_q), left)`, exactly.  `left` must be an
/// integer below 2⁵³ (or negative, which yields `left`).  Also returns
/// the lanes that fell back to [`geometric_skip`].
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn skip_step(m: __m512i, left: __m512d, log_q: f64, inv_log_q: f64) -> (__m512d, u8) {
    let r = _mm512_mul_pd(
        _mm512_cvtepu64_pd(m),
        _mm512_set1_pd(1.0 / (1u64 << 53) as f64),
    );
    let q = _mm512_mul_pd(
        ln(_mm512_sub_pd(_mm512_set1_pd(1.0), r)),
        _mm512_set1_pd(inv_log_q),
    );
    let lo = _mm512_mul_pd(q, _mm512_set1_pd(1.0 - MARGIN));
    let hi = _mm512_mul_pd(q, _mm512_set1_pd(1.0 + MARGIN));
    let floor_lo = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(lo);
    let floor_hi = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(hi);
    let skip = _mm512_min_pd(floor_lo, left);
    // An integer inside [lo, hi] below `left` leaves the skip open.
    let unsure = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(floor_lo, floor_hi)
        & _mm512_cmp_pd_mask::<_CMP_NGE_UQ>(lo, left);
    if unsure == 0 {
        return (skip, 0);
    }
    (scalar_skips(m, left, skip, unsure, log_q), unsure)
}

/// [`skip_step`]'s fallback: lanes in `unsure` take
/// `min(geometric_skip(r, log_q), left)`, the rest keep `skip`.
#[cold]
#[inline(never)]
#[target_feature(enable = "avx512f")]
fn scalar_skips(m: __m512i, left: __m512d, skip: __m512d, unsure: u8, log_q: f64) -> __m512d {
    let (mut ms, mut lefts, mut skips) = ([0u64; 8], [0f64; 8], [0f64; 8]);
    // SAFETY: each array is one 64-byte vector.
    unsafe {
        _mm512_storeu_si512(ms.as_mut_ptr().cast(), m);
        _mm512_storeu_pd(lefts.as_mut_ptr(), left);
        _mm512_storeu_pd(skips.as_mut_ptr(), skip);
    }
    for l in (0..8).filter(|l| unsure >> l & 1 == 1) {
        let r = ms[l] as f64 * (1.0 / (1u64 << 53) as f64);
        skips[l] = (geometric_skip(r, log_q) as f64).min(lefts[l]);
    }
    // SAFETY: as above.
    unsafe { _mm512_loadu_pd(skips.as_ptr()) }
}

/// `ln x` for `x ∈ [2⁻⁵³, 1]`, within `2⁻⁴⁸·|ln x|` (see the module
/// docs), and exactly 0 at `x = 1`.
#[inline]
#[target_feature(enable = "avx512f")]
fn ln(x: __m512d) -> __m512d {
    let one = _mm512_set1_pd(1.0);
    let e = _mm512_getexp_pd(x);
    let m = _mm512_getmant_pd::<_MM_MANT_NORM_1_2, _MM_MANT_SIGN_SRC>(x);
    // Fold m ∈ [√2, 2) to m/2 so that |ln m| ≤ ln √2.
    let high = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(m, _mm512_set1_pd(std::f64::consts::SQRT_2));
    let m = _mm512_mask_mul_pd(m, high, m, _mm512_set1_pd(0.5));
    let e = _mm512_mask_add_pd(e, high, e, one);
    // ln m = 2·atanh(s) = 2s·(1 + s²/3 + s⁴/5 + … + s¹⁶/17).
    let s = _mm512_div_pd(_mm512_sub_pd(m, one), _mm512_add_pd(m, one));
    let s2 = _mm512_mul_pd(s, s);
    let mut poly = _mm512_set1_pd(1.0 / 17.0);
    for c in [15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0, 1.0] {
        poly = _mm512_fmadd_pd(poly, s2, _mm512_set1_pd(1.0 / c));
    }
    let ln_m = _mm512_mul_pd(_mm512_add_pd(s, s), poly);
    _mm512_fmadd_pd(e, _mm512_set1_pd(std::f64::consts::LN_2), ln_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::GraphProvider;
    use crate::rng::Xoshiro256pp;

    fn kernel_or_skip() -> bool {
        if available() {
            true
        } else {
            eprintln!("skipped: this CPU lacks AVX-512F/DQ");
            false
        }
    }

    /// The vector log of eight values.
    fn ln8(x: [f64; 8]) -> [f64; 8] {
        let mut out = [0.0; 8];
        // SAFETY: callers checked `available()`; the arrays are 64 bytes.
        unsafe {
            _mm512_storeu_pd(out.as_mut_ptr(), ln(_mm512_loadu_pd(x.as_ptr())));
        }
        out
    }

    /// The vector skip step on eight draws: skips and fallback mask.
    fn skip8(m: [u64; 8], left: [f64; 8], log_q: f64) -> ([f64; 8], u8) {
        let mut out = [0.0; 8];
        // SAFETY: callers checked `available()`; the arrays are 64 bytes.
        unsafe {
            let (skip, unsure) = skip_step(
                _mm512_loadu_si512(m.as_ptr().cast()),
                _mm512_loadu_pd(left.as_ptr()),
                log_q,
                1.0 / log_q,
            );
            _mm512_storeu_pd(out.as_mut_ptr(), skip);
            (out, unsure)
        }
    }

    /// The one-row definition of a capped skip.
    fn scalar_skip(m: u64, left: f64, log_q: f64) -> f64 {
        let r = m as f64 * (1.0 / (1u64 << 53) as f64);
        (geometric_skip(r, log_q) as f64).min(left)
    }

    /// Checks every lane of `m` against the scalar skip; returns how many
    /// lanes fell back.
    fn check8(m: [u64; 8], left: [f64; 8], p: f64) -> u32 {
        let log_q = crate::gnp::log_q(p);
        let (got, unsure) = skip8(m, left, log_q);
        for l in 0..8 {
            let want = scalar_skip(m[l], left[l], log_q);
            assert_eq!(
                got[l], want,
                "p {p:e} m {} left {}: vector skip differs",
                m[l], left[l]
            );
        }
        unsure.count_ones()
    }

    #[test]
    fn provider_vector_ln_within_its_bound() {
        if !kernel_or_skip() {
            return;
        }
        let mut rng = Xoshiro256pp::new(0x1E);
        let mut xs: Vec<f64> = (0..200_000)
            .map(|_| 1.0 - (rng.next() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        // Powers of two from 1 down to 2⁻⁵³, and both sides of the √2 fold.
        for k in 0..=53 {
            let x = 0.5f64.powi(k);
            xs.extend([x, x.next_down(), x * std::f64::consts::FRAC_1_SQRT_2]);
        }
        xs.retain(|&x| (0.5f64.powi(53)..=1.0).contains(&x));
        xs.resize(xs.len().next_multiple_of(8), 1.0);
        for chunk in xs.chunks_exact(8) {
            let x: [f64; 8] = chunk.try_into().unwrap();
            for (l, got) in ln8(x).into_iter().enumerate() {
                let want = x[l].ln();
                // The documented 2⁻⁴⁸, plus libm's own ulp.
                let bound = want.abs() * (0.5f64.powi(48) + 0.5f64.powi(52));
                assert!(
                    (got - want).abs() <= bound,
                    "ln {:e}: vector {got:e}, libm {want:e}",
                    x[l]
                );
            }
        }
        assert_eq!(ln8([1.0; 8]), [0.0; 8]);
    }

    #[test]
    fn provider_vector_skip_matches_scalar_on_random_draws() {
        if !kernel_or_skip() {
            return;
        }
        let mut rng = Xoshiro256pp::new(0x5EED);
        let probs = [1e-12, 1e-6, 1.5e-4, 5e-4, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9];
        let (mut draws, mut fallbacks) = (0u64, 0u32);
        for &p in &probs {
            for _ in 0..16_000 {
                let m: [u64; 8] = std::array::from_fn(|_| rng.next() >> 11);
                // Row lengths of real graphs, and uncapped skips.
                let left: [f64; 8] = std::array::from_fn(|l| match l {
                    0 => ((1u64 << 53) - 1) as f64,
                    1 => -1.0,
                    _ => rng.below(1 << (4 * l)) as f64,
                });
                fallbacks += check8(m, left, p);
                draws += 8;
            }
        }
        assert!(draws >= 1_000_000);
        eprintln!("{fallbacks} fallbacks in {draws} draws");
    }

    #[test]
    fn provider_vector_skip_matches_scalar_near_integer_quotients() {
        if !kernel_or_skip() {
            return;
        }
        let uncapped = [((1u64 << 53) - 1) as f64; 8];
        let mut fallbacks = 0;
        for p in [1e-12, 1.5e-4, 5e-4, 0.5, 1.0 - 0.5f64.powi(20)] {
            let log_q = crate::gnp::log_q(p);
            // Quotient k falls exactly at x = (1 − p)^k, so take the grid
            // points m = 2⁵³·(1 − x) nearest it and their neighbours.
            let mut ks: Vec<f64> = (0..=40).map(|j| 1.7f64.powi(j).floor()).collect();
            ks.extend((1..=30).map(|j| (j as f64 * 1.2 / -log_q).round()));
            let mut ms = vec![0, 1, 2, 3];
            for k in ks {
                let x = (k * log_q).exp();
                if k < 1.0 || x < 0.5f64.powi(52) {
                    continue;
                }
                let at = (1u64 << 53) - (x * (1u64 << 53) as f64).round() as u64;
                ms.extend((at.saturating_sub(3)..=at + 3).filter(|&m| m < 1 << 53));
            }
            ms.resize(ms.len().next_multiple_of(8), 0);
            for chunk in ms.chunks_exact(8) {
                fallbacks += check8(chunk.try_into().unwrap(), uncapped, p);
            }
        }
        assert!(fallbacks > 0, "no constructed draw reached the fallback");
    }

    /// The one-row loop over `rows`.
    fn scalar_edges(g: &ImplicitGnp, rows: Range<NodeId>) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in rows {
            g.forward_row(u, &mut |u, v| out.push((u, v)));
        }
        out
    }

    fn kernel_edges<const CAP: usize>(
        g: &ImplicitGnp,
        rows: Range<NodeId>,
    ) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        // SAFETY: callers checked `available()`.
        unsafe { forward_rows::<CAP>(g, rows, &mut |u, v| out.push((u, v))) };
        out
    }

    #[test]
    fn provider_vector_rows_match_scalar_rows() {
        if !kernel_or_skip() {
            return;
        }
        let graphs = [
            (0, 0.3),
            (1, 0.3),
            (2, 0.9),
            (7, 0.4),
            (8, 0.4),
            (9, 0.4),
            (1000, 0.02),
            (1000, 0.5),
            (1000, 1e-12),
            (3000, 4e-3),
        ];
        for (n, p) in graphs {
            let g = ImplicitGnp::new(n, p, 17 + n as u64);
            let n = n as NodeId;
            let mut ranges = vec![0..n, 0..0, 3..5, n.saturating_sub(1)..n, n / 3..n / 3 + 13];
            ranges.extend([1..n.max(1), 5..n.max(5) + 9, n..n + 3]);
            ranges.retain(|r| r.start <= r.end);
            for rows in ranges {
                let want = scalar_edges(&g, rows.clone());
                let ctx = format!("n {n} p {p:e} rows {rows:?}");
                assert_eq!(kernel_edges::<STEPS>(&g, rows.clone()), want, "{ctx}");
                // Buffers that overflow: those rows redo on the scalar path.
                assert_eq!(kernel_edges::<1>(&g, rows.clone()), want, "{ctx}, 1 step");
                assert_eq!(kernel_edges::<3>(&g, rows.clone()), want, "{ctx}, 3 steps");
                let mut got = Vec::new();
                g.for_forward_edges(rows, &mut |u, v| got.push((u, v)));
                assert_eq!(got, want, "{ctx}: for_forward_edges");
            }
        }
    }

    #[test]
    fn provider_vector_rows_match_scalar_on_whole_graphs() {
        if !kernel_or_skip() {
            return;
        }
        for (n, d, seed) in [(20_000, 12.0, 3), (5_000, 60.0, 4), (4_099, 3.0, 5)] {
            let g = ImplicitGnp::with_average_degree(n, d, seed);
            let rows = 0..n as NodeId;
            let want = scalar_edges(&g, rows.clone());
            assert_eq!(kernel_edges::<STEPS>(&g, rows.clone()), want, "n {n} d {d}");
            assert_eq!(kernel_edges::<16>(&g, rows), want, "n {n} d {d}, 16 steps");
        }
    }
}
