//! Sampling Gilbert random graphs `G(n, p)`.
//!
//! This is the model the paper analyzes: every unordered pair of distinct
//! vertices is an edge independently with probability `p`.  Two samplers are
//! provided behind one front door, [`sample_gnp`]:
//!
//! * **Geometric skipping** (Batagelj & Brandes 2005) for sparse graphs:
//!   instead of flipping `C(n,2)` coins, jump directly to the next success of
//!   the Bernoulli process via geometric increments — expected time
//!   `O(n + m)`.
//! * **Dense enumeration** when `p` is large enough that skipping saves
//!   nothing (`p > 0.25`): walk all pairs and flip coins, which is simpler
//!   and branch-predictable.
//!
//! Helper constructors cover the parameterizations the experiments use:
//! [`gnp_with_average_degree`] (`p = d/n`) and
//! [`connectivity_threshold_p`] (`p = δ ln n / n`).

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::rng::Xoshiro256pp;

/// Samples `G(n, p)`.
///
/// Requires `0 ≤ p ≤ 1` (panics otherwise).  Deterministic given `rng`'s
/// state.
///
/// ```
/// use radio_graph::{gnp::sample_gnp, Xoshiro256pp};
///
/// let mut rng = Xoshiro256pp::new(42);
/// let g = sample_gnp(1_000, 0.02, &mut rng);
/// // Expected degree is p·n = 20; realized mean is close.
/// assert!((g.average_degree() - 20.0).abs() < 5.0);
/// ```
pub fn sample_gnp(n: usize, p: f64, rng: &mut Xoshiro256pp) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    assert!(n <= NodeId::MAX as usize, "n too large for u32 node ids");
    if n < 2 || p == 0.0 {
        return Graph::empty(n);
    }
    if p == 1.0 {
        return Graph::complete(n);
    }
    if p > 0.25 {
        sample_gnp_dense(n, p, rng)
    } else {
        sample_gnp_skip(n, p, rng)
    }
}

/// `G(n, p)` with `p = d / n`, i.e. expected average degree ≈ `d`.
///
/// (`d` is clamped into `[0, n]`.)  This is the parameterization
/// `d = pn` used throughout the paper.
pub fn gnp_with_average_degree(n: usize, d: f64, rng: &mut Xoshiro256pp) -> Graph {
    let p = (d / n as f64).clamp(0.0, 1.0);
    sample_gnp(n, p, rng)
}

/// The connectivity-threshold edge probability `δ · ln n / n` (clamped to 1).
///
/// For `δ > 1`, `G(n, p)` is connected w.h.p.; the paper assumes
/// `p ≥ δ ln n / n` with `δ` a sufficiently large constant.
pub fn connectivity_threshold_p(n: usize, delta: f64) -> f64 {
    if n < 2 {
        return 1.0;
    }
    (delta * (n as f64).ln() / n as f64).min(1.0)
}

/// `ln(1 − p)` for `0 < p < 1`: the denominator of the geometric skip
/// `⌊ln(1 − r) / ln(1 − p)⌋` in both `G(n, p)` samplers.
///
/// Below `p ≈ 1.1·10⁻¹⁶` the difference `1 − p` rounds to 1 and its log
/// to 0, which turns every skip into `⌊±∞⌋` or NaN (a complete graph, or
/// an overflow).  `ln_1p(−p)` stands in only for that zero, so every
/// larger `p` keeps the log, and the graphs, it always had.
pub(crate) fn log_q(p: f64) -> f64 {
    match (1.0 - p).ln() {
        0.0 => (-p).ln_1p(),
        log => log,
    }
}

/// Sparse sampler: geometric skipping over the implicit pair sequence.
fn sample_gnp_skip(n: usize, p: f64, rng: &mut Xoshiro256pp) -> Graph {
    let expected_m = (p * n as f64 * (n as f64 - 1.0) / 2.0) as usize;
    let mut b = GraphBuilder::with_edge_capacity(n, expected_m + expected_m / 8 + 16);
    let log_q = log_q(p); // < 0
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        // Skip a Geometric(p)-distributed number of pairs.
        let r = rng.next_f64();
        // ln(1-r)/ln(1-p) ≥ 0; the classic floor-based skip.  The cast
        // saturates for astronomically long skips, and so does the add.
        let skip = ((1.0 - r).ln() / log_q).floor() as i64;
        w = w.saturating_add(skip.saturating_add(1));
        while w >= v as i64 && v < n {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            b.add_edge(w as NodeId, v as NodeId);
        }
    }
    b.build()
}

/// Dense sampler: explicit coin flip per pair.
fn sample_gnp_dense(n: usize, p: f64, rng: &mut Xoshiro256pp) -> Graph {
    let expected_m = (p * n as f64 * (n as f64 - 1.0) / 2.0) as usize;
    let mut b = GraphBuilder::with_edge_capacity(n, expected_m + expected_m / 8 + 16);
    for v in 1..n as NodeId {
        for u in 0..v {
            if rng.coin(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;

    #[test]
    fn p_zero_empty() {
        let mut rng = Xoshiro256pp::new(1);
        let g = sample_gnp(100, 0.0, &mut rng);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn p_one_complete() {
        let mut rng = Xoshiro256pp::new(1);
        let g = sample_gnp(30, 1.0, &mut rng);
        assert_eq!(g.m(), 30 * 29 / 2);
    }

    #[test]
    fn tiny_graphs() {
        let mut rng = Xoshiro256pp::new(1);
        assert_eq!(sample_gnp(0, 0.5, &mut rng).n(), 0);
        assert_eq!(sample_gnp(1, 0.5, &mut rng).m(), 0);
    }

    #[test]
    fn edge_count_matches_expectation_sparse() {
        let mut rng = Xoshiro256pp::new(42);
        let n = 20_000;
        let p = 10.0 / n as f64; // sparse path
        let g = sample_gnp(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let sd = expected.sqrt();
        let m = g.m() as f64;
        assert!(
            (m - expected).abs() < 6.0 * sd,
            "m = {m}, expected {expected} ± {sd}"
        );
        assert!(g.check_invariants());
    }

    #[test]
    fn edge_count_matches_expectation_dense() {
        let mut rng = Xoshiro256pp::new(43);
        let n = 500;
        let p = 0.4; // dense path
        let g = sample_gnp(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let sd = (expected * (1.0 - p)).sqrt();
        let m = g.m() as f64;
        assert!(
            (m - expected).abs() < 6.0 * sd,
            "m = {m}, expected {expected} ± {sd}"
        );
        assert!(g.check_invariants());
    }

    #[test]
    fn per_pair_probability_uniform() {
        // Estimate P[edge(0,1)] and P[edge(n-2,n-1)] over many samples: the
        // skipping sampler must not bias early vs late pairs.
        let mut rng = Xoshiro256pp::new(7);
        let n = 12;
        let p = 0.2;
        let trials = 4000;
        let mut first = 0;
        let mut last = 0;
        for _ in 0..trials {
            let g = sample_gnp(n, p, &mut rng);
            if g.has_edge(0, 1) {
                first += 1;
            }
            if g.has_edge(n as NodeId - 2, n as NodeId - 1) {
                last += 1;
            }
        }
        let f = first as f64 / trials as f64;
        let l = last as f64 / trials as f64;
        assert!((f - p).abs() < 0.03, "first-pair rate {f}");
        assert!((l - p).abs() < 0.03, "last-pair rate {l}");
    }

    #[test]
    fn determinism_same_seed() {
        let mut a = Xoshiro256pp::new(5);
        let mut b = Xoshiro256pp::new(5);
        let ga = sample_gnp(1000, 0.01, &mut a);
        let gb = sample_gnp(1000, 0.01, &mut b);
        assert_eq!(ga, gb);
    }

    #[test]
    fn average_degree_parameterization() {
        let mut rng = Xoshiro256pp::new(9);
        let g = gnp_with_average_degree(10_000, 20.0, &mut rng);
        let avg = g.average_degree();
        assert!((avg - 20.0).abs() < 1.0, "avg degree {avg}");
    }

    #[test]
    fn connected_above_threshold() {
        let mut rng = Xoshiro256pp::new(11);
        let n = 2000;
        let p = connectivity_threshold_p(n, 3.0);
        // δ = 3 is comfortably above the threshold; all of a few samples
        // should be connected.
        for _ in 0..5 {
            let g = sample_gnp(n, p, &mut rng);
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn threshold_p_edge_cases() {
        assert_eq!(connectivity_threshold_p(0, 2.0), 1.0);
        assert_eq!(connectivity_threshold_p(1, 2.0), 1.0);
        let p = connectivity_threshold_p(100, 2.0);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn tiny_p_gives_an_empty_graph() {
        // 1 − p rounds to 1 for every one of these p.
        for p in [1e-17, 1e-300, f64::MIN_POSITIVE] {
            let g = sample_gnp(50, p, &mut Xoshiro256pp::new(1));
            assert_eq!(g.m(), 0, "p = {p:e}");
            assert!(log_q(p) < 0.0, "p = {p:e}");
        }
        // Where 1 − p is below 1 the log is the one it always was.
        for p in [1e-12, 1e-16, 0.3] {
            assert_eq!(log_q(p), (1.0 - p).ln(), "p = {p:e}");
        }
    }

    #[test]
    #[should_panic]
    fn invalid_p_panics() {
        let mut rng = Xoshiro256pp::new(1);
        let _ = sample_gnp(10, 1.5, &mut rng);
    }
}
