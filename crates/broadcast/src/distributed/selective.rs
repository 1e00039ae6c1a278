//! Strongly selective families and deterministic broadcast (baseline).
//!
//! The paper's introduction surveys deterministic broadcasting in *worst
//! case* radio networks, where the standard tool is the (strongly) selective
//! family (Chlebus et al., Clementi et al.): a family `F` of subsets of
//! `[n]` such that for every set `A` with `|A| ≤ k` and every `a ∈ A`, some
//! `S ∈ F` has `S ∩ A = {a}`.  Cycling the family as a transmission
//! schedule guarantees every frontier node with at most `k` informed
//! neighbors gets a collision-free round within `|F|` rounds.
//!
//! The construction here is the classical prime-residue family: for the
//! first `t = k·⌈log_k n⌉ + 1` primes `q ≥ k` take all residue classes
//! `S_{q,r} = {v < n : v ≡ r (mod q)}`.  Distinct `x, y < n` collide
//! (`x ≡ y mod q`) for fewer than `log_k n` of these primes, so for each
//! `a ∈ A` fewer than `(k−1)·log_k n < t` primes are spoiled and a
//! selecting set survives.  Family size is `O(k² log n / log k)` —
//! polynomially larger than the `O(k log n)` existential bound, but
//! explicit and deterministic.
//!
//! [`SelectiveBroadcast`] turns the family into the natural deterministic
//! protocol, the worst-case-flavored baseline of experiment `E-CMP`.

use radio_graph::{NodeId, Xoshiro256pp};
use radio_sim::{LocalNode, Protocol};

/// A strongly `(n, k)`-selective family of prime-residue sets.
///
/// Sets are represented implicitly as `(modulus, residue)` pairs; membership
/// is `v ≡ residue (mod modulus)`.
#[derive(Debug, Clone)]
pub struct SelectiveFamily {
    n: usize,
    k: usize,
    /// `(q, r)` pairs, in schedule order.
    sets: Vec<(u32, u32)>,
}

/// Returns the first `count` primes that are `≥ lo`.
fn primes_from(lo: u32, count: usize) -> Vec<u32> {
    let mut primes = Vec::with_capacity(count);
    let mut cand = lo.max(2);
    while primes.len() < count {
        if is_prime(cand) {
            primes.push(cand);
        }
        cand += 1;
    }
    primes
}

fn is_prime(x: u32) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut f = 3u32;
    while (f as u64) * (f as u64) <= x as u64 {
        if x.is_multiple_of(f) {
            return false;
        }
        f += 2;
    }
    true
}

impl SelectiveFamily {
    /// Builds a strongly `(n, k)`-selective family, `1 ≤ k ≤ n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n >= 1 && (1..=n).contains(&k), "need 1 ≤ k ≤ n");
        // Number of primes: k·⌈log_k n⌉ + 1 (for k = 1, a single prime
        // suffices conceptually, but log base must be ≥ 2).
        let base = (k as f64).max(2.0);
        let log_k_n = ((n.max(2) as f64).ln() / base.ln()).ceil() as usize;
        let t = k * log_k_n.max(1) + 1;
        let primes = primes_from(k as u32, t);
        let mut sets = Vec::new();
        for &q in &primes {
            for r in 0..q.min(n as u32) {
                sets.push((q, r));
            }
        }
        SelectiveFamily { n, k, sets }
    }

    /// Number of sets (= schedule period) in the family.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the family is empty (never, for valid parameters).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The selectivity parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The universe size `n`.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Whether node `v` belongs to set `index`.
    #[inline]
    pub fn contains(&self, index: usize, v: NodeId) -> bool {
        let (q, r) = self.sets[index];
        v % q == r
    }

    /// Materializes set `index` as a node list (for tests/inspection).
    pub fn set_members(&self, index: usize) -> Vec<NodeId> {
        (0..self.n as NodeId)
            .filter(|&v| self.contains(index, v))
            .collect()
    }

    /// Verifies strong selectivity for a specific set `a_set`: every element
    /// must be uniquely selected by some family member.  Exponential in
    /// nothing — `O(|F|·|A|)` — but intended for tests.
    pub fn selects_all(&self, a_set: &[NodeId]) -> bool {
        a_set.iter().all(|&a| {
            (0..self.sets.len()).any(|i| {
                self.contains(i, a) && a_set.iter().all(|&b| b == a || !self.contains(i, b))
            })
        })
    }
}

/// Deterministic broadcast by cycling a strongly selective family.
#[derive(Debug, Clone)]
pub struct SelectiveBroadcast {
    family: SelectiveFamily,
}

impl SelectiveBroadcast {
    /// Broadcast protocol using `family` as the round schedule.
    pub fn new(family: SelectiveFamily) -> Self {
        SelectiveBroadcast { family }
    }

    /// Protocol for universe `n` with selectivity `k` (usually
    /// `k ≈ Δ + 1`, the max degree bound).
    pub fn for_degree_bound(n: usize, k: usize) -> Self {
        SelectiveBroadcast {
            family: SelectiveFamily::new(n, k),
        }
    }

    /// The underlying family.
    pub fn family(&self) -> &SelectiveFamily {
        &self.family
    }
}

impl Protocol for SelectiveBroadcast {
    fn name(&self) -> String {
        format!("selective-family-k={}", self.family.k())
    }

    fn transmits(&mut self, node: LocalNode, _rng: &mut Xoshiro256pp) -> bool {
        let idx = ((node.round - 1) as usize) % self.family.len();
        self.family.contains(idx, node.id)
    }

    fn transmits_lanes(
        &mut self,
        id: NodeId,
        round: u32,
        lanes: u64,
        _informed_round: &[u32],
        _rngs: &mut [Xoshiro256pp],
    ) -> u64 {
        let idx = ((round - 1) as usize) % self.family.len();
        if self.family.contains(idx, id) {
            lanes
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::gnp::sample_gnp;
    use radio_sim::{RunConfig, RunSpec};

    #[test]
    fn prime_helpers() {
        assert!(is_prime(2));
        assert!(is_prime(13));
        assert!(!is_prime(1));
        assert!(!is_prime(15));
        assert_eq!(primes_from(10, 3), vec![11, 13, 17]);
    }

    #[test]
    fn family_selects_small_sets() {
        let fam = SelectiveFamily::new(100, 5);
        // Exhaustive-ish check on a handful of adversarial sets.
        assert!(fam.selects_all(&[0, 1, 2, 3, 4]));
        assert!(fam.selects_all(&[10, 20, 30, 40, 50]));
        assert!(fam.selects_all(&[7, 14, 21, 28, 35]));
        assert!(fam.selects_all(&[99]));
    }

    #[test]
    fn family_selects_random_sets() {
        let fam = SelectiveFamily::new(200, 8);
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..50 {
            let mut set: Vec<NodeId> = (0..8).map(|_| rng.below(200) as NodeId).collect();
            set.sort_unstable();
            set.dedup();
            assert!(fam.selects_all(&set), "failed on {set:?}");
        }
    }

    #[test]
    fn set_membership_consistent() {
        let fam = SelectiveFamily::new(50, 3);
        for i in 0..fam.len().min(10) {
            let members = fam.set_members(i);
            for v in 0..50 as NodeId {
                assert_eq!(members.contains(&v), fam.contains(i, v));
            }
        }
    }

    #[test]
    fn family_size_scales_with_k_squared() {
        let small = SelectiveFamily::new(1000, 4).len();
        let large = SelectiveFamily::new(1000, 16).len();
        assert!(large > small);
    }

    #[test]
    fn broadcast_completes_on_bounded_degree_graph() {
        // Sparse random graph; k set above the realized max degree + 1.
        let mut rng = Xoshiro256pp::new(2);
        let n = 200;
        let g = sample_gnp(n, 4.0 / n as f64, &mut rng);
        let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
        let mut proto = SelectiveBroadcast::for_degree_bound(n, max_deg + 1);
        let period = proto.family().len() as u32;
        // Budget: diameter · period is certainly enough.
        let cfg = RunConfig::for_graph(n).with_max_rounds(period * 64);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        // The run is on the giant component only if connected; tolerate
        // disconnected samples by checking informed ≥ component reachability
        // via completion OR stagnation at a fixed point.
        if radio_graph::components::is_connected(&g) {
            assert!(r.completed, "informed {}/{n}", r.informed);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_k_rejected() {
        let _ = SelectiveFamily::new(10, 0);
    }
}
