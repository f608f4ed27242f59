//! Shared computation kernels of Algorithms 3–8.
//!
//! * [`local_core`] — the `LocalCore` procedure (Alg. 3 lines 11–20):
//!   evaluate Eq. 1, `core(v) = max k s.t. |{u ∈ nbr(v) | core(u) ≥ k}| ≥ k`,
//!   given the current estimate upper bound `cold`.
//! * [`compute_cnt`] — the `ComputeCnt` procedure (Alg. 5 lines 16–20):
//!   evaluate Eq. 2, `cnt(v) = |{u ∈ nbr(v) | core(u) ≥ core(v)}|`.
//!
//! Both are `O(deg(v))` and allocation-free thanks to a reusable
//! [`Scratch`] histogram.

/// Reusable histogram buffer for [`local_core`].
///
/// Holds `num(i)` counters indexed by core value. Reused across calls so the
/// inner loop of every semi-external algorithm allocates nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    num: Vec<u32>,
}

impl Scratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Bytes currently held (for memory accounting).
    pub fn resident_bytes(&self) -> u64 {
        (self.num.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// The `LocalCore` procedure: recompute `v`'s core estimate from the
/// estimates of its neighbours, given its current estimate `cold`.
///
/// Returns the largest `k ≤ cold` with at least `k` neighbours whose
/// estimate is `≥ k` (0 when no such `k` exists). Estimates never increase,
/// matching Theorem 4.1's fixpoint iteration started from an upper bound.
///
/// Note: the paper's line 19 reads `if s ≥ i then break`, a typo for
/// `s ≥ k`; we implement the intended comparison.
pub fn local_core(cold: u32, core: &[u32], nbrs: &[u32], scratch: &mut Scratch) -> u32 {
    if cold == 0 || nbrs.is_empty() {
        return 0;
    }
    let cold_us = cold as usize;
    if scratch.num.len() < cold_us + 1 {
        scratch.num.resize(cold_us + 1, 0);
    }
    // num(i) = #neighbours with min(cold, core(u)) == i.
    let num = &mut scratch.num[..cold_us + 1];
    for x in num.iter_mut() {
        *x = 0;
    }
    for &u in nbrs {
        let i = cold.min(core[u as usize]) as usize;
        num[i] += 1;
    }
    // Walk k downward accumulating s = #neighbours with core >= k.
    let mut s = 0u64;
    let mut k = cold_us;
    while k >= 1 {
        s += num[k] as u64;
        if s >= k as u64 {
            return k as u32;
        }
        k -= 1;
    }
    0
}

/// The `ComputeCnt` procedure: `|{u ∈ nbr(v) | core(u) ≥ threshold}|` (Eq. 2
/// with `threshold = core(v)`).
#[inline]
pub fn compute_cnt(threshold: u32, core: &[u32], nbrs: &[u32]) -> u32 {
    let mut s = 0u32;
    for &u in nbrs {
        if core[u as usize] >= threshold {
            s += 1;
        }
    }
    s
}

/// Reference implementation of Eq. 1 by direct search (used in tests to
/// cross-check [`local_core`], deliberately written differently).
#[cfg(any(test, feature = "testing"))]
pub fn local_core_naive(cold: u32, core: &[u32], nbrs: &[u32]) -> u32 {
    let mut best = 0;
    for k in 1..=cold {
        let support = nbrs.iter().filter(|&&u| core[u as usize] >= k).count() as u32;
        if support >= k {
            best = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_v3_iteration1() {
        // Fig. 2: processing v3 in iteration 1, neighbour cores
        // {3, 3, 3, 3, 5, 3}, cold = 6 -> new core 3.
        let core = vec![3, 3, 3, 6, 3, 5, 3];
        let nbrs = vec![0, 1, 2, 4, 5, 6];
        let mut s = Scratch::new();
        assert_eq!(local_core(6, &core, &nbrs, &mut s), 3);
    }

    #[test]
    fn zero_cases() {
        let mut s = Scratch::new();
        assert_eq!(local_core(0, &[], &[], &mut s), 0);
        let core = vec![5u32, 5];
        assert_eq!(local_core(3, &core, &[], &mut s), 0);
    }

    #[test]
    fn all_neighbours_at_zero_gives_zero() {
        let core = vec![0, 0, 4];
        let nbrs = vec![0, 1];
        let mut s = Scratch::new();
        assert_eq!(local_core(4, &core, &nbrs, &mut s), 0);
    }

    #[test]
    fn result_capped_by_cold() {
        // 5 neighbours all with huge cores, but cold = 2.
        let core = vec![9, 9, 9, 9, 9, 2];
        let nbrs = vec![0, 1, 2, 3, 4];
        let mut s = Scratch::new();
        assert_eq!(local_core(2, &core, &nbrs, &mut s), 2);
    }

    #[test]
    fn compute_cnt_counts_threshold() {
        let core = vec![1, 2, 3, 4, 5];
        let nbrs = vec![0, 1, 2, 3, 4];
        assert_eq!(compute_cnt(3, &core, &nbrs), 3);
        assert_eq!(compute_cnt(1, &core, &nbrs), 5);
        assert_eq!(compute_cnt(6, &core, &nbrs), 0);
    }

    #[test]
    fn matches_naive_on_pseudorandom_inputs() {
        let mut s = Scratch::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for trial in 0..500 {
            let n = 1 + (next() % 40) as usize;
            let core: Vec<u32> = (0..n).map(|_| next() % 12).collect();
            let deg = (next() % n as u32) as usize;
            let nbrs: Vec<u32> = (0..deg).map(|_| next() % n as u32).collect();
            let cold = 1 + next() % 12;
            assert_eq!(
                local_core(cold, &core, &nbrs, &mut s),
                local_core_naive(cold, &core, &nbrs),
                "trial {trial}: cold={cold} core={core:?} nbrs={nbrs:?}"
            );
        }
    }

    #[test]
    fn scratch_is_reusable_across_growing_colds() {
        let mut s = Scratch::new();
        let core = vec![2, 2, 2];
        let nbrs = vec![0, 1, 2];
        assert_eq!(local_core(2, &core, &nbrs, &mut s), 2);
        let core = vec![9; 10];
        let nbrs: Vec<u32> = (0..10).collect();
        assert_eq!(local_core(9, &core, &nbrs, &mut s), 9);
        // Shrink back down: stale histogram entries must not leak.
        let core = vec![1, 1];
        let nbrs = vec![0, 1];
        assert_eq!(local_core(1, &core, &nbrs, &mut s), 1);
    }
}
