//! A small seeded pseudo-random generator (SplitMix64 core, xorshift
//! output mixing), replacing the external `rand` crate.
//!
//! The generator is deliberately simple: WASABI only ever needs
//! *reproducible* pseudo-randomness — corpus synthesis, simulated-LLM
//! noise, and randomized property tests — never cryptographic quality.
//! Determinism is part of the contract: the same seed must produce the
//! same stream on every platform and in every run, because golden outputs
//! and calibrated tables depend on it.

/// SplitMix64: passes BigCrush, one u64 of state, trivially seedable.
///
/// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014); the exact constants below are the canonical
/// ones used by `java.util.SplittableRandom`.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift reduction; the tiny modulo bias is
    /// irrelevant for test-case generation.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below(0)");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`. `lo < hi` required.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "Rng::range: empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the full f64 mantissa.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over an arbitrary sequence of byte chunks.
///
/// This is the exact hash the simulated LLM keys its deterministic draws
/// on; it lives here so every crate that needs a stable string→u64 mapping
/// uses the same one.
pub fn fnv1a64<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    chunks
        .into_iter()
        .fold(FNV_OFFSET, |hash, chunk| chunk.iter().fold(hash, fnv_step))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_step(hash: u64, byte: &u8) -> u64 {
    (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// [`fnv1a64`] of each input on its own. FNV-1a is one chain of
/// dependent multiplies, so hashing four inputs in lockstep keeps four
/// chains in flight and runs several times faster than one at a time.
/// Inputs go in length order, so each shares its lockstep run with
/// inputs of about its length and little is left to hash alone.
pub fn fnv1a64_each(inputs: &[&[u8]]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_by_key(|&index| inputs[index].len());
    let mut hashes = vec![FNV_OFFSET; inputs.len()];
    for group in order.chunks(4) {
        let mut lanes = [FNV_OFFSET; 4];
        let mut shared = 0;
        if let [a, b, c, d] = *group {
            // The group is in length order: `a` is its shortest input.
            shared = inputs[a].len();
            let [a, b, c, d] = [a, b, c, d].map(|index| &inputs[index][..shared]);
            for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
                lanes = [
                    fnv_step(lanes[0], a),
                    fnv_step(lanes[1], b),
                    fnv_step(lanes[2], c),
                    fnv_step(lanes[3], d),
                ];
            }
        }
        for (&lane, &index) in lanes.iter().zip(group) {
            hashes[index] = inputs[index][shared..].iter().fold(lane, fnv_step);
        }
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<u64> = (0..8).map({
            let mut r = Rng::new(42);
            move |_| r.next_u64()
        }).collect();
        let b: Vec<u64> = (0..8).map({
            let mut r = Rng::new(42);
            move |_| r.next_u64()
        }).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..8).map({
            let mut r = Rng::new(43);
            move |_| r.next_u64()
        }).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix_reference_vector() {
        // First three outputs for seed 1234567, cross-checked against the
        // canonical SplitMix64 implementation.
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn below_stays_in_bounds_and_covers() {
        let mut r = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = Rng::new(99);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn fnv_each_matches_fnv_one_at_a_time() {
        let mut r = Rng::new(0xf1e5);
        for count in 0..12 {
            let inputs: Vec<Vec<u8>> = (0..count)
                .map(|_| (0..r.below(300)).map(|_| r.below(256) as u8).collect())
                .collect();
            let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
            let one_at_a_time: Vec<u64> = slices.iter().map(|s| fnv1a64([*s])).collect();
            assert_eq!(fnv1a64_each(&slices), one_at_a_time, "{count} inputs");
        }
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("hello") — published test vector.
        assert_eq!(fnv1a64([b"hello".as_slice()]), 0xa430d84680aabd0b);
        // Chunking must not change the result.
        assert_eq!(
            fnv1a64([b"he".as_slice(), b"llo".as_slice()]),
            fnv1a64([b"hello".as_slice()])
        );
    }
}
