//! The benchmark's own deterministic randomness: SplitMix64 and a Zipf
//! sampler. Kept here, not borrowed from the product's crates, so the
//! request streams stay byte-identical when the product changes.

/// SplitMix64: a 64-bit mixer with a Weyl increment.
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream: the seed, mixed with a label so that
    /// streams of one run (data, session 0, session 1, ...) do not overlap.
    pub fn new(seed: u64, label: u64) -> Rng {
        let mut rng = Rng(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the bias of the plain remainder is below 2^-40
    /// for the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
        items
    }
}

/// Zipf(1.0) over `n` ranks: rank `r` (from 1) has weight `1 / r`.
#[derive(Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / rank as f64;
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`, rank 0 the most frequent.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_eight(mut rng: Rng) -> Vec<u64> {
        (0..8).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_label_other_stream() {
        assert_eq!(first_eight(Rng::new(7, 1)), first_eight(Rng::new(7, 1)));
        assert_ne!(first_eight(Rng::new(7, 1)), first_eight(Rng::new(7, 2)));
        assert_ne!(first_eight(Rng::new(7, 1)), first_eight(Rng::new(8, 1)));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(1024);
        let mut rng = Rng::new(1, 1);
        let mut counts = vec![0u32; 1024];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(1024) is about 7.51, so rank 0 draws about 13.3 % and rank 1 half that.
        assert!((12_000..15_000).contains(&counts[0]), "{}", counts[0]);
        assert!((5_500..7_800).contains(&counts[1]), "{}", counts[1]);
        assert!(counts[0] > counts[9] && counts[9] > counts[999]);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(3, 3).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }
}
