//! Seeded randomness for workload inputs: a SplitMix64 stream, Zipf
//! sampling and Poisson arrival schedules. Everything a run draws comes
//! from `--seed` through these, so the same seed gives the same inputs.

/// SplitMix64: tiny, fast, and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative distribution.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at cumulative probability `u` in `[0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// `n` arrival offsets (seconds, ascending) of a Poisson process
/// conditioned on exactly `n` arrivals in `[0, span)`: sorted uniform
/// draws. Conditioning keeps the offered rate of a step exactly `n / span`
/// on every seed, so steps are comparable across runs.
pub fn poisson_arrivals(rng: &mut Rng, n: usize, span: f64) -> Vec<f64> {
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * span).collect();
    t.sort_by(f64::total_cmp);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn zipf_quantiles_prefer_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let ranks: Vec<usize> = (0..100)
            .map(|i| z.quantile((i as f64 + 0.5) / 100.0))
            .collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
        // Rank 0 carries 1/H(1000) ≈ 13% of the mass.
        assert_eq!(ranks.iter().filter(|&&r| r == 0).count(), 13);
        assert!(*ranks.last().unwrap() < 1000);
    }

    #[test]
    fn arrivals_fill_the_span_in_order() {
        let mut rng = Rng::new(3);
        let t = poisson_arrivals(&mut rng, 100, 5.0);
        assert_eq!(t.len(), 100);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert!(t[0] >= 0.0 && t[99] < 5.0);
    }
}
