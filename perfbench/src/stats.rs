//! Order statistics for reported timings.

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Samples needed before the highest percentile with ten samples beyond
/// it is a tail (at least the 75th percentile).
const TAIL_SAMPLES: usize = 40;

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample. With fewer than [`TAIL_SAMPLES`] samples that
/// percentile would be no tail, and the largest sample stands in.
pub fn tail(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let i = if s.len() >= TAIL_SAMPLES {
        s.len() - 11
    } else {
        s.len().saturating_sub(1)
    };
    s.get(i).copied().unwrap_or(0.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), 30.0);
        assert_eq!(tail(&xs[..39]), 39.0);
        assert_eq!(tail(&[5.0, 9.0]), 9.0);
        assert_eq!(tail(&[]), 0.0);
    }
}
