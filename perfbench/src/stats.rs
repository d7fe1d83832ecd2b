//! Small order statistics used by every workload.

/// The median of `xs` (the mean of the two middle values for an even
/// count). Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// Samples available.
    pub samples: usize,
    /// Samples the rule needs.
    pub needed: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, but at least {} are needed to leave 10 beyond the percentile",
            self.samples, self.needed
        )
    }
}

/// The `p`-th percentile (`0 < p < 100`) of `xs` by the nearest-rank rule,
/// reported only when at least ten samples lie beyond it: a p99 needs
/// 1000 samples, a p50 needs 20.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 100.0, "percentile must be in (0, 100)");
    let needed = (10.0 * 100.0 / (100.0 - p)).ceil() as usize;
    if xs.len() < needed {
        return Err(TooFewSamples {
            samples: xs.len(),
            needed,
        });
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Ok(v[rank.clamp(1, v.len()) - 1])
}

/// `min p25 median p75 max` of a sample, for the report.
pub fn summary(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return "-".into();
    }
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    format!(
        "min {:.4} p25 {:.4} median {:.4} p75 {:.4} max {:.4} (n={})",
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0),
        v.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_demands_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = percentile(&xs, 99.0).unwrap_err();
        assert_eq!(err.needed, 1000);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Ok(990.0));
        // Exactly ten samples lie strictly above the reported p99.
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), 10);
        assert!(percentile(&xs[..19], 50.0).is_err());
        assert_eq!(percentile(&xs[..20], 50.0), Ok(10.0));
    }
}
