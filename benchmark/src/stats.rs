//! Order statistics over timing samples.

use crate::params::RING;

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; `q = 0.5` is the median. Panics on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile range as a share of the median: the harness's statement
/// of its own noise.
pub fn iqr_ratio(samples: &[f64]) -> f64 {
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / median(samples)
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The median of a quantity sampled once per pass, where pass `i` ran
/// parameter set `i mod RING`: the median within each set, averaged over
/// the sets. A plain median over all passes would be an order statistic of
/// eight different costs and jump when a seed reorders them; the mean of
/// per-set medians moves by an eighth of any one set's change and still
/// discards each set's slow outliers.
pub fn ring_median(per_pass: &[f64]) -> f64 {
    let sets: Vec<f64> = (0..RING.min(per_pass.len()))
        .map(|set| {
            let own: Vec<f64> = per_pass.iter().skip(set).step_by(RING).copied().collect();
            median(&own)
        })
        .collect();
    sets.iter().sum::<f64>() / sets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!((iqr_ratio(&v) - 0.6).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ring_median_is_the_mean_of_per_set_medians() {
        // Three rounds of the ring; set 0 costs 10 with one slow outlier,
        // every other set costs 2.
        let mut v = vec![2.0; 3 * RING];
        (v[0], v[RING], v[2 * RING]) = (10.0, 99.0, 10.0);
        assert_eq!(ring_median(&v), (10.0 + 2.0 * (RING - 1) as f64) / RING as f64);
        assert_eq!(ring_median(&[5.0, 7.0]), 6.0);
    }
}
