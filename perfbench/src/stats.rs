//! Order statistics over samples.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (sorts in place; `values` must be non-empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly above the `q`-quantile's position: the tail a
/// percentile is estimated from.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - (q * (n - 1) as f64).ceil() as usize
}
