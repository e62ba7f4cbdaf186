//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p99 and p90 that has at least ten samples beyond it
/// (p99 from 1000 samples, p90 from 100), with its percentile; the median
/// when fewer than 100 samples exist.
pub fn tail(values: &[f64]) -> (f64, u32) {
    let p = match values.len() {
        n if n >= 1000 => 99,
        n if n >= 100 => 90,
        _ => 50,
    };
    (quantile(values, p as f64 / 100.0), p)
}
