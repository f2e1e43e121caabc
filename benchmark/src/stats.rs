//! Order statistics for timing samples.

use std::collections::BTreeMap;

/// Sorts `samples` and returns the median (0 for an empty set).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50.0)
}

/// Nearest rank of the `pct`-th percentile among `n` samples, in whole
/// tenths of a percent so that 90 % of 100 is exactly 90.
fn rank(n: usize, pct: f64) -> usize {
    (n * (pct * 10.0).round() as usize).div_ceil(1000)
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct).clamp(1, sorted.len()) - 1]
}

/// The percentile a tail metric may report from `n` samples: `wanted`
/// when at least ten samples lie beyond it, otherwise the highest of
/// 90/75/50 that does. A p95 of 100 samples would rest on five of them.
pub fn resolvable_percentile(n: usize, wanted: f64) -> f64 {
    for pct in [wanted, 90.0, 75.0] {
        if pct <= wanted && n - rank(n, pct) >= 10 {
            return pct;
        }
    }
    50.0
}

/// `wanted`-th percentile of `samples` under [`resolvable_percentile`].
pub fn tail(samples: &mut [f64], wanted: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, resolvable_percentile(samples.len(), wanted))
}

/// 10th percentile of `samples` (0 when empty). On this shared two-core
/// box whole seconds, sometimes whole minutes, run 10-100 % slow;
/// interference only ever adds time, so the lower tail repeats from run
/// to run where the median does not. Over ten runs in such a period the
/// median's quartiles lay 12 % (scene_seg) and 43 % (stream_mixed) apart,
/// the 10th percentile's 4 % and 5 %. Lower percentiles are no steadier,
/// and on the served workloads they fall among the requests that joined
/// a batch already lingering.
pub fn p10(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 10.0)
}

/// What `throughput_per_s` reports for one caller in a closed loop:
/// calls per second over the faster half of the calls, each lasting
/// `samples_ms` (0 when empty). The count over the timed seconds is the
/// same rate over all the calls, and a neighbour on the host that slows
/// a stretch of the run moves it by as much: over two rounds of ten
/// seeds its quartiles lay 7-11 % apart, this one's 4-8 %.
pub fn faster_half_rate(samples_ms: &[f64]) -> f64 {
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(sorted.len().div_ceil(2));
    if sorted.is_empty() {
        0.0
    } else {
        1e3 / mean(&sorted)
    }
}

/// What `latency_p10_ms` reports: the mean, over the samples, of the
/// [`p10`] of each sample's own key (0 when empty). `samples` are
/// `(key, latency)`. Taken over a mix as a whole the 10th percentile
/// falls among the requests of the cheapest key alone; taken per plan
/// key, the slow keys count with the weight the mix gives them.
pub fn p10_by_key(samples: &[(usize, f64)]) -> f64 {
    let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(key, v) in samples {
        by_key.entry(key).or_default().push(v);
    }
    let sum: f64 = by_key.values().map(|v| p10(v) * v.len() as f64).sum();
    sum / samples.len().max(1) as f64
}

/// Windows a run's latency samples are cut into to show how steady the
/// run was inside itself.
pub const WINDOWS: usize = 5;

/// Median of each of [`WINDOWS`] equal consecutive windows of the
/// samples, in measurement order (none when there are fewer samples
/// than windows).
pub fn window_medians(samples: &[f64]) -> Vec<f64> {
    let len = samples.len() / WINDOWS;
    if len == 0 {
        return Vec::new();
    }
    samples
        .chunks_exact(len)
        .take(WINDOWS)
        .map(|w| median(&mut w.to_vec()))
        .collect()
}

/// (max - min) / median of `values` (0 when empty). `compare` calls a
/// change it cannot tell from this spread of a run's own windows
/// "unresolved".
pub fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    match (sorted.first(), sorted.last()) {
        (Some(lo), Some(hi)) if mid > 0.0 => (hi - lo) / mid,
        _ => 0.0,
    }
}

/// What `setup_s` reports: the fastest of a run's set-ups (0 when
/// empty). The first is cold and the others warm, and on the streams a
/// set-up is 48 round trips of a pair of requests, one to each shard:
/// when the VM's two processors slow each other down it takes 0.40 s
/// instead of 0.28 s, three times in 120 or two times in three for
/// minutes on end. The median of three followed that: over two rounds
/// of ten seeds it read 0.29 s and 0.37 s.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p10_ignores_the_slow_nine_tenths() {
        // 100 samples: ten fast ones, ninety disturbed.
        let v: Vec<f64> = (0..100)
            .map(|i| if i % 10 == 0 { 2.0 } else { 9.0 })
            .collect();
        assert_eq!(p10(&v), 2.0);
        assert_eq!(median(&mut v.clone()), 9.0);
        assert_eq!(p10(&[]), 0.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[0.41, 0.29, 0.40]), 0.29);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn faster_half_rate_drops_the_disturbed_half() {
        // Five calls of 100 ms, four of them in a slow stretch as well:
        // 10 calls a second, whatever the stretch cost.
        let v = [100.0, 100.0, 180.0, 250.0, 100.0, 400.0, 100.0, 100.0, 190.0];
        assert_eq!(faster_half_rate(&v), 10.0);
        assert_eq!(faster_half_rate(&[250.0]), 4.0);
        assert_eq!(faster_half_rate(&[]), 0.0);
    }

    #[test]
    fn p10_by_key_weighs_every_key_by_its_share() {
        // Key 0: 30 fast requests; key 1: 10 slow ones. Over the mix as a
        // whole the 10th percentile never sees key 1.
        let samples: Vec<(usize, f64)> = (0..40)
            .map(|i| if i % 4 == 3 { (1, 20.0) } else { (0, 2.0) })
            .collect();
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(p10(&all), 2.0);
        assert_eq!(p10_by_key(&samples), 0.75 * 2.0 + 0.25 * 20.0);
        // One key: the plain 10th percentile.
        let one: Vec<(usize, f64)> = (1..=100).map(|i| (0, f64::from(i))).collect();
        assert_eq!(p10_by_key(&one), 10.0);
        assert_eq!(p10_by_key(&[]), 0.0);
    }

    #[test]
    fn window_medians_show_a_disturbed_stretch() {
        // Ten samples, windows of two: medians 1, 3, 2, 9, 9.
        let v = [1.0, 1.0, 3.0, 3.0, 2.0, 2.0, 9.0, 9.0, 9.0, 9.0];
        assert_eq!(window_medians(&v), vec![1.0, 3.0, 2.0, 9.0, 9.0]);
        assert_eq!(spread(&window_medians(&v)), 8.0 / 3.0);
        assert!(window_medians(&[4.0, 2.0, 6.0]).is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 leaves 5 % beyond it: 200 samples give exactly ten.
        assert_eq!(resolvable_percentile(200, 95.0), 95.0);
        assert_eq!(resolvable_percentile(199, 95.0), 90.0);
        assert_eq!(resolvable_percentile(100, 95.0), 90.0);
        assert_eq!(resolvable_percentile(99, 95.0), 75.0);
        assert_eq!(resolvable_percentile(40, 95.0), 75.0);
        assert_eq!(resolvable_percentile(39, 95.0), 50.0);
        // Never reports a higher percentile than asked for.
        assert_eq!(resolvable_percentile(10_000, 75.0), 75.0);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut v, 95.0), 90.0);
    }
}
