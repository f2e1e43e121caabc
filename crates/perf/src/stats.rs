//! Summary statistics for latency samples, and the JSON block the
//! serving and network reports render them as.
//!
//! Quantiles are nearest-rank over the full sorted sample set, so every
//! reported p95/p99 is an observed sample; the median is the one value
//! that may interpolate.

use edgepc_trace::json::fmt_f64;

/// Summary of a set of latency samples, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of samples summarized.
    pub n: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (the headline number).
    pub median_ms: f64,
    /// Fastest sample.
    pub min_ms: f64,
    /// Slowest sample.
    pub max_ms: f64,
    /// 95th percentile (nearest-rank).
    pub p95_ms: f64,
    /// 99th percentile (nearest-rank) — the tail the serving runtime's
    /// latency SLOs are written against.
    pub p99_ms: f64,
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

impl Stats {
    /// Summarizes a set of latency samples (milliseconds).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains a non-finite value.
    pub fn from_samples_ms(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "non-finite timing sample"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank95 = ((0.95 * n as f64).ceil() as usize).clamp(1, n);
        let rank99 = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        Stats {
            n,
            mean_ms: sorted.iter().sum::<f64>() / n as f64,
            median_ms: median_of_sorted(&sorted),
            min_ms: sorted[0],
            max_ms: sorted[n - 1],
            p95_ms: sorted[rank95 - 1],
            p99_ms: sorted[rank99 - 1],
        }
    }
}

/// The `{"p50", "p95", "p99", "mean", "min", "max"}` block of
/// `serve.json` and `net.json`, or `null` when nothing was sampled.
pub fn quantiles_json(stats: &Option<Stats>) -> String {
    match stats {
        None => "null".to_string(),
        Some(s) => format!(
            "{{\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
            fmt_f64(s.median_ms),
            fmt_f64(s.p95_ms),
            fmt_f64(s.p99_ms),
            fmt_f64(s.mean_ms),
            fmt_f64(s.min_ms),
            fmt_f64(s.max_ms),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_count() {
        let s = Stats::from_samples_ms(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.median_ms, 2.0);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 3.0);
        assert_eq!(s.mean_ms, 2.0);
        assert_eq!(s.p95_ms, 3.0);
        assert_eq!(s.p99_ms, 3.0);
    }

    #[test]
    fn even_sample_count_interpolates_median() {
        let s = Stats::from_samples_ms(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median_ms, 2.5);
    }

    #[test]
    fn single_sample_degenerates_cleanly() {
        let s = Stats::from_samples_ms(&[7.5]);
        assert_eq!(s.median_ms, 7.5);
        assert_eq!(s.p95_ms, 7.5);
        assert_eq!(s.p99_ms, 7.5);
    }

    #[test]
    fn nearest_rank_quantiles_at_tiny_n() {
        // Nearest-rank with rank = clamp(ceil(q*n), 1, n). These pins
        // document the degenerate small-n behavior the serving reports
        // rely on: quantiles never interpolate and never fall outside the
        // observed samples.
        // n=1: every quantile is the sample.
        let one = Stats::from_samples_ms(&[5.0]);
        assert_eq!((one.median_ms, one.p95_ms, one.p99_ms), (5.0, 5.0, 5.0));
        // n=2: ceil(0.95*2)=2 and ceil(0.99*2)=2, so both tail quantiles
        // are the max; only the median interpolates (it is not
        // nearest-rank).
        let two = Stats::from_samples_ms(&[5.0, 9.0]);
        assert_eq!(two.median_ms, 7.0);
        assert_eq!((two.p95_ms, two.p99_ms), (9.0, 9.0));
        // n=3: ceil(0.95*3)=3 and ceil(0.99*3)=3 — still the max.
        let three = Stats::from_samples_ms(&[5.0, 9.0, 1.0]);
        assert_eq!(three.median_ms, 5.0);
        assert_eq!((three.p95_ms, three.p99_ms), (9.0, 9.0));
    }

    #[test]
    fn p99_sits_at_or_above_p95() {
        let samples: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let s = Stats::from_samples_ms(&samples);
        assert_eq!(s.p95_ms, 190.0);
        assert_eq!(s.p99_ms, 198.0);
    }

    #[test]
    fn quantiles_json_renders_the_report_block() {
        let s = Some(Stats::from_samples_ms(&[4.0, 5.0, 6.0, 9.0]));
        assert_eq!(
            quantiles_json(&s),
            "{\"p50\":5.5,\"p95\":9,\"p99\":9,\"mean\":6,\"min\":4,\"max\":9}"
        );
        assert_eq!(quantiles_json(&None), "null");
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_panics() {
        let _ = Stats::from_samples_ms(&[]);
    }
}
