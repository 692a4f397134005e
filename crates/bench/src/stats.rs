//! Sample statistics for `run_experiments --timings --samples K`.
//!
//! Minimal by design: min / mean / max plus interquartile-range (Tukey
//! fence) outlier rejection, and the one-line rendering the `[time]` lines
//! and the perf baseline share.

use std::time::Duration;

/// Summary of a set of timing samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Fastest sample.
    pub min: Duration,
    /// Untrimmed arithmetic mean.
    pub mean: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Mean of the samples inside the Tukey fences
    /// `[q1 − 1.5·IQR, q3 + 1.5·IQR]`.
    pub trimmed_mean: Duration,
    /// Samples rejected by the fences.
    pub outliers: usize,
    /// Total samples observed.
    pub samples: usize,
}

/// Summarises `times`; `None` when empty.
///
/// Quartiles use the nearest-rank positions `n/4` and `3n/4` of the
/// sorted samples — crude next to a bootstrap, but deterministic and
/// adequate for rejecting the warm-up / scheduler spikes that dominate
/// wall-clock noise.  With fewer than four samples the fences degenerate
/// and nothing is rejected, so the trimmed mean equals the mean.
pub fn summarize(times: &[Duration]) -> Option<Summary> {
    let mut sorted: Vec<Duration> = times.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let (min, max) = (*sorted.first()?, *sorted.last()?);
    let mean = mean_of(&sorted);
    let (q1, q3) = (*sorted.get(n / 4)?, *sorted.get((3 * n / 4).min(n - 1))?);
    let iqr = q3.saturating_sub(q1);
    let low = q1.saturating_sub(iqr * 3 / 2);
    let high = q3.saturating_add(iqr * 3 / 2);
    let kept: Vec<Duration> = sorted
        .iter()
        .copied()
        .filter(|&t| t >= low && t <= high)
        .collect();
    // The fences always contain the quartiles themselves, so `kept` is
    // never empty.
    let trimmed_mean = mean_of(&kept);
    Some(Summary {
        min,
        mean,
        max,
        trimmed_mean,
        outliers: n - kept.len(),
        samples: n,
    })
}

fn mean_of(times: &[Duration]) -> Duration {
    let total: u128 = times.iter().map(Duration::as_nanos).sum();
    Duration::from_nanos((total / times.len() as u128) as u64)
}

/// Renders a summary as `[min mean max] trimmed T (k outliers, n samples)`.
pub fn format_summary(summary: &Summary) -> String {
    format!(
        "[{} {} {}] trimmed {} ({} outlier{}, {} sample{})",
        fmt_duration(summary.min),
        fmt_duration(summary.mean),
        fmt_duration(summary.max),
        fmt_duration(summary.trimmed_mean),
        summary.outliers,
        if summary.outliers == 1 { "" } else { "s" },
        summary.samples,
        if summary.samples == 1 { "" } else { "s" },
    )
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_have_no_summary() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn uniform_samples_reject_nothing() {
        let times = vec![Duration::from_millis(10); 8];
        let s = summarize(&times).unwrap();
        assert_eq!(s.min, s.max);
        assert_eq!(s.mean, s.trimmed_mean);
        assert_eq!(s.outliers, 0);
        assert_eq!(s.samples, 8);
    }

    #[test]
    fn iqr_rejects_a_far_outlier() {
        let mut times = vec![Duration::from_millis(10); 9];
        times.push(Duration::from_secs(5));
        let s = summarize(&times).unwrap();
        assert_eq!(s.outliers, 1);
        assert_eq!(s.trimmed_mean, Duration::from_millis(10));
        // The untrimmed mean is dragged way up by the outlier.
        assert!(s.mean > Duration::from_millis(100));
        assert_eq!(s.max, Duration::from_secs(5));
    }

    #[test]
    fn tiny_sample_sets_keep_everything() {
        let times = [Duration::from_millis(1), Duration::from_millis(9)];
        let s = summarize(&times).unwrap();
        assert_eq!(s.outliers, 0);
        assert_eq!(s.samples, 2);
    }

    #[test]
    fn duration_formatting_scales() {
        assert!(fmt_duration(Duration::from_nanos(10)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(10)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(10)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(10)).ends_with(" s"));
    }
}
