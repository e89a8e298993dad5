//! Pure statistics and naming rules shared by every workload.

/// Samples a percentile must leave beyond it before it is reported: with
/// fewer, the "tail" is a handful of samples and repeats poorly.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`percent` in 0..=100).
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], percent: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((percent / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The percentile, only when at least [`MIN_BEYOND`] samples lie beyond
/// its nearest rank; the benchmark reports no tail it cannot support.
pub fn reportable_percentile(sorted: &[f64], percent: f64) -> Option<f64> {
    let rank = ((percent / 100.0) * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank.max(1)) < MIN_BEYOND {
        return None;
    }
    percentile(sorted, percent)
}

/// Median of unsorted samples (the mean of the middle pair for an even
/// count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// True for a metric name the result format accepts: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Tracing overhead: traced wall over untraced wall of the same
/// operation. `None` unless both walls are positive and finite.
pub fn overhead_ratio(traced_s: f64, untraced_s: f64) -> Option<f64> {
    let ok = |v: f64| v.is_finite() && v > 0.0;
    (ok(traced_s) && ok(untraced_s)).then(|| traced_s / untraced_s)
}

/// FNV-1a over `bytes`: the studies hash pinned for `paper_cold`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reportable_percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(reportable_percentile(&hundred, 90.0), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(reportable_percentile(&hundred, 99.0), None);
        // p90 needs 100 samples: 99 leave only 9 beyond rank 90.
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(reportable_percentile(&ninety_nine, 90.0), None);
        assert_eq!(reportable_percentile(&[], 50.0), None);
        // A median of a short run has too few samples beyond it as well.
        assert_eq!(reportable_percentile(&[1.0, 2.0, 3.0], 50.0), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in [
            "setup_s",
            "serve_p90_ms.high",
            "interposer.layout_ms.glass25d",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "µs",
            "x\"y",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn overhead_is_traced_over_untraced() {
        assert_eq!(overhead_ratio(1.1, 1.0), Some(1.1));
        assert_eq!(overhead_ratio(0.9, 1.8), Some(0.5));
        assert_eq!(overhead_ratio(1.0, 0.0), None);
        assert_eq!(overhead_ratio(f64::NAN, 1.0), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
