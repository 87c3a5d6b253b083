//! Order statistics, interval arithmetic and host-memory reads.

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// the sample is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

/// The tail of a timing sample: the highest order statistic with at least
/// ten samples beyond it, labelled with its percentile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic's value.
    pub value: f64,
    /// Its percentile (`100 · k / n` for the k-th smallest of n).
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// Picks the k-th smallest of n values with k = n − 10, the highest rank
/// that leaves ten samples beyond it. With fewer than 11 samples there is no
/// such rank, so the tail falls back to the maximum (percentile 100).
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let k = if n >= 11 { n - 10 } else { n };
    Tail {
        value: if n == 0 { 0.0 } else { sorted[k - 1] },
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * k as f64 / n as f64
        },
        samples: n,
    }
}

/// Length of the union of `intervals` (half-open `[start, end)`), each
/// clipped to `[lo, hi)`. Children that ran concurrently on worker threads
/// overlap, so their durations cannot simply be summed.
#[must_use]
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`; `None` where that file does not exist.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
