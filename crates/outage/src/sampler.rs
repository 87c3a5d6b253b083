//! Seeded generation of synthetic yearly outage traces.

use crate::{DurationDistribution, FrequencyDistribution};
use dcb_units::Seconds;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A single utility outage: when it starts and how long it lasts.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Outage {
    /// Start time, measured from the beginning of the trace.
    pub start: Seconds,
    /// Total outage duration.
    pub duration: Seconds,
}

impl Outage {
    /// The instant utility power returns.
    #[must_use]
    pub fn end(&self) -> Seconds {
        self.start + self.duration
    }
}

/// A year's worth of outages, sorted by start time and non-overlapping.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct OutageTrace {
    outages: Vec<Outage>,
}

impl OutageTrace {
    /// Builds a trace, sorting by start time.
    ///
    /// # Panics
    ///
    /// Panics if any two outages overlap after sorting.
    #[must_use]
    pub fn new(mut outages: Vec<Outage>) -> Self {
        outages.sort_by(|a, b| a.start.total_cmp(&b.start));
        for pair in outages.windows(2) {
            assert!(
                pair[0].end() <= pair[1].start,
                "outages must not overlap: {:?} vs {:?}",
                pair[0],
                pair[1]
            );
        }
        Self { outages }
    }

    /// The outages in start order.
    #[must_use]
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Number of outages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outages.len()
    }

    /// Whether the trace has no outages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// Total time without utility power.
    #[must_use]
    pub fn total_outage_time(&self) -> Seconds {
        self.outages.iter().map(|o| o.duration).sum()
    }

    /// The longest single outage, if any.
    #[must_use]
    pub fn longest(&self) -> Option<Outage> {
        self.outages
            .iter()
            .copied()
            .max_by(|a, b| a.duration.total_cmp(&b.duration))
    }
}

impl FromIterator<Outage> for OutageTrace {
    fn from_iter<I: IntoIterator<Item = Outage>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// A deterministic, seeded sampler producing yearly [`OutageTrace`]s whose
/// frequency and duration statistics follow Figure 1.
///
/// ```
/// use dcb_outage::OutageSampler;
///
/// let a = OutageSampler::seeded(7).sample_year();
/// let b = OutageSampler::seeded(7).sample_year();
/// assert_eq!(a, b); // same seed, same trace
/// ```
#[derive(Debug)]
pub struct OutageSampler {
    rng: StdRng,
    frequency: FrequencyDistribution,
    duration: DurationDistribution,
}

impl OutageSampler {
    /// A sampler over the paper's US-business distributions.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self::with_distributions(
            seed,
            FrequencyDistribution::us_business(),
            DurationDistribution::us_business(),
        )
    }

    /// A sampler over custom distributions.
    #[must_use]
    pub fn with_distributions(
        seed: u64,
        frequency: FrequencyDistribution,
        duration: DurationDistribution,
    ) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            frequency,
            duration,
        }
    }

    /// Samples one outage duration.
    pub fn sample_duration(&mut self) -> Seconds {
        let u: f64 = self.rng.random();
        self.duration.quantile(u)
    }

    /// Samples a full year: an outage count from the frequency distribution
    /// and that many outages placed uniformly (without overlap) through the
    /// year, each with a sampled duration.
    pub fn sample_year(&mut self) -> OutageTrace {
        let u: f64 = self.rng.random();
        let v: f64 = self.rng.random();
        let count = self.frequency.quantile(u, v);
        let year = Seconds::from_hours(365.0 * 24.0);
        let mut outages = Vec::with_capacity(count as usize);
        // Place outages in disjoint slots: divide the year into `count`
        // equal windows and put one outage at a random offset in each, which
        // guarantees no overlap for realistic durations.
        for i in 0..count {
            let window = year / f64::from(count.max(1));
            let duration = self.sample_duration();
            let slack = (window - duration).max(Seconds::ZERO);
            let offset: f64 = self.rng.random();
            let start = window * f64::from(i) + slack * offset;
            let duration = duration.min(window * 0.95);
            outages.push(Outage { start, duration });
        }
        OutageTrace::new(outages)
    }

    /// Samples `years` yearly traces.
    pub fn sample_years(&mut self, years: usize) -> Vec<OutageTrace> {
        (0..years).map(|_| self.sample_year()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = OutageSampler::seeded(123);
        let mut b = OutageSampler::seeded(123);
        assert_eq!(a.sample_year(), b.sample_year());
        assert_eq!(a.sample_duration(), b.sample_duration());
    }

    #[test]
    fn different_seeds_differ() {
        let a = OutageSampler::seeded(1).sample_years(5);
        let b = OutageSampler::seeded(2).sample_years(5);
        assert_ne!(a, b);
    }

    #[test]
    fn yearly_trace_never_overlaps() {
        let mut s = OutageSampler::seeded(99);
        for trace in s.sample_years(200) {
            for pair in trace.outages().windows(2) {
                assert!(pair[0].end() <= pair[1].start);
            }
        }
    }

    #[test]
    fn long_run_duration_statistics_match_figure1() {
        let mut s = OutageSampler::seeded(7);
        let mut total = 0usize;
        let mut within_5min = 0usize;
        for _ in 0..20_000 {
            let d = s.sample_duration();
            total += 1;
            if d <= Seconds::from_minutes(5.0) {
                within_5min += 1;
            }
        }
        let frac = within_5min as f64 / total as f64;
        // Figure 1(b): 58% of outages last <= 5 minutes.
        assert!((frac - 0.58).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn long_run_frequency_statistics_match_figure1() {
        let mut s = OutageSampler::seeded(11);
        let traces = s.sample_years(20_000);
        let none = traces.iter().filter(|t| t.is_empty()).count() as f64 / traces.len() as f64;
        // Figure 1(a): 17% of businesses see no outage in a year.
        assert!((none - 0.17).abs() < 0.02, "got {none}");
    }

    #[test]
    fn trace_aggregates() {
        let trace = OutageTrace::new(vec![
            Outage {
                start: Seconds::new(100.0),
                duration: Seconds::new(50.0),
            },
            Outage {
                start: Seconds::new(500.0),
                duration: Seconds::new(200.0),
            },
        ]);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.total_outage_time(), Seconds::new(250.0));
        assert_eq!(trace.longest().unwrap().duration, Seconds::new(200.0));
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlap_rejected() {
        let _ = OutageTrace::new(vec![
            Outage {
                start: Seconds::new(0.0),
                duration: Seconds::new(100.0),
            },
            Outage {
                start: Seconds::new(50.0),
                duration: Seconds::new(10.0),
            },
        ]);
    }
}
