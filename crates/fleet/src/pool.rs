//! The work-queue thread pool and its order-preserving batch APIs.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while a fleet worker is executing its closure: nested batch
    /// calls detect it and run inline instead of over-spawning.
    static IN_FLEET_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A deterministic scenario-execution pool.
///
/// The pool is a *configuration* (a thread count), not a set of live
/// threads: each batch call spawns that many scoped workers which drain a
/// shared atomic work queue and join before the call returns. Workers
/// collect `(index, result)` pairs locally and results are re-assembled in
/// input order, so output is bit-identical to the serial reference
/// regardless of scheduling.
///
/// ```
/// use dcb_fleet::FleetPool;
///
/// let pool = FleetPool::with_threads(4);
/// let squares = pool.run_all(&[1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct FleetPool {
    threads: usize,
}

impl FleetPool {
    /// A pool sized from the environment: the `DCB_THREADS` variable if set
    /// to a positive integer, otherwise [`std::thread::available_parallelism`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_threads(default_thread_count())
    }

    /// A pool with an explicit worker count (clamped up to 1). One worker
    /// means every batch call runs serially on the calling thread.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `eval` over every item, preserving input ordering.
    ///
    /// Serial when the pool has one worker, when the batch is trivially
    /// small, or when called from inside another `run_all` (nested fan-out
    /// runs inline on the issuing worker).
    ///
    /// # Panics
    ///
    /// Propagates a panic from `eval` after all workers have stopped.
    pub fn run_all<T, R, F>(&self, items: &[T], eval: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // Claim one trace lane per item *here, on the calling thread* —
        // program order makes lane assignment a pure function of the
        // workload, so traces are byte-identical across thread counts.
        // Returns None when tracing is off or this batch is nested.
        let lane_base = dcb_trace::claim_lanes(items.len());
        // The profiler's attribution path is captured the same way: on
        // the calling thread, so every worker records under the frames
        // open at the submission site regardless of scheduling.
        let prof_handoff = dcb_prof::handoff();
        let eval_in_lane = |index: usize, item: &T| -> R {
            let _prof = prof_handoff.as_ref().map(dcb_prof::enter);
            match lane_base {
                Some(base) => {
                    let _guard = dcb_trace::lane_scope(base + index as u64);
                    eval(item)
                }
                None => eval(item),
            }
        };
        if self.threads <= 1 || items.len() <= 1 || IN_FLEET_WORKER.get() {
            return items
                .iter()
                .enumerate()
                .map(|(index, item)| eval_in_lane(index, item))
                .collect();
        }
        let queue = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        // Scheduling shape (how many workers spawned, how the queue split
        // across them) varies with DCB_THREADS, so these are volatile.
        dcb_telemetry::volatile_counter!("fleet.pool.batches").incr();
        dcb_telemetry::volatile_counter!("fleet.pool.workers_spawned").add(workers as u64);
        let mut harvested: Vec<(usize, R)> = Vec::with_capacity(items.len());
        #[expect(
            clippy::disallowed_methods,
            reason = "dcb-fleet is the workspace's one sanctioned thread pool"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        IN_FLEET_WORKER.set(true);
                        let mut local = Vec::new();
                        loop {
                            let index = queue.fetch_add(1, Ordering::Relaxed);
                            if index >= items.len() {
                                break;
                            }
                            local.push((index, eval_in_lane(index, &items[index])));
                        }
                        IN_FLEET_WORKER.set(false);
                        dcb_telemetry::volatile_histogram!("fleet.pool.tasks_per_worker")
                            .observe(local.len() as u64);
                        local
                    })
                })
                .collect();
            for handle in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "deliberate worker-panic propagation to the caller"
                )]
                harvested.extend(handle.join().expect("fleet worker panicked"));
            }
        });
        // Re-assemble in input order.
        harvested.sort_by_key(|(index, _)| *index);
        debug_assert_eq!(harvested.len(), items.len());
        harvested.into_iter().map(|(_, result)| result).collect()
    }

    /// Runs `trials` independent Monte-Carlo trials, fanned out over
    /// `shards` contiguous chunks (0 picks a default based on the worker
    /// count).
    ///
    /// Each trial receives its own [`Trial::seed`] derived *only* from
    /// `base_seed` and the trial index ([`trial_seed`]), never from the
    /// shard layout — so for a fixed `base_seed` the returned vector is
    /// identical for every shard count and thread count.
    pub fn monte_carlo<R, F>(&self, base_seed: u64, trials: usize, shards: usize, run: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Trial) -> R + Sync,
    {
        if trials == 0 {
            return Vec::new();
        }
        let shards = if shards == 0 {
            (self.threads * 4).clamp(1, trials)
        } else {
            shards.clamp(1, trials)
        };
        let ranges = split_even(trials, shards);
        // Trial count is workload-determined; the shard layout is not (the
        // default shard count scales with the worker count).
        dcb_telemetry::counter!("fleet.pool.monte_carlo_trials").add(trials as u64);
        dcb_telemetry::volatile_counter!("fleet.pool.monte_carlo_shards").add(shards as u64);
        // Trace lanes are claimed per *trial*, not per shard: the shard
        // layout varies with the worker count, the trial list does not.
        let trial_lanes = dcb_trace::claim_lanes(trials);
        let chunks = self.run_all(&ranges, |range| {
            range
                .clone()
                .map(|index| {
                    let trial = Trial {
                        index,
                        seed: trial_seed(base_seed, index as u64),
                    };
                    match trial_lanes {
                        Some(base) => {
                            let _guard = dcb_trace::lane_scope(base + index as u64);
                            run(trial)
                        }
                        None => run(trial),
                    }
                })
                .collect::<Vec<R>>()
        });
        chunks.into_iter().flatten().collect()
    }
}

impl Default for FleetPool {
    fn default() -> Self {
        Self::new()
    }
}

/// One Monte-Carlo trial: its position in the batch and its private seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Index of the trial in `0..trials`.
    pub index: usize,
    /// Deterministic per-trial seed (see [`trial_seed`]).
    pub seed: u64,
}

/// Derives the seed for trial `index` of a batch seeded with `base_seed`:
/// a SplitMix64-style mix of the pair, so neighbouring indices yield
/// statistically independent streams while staying a pure function of
/// `(base_seed, index)`.
#[must_use]
pub fn trial_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `0..total` into `parts` contiguous near-even ranges.
fn split_even(total: usize, parts: usize) -> Vec<Range<usize>> {
    let base = total / parts;
    let remainder = total % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for part in 0..parts {
        let len = base + usize::from(part < remainder);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, total);
    ranges
}

/// The worker count implied by the environment: `DCB_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
#[must_use]
pub fn default_thread_count() -> usize {
    parse_thread_override(std::env::var("DCB_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Parses a `DCB_THREADS` value; `None` (unset, empty, zero, or garbage)
/// falls back to hardware parallelism. Factored out for testability.
#[must_use]
pub fn parse_thread_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|value| value.trim().parse::<usize>().ok())
        .filter(|&threads| threads > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(37) ^ 5).collect();
        for threads in 1..=8 {
            let pool = FleetPool::with_threads(threads);
            let got = pool.run_all(&items, |x| x.wrapping_mul(37) ^ 5);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn run_all_handles_empty_and_single() {
        let pool = FleetPool::with_threads(4);
        assert_eq!(pool.run_all(&[] as &[u8], |_| 0u8), Vec::<u8>::new());
        assert_eq!(pool.run_all(&[9u8], |x| *x), vec![9]);
    }

    #[test]
    fn nested_batches_run_inline() {
        let pool = FleetPool::with_threads(4);
        let outer: Vec<usize> = (0..16).collect();
        let result = pool.run_all(&outer, |&i| {
            let inner = FleetPool::with_threads(4);
            inner.run_all(&[i, i + 1], |&j| j * 2).iter().sum::<usize>()
        });
        let expected: Vec<usize> = outer.iter().map(|&i| 2 * i + 2 * (i + 1)).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn monte_carlo_invariant_to_shards_and_threads() {
        let reference = FleetPool::with_threads(1)
            .monte_carlo(99, 100, 1, |t| (t.index, t.seed.wrapping_mul(3)));
        for threads in [1, 2, 5] {
            for shards in [1, 2, 3, 7, 100] {
                let got = FleetPool::with_threads(threads)
                    .monte_carlo(99, 100, shards, |t| (t.index, t.seed.wrapping_mul(3)));
                assert_eq!(got, reference, "threads={threads} shards={shards}");
            }
        }
    }

    #[test]
    fn trial_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..1000).map(|i| trial_seed(42, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "seed collision");
        assert_eq!(trial_seed(42, 7), trial_seed(42, 7));
        assert_ne!(trial_seed(42, 7), trial_seed(43, 7));
    }

    #[test]
    fn split_even_covers_everything() {
        for total in [1usize, 7, 100, 101] {
            for parts in [1usize, 2, 3, 7] {
                let ranges = split_even(total, parts.min(total));
                let mut covered = 0;
                let mut expected_start = 0;
                for range in &ranges {
                    assert_eq!(range.start, expected_start);
                    expected_start = range.end;
                    covered += range.len();
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override(Some("4")), Some(4));
        assert_eq!(parse_thread_override(Some(" 12 ")), Some(12));
        assert_eq!(parse_thread_override(Some("0")), None);
        assert_eq!(parse_thread_override(Some("-3")), None);
        assert_eq!(parse_thread_override(Some("many")), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(None), None);
    }
}
