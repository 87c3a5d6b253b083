//! Located events: the first-true root finder.
//!
//! Hard events have closed-form times; *located* events are
//! predicate-shaped. Four searches call this finder. The outage kernel
//! asks for "the first instant the DG can carry the unthrottled load",
//! "the latest safe instant to fall back" and "the first instant a
//! crashed cluster has enough power to reboot"; the §7 controller asks
//! for "the first instant a re-plan picks another mode". The finder
//! brackets the earliest flip of a predicate over `(lo, hi]` with a
//! coarse forward scan, then bisects the bracket. A predicate need not
//! stay true once it flips: the recovery predicate falls again when a
//! fuel-limited DG runs dry. The scan only ever trusts the earliest
//! bracketed flip, so the root is the first false→true transition the
//! grid sees; a flip and fall between two samples goes unseen.
//!
//! Determinism note: the sample grid is a pure function of `(lo, hi)`, so
//! callers must pin `hi` before searching — the kernel's segment loop
//! fixes the window from the next timer or outage end before it runs any
//! search. A different `hi` means different sample points, a different
//! bracket, and a root differing in the low-order bits.

use dcb_units::{contract, Seconds};

/// Samples used to bracket the earliest predicate flip in `(lo, hi]`.
const SCAN_SAMPLES: u32 = 32;
/// Bisection convergence tolerance, in seconds.
const BISECT_TOL: f64 = 1e-7;

/// The earliest `t` in `(lo, hi]` at which `pred` is true, to within
/// 1e-7 s; `None` if it never flips. The caller is expected to
/// have handled `pred(lo)` (the instantaneous case) already. The returned
/// instant always satisfies the predicate. Both ends must be finite: the
/// midpoint of an infinite bracket stays infinite, so its bisection would
/// never converge.
#[must_use]
pub fn first_true(
    lo: Seconds,
    hi: Seconds,
    mut pred: impl FnMut(Seconds) -> bool,
) -> Option<Seconds> {
    contract!(
        lo.is_finite() && hi.is_finite(),
        "located-event window ({lo}, {hi}] is not finite"
    );
    if hi <= lo {
        return None;
    }
    dcb_telemetry::counter!("engine.locate.first_true_calls").incr();
    let span = (hi - lo).value();
    let mut prev = lo;
    for i in 1..=SCAN_SAMPLES {
        let t = if i == SCAN_SAMPLES {
            hi
        } else {
            lo + Seconds::new(span * f64::from(i) / f64::from(SCAN_SAMPLES))
        };
        if pred(t) {
            // Bracketed: pred(prev) false, pred(t) true. Bisect.
            let (mut f, mut tr) = (prev, t);
            let mut iters: u64 = 0;
            while (tr - f).value() > BISECT_TOL {
                let mid = f + (tr - f) * 0.5;
                if pred(mid) {
                    tr = mid;
                } else {
                    f = mid;
                }
                iters += 1;
            }
            dcb_telemetry::counter!("engine.locate.bisection_iters").add(iters);
            dcb_telemetry::histogram!("engine.locate.bisection_iters_per_search").observe(iters);
            if dcb_prof::enabled() {
                let _locate = dcb_prof::frame("locate");
                dcb_prof::record(dcb_prof::WorkKind::LocateIters, iters);
            }
            if dcb_trace::enabled() {
                dcb_trace::instant(Some(dcb_trace::micros(tr)), None, || {
                    dcb_trace::EventKind::ShortfallRoot { bisections: iters }
                });
            }
            return Some(tr);
        }
        prev = t;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_step_crossing() {
        let at = first_true(Seconds::ZERO, Seconds::new(100.0), |t| t.value() >= 37.25)
            .expect("crossing exists");
        assert!((at.value() - 37.25).abs() < 1e-6, "got {at}");
    }

    #[test]
    fn none_when_never_true() {
        assert_eq!(
            first_true(Seconds::ZERO, Seconds::new(10.0), |_| false),
            None
        );
    }

    #[test]
    fn crossing_at_the_far_end_is_found() {
        let at = first_true(Seconds::ZERO, Seconds::new(10.0), |t| t.value() >= 10.0)
            .expect("endpoint flip");
        assert!((at.value() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn returned_instant_satisfies_the_predicate() {
        let pred = |t: Seconds| t.value() > 1.0 / 3.0;
        let at = first_true(Seconds::ZERO, Seconds::new(2.0), pred).expect("flip");
        assert!(pred(at));
    }

    #[test]
    #[should_panic(expected = "is not finite")]
    fn an_infinite_window_breaks_the_contract() {
        // Forced on, so a release test run panics instead of bisecting
        // forever.
        dcb_units::contracts::force_enable();
        let _ = first_true(Seconds::ZERO, Seconds::new(f64::INFINITY), |_| true);
    }

    #[test]
    fn empty_interval_yields_none() {
        assert_eq!(
            first_true(Seconds::new(5.0), Seconds::new(5.0), |_| true),
            None
        );
    }

    #[test]
    fn window_pins_the_sample_grid() {
        // Same predicate, same lo, different hi: the scan grids differ, so
        // the located roots may differ in the low-order bits — the reason
        // callers pin hi before any search runs. Equal windows must
        // produce bit-identical roots.
        let pred = |t: Seconds| t.value() * t.value() > 2.0;
        let a = first_true(Seconds::ZERO, Seconds::new(10.0), pred).expect("flip");
        let b = first_true(Seconds::ZERO, Seconds::new(10.0), pred).expect("flip");
        assert_eq!(a.value().to_bits(), b.value().to_bits());
    }
}
