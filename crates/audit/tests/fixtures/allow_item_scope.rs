//! Fixture for item-granularity allow scoping: one directive above the fn
//! covers the named lint through the whole body (the exact comparisons
//! sit several lines below the directive), while other lints inside the
//! same body still fire (the `run_stepped` call is NOT covered).

// dcb-audit: allow(float-cmp, fixture exercises item-wide suppression)
pub fn sentinels(xs: &[f64], sim: &OutageSim, outage: Seconds) -> usize {
    let mut zeros = 0;
    for x in xs {
        if *x == 0.0 {
            zeros += 1;
        }
    }
    let _ = sim.run_stepped(outage);
    zeros + usize::from(xs.first().is_some_and(|x| *x != 1.0))
}

pub fn outside(x: f64) -> bool {
    // Below the allowed item: the directive must NOT reach here.
    x == 2.0
}
