//! Fixture: every violation carries an `allow` directive, so the file is
//! clean (0 expected findings).

pub struct Rack {
    // dcb-audit: allow(unit-leak, fixture exercises suppression)
    pub peak_watts: f64,
}

pub fn oracle_on_purpose(sim: &OutageSim, outage: Seconds) -> SimOutcome {
    // dcb-audit: allow(stepped-sim, fixture exercises suppression)
    sim.run_stepped(outage)
}

pub fn replay_on_purpose() -> usize {
    dcb_trace::drain().len() // dcb-audit: allow(observe-in-result, fixture exercises suppression)
}

pub fn brittle(x: f64) -> bool {
    // dcb-audit: allow(float-cmp, fixture exercises suppression)
    x == 1.0
}
