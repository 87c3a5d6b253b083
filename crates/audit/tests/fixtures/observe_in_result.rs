//! Fixture: observability reads in model code (9 expected
//! `observe-in-result` findings, three per plane). Recording sites are
//! deliberately present and must stay clean — only *reads* are fenced.

// Telemetry: snapshot(), report() and a Snapshot binding fire;
// counter!/incr do not.
pub fn steer_by_metrics() -> u64 {
    dcb_telemetry::counter!("fixture.model.steps").incr();
    let snap = dcb_telemetry::snapshot();
    snap.counter("fixture.model.steps").unwrap_or(0)
}

pub fn report_from_model() {
    let _ = dcb_telemetry::report();
}

pub fn hold_a_snapshot(snap: &Snapshot) -> bool {
    snap.spans.is_empty()
}

// Flight recorder: drain(), chrome::export and timeline::render fire;
// enabled/instant/complete/lane_scope/claim_lanes/micros do not.
pub fn steer_by_trace() -> usize {
    if dcb_trace::enabled() {
        dcb_trace::instant(None, None, || dcb_trace::EventKind::DustSnap);
    }
    let events = dcb_trace::drain();
    events.len()
}

pub fn export_from_model(events: &[dcb_trace::Event]) -> String {
    dcb_trace::chrome::export(events)
}

pub fn render_from_model(events: &[dcb_trace::Event]) -> String {
    let _guard = dcb_trace::lane_scope(dcb_trace::ROOT_LANE);
    dcb_trace::timeline::render(events)
}

pub fn record_only(at: f64) {
    let _ = dcb_trace::claim_lanes(4);
    dcb_trace::complete(dcb_trace::micros(at), 10, None, || {
        dcb_trace::EventKind::DustSnap
    });
}

// Profiler: snapshot(), a Profile binding and collapsed::render fire;
// enabled/frame/record/enter do not.
pub fn steer_by_profile() -> u64 {
    if dcb_prof::enabled() {
        let _phase = dcb_prof::frame("resolve");
        dcb_prof::record(dcb_prof::WorkKind::Cycles, 1);
    }
    let profile = dcb_prof::snapshot();
    profile.total(dcb_prof::WorkKind::Cycles)
}

pub fn collapse_from_model(profile: &Profile) -> String {
    dcb_prof::collapsed::render(profile)
}

pub fn attribute_only(h: Option<&dcb_prof::Handoff>) {
    let _entered = h.map(dcb_prof::enter);
    let _phase = dcb_prof::frame("evaluate");
    dcb_prof::record(dcb_prof::WorkKind::Segments, 2);
}
