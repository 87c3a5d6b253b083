//! Graph-pass fixture: stand-in topology key sinks. Loaded by
//! `graphtest.rs` as crate `topology` so the taint pass recognizes the
//! resolver's in-resolve keys as determinism sinks: tainted data in a
//! merge key changes which siblings merge, and in a job key which jobs
//! deduplicate and in what order they run.

pub fn merge_key(level: u8, children: &[(u32, u128)]) -> u128 {
    let _ = (level, children);
    0
}

pub fn job_key(servers: u32, boost: f64) -> u128 {
    let _ = (servers, boost);
    0
}
