//! Graph-pass fixture: a wall-clock read reaching the keyed scenario
//! digest. `jitter` skews the outage duration that `seal` digests through
//! a saved cluster prefix (`ClusterKey::digest`).

use std::time::Instant;

pub fn jitter() -> f64 {
    Instant::now().elapsed().as_secs_f64()
}

pub fn seal(key: &ClusterKey<'_>, config: &BackupConfig, technique: &Technique) -> u128 {
    key.digest(config, technique, Seconds::new(1_800.0 + jitter()))
}
