//! Graph-pass fixture: three nondeterministic sources reaching the
//! topology's merge and job keys. A wall-clock read skews a boosted
//! share, a thread id picks a level tag, and `HashMap` iteration order
//! picks a server count.

use std::collections::HashMap;
use std::time::Instant;

pub fn jitter() -> f64 {
    Instant::now().elapsed().as_secs_f64()
}

pub fn share_key() -> u128 {
    job_key(16, 1.0 + jitter())
}

pub fn worker_level() -> u8 {
    format!("{:?}", std::thread::current().id()).len() as u8
}

pub fn sibling_key() -> u128 {
    merge_key(worker_level(), &[])
}

pub fn first_size(sizes: &HashMap<u32, u32>) -> u32 {
    sizes.values().copied().next().unwrap_or(16)
}

pub fn size_key(sizes: &HashMap<u32, u32>) -> u128 {
    job_key(first_size(sizes), 1.0)
}
