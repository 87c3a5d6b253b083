//! Determinism proptest: the calendar's tie-breaking is exactly a stable
//! sort by `(time, class)`.

use dcb_engine::{Calendar, EventTime};
use dcb_units::Seconds;
use proptest::prelude::*;

fn at(s: f64) -> EventTime {
    EventTime::new(Seconds::new(s))
}

/// splitmix64: the vendored proptest shim only draws scalars, so derived
/// vectors come from a seeded generator (deterministic per case).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    /// Drain order out of the calendar equals a stable sort of the posts
    /// by `(time, class)`: equal keys come out in posting order, always.
    /// Times are drawn from a tiny set so ties actually happen.
    #[test]
    fn calendar_drain_is_a_stable_sort(seed in 0u64..1_000_000, n in 1usize..40) {
        let times = [0.0, 1.5, 1.5 + f64::EPSILON, 30.0];
        let mut state = seed;
        let posts: Vec<(usize, u8)> = (0..n)
            .map(|_| ((mix(&mut state) % 4) as usize, (mix(&mut state) % 3) as u8))
            .collect();
        let mut cal = Calendar::new();
        for (i, &(ti, class)) in posts.iter().enumerate() {
            cal.post(0, at(times[ti]), class, i as u64);
        }
        let mut expected: Vec<usize> = (0..posts.len()).collect();
        expected.sort_by_key(|&i| (posts[i].0, posts[i].1));
        let mut drained = Vec::new();
        while let Some(p) = cal.pop() {
            drained.push(p.token as usize);
        }
        prop_assert_eq!(drained, expected);
    }
}
