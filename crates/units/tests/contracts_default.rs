//! Contract checks are on by default in debug builds and off in release
//! builds. This runs in its own process, where nothing calls
//! `force_enable`, so it holds in either test profile.

#[test]
fn contracts_are_on_by_default_only_in_debug_builds() {
    assert_eq!(dcb_units::contracts::enabled(), cfg!(debug_assertions));
}
