#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, and the full test suite.
# Everything runs offline against the vendored dependency stubs (vendor/).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (-D warnings; tests, benches and examples may use what clippy.toml disallows)"
cargo clippy --workspace --all-targets -- -D warnings -A clippy::disallowed_types -A clippy::disallowed_methods

# The two fenced stages lint library and binary code only (`--lib` without
# `--tests` leaves `#[cfg(test)]` code out); the vendored stubs are not ours.
vendored=(--exclude proptest --exclude rand --exclude serde --exclude serde_derive)

echo "== cargo clippy, libraries and binaries: clippy.toml's disallowed types and methods (HashMap/HashSet, Instant/SystemTime, thread spawn/scope)"
cargo clippy --workspace "${vendored[@]}" --lib --bins -- -D warnings -D clippy::disallowed_types -D clippy::disallowed_methods

echo "== cargo clippy, libraries: no unwrap/expect/panic!/todo!/unimplemented! outside an #[expect]"
cargo clippy --workspace "${vendored[@]}" --lib -- -D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic -D clippy::todo -D clippy::unimplemented

echo "== cargo build --release"
cargo build --release

echo "== cargo doc --no-deps (rustdoc warnings fatal)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== cargo test -q (tier-1)"
cargo test -q

# The two workspace runs run every test target once per profile: the
# golden digests, the differential, aggregation, grouping, hostile-input
# and oracle suites, the determinism tests, dcb-audit's fixtures and its
# contract sweep (`sweep::tests`, which force-enables contracts).
echo "== cargo test -q --workspace (every test target, debug: contracts on)"
cargo test -q --workspace

echo "== cargo test -q --release --workspace (every test target, release: contracts off unless a test forces them on)"
cargo test -q --release --workspace

# --locked: a change that would rewrite perfbench/Cargo.lock (a crate the
# benchmark builds gained or lost a dependency edge) fails here instead of
# silently editing the benchmark's lock file.
echo "== perfbench self-tests (benchmark build, output checks, exact count metrics; lock file unchanged)"
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "== dcb-audit check (token lints, call-graph passes, doc references; 10s budget)"
audit_start=$(date +%s)
cargo run --release -q -p dcb-audit -- check
audit_elapsed=$(($(date +%s) - audit_start))
test "$audit_elapsed" -le 10 || { echo "dcb-audit check took ${audit_elapsed}s (> 10s budget)"; exit 1; }

echo "CI green."
