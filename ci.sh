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
vendored=(--exclude criterion --exclude proptest --exclude rand --exclude serde --exclude serde_derive)

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

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo test -q --release --workspace (contracts off unless a test forces them on)"
cargo test -q --release --workspace

echo "== perfbench self-tests (benchmark build, output checks, exact count metrics)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== topology differential tests (single-path == kernel, bit for bit)"
cargo test -q --release -p dcb-topology --test differential

echo "== topology aggregation proptests (explicit == collapsed, thread-invariant)"
cargo test -q --release -p dcb-topology --test aggregation

echo "== dcb-engine (calendar, EventTime and locate units + calendar stable-sort proptest)"
cargo test -q -p dcb-engine

echo "== golden digests (kernel trajectories, also fanned out over 1, 2 and 8 fleet threads, sizing search, the §7 adaptive controller and its stepped oracle, a 240-cluster facility resolved collapsed and flat on 1 and 2 fleet threads (facility_golden), repro all output, and the observability outputs: the fig5 Chrome trace, the fig5-fig9 collapsed profile and telemetry JSON, the repro all Chrome trace and timeline, and the capped-feed repro topo Chrome trace, bit for bit)"
cargo test -q --release -p dcb-sim --test kernel_golden
cargo test -q --release -p dcb-core --test sizing_golden
cargo test -q --release -p dcb-core --lib -- sizing::tests::pruned_search sizing::tests::ups_cost_never_decreases_with_runtime
cargo test -q --release -p dcb-core --test online_golden
cargo test -q --release -p dcb-core --lib -- online::tests::event_driven_controller_tracks_the_stepped_loop online::tests::decisions_do_not_depend_on_the_outage_length
cargo test -q --release -p dcb-topology --test facility_golden
cargo test -q --release -p dcb-bench --test repro_golden
cargo test -q --release -p dcb-bench --test observability_golden

echo "== digest grouping and hostile input: specs, JSON, collapsed profiles and Chrome writer input (typed fingerprints group as Debug text does; no input panics a parser, accepted profiles round-trip; the one-pass Chrome writer matches the writer it replaced byte for byte; exited threads' trace rings are dropped)"
cargo test -q --release -p dcb-fleet --test grouping
cargo test -q --release -p dcb-topology --test grouping
cargo test -q --release -p dcb-topology --test hostile_spec
cargo test -q --release -p dcb-trace --test hostile_json
cargo test -q --release -p dcb-prof --test roundtrip
cargo test -q --release -p dcb-trace --test chrome_oracle
cargo test -q --release -p dcb-trace --lib -- ring::tests

# The two bench smokes rewrite BENCH_engine.json and BENCH_topology.json
# and append to BENCH_history.jsonl, which `repro perf validate` and
# `repro perf check` then read. The committed files come back on exit,
# whether the run is green, fails or is interrupted.
bench_files=(BENCH_engine.json BENCH_topology.json BENCH_history.jsonl)
bench_saved=$(mktemp -d)
cp "${bench_files[@]}" "$bench_saved"
restore_bench_files() {
    for f in "${bench_files[@]}"; do cp "$bench_saved/$f" "$f"; done
    rm -rf "$bench_saved"
}
trap restore_bench_files EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

echo "== engine bench smoke (event kernel vs stepped oracle)"
DCB_ENGINE_BENCH_SMOKE=1 cargo bench -q -p dcb-bench --bench engine

echo "== bench history schema validation after engine append (repro perf validate)"
cargo run --release -q -p dcb-bench --bin repro -- perf validate

echo "== topology bench smoke (aggregated vs flat resolution)"
DCB_TOPOLOGY_BENCH_SMOKE=1 cargo bench -q -p dcb-bench --bench topology

echo "== bench history schema validation after topology append (repro perf validate)"
cargo run --release -q -p dcb-bench --bin repro -- perf validate

echo "== ratcheted bench-history floors (repro perf check; supersedes the old 5x/10x greps)"
cargo run --release -q -p dcb-bench --bin repro -- perf check

echo "== dcb-audit check (workspace invariants)"
cargo run --release -q -p dcb-audit -- check

echo "== dcb-audit self-test (fixtures + lexer + lints)"
cargo test -q -p dcb-audit

echo "== trace determinism (Chrome export byte-identical across DCB_THREADS)"
cargo test -q --release -p dcb-bench --test trace_chrome

echo "== profiler determinism (collapsed/svg byte-identical across DCB_THREADS, telemetry-reconciled; per-thread arenas equal serial recording)"
cargo test -q --release -p dcb-bench --test prof_profile
cargo test -q --release -p dcb-prof --test arenas

echo "== perf observatory regression detection (injected-regression fixture)"
cargo test -q -p dcb-bench --test perf_observatory

echo "== explain timeline consistency (trace tally vs kernel outcome)"
cargo test -q --release -p dcb-bench --test explain_timeline

echo "== dcb-audit graph (call-graph passes vs audit.baseline.json, 10s budget)"
graph_start=$(date +%s)
cargo run --release -q -p dcb-audit -- graph
graph_end=$(date +%s)
graph_elapsed=$((graph_end - graph_start))
test "$graph_elapsed" -le 10 || { echo "dcb-audit graph took ${graph_elapsed}s (> 10s budget)"; exit 1; }

echo "== dcb-audit graph self-test (taint/unit-flow fixtures + ratchet)"
cargo test -q -p dcb-audit --test graphtest

echo "== dcb-audit docs (markdown links + DESIGN.md section references)"
cargo run --release -q -p dcb-audit -- docs

echo "== dcb-audit sweep (model contracts over the Table 3 grid)"
cargo run --release -q -p dcb-audit -- sweep

echo "CI green."
