#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, and the full test suite.
# Everything runs offline against the vendored dependency stubs (vendor/).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo doc --no-deps (rustdoc, missing_docs warnings fatal via clippy above)"
cargo doc --no-deps --workspace -q

echo "== cargo test -q (tier-1)"
cargo test -q

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== perfbench self-tests (benchmark build, output checks, exact count metrics)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== topology differential tests (single-path == kernel, bit for bit)"
cargo test -q --release -p dcb-topology --test differential

echo "== topology aggregation proptests (explicit == collapsed, thread-invariant)"
cargo test -q --release -p dcb-topology --test aggregation

echo "== dcb-engine core (calendar/clock/locate units + determinism proptests)"
cargo test -q -p dcb-engine

echo "== componentized kernel differential (engine vs legacy oracle, bit for bit, 120s budget)"
comp_start=$(date +%s)
cargo test -q --release -p dcb-sim --test componentized
comp_end=$(date +%s)
comp_elapsed=$((comp_end - comp_start))
test "$comp_elapsed" -le 120 || { echo "componentized differential took ${comp_elapsed}s (> 120s budget)"; exit 1; }

echo "== golden digests (kernel trajectories, sizing search, the §7 adaptive controller and its stepped oracle, repro all output and the three observability outputs, bit for bit)"
cargo test -q --release -p dcb-sim --test kernel_golden
cargo test -q --release -p dcb-core --test sizing_golden
cargo test -q --release -p dcb-core --lib -- sizing::tests::pruned_search sizing::tests::ups_cost_never_decreases_with_runtime
cargo test -q --release -p dcb-core --test online_golden
cargo test -q --release -p dcb-core --lib -- online::tests::event_driven_controller_tracks_the_stepped_loop online::tests::decisions_do_not_depend_on_the_outage_length
cargo test -q --release -p dcb-bench --test repro_golden
cargo test -q --release -p dcb-bench --test observability_golden

echo "== digest grouping and hostile input: specs, JSON, collapsed profiles and trace lines (typed fingerprints group as Debug text does; no input panics a parser, accepted profiles and lines round-trip)"
cargo test -q --release -p dcb-fleet --test grouping
cargo test -q --release -p dcb-topology --test grouping
cargo test -q --release -p dcb-topology --test hostile_spec
cargo test -q --release -p dcb-trace --test hostile_json
cargo test -q --release -p dcb-prof --test roundtrip
cargo test -q --release -p dcb-trace --test roundtrip

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

echo "== dcb-audit telemetry read-fence self-test (lint fixture)"
cargo test -q -p dcb-audit --test selftest telemetry

echo "== dcb-audit trace read-fence self-test (lint fixture)"
cargo test -q -p dcb-audit --test selftest trace

echo "== dcb-audit prof read-fence self-test (lint fixture)"
cargo test -q -p dcb-audit --test selftest prof

echo "== dcb-audit kernel-internals fence self-test (lint fixture)"
cargo test -q -p dcb-audit kernel_internals

echo "== trace determinism (Chrome export byte-identical across DCB_THREADS)"
cargo test -q --release -p dcb-bench --test trace_chrome

echo "== profiler determinism (collapsed/svg byte-identical across DCB_THREADS, telemetry-reconciled)"
cargo test -q --release -p dcb-bench --test prof_profile

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
