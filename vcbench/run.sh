#!/usr/bin/env bash
# Build the `serve` daemon and the benchmark from source, then run one
# benchmark workload. Run from the root of a virtclust checkout:
#
#   bash vcbench/run.sh --workload svc_short_mix --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries the benchmark's report, whose
# last line is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# svc_unique_replay leaves thousands of trace files open in the daemon
# (its per-worker reader cache never evicts): lift the soft descriptor
# limit to the hard one.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

cargo build --release --offline --quiet -p virtclust-bench --bin serve >&2
cargo build --release --offline --quiet --manifest-path vcbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/vcbench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
