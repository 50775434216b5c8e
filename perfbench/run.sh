#!/usr/bin/env bash
# Builds `vtld` and the perfbench runner from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 25 --trace 0
#
# The last line of standard output is the JSON result; everything else
# (build output, the human-readable report) goes to standard error.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --quiet --release --offline --locked --bin vtld >&2
cargo build --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --vtld "$target/release/vtld" --work-dir "$target/perfbench-work" "$@"
