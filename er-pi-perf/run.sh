#!/usr/bin/env bash
# Builds er-pi-perf and the er-pi-server daemon from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash er-pi-perf/run.sh --workload <town10|catalogue|daemon> --seed N --seconds S --trace <0|1>
#
# Build output goes to standard error; the last line of standard output is
# the result object. Honours CARGO_TARGET_DIR (default: er-pi-perf/target).
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/er-pi-perf" "$@"
