#!/usr/bin/env bash
# Build the harness and the server it drives, then run the harness.
# This is the `command` of BENCHMARK.json: the driver appends
#   --workload NAME --seed N --seconds S --trace 0|1
# and reads the last line of standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# With no CARGO_TARGET_DIR the build lands in benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
# --offline: every registry crate is patched with a stand-in under
# benchmark/standins, so nothing is fetched.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
  -p pas2p-benchmark -p pas2p-repro --bin pas2p-benchmark --bin pas2p-cli >&2
exec "$target/release/pas2p-benchmark" run "$@"
