#!/usr/bin/env bash
# Build gridbench (release, offline) and run it with the arguments given.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S | --slices N]
#                    [--trace 0|1] [--json-out PATH]
#
# Without --workload all five workloads run, each in its own process.
# Run it from the repository root or from anywhere else: paths are taken
# from this script's own location, and a relative CARGO_TARGET_DIR is
# read against the directory the script was started in, as cargo does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# The build's chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/gridbench" "$@"
