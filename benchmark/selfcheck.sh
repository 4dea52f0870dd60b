#!/usr/bin/env bash
# Everything that keeps the benchmark honest, short of running it:
# format, lints, the tests (driver = scenario parity, the output checks,
# BENCHMARK.json = program), and two greps.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest=(--manifest-path "$here/Cargo.toml")

cargo fmt "${manifest[@]}" --check
cargo clippy "${manifest[@]}" --offline --all-targets -- -D warnings
cargo test "${manifest[@]}" --offline --release -q

# The drivers use only the sans-io / poll surface, so deleting the
# blocking twins never needs an edit here.
if grep -nE 'RpcClient|gssapi::net|tls::(stream|retry)|GridFtpClient|recv_timeout' \
    "$here"/src/workloads/*.rs "$here"/src/probes.rs; then
  echo "selfcheck: a driver names a blocking-twin API" >&2
  exit 1
fi

# Path-only dependencies: nothing comes from a registry.
if grep -nE '^[a-zA-Z0-9_-]+ *= *("|\{ *version)' "$here/Cargo.toml" \
    | grep -vE '^[0-9]+:(name|version|edition|license|debug) '; then
  echo "selfcheck: the manifest names a registry dependency" >&2
  exit 1
fi
if grep -n 'source = ' "$here/Cargo.lock"; then
  echo "selfcheck: the lock file names a registry source" >&2
  exit 1
fi
echo "selfcheck: ok"
