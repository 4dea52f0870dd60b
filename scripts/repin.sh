#!/usr/bin/env bash
# Re-pin: re-record every golden pin (tests/golden.pins) and regenerate
# EXPERIMENTS.md from the pinned seeds and the recorded bench set, then
# print what moved — the table a reviewer reads before a change that
# moves seeded bytes may land (DESIGN.md §11.6).
#
# Usage:
#   scripts/repin.sh [PREFIX...]
#
# Each PREFIX names pins the change is *meant* to move: `key. wire.` for
# a change to seeded keys. The run fails, after writing everything and
# printing the table, when
#   * a pin outside every PREFIX moves at all (with no PREFIX the script
#     is a check: a second run after a re-pin must change nothing),
#   * a pin inside one moves its length by more than 2 bytes — a key
#     change may shorten a minimal-length integer, not reshape a message,
#   * a test no longer checks a pin the file holds, or
#   * a flow-metrics cell of EXPERIMENTS.md other than a byte count
#     moves: message, call, retransmission and verdict counts are not a
#     function of key bytes.
# The EXPERIMENTS.md timing tables are re-rendered from
# bench-results/after/, so a re-recorded BENCH_*.json lands in the same
# run; bench-results/after/BENCH_flows.json follows the flow metrics.
set -euo pipefail
cd "$(dirname "$0")/.."

pins=tests/golden.pins
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== golden tests in re-pin mode =="
while read -r package test; do
    if ! GRIDSEC_REPIN_OUT="$work/recorded" \
        cargo test -q --offline -p "$package" --test "$test" > "$work/log" 2>&1; then
        cat "$work/log" >&2
        echo "FAIL: $test fails beside its pins; nothing was rewritten" >&2
        exit 1
    fi
done <<'EOF'
gridsec-crypto golden_key
gridsec-crypto golden_rng
gridsec-wsse golden_wire
gridsec-integration storm_golden
gridsec-integration xfer_golden
gridsec-integration chaos_golden
EOF

# Old file order and comments kept; a pin recorded for the first time
# goes last. The table and the verdict come from the same pass.
status=0
awk -v prefixes="$*" -v newpins="$work/pins" '
    BEGIN {
        np = split(prefixes, prefix, " ")
        fmt = "%-32s %-18s %-18s %8s %8s  %s\n"
        printf fmt, "pin", "old sha256", "new sha256", "old B", "new B", "verdict"
    }
    function expected(name,    i) {
        for (i = 1; i <= np; i++) if (index(name, prefix[i]) == 1) return 1
        return 0
    }
    function row(name, osha, olen, nsha, nlen,    verdict, d) {
        d = nlen - olen
        if (osha == "") verdict = "new"
        else if (osha == nsha && d == 0) verdict = "same"
        else if (!expected(name)) { verdict = "MOVED, not in a PREFIX"; bad = 1 }
        else if (d > 2 || d < -2) { verdict = sprintf("LENGTH %+d", d); bad = 1 }
        else verdict = d == 0 ? "digest" : sprintf("digest, length %+d", d)
        printf fmt, name, substr(osha, 1, 16), substr(nsha, 1, 16), olen, nlen, verdict
    }
    NR == FNR { sha[$1] = $2; len[$1] = $3; order[++n] = $1; next }
    /^#/ || NF == 0 { print > newpins; next }
    !($1 in sha) {
        printf fmt, $1, substr($2, 1, 16), "", $3, "", "NO TEST CHECKS IT"
        bad = 1; next
    }
    {
        row($1, $2, $3, sha[$1], len[$1])
        print $1, sha[$1], len[$1] > newpins
        seen[$1] = 1
    }
    END {
        for (i = 1; i <= n; i++) if (!(order[i] in seen)) {
            row(order[i], "", "", sha[order[i]], len[order[i]])
            print order[i], sha[order[i]], len[order[i]] > newpins
        }
        exit bad
    }
' "$work/recorded" "$pins" || status=1
cp "$work/pins" "$pins"

echo "== EXPERIMENTS.md from the pinned seeds and bench-results/after/ =="
cp EXPERIMENTS.md "$work/EXPERIMENTS.old"
mkdir "$work/bench"
# Timing reports only: the metrics reports are regenerated below.
grep -l '"results":' bench-results/after/BENCH_*.json | xargs cp -t "$work/bench"
GRIDSEC_REGEN_SKIP_BENCH=1 GRIDSEC_BENCH_DIR="$work/bench" \
    scripts/regen_experiments.sh > /dev/null
cp "$work/bench/BENCH_flows.json" bench-results/after/BENCH_flows.json

# The flow-metrics block of an EXPERIMENTS.md.
flow_block() {
    sed -n '/BEGIN AUTOGENERATED FLOW METRICS/,/END AUTOGENERATED FLOW METRICS/p' "$1"
}
if diff -u "$work/EXPERIMENTS.old" EXPERIMENTS.md > "$work/diff"; then
    echo "EXPERIMENTS.md: unchanged"
else
    tail -n +3 "$work/diff"
    if diff <(flow_block "$work/EXPERIMENTS.old") <(flow_block EXPERIMENTS.md) \
        | grep -E '^[<>]' | grep -vE '^[<>] \| [a-z0-9_.]*bytes[a-z0-9_.]* \|'; then
        echo "FAIL: a flow metric that is not a byte count moved (above)" >&2
        status=1
    fi
fi

if [ "$status" -ne 0 ]; then
    echo "repin.sh: the files are rewritten, but the move is wider than declared (see verdicts)" >&2
    exit 1
fi
echo "repin.sh: $pins, EXPERIMENTS.md and bench-results/after/BENCH_flows.json are current"
