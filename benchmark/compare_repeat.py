#!/usr/bin/env python3
"""Compare the four runs check_repeat.sh made: sets a and b, two runs each."""
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
EXACT = ("wire_bytes_per_op", "msgs_per_op")
failed = False

print(f"{'workload':16} {'metric':18} {'set a':>14} {'set b':>14} {'b/a':>7} {'worse by':>9} {'bound':>6}")
for workload in (w["name"] for w in spec["workloads"]):
    runs = {
        r: json.load(open(f"{out}/{r}-{workload}"))
        for r in ("a1", "a2", "b1", "b2")
    }
    for name, r in runs.items():
        if not r["correct"] or r["failed"]:
            print(f"{workload}: run {name} was not correct")
            failed = True
    if len({r["digest"] for r in runs.values()}) != 1:
        print(f"{workload}: digests differ between runs of one seed")
        failed = True
    for m in spec["end_to_end"]:
        values = {r: runs[r]["metrics"][m["name"]]["value"] for r in runs}
        a = statistics.median([values["a1"], values["a2"]])
        b = statistics.median([values["b1"], values["b2"]])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = ""
        if m["name"] in EXACT and len(set(values.values())) != 1:
            verdict = "  DIFFERS (exact per seed)"
            failed = True
        elif worse > m["bound"]:
            verdict = "  OUTSIDE BOUND"
            failed = True
        print(
            f"{workload:16} {m['name']:18} {a:14.4f} {b:14.4f} {b / a:7.3f} "
            f"{worse * 100:8.1f}% {m['bound'] * 100:5.0f}%{verdict}"
        )
sys.exit(1 if failed else 0)
