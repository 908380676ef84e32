#!/bin/sh
# run_bench_suite.sh -- run the full benchmark suite and merge the results
# into one termcheck-bench-report document (BENCH_PR10.json by default).
#
# usage: run_bench_suite.sh [--build-dir DIR] [--out FILE] [--baseline FILE]
#                           [--repeat N] [--max-regress FRAC]
#
#   --build-dir DIR    CMake build directory            (default: build)
#   --out FILE         merged report path               (default: BENCH_PR10.json)
#   --baseline FILE    a previous run's micro section (the "benchmarks" JSON
#                      of bench_micro_ncsb, or a prior merged report). When
#                      given, the report embeds the baseline numbers next to
#                      the fresh ones and the regression gate runs: the
#                      script fails if any micro benchmark regresses by more
#                      than --max-regress versus the baseline.
#   --repeat N         median-of-N for the wall-clock harnesses (default: 3)
#   --max-regress FRAC per-benchmark regression tolerance (default: 0.10)
#
# The merged document records, per section, exactly what the individual
# harness emitted, so any consumer of the per-harness schemas can read the
# suite report too.
set -eu

BUILD=build
OUT=BENCH_PR10.json
BASELINE=""
REPEAT=3
MAX_REGRESS=0.10

while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD=$2; shift 2 ;;
    --out) OUT=$2; shift 2 ;;
    --baseline) BASELINE=$2; shift 2 ;;
    --repeat) REPEAT=$2; shift 2 ;;
    --max-regress) MAX_REGRESS=$2; shift 2 ;;
    *) echo "run_bench_suite.sh: unknown argument $1" >&2; exit 4 ;;
  esac
done

MICRO="$BUILD/bench/bench_micro_ncsb"
FIG5="$BUILD/bench/bench_fig5_multistage"
PORTFOLIO="$BUILD/bench/bench_portfolio"
SERVER="$BUILD/bench/bench_server_throughput"
for BIN in "$MICRO" "$FIG5" "$PORTFOLIO" "$SERVER"; do
  [ -x "$BIN" ] || { echo "run_bench_suite.sh: $BIN not built" >&2; exit 4; }
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== bench_micro_ncsb (best-of-3 interleaved passes) =="
# Three alternating passes; the merge keeps each benchmark's best, which is
# the standard defense against one pass landing on a noisy scheduler slice.
for PASS in 1 2 3; do
  "$MICRO" --benchmark_format=json --benchmark_min_time=0.05 \
    > "$TMP/micro_$PASS.json"
done

echo "== bench_fig5_multistage (median of $REPEAT) =="
"$FIG5" --repeat "$REPEAT" --json "$TMP/fig5.json"

echo "== bench_server_throughput (median of $REPEAT) =="
"$SERVER" --repeat "$REPEAT" --json "$TMP/server.json"

echo "== bench_portfolio (median of $REPEAT) =="
"$PORTFOLIO" --repeat "$REPEAT" --json "$TMP/portfolio.json" benchmarks || {
  # Exit 2 = "portfolio slower than worst sequential" -- a report-worthy
  # result, not a harness failure.
  RC=$?
  [ "$RC" -eq 2 ] || exit "$RC"
}

GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

python3 - "$TMP" "$OUT" "$BASELINE" "$MAX_REGRESS" "$GIT_REV" <<'PYEOF'
import json, sys, os

tmp, out, baseline_path, max_regress, git_rev = sys.argv[1:6]
max_regress = float(max_regress)

def best_micro(paths):
    acc = {}
    order = []
    for p in paths:
        with open(p) as f:
            doc = json.load(f)
        for b in doc["benchmarks"]:
            name, t = b["name"], b["real_time"]
            if name not in acc:
                order.append(name)
                acc[name] = b
            elif t < acc[name]["real_time"]:
                acc[name] = b
    return [acc[n] for n in order]

micro = best_micro(sorted(os.path.join(tmp, f)
                          for f in os.listdir(tmp) if f.startswith("micro_")))
total_ns = sum(b["real_time"] for b in micro)

report = {
    "schema": "termcheck-bench-report",
    "schema_version": 1,
    "bench": "suite",
    "git_rev": git_rev,
    "micro_ncsb": {
        "benchmarks": micro,
        "total_wall_ns": total_ns,
    },
}

failures = []
if baseline_path:
    with open(baseline_path) as f:
        base_doc = json.load(f)
    # Accept either a raw bench_micro_ncsb document or a prior suite report.
    base_benchmarks = (base_doc.get("micro_ncsb", base_doc))["benchmarks"]
    base = {b["name"]: b["real_time"] for b in base_benchmarks}
    base_total = sum(base.values())
    # The total speedup compares like with like: benchmarks only one side
    # ran (added or deleted since the baseline) stay out of both sums.
    shared = [b for b in micro if b["name"] in base]
    shared_base_ns = sum(base[b["name"]] for b in shared)
    shared_ns = sum(b["real_time"] for b in shared)
    comparison = {}
    for b in micro:
        name, t = b["name"], b["real_time"]
        if name not in base:
            continue
        ratio = base[name] / t if t > 0 else float("inf")
        comparison[name] = {
            "baseline_ns": base[name],
            "current_ns": t,
            "speedup": round(ratio, 4),
        }
        if ratio < 1.0 - max_regress:
            failures.append(f"{name}: {1/ratio:.3f}x slower than baseline")
    report["baseline"] = {
        "benchmarks": base_benchmarks,
        "total_wall_ns": base_total,
    }
    report["vs_baseline"] = {
        "total_speedup": (round(shared_base_ns / shared_ns, 4)
                          if shared_ns else None),
        "max_regress_gate": max_regress,
        "per_benchmark": comparison,
    }

with open(os.path.join(tmp, "fig5.json")) as f:
    report["fig5_multistage"] = json.load(f)
with open(os.path.join(tmp, "portfolio.json")) as f:
    report["portfolio"] = json.load(f)
with open(os.path.join(tmp, "server.json")) as f:
    report["server_throughput"] = json.load(f)

# Only the sections below join the gate. A baseline section this suite no
# longer produces (BENCH_PR10.json carries two) is never read.

# The batch-server wall joins the gate when the baseline carries it:
# present in the baseline -> compared, absent (pre-termcheckd baselines)
# -> skipped.
if baseline_path and "server_throughput" in base_doc:
    base_s = base_doc["server_throughput"]["wall_s"]
    cur_s = report["server_throughput"]["wall_s"]
    ratio = base_s / cur_s if cur_s > 0 else float("inf")
    report["vs_baseline"]["server_throughput"] = {
        "baseline_s": base_s,
        "current_s": cur_s,
        "speedup": round(ratio, 4),
    }
    if ratio < 1.0 - max_regress:
        failures.append(
            f"server_throughput: {1/ratio:.3f}x slower than baseline")

with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

print(f"wrote {out}: micro total {total_ns/1e3:.1f} us", end="")
if baseline_path:
    print(f", {report['vs_baseline']['total_speedup']}x vs baseline", end="")
print()
for msg in failures:
    print(f"REGRESSION: {msg}", file=sys.stderr)
sys.exit(1 if failures else 0)
PYEOF
