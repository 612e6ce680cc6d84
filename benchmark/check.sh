#!/usr/bin/env bash
# Repeatability self-check.  From the repository root:
#
#   bash benchmark/check.sh [--seed N]     two full untraced sets on this tree
#   bash benchmark/check.sh --quick        plumbing smoke test: a tenth of the
#                                          measuring time, no bounds applied
#
# Fails if any end-to-end median of the second set differs from the first by
# more than the metric's bound in BENCHMARK.json, in either direction, if an
# exact metric (clock_width, online_width_ratio, wire_bytes_per_event,
# failed_share) is not identical, or if any run fails verification.  A metric
# is reported as UNRESOLVED rather than as unchanged when a run's own
# interquartile range is wider than the bound.  Each metric is compared on the
# workloads it is native to, which are the ones the result files carry it for.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=42
quick=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --quick) quick=1; shift ;;
        *) echo "check.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

extra=()
if [[ "$quick" == 1 ]]; then
    extra+=(--quick)
fi
mkdir -p "$here/out/check-seed$seed"
for round in 1 2; do
    MVC_BENCH_OUT="$here/out/check-seed$seed/round$round" \
        bash "$here/run.sh" --seed "$seed" ${extra[@]+"${extra[@]}"} >"$here/out/check-seed$seed/round$round.log" 2>&1 || {
        cat "$here/out/check-seed$seed/round$round.log" >&2
        echo "check.sh: round $round failed" >&2
        exit 1
    }
done

python3 - "$here/../BENCHMARK.json" "$here/out/check-seed$seed" "$seed" "$quick" <<'PY'
import json, sys
spec_path, root, seed, quick = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"
spec = json.load(open(spec_path))
exact = {"clock_width", "online_width_ratio", "wire_bytes_per_event"}
status = 0
print(f"{'workload':<12} {'metric':<22} {'round 1':>16} {'round 2':>16} {'differs':>9} {'own IQR':>8} {'bound':>6}  verdict")
for workload in (w["name"] for w in spec["workloads"]):
    runs = [json.load(open(f"{root}/round{r}/result-{workload}-seed{seed}-untraced.json")) for r in (1, 2)]
    for run in runs:
        if not run["correct"] or run["failed_share"] != 0:
            print(f"{workload:<12} failed_share = {run['failed_share']} (must be 0)")
            status = 1
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if name not in runs[0]["metrics"]:
            continue
        a, b = (run["metrics"][name] for run in runs)
        differs = abs(b["median"] - a["median"]) / abs(a["median"])
        iqr = max((m["q3"] - m["q1"]) / abs(m["median"]) for m in (a, b))
        if quick:
            verdict = "ran"
        elif name in exact:
            verdict = "ok" if a["median"] == b["median"] else "FAIL (must be identical)"
        elif differs > bound:
            verdict = "FAIL"
        elif iqr > bound:
            verdict = "UNRESOLVED (own IQR wider than the bound)"
        else:
            verdict = "ok"
        if verdict.startswith("FAIL"):
            status = 1
        print(f"{workload:<12} {name:<22} {a['median']:>16.4f} {b['median']:>16.4f} {differs:>9.2%} {iqr:>8.2%} {bound:>6.0%}  {verdict}")
sys.exit(status)
PY
