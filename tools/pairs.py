#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, judged against BENCHMARK.json.

    python3 tools/pairs.py PARENT_REV [CHANGE_REV] [--seeds 42,777] [--pairs 10]
                           [--workload W] [--seconds S] [--symdiff REGEX]
                           [--scratch DIR] [--out FILE]
    python3 tools/pairs.py --check FILE...
    python3 tools/pairs.py --self-test

From the repository root.  `git archive`s PARENT_REV and CHANGE_REV (default
HEAD) into two directories of equal path length under DIR (default: a fresh
temporary directory outside the repository), builds each copy's benchmark
into its own CARGO_TARGET_DIR, and then, for every seed and pair, runs
`benchmark/run.sh --workload W --seed S` on both sides, the parent first in
even pairs and the change first in odd ones.  Before every run it times a
host sentinel: `hashlib.sha256` over a fixed buffer, code that links nothing
of the workspace, so a slow host episode shows in it as well.

Every run is kept in the JSON written to FILE (default DIR/pairs.json): its
per-metric medians, sentinel, failed share and `correct` flag, next to the
bounds it was judged by and the verdicts.  A claim commits that file as
`BENCH_<pr>.json` at the repository root.
Per workload, seed and end-to-end metric of BENCHMARK.json it prints the
median of each side's per-run medians, the parent's interquartile range, the
pairs the change won, the pairs flagged `host` (the sentinel moved at least
as much as the metric), and a verdict:

    gain        the change won at least 9 of 10 pairs and its median beats
                the parent's by more than the parent's interquartile range
    worse       the median moved the wrong way by more than the bound and by
                more than the runs' spread
    unresolved  the runs spread wider than the bound, so "inside the bound"
                cannot be told from "outside"
    ok          inside the bound

A rise in the share of failed operations is always `worse`.  With
`--symdiff REGEX` it appends `tools/symdiff.py`'s table for the two `bench`
binaries.  `--check` validates the schema of each FILE and recomputes every
verdict from its stored runs and bounds; it exits non-zero if a file is
malformed, a run is not `correct`, or a stored verdict differs.
`--self-test` recomputes the verdicts of a built-in set of runs and exits
non-zero if one differs from what it should be.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SENTINEL_BUFFER = bytes(range(256)) * (16 * 1024)  # 4 MiB
GAIN_SHARE = 0.9


def sentinel_ns():
    """Nanoseconds of the fastest of three SHA-256 passes over the buffer."""
    best = None
    for _ in range(3):
        started = time.perf_counter_ns()
        hashlib.sha256(SENTINEL_BUFFER).digest()
        took = time.perf_counter_ns() - started
        best = took if best is None else min(best, took)
    return best


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


RUN_KEYS = {"side": str, "workload": str, "seed": int, "pair": int, "sentinel_ns": int,
            "failed_share": (int, float), "correct": bool, "metrics": dict}
REPORT_KEYS = {"parent": str, "change": str, "seeds": list, "pairs": int,
               "seconds": (int, float, type(None)), "bounds": list, "runs": list,
               "verdicts": list}


def judge(runs, end_to_end):
    """Verdicts for every (workload, seed, metric) the runs carry.

    `runs` is a list of {"side", "workload", "seed", "pair", "sentinel_ns",
    "failed_share", "metrics": {name: median}}; `end_to_end` is
    BENCHMARK.json's list of bounded metrics.  Returns a list of dicts, one
    per (workload, seed, metric), in a stable order.
    """
    bounds = {m["name"]: (m["bound"], m["better"]) for m in end_to_end}
    groups = {}
    for run in runs:
        groups.setdefault((run["workload"], run["seed"]), []).append(run)
    verdicts = []
    for (workload, seed), group in sorted(groups.items()):
        pairs = {}
        for run in group:
            pairs.setdefault(run["pair"], {})[run["side"]] = run
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        names = [n for n in bounds if all(n in p[s]["metrics"] for p in complete for s in p)]
        failed = {s: statistics.mean(p[s]["failed_share"] for p in complete) for s in ("parent", "change")}
        if complete and failed["change"] > failed["parent"]:
            verdicts.append({"workload": workload, "seed": seed, "metric": "failed_share",
                             "parent": failed["parent"], "change": failed["change"],
                             "verdict": "worse"})
        for name in names:
            bound, better = bounds[name]
            sign = 1 if better == "higher" else -1
            parent = [p["parent"]["metrics"][name] for p in complete]
            change = [p["change"]["metrics"][name] for p in complete]
            mp, mc = statistics.median(parent), statistics.median(change)
            q1, q3 = quartiles(parent)
            iqr = q3 - q1
            c1, c3 = quartiles(change)
            scale = abs(mp) or 1.0
            spread = max(iqr, c3 - c1) / scale
            gain = sign * (mc - mp)  # > 0: the change is better
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            host = 0
            for p in complete:
                moved = abs(p["change"]["metrics"][name] / (p["parent"]["metrics"][name] or 1.0) - 1)
                sentinel = abs(p["change"]["sentinel_ns"] / p["parent"]["sentinel_ns"] - 1)
                host += moved > 0 and sentinel >= moved
            if complete and wins >= GAIN_SHARE * len(complete) and gain > iqr:
                verdict = "gain"
            elif -gain / scale > bound + spread:
                verdict = "worse"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts.append({"workload": workload, "seed": seed, "metric": name,
                             "parent": mp, "change": mc, "parent_iqr": iqr,
                             "relative": (mc - mp) / scale, "wins": wins,
                             "pairs": len(complete), "host": host, "bound": bound,
                             "verdict": verdict})
    return verdicts


def print_verdicts(verdicts):
    print(f"{'workload':<12} {'seed':>5} {'metric':<22} {'parent':>14} {'change':>14} "
          f"{'diff':>8} {'p-IQR':>8} {'wins':>6} {'host':>5} {'bound':>6}  verdict")
    for v in verdicts:
        if v["metric"] == "failed_share":
            print(f"{v['workload']:<12} {v['seed']:>5} {'failed_share':<22} "
                  f"{v['parent']:>14.6g} {v['change']:>14.6g} {'':>8} {'':>8} {'':>6} {'':>5} {'':>6}  {v['verdict']}")
            continue
        scale = abs(v["parent"]) or 1.0
        print(f"{v['workload']:<12} {v['seed']:>5} {v['metric']:<22} {v['parent']:>14.6g} "
              f"{v['change']:>14.6g} {100 * v['relative']:>7.2f}% {100 * v['parent_iqr'] / scale:>7.2f}% "
              f"{v['wins']:>2}/{v['pairs']:<3} {v['host']:>5} {v['bound']:>6}  {v['verdict']}")


def sh(cmd, **kwargs):
    return subprocess.run(cmd, check=True, **kwargs)


def checkout(rev, directory):
    os.makedirs(directory)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    sh(["tar", "-x", "-C", directory], stdin=archive.stdout)
    if archive.wait() != 0:
        sys.exit(f"pairs.py: git archive {rev} failed")


def measure(args, spec):
    parent_rev, change_rev = (
        subprocess.check_output(["git", "-C", ROOT, "rev-parse", rev], text=True).strip()
        for rev in (args.parent, args.change))
    scratch = args.scratch or tempfile.mkdtemp(prefix="mvc-pairs-")
    if os.path.realpath(scratch).startswith(os.path.realpath(ROOT) + os.sep):
        sys.exit("pairs.py: the scratch directory must lie outside the repository")
    # Equal-length paths, so neither side's file names shift its layout.
    sides = {
        "parent": (parent_rev, os.path.join(scratch, "p"), os.path.join(scratch, "tp")),
        "change": (change_rev, os.path.join(scratch, "c"), os.path.join(scratch, "tc")),
    }
    for side, (rev, tree, target) in sides.items():
        checkout(rev, tree)
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        print(f"building {side} {rev[:12]} into {target}", file=sys.stderr)
        sh(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
            os.path.join(tree, "benchmark", "Cargo.toml")], env=env)
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in args.seeds:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    _, tree, target = sides[side]
                    out = os.path.join(scratch, "out", side, f"seed{seed}", f"pair{pair}")
                    env = dict(os.environ, CARGO_TARGET_DIR=target, MVC_BENCH_OUT=out)
                    cmd = ["bash", os.path.join(tree, "benchmark", "run.sh"), "--workload",
                           workload, "--seed", str(seed)]
                    if args.seconds:
                        cmd += ["--seconds", str(args.seconds)]
                    ns = sentinel_ns()
                    sh(cmd, env=env, stdout=subprocess.DEVNULL)
                    result = json.load(open(os.path.join(
                        out, f"result-{workload}-seed{seed}-untraced.json")))
                    run = {"side": side, "workload": workload, "seed": seed, "pair": pair,
                           "sentinel_ns": ns, "failed_share": result["failed_share"],
                           "correct": result["correct"],
                           "metrics": {k: m["median"] for k, m in result["metrics"].items()}}
                    runs.append(run)
                    print(json.dumps(run), file=sys.stderr)
    report = {"parent": parent_rev, "change": change_rev, "seeds": args.seeds,
              "pairs": args.pairs, "seconds": args.seconds, "bounds": spec["end_to_end"],
              "runs": runs, "verdicts": judge(runs, spec["end_to_end"])}
    out = args.out or os.path.join(scratch, "pairs.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"wrote {out}", file=sys.stderr)
    print_verdicts(report["verdicts"])
    if args.symdiff is not None:
        sys.stdout.flush()
        sh([sys.executable, os.path.join(HERE, "symdiff.py"),
            os.path.join(sides["parent"][2], "release", "bench"),
            os.path.join(sides["change"][2], "release", "bench"), args.symdiff])
    return 1 if any(v["verdict"] == "worse" for v in report["verdicts"]) else 0


def check_report(report):
    """The problems of one stored report (an empty list if it is sound)."""
    def typed(obj, keys, where):
        if not isinstance(obj, dict):
            return [f"{where}: not an object"]
        found = [f"{where}: missing {k!r}" for k in keys if k not in obj]
        found += [f"{where}: unknown key {k!r}" for k in obj if k not in keys]
        found += [f"{where}: {k!r} is not {t}" for k, t in keys.items()
                  if k in obj and (not isinstance(obj[k], t) or
                                   (t is int and isinstance(obj[k], bool)))]
        return found

    problems = typed(report, REPORT_KEYS, "report")
    if problems:
        return problems
    for i, run in enumerate(report["runs"]):
        where = f"run {i}"
        found = typed(run, RUN_KEYS, where)
        if not found:
            if run["side"] not in ("parent", "change"):
                found.append(f"{where}: side {run['side']!r}")
            if not run["correct"]:
                found.append(f"{where}: the benchmark run was not correct")
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in run["metrics"].values()):
                found.append(f"{where}: a metric median is not a number")
        problems += found
    if problems:
        return problems
    sides = {}
    for run in report["runs"]:
        key = (run["workload"], run["seed"], run["pair"])
        sides.setdefault(key, []).append(run["side"])
    problems += [f"{key}: sides {found}" for key, found in sorted(sides.items())
                 if sorted(found) != ["change", "parent"]]
    if report["verdicts"] != judge(report["runs"], report["bounds"]):
        problems.append("the stored verdicts differ from those its runs give")
    return problems


def check(paths):
    failures = 0
    for path in paths:
        try:
            with open(path) as f:
                report = json.load(f)
            problems = check_report(report)
        except (OSError, ValueError, KeyError, TypeError) as err:
            problems = [f"unreadable: {err!r}"]
        failures += bool(problems)
        for problem in problems:
            print(f"FAIL {path}: {problem}")
        if not problems:
            counts = {}
            for v in report["verdicts"]:
                counts[v["verdict"]] = counts.get(v["verdict"], 0) + 1
            summary = ", ".join(f"{n} {name}" for name, n in sorted(counts.items()))
            print(f"ok   {path}: {len(report['runs'])} runs, {summary}")
    return 1 if failures else 0


def self_test(spec):
    """Verdicts of a built-in set of runs: one workload, ten pairs."""
    bounds = spec["end_to_end"]

    def runs_of(parent, change, sentinels=None, failed=(0.0, 0.0), metric="events_per_s"):
        runs = []
        for pair, (p, c) in enumerate(zip(parent, change)):
            sp, sc = sentinels[pair] if sentinels else (1000, 1000)
            for side, value, ns, share in (("parent", p, sp, failed[0]), ("change", c, sc, failed[1])):
                runs.append({"side": side, "workload": "w", "seed": 1, "pair": pair,
                             "sentinel_ns": ns, "failed_share": share, "correct": True,
                             "metrics": {metric: value}})
        return runs

    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    cases = [
        ("a clear gain", runs_of(steady, [v * 1.10 for v in steady]), "gain"),
        ("nine of ten is enough", runs_of(steady, [v * 1.10 for v in steady[:9]] + [90]), "gain"),
        ("eight of ten is not", runs_of(steady, [v * 1.10 for v in steady[:8]] + [90, 90]), "ok"),
        ("a win inside the parent's IQR", runs_of(steady, [v + 0.5 for v in steady]), "ok"),
        ("noise inside the bound", runs_of(steady, list(reversed(steady))), "ok"),
        ("a regression past the bound", runs_of(steady, [v * 0.6 for v in steady]), "worse"),
        ("wide runs", runs_of([60, 140] * 5, [100] * 10), "unresolved"),
        ("lower is better", runs_of(steady, [v * 0.8 for v in steady], metric="plan_ms"), "gain"),
    ]
    failures = 0
    for label, runs, expected in cases:
        got = [v for v in judge(runs, bounds) if v["metric"] != "failed_share"][0]["verdict"]
        ok = got == expected
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got} (expected {expected})")
    failed = judge(runs_of(steady, steady, failed=(0.0, 0.01)), bounds)
    ok = any(v["metric"] == "failed_share" and v["verdict"] == "worse" for v in failed)
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} a higher failed share is worse")
    host = runs_of(steady, [v * 0.9 for v in steady], sentinels=[(1000, 1200)] * 5 + [(1000, 1000)] * 5)
    flags = [v for v in judge(host, bounds) if v["metric"] == "events_per_s"][0]["host"]
    ok = flags == 5
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} pairs whose sentinel moved as much as the metric: {flags} (expected 5)")
    runs = runs_of(steady, [v * 1.10 for v in steady])
    report = {"parent": "p", "change": "c", "seeds": [1], "pairs": 10, "seconds": None,
              "bounds": bounds, "runs": runs, "verdicts": judge(runs, bounds)}
    tampered = [
        ("a stored verdict changed", lambda r: r["verdicts"][-1].update(verdict="ok")),
        ("a run's median changed", lambda r: r["runs"][1]["metrics"].update(events_per_s=1)),
        ("a run without its pair", lambda r: r["runs"].pop()),
        ("a run that was not correct", lambda r: r["runs"][0].update(correct=False)),
        ("a raw result kept", lambda r: r["runs"][0].update(result={})),
        ("no bounds", lambda r: r.pop("bounds")),
    ]
    ok = not check_report(json.loads(json.dumps(report)))
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} a stored report checks")
    for label, tamper in tampered:
        copy = json.loads(json.dumps(report))
        tamper(copy)
        ok = bool(check_report(copy))
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} --check refuses {label}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--seeds", default="42,777",
                        type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--symdiff", metavar="REGEX")
    parser.add_argument("--scratch", metavar="DIR")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--check", nargs="+", metavar="FILE")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    if args.self_test:
        return self_test(spec)
    if not args.parent:
        parser.error("PARENT_REV is required")
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
