#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads pipeline-k8,search-k4 --seeds 0-9 \
        --out .bench_build/perfbench/sweep-a.json [--compare .bench_build/perfbench/sweep-b.json]

Runs ``run.py`` once per (workload, seed), one process at a time, with the
``run_seconds`` of BENCHMARK.json. For each metric it reports the median of
the runs and the quartile spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound; a spread
under a third of the bound is marked steady. Every spread but that of
``setup_s`` must stay within its bound. With ``--compare`` it also
checks, against an earlier sweep, that artifact digests are identical seed
by seed and that no median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0,
            "n": len(values)}


def summarise(runs: dict, bounds: dict) -> dict:
    out = {}
    for workload, by_seed in runs.items():
        names = list(next(iter(by_seed.values()))["result"]["metrics"])
        out[workload] = {}
        for name in names:
            stats = spread([r["result"]["metrics"][name]["value"] for r in by_seed.values()])
            if name in bounds:
                stats["bound"] = bounds[name]
                stats["steady"] = stats["spread"] < bounds[name] / 3
            out[workload][name] = stats
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file for every run and the summary")
    parser.add_argument("--compare", help="an earlier --out file of the same seeds")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = {}
        for seed in parse_seeds(args.seeds):
            run = run_one(workload, seed, seconds, args.trace)
            runs[workload][str(seed)] = run
            res = run["result"]
            ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                             if k in bounds or args.trace), flush=True)

    summary = summarise(runs, bounds)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            if args.trace and name not in bounds:
                continue
            flag = "" if s.get("steady", True) else "  <-- spread over a third of the bound"
            if name != "setup_s":
                ok &= s["spread"] <= s.get("bound", float("inf"))
            print(f"{workload:12s} {name:22s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {s.get('bound', '-')}{flag}")

    if args.compare:
        before = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        for workload, by_seed in runs.items():
            for seed, run in by_seed.items():
                old = before["runs"].get(workload, {}).get(seed)
                if old and old["detail"]["digests"] != run["detail"]["digests"]:
                    ok = False
                    print(f"DIGESTS DIFFER: {workload} seed {seed}")
            for name, s in summary[workload].items():
                old = before["summary"].get(workload, {}).get(name)
                if not old or name not in bounds:
                    continue
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                change = (s["median"] - old["median"]) / abs(old["median"])
                worse = change > bounds[name] if better == "lower" else -change > bounds[name]
                ok &= not worse
                print(f"{workload:12s} {name:22s} median {old['median']:.6g} -> {s['median']:.6g} "
                      f"({change:+.2%}){'  <-- worse than its bound' if worse else ''}")

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"seconds": seconds, "runs": runs, "summary": summary}, indent=1) + "\n")
    print("all runs correct and within bounds" if ok else "SOME RUNS FAILED OR SPREAD OVER A BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
