#!/usr/bin/env python3
"""Repeated same-build runs of the benchmark, summarised per metric.

Runs the command in BENCHMARK.json once per (round, workload), with a
distinct seed per round, and prints for every end-to-end metric of
every workload its median, quartiles and interquartile range as a
share of the median, beside the metric's bound. Workloads take turns
within a round, so a slow phase of the host is spread over all of
them rather than landing on one.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 \
        --out perfbench/out/steadiness.json

Run it from the repository root. Every run must report correct=true and
no failed ops; a run that does not is listed and counts as a failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, took, proc.stderr[-2000:]
    return json.loads(lines[-1]), took, proc.stderr[-2000:]


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in workloads if w in opts.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = []
    for r in range(opts.runs):
        seed = opts.first_seed + r
        for w in workloads:
            result, took, err = run_once(bench["command"], w, seed, seconds,
                                         opts.trace)
            ok = bool(result) and result["correct"] and result["failed"] == 0
            runs.append({"round": r, "workload": w, "seed": seed,
                         "wall_s": round(took, 1), "ok": ok,
                         "result": result})
            print(f"{w:>14} seed {seed:>5}: {took:5.1f}s ok={ok} " +
                  " ".join(f"{k}={v['value']:.5g}"
                           for k, v in (result or {}).get("metrics", {}).items()),
                  flush=True)
            if not ok:
                print(err, file=sys.stderr)

    summary = {}
    for w in workloads:
        mine = [x["result"] for x in runs if x["workload"] == w and x["result"]]
        names = mine[0]["metrics"].keys() if mine else []
        summary[w] = {}
        for name in names:
            values = [m["metrics"][name]["value"] for m in mine]
            s = summarise(values) if len(values) >= 2 else {"values": values}
            s["bound"] = bounds.get(name)
            summary[w][name] = s
            if "iqr_share" in s and s["bound"] is not None:
                print(f"{w:>14} {name:<14} median {s['median']:<12.6g} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"iqr/median {s['iqr_share']:.4f} bound {s['bound']}")

    report = {"run_seconds": seconds, "workload_order": workloads,
              "seeds": [opts.first_seed + r for r in range(opts.runs)],
              "failed_runs": [x for x in runs if not x["ok"]],
              "summary": summary,
              "runs": [{k: x[k] for k in ("round", "workload", "seed",
                                            "wall_s", "ok")} for x in runs]}
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if not report["failed_runs"] else 1


if __name__ == "__main__":
    sys.exit(main())
