"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]
                                [--out FILE]

Runs ``run.py`` once per (workload, seed), sequentially, with the
``run_seconds`` of BENCHMARK.json, and prints for every metric the median of
the runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
--out, the per-run values and the summary are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "min": min(values), "max": max(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / med if med else None
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write per-run values and the summary here")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    for name in workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "run_s": took, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed} ({took:.0f} s) correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed: {values}", flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        report["workloads"][name] = {"runs": runs, "metrics": metrics,
                                     "failed": sum(r["failed"] for r in runs),
                                     "attempted": sum(r["attempted"] for r in runs)}
        for k, s in metrics.items():
            spread = f"{s['spread']:.3f}" if s.get("spread") is not None else "-"
            print(f"  {name:<15} {k:<24} median {s['median']:.6g}  spread {spread}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
