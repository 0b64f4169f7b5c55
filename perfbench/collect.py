#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and summarize their spread.

    python3 perfbench/collect.py --workloads explore flow --seeds 1-10 \\
        --seconds 20 --out perfbench/baseline.json

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one after
another, and prints for each end-to-end metric the median, the quartiles
(``statistics.quantiles`` with n=4) and the quartile spread as a share of
the median, and the same for the machine speed and the unscaled
wall-clock figures of the run records.  With ``--out`` it writes the same summary, with every run's
metrics and run record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD_KEYS = ("machine_speed", "wall_ops_per_s", "wall_op_p50_ms")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["explore", "roundtrip", "factor", "flow"])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            record, result = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "record": record, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        names = list(runs[0]["result"]["metrics"])
        stats = {name: spread([r["result"]["metrics"][name]["value"]
                               for r in runs]) for name in names}
        # unscaled figures and the machine speed, from the run records
        stats.update({f"record.{key}": spread([r["record"][key]
                                              for r in runs])
                      for key in RECORD_KEYS})
        summary["workloads"][workload] = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": stats, "runs": runs}
        for name, s in stats.items():
            share = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:10s} {name:40s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {share}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
