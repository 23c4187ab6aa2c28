#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per end-to-end metric,
the median and the quartile distance as a share of the median (the
spread statistics.quantiles(values, n=4) gives).

    python3 perfbench/spread.py --workload sched-dynamic --seeds 1-10 \
        --seconds 45
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import omvbench as ob  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, check=True).stdout
        res = json.loads(out.splitlines()[-1])
        print(f"seed {seed} ({time.perf_counter() - t0:.1f} s): "
              f"correct={res['correct']} "
              + " ".join(f"{k}={m['value']:.6g}"
                         for k, m in res["metrics"].items()), flush=True)
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        spread = ob.iqr_share(vs) if len(vs) > 1 and med else 0.0
        print(f"{k:<24} median {med:.6g}  IQR/median "
              f"{spread:.4f}  min {min(vs):.6g}  max {max(vs):.6g}")


if __name__ == "__main__":
    main()
