"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 speedbench/spread.py --workload serve-fleet --seeds 1-10

Runs ``run.py`` once per seed (from the checkout root) and prints, per
metric, the median and the quartile spread ``(Q3 - Q1) / median`` as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", default=None)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or str(spec["run_seconds"])
    values: dict = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, check=False,
        ).stdout.decode().strip().splitlines()
        result = json.loads(out[-1])
        ok &= result["correct"]
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<16} median {median:<12.6g} spread {spread:.4f} bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
