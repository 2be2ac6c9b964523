"""Wall-clock benchmark of the ETUDE simulator, with virtual-clock guards.

Run from the root of a checkout (``src/repro`` must be there):

    python3 speedbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0
    python3 speedbench/run.py --workload all          # every workload, default settings

Workloads (see ``workloads.py``): ``serve-steady`` (the paper's default
serving run), ``serve-fleet`` (a tenant fleet with every per-request
feature that composes with it) and ``plan-platform`` (the Table I
Platform planner sweep). Each is a batch job: fixed inputs built from
``--seed``, work reported per wall second.

Every timed iteration runs in a fresh worker process (``worker.py``) with
the serial execution backend and one BLAS/OpenMP thread. ``--trace 0``
prints the end-to-end metrics:

- ``setup_s``: process start until the workload is ready to time
  (``import repro.cli``, infrastructure, the registry assets the run
  needs); median over the run's worker processes;
- ``wall_s``: wall time of one timed iteration, less the forced garbage
  collections; median over iterations;
- ``sim_req_per_s``: simulated client requests per wall second; median;
- ``peak_rss_mb``: peak resident memory of a timing worker; median.

``--trace 1`` runs one worker that times an untraced iteration, then
(serve-steady only) one with the program's ``Telemetry``, then one under
the benchmark's span tracer, and prints the per-layer metrics: self time
per layer boundary, counts, and ``obs.trace_overhead``. Spans are written
to ``.speedbench-out/``. Metrics of a layer a workload never enters
(for example ``sharding.scatter_s`` on serve-steady) read 0.

Each run's virtual outputs are fingerprinted and checked: every
iteration must reproduce the same fingerprint, the default seed must
match ``reference.json``, and conservation laws and layer-activity
guards must hold (``checks.py``). ``failed`` counts the simulated
requests of any iteration that misses a check; the run then reports
``"correct": false`` and exits 1. The last stdout line is the result JSON;
the line before it is the full record (per-iteration walls, fingerprints,
``failed_share``, and the host's nproc and Python/numpy/scipy versions).
A change that is meant to alter virtual outputs re-pins ``reference.json``
from the fingerprints of a seed-1 run and says why.

Before every ``ExperimentRunner.run`` the benchmark collects cyclic
garbage, so peak memory does not depend on when the collector happens to
run (without it, plan-platform's peak flips between one and two live
20M-item workloads from seed to seed). The collection is left out of
``wall_s`` and is its own ``bench.gc_s`` in the traced run. Because of
it, a change that only frees garbage sooner does not lower
``peak_rss_mb``.
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
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Nominal wall seconds of one iteration, to turn --seconds into a fixed
#: iteration count (a count that does not depend on measured speed).
NOMINAL_ITERATION_S = {"serve-steady": 1.6, "serve-fleet": 2.2, "plan-platform": 10.0}
#: Worker processes per untraced run; each yields one setup_s sample.
WORKERS = 3
#: Wall budget of one run; workers still running at the deadline are killed.
RUN_BUDGET_S = 170.0
OUT_DIR = ".speedbench-out"



def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ETUDE_BACKEND"] = "serial"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def plan_iterations(workload: str, seconds: float) -> list:
    """Iterations per worker: a fixed total spread evenly, 0 = set-up only."""
    total = max(1, int(seconds / NOMINAL_ITERATION_S[workload]))
    if total >= WORKERS:
        total = -(-total // WORKERS) * WORKERS
    return [total // WORKERS + (1 if i < total % WORKERS else 0) for i in range(WORKERS)]


def spawn(args: list, deadline: float) -> dict:
    """Run one worker to completion and return its record."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args,
               "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=worker_env())
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"failures": ["worker exceeded the run's time budget"], "iterations": []}
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"failures": [f"worker exited {proc.returncode} without a record"], "iterations": []}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> tuple:
    """Returns (result dict for the last line, full record)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    if trace:
        records = [spawn(common + ["--trace", "--out-dir", OUT_DIR], deadline)]
        metrics = dict(records[0].get("metrics", {}))
    else:
        records = [
            spawn(common + ["--iterations", str(n)], deadline)
            for n in plan_iterations(workload, seconds)
        ]
        iterations = [it for r in records for it in r.get("iterations", [])]
        metrics = {}
        if iterations:
            metrics = {
                "setup_s": statistics.median(r["setup_s"] for r in records if "setup_s" in r),
                "wall_s": statistics.median(it["wall_s"] for it in iterations),
                "sim_req_per_s": statistics.median(
                    it["requests"] / it["wall_s"] for it in iterations
                ),
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for r in records if r.get("iterations")
                ),
            }

    failures, attempted, failed = [], 0, 0
    fingerprints = set()
    for record in records:
        worker_failed = bool(record.get("failures"))
        failures += record.get("failures", [])
        iterations = record.get("iterations", [])
        requests = sum(it["requests"] for it in iterations) or (1 if worker_failed else 0)
        attempted += requests
        failed += requests if worker_failed else 0
        fingerprints |= {it["fingerprint"] for it in iterations}
    if len(fingerprints) > 1:
        failures.append(f"iterations disagree on the virtual outputs: {sorted(fingerprints)}")
    reference = load_reference().get(workload) if scale == "full" else None
    if seed == workloads.DEFAULT_SEED and reference is not None:
        if fingerprints != {reference}:
            failures.append(f"fingerprint {sorted(fingerprints)} != reference {reference}")
    if not metrics:
        failures.append("no metrics were measured")
    attempted = max(attempted, 1)
    if failures and not failed:
        failed = attempted  # a run-level miss fails every request of the run

    units = declared_units()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "failures": failures,
        "failed_share": result["failed"] / result["attempted"],
        "fingerprints": sorted(fingerprints),
        "host": next((r["host"] for r in records if "host" in r), None),
        "workers": [{k: v for k, v in r.items() if k not in ("metrics", "host")} for r in records],
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: shrunken inputs for the self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        sys.stderr.write("speedbench: run from a checkout root holding src/repro\n")
        return 2
    if not os.path.isfile("BENCHMARK.json"):
        sys.stderr.write("speedbench: BENCHMARK.json not found in the checkout root\n")
        return 2
    backend = os.environ.get("ETUDE_BACKEND", "serial").strip()
    if backend and backend.split(":")[0] != "serial":
        sys.stderr.write(f"speedbench: refusing to run under ETUDE_BACKEND={backend}\n")
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
        for metric, entry in result["metrics"].items():
            print(f"{name:<14} {metric:<38} {entry['value']:>16.6g} {entry['unit']}")
        for failure in record["failures"]:
            print(f"{name:<14} FAILED: {failure}")
        print(json.dumps({"record": record}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
