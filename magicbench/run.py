"""Benchmark of magicforge's three exact paths; prints one JSON result line.

    python3 magicbench/run.py --workload ansatz1-spectrum --seed 1 --seconds 20 --trace 0

Run from a checkout that holds ``src/magicforge``.  The workload runs in its
own single-threaded process (worker.py); four more processes only do the
set-up, so that ``setup_s`` is the median of five.  With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a run whose calls into magicforge are wrapped in spans.  ``correct`` is
false when any output fails its checks.  Exits 2, printing no result, when
the source tree or the workload is missing.  Workload names and metric units
come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MAGICFORGE_THREADS", None)
    # Multithreaded OpenBLAS stalls the oracle's matrix products now and then
    # (README, "Threads"); every benchmark process uses one thread.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(SOURCE))
    return env


def start_child(args, run_dir: Path, setup_only: bool) -> tuple[float, dict]:
    """Run worker.py; returns (its set-up seconds from process start, its result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--dir", str(run_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv + (["--setup-only"] if setup_only else []), env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def end_to_end(walls: list[float], completed: int, setup: list[float], result: dict) -> dict:
    ratios = result["f_ratios"]
    return {
        "ops_per_s": completed / sum(walls),
        "latency_ms_p50": 1e3 * statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "f_over_floor": statistics.fmean(ratios) if ratios else 0.0,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {workloads}\n")
        return 2
    if not (SOURCE / "magicforge" / "__init__.py").is_file():
        sys.stderr.write(f"no magicforge source under {SOURCE}; run from a repository checkout\n")
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            shutil.rmtree(run_dir, ignore_errors=True)
            setup.append(start_child(args, run_dir, setup_only=True)[0])
        shutil.rmtree(run_dir, ignore_errors=True)
        ready_s, result = start_child(args, run_dir, setup_only=False)
        setup.append(ready_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for err in result["errors"]:
        sys.stderr.write(err + "\n")
    walls = result["walls"]
    failed = result["failed"]
    if args.trace:
        values = result["layers"]
        sys.stderr.write(f"stage share of op wall time: {result['stage_share']:.4f}\n")
    else:
        values = end_to_end(walls, len(walls) - failed, setup, result)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": not result["errors"], "attempted": len(walls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
