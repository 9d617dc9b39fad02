"""One workload in one process: set up, run every operation, check every output.

Started by run.py with OpenBLAS held to one thread.  Prints one JSON line:
the moment set-up ended (``time.perf_counter``, which is CLOCK_MONOTONIC and
so comparable with the parent's clock), per-operation wall times, failures,
peak RSS, each output's F_2 / flat_bound, check errors and, when traced, the
per-layer metrics.  With ``--setup-only`` it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import magicforge.cli
import magicforge.optimizer
from magicforge.optimizer import OptimizerConfig
from magicforge.stabilizer import StabilizerTableau

from checks import CHECKERS, CheckError, pipeline_json
from spans import Tracer
from workloads import OPT_LAYERS, WORKLOADS, build_ops, rounds_for


def prepare(ops) -> dict:
    """Parsed tableau and config of each optimize operation."""
    return {op.index: (StabilizerTableau.from_json(json.loads(op.input.read_text())),
                       OptimizerConfig(**op.config))
            for op in ops if op.kind == "optimize"}


def run_op(op, prepared: dict, output: Path | None = None):
    """Call magicforge the way a user does; returns (ok, pipeline results)."""
    if op.kind == "optimize":
        tab, config = prepared[op.index]
        return True, magicforge.optimizer.run_pipeline(tab, OPT_LAYERS, config)
    return magicforge.cli.run_command(op.argv(output)) == 0, None


def write_result(op, results, output: Path | None = None) -> None:
    if results is not None:
        Path(output or op.output).write_text(pipeline_json(op, results))


def run_ops(ops, prepared: dict, tracer: Tracer | None = None):
    """The timed loop: per-op wall seconds, ok flags and pipeline results."""
    walls, oks, results = [], [], {}
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.index)
        t0 = time.perf_counter()
        try:
            ok, res = run_op(op, prepared)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, res = False, None
        walls.append(time.perf_counter() - t0)
        oks.append(ok)
        results[op.index] = res
    return walls, oks, results


def rerun_matches(op, prepared: dict) -> bool:
    """Run one operation again into a second file and compare the bytes."""
    again = op.output.with_name("rerun-" + op.output.name)
    ok, res = run_op(op, prepared, again)
    write_result(op, res, again)
    first, second = op.output_files(), op.output_files(again)
    return ok and all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    ops = build_ops(args.workload, args.seed, rounds_for(args.workload, args.seconds), args.dir)
    prepared = prepare(ops)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    walls, oks, results = run_ops(ops, prepared, tracer)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op in ops:
        write_result(op, results[op.index])
    errors, f_ratios = check_outputs(ops, oks, prepared)
    out = {"ready": ready, "walls": walls, "failed": oks.count(False),
           "peak_rss_mb": peak_rss_mb, "f_ratios": f_ratios, "errors": errors}
    if tracer is not None:
        totals = tracer.op_self_totals()
        over = [op.index for op, wall in zip(ops, walls) if totals.get(op.index, 0.0) > wall]
        if over:
            errors.append(f"span self times exceed wall time on ops {over}")
        out["layers"] = layer_metrics(tracer, ops, oks, results)
        out["stage_share"] = tracer.stage_seconds() / sum(walls)
        write_trace(tracer, ops, walls, args.dir.parent / f"trace-{args.dir.name}.jsonl")
    print(json.dumps(out))
    return 0


def check_outputs(ops, oks, prepared: dict) -> tuple[list[str], list[float]]:
    """Check every completed output, then re-run one operation at the median n."""
    errors, f_ratios = [], []
    for op, ok in zip(ops, oks):
        if not ok:
            continue
        try:
            f_ratios.append(CHECKERS[op.kind](op))
        except (CheckError, OSError, ValueError, KeyError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    mid_n = sorted(op.n for op in ops)[len(ops) // 2]
    middle = [op for op, ok in zip(ops, oks) if ok and op.n == mid_n]
    if middle and not rerun_matches(middle[0], prepared):
        errors.append(f"op {middle[0].index}: re-run output differs")
    return errors, f_ratios


def layer_metrics(tracer: Tracer, ops, oks, results: dict) -> dict[str, float]:
    """The tracer's per-layer metrics plus those read from outputs and results."""
    layers = tracer.layer_metrics(len(ops))
    layers["cli.output_bytes"] = sum(
        f.stat().st_size for op, ok in zip(ops, oks) if ok and op.kind != "optimize"
        for f in op.output_files()) / len(ops)
    iterations = sum(r.iterations for res in results.values() if res for r in res)
    layers["optimizer.iterations"] = iterations / len(ops)
    layers["optimizer.ms_per_iteration"] = (
        layers["optimizer.descent_ms"] * len(ops) / iterations if iterations else 0.0)
    return layers


def write_trace(tracer: Tracer, ops, walls: list[float], path: Path) -> None:
    """One line per operation (op, n, kind, wall), then one line per span."""
    with path.open("w") as fh:
        for op, wall in zip(ops, walls):
            fh.write(json.dumps({"op": op.index, "n": op.n, "kind": op.kind, "wall": wall}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span.to_json()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
