"""Tests of the benchmark's own checkers and tracer.

    PYTHONPATH=src python3 -m pytest -q magicbench/tests
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import magicforge.cli
import magicforge.transfer
from checks import CHECKERS, CheckError, check_magic, check_optimize, check_spectrum
from spans import Tracer
from worker import prepare, run_ops, write_result
from workloads import WORKLOADS, build_ops

SMALL = {"ansatz1-spectrum": (4, 5), "ansatz2-magic": (3, 4), "optimize": (3,)}


def run_small(workload, tmp_path):
    ops = build_ops(workload, 7, 1, tmp_path, SMALL[workload])
    prepared = prepare(ops)
    _, oks, results = run_ops(ops, prepared)
    assert all(oks)
    for op in ops:
        write_result(op, results[op.index])
    return ops, prepared


def largest(ops):
    return next(op for op in ops if op.n == max(o.n for o in ops))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untouched_outputs_pass(workload, tmp_path):
    ops, _ = run_small(workload, tmp_path)
    for op in ops:
        assert CHECKERS[op.kind](op) >= 1.0


def test_flipped_csv_magnitude_is_rejected(tmp_path):
    op = largest(run_small("ansatz1-spectrum", tmp_path)[0])
    lines = op.output.read_text().splitlines(keepends=True)
    first = next(i for i, ln in enumerate(lines) if ln.startswith("x_bits"))
    # the last nonzero entry, rewritten with half its magnitude and a matching abs2
    k = max(i for i in range(first + 1, len(lines)) if float(lines[i].split(",")[4]) > 1e-6)
    x, z, re, im, _ = lines[k].rstrip("\n").split(",")
    re, im = float(re) / 2, float(im) / 2
    lines[k] = f"{x},{z},{re!r},{im!r},{re * re + im * im!r}\n"
    op.output.write_text("".join(lines))
    with pytest.raises(CheckError, match="deviates from the oracle"):
        check_spectrum(op)


def test_f_alpha_off_by_1e6_is_rejected(tmp_path):
    op = largest(run_small("ansatz2-magic", tmp_path)[0])
    payload = json.loads(op.output.read_text())
    payload["results"][1]["F_alpha"] += 1e-6
    op.output.write_text(json.dumps(payload))
    with pytest.raises(CheckError, match="F_3 = .*, oracle"):
        check_magic(op)


def test_f_after_above_f_before_is_rejected(tmp_path):
    op = run_small("optimize", tmp_path)[0][0]
    payload = json.loads(op.output.read_text())
    layer = payload["layers"][-1]
    layer["f_after"] = layer["f_before"] * (1 + 1e-9)
    op.output.write_text(json.dumps(payload))
    with pytest.raises(CheckError, match="above f_before"):
        check_optimize(op)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_identical_outputs(workload, tmp_path):
    plain, prepared = run_small(workload, tmp_path)
    traced_dir = tmp_path / "traced"
    traced_dir.mkdir()
    ops = [dataclasses.replace(op, output=traced_dir / op.output.name) for op in plain]
    originals = (magicforge.cli.run_command, magicforge.transfer.CliffordOp.heisenberg_table)
    tracer = Tracer()
    tracer.install()
    try:
        walls, oks, results = run_ops(ops, prepared, tracer)
    finally:
        tracer.uninstall()
    assert (magicforge.cli.run_command, magicforge.transfer.CliffordOp.heisenberg_table) == originals
    assert all(oks) and tracer.spans
    for op in ops:
        write_result(op, results[op.index])
    for a, b in zip(plain, ops):
        for fa, fb in zip(a.output_files(), b.output_files()):
            assert fa.read_bytes() == fb.read_bytes()
    totals = tracer.op_self_totals()
    assert all(totals[op.index] <= wall for op, wall in zip(ops, walls))
    assert all(t >= 0.0 for t in tracer.self_times())
