"""Spans around calls into magicforge's public functions, for the traced run.

The tracer replaces each function at the module attribute its caller looks
it up by (for example ``magicforge.cli.shallow_spectrum``, or the method
``magicforge.transfer.CliffordOp.heisenberg_table``) with a wrapper that
records a span: name, start, end, parent span and operation id.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children never
overlap.  ``uninstall`` restores every original attribute.

Span names are the ROADMAP stage names, plus ``cli`` and ``pipeline`` for the
two entry points, ``format`` for CSV row building, ``functionals`` for the
magic functionals, ``initial_spectrum`` and ``oracle_state``.  The span of
``apply_block`` is ``rotation_mixing``: with the Heisenberg table as a child
span, its self time is the permutation, the rotation mixing and the output
validation.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import magicforge.cli
import magicforge.optimizer
import magicforge.stabilizer
import magicforge.transfer

# (owner, attribute, span name)
WRAPPED = [
    (magicforge.cli, "run_command", "cli"),
    (magicforge.cli, "spectrum_csv_rows", "format"),
    (magicforge.cli, "canonicalize", "canonicalize"),
    (magicforge.stabilizer, "canonicalize", "canonicalize"),
    (magicforge.cli, "shallow_spectrum", "shallow_spectrum"),
    (magicforge.cli, "f_alpha", "functionals"),
    (magicforge.cli, "sre", "functionals"),
    (magicforge.cli, "nullity", "functionals"),
    (magicforge.cli, "support_size", "functionals"),
    (magicforge.optimizer, "f_alpha", "functionals"),
    (magicforge.transfer.CliffordOp, "heisenberg_table", "heisenberg_table"),
    (magicforge.cli, "apply_block", "rotation_mixing"),
    (magicforge.optimizer, "apply_block", "rotation_mixing"),
    (magicforge.cli, "initial_spectrum", "initial_spectrum"),
    (magicforge.transfer, "initial_spectrum", "initial_spectrum"),
    (magicforge.optimizer, "run_pipeline", "pipeline"),
    (magicforge.optimizer, "optimize_layer", "descent"),
    (magicforge.optimizer, "precondition_clifford", "precondition"),
    (magicforge.cli, "statevector", "oracle_state"),
    (magicforge.cli, "apply_gates", "oracle_state"),
    (magicforge.cli, "apply_rotation", "oracle_state"),
    (magicforge.cli, "apply_diagonal", "oracle_state"),
    (magicforge.cli, "oracle_spectrum", "oracle"),
]

# per-layer metric -> span whose self time it reports
SELF_TIME_METRICS = {
    "cli.self_ms": "cli",
    "cli.format_ms": "format",
    "stabilizer.canonicalize_ms": "canonicalize",
    "spectrum.shallow_ms": "shallow_spectrum",
    "spectrum.functionals_ms": "functionals",
    "transfer.heisenberg_ms": "heisenberg_table",
    "transfer.apply_block_ms": "rotation_mixing",
    "transfer.initial_spectrum_ms": "initial_spectrum",
    "optimizer.descent_ms": "descent",
    "optimizer.precondition_ms": "precondition",
    "oracle.state_ms": "oracle_state",
    "oracle.spectrum_ms": "oracle",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, parent: int, op: int) -> None:
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.counts}


def _counts(name: str, args: tuple, seen: dict) -> dict[str, int]:
    """Work counts read from the call's arguments."""
    if name == "shallow_spectrum":
        c = args[0]
        return {"phase_evals": 4 ** (c.n - c.r)}
    if name == "heisenberg_table":
        cliff = args[0]
        # CliffordOp caches its table on the instance: only the first
        # request per instance builds one.
        if id(cliff) in seen:
            return {}
        seen[id(cliff)] = cliff
        return {"tables": 1, "gates": len(cliff.gates), "labels": 4 ** cliff.n}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._seen: dict[int, object] = {}
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self, index: int) -> None:
        self.op = index
        self._seen = {}

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else -1, tracer.op)
            span.counts = _counts(name, args, tracer._seen)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, in span order."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def stage_seconds(self) -> float:
        """Time inside spans below the entry point, i.e. attributed to a stage."""
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.parent >= 0)

    def op_self_totals(self) -> dict[int, float]:
        """Sum of span self times per operation (the root span's duration)."""
        totals: dict[int, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            totals[s.op] += t
        return totals

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation means of self times (ms) and counts, plus ratios."""
        self_ms: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        pool = 0
        for s, t in zip(self.spans, self.self_times()):
            self_ms[s.name] += 1e3 * t
            for key, value in s.counts.items():
                counts[key] += value
            if s.name == "heisenberg_table" and s.parent >= 0 \
                    and self.spans[s.parent].name == "precondition":
                pool += 1
        out = {metric: self_ms[name] / n_ops for metric, name in SELF_TIME_METRICS.items()}
        out["spectrum.phase_evals"] = counts["phase_evals"] / n_ops
        out["spectrum.ns_per_phase_eval"] = _ratio(1e6 * self_ms["shallow_spectrum"],
                                                   counts["phase_evals"])
        out["transfer.heisenberg_calls"] = counts["tables"] / n_ops
        out["transfer.clifford_gates"] = counts["gates"] / n_ops
        out["transfer.heisenberg_ns_per_label"] = _ratio(1e6 * self_ms["heisenberg_table"],
                                                         counts["labels"])
        out["optimizer.pool_candidates"] = pool / n_ops
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
