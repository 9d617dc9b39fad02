"""Seeded operation lists for the three benchmark workloads.

A workload is a list of whole rounds.  One round holds one operation per
qubit count (and, on ``optimize``, per starting state), so every qubit count
gets the same number of operations and the median latency falls inside the
middle size class.  Round ``r`` at qubit count ``n`` draws its inputs from
``numpy.random.default_rng([seed, workload, r, n, ...])``: the same seed always
gives the same inputs, and the list never depends on elapsed time.

Everything here runs during set-up and is counted in ``setup_s``: building
the inputs and writing them as JSON files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from magicforge.stabilizer import random_stabilizer
from magicforge.transfer import random_clifford

QUBITS = {
    "ansatz1-spectrum": (4, 5, 6, 7, 8),
    "ansatz2-magic": (4, 5, 6, 7, 8),
    "optimize": (4, 5, 6),
}
WORKLOADS = tuple(QUBITS)

# Wall seconds of one round, measured on the reference machine (README).
# A run of ``--seconds S`` executes round(S / ROUND_SECONDS) whole rounds, at
# least one; the count depends on S only, never on how long a round took.
ROUND_SECONDS = {
    "ansatz1-spectrum": 2.55,
    "ansatz2-magic": 2.5,
    "optimize": 6.1,
}

# (m, weight) of the four terms c / 2^m * prod(b_j, j in mask) of a gate at
# each hierarchy level (m - 1) + weight: for level 3 a CCZ, a CS, a T and an
# S.  A fixed shape set keeps the closed form's cost the same for every gate
# of one level.
GATE_SHAPES = {
    2: ((1, 2), (2, 1), (2, 1), (1, 1)),
    3: ((1, 3), (2, 2), (3, 1), (2, 1)),
    4: ((1, 4), (2, 3), (3, 2), (4, 1)),
}
# One level per qubit count, so that all operations of one size cost the same.
# Level 4 at the largest sizes: level-3 gates at n = 8 give F_2 / flat_bound
# anywhere from 14 to 54, which made f_over_floor swing 15 % between seeds.
GATE_LEVEL = {4: 2, 5: 3, 6: 3, 7: 4, 8: 4}
ALPHAS = (2, 3)
OPT_LAYERS = 2
OPT_STARTS = ("plus", "graph", "stabilizer")
# Reduced from OptimizerConfig's defaults (16 restarts, 500 iterations, a
# 64-Clifford pool), which take 91 s for one n = 6 pipeline.  The per-op
# ``seed`` field is drawn from the workload seed.
OPT_CONFIG = {"alpha": 2, "restarts": 1, "max_iters": 8, "step": 0.05,
              "tol": 1e-10, "clifford_pool": 4}


@dataclass
class Op:
    """One operation: its input file, where it writes, and how it is called."""

    index: int
    kind: str  # "spectrum", "magic" or "optimize"
    n: int
    input: Path
    output: Path
    config: dict = field(default_factory=dict)

    def argv(self, output: Path | None = None) -> list[str]:
        out = str(output or self.output)
        if self.kind == "spectrum":
            return ["spectrum", str(self.input), "-o", out]
        return ["magic", str(self.input), "--alpha", *map(str, ALPHAS), "-o", out]

    def output_files(self, output: Path | None = None) -> list[Path]:
        out = Path(output or self.output)
        if self.kind == "spectrum":
            return [out, Path(str(out) + ".oracle.csv")]
        return [out]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _bits(mask: int, n: int) -> str:
    """Mask as a bit string with qubit 1 leftmost."""
    return format(mask, f"0{n}b")[::-1]


def _random_mask(n: int, weight: int, rng: np.random.Generator) -> int:
    return sum(1 << int(q) for q in rng.choice(n, size=weight, replace=False))


def graph_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Each of the n(n-1)/2 pairs is an edge with probability 1/2."""
    return [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]


def graph_tableau_json(n: int, edges: list[tuple[int, int]]) -> dict:
    """Generators X_i Z_N(i) of the graph state, qubit 1 leftmost."""
    rows = [["I"] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = "X"
    for a, b in edges:
        rows[a][b] = "Z"
        rows[b][a] = "Z"
    return {"n": n, "generators": ["+" + "".join(row) for row in rows]}


def phase_gate_json(n: int, level: int, rng: np.random.Generator) -> dict:
    """Four monomials of the shapes GATE_SHAPES[level] on distinct random masks,
    with random odd numerators, so every term stays in the canonical form and
    the gate's hierarchy level is ``level``."""
    terms: dict[int, tuple[int, int]] = {}
    for m, w in GATE_SHAPES[level]:
        mask = _random_mask(n, w, rng)
        while mask in terms:
            mask = _random_mask(n, w, rng)
        terms[mask] = (m, 2 * int(rng.integers(1 << (m - 1))) + 1)
    return {"terms": [{"m": m, "a": _bits(a, n), "c": c} for a, (m, c) in terms.items()]}


def _write(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def _ansatz1(seed: int, r: int, n: int) -> dict:
    """Random graph state, then one phase polynomial of level GATE_LEVEL[n]."""
    rng = np.random.default_rng([seed, 1, r, n])
    edges = graph_edges(n, rng)
    return {"n": n, "layers": [{"clifford": [["CZ", a, b] for a, b in edges]},
                               {"gate": phase_gate_json(n, GATE_LEVEL[n], rng)}]}


def _ansatz2(seed: int, r: int, n: int) -> dict:
    """|+...+> through blocks of a random Clifford at random_clifford's default
    length and a continuous Z-rotation layer: 2 blocks at n = 4 and 3 above,
    so that all operations of one size cost the same.  With fewer blocks the
    outputs stay close to stabilizer states often enough to make the mean
    F_2 / flat_bound swing by 15 % between seeds."""
    rng = np.random.default_rng([seed, 2, r, n])
    layers = []
    for _ in range(2 if n == 4 else 3):
        layers.append({"clifford": [list(g) for g in random_clifford(n, rng).gates]})
        layers.append({"sqr": {"w": [float(v) for v in rng.uniform(0.0, 1.0, n)]}})
    return {"n": n, "layers": layers}


def _start_tableau(seed: int, r: int, n: int, k: int) -> tuple[dict, int]:
    rng = np.random.default_rng([seed, 3, r, n, k])
    start = OPT_STARTS[k]
    if start == "plus":
        tab = graph_tableau_json(n, [])
    elif start == "graph":
        tab = graph_tableau_json(n, graph_edges(n, rng))
    else:
        tab = random_stabilizer(n, int(rng.integers(1 << 30))).to_json()
    return tab, int(rng.integers(1 << 30))


def build_ops(workload: str, seed: int, rounds: int, directory: Path,
              qubits: tuple[int, ...] | None = None) -> list[Op]:
    """Generate every input of the run and write it under ``directory``."""
    inputs, outputs = directory / "inputs", directory / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    for r in range(rounds):
        for n in qubits or QUBITS[workload]:
            if workload == "optimize":
                for k in range(len(OPT_STARTS)):
                    tab, op_seed = _start_tableau(seed, r, n, k)
                    i = len(ops)
                    _write(inputs / f"op{i:04d}.json", tab)
                    ops.append(Op(i, "optimize", n, inputs / f"op{i:04d}.json",
                                  outputs / f"op{i:04d}.json", {**OPT_CONFIG, "seed": op_seed}))
                continue
            i = len(ops)
            if workload == "ansatz1-spectrum":
                circuit, kind, suffix = _ansatz1(seed, r, n), "spectrum", "csv"
            else:
                circuit, kind, suffix = _ansatz2(seed, r, n), "magic", "json"
            _write(inputs / f"op{i:04d}.json", circuit)
            ops.append(Op(i, kind, n, inputs / f"op{i:04d}.json", outputs / f"op{i:04d}.{suffix}"))
    return ops
