"""Angle optimization of the magic functional over one rotation layer.

The objective is f(w) = F_alpha of the spectrum after applying a rotation
layer with angles w (in turns) to the current real signed spectrum; the
Clifford part of a block is applied beforehand, so optimization always runs
over R^n angles only.  The layer is `transfer.rotate_layer`, the same kernel
`apply_block` uses.  Its derivative in w_j is 2 pi times a quarter turn of
the output pair (p, q) on qubit j (see `transfer.xy_pair`), so one forward
pass gives all n partials:

    df/dw_j = 4 pi alpha * sum over x_j = 1 of p q (q^(2 alpha - 2) - p^(2 alpha - 2)).

F_alpha and each partial are compensated sums (math.fsum).  Because the
objective and the transfer share the kernel, their agreement is no
cross-check; the tests compare both against the submask-sum reference in
tests/helpers.py and against the dense oracle.

Plain gradient descent with an adaptive step: halve on increase (move
rejected), grow 1.1x on decrease.  Each descent carries its point as (w,
rotated vector, F) and reads the gradient off that vector: one
`rotate_layer` per trial point.  A descent stops where its gradient is
exactly zero (such as w = 0 on a stabilizer state), since every trial point
would be w itself.  Restarts are uniform in [0,1)^n and the w = 0 candidate
is always included, so the reported minimum never exceeds the input F_alpha.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, ValidationError
from .diagonal_gates import RotationVector
from .spectrum import PauliSpectrum, f_alpha
from .transfer import (
    CliffordOp,
    LayerBlock,
    _CLIFFORD_GATES,
    _fold,
    _fwht,
    _inverse_gates,
    apply_block,
    rotate_layer,
    xy_pair,
)

if TYPE_CHECKING:
    from .stabilizer import StabilizerTableau

MAX_GRID_QUBITS = 2


@dataclass(frozen=True)
class OptimizerConfig:
    alpha: int = 2
    restarts: int = 16
    max_iters: int = 500
    step: float = 0.05
    tol: float = 1e-10
    clifford_pool: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.alpha) != self.alpha or self.alpha < 2:
            raise ValidationError(f"alpha must be an integer >= 2, got {self.alpha!r}")
        if self.restarts < 0 or self.max_iters < 1 or self.clifford_pool < 0 or self.seed < 0:
            raise ValidationError("restarts/max_iters/clifford_pool/seed out of range")
        if not (0 < self.step < math.inf and 0 < self.tol < math.inf):
            raise ValidationError("step and tol must be positive and finite")


def _evaluate(s: PauliSpectrum, w, alpha: int):
    """(mixed, F): the spectrum after the rotation layer w and its F_alpha."""
    angles = np.asarray(w, dtype=np.float64)
    if angles.shape != (s.n,):
        raise ValidationError(f"angle vector has shape {angles.shape}, expected ({s.n},)")
    mixed = rotate_layer(s.values, angles)
    return mixed, math.fsum((mixed ** (2 * int(alpha))).tolist())


def _gradient(mixed: np.ndarray, n: int, alpha: int) -> np.ndarray:
    """Gradient in w read off the rotated vector ``mixed`` (quarter-turn formula)."""
    power = 2 * int(alpha)
    grad = np.empty(n, dtype=np.float64)
    for j in range(n):
        p, q = xy_pair(mixed, n, j)
        terms = p * q * (q ** (power - 2) - p ** (power - 2))
        grad[j] = 4.0 * np.pi * alpha * math.fsum(terms.ravel().tolist())
    return grad


def objective(s: PauliSpectrum, w, alpha: int = 2) -> float:
    """F_alpha after a rotation layer with angles w (turns) on spectrum s."""
    return _evaluate(s, w, alpha)[1]


def objective_grad(s: PauliSpectrum, w, alpha: int = 2) -> np.ndarray:
    """Analytic gradient of the objective with respect to the angles."""
    return _gradient(_evaluate(s, w, alpha)[0], s.n, alpha)


def _descend(s: PauliSpectrum, w0: np.ndarray, config: OptimizerConfig):
    w = np.asarray(w0, dtype=np.float64).copy()
    mixed, f = _evaluate(s, w, config.alpha)
    grad = None  # gradient at w; kept through rejected steps, since w has not moved
    step = config.step
    iters = 0
    for _ in range(config.max_iters):
        if grad is None:
            grad = _gradient(mixed, s.n, config.alpha)
            if not grad.any():
                break  # stationary: every trial point would be w itself
        iters += 1
        w_try = w - step * grad
        mixed_try, f_try = _evaluate(s, w_try, config.alpha)
        if f_try < f:
            drop = f - f_try
            w, mixed, f, grad = w_try, mixed_try, f_try, None
            step *= 1.1
            if drop < config.tol:
                break
        else:
            step *= 0.5
            if step < 1e-15:
                break
    return w % 1.0, f, iters


def _optimize_angles_full(s: PauliSpectrum, config: OptimizerConfig, stream=(0,)):
    rng = np.random.default_rng([config.seed, *stream])
    starts = [np.zeros(s.n)]
    starts += [rng.uniform(0.0, 1.0, s.n) for _ in range(config.restarts)]
    best_w, best_f, total = None, np.inf, 0
    for w0 in starts:
        w, f, iters = _descend(s, w0, config)
        total += iters
        if f < best_f:
            best_w, best_f = w, f
    return best_w, best_f, total


def optimize_angles(s: PauliSpectrum, config: OptimizerConfig = OptimizerConfig()):
    """Best angles for one rotation layer: (w_star, f_star)."""
    w, f, _ = _optimize_angles_full(s, config)
    return w, f


def _pool_gates(n: int, count: int, rng: np.random.Generator) -> list[tuple[tuple, ...]]:
    """``count`` gate strings drawn in bulk with `transfer.random_clifford`'s
    default distribution: 3n^2 + 2n gates, each with probability 1/2 (if
    n > 1) a CX or CZ on a uniform ordered pair of distinct qubits, and
    otherwise H, S, X or Z on a uniform qubit."""
    shape = (count, 3 * n * n + 2 * n)
    two = rng.random(shape) < 0.5 if n > 1 else np.zeros(shape, dtype=bool)
    code = rng.integers(4, size=shape)  # index into _CLIFFORD_GATES
    code[two] = 4 + (code[two] & 1)
    a = rng.integers(n, size=shape)
    b = (a + 1 + rng.integers(max(n - 1, 1), size=shape)) % n  # uniform over b != a
    return [
        tuple((_CLIFFORD_GATES[k], p, q) if k >= 4 else (_CLIFFORD_GATES[k], p)
              for k, p, q in zip(ks, ps, qs))
        for ks, ps, qs in zip(code.tolist(), a.tolist(), b.tolist())
    ]


def _axis_scores(s: PauliSpectrum) -> np.ndarray:
    """s(P) = (sum g - WHT(g)) / 2 for every axis P(x, z), at label z << n | x."""
    g = (s.values ** 2 - 2.0 ** (-s.n)) ** 2
    walsh = g.reshape(-1, 1).copy()
    _fwht(walsh)
    return (g.sum() - walsh[:, 0]) / 2


def _pool_score(axis_scores: np.ndarray, n: int, gates: tuple[tuple, ...]) -> float:
    """Sum of s(P_j) over the axes P_j = C^dagger Z_j C of the gate string C."""
    axes = _fold(n, [(0, 1 << j, 0) for j in range(n)], _inverse_gates(gates))
    return sum(axis_scores[(z << n) | x] for x, z, _ in axes)


def precondition_clifford(s: PauliSpectrum, config: OptimizerConfig = OptimizerConfig(),
                          stream=(0,)) -> CliffordOp:
    """Pick the pool Clifford C that best exposes non-uniform weight to mixing.

    With g(q) = (a(q)^2 - 2^-n)^2, C scores s(P_1) + ... + s(P_n) over its
    rotation axes P_j = C^dagger Z_j C, where s(P) is the g weight on the
    labels that anticommute with P.  One Walsh-Hadamard transform gives s
    for every axis, and each candidate folds only its n Z generators
    (O(gates n) integer work), so no candidate builds a Heisenberg table.
    The identity is candidate 0, then ``clifford_pool`` strings from
    `_pool_gates`; ties keep the earliest candidate, and only the winner
    becomes a `CliffordOp`.
    """
    n = s.n
    rng = np.random.default_rng([config.seed, 1, *stream])
    axis_scores = _axis_scores(s)
    best, best_score = (), -np.inf
    for gates in [()] + _pool_gates(n, config.clifford_pool, rng):
        score = _pool_score(axis_scores, n, gates)
        if score > best_score + 1e-15:
            best, best_score = gates, score
    return CliffordOp(n, best)


@dataclass(frozen=True)
class LayerResult:
    """One optimized block and its before/after bookkeeping."""

    block: LayerBlock
    f_before: float
    f_after: float
    spectrum_after: PauliSpectrum
    iterations: int


def optimize_layer(s: PauliSpectrum, config: OptimizerConfig = OptimizerConfig(),
                   layer_index: int = 0) -> LayerResult:
    """Precondition with a Clifford, then optimize the rotation angles."""
    f_before = f_alpha(s, config.alpha)  # in a pipeline, the last layer's memoised f_direct
    cliff = precondition_clifford(s, config, stream=(layer_index,))
    s_mid = apply_block(s, LayerBlock(s.n, cliff, None))
    w, f_star, iters = _optimize_angles_full(s_mid, config, stream=(layer_index,))
    block = LayerBlock(s.n, cliff, RotationVector.continuous(w))
    s_after = apply_block(s_mid, LayerBlock(s.n, None, block.w))
    f_direct = f_alpha(s_after, config.alpha)  # summed afresh: the check on f_star
    if abs(f_direct - f_star) > 1e-9:
        raise RuntimeError(
            f"objective ({f_star!r}) and transfer ({f_direct!r}) disagree past 1e-9"
        )
    return LayerResult(block, f_before, f_direct, s_after, iters)


def run_pipeline(t: "StabilizerTableau", n_layers: int,
                 config: OptimizerConfig = OptimizerConfig()) -> list[LayerResult]:
    """Greedy layer-by-layer minimization starting from a stabilizer state."""
    from .transfer import initial_spectrum

    if n_layers < 1:
        raise ValidationError("need at least one layer")
    s = initial_spectrum(t)
    results: list[LayerResult] = []
    for layer in range(n_layers):
        res = optimize_layer(s, config, layer_index=layer)
        results.append(res)
        s = res.spectrum_after
    return results


def grid_min(s: PauliSpectrum, alpha: int = 2, points: int = 256):
    """Exhaustive angle grid (k/points per qubit): (w_best, f_best).

    Meant as an optimizer oracle at n <= 2; cost is points**n objective calls.
    """
    if s.n > MAX_GRID_QUBITS:
        raise CapacityError(f"grid scan cap is n={MAX_GRID_QUBITS}, got {s.n}")
    if points < 1:
        raise ValidationError("points must be positive")
    best_w, best_f = None, np.inf
    for ks in itertools.product(range(points), repeat=s.n):
        w = np.array([k / points for k in ks], dtype=np.float64)
        f = objective(s, w, alpha)
        if f < best_f:
            best_w, best_f = w, f
    return best_w, best_f


def config_from_dict(obj: dict) -> OptimizerConfig:
    """Build a config from a JSON-style dict, rejecting unknown keys."""
    known = {f.name for f in OptimizerConfig.__dataclass_fields__.values()}
    extra = set(obj) - known
    if extra:
        raise ValidationError(f"unknown optimizer config keys: {sorted(extra)}")
    try:
        return replace(OptimizerConfig(), **obj)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed optimizer config: {exc}") from exc
