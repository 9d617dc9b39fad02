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
    apply_block,
    identity_clifford,
    random_clifford,
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


def precondition_clifford(s: PauliSpectrum, config: OptimizerConfig = OptimizerConfig(),
                          stream=(0,)) -> CliffordOp:
    """Pick the pool Clifford that best exposes non-uniform weight to mixing.

    Score of C is sum over labels v of |x(v)| * (a(pre(v))^2 - 2^-n)^2 where
    pre is the Heisenberg preimage of v; the identity is always candidate 0
    and ties keep the earliest candidate.
    """
    n = s.n
    rng = np.random.default_rng([config.seed, 1, *stream])
    pool = [identity_clifford(n)]
    pool += [random_clifford(n, rng) for _ in range(config.clifford_pool)]
    size = 1 << n
    xw = np.bitwise_count((np.arange(size * size, dtype=np.int64) >> n)).astype(np.float64)
    uniform = 2.0 ** (-n)
    a2 = s.values ** 2
    best, best_score = pool[0], -np.inf
    for cand in pool:
        perm, _ = cand.heisenberg_table()
        score = float(np.sum(xw * (a2[perm] - uniform) ** 2))
        if score > best_score + 1e-15:
            best, best_score = cand, score
    return best


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
