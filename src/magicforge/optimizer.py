"""Angle optimization of the magic functional over one rotation layer.

The objective is f(w) = F_alpha of the spectrum after applying a rotation
layer with angles w (in turns) to the current real signed spectrum; the
Clifford part of a block is applied beforehand, so optimization always runs
over R^n angles only.  The layer is `transfer.rotate_layer`, the same kernel
`apply_block` uses.

Along one angle f is a short trigonometric polynomial: turning qubit j by
t radians multiplies z = p + iq, for each of its pairs (p, q) (see
`transfer.xy_pair`), by e^(it), and p^(2 alpha) + q^(2 alpha) holds only the
harmonics 4k of arg z, so with K = alpha // 2

    f(t) - f(0) = sum over k = 1..K of Re[a_k (e^(4ikt) - 1)],
    a_k = 2^(2 - 2 alpha) C(2 alpha, alpha - 2k) sum z^(4k) |z|^(2 alpha - 4k).

One pass over qubit j's pairs gives its exact minimiser (`_best_turn`) and
df/dw_j = -8 pi sum k Im a_k.  A sweep turns every qubit in place to its
minimiser (Rotosolve, Ostaszewski, Grant and Benedetti, Quantum 5, 391,
2021; Nakanishi, Fujii and Todo, PRR 2, 043158, 2020), only where the
predicted drop is positive.  Sweeps stop after one that drops F by less
than ``tol``, or after ``max_iters``; every start runs at least one.

Restarts are uniform in [0,1)^n and w = 0 is always a start.  That start
moves where w = 0 is not a minimum along some angle (on a stabilizer state
each angle sits at a maximum), but each turn lowers F by its positive
predicted drop, the exact change of the vector it turns, so up to rounding
the reported minimum never exceeds the input F_alpha.

All starts of a layer sweep together, as the rows of one (starts, 4**n)
array (`_sweeps`): each qubit step copies the live rows' pairs out once,
takes one harmonic pass (`_harmonics`) and one turn (`transfer._turn`) over
all of them, and writes them back.  Each row turns only where its own drop
is positive, and leaves the array when its own sweep ends, so every start
runs exactly the sweeps, in the same arithmetic, that it would alone.  A
batch holds at most `_BATCH_ENTRIES` entries; further starts go into later
batches, in order, so memory does not grow with ``restarts``.  Each start
then ends in its own transfer, `apply_block` of its final angles (reduced
once, by `RotationVector`), and is ranked by `spectrum.f_alpha` of that
spectrum; the first start with the least F wins, and its spectrum and F are
the layer's result, so the next layer's F_before is a memo hit.
`objective` prices a layer the same way, and `objective_grad` reads the
same harmonics off a batch of one row.  The tests check the batched sweeps
bit for bit against the per-start loop in tests/helpers.py, and the
objective against the submask-sum reference there and the dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .diagonal_gates import RotationVector, whole_number
from .spectrum import PauliSpectrum, _check_alpha, f_alpha
from .transfer import (
    CliffordOp,
    LayerBlock,
    _fold,
    _fwht,
    _gate_table,
    _turn,
    apply_block,
    xy_pair,
)

if TYPE_CHECKING:
    from .stabilizer import StabilizerTableau

# spectrum entries one batch of starts holds: 1 MiB of float64, which keeps a
# batch and its pair copies in cache (2 rows at n = 8, 8 at n = 7; larger
# batches swept slower there), and all 17 default starts in one batch at n <= 6
_BATCH_ENTRIES = 1 << 17


@dataclass(frozen=True)
class OptimizerConfig:
    alpha: int = 2
    restarts: int = 16
    max_iters: int = 500
    step: float = 0.05  # validated, but no longer changes any result
    tol: float = 1e-10
    clifford_pool: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))  # 2.0 is accepted, as 2
        for name, low in (("restarts", 0), ("max_iters", 1), ("clifford_pool", 0), ("seed", 0)):
            value = whole_number(getattr(self, name), name)  # 2.0 is accepted, as 2
            if value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("step", "tol"):
            value = getattr(self, name)
            if not isinstance(value, (float, int, np.floating, np.integer)) \
                    or isinstance(value, bool) or not 0 < value < math.inf:
                raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
            object.__setattr__(self, name, float(value))


def _harmonics(p: np.ndarray, q: np.ndarray, alpha: int) -> np.ndarray:
    """a_1..a_K of f along one angle, read off its pairs (p, q) with a
    leading row axis: shape (rows, K), each sum over one row's pairs, in
    order."""
    z4 = (p + 1j * q).reshape(len(p), -1)
    np.square(z4, out=z4)
    np.square(z4, out=z4)
    if alpha == 2:  # a_1 = C(4, 0) sum z^4 / 4
        return np.add.reduce(z4, axis=1, keepdims=True) * 0.25
    r2 = (p * p + q * q).reshape(len(p), -1)
    a = [math.comb(2 * alpha, alpha - 2 * k) * np.sum(z4 ** k * r2 ** (alpha - 2 * k), axis=1)
         for k in range(1, alpha // 2 + 1)]
    return np.stack(a, axis=1) * 2.0 ** (2 - 2 * alpha)


def _best_turn(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, drop) per row of harmonics ``a`` (rows, K): the turn t, in turns,
    that minimises f along one angle, and the drop in f it brings (0 where
    no turn lowers f)."""
    if a.shape[1] == 1:  # f - f(0) = Re[a_1 (e^(4it) - 1)] is least at 4t = pi - arg a_1
        a1 = a[:, 0]
        re, im = a1.real, a1.imag
        return (np.pi - np.arctan2(im, re)) / (8.0 * np.pi), re + np.hypot(re, im)
    # stationary points u = e^(4it): roots of sum k (a_k u^(K+k) - conj(a_k) u^(K-k)),
    # pushed onto the unit circle (an off-circle root only adds a candidate), and u = 1
    k = np.arange(1, a.shape[1] + 1)
    t, drop = np.empty(len(a)), np.empty(len(a))
    for r, ar in enumerate(a):
        u = np.roots(np.concatenate([(k * ar)[::-1], [0.0], -(k * np.conj(ar))]))
        u = np.append(u[u != 0] / np.abs(u[u != 0]), 1.0)
        change = (ar * (u[:, None] ** k - 1)).real.sum(axis=1)
        best = int(np.argmin(change))
        t[r], drop[r] = float(np.angle(u[best])) / (8.0 * np.pi), -float(change[best])
    return t, drop


def _rotated(s: PauliSpectrum, w) -> PauliSpectrum:
    """The spectrum after a rotation layer with angles w (turns) on s."""
    return apply_block(s, LayerBlock(s.n, None, RotationVector.continuous(w)))


def objective(s: PauliSpectrum, w, alpha: int = 2) -> float:
    """F_alpha after a rotation layer with angles w (turns) on spectrum s."""
    return f_alpha(_rotated(s, w), alpha)


def objective_grad(s: PauliSpectrum, w, alpha: int = 2) -> np.ndarray:
    """Analytic gradient in the angles: -8 pi sum k Im a_k per qubit."""
    alpha = _check_alpha(alpha)
    mixed, k = _rotated(s, w).values, np.arange(1, alpha // 2 + 1)
    return np.array([-8.0 * np.pi * np.dot(k, _harmonics(*xy_pair(mixed, s.n, j), alpha)[0].imag)
                     for j in range(s.n)])


def _sweeps(s: PauliSpectrum, w: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    """Exact one-angle sweeps from every row of the (starts, n) angles ``w``
    at once, turning the rows of one (starts, 4**n) array in place; ``w``
    ends at each start's final angles.  Returns the sweeps each start ran.

    Every qubit step takes one harmonic pass and one turn over the live
    rows; a row turns only where its own drop is positive, and leaves the
    array when its own sweep ends by ``tol`` or ``max_iters``.
    """
    n = s.n
    live = np.arange(len(w))
    sweeps = np.zeros(len(w), dtype=np.int64)
    mixed = np.empty((len(w), s.values.size))
    mixed[...] = s.values
    at = w.copy()  # the live rows' angles
    for j in range(n):
        p, q = xy_pair(mixed, n, j)
        p[...], q[...] = _turn(p.copy(), q.copy(), at[:, j])
    for sweep in range(1, config.max_iters + 1):
        total = np.zeros(len(live))
        for j in range(n):
            p, q = xy_pair(mixed, n, j)
            pc, qc = p.copy(), q.copy()  # both kernels then run on contiguous rows
            t, drop = _best_turn(_harmonics(pc, qc, config.alpha))
            if np.minimum.reduce(drop) > 0:
                p[...], q[...] = _turn(pc, qc, t)
                at[:, j] += t
                total += drop
            else:  # a row at its minimum along this angle stays put
                turn = drop > 0
                t, drop = t[turn], drop[turn]
                p[turn], q[turn] = _turn(pc[turn], qc[turn], t)
                at[turn, j] += t
                total[turn] += drop
        done = (total < config.tol) | (sweep == config.max_iters)
        if done.any():
            w[live[done]], sweeps[live[done]] = at[done], sweep
            keep = ~done
            live, at, mixed = live[keep], at[keep], mixed[keep]
            if not len(live):
                break
    return sweeps


def _optimize_angles_full(s: PauliSpectrum, config: OptimizerConfig, stream=(0,)):
    """The lowest-F start: (angles, spectrum after them, F, total sweeps).

    The starts are w = 0, then ``restarts`` uniform draws, swept together in
    batches of at most `_BATCH_ENTRIES` spectrum entries, in order.  Each
    start ends in its own transfer, `apply_block` of its final angles, and
    the first start with the least F wins.
    """
    rng = np.random.default_rng([config.seed, *stream])
    starts = [np.zeros(s.n)]
    starts += [rng.uniform(0.0, 1.0, s.n) for _ in range(config.restarts)]
    w = np.array(starts)
    batch = max(1, _BATCH_ENTRIES // s.values.size)
    total = sum(int(_sweeps(s, w[b:b + batch], config).sum()) for b in range(0, len(w), batch))
    best, best_f = None, np.inf
    for row in w:
        rotation = RotationVector.continuous(row)
        after = apply_block(s, LayerBlock(s.n, None, rotation))
        f = f_alpha(after, config.alpha)
        if f < best_f:
            best, best_f = (rotation, after), f
    return *best, best_f, total


def _pool_gates(n: int, count: int, rng: np.random.Generator) -> list[tuple[tuple, ...]]:
    """``count`` gate strings drawn in bulk with `transfer.random_clifford`'s
    default distribution: 3n^2 + 2n gates, each with probability 1/2 (if
    n > 1) a CX or CZ on a uniform ordered pair of distinct qubits, and
    otherwise H, S, X or Z on a uniform qubit.  The gates are the shared
    entries of `transfer._gate_table`, so the winner validates by identity."""
    shape = (count, 3 * n * n + 2 * n)
    two = rng.random(shape) < 0.5 if n > 1 else np.zeros(shape, dtype=bool)
    code = rng.integers(4, size=shape)  # index into transfer._CLIFFORD_GATES
    code[two] = 4 + (code[two] & 1)
    a = rng.integers(n, size=shape)
    b = (a + 1 + rng.integers(max(n - 1, 1), size=shape)) % n  # uniform over b != a
    gate = _gate_table(n)[1].__getitem__
    return [tuple(map(gate, row)) for row in ((code * n + a) * n + b).tolist()]


def _axis_scores(s: PauliSpectrum) -> np.ndarray:
    """s(P) = (sum g - WHT(g)) / 2 for every axis P(x, z), at label z << n | x.
    The transform runs on g as a matrix [x, z]: over z on its transpose, then over x."""
    g = (s.values ** 2 - 2.0 ** (-s.n)) ** 2
    size = 1 << s.n
    walsh = g.reshape(size, size).T.copy()
    _fwht(walsh)
    walsh = walsh.T.copy()
    _fwht(walsh)
    return (g.sum() - walsh.ravel()) / 2


def _pool_score(axis_scores: np.ndarray, n: int, gates: tuple[tuple, ...]) -> float:
    """Sum of s(P_j) over the axes P_j = C^dagger Z_j C of the gate string C."""
    axes = _fold(n, [(0, 1 << j, 0) for j in range(n)], gates, inverse=True)
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
    f_before = f_alpha(s, config.alpha)  # in a pipeline, the last layer's memoised f_after
    cliff = precondition_clifford(s, config, stream=(layer_index,))
    s_mid = apply_block(s, LayerBlock(s.n, cliff, None))
    rotation, s_after, f_after, iters = _optimize_angles_full(s_mid, config, (layer_index,))
    return LayerResult(LayerBlock(s.n, cliff, rotation), f_before, f_after, s_after, iters)


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
