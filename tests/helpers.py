"""Dense linear-algebra builders for cross-checking, written from definitions.

Everything here up to the last section is constructed from 2x2 matrices,
numpy.kron and the package's plain data types, with no imports from its
numeric code paths, so tests that compare package output against these
helpers exercise a genuinely independent route.  The last section holds the
two probes that drive package kernels on purpose: `grid_min` scans
`optimizer.objective` over an angle grid, and `transfer_orthogonality_check`
runs the block map on generic unit vectors.

Conventions under test: basis index bit j holds the value of qubit j+1
(qubit 1 is the least significant bit), and a Pauli label means
i**phase_exp * i**(popcount(x & z)) * X^x Z^z.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np

from magicforge.diagonal_gates import whole_number
from magicforge.errors import CapacityError, ValidationError
from magicforge.optimizer import objective
from magicforge.pauli_core import PauliLabel
from magicforge.transfer import MAX_SPECTRUM_QUBITS, _apply_layers

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.diag([1, 1j]).astype(complex)


def embed(n: int, op: np.ndarray, qubits: list[int]) -> np.ndarray:
    """Tensor-embed a k-qubit op acting on 0-based ``qubits`` into n qubits.

    Built by applying the op amplitude-wise over the selected index bits, so
    the qubit-1-is-LSB convention is explicit rather than inherited from a
    kron ordering.
    """
    k = len(qubits)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_in = 0
        for pos, q in enumerate(qubits):
            sub_in |= ((col >> q) & 1) << pos
        base = col
        for q in qubits:
            base &= ~(1 << q)
        for sub_out in range(1 << k):
            amp = op[sub_out, sub_in]
            if amp == 0:
                continue
            row = base
            for pos, q in enumerate(qubits):
                row |= ((sub_out >> pos) & 1) << q
            out[row, col] += amp
    return out


def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    """kron with mats[0] acting on qubit 1 (the LSB), mats[-1] on qubit n."""
    out = np.array([[1]], dtype=complex)
    for m in mats:
        out = np.kron(m, out)
    return out


def from_index(index: int, n: int) -> PauliLabel:
    """The phase-0 label at flat index x * 2**n + z, the inverse of `to_index`."""
    return PauliLabel(n, index >> n, index & ((1 << n) - 1))


def pauli_matrix(p: PauliLabel) -> np.ndarray:
    """Dense matrix of a labelled Pauli, from the X^x Z^z action on basis states."""
    dim = 1 << p.n
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        sign = -1.0 if ((b & p.z).bit_count() & 1) else 1.0
        mat[b ^ p.x, b] = sign
    phase = 1j ** ((p.phase_exp + (p.x & p.z).bit_count()) & 3)
    return phase * mat


_ONE_QUBIT = {"H": H2, "S": S2, "X": X2, "Z": Z2}


def gate_matrix(n: int, gate: tuple) -> np.ndarray:
    name = gate[0]
    if name in _ONE_QUBIT:
        return embed(n, _ONE_QUBIT[name], [gate[1]])
    if name == "CX":
        # control = first listed qubit (sub-index bit 0), target = second
        cx = np.zeros((4, 4), dtype=complex)
        for b in range(4):
            c, t = b & 1, (b >> 1) & 1
            cx[(c | ((t ^ c) << 1)), b] = 1.0
        return embed(n, cx, [gate[1], gate[2]])
    if name == "CZ":
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        return embed(n, cz, [gate[1], gate[2]])
    raise ValueError(f"unknown gate {name!r}")


def circuit_matrix(n: int, gates) -> np.ndarray:
    out = np.eye(1 << n, dtype=complex)
    for g in gates:
        out = gate_matrix(n, g) @ out
    return out


def stabilizer_dense(tableau) -> np.ndarray:
    """Unit vector from the projector product (1 + sign*P)/2 over generators."""
    n = tableau.n
    dim = 1 << n
    proj = np.eye(dim, dtype=complex)
    for x, z, hb in tableau.rows:
        sign = -1.0 if hb else 1.0
        proj = proj @ (np.eye(dim, dtype=complex) + sign * pauli_matrix(PauliLabel(n, x, z))) / 2.0
    for col in range(dim):
        v = proj[:, col]
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm
    raise AssertionError("projector annihilated every basis column")


def diagonal_matrix(f) -> np.ndarray:
    """Dense diagonal of a phase polynomial from its exact per-state values."""
    angles = [float(f.evaluate(b)) for b in range(1 << f.n)]
    return np.diag(np.exp(2j * np.pi * np.array(angles)))


def theta_diff(f, b: int, x: int) -> Fraction:
    """theta(b) - theta(b XOR x) in turns, reduced into [0, 1), exactly from
    the polynomial's terms: only monomials meeting x can contribute."""
    total, bx = Fraction(0), b ^ x
    for (m, a), c in f.terms.items():
        if a & x:
            total += Fraction(c * ((b & a == a) - (bx & a == a)), 1 << m)
    return total % 1


def rotation_matrix(w) -> np.ndarray:
    """Dense diagonal of a single-qubit-rotation layer."""
    angles = w.values
    diag = np.ones(1 << w.n, dtype=complex)
    for b in range(1 << w.n):
        theta = sum(angles[j] for j in range(w.n) if (b >> j) & 1)
        diag[b] = np.exp(2j * np.pi * theta)
    return np.diag(diag)


def _gamma(x: int, u: int, angles, d: int | None) -> float:
    """Gamma_x(u; w), or its derivative in w_d when d is given."""
    g = 1.0
    for j, wj in enumerate(angles):
        t = 2.0 * math.pi * wj
        inside = (u >> j) & 1
        if j == d:
            if not (x >> j) & 1:
                return 0.0
            g *= 2.0 * math.pi * (math.cos(t) if inside else -math.sin(t))
        elif (x >> j) & 1:
            g *= math.sin(t) if inside else math.cos(t)
    return g


def submask_mix(values: np.ndarray, angles, d: int | None = None) -> np.ndarray:
    """Rotation layer on a length-4**n spectrum vector, by the submask sum.

    a'(x, z) = sum over submasks u of x of
               Gamma_x(u; w) * (-1)^(|u| + u.z) * a(x, z ^ u),

    with Gamma_x(u; w) the product over qubits j of x of sin(2 pi w_j) if j
    is in u, else cos(2 pi w_j).  With d given, Gamma is replaced by its
    derivative in w_d, which gives the derivative of a' in w_d.
    """
    n = len(angles)
    size = 1 << n
    zs = np.arange(size)
    out = np.zeros(size * size)
    for x in range(size):
        sector = np.asarray(values[x * size:(x + 1) * size], dtype=float)
        u = x
        while True:
            signs = np.array([(-1.0) ** ((u.bit_count() + (z & u).bit_count()) & 1) for z in zs])
            out[x * size:(x + 1) * size] += _gamma(x, u, angles, d) * signs * sector[zs ^ u]
            if u == 0:
                break
            u = (u - 1) & x
    return out


def submask_objective(values: np.ndarray, angles, alpha: int) -> tuple[float, np.ndarray]:
    """F_alpha after a rotation layer and its gradient, from ``submask_mix``."""
    mixed = submask_mix(values, angles)
    power = 2 * alpha
    grad = [
        float(np.sum(power * mixed ** (power - 1) * submask_mix(values, angles, d)))
        for d in range(len(angles))
    ]
    return float(np.sum(mixed ** power)), np.array(grad)


def _label_mul(p: PauliLabel, q: PauliLabel) -> PauliLabel:
    """Exact product of two labels, from (X^a Z^b)(X^c Z^d) = (-1)^(b.c) X^(a^c) Z^(b^d)."""
    x, z = p.x ^ q.x, p.z ^ q.z
    phase = (
        p.phase_exp + q.phase_exp
        + (p.x & p.z).bit_count() + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count() - (x & z).bit_count()
    )
    return PauliLabel(p.n, x, z, phase & 3)


def _gate_images(n: int, gate: tuple) -> dict[tuple[str, int], PauliLabel]:
    """Images of the single-qubit X and Z labels under u (.) u^dagger."""
    name, *qs = gate
    e = lambda j: 1 << j
    if name == "H":
        (j,) = qs
        return {("X", j): PauliLabel(n, 0, e(j)), ("Z", j): PauliLabel(n, e(j), 0)}
    if name == "S":
        (j,) = qs
        return {("X", j): PauliLabel(n, e(j), e(j)), ("Z", j): PauliLabel(n, 0, e(j))}
    if name == "X":
        (j,) = qs
        return {("X", j): PauliLabel(n, e(j), 0), ("Z", j): PauliLabel(n, 0, e(j), 2)}
    if name == "Z":
        (j,) = qs
        return {("X", j): PauliLabel(n, e(j), 0, 2), ("Z", j): PauliLabel(n, 0, e(j))}
    if name == "CX":
        c, t = qs
        return {
            ("X", c): PauliLabel(n, e(c) | e(t), 0),
            ("X", t): PauliLabel(n, e(t), 0),
            ("Z", c): PauliLabel(n, 0, e(c)),
            ("Z", t): PauliLabel(n, 0, e(c) | e(t)),
        }
    if name == "CZ":
        a, b = qs
        return {
            ("X", a): PauliLabel(n, e(a), e(b)),
            ("X", b): PauliLabel(n, e(b), e(a)),
            ("Z", a): PauliLabel(n, 0, e(a)),
            ("Z", b): PauliLabel(n, 0, e(b)),
        }
    raise ValueError(f"unknown gate {name!r}")


def conjugate_reference(gates, p: PauliLabel) -> PauliLabel:
    """C p C^dagger for the gate list C (in application order), exact phase.

    Per gate: split the label into i^phase X^x Z^z, replace the factors on
    the gate's qubits by their images, and remultiply.  One label at a time,
    slow and written from the single-gate images alone.
    """
    n = p.n
    for gate in gates:
        images = _gate_images(n, gate)
        qs = gate[1:]
        qmask = sum(1 << q for q in qs)
        x_rest, z_rest = p.x & ~qmask, p.z & ~qmask
        phase = p.phase_exp + (p.x & p.z).bit_count() - (x_rest & z_rest).bit_count()
        acc = PauliLabel(n, x_rest, z_rest, phase & 3)
        for letter, mask in (("X", p.x), ("Z", p.z)):
            for q in qs:
                if (mask >> q) & 1:
                    acc = _label_mul(acc, images[(letter, q)])
        p = acc
    return p


def group_reference(t) -> list[PauliLabel]:
    """All 2**n signed elements of a stabilizer group with rows (-1)^h P(x, z).

    Element k is the product of the rows whose bits are set in k, higher rows
    on the left, with the sign in phase_exp: a walk of one label product per
    element over any object with ``n`` and signed rows ``(x, z, h)``.
    """
    elems = [PauliLabel(t.n, 0, 0, 0)]
    for x, z, hb in t.rows:
        signed = PauliLabel(t.n, x, z, 2 * hb)
        elems += [_label_mul(signed, e) for e in elems]
    return elems


def coset_reference(t) -> tuple[list[int], dict[int, PauliLabel]]:
    """(support, cosets) of a stabilizer state, read off `group_reference`.

    support lists the basis states b on which every pure-Z group element
    (-1)^s Z^z acts as +1, i.e. b.z = s mod 2.  cosets maps each x-part of
    the group to its element with the smallest z-part, sign included.
    """
    elems = group_reference(t)
    pure = [e for e in elems if e.x == 0]
    support = [
        b for b in range(1 << t.n)
        if all(((b & e.z).bit_count() + e.phase_exp // 2) % 2 == 0 for e in pure)
    ]
    cosets: dict[int, PauliLabel] = {}
    for e in elems:
        if e.x not in cosets or e.z < cosets[e.x].z:
            cosets[e.x] = e
    return support, cosets


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    return abs(np.vdot(u, v)) ** 2


def overlap2(a, b) -> float:
    """|<a|b>|^2 of two `DenseState`s, for phase-insensitive comparisons."""
    assert a.n == b.n, "state sizes differ"
    return float(fidelity(a.amplitudes, b.amplitudes))


def csv_writer_text(rows) -> str:
    """Rows as the standard csv.writer writes them, each line ending in \\n."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def spectrum_csv_reference(n: int, values) -> str:
    """Spectrum CSV body through csv.writer: (x_bits, z_bits, a, 0.0, abs(a) ** 2)
    per label, x-major, with qubit 1 as the leftmost bit character."""
    size = 1 << n
    labels = ["".join(str((v >> j) & 1) for j in range(n)) for v in range(size)]
    return csv_writer_text(
        (labels[i // size], labels[i % size], a, 0.0, abs(a) ** 2)
        for i, a in enumerate(np.asarray(values).tolist())
    )


def pool_score_reference(values: np.ndarray, perm: np.ndarray) -> float:
    """Preconditioner score from a whole Heisenberg table: the sum over labels
    v of |x(v)| (a(perm[v])^2 - 2^-n)^2, where C^dagger P(v) C = +-P(perm[v])
    and |x(v)| counts the Z_j that P(v) anticommutes with."""
    n = (len(values).bit_length() - 1) // 2
    xw = np.bitwise_count(np.arange(len(values), dtype=np.int64) >> n).astype(np.float64)
    return float(np.sum(xw * (values[perm] ** 2 - 2.0 ** (-n)) ** 2))


def axis_scores_reference(values: np.ndarray) -> np.ndarray:
    """Preconditioner axis scores (sum g - WHT(g)) / 2 with g = (a^2 - 2^-n)^2,
    the Walsh-Hadamard transform taken over the flat length-4**n vector, one
    butterfly level per label bit from the lowest."""
    n = (len(values).bit_length() - 1) // 2
    g = (values ** 2 - 2.0 ** (-n)) ** 2
    walsh = g.copy()
    half = 1
    while half < len(walsh):
        pairs = walsh.reshape(-1, 2, half)
        p, q = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0], pairs[:, 1] = p + q, p - q
        half <<= 1
    return (g.sum() - walsh) / 2


def graph_gate_circuit_json(n: int, seed: int) -> dict:
    """Circuit JSON of a random graph state (CZ on each pair with probability
    1/2) and one level-4 phase gate: the terms 1/2 b1b2b3b4, 1/4 on a weight-3
    mask, 1/8 on a weight-2 mask and 1/16 on one qubit, odd numerators."""
    rng = np.random.default_rng(seed)
    edges = [["CZ", a, b] for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    terms, masks = [], set()
    for m, weight in ((1, 4), (2, 3), (3, 2), (4, 1)):
        mask = frozenset()
        while not mask or mask in masks:
            mask = frozenset(rng.choice(n, size=weight, replace=False).tolist())
        masks.add(mask)
        bits = "".join("1" if q in mask else "0" for q in range(n))
        terms.append({"m": m, "a": bits, "c": 2 * int(rng.integers(1 << (m - 1))) + 1})
    return {"n": n, "layers": [{"clifford": edges}, {"gate": {"terms": terms}}]}


def random_clifford_reference(n: int, rng: np.random.Generator, length: int | None = None):
    """Gate tuples of `transfer.random_clifford`, drawn through the Generator
    API: per gate, with probability 1/2 when n > 1, CX or CZ on
    ``rng.choice(n, 2, replace=False)``, and otherwise H, S, X or Z on
    ``rng.integers(n)``."""
    if length is None:
        length = 3 * n * n + 2 * n
    gates = []
    one_q = ["H", "S", "X", "Z"]
    for _ in range(length):
        if n > 1 and rng.random() < 0.5:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append((("CX", "CZ")[int(rng.integers(2))], int(a), int(b)))
        else:
            gates.append((one_q[int(rng.integers(4))], int(rng.integers(n))))
    return tuple(gates)


def _pairs_reference(v: np.ndarray, n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the x_j = 1 entries of one spectrum vector at z_j = 0 and 1."""
    hi, lo = 1 << (n - 1 - j), 1 << j
    w = v.reshape(hi, 2, lo, hi, 2, lo)
    return w[:, 1, :, :, 0], w[:, 1, :, :, 1]


def _turn_reference(v: np.ndarray, n: int, j: int, wj: float) -> None:
    t = 2.0 * np.pi * wj
    c, s = np.cos(t), np.sin(t)
    p, q = _pairs_reference(v, n, j)
    p_new = c * p - s * q
    q[...] = s * p + c * q
    p[...] = p_new


def _harmonics_reference(v: np.ndarray, n: int, j: int, alpha: int) -> np.ndarray:
    p, q = _pairs_reference(v, n, j)
    z4, r2 = np.square(np.square(p + 1j * q)), p * p + q * q
    a = [math.comb(2 * alpha, alpha - 2 * k) * np.sum(z4 ** k * r2 ** (alpha - 2 * k))
         for k in range(1, alpha // 2 + 1)]
    return np.array(a) * 2.0 ** (2 - 2 * alpha)


def _best_turn_reference(a: np.ndarray) -> tuple[float, float]:
    if len(a) == 1:
        return (np.pi - np.angle(a[0])) / (8.0 * np.pi), a[0].real + abs(a[0])
    k = np.arange(1, len(a) + 1)
    u = np.roots(np.concatenate([(k * a)[::-1], [0.0], -(k * np.conj(a))]))
    u = np.append(u[u != 0] / np.abs(u[u != 0]), 1.0)
    change = (a * (u[:, None] ** k - 1)).real.sum(axis=1)
    best = int(np.argmin(change))
    return float(np.angle(u[best])) / (8.0 * np.pi), -float(change[best])


def sweep_reference(values: np.ndarray, w0, alpha: int, max_iters: int, tol: float):
    """Exact one-angle sweeps from the angles w0, one start on its own vector:
    (final angles, sweeps run).

    The per-start loop: rotate a copy of ``values`` by w0, then per sweep turn
    each qubit j in order by the minimiser of its harmonics, only where the
    predicted drop is positive; stop after a sweep whose drops sum below
    ``tol``, or after ``max_iters``.
    """
    n = len(w0)
    w = np.asarray(w0, dtype=np.float64).copy()
    mixed = np.array(values, dtype=np.float64)
    for j, wj in enumerate(w):
        _turn_reference(mixed, n, j, wj)
    for sweeps in range(1, max_iters + 1):
        total = 0.0
        for j in range(n):
            t, drop = _best_turn_reference(_harmonics_reference(mixed, n, j, alpha))
            if drop > 0:
                _turn_reference(mixed, n, j, t)
                w[j] += t
                total += drop
        if total < tol:
            break
    return w, sweeps


# the probes that drive package kernels

MAX_GRID_QUBITS = 2


def grid_min(s, alpha: int = 2, points: int = 256):
    """Exhaustive angle grid (k/points per qubit) of `optimizer.objective`:
    (w_best, f_best), the minimum every optimizer sweep must reach.  It costs
    points**n objective calls, so n is capped at MAX_GRID_QUBITS."""
    if s.n > MAX_GRID_QUBITS:
        raise CapacityError(f"grid scan cap is n={MAX_GRID_QUBITS}, got {s.n}")
    points = whole_number(points, "points")
    if points < 1:
        raise ValidationError("points must be positive")
    best_w, best_f = None, np.inf
    for ks in itertools.product(range(points), repeat=s.n):
        w = np.array([k / points for k in ks], dtype=np.float64)
        f = objective(s, w, alpha)
        if f < best_f:
            best_w, best_f = w, f
    return best_w, best_f


def transfer_orthogonality_check(block, trials: int, seed: int = 0) -> float:
    """Max norm deviation of the raw block map over random unit vectors.

    The vectors are generic, not physical spectra; the map must still be an
    isometry of R^(4**n).  The cap is checked before any vector is drawn.
    """
    if block.n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"transfer cap is n={MAX_SPECTRUM_QUBITS}, got {block.n}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        g = rng.standard_normal(1 << (2 * block.n))
        g /= np.linalg.norm(g)
        worst = max(worst, abs(float(np.linalg.norm(_apply_layers(g, block.layers))) - 1.0))
    return worst
