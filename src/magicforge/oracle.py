"""Brute-force statevector oracle used to witness every closed-form result.

Everything here works directly on dense amplitude arrays and recomputes what
it needs (popcounts, Pauli actions, projectors) from first principles.  It
deliberately shares no computational code with the closed-form modules; the
only contact points are plain input data (tableau generator masks, phase
polynomial terms, gate lists) and the output container type.  A test reads
this module's imports to keep it so: numpy, the standard library, `errors`
and the `PauliSpectrum` container only.

The full Pauli sweep (`oracle_spectrum`) is the textbook sum over basis
states, written as one real matrix product for all 4**n labels; its
per-label form is `expectation`.

Size caps: statevectors up to n = 12, full Pauli sweeps up to n = 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import CapacityError, ValidationError

if TYPE_CHECKING:  # data-only imports for annotations
    from .diagonal_gates import PhasePolynomial, RotationVector
    from .stabilizer import StabilizerTableau
    from .spectrum import PauliSpectrum

MAX_STATE_QUBITS = 12
MAX_SWEEP_QUBITS = 8

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class DenseState:
    """Normalized n-qubit statevector; basis index bit j is qubit j+1."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_STATE_QUBITS:
            raise CapacityError(f"dense states support 1..{MAX_STATE_QUBITS} qubits, got {self.n}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValidationError(f"amplitude array has shape {amps.shape}, expected ({1 << self.n},)")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"state not normalized: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)


def _parity(arr: np.ndarray) -> np.ndarray:
    # local on purpose: the oracle keeps its own bit plumbing
    return (np.bitwise_count(arr) & 1).astype(np.int64)


def _apply_pauli_amps(amps: np.ndarray, n: int, x: int, z: int, phase_exp: int) -> np.ndarray:
    """Amplitudes of (i**phase_exp * i**(x.z) X^x Z^z) |psi>."""
    idx = np.arange(1 << n, dtype=np.int64)
    total = (phase_exp + int(x & z).bit_count()) & 3
    coeff = (1j) ** total
    signed = np.where(_parity(idx & z) == 1, -amps, amps)
    out = np.empty_like(amps)
    out[idx ^ x] = coeff * signed
    return out


def statevector(t: "StabilizerTableau") -> DenseState:
    """Dense state stabilized by the tableau, via the product of projectors.

    Applies prod_i (1 + g_i)/2 to computational basis states in index order
    and keeps the first image with norm above 1e-6.  Deterministic; the
    global phase is whatever this construction yields.
    """
    n = t.n
    if n > MAX_STATE_QUBITS:
        raise CapacityError(f"statevector cap is n={MAX_STATE_QUBITS}, got {n}")
    gens = [(x, z, 2 * h) for x, z, h in t.rows]
    for b0 in range(1 << n):
        v = np.zeros(1 << n, dtype=np.complex128)
        v[b0] = 1.0
        for x, z, ph in gens:
            v = 0.5 * (v + _apply_pauli_amps(v, n, x, z, ph))
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return DenseState(n, v / norm)
    raise RuntimeError("projector product annihilated every basis state; tableau is inconsistent")


def apply_diagonal(st: DenseState, f: "PhasePolynomial") -> DenseState:
    """Apply a diagonal gate by evaluating its phase polynomial per basis state."""
    if f.n != st.n:
        raise ValidationError(f"gate is on {f.n} qubits, state on {st.n}")
    b = np.arange(1 << st.n, dtype=np.int64)
    m = max(f.m_max, 1)
    num = np.zeros(1 << st.n, dtype=np.int64)
    for (tm, a), c in f.terms.items():
        num += np.where((b & a) == a, c << (m - tm), 0)
    phases = np.exp(2j * np.pi * (num % (1 << m)) / float(1 << m))
    return DenseState(st.n, st.amplitudes * phases)


def apply_rotation(st: DenseState, w: "RotationVector") -> DenseState:
    """Apply a single-qubit-rotation layer diag(1, e^{2 pi i w_j}) per qubit."""
    if w.n != st.n:
        raise ValidationError(f"rotation is on {w.n} qubits, state on {st.n}")
    b = np.arange(1 << st.n, dtype=np.int64)
    angle = np.zeros(1 << st.n, dtype=np.float64)
    for j, wj in enumerate(w.values):
        angle += np.where((b >> j) & 1 == 1, wj, 0.0)
    return DenseState(st.n, st.amplitudes * np.exp(2j * np.pi * angle))


def apply_gates(st: DenseState, gates: Iterable[tuple]) -> DenseState:
    """Apply Clifford gates in order.  Qubit indices in gate tuples are 0-based.

    Supported: ("H", j), ("S", j), ("X", j), ("Z", j), ("CX", c, t), ("CZ", a, b).
    """
    n = st.n
    amps = st.amplitudes.copy()
    idx = np.arange(1 << n, dtype=np.int64)
    for gate in gates:
        name = gate[0].upper()
        qs = [int(q) for q in gate[1:]]
        for q in qs:
            if not 0 <= q < n:
                raise ValidationError(f"qubit index {q} outside 0..{n - 1} in {gate!r}")
        if name == "H":
            bit = 1 << qs[0]
            lo = idx[(idx & bit) == 0]
            a0, a1 = amps[lo], amps[lo | bit]
            amps[lo] = _SQRT_HALF * (a0 + a1)
            amps[lo | bit] = _SQRT_HALF * (a0 - a1)
        elif name == "S":
            bit = 1 << qs[0]
            amps = np.where((idx & bit) != 0, 1j * amps, amps)
        elif name == "X":
            amps = amps[idx ^ (1 << qs[0])]
        elif name == "Z":
            bit = 1 << qs[0]
            amps = np.where((idx & bit) != 0, -amps, amps)
        elif name == "CX":
            c, tgt = qs
            if c == tgt:
                raise ValidationError("CX control equals target")
            flip = np.where((idx >> c) & 1 == 1, idx ^ (1 << tgt), idx)
            amps = amps[flip]
        elif name == "CZ":
            a, bq = qs
            if a == bq:
                raise ValidationError("CZ qubits coincide")
            both = ((idx >> a) & 1) & ((idx >> bq) & 1)
            amps = np.where(both == 1, -amps, amps)
        else:
            raise ValidationError(f"unsupported Clifford gate {gate[0]!r}")
    return DenseState(n, amps)


def expectation(st: DenseState, x: int, z: int) -> complex:
    """<psi| i^(x.z) X^x Z^z |psi> for one label, straight from amplitudes."""
    out = _apply_pauli_amps(st.amplitudes, st.n, x, z, 0)
    return complex(np.vdot(st.amplitudes, out))


def oracle_spectrum(st: DenseState) -> "PauliSpectrum":
    """All 4**n Pauli expectations of a dense state, indexed x * 2**n + z.

    Uses <P(x,z)> = i^(x.z) sum_b conj(psi[b ^ x]) (-1)^(z.b) psi[b] for all
    labels at once: U[b, x] = conj(psi[b ^ x]) psi[b], one real matrix
    product of the sign matrix S[z, b] = (-1)^(z.b) with the real and
    imaginary parts of U (read in place as 2**(n+1) real columns), then the
    factor i^(x.z) per label; S and i^(x.z) come from one popcount table.
    Nothing is shared with the closed-form evaluator.  Asserts Hermiticity
    (imaginary parts below 1e-10) and returns a real signed spectrum.
    """
    from .spectrum import PauliSpectrum  # container only

    n = st.n
    if n > MAX_SWEEP_QUBITS:
        raise CapacityError(f"full Pauli sweep cap is n={MAX_SWEEP_QUBITS}, got {n}")
    idx = np.arange(1 << n, dtype=np.int64)
    psi = st.amplitudes
    u = psi[idx[:, None] ^ idx]  # psi[b ^ x] at [b, x]
    np.conj(u, out=u)
    u *= psi[:, None]
    dots = np.bitwise_count(idx[:, None] & idx)  # z.b for S, and x.z at [z, x]
    sign_mat = 1.0 - 2.0 * (dots & 1)
    rows = (sign_mat @ u.view(np.float64)).view(np.complex128)  # [z, x]
    del u, sign_mat  # freed before the phase step allocates: 1.5 MiB at n = 8
    rows *= np.array([1, 1j, -1, -1j])[dots & 3]
    worst = np.max(np.abs(rows.imag), axis=0)
    if float(worst.max()) > 1e-10:
        x = int(np.argmax(worst))
        raise RuntimeError(f"non-Hermitian expectation at x={x:#x}; max imag {worst[x]}")
    return PauliSpectrum(n, rows.real.T.reshape(-1))

