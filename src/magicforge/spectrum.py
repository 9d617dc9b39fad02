"""Closed-form Pauli spectra of diagonal gates on stabilizer states, and the
magic functionals evaluated on spectra.

A spectrum entry is a(x, z) = <psi| P(x, z) |psi> with the Hermitian label
P(x, z) = i^(x.z) X^x Z^z, so every entry of every spectrum is real.

Take a stabilizer input with canonical data: r pure-Z rows z_i with signs
h'_i, and for each x in the X-part row space a group element
(-1)^s0 P(x, z_ref).  The input amplitudes have modulus 2^(-(n-r)/2) on the
support (the b with b.z_i = h'_i for every pure-Z row) and vanish off it.
The group element fixes the input, which ties psi(b^x) to psi(b) by a known
sign and power of i.  Substituting that relation into the expectation after
a diagonal gate with phase function theta gives, exactly,

    a(x, z) = i^(x.z) * (2^r / 2^n) * (-1)^s0 * i^(x.z_ref) * (-1)^(z_ref.x)
              * sum over support b of
                    e^(2 pi i (theta(b) - theta(b^x))) (-1)^(z_ref.b) (-1)^(z.b).

(z_ref, s0) is a real group element with its true sign, not a choice of
phase: any other element of the same coset differs from it by a signed
pure-Z element, which acts as +1 on the support and leaves the sum
unchanged.  So the formula is exact and real.  It is evaluated in complex
arithmetic, and the evaluator checks that the imaginary parts vanish to
1e-12.  Labels with x outside the X-part row space are zero.  For each x
sector the z sum is a Walsh-Hadamard transform of the masked phase vector,
and all sectors go through one batched transform.

Dense enumeration is capped at n = 8 (4**n = 65536 entries).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .diagonal_gates import PhasePolynomial, RotationVector, value_numerators
from .errors import CapacityError, ValidationError

if TYPE_CHECKING:
    from .stabilizer import CanonicalTableau

MAX_SPECTRUM_QUBITS = 8

_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class PauliSpectrum:
    """All 4**n real Pauli expectations of a pure state, indexed x * 2**n + z.

    Values are stored as float64; complex input is rejected.  Construction
    checks sum a^2 = 2**n and a = 1 at the identity label, to 1e-9.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_SPECTRUM_QUBITS:
            raise CapacityError(f"spectra support 1..{MAX_SPECTRUM_QUBITS} qubits, got {self.n}")
        if np.iscomplexobj(self.values):
            raise ValidationError("spectrum entries are real; got a complex array")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (1 << (2 * self.n),):
            raise ValidationError(
                f"spectrum has shape {vals.shape}, expected ({1 << (2 * self.n)},)"
            )
        total = math.fsum(np.abs(vals) ** 2)
        if abs(total - float(1 << self.n)) > 1e-9:
            raise ValidationError(f"spectrum norm {total!r} != 2**n")
        if abs(vals[0] - 1.0) > 1e-9:
            raise ValidationError(f"identity entry is {vals[0]!r}, expected 1")
        object.__setattr__(self, "values", vals)

    def abs2(self) -> np.ndarray:
        return self.values * self.values

    def entry(self, x: int, z: int) -> float:
        return self.values[(x << self.n) | z]


def _closed_form(c: "CanonicalTableau", phase_turns) -> PauliSpectrum:
    """The module formula for every sector at once.

    ``phase_turns(xs, supp)[k, i]`` is theta(supp[i]) - theta(supp[i] ^ xs[k])
    in turns, for the sectors xs and the support states supp.
    """
    n = c.n
    size = 1 << n
    xs = np.fromiter(c.cosets, dtype=np.int64, count=len(c.cosets))
    z_ref, s0 = np.array(list(c.cosets.values()), dtype=np.int64).reshape(-1, 2).T
    if c.z_pure and np.any(np.bitwise_count(xs[:, None] & np.array(c.z_pure, dtype=np.int64)) & 1):
        raise RuntimeError("coset element with odd pure-Z overlap")
    supp = np.asarray(c.support_states(), dtype=np.int64)
    v = np.zeros((len(xs), size), dtype=np.complex128)
    ref_signs = 1 - 2 * (np.bitwise_count(supp & z_ref[:, None]) & 1).astype(np.int64)
    v[:, supp] = np.exp(2j * np.pi * phase_turns(xs, supp)) * ref_signs
    for j in range(n):  # Walsh-Hadamard butterflies on bit j of every row
        v = v.reshape(len(xs), -1, 2, 1 << j)
        v = np.stack((v[:, :, 0] + v[:, :, 1], v[:, :, 0] - v[:, :, 1]), axis=2)
    ref = np.bitwise_count(xs & z_ref).astype(np.int64)
    scalar = (float(1 << c.r) / size) * (1 - 2 * (s0 ^ (ref & 1))) * _I_POWERS[ref & 3]
    ixz = _I_POWERS[np.bitwise_count(xs[:, None] & np.arange(size, dtype=np.int64)) & 3]
    rows = ixz * scalar[:, None] * v.reshape(len(xs), size)
    worst = float(np.max(np.abs(rows.imag)))
    if worst > 1e-12:
        raise RuntimeError(f"closed form has an imaginary part {worst!r} > 1e-12")
    out = np.zeros((size, size), dtype=np.float64)
    out[xs] = rows.real
    return PauliSpectrum(n, out.reshape(-1))


def shallow_spectrum(c: "CanonicalTableau", f: PhasePolynomial) -> PauliSpectrum:
    """Exact spectrum of (diagonal gate) applied to the canonicalized state."""
    n = c.n
    if n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"shallow_spectrum cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
    if f.n != n:
        raise ValidationError(f"gate on {f.n} qubits, state on {n}")
    vals, m = value_numerators(f)

    def phase_turns(xs, supp):
        return ((vals[supp] - vals[supp ^ xs[:, None]]) & ((1 << m) - 1)) / float(1 << m)

    return _closed_form(c, phase_turns)


def sqr_shallow_spectrum(c: "CanonicalTableau", w: RotationVector) -> PauliSpectrum:
    """Same spectrum for a single-qubit-rotation layer, no polynomial needed.

    Here theta(b) - theta(b^x) is linear: 2*(w on x).b - (w on x).1, so the
    masked phase vector is assembled directly from the angles.  Works for
    continuous angles; for dyadic angles it must agree with shallow_spectrum
    of the equivalent polynomial to near machine precision.
    """
    n = c.n
    if n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"sqr_shallow_spectrum cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
    if w.n != n:
        raise ValidationError(f"rotation on {w.n} qubits, state on {n}")
    qubits = np.arange(n)
    angles = np.asarray(w.angles(), dtype=np.float64)

    def phase_turns(xs, supp):
        bits = ((supp[:, None] >> qubits) & 1).astype(np.float64)  # [b, j]
        wx = ((xs[:, None] >> qubits) & 1) * angles  # [x, j]
        return 2.0 * (wx @ bits.T) - np.sum(wx, axis=1)[:, None]

    return _closed_form(c, phase_turns)


def f_alpha(s: PauliSpectrum, alpha: int = 2) -> float:
    """Magic functional F_alpha = sum |a|^(2 alpha), compensated summation."""
    if int(alpha) != alpha or alpha < 2:
        raise ValidationError(f"alpha must be an integer >= 2, got {alpha!r}")
    a2 = s.abs2()
    return math.fsum((a2 ** int(alpha)).tolist())


def sre(s: PauliSpectrum, alpha: int = 2) -> float:
    """Stabilizer Renyi entropy M_alpha; 0 exactly on stabilizer states."""
    f = f_alpha(s, alpha)
    a = int(alpha)
    return math.log2(f * 2.0 ** (-s.n * a)) / (1 - a) - s.n


def nullity(s: PauliSpectrum) -> float:
    """n - log2 of the number of unit-magnitude entries (|a| within 1e-9 of 1)."""
    count = int(np.count_nonzero(np.abs(np.abs(s.values) - 1.0) <= 1e-9))
    if count < 1:
        raise RuntimeError("no unit entries; identity entry should always qualify")
    return s.n - math.log2(count)


def support_size(s: PauliSpectrum, threshold: float = 1e-12) -> int:
    """Number of labels with |a|^2 above the threshold."""
    return int(np.count_nonzero(s.abs2() > threshold))


def flat_bound(n: int, alpha: int = 2) -> float:
    """Lower bound on F_alpha from flattening all non-identity weight:
    1 + (2**n - 1) * 2**(n (1 - alpha))."""
    if int(alpha) != alpha or alpha < 2:
        raise ValidationError(f"alpha must be an integer >= 2, got {alpha!r}")
    return 1.0 + (2.0 ** n - 1.0) * 2.0 ** (n * (1 - int(alpha)))


def stabilizer_max(n: int) -> float:
    """Upper bound on F_alpha over these circuits: the stabilizer value 2**n."""
    return float(1 << n)


def spectrum_csv_rows(s: PauliSpectrum) -> str:
    """CSV body, one line ``x_bits,z_bits,re,im,abs2`` per label, x-major.

    Qubit 1 is leftmost in the bit strings; entries are real, so ``im`` is
    always 0.0.  Each distinct value (keyed by its bits, so -0.0 stays apart
    from 0.0) is formatted once; ``abs(a) ** 2`` is kept as the abs2 formula
    because ``a * a`` can differ from it in the last bit.
    """
    labels = [format(v, f"0{s.n}b")[::-1] + "," for v in range(1 << s.n)]
    _, first, inv = np.unique(s.values.view(np.int64), return_index=True, return_inverse=True)
    tails = [f"{a!r},0.0,{abs(a) ** 2!r}\n" for a in s.values[first].tolist()]
    return "".join(
        [x + z + tails[k] for (x, z), k in zip(itertools.product(labels, repeat=2), inv.tolist())]
    )
