"""Exact Pauli spectra of diagonal gates on stabilizer states, and the
magic functionals evaluated on spectra.

A spectrum entry is a(x, z) = <psi| P(x, z) |psi> with the Hermitian label
P(x, z) = i^(x.z) X^x Z^z, so every entry of every spectrum is real.

`shallow_spectrum` is the paper's ansatz 1, a stabilizer state followed by
one diagonal gate.  It starts from the state's exact spectrum, +-1 on its
2**n group elements and 0 elsewhere, and pushes it through the gate with
`transfer.phase_layer`: in each x sector a Walsh-Hadamard transform over z,
the gate's phase differences e^(2 pi i (theta(b) - theta(b^x))), and the
transform back, all sectors in one batch.  The result is checked to be real
to 1e-12.

Dense enumeration is capped at n = 8 (4**n = 65536 entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .diagonal_gates import PhasePolynomial
from .errors import CapacityError, ValidationError
from .transfer import _group_values, phase_layer

if TYPE_CHECKING:
    from .stabilizer import CanonicalTableau

MAX_SPECTRUM_QUBITS = 8


@dataclass(frozen=True)
class PauliSpectrum:
    """All 4**n real Pauli expectations of a pure state, indexed x * 2**n + z.

    The spectrum takes its array over: a float64 array that owns its data is
    marked read-only in place, and any other input is copied once, so
    neither ``values`` nor the moments that `f_alpha` memoises on the
    instance can change afterwards.  Complex input is rejected.
    Construction checks sum a^2 = 2**n (pairwise summation, whose rounding
    error at n = 8 is below 1e-12) and a = 1 at the identity label, to 1e-9;
    a NaN or infinite entry fails the first check.
    """

    n: int
    values: np.ndarray
    _moments: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
        # written as `not <=` so that a NaN total is rejected too
        total = float(np.sum(vals * vals))
        if not abs(total - float(1 << self.n)) <= 1e-9:
            raise ValidationError(f"spectrum norm {total!r} != 2**n")
        if not abs(vals[0] - 1.0) <= 1e-9:
            raise ValidationError(f"identity entry is {vals[0]!r}, expected 1")
        if not vals.flags.owndata:
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def abs2(self) -> np.ndarray:
        return self.values * self.values

    def entry(self, x: int, z: int) -> float:
        return self.values[(x << self.n) | z]


def shallow_spectrum(c: "CanonicalTableau", f: PhasePolynomial) -> PauliSpectrum:
    """Exact spectrum of (diagonal gate) applied to the canonicalized state."""
    n = c.n
    if n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"shallow_spectrum cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
    if f.n != n:
        raise ValidationError(f"gate on {f.n} qubits, state on {n}")
    return PauliSpectrum(n, phase_layer(_group_values(c), f))


def f_alpha(s: PauliSpectrum, alpha: int = 2) -> float:
    """Magic functional F_alpha = sum |a|^(2 alpha), compensated summation;
    each moment is summed once per spectrum."""
    if int(alpha) != alpha or alpha < 2:
        raise ValidationError(f"alpha must be an integer >= 2, got {alpha!r}")
    a = int(alpha)
    if a not in s._moments:
        s._moments[a] = math.fsum((s.abs2() ** a).tolist())
    return s._moments[a]


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
    size = 1 << s.n
    labels = [format(v, f"0{s.n}b")[::-1] + "," for v in range(size)]
    _, first, inv = np.unique(s.values.view(np.int64), return_index=True, return_inverse=True)
    tails = [f"{a!r},0.0,{abs(a) ** 2!r}\n" for a in s.values[first].tolist()]
    # three cells per row (x bits, z bits, the rest), joined once
    cells = [""] * (3 * size * size)
    cells[0::3] = [x for x in labels for _ in range(size)]
    cells[1::3] = labels * size
    cells[2::3] = [tails[k] for k in inv.tolist()]
    return "".join(cells)
