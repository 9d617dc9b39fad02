"""Exact Pauli spectra of diagonal gates on stabilizer states, and the
magic functionals evaluated on spectra.

A spectrum entry is a(x, z) = <psi| P(x, z) |psi> with the Hermitian label
P(x, z) = i^(x.z) X^x Z^z, so every entry of every spectrum is real.

`shallow_spectrum` is the paper's ansatz 1, a stabilizer state followed by
one diagonal gate: the circuit fold (`transfer.ParsedCircuit.spectrum`) of
that one gate layer from the tableau's rows, canonical or not.

`spectrum_csv_rows` formats a spectrum as CSV text: the distinct values
are formatted once, up front, and the rows are then handed out in pieces
of whole x sectors, about 1024 rows each, so the text of a whole body is
never held in memory at once.

Dense enumeration is capped at n = 8 (4**n = 65536 entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .diagonal_gates import PhasePolynomial
from .errors import CapacityError, ValidationError
from .stabilizer import StabilizerTableau
from .transfer import MAX_SPECTRUM_QUBITS, ParsedCircuit


@dataclass(frozen=True)
class PauliSpectrum:
    """All 4**n real Pauli expectations of a pure state, indexed x * 2**n + z.

    The input is copied once and the copy marked read-only, so no array or
    view the caller holds can change ``values`` or the moments that
    `f_alpha` memoises on the instance.  Complex input is rejected.
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
        vals = np.array(self.values, dtype=np.float64)
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
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def abs2(self) -> np.ndarray:
        return self.values * self.values


def shallow_spectrum(t: StabilizerTableau, f: PhasePolynomial) -> PauliSpectrum:
    """Exact spectrum of (diagonal gate) applied to the stabilizer state: the
    circuit fold of one gate layer from its rows."""
    # a t that is no tableau fails the circuit's own check
    return ParsedCircuit(getattr(t, "n", None), t, (("gate", f),)).spectrum()


_SUPPORT_THRESHOLD = 1e-12

# rows per piece of CSV text: at most about 75 KB at n <= 10, so that no
# piece outgrows 128 KiB
_CSV_BLOCK_ROWS = 1024

# below this many entries (spectra at n <= 5) one math.fsum over a list beats
# the kernel's fixed numpy cost
_EXACT_SUM_CUT = 4096
# entries per pass, so that no temporary outgrows 128 KiB
_EXACT_SUM_CHUNK = 16384
# bucket totals stay exact for at most 2**26 entries
_EXACT_SUM_MAX = 1 << 26
# 2**26 entries below 2**997 in magnitude cannot overflow any partial sum
_EXACT_SUM_PEAK = 2.0 ** 997
# one bucket per frexp exponent, -1073 (subnormals) to 997
_EXACT_SUM_BUCKETS = 1074 + 998


def exact_sum(x) -> float:
    """``math.fsum(x)``, bit for bit, without a Python float per entry.

    Each entry splits exactly, by `np.frexp`, into x = (hi + lo) 2**(e - 27)
    with an integer hi in [-2**27, 2**27) and lo a multiple of 2**-26 in
    [0, 1).  `np.bincount` adds the hi and the lo halves per exponent e.
    Every partial sum of N entries is a whole number of units (1 for hi,
    2**-26 for lo) of magnitude at most N 2**27 units, so for N <= 2**26 it
    stays within 2**53 units and each bucket total is exact, and so is
    scaling it back with `np.ldexp`.  (A spectrum has at most 4**8 = 2**16
    entries.)  One `math.fsum` of those few exact parts, two per binade
    present, is the correctly rounded sum of x: what `math.fsum(x)` returns.

    Inputs below `_EXACT_SUM_CUT` entries, above 2**26 entries, with a
    non-finite entry or with one of magnitude 2**997 or more (where
    `math.fsum` may overflow part way) go to `math.fsum` unchanged, which
    keeps its value or its exception.  Either way `math.fsum` is called
    exactly once.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if not (_EXACT_SUM_CUT <= x.size <= _EXACT_SUM_MAX
            and -_EXACT_SUM_PEAK < x.min() and x.max() < _EXACT_SUM_PEAK):
        return math.fsum(x.tolist())
    totals = np.zeros((2, _EXACT_SUM_BUCKETS))  # hi and lo totals per bucket
    for start in range(0, x.size, _EXACT_SUM_CHUNK):
        mant, exp = np.frexp(x[start:start + _EXACT_SUM_CHUNK])  # 1/2 <= |mant| < 1, or 0
        mant *= 2.0 ** 27
        hi = np.floor(mant)
        mant -= hi  # lo
        exp = np.add(exp, 1074, dtype=np.intp)  # bucket index, as bincount takes it
        totals[0] += np.bincount(exp, weights=hi, minlength=_EXACT_SUM_BUCKETS)
        totals[1] += np.bincount(exp, weights=mant, minlength=_EXACT_SUM_BUCKETS)
    k = np.flatnonzero(totals)
    parts = np.ldexp(totals.ravel()[k], k % _EXACT_SUM_BUCKETS - (1074 + 27))
    return math.fsum(parts.tolist())


def _check_alpha(alpha) -> int:
    """``alpha`` as an int, when it is a whole number >= 2 (not None, NaN or inf)."""
    try:
        if int(alpha) == alpha and alpha >= 2:
            return int(alpha)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"alpha must be an integer >= 2, got {alpha!r}")


def f_alpha(s: PauliSpectrum, alpha: int = 2) -> float:
    """Magic functional F_alpha = sum |a|^(2 alpha), exactly rounded
    (`exact_sum`); each moment is summed once per spectrum."""
    a = _check_alpha(alpha)
    if a not in s._moments:
        m = s.abs2()
        m **= a  # in place: one 4**n temporary, not two
        s._moments[a] = exact_sum(m)
    return s._moments[a]


def sre(s: PauliSpectrum, alpha: int = 2) -> float:
    """Stabilizer Renyi entropy M_alpha = (log2 F - n) / (1 - alpha); 0
    exactly on stabilizer states.

    While n alpha <= 1022, F >= 1 keeps the scaled F 2**(-n alpha) a normal
    float, and that form is the one evaluated; past it the scaled value is
    subnormal or 0, and the equal log form is evaluated instead.
    """
    f = f_alpha(s, alpha)
    a = int(alpha)
    if s.n * a > 1022:
        return (math.log2(f) - s.n) / (1 - a)
    return math.log2(f * 2.0 ** (-s.n * a)) / (1 - a) - s.n


def nullity(s: PauliSpectrum) -> float:
    """n - log2 of the number of unit-magnitude entries (|a| within 1e-9 of 1)."""
    count = int(np.count_nonzero(np.abs(np.abs(s.values) - 1.0) <= 1e-9))
    if count < 1:
        raise RuntimeError("no unit entries; identity entry should always qualify")
    return s.n - math.log2(count)


def support_size(s: PauliSpectrum) -> int:
    """Number of labels with |a|^2 above `_SUPPORT_THRESHOLD`."""
    return int(np.count_nonzero(s.abs2() > _SUPPORT_THRESHOLD))


def flat_bound(n: int, alpha: int = 2) -> float:
    """1 + (2**n - 1) * 2**(n (1 - alpha)), F_alpha with all non-identity weight
    flattened: the floor for one diagonal layer on a stabilizer state, and not
    past depth 1 (at n = 1 two optimized rotation layers from |+> reach
    F_2 = 1.375 < 1.5; every one-qubit state has F_2 >= 4/3)."""
    return 1.0 + (2.0 ** n - 1.0) * 2.0 ** (n * (1 - _check_alpha(alpha)))


def stabilizer_max(n: int) -> float:
    """Upper bound on F_alpha over these circuits: the stabilizer value 2**n."""
    return float(1 << n)


def spectrum_csv_rows(s: PauliSpectrum) -> Iterator[str]:
    """CSV body, one line ``x_bits,z_bits,re,im,abs2`` per label, x-major,
    as an iterator of pieces.

    Qubit 1 is leftmost in the bit strings; entries are real, so ``im`` is
    always 0.0.  Each distinct value (keyed by its bits, so -0.0 stays apart
    from 0.0) is formatted once; ``abs(a) ** 2`` is kept as the abs2 formula
    because ``a * a`` can differ from it in the last bit.  The distinct keys
    come from one sort and each label finds its key by binary search in
    them, all before this returns.  Each piece is then joined on demand from
    the cells of one block of whole x sectors, `_CSV_BLOCK_ROWS` rows (or all
    of them, when fewer), so no text larger than one block is ever held.
    """
    size = 1 << s.n
    labels = np.array([format(v, f"0{s.n}b")[::-1] + "," for v in range(size)], dtype=object)
    keys = s.values.view(np.int64)
    distinct = np.sort(keys)
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    tails = np.array([f"{a!r},0.0,{abs(a) ** 2!r}\n" for a in distinct.view(np.float64).tolist()],
                     dtype=object)
    inverse = np.searchsorted(distinct, keys).reshape(size, size)
    return _csv_blocks(labels, tails, inverse, max(1, min(size, _CSV_BLOCK_ROWS // size)))


def _csv_blocks(labels: np.ndarray, tails: np.ndarray, inverse: np.ndarray,
                sectors: int) -> Iterator[str]:
    """The rows of ``sectors`` x sectors at a time, each block gathered into
    three cells per row (x bits, z bits, the rest) and joined once."""
    size = len(labels)
    cells = np.empty((sectors, size, 3), dtype=object)
    cells[:, :, 1] = labels
    for x in range(0, size, sectors):
        cells[:, :, 0] = labels[x:x + sectors, None]
        cells[:, :, 2] = tails[inverse[x:x + sectors]]
        yield "".join(cells.ravel().tolist())
