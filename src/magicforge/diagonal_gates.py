"""Diagonal gates as multilinear dyadic phase polynomials.

A diagonal gate acts on a computational basis state ``|b>`` as
``exp(2*pi*i * theta(b)) |b>`` with

    theta(b) = sum over terms (m, a, c) of  c / 2**m * prod_{j in a} b_j,

``a`` an n-bit monomial mask, ``c`` an integer numerator.  Phases are kept as
exact dyadic fractions (integer numerators over 2**m, in full turns); no
complex number is formed here.

Canonical form: at most one term per monomial ``a``, numerator odd, reduced
mod ``2**m``, and no constant (``a = 0``) term.  Constants are global phases
and would otherwise inflate the diagonal-hierarchy level of products like
``T * T^dagger``.  The hierarchy level of a term is ``(m - 1) + weight(a)``
and the level of a gate is the max over its canonical terms (0 for the empty
polynomial, i.e. the identity up to global phase).

Resolution is capped at m = 30 so value-table numerators stay inside int64.

A layer of single-qubit Z rotations (`RotationVector`) is one float angle
per qubit, in turns.  float64 holds every k / 2**m with m <= 30 exactly, so
a dyadic layer needs no second angle type.  A rotation layer is never read
or built as a polynomial: it has its own kernel, `transfer.rotate_layer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, ValidationError

MAX_RESOLUTION = 30
MAX_TABLE_QUBITS = 16
# qubits of a bit-mask label, tableau, Clifford circuit or rotation layer; it
# lives here, not in pauli_core, since pauli_core imports this module
MAX_QUBITS = 32


def whole_number(value, what: str) -> int:
    """``value`` as an int when it is a whole number, an integer or an
    integral float as JSON may give one; a bool or any other value is a
    ValidationError, so nothing is truncated."""
    if isinstance(value, float) and value.is_integer() \
            or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValidationError(f"{what} must be a whole number, got {value!r}")


def _normalize_terms(n: int, raw: Iterable[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """Merge arbitrary (m, a, c) triples into the canonical odd-numerator form."""
    full = (1 << n) - 1
    by_mask: dict[int, tuple[int, int]] = {}  # a -> (m, numerator) at that m
    for m, a, c in raw:
        if not type(m) is type(a) is type(c) is int:
            m, a, c = (whole_number(v, f"term {what}") for v, what in zip((m, a, c), "mac"))
        if not 1 <= m <= MAX_RESOLUTION:
            raise ValidationError(f"resolution m={m} outside 1..{MAX_RESOLUTION}")
        if not 0 <= a <= full:
            raise ValidationError(f"monomial mask {a:#x} out of range for n={n}")
        if a in by_mask:
            m0, c0 = by_mask[a]
            m1 = max(m0, m)
            by_mask[a] = (m1, (c0 << (m1 - m0)) + (c << (m1 - m)))
        else:
            by_mask[a] = (m, c)
    out: dict[tuple[int, int], int] = {}
    for a, (m, c) in by_mask.items():
        c %= 1 << m
        while c and c % 2 == 0:
            c >>= 1
            m -= 1
        if c == 0 or a == 0:
            continue  # exact identity / global phase
        out[(m, a)] = c
    return out


@dataclass(frozen=True)
class PhasePolynomial:
    """Canonical diagonal gate.  Treat instances as immutable values."""

    n: int
    terms: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            object.__setattr__(self, "n", whole_number(self.n, "polynomial n"))
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValidationError(f"n={self.n} outside 1..{MAX_QUBITS}")
        if isinstance(self.terms, Mapping):
            raw = [(m, a, c) for (m, a), c in self.terms.items()]
        else:
            raw = [tuple(t) for t in self.terms]
        object.__setattr__(self, "terms", _normalize_terms(self.n, raw))

    @property
    def m_max(self) -> int:
        """Common denominator exponent; 0 for the empty polynomial."""
        return max((m for m, _ in self.terms), default=0)

    def __repr__(self) -> str:  # keep debug output short and sorted
        body = ", ".join(
            f"{c}/2^{m}*b[{a:0{self.n}b}]" for (m, a), c in sorted(self.terms.items())
        )
        return f"PhasePolynomial(n={self.n}, {body or 'id'})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"m": m, "a": format(a, f"0{self.n}b")[::-1], "c": c}
                for (m, a), c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "PhasePolynomial":
        if extra := set(obj) - {"n", "terms"}:
            raise ValidationError(
                f"unknown gate JSON keys: {sorted(extra)}; a gate has 'n' and 'terms', and a "
                "rotation is its own {'sqr': {...}} circuit layer")
        try:
            n = whole_number(obj["n"], "gate n")
            raw = []
            for t in obj["terms"]:
                a_bits = str(t["a"])
                if len(a_bits) != n or set(a_bits) - {"0", "1"}:
                    raise ValidationError(f"bad monomial string {t['a']!r} for n={n}")
                # the JSON string puts qubit 1 leftmost
                a = int(a_bits[::-1], 2)
                raw.append((whole_number(t["m"], "term m"), a, whole_number(t["c"], "term c")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed gate JSON: {exc}") from exc
        return cls(n, raw)


def hierarchy_level(f: PhasePolynomial) -> int:
    """Diagonal Clifford-hierarchy level: max of (m - 1) + weight(a)."""
    return max(((m - 1) + a.bit_count() for (m, a) in f.terms), default=0)


def value_numerators(f: PhasePolynomial) -> tuple[np.ndarray, int]:
    """Value table of theta over all 2**n basis states.

    Returns integer numerators over the common denominator 2**M (M = m_max,
    but at least 1 so the denominator is meaningful for the identity).
    """
    if f.n > MAX_TABLE_QUBITS:
        raise CapacityError(f"value table needs 2**{f.n} entries; cap is n={MAX_TABLE_QUBITS}")
    m = max(f.m_max, 1)
    size = 1 << f.n
    vals = np.zeros(size, dtype=np.int64)
    b = np.arange(size, dtype=np.int64)
    for (tm, a), c in f.terms.items():
        vals += np.where((b & a) == a, c << (m - tm), 0)
    return vals & ((1 << m) - 1), m


def from_values(n: int, values, m: int) -> PhasePolynomial:
    """Recover the canonical polynomial from a value table of numerators.

    ``values[b]`` is theta(b) * 2**m mod 2**m.  Uses the subset Moebius
    transform; inverse of value_numerators up to the dropped constant term.
    """
    if not 1 <= m <= MAX_RESOLUTION:
        raise ValidationError(f"resolution m={m} outside 1..{MAX_RESOLUTION}")
    size = 1 << n
    if len(values) != size:
        raise ValidationError(f"value table has {len(values)} entries, expected {size}")
    mask = (1 << m) - 1
    coef = [int(v) & mask for v in values]
    for j in range(n):
        bit = 1 << j
        for b in range(size):
            if b & bit:
                coef[b] = (coef[b] - coef[b ^ bit]) & mask
    return PhasePolynomial(n, [(m, a, coef[a]) for a in range(1, size) if coef[a]])


@dataclass(frozen=True)
class RotationVector:
    """Per-qubit Z-rotation angles for a single-qubit-rotation layer.

    A layer has 1..MAX_QUBITS angles, each an int, a float or a numpy
    number (not a bool or a string).  They are stored as floats in turns,
    reduced into [0, 1): qubit j picks up ``exp(2*pi*i*w_j)`` on ``|1>``.
    Entry order follows qubits 1..n.  A float64 holds every dyadic angle
    k / 2**m with m <= MAX_RESOLUTION exactly, so `dyadic` stores into the
    same field.
    """

    n: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            object.__setattr__(self, "n", whole_number(self.n, "angle count"))
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValidationError(f"a rotation layer needs 1..{MAX_QUBITS} angles, got {self.n}")
        values = tuple(self.values)
        if len(values) != self.n:
            raise ValidationError(f"angle count {len(values)} != n={self.n}")
        for v in values:
            if not isinstance(v, (float, int, np.floating, np.integer)) or isinstance(v, bool):
                raise ValidationError(f"angles must be real numbers, got {v!r}")
        values = tuple(map(float, values))
        if not all(map(math.isfinite, values)):
            raise ValidationError(f"angles must be finite, got {list(values)!r}")
        # v % 1.0 rounds up to 1.0 for a tiny negative v; the second % maps it to 0.0
        object.__setattr__(self, "values", tuple(v % 1.0 % 1.0 for v in values))

    @classmethod
    def dyadic(cls, numerators, resolution: int) -> "RotationVector":
        """Angles k / 2**resolution, stored exactly; k and resolution are whole numbers."""
        ks = [whole_number(k, "rotation k") for k in numerators]
        resolution = whole_number(resolution, "rotation m")
        if not 1 <= resolution <= MAX_RESOLUTION:
            raise ValidationError(f"resolution {resolution} outside 1..{MAX_RESOLUTION}")
        scale = 1 << resolution
        return cls.continuous([k % scale / scale for k in ks])

    @classmethod
    def continuous(cls, values) -> "RotationVector":
        vals = tuple(values)
        return cls(len(vals), vals)

    def to_json(self) -> dict:
        return {"w": list(self.values)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "RotationVector":
        try:
            if "k" in obj:
                return cls.dyadic(obj["k"], obj["m"])
            if "w" in obj:
                return cls.continuous(obj["w"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed rotation JSON: {exc}") from exc
        raise ValidationError("rotation JSON needs either {'m','k'} or {'w'}")


_GATE_RECIPES = {
    "Z": (1, 1, 1),
    "S": (2, 1, 1),
    "T": (3, 1, 1),
    "CZ": (1, 2, 1),
    "CS": (2, 2, 1),
    "CCZ": (1, 3, 1),
}


def make_gate(name: str, qubits, n: int) -> PhasePolynomial:
    """Named diagonal gate on 1-based ``qubits`` inside an n-qubit register.

    ``CkZ`` accepts any number of qubits k >= 1 and means the k-controlled
    phase flip C^{k-1}Z (so k=1 is Z, k=2 is CZ, k=3 is CCZ).
    """
    qs = list(qubits)
    if len(set(qs)) != len(qs):
        raise ValidationError(f"repeated qubit in {qs}")
    for q in qs:
        if not 1 <= q <= n:
            raise ValidationError(f"qubit {q} outside 1..{n}")
    mask = 0
    for q in qs:
        mask |= 1 << (q - 1)
    key = name.upper()
    if key == "CKZ" or (key.endswith("Z") and set(key[:-1]) == {"C"} and len(key) > 3):
        if key != "CKZ" and len(qs) != len(key):
            raise ValidationError(f"{name} needs {len(key)} qubits, got {len(qs)}")
        if not qs:
            raise ValidationError("a controlled phase flip needs at least one qubit")
        return PhasePolynomial(n, [(1, mask, 1)])
    if key not in _GATE_RECIPES:
        raise ValidationError(f"unknown diagonal gate {name!r}")
    m, arity, c = _GATE_RECIPES[key]
    if len(qs) != arity:
        raise ValidationError(f"{name} needs {arity} qubits, got {len(qs)}")
    return PhasePolynomial(n, [(m, mask, c)])


def random_polynomial(n: int, rng: np.random.Generator, max_resolution: int = 4) -> PhasePolynomial:
    """Random canonical diagonal gate for sweeps: 1 to min(2**n - 1, n + 3)
    terms, which may normalize to fewer."""
    k = int(rng.integers(1, min((1 << n) - 1, n + 3) + 1))
    raw = []
    for _ in range(k):
        a = int(rng.integers(1, 1 << n))
        m = int(rng.integers(1, max_resolution + 1))
        c = int(rng.integers(1, 1 << m))
        raw.append((m, a, c))
    return PhasePolynomial(n, raw)
