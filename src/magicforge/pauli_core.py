"""Exact phase-tracked Pauli labels on machine-word bit masks.

Conventions used everywhere in this package:

* A label stores ``i**phase_exp * P(x, z)`` with ``P(x, z) = i**(x.z) X^x Z^z``,
  where ``x`` and ``z`` are n-bit masks and ``x.z`` means the integer dot
  product ``popcount(x & z)``.  The ``i**(x.z)`` prefactor makes every
  ``P(x, z)`` Hermitian, so Hermiticity of a label is just ``phase_exp`` even.
* Bit j of a mask is qubit j+1; qubit 1 is the least significant bit.  In the
  text form qubit 1 is printed leftmost, so for one qubit the index order
  ``x*2**n + z`` runs I, Z, X, Y.
* ``phase_exp`` lives in Z_4 and is never materialized as a complex number.

Single-qubit letters: (x, z) = (0,0) I, (1,0) X, (0,1) Z, (1,1) Y.
Masks are capped at 32 qubits so they stay comfortably inside machine words
when handed to numpy; nothing here allocates anything of size 2**n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagonal_gates import MAX_QUBITS, whole_number
from .errors import ValidationError

_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_MASK_BITS = {v: k for k, v in _LETTER.items()}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True, slots=True)
class PauliLabel:
    """One phase-tracked Pauli operator, ``i**phase_exp * P(x, z)``."""

    n: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if not type(self.n) is type(self.x) is type(self.z) is type(self.phase_exp) is int:
            for name in ("n", "x", "z", "phase_exp"):
                object.__setattr__(self, name, whole_number(getattr(self, name), f"label {name}"))
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValidationError(f"n={self.n} outside 1..{MAX_QUBITS}")
        full = (1 << self.n) - 1
        if not 0 <= self.x <= full or not 0 <= self.z <= full:
            raise ValidationError(
                f"mask out of range for n={self.n}: x={self.x:#x} z={self.z:#x}"
            )
        object.__setattr__(self, "phase_exp", self.phase_exp & 3)


def pauli_mul(p: PauliLabel, q: PauliLabel) -> PauliLabel:
    """Exact product of two labels.

    The phase of ``P(x,z) P(x',z')`` relative to ``P(x^x', z^z')`` is
    ``x.z + x'.z' + 2*(z.x') - (x^x').(z^z')`` mod 4, with integer dot
    products.  Input ``phase_exp`` values add on top.
    """
    if p.n != q.n:
        raise ValidationError(f"qubit count mismatch: {p.n} vs {q.n}")
    xs, zs = p.x ^ q.x, p.z ^ q.z
    phi = (
        (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count()
        - (xs & zs).bit_count()
    )
    return PauliLabel(p.n, xs, zs, (p.phase_exp + q.phase_exp + phi) & 3)


def symplectic_form(p: PauliLabel, q: PauliLabel) -> int:
    """Binary symplectic form x.z' + z.x' mod 2; 0 means commuting."""
    if p.n != q.n:
        raise ValidationError(f"qubit count mismatch: {p.n} vs {q.n}")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1


def commutes(p: PauliLabel, q: PauliLabel) -> bool:
    return symplectic_form(p, q) == 0


def to_index(p: PauliLabel) -> int:
    """Flat index x * 2**n + z into a length-4**n spectrum array."""
    return (p.x << p.n) | p.z


def pauli_to_text(p: PauliLabel) -> str:
    """Render as ``±[i]<letters>`` with qubit 1 leftmost, e.g. ``-iXZI``."""
    letters = []
    for j in range(p.n):
        letters.append(_LETTER[(p.x >> j) & 1, (p.z >> j) & 1])
    return _PHASE_PREFIX[p.phase_exp] + "".join(letters)


def pauli_from_text(text: str, n: int | None = None) -> PauliLabel:
    """Parse the ``±[i]<letters>`` form.  A missing sign prefix means ``+``."""
    s = text.strip()
    phase = 0
    if s.startswith("+i") or s.startswith("-i"):
        phase = 1 if s[0] == "+" else 3
        s = s[2:]
    elif s.startswith("+") or s.startswith("-"):
        phase = 0 if s[0] == "+" else 2
        s = s[1:]
    if not s:
        raise ValidationError(f"no Pauli letters in {text!r}")
    x = z = 0
    for j, ch in enumerate(s):
        if ch not in _MASK_BITS:
            raise ValidationError(f"bad Pauli letter {ch!r} in {text!r}")
        xb, zb = _MASK_BITS[ch]
        x |= xb << j
        z |= zb << j
    if n is not None and n != len(s):
        raise ValidationError(f"expected {n} letters, got {len(s)} in {text!r}")
    return PauliLabel(len(s), x, z, phase)
