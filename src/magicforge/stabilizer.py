"""Stabilizer tableaux with exact sign tracking.

A tableau holds n commuting, independent generator rows.  Row i is the signed
operator ``(-1)^h[i] * P(x_i, z_i)`` where the row label itself is kept at
``phase_exp = 0``; all sign information lives in the ``h`` bits.  Internally
the algorithms absorb ``h`` into ``phase_exp = 2*h`` so that ``pauli_mul``
composes rows exactly.

Canonical form: generators are re-chosen (row operations only, same group) so
the x-parts of the mixed rows are in reduced row echelon form with pivots in
ascending qubit order, followed by r pure-Z rows whose z-parts are in RREF.
r is the pure-Z rank; the state's support has 2**(n - r) basis states.

`tableau_expectation` reads the whole group, all 2**n products of the rows
from `transfer._group`, so it is capped at n = 16.  `canonicalize` no
longer reads the group (it only row-reduces, O(n**2) label products), but
it keeps the same n = 16 cap: every consumer of a canonical tableau stops
at or below it (the spectra at n = 8), so a higher cap would widen the
documented limit for no caller.  Plain tableau construction and row
validation work to the 32-qubit mask cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .diagonal_gates import whole_number
from .errors import CapacityError, ValidationError
from .pauli_core import (
    PauliLabel,
    commutes,
    pauli_from_text,
    pauli_mul,
    pauli_to_text,
    to_index,
)
from .transfer import CliffordOp, _fold, _group, random_clifford

MAX_CANONICAL_QUBITS = 16


def _f2_rank(vectors: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            rank += 1
    return rank


@dataclass(frozen=True)
class StabilizerTableau:
    """n signed commuting independent Pauli generators on n qubits."""

    n: int
    rows: tuple[PauliLabel, ...]
    h: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        h = tuple(int(b) & 1 for b in self.h)
        if len(rows) != self.n or len(h) != self.n:
            raise ValidationError(f"need exactly n={self.n} rows and sign bits")
        for i, row in enumerate(rows):
            if row.n != self.n:
                raise ValidationError(f"row {i} is on {row.n} qubits, tableau on {self.n}")
            if row.phase_exp != 0:
                raise ValidationError(f"row {i} must be a phase_exp=0 label; signs go in h")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if not commutes(rows[i], rows[j]):
                    raise ValidationError(f"rows {i} and {j} anticommute")
        vecs = [(row.x << self.n) | row.z for row in rows]
        if _f2_rank(vecs) != self.n:
            raise ValidationError("generator rows are not independent")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "h", h)

    def signed_rows(self) -> list[PauliLabel]:
        """Rows with the sign absorbed as phase_exp = 2*h, ready for pauli_mul."""
        return [
            PauliLabel(self.n, row.x, row.z, 2 * hb) for row, hb in zip(self.rows, self.h)
        ]

    def to_json(self) -> dict:
        gens = []
        for row, hb in zip(self.rows, self.h):
            text = pauli_to_text(PauliLabel(self.n, row.x, row.z, 2 * hb))
            gens.append(text)
        return {"n": self.n, "generators": gens}

    @classmethod
    def from_json(cls, obj: Mapping) -> "StabilizerTableau":
        try:
            n = whole_number(obj["n"], "tableau n")
            texts = list(obj["generators"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed tableau JSON: {exc}") from exc
        rows, h = [], []
        for s in texts:
            p = pauli_from_text(str(s), n)
            if p.phase_exp % 2 != 0:
                raise ValidationError(f"generator {s!r} has an imaginary sign")
            rows.append(PauliLabel(n, p.x, p.z, 0))
            h.append(p.phase_exp // 2)
        return cls(n, tuple(rows), tuple(h))


def zeros_tableau(n: int) -> StabilizerTableau:
    """|0...0>: generators Z_1 .. Z_n, all positive."""
    rows = tuple(PauliLabel(n, 0, 1 << j) for j in range(n))
    return StabilizerTableau(n, rows, (0,) * n)


def plus_tableau(n: int) -> StabilizerTableau:
    """|+...+>: generators X_1 .. X_n, all positive."""
    rows = tuple(PauliLabel(n, 1 << j, 0) for j in range(n))
    return StabilizerTableau(n, rows, (0,) * n)


def product_tableau(n: int, frozen: Mapping[int, int]) -> StabilizerTableau:
    """|v>_S tensor |+> elsewhere; ``frozen`` maps qubits 1..n to bits 0 or 1."""
    if not isinstance(frozen, Mapping):
        raise ValidationError("frozen must map 1-based qubit indices to bit values")
    bits = {}
    for q, bit in frozen.items():
        q, bit = whole_number(q, "frozen qubit"), whole_number(bit, "frozen bit")
        if not 1 <= q <= n:
            raise ValidationError(f"frozen qubit {q} outside 1..{n}")
        if bit not in (0, 1):
            raise ValidationError(f"frozen bit must be 0 or 1, got {bit}")
        bits[q - 1] = bit
    rows = [PauliLabel(n, 0, 1 << j) if j in bits else PauliLabel(n, 1 << j, 0) for j in range(n)]
    return StabilizerTableau(n, tuple(rows), tuple(bits.get(j, 0) for j in range(n)))


@dataclass(frozen=True)
class CanonicalTableau:
    """Canonicalized tableau: the re-chosen generators, mixed block first
    (x-parts in RREF), then r pure-Z rows (z-parts in RREF)."""

    n: int
    r: int
    rows: tuple[PauliLabel, ...]
    h: tuple[int, ...]


def _rref_rows(work: list[PauliLabel], n: int, start: int, part: str) -> int:
    """In-place RREF of work[start:] on the x or z part; returns pivot count."""
    count = start
    for bit in range(n):
        sel = None
        for i in range(count, len(work)):
            word = work[i].x if part == "x" else work[i].z
            if (word >> bit) & 1:
                sel = i
                break
        if sel is None:
            continue
        work[count], work[sel] = work[sel], work[count]
        for i in range(start, len(work)):
            if i == count:
                continue
            word = work[i].x if part == "x" else work[i].z
            if (word >> bit) & 1:
                work[i] = pauli_mul(work[i], work[count])
        count += 1
    return count - start


def canonicalize(t: StabilizerTableau) -> CanonicalTableau:
    """Block-canonical generators of the same group, with the pure-Z rank."""
    if t.n > MAX_CANONICAL_QUBITS:
        raise CapacityError(f"canonicalize cap is n={MAX_CANONICAL_QUBITS}, got {t.n}")
    work = t.signed_rows()
    n = t.n
    n_mixed = _rref_rows(work, n, 0, "x")
    for row in work[n_mixed:]:
        if row.x:
            raise RuntimeError("x elimination left a mixed row below the block")
    _rref_rows(work, n, n_mixed, "z")
    r = n - n_mixed

    rows, h = [], []
    for row in work:
        if row.phase_exp % 2 != 0:
            raise RuntimeError("canonicalization produced a non-Hermitian row")
        rows.append(PauliLabel(n, row.x, row.z, 0))
        h.append(row.phase_exp // 2)

    return CanonicalTableau(n, r, tuple(rows), tuple(h))


def pure_z_rank(t: StabilizerTableau) -> int:
    """Rank r of the pure-Z part, the kernel of the rows' x parts, so n minus
    their rank; n - r is the support dimension."""
    return t.n - _f2_rank([row.x for row in t.rows])


def is_graph_type(t: StabilizerTableau):
    """(flag, adjacency, signs) when the state is a signed graph state.

    Graph type means r = 0, so that the x-block reduces to the identity, and
    no row acts as Y on its own qubit (zero adjacency diagonal).  The adjacency,
    symmetric because the rows commute, is returned as n row masks, signs as
    the h bits of the graph generators.
    Returns (False, None, None) otherwise.
    """
    c = canonicalize(t)
    if c.r != 0:
        return False, None, None
    # at r = 0 the RREF x-block is the identity: row j is (-1)^h_j X_j Z^z_j
    adjacency = tuple(row.z for row in c.rows)
    if any((z >> j) & 1 for j, z in enumerate(adjacency)):
        return False, None, None
    return True, adjacency, tuple(c.h)


def tableau_expectation(t: StabilizerTableau, p: PauliLabel) -> int:
    """Signed expectation of a Hermitian label in the stabilizer state: -1, 0, +1."""
    if p.n != t.n:
        raise ValidationError(f"label on {p.n} qubits, tableau on {t.n}")
    if p.phase_exp % 2 != 0:
        raise ValidationError("expectation of a non-Hermitian label is not a sign")
    if t.n > MAX_CANONICAL_QUBITS:
        raise CapacityError(f"tableau_expectation cap is n={MAX_CANONICAL_QUBITS}, got {t.n}")
    label, sign = _group(t.n, t.rows, t.h)
    hit = np.flatnonzero(label == to_index(p))
    if not hit.size:
        return 0
    return -1 if sign[hit[0]] ^ (p.phase_exp >> 1) else 1


def canonical_frame(t: StabilizerTableau):
    """Clifford u_c (gates in application order) mapping the state to the
    frozen product form |0>^r tensor |+>^(n-r), plus that target tableau.

    Uses only CX, CZ, S, Z, X gates, so the induced basis-state map is affine.
    Returns (CliffordOp, StabilizerTableau).
    """
    c = canonicalize(t)
    n, r = c.n, c.r
    work = [PauliLabel(n, row.x, row.z, 2 * hb) for row, hb in zip(c.rows, c.h)]
    n_mixed = n - r
    gates: list[tuple] = []

    def emit(*gs: tuple) -> None:
        nonlocal work
        gates.extend(gs)
        rows = _fold(n, [(p.x, p.z, p.phase_exp >> 1) for p in work], gs)
        work = [PauliLabel(n, x, z, 2 * h) for x, z, h in rows]

    # 1) keep only the pivot column in each mixed row's x-part
    pivots = [(row.x & -row.x).bit_length() - 1 for row in work[:n_mixed]]
    for i in range(n_mixed):
        extra = work[i].x & ~(1 << pivots[i])
        for q in range(n):
            if (extra >> q) & 1:
                emit(("CX", pivots[i], q))
    # 2) move pivot i to qubit r + i via CX swaps
    perm = list(range(n))  # perm[qubit] = where that wire currently sits

    def swap(a: int, b: int) -> None:
        if a != b:
            emit(("CX", a, b), ("CX", b, a), ("CX", a, b))

    for i, piv in enumerate(sorted(pivots)):
        target = r + i
        cur = perm.index(piv)
        if cur != target:
            swap(cur, target)
            perm[cur], perm[target] = perm[target], perm[cur]
    # re-read mixed pivots; re-sort mixed rows into pivot order r..n-1
    work[:n_mixed] = sorted(work[:n_mixed], key=lambda row: row.x)
    # 3) pure rows now live on qubits 0..r-1; re-reduce their z-parts to I_r
    _rref_rows(work, n, n_mixed, "z")
    # 4) clear the z-parts of the mixed rows
    for i in range(n_mixed):
        q = r + i
        if (work[i].z >> q) & 1:
            emit(("S", q), ("Z", q))
        zrest = work[i].z & ~(1 << q)
        for other in range(n):
            if (zrest >> other) & 1:
                emit(("CZ", q, other))
    # 5) sign cleanup
    for i in range(n_mixed):
        if work[i].phase_exp == 2:
            emit(("Z", r + i))
    for j in range(n_mixed, n):
        if work[j].phase_exp == 2:
            lead = (work[j].z & -work[j].z).bit_length() - 1
            emit(("X", lead))

    for i in range(n_mixed):
        if work[i] != PauliLabel(n, 1 << (r + i), 0, 0):
            raise RuntimeError("frame reduction failed on a mixed row")
    for j in range(n_mixed, n):
        expect_z = 1 << (j - n_mixed)
        if work[j] != PauliLabel(n, 0, expect_z, 0):
            raise RuntimeError("frame reduction failed on a pure row")

    target = product_tableau(n, {q: 0 for q in range(1, r + 1)})
    return CliffordOp(n, tuple(gates)), target


def apply_clifford(t: StabilizerTableau, c: CliffordOp) -> StabilizerTableau:
    """Tableau of (circuit c)|state>: conjugate each generator forward."""
    if c.n != t.n:
        raise ValidationError(f"circuit on {c.n} qubits, tableau on {t.n}")
    rows = _fold(t.n, [(row.x, row.z, hb) for row, hb in zip(t.rows, t.h)], c.gates)
    labels = tuple(PauliLabel(t.n, x, z) for x, z, _ in rows)
    return StabilizerTableau(t.n, labels, tuple(h for _, _, h in rows))


def random_stabilizer(n: int, seed: int) -> StabilizerTableau:
    """Random stabilizer state, built by conjugating |0...0> through a random
    Clifford circuit of 3n^2 + 2n gates.  Deterministic in the seed."""
    circ = random_clifford(n, np.random.default_rng(seed), length=3 * n * n + 2 * n)
    return apply_clifford(zeros_tableau(n), circ)
