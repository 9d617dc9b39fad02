"""Stabilizer tableaux with exact sign tracking.

A tableau holds n commuting, independent signed rows ``(x, z, h)``: row i is
the operator ``(-1)^h * P(x, z)`` (Aaronson and Gottesman, PRA 70, 052328,
2004).  That is the row form `transfer._fold` and `transfer._group` take, so
the reductions start from ``t.rows`` as it is: a gate group is one fold of
the work list, and a row product is one `pauli_mul`, in `_row_mul`.

``t.r`` is the pure-Z rank, n minus the rank of the rows' x parts: the
support has 2**(n - r) basis states.  `canonicalize` re-chooses the rows
(row operations only, same group): the mixed rows first, x-parts in reduced
row echelon form with pivots in ascending qubit order, then the r pure-Z
rows, z-parts in RREF.  Every reduction starts with one x elimination of
``t.rows``, `_rref_rows`: `canonicalize` then z-reduces the pure rows,
`is_graph_type` reads the graph off the mixed rows, and `canonical_frame`
builds the affine Clifford taking the state to |0>^r |+>^(n-r) (Dehaene and
De Moor, PRA 68, 042318, 2003), z-reducing the pure rows once, after it has
moved them.

`tableau_expectation` reads the whole group, all 2**n products of the rows
from `transfer._group`, so it alone is capped at n = 16.  `canonicalize`,
`is_graph_type`, `canonical_frame`, plain tableau construction and row
validation, all O(n**2) row work, run to the 32-qubit mask cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .diagonal_gates import whole_number
from .errors import CapacityError, ValidationError
from .pauli_core import (
    MAX_QUBITS,
    PauliLabel,
    commutes,
    pauli_from_text,
    pauli_mul,
    pauli_to_text,
    to_index,
)
from .transfer import CliffordOp, _fold, _group, random_clifford

MAX_GROUP_QUBITS = 16


def _f2_rank(vectors: list[int]) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


@dataclass(frozen=True)
class StabilizerTableau:
    """n signed commuting independent Pauli generators on n qubits: row
    (x, z, h) is the operator (-1)^h P(x, z)."""

    n: int
    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n = whole_number(self.n, "tableau n")
        if not 1 <= n <= MAX_QUBITS:
            raise ValidationError(f"n={n} outside 1..{MAX_QUBITS}")
        object.__setattr__(self, "n", n)
        rows, labels = [], []
        for i, row in enumerate(self.rows):
            if not isinstance(row, (tuple, list)) or len(row) != 3:
                raise ValidationError(f"row {i} must be a triple (x, z, h), got {row!r}")
            p, h = PauliLabel(n, row[0], row[1]), whole_number(row[2], "sign bit")
            if h not in (0, 1):
                raise ValidationError(f"sign bits must be 0 or 1, got {row[2]!r} in row {i}")
            rows.append((p.x, p.z, h))
            labels.append(p)
        if len(rows) != n:
            raise ValidationError(f"need exactly n={n} rows, got {len(rows)}")
        for i in range(n):
            for j in range(i + 1, n):
                if not commutes(labels[i], labels[j]):
                    raise ValidationError(f"rows {i} and {j} anticommute")
        if _f2_rank([(x << n) | z for x, z, _ in rows]) != n:
            raise ValidationError("generator rows are not independent")
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def r(self) -> int:
        """Pure-Z rank: n minus the rank of the rows' x parts, so that the
        support has 2**(n - r) basis states."""
        return self.n - _f2_rank([x for x, _, _ in self.rows])

    def to_json(self) -> dict:
        gens = [pauli_to_text(PauliLabel(self.n, x, z, 2 * h)) for x, z, h in self.rows]
        return {"n": self.n, "generators": gens}

    @classmethod
    def from_json(cls, obj: Mapping) -> "StabilizerTableau":
        try:
            n = whole_number(obj["n"], "tableau n")
            texts = list(obj["generators"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed tableau JSON: {exc}") from exc
        rows = []
        for s in texts:
            p = pauli_from_text(str(s), n)
            if p.phase_exp % 2 != 0:
                raise ValidationError(f"generator {s!r} has an imaginary sign")
            rows.append((p.x, p.z, p.phase_exp >> 1))
        return cls(n, tuple(rows))


def zeros_tableau(n: int) -> StabilizerTableau:
    """|0...0>: generators Z_1 .. Z_n, all positive."""
    n = whole_number(n, "qubit count")
    return product_tableau(n, dict.fromkeys(range(1, n + 1), 0))


def plus_tableau(n: int) -> StabilizerTableau:
    """|+...+>: generators X_1 .. X_n, all positive."""
    return product_tableau(n, {})


def product_tableau(n: int, frozen: Mapping[int, int]) -> StabilizerTableau:
    """|v>_S tensor |+> elsewhere; ``frozen`` maps qubits 1..n to bits 0 or 1."""
    n = whole_number(n, "qubit count")
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
    return StabilizerTableau(n, tuple((0, 1 << j, bits[j]) if j in bits else (1 << j, 0, 0)
                                      for j in range(n)))


def _row_mul(n: int, a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product of two commuting signed rows (x, z, h), as a signed row."""
    p = pauli_mul(PauliLabel(n, a[0], a[1], 2 * a[2]), PauliLabel(n, b[0], b[1], 2 * b[2]))
    if p.phase_exp & 1:
        raise RuntimeError("row product with an imaginary phase")
    return p.x, p.z, p.phase_exp >> 1


def _rref_rows(work: list[tuple[int, int, int]], n: int, start: int, part: str) -> int:
    """In-place RREF of the signed rows work[start:] on their x or z part;
    returns the pivot count."""
    k = "xz".index(part)
    count = start
    for bit in range(n):
        sel = next((i for i in range(count, len(work)) if (work[i][k] >> bit) & 1), None)
        if sel is None:
            continue
        work[count], work[sel] = work[sel], work[count]
        for i in range(start, len(work)):
            if i != count and (work[i][k] >> bit) & 1:
                work[i] = _row_mul(n, work[i], work[count])
        count += 1
    return count - start


def canonicalize(t: StabilizerTableau) -> StabilizerTableau:
    """Block-canonical generators of the same group, as a tableau."""
    n = t.n
    work = list(t.rows)
    n_mixed = _rref_rows(work, n, 0, "x")
    if any(x for x, _, _ in work[n_mixed:]):
        raise RuntimeError("x elimination left a mixed row below the block")
    _rref_rows(work, n, n_mixed, "z")
    return StabilizerTableau(n, tuple(work))


def is_graph_type(t: StabilizerTableau):
    """(flag, adjacency, signs) when the state is a signed graph state.

    Graph type means r = 0, so that the x-block reduces to the identity, and
    no row acts as Y on its own qubit (zero adjacency diagonal).  The adjacency,
    symmetric because the rows commute, is returned as n row masks, signs as
    the h bits of the graph generators.
    Returns (False, None, None) otherwise.
    """
    work = list(t.rows)
    if _rref_rows(work, t.n, 0, "x") != t.n:
        return False, None, None
    # at r = 0 the RREF x-block is the identity: row j is (-1)^h_j X_j Z^z_j
    adjacency = tuple(z for _, z, _ in work)
    if any((z >> j) & 1 for j, z in enumerate(adjacency)):
        return False, None, None
    return True, adjacency, tuple(h for _, _, h in work)


def tableau_expectation(t: StabilizerTableau, p: PauliLabel) -> int:
    """Signed expectation of a Hermitian label in the stabilizer state: -1, 0, +1."""
    if p.n != t.n:
        raise ValidationError(f"label on {p.n} qubits, tableau on {t.n}")
    if p.phase_exp % 2 != 0:
        raise ValidationError("expectation of a non-Hermitian label is not a sign")
    if t.n > MAX_GROUP_QUBITS:
        raise CapacityError(f"tableau_expectation cap is n={MAX_GROUP_QUBITS}, got {t.n}")
    label, sign = _group(t.n, t.rows)
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
    n = t.n
    work = list(t.rows)
    n_mixed = _rref_rows(work, n, 0, "x")
    r = n - n_mixed
    gates: list[tuple] = []

    def emit(*gs: tuple) -> None:
        gates.extend(gs)
        work[:] = _fold(n, work, gs)

    # 1) keep only the pivot column in each mixed row's x-part
    pivots = [(x & -x).bit_length() - 1 for x, _, _ in work[:n_mixed]]
    for i, piv in enumerate(pivots):
        extra = work[i][0] & ~(1 << piv)
        emit(*(("CX", piv, q) for q in range(n) if (extra >> q) & 1))
    # 2) move pivot i to qubit r + i via CX swaps
    perm = list(range(n))  # perm[qubit] = where that wire currently sits
    for i, piv in enumerate(sorted(pivots)):
        cur, target = perm.index(piv), r + i
        if cur != target:
            emit(("CX", cur, target), ("CX", target, cur), ("CX", cur, target))
            perm[cur], perm[target] = perm[target], perm[cur]
    # re-sort mixed rows into pivot order r..n-1 (their x-parts are distinct)
    work[:n_mixed] = sorted(work[:n_mixed])
    # 3) pure rows now live on qubits 0..r-1; reduce their z-parts to I_r
    _rref_rows(work, n, n_mixed, "z")
    # 4) clear the z-parts of the mixed rows: S Z takes a Y on qubit q back to
    # X, and CZ(q, o) clears z_o; only row i has an x bit on q
    for i in range(n_mixed):
        q, z = r + i, work[i][1]
        y = [("S", q), ("Z", q)] if (z >> q) & 1 else []
        emit(*y, *(("CZ", q, o) for o in range(n) if o != q and (z >> o) & 1))
    # 5) sign cleanup: rows are now X_(r+i) and Z_j, so each gate flips one sign
    emit(*[("Z", r + i) for i, (_, _, h) in enumerate(work[:n_mixed]) if h],
         *[("X", (z & -z).bit_length() - 1) for _, z, h in work[n_mixed:] if h])

    # the target lists the pure rows Z_1 .. Z_r first, the work list last
    target = product_tableau(n, dict.fromkeys(range(1, r + 1), 0))
    if work[n_mixed:] + work[:n_mixed] != list(target.rows):
        raise RuntimeError("frame reduction failed to reach the product form")
    return CliffordOp(n, tuple(gates)), target


def apply_clifford(t: StabilizerTableau, c: CliffordOp) -> StabilizerTableau:
    """Tableau of (circuit c)|state>: conjugate each generator forward."""
    if c.n != t.n:
        raise ValidationError(f"circuit on {c.n} qubits, tableau on {t.n}")
    return StabilizerTableau(t.n, _fold(t.n, t.rows, c.gates))


def random_stabilizer(n: int, seed: int) -> StabilizerTableau:
    """Random stabilizer state, built by conjugating |0...0> through a random
    Clifford circuit of 3n^2 + 2n gates.  Deterministic in the seed."""
    circ = random_clifford(n, np.random.default_rng(seed), length=3 * n * n + 2 * n)
    return apply_clifford(zeros_tableau(n), circ)
