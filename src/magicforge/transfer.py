"""Transfer of Pauli spectra through Clifford + rotation blocks and
diagonal gates.

A block is a Clifford circuit C followed by a layer of single-qubit Z
rotations U_w.  For the output state the spectrum entry at label (x, z) is

    a'(x, z) = sum over submasks u of x of
               Gamma_x(u; w) * (-1)^(|u| + u.z) * sgn * a(pre(x, z^u))

where (sgn, pre) come from conjugating P(x, z^u) by C^dagger with exact signs,
and Gamma_x(u; w) multiplies cos(2 pi w_j) on qubits of x outside u and
sin(2 pi w_j) on qubits inside u.  Everything is derived in the Heisenberg
picture (conjugate the observable, keep the state), which fixes the
(-1)^|u| sign.

Gamma and the sign both factor over qubits, so the submask sum is a product
of n commuting 2x2 rotations: qubit j maps the pair (p, q) of entries at
(x_j, z_j) = (1, 0) and (1, 1) to (c p - s q, s p + c q), with
c, s = cos, sin(2 pi w_j), and leaves entries with x_j = 0 alone.  In
sector x the layer is thus the Kronecker product of R_j = [[c, -s], [s, c]]
over the qubits of x, acting on z, and it factors over the two halves of
the qubits as A[x_hi] (x) B[x_lo] (Van Loan, J. Comput. Appl. Math. 123,
2000).  `rotate_layer` builds the two stacks of 2**h and 2**l small
matrices by doubling and applies them as two batched matrix products:
4**n (2**l + 2**h) multiply-adds on contiguous blocks.  `xy_pair`, the one
place that knows where qubit j's pairs sit in the x * 2**n + z layout, and
`_turn`, one such pair update, take a leading row axis, each row with its
own angle.  They serve only the optimizer's
one-angle steps: its sweeps turn one qubit of every start at once, and
`objective_grad` reads each qubit's pairs.

A diagonal gate with phase function theta goes through `phase_layer`.  In
sector x the spectrum is i^(x.z) times the Walsh-Hadamard transform over z
of u_x[b] = conj(psi[b^x]) psi[b], and the gate multiplies u_x[b] by
e^(2 pi i (theta(b) - theta(b^x))): one batched in-place transform
(`_fwht`) there, the phase factors, and one back, O(n 4**n) work on any real
vector.  A rotation layer always goes through the real `rotate_layer`,
whose one-qubit pair turns the optimizer minimises in closed form; no
reader turns a rotation into a gate, and on dyadic angles the two kernels
agree.  The i^(x.z) exponents of all 4**n labels (`_xz_phase`, one uint8
each) are built once per n.

Every Clifford conjugation goes through one kernel, `_fold`: it pushes
signed Hermitian rows (-1)^h P(x, z) forward, C (.) C^dagger, as a
bit-sliced stabilizer tableau with the Aaronson-Gottesman update per gate
(quant-ph/0406196).  `stabilizer.apply_clifford` and `canonical_frame`
fold tableau rows, `theorems.conjugate_diagonal_by_frame` folds the n
generators Z_i, and the optimizer's pool scores fold each candidate's n
Z generators back.
`CliffordOp.heisenberg_table` builds the lookup table for all 4**n labels:
it folds only the 2n generators Z_k and X_j back through the gates (the
fold walks them in reverse, with S as S^dagger) and hands their images to
the product kernel.  `CliffordOp` is frozen and keeps no table: each
application builds one, so a pipeline's results hold one spectrum per
layer.

Every product over all subsets of a row list goes through one kernel,
`_products`: entry s is the product of the rows whose bits are set in s,
filled by doubling, one multiplication per new entry.  Its phase is a GF(2)
quadratic form (Dehaene and De Moor, PRA 68, 042318, 2003): each new row g
adds its own phase plus a cross term 2 z_g.x from the entry it multiplies.
The Heisenberg table is the kernel on the 2n generator images, and a
stabilizer group is the kernel on its n tableau rows (`_group`), which is
how the circuit fold and `stabilizer.tableau_expectation` read the group.

A whole circuit is one fold over its layers (`ParsedCircuit.spectrum`), the
only code that turns a stabilizer state into a spectrum: `initial_spectrum`
is the fold of no layer, and `spectrum.shallow_spectrum` the fold of one
gate layer.  Leading Clifford layers `_fold` the signed
initial rows, O(gates n); the rows were validated when the tableau was
built, and a Clifford keeps them a valid tableau.  From their +-1 group
vector, a later Clifford layer is a Heisenberg-table gather, ``sqr`` is
`rotate_layer` and ``gate`` is `phase_layer`, in any order, through one step
(`_apply_layers`), which also folds a `LayerBlock` as its two layers,
`LayerBlock.layers`.  That step dispatches on a layer's kind alone, so a
circuit and a block check each kind against its object's type once, when
built (`_check_kinds`).  The cap is checked before the first 4**n array, and
the result is checked once, at the end, by `_computed`: from checked input
every layer keeps the norm, so a result that fails the `PauliSpectrum`
check is a fault of the fold (RuntimeError), not bad input; `apply_block`
ends the same way.  The dense oracle only checks.  One reader,
`_layer_from_json`, parses the layer bodies of circuit JSON, and
`_layer_to_json` writes them back (`nogo` echoes its layers with it); a
``gate`` body has only ``terms`` and an optional ``n``.
`circuit_from_json` names any key other than ``n``, ``initial`` and
``layers``, and leaves every size check to `ParsedCircuit`.

`random_clifford` keeps the stream of its Generator calls (``random``, then
``choice(n, 2, replace=False)`` and ``integers(2)``, or ``integers(4)`` and
``integers(n)``) but takes those draws from the bit generator's C functions
under its lock: ``random()`` is one ``next_double``, ``integers(k)`` one
Lemire draw on ``next_uint32`` with numpy's rejection step (`_below`;
Lemire, ACM TOMACS 29, 2019), and the choice Floyd's sample (Bentley and
Floyd, CACM 30, 1987) with numpy's closing swap.  Its gates are the shared
canonical tuples of `_gate_table`, built once per n, and `CliffordOp`
validates each gate by a lookup there, falling back to `_gate_qubits` and
its messages on a miss.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .pauli_core import MAX_QUBITS
from .diagonal_gates import PhasePolynomial, RotationVector, value_numerators, whole_number

if TYPE_CHECKING:
    from .stabilizer import StabilizerTableau
    from .spectrum import PauliSpectrum

# the one cap on 4**n arrays: spectra, label tables, the fold, the transfer
# and the theorem certificates all check it (the oracle keeps its own)
MAX_SPECTRUM_QUBITS = 8

_CLIFFORD_GATES = ("H", "S", "X", "Z", "CX", "CZ")

_I_POWERS = np.array([1, 1j, -1, -1j])

# entries of `phase_layer`'s work array per factor step: 64 KiB of complex
# temporaries, below glibc's 128 KiB mmap threshold
_PHASE_BLOCK = 4096


@functools.cache
def _xz_phase(n: int) -> np.ndarray:
    """popcount(x & z) & 3 at every flat label x << n | z: the power of i in
    P(x, z) = i**(x.z) X^x Z^z.  Built once per n, as read-only uint8 (one
    byte per label: 64 KiB at n = 8)."""
    v = np.arange(1 << (2 * n), dtype=np.int64)
    table = np.bitwise_count((v >> n) & v) & 3
    table.flags.writeable = False
    return table


@functools.cache
def _gate_table(n: int) -> tuple[dict, list]:
    """(by_gate, by_code): every valid gate on n qubits once, as one shared
    canonical tuple (upper-case name, plain int qubits), built on first use.

    by_gate maps each gate to itself; `CliffordOp` validates by a lookup
    there.  by_code[(k * n + a) * n + b] is gate k of _CLIFFORD_GATES on
    qubit a (any b) for the one-qubit gates, and on control a and target b
    for CX and CZ (None where b == a); the samplers index it.
    """
    by_code: list = [None] * (6 * n * n)
    for k, name in enumerate(_CLIFFORD_GATES):
        for a in range(n):
            one = (name, a)
            for b in range(n):
                if k < 4:
                    by_code[(k * n + a) * n + b] = one
                elif b != a:
                    by_code[(k * n + a) * n + b] = (name, a, b)
    return {gate: gate for gate in by_code if gate is not None}, by_code


def _gate_qubits(n: int, gate: tuple) -> tuple[str, list[int]]:
    if not isinstance(gate, (list, tuple)) or not gate:
        raise ValidationError(f"a Clifford gate is a list [name, qubit, ...], got {gate!r}")
    name = str(gate[0]).upper()
    if name not in _CLIFFORD_GATES:
        raise ValidationError(f"unsupported Clifford gate {gate[0]!r}")
    # a plain int, as JSON and the pool give every index, skips the call
    qs = [q if type(q) is int else whole_number(q, f"qubit index in {gate!r}")
          for q in gate[1:]]
    want = 2 if name in ("CX", "CZ") else 1
    if len(qs) != want:
        raise ValidationError(f"{name} takes {want} qubit(s), got {gate!r}")
    for q in qs:
        if not 0 <= q < n:
            raise ValidationError(f"qubit index {q} outside 0..{n - 1} in {gate!r}")
    if want == 2 and qs[0] == qs[1]:
        raise ValidationError(f"two-qubit gate on a single wire: {gate!r}")
    return name, qs


def _fold(
    n: int, rows: Sequence[tuple[int, int, int]], gates: Sequence[tuple], inverse: bool = False
) -> list[tuple[int, int, int]]:
    """Forward images C (.) C^dagger of signed Hermitian rows (-1)^h P(x, z),
    or with ``inverse`` the pull-backs C^dagger (.) C.

    ``rows`` is a sequence of (x, z, h) triples and so is the result.  The
    rows are bit-sliced: bit k of xs[j] (zs[j]) is the x (z) bit of row k on
    qubit j, and bit k of r is its sign.  Slicing in and out walks only the
    set bits of each mask.  Each gate is then the Aaronson-Gottesman update,
    a few integer operations on all rows at once.  C^dagger walks the gates
    backwards; every gate but S is its own inverse.
    """
    xs, zs, r = [0] * n, [0] * n, 0
    for k, (x, z, h) in enumerate(rows):
        bit = 1 << k
        for mask, planes in ((x, xs), (z, zs)):
            while mask:
                low = mask & -mask
                planes[low.bit_length() - 1] |= bit
                mask ^= low
        r |= h << k
    for gate in reversed(gates) if inverse else gates:
        name, a = gate[0], gate[1]
        if name == "CX":  # control a, target b
            b = gate[2]
            r ^= xs[a] & zs[b] & ~(xs[b] ^ zs[a])
            xs[b] ^= xs[a]
            zs[a] ^= zs[b]
        elif name == "CZ":
            b = gate[2]
            r ^= xs[a] & xs[b] & (zs[a] ^ zs[b])
            zs[a] ^= xs[b]
            zs[b] ^= xs[a]
        elif name == "S":
            if inverse:  # S^dagger: X -> -Y, Y -> X
                r ^= xs[a] & ~zs[a]
            else:  # X -> Y, Y -> -X
                r ^= xs[a] & zs[a]
            zs[a] ^= xs[a]
        elif name == "H":
            r ^= xs[a] & zs[a]
            xs[a], zs[a] = zs[a], xs[a]
        elif name == "X":
            r ^= zs[a]
        else:  # Z
            r ^= xs[a]
    out_x, out_z = [0] * len(rows), [0] * len(rows)
    for j in range(n):
        for plane, out in ((xs[j], out_x), (zs[j], out_z)):
            while plane:
                low = plane & -plane
                out[low.bit_length() - 1] |= 1 << j
                plane ^= low
    return [(x, z, (r >> k) & 1) for k, (x, z) in enumerate(zip(out_x, out_z))]


def _products(n: int, rows: Sequence[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(label, ph): the product of every subset s of signed Hermitian rows
    (-1)^h P(x, z), higher rows on the left, is i**ph[s] P(label[s]) with the
    flat label x << n | z and ph in 0..3.

    Doubling works in the bare form X^x Z^z, where a new row g multiplies
    each earlier entry X^a Z^b from the left with sign (-1)^(z_g.a); the
    Hermitian factor i**(x.z) comes off the whole table at the end.
    """
    label = np.zeros(1 << len(rows), dtype=np.int64)
    ph = np.zeros(1 << len(rows), dtype=np.uint8)
    for k, (x, z, h) in enumerate(rows):
        half = 1 << k
        done = label[:half]
        label[half:2 * half] = done ^ ((x << n) | z)
        cross = 2 * np.bitwise_count(done & (z << n))
        ph[half:2 * half] = ph[:half] + (2 * h + (x & z).bit_count()) + cross
    ph -= np.bitwise_count((label >> n) & label)
    return label, ph & 3


def _group(n: int, rows: Sequence[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(label, s): the group element of subset k of the commuting signed rows
    (-1)^h P(x, z) is (-1)^s[k] P(label[k]), as laid out by `_products`."""
    label, ph = _products(n, rows)
    if np.any(ph & 1):
        raise RuntimeError("stabilizer group product with an imaginary phase")
    return label, ph >> 1


@dataclass(frozen=True)
class CliffordOp:
    """A Clifford circuit as an ordered gate list; qubit indices are 0-based.
    Frozen: the gates are validated once, into shared canonical tuples."""

    n: int
    gates: tuple[tuple, ...] = ()

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            object.__setattr__(self, "n", whole_number(self.n, "qubit count"))
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValidationError(f"n={self.n} outside 1..{MAX_QUBITS}")
        if not isinstance(self.gates, (list, tuple)):
            raise ValidationError(f"a Clifford circuit is a list of gates, got {self.gates!r}")
        by_gate = _gate_table(self.n)[0]
        gates = []
        for gate in self.gates:
            # the samplers' gates are table entries already; a list from JSON
            # hits as a tuple, and passes only with plain int qubits, since
            # True and 0.0 hit too (they hash and compare like 1 and 0)
            kind = type(gate)
            try:
                canon = by_gate.get(gate if kind is tuple else tuple(gate) if kind is list else None)
            except TypeError:  # an unhashable entry
                canon = None
            if canon is None or canon is not gate and (type(gate[1]) is not int
                                                       or type(gate[-1]) is not int):
                name, qs = _gate_qubits(self.n, gate)
                canon = by_gate[(name, *qs)]
            gates.append(canon)
        object.__setattr__(self, "gates", tuple(gates))

    def inverse(self) -> "CliffordOp":
        """C^dagger: the gates reversed, with S^dagger written as S S S."""
        inv: list[tuple] = []
        for gate in reversed(self.gates):
            inv += [gate] * (3 if gate[0] == "S" else 1)
        return CliffordOp(self.n, tuple(inv))

    def heisenberg_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(perm, sign) with C^dagger P(v) C = sign[v] * P(perm[v]) for all labels.

        Conjugates the 2n generators only (O(gates * n) integer work), then
        multiplies out all 4**n labels with `_products` (O(4**n) numpy
        work).  Built anew on every call; the instance keeps no table.
        """
        n = self.n
        if n > MAX_SPECTRUM_QUBITS:
            raise CapacityError(f"label tables cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
        # row k < n is Z_k and row n + j is X_j, pulled back by C^dagger (.) C;
        # subset v = x << n | z of them multiplies out to the bare X^x Z^z
        gens = [(0, 1 << k, 0) for k in range(n)] + [(1 << j, 0, 0) for j in range(n)]
        perm, ph = _products(n, _fold(n, gens, self.gates, inverse=True))
        # P(v) = i**(x.z) X^x Z^z on the input side
        ph = (ph + _xz_phase(n)) & 3
        if np.any(ph & 1):
            raise RuntimeError("Clifford conjugation produced imaginary phases")
        return perm, 1.0 - ph  # ph is 0 or 2


def random_clifford(n: int, rng: np.random.Generator, length: int | None = None) -> CliffordOp:
    """Random gate string; long enough defaults to scramble at these sizes.

    Each gate is, with probability 1/2 when n > 1, a CX or CZ on an ordered
    pair of distinct uniform qubits, and otherwise H, S, X or Z on a uniform
    qubit.  The gate-by-gate stream stays fixed: the benchmark's inputs and
    every `stabilizer.random_stabilizer` seed depend on it.  The draws are
    those of the Generator calls named in the loop, taken from the bit
    generator's C functions (see the module docstring).
    """
    n = whole_number(n, "qubit count")
    if not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"n={n} outside 1..{MAX_QUBITS}")
    length = 3 * n * n + 2 * n if length is None else whole_number(length, "gate count")
    if length < 0:
        raise ValidationError(f"gate count must be >= 0, got {length}")
    by_code = _gate_table(n)[1]
    bits = rng.bit_generator
    draw = bits.ctypes
    state, uniform, u32 = draw.state, draw.next_double, draw.next_uint32
    gates: list[tuple] = []
    with bits.lock:
        for _ in range(length):
            if n > 1 and uniform(state) < 0.5:  # rng.random() < 0.5
                # rng.choice(n, 2, replace=False): Floyd's draws, then the swap
                a = _below(u32, state, n - 1)
                b = _below(u32, state, n)
                if b == a:
                    b = n - 1
                if not u32(state) >> 31:
                    a, b = b, a
                # rng.integers(2) picks CX or CZ
                gates.append(by_code[((4 + (u32(state) >> 31)) * n + a) * n + b])
            else:
                k = u32(state) >> 30  # rng.integers(4), then rng.integers(n)
                gates.append(by_code[(k * n + _below(u32, state, n)) * n])
    return CliffordOp(n, tuple(gates))


def _below(u32, state, k: int) -> int:
    """``rng.integers(k)`` on the bit generator's ``next_uint32``: Lemire's
    multiply-shift with numpy's rejection step; k = 1 takes no draw."""
    if k == 1:
        return 0
    m = u32(state) * k
    if m & 0xFFFFFFFF < k:
        threshold = (1 << 32) % k
        while m & 0xFFFFFFFF < threshold:
            m = u32(state) * k
    return m >> 32


# the object each layer kind holds; `_apply_layers` dispatches on the kind
_LAYER_TYPES = {"clifford": CliffordOp, "sqr": RotationVector, "gate": PhasePolynomial}


def _check_kinds(layers: Sequence[tuple]) -> None:
    """Each layer is a pair (kind, obj) with obj of the type its kind names."""
    for layer in layers:
        try:
            kind, obj = layer
            ok = isinstance(obj, _LAYER_TYPES[kind])
        except (TypeError, ValueError, KeyError):
            ok = False
        if not ok:
            raise ValidationError(
                "a layer is ('clifford', CliffordOp), ('sqr', RotationVector) or "
                f"('gate', PhasePolynomial), got {layer!r}")


@dataclass(frozen=True)
class LayerBlock:
    """One transfer block: optional Clifford circuit, then optional rotation layer."""

    n: int
    clifford: CliffordOp | None = None
    w: RotationVector | None = None

    def __post_init__(self) -> None:
        _check_kinds(self.layers)
        if any(obj.n != self.n for _, obj in self.layers):
            raise ValidationError("a block layer is on the wrong number of qubits")

    @property
    def layers(self) -> tuple[tuple, ...]:
        """("clifford", C), then ("sqr", w), each only when the block has it."""
        return tuple((kind, obj) for kind, obj in (("clifford", self.clifford), ("sqr", self.w))
                     if obj is not None)


def xy_pair(rows: np.ndarray, n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the x_j = 1 entries of each row of a C-contiguous
    (rows, 4**n) array at z_j = 0 and z_j = 1, each of shape
    (rows, hi, lo, hi, lo) with hi * lo = 2**(n - 1); a single length-4**n
    vector is one row.

    Both views share memory with ``rows``.
    """
    hi, lo = 1 << (n - 1 - j), 1 << j
    v = rows.reshape(-1, hi, 2, lo, hi, 2, lo)
    return v[:, :, 1, :, :, 0], v[:, :, 1, :, :, 1]


def _kron_stack(angles: Sequence[float]) -> np.ndarray:
    """The 2**k matrices R_{k-1}^(x_{k-1}) (x) ... (x) R_0^(x_0), one per
    x < 2**k for k = len(angles), with R_j = [[c, -s], [s, c]] and the
    identity where x_j = 0; built by doubling, qubit j the high bit of both
    the stack index and the rows and columns."""
    stack = np.ones((1, 1, 1))
    for wj in angles:
        t = 2.0 * np.pi * wj
        c, s = np.cos(t), np.sin(t)
        pair = np.array([[[1.0, 0.0], [0.0, 1.0]], [[c, -s], [s, c]]])
        k, m = stack.shape[:2]
        stack = (pair[:, None, :, None, :, None] * stack[None, :, None, :, None, :]).reshape(
            2 * k, 2 * m, 2 * m)
    return stack


def rotate_layer(values: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """Spectrum after a Z-rotation layer with the given angles (in turns).

    Works on any real length-4**n vector, n = len(angles); returns a new
    array.  Sector x is turned by A[x_hi] (x) B[x_lo], the `_kron_stack`
    entries of the h = n - l high and l = n // 2 low qubits, as two batched
    matrix products over the view a[x_hi, x_lo, z_hi, z_lo].
    """
    n = len(angles)
    low, high = 1 << (n // 2), 1 << (n - n // 2)
    a = np.asarray(values, dtype=np.float64).reshape(high, low, high, low)
    lo, hi = _kron_stack(angles[:n // 2]), _kron_stack(angles[n // 2:])
    return (hi[:, None] @ (a @ lo.transpose(0, 2, 1))).reshape(-1)


def _turn(p: np.ndarray, q: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (p, q) with a leading row axis, row r turned by t[r] turns (a
    scalar t turns every row): the new arrays (c p - s q, s p + c q)."""
    t = 2.0 * np.pi * np.reshape(t, (-1,) + (1,) * (p.ndim - 1))
    c, s = np.cos(t), np.sin(t)
    return c * p - s * q, s * p + c * q


def _fwht(v: np.ndarray) -> None:
    """Walsh-Hadamard transform of every column of a C-contiguous 2-D array,
    in place; each butterfly forms p + q and p - q from the same pair of
    whole rows, with p - q held in one half-size scratch array that every
    level reuses."""
    scratch = np.empty(v.size // 2, dtype=v.dtype)
    half = 1
    while half < len(v):
        pairs = v.reshape(len(v) // (2 * half), 2, half, v.shape[1])
        p, q = pairs[:, 0], pairs[:, 1]
        diff = scratch.reshape(p.shape)
        np.subtract(p, q, out=diff)
        p += q
        q[...] = diff
        half <<= 1


def phase_layer(values: np.ndarray, f: PhasePolynomial) -> np.ndarray:
    """Spectrum after the diagonal gate f, for any real length-4**n vector.

    Undo the i^(x.z) of every label, transform each x sector over z to
    2**n u_x, multiply by the phase factors, transform back and restore
    i^(x.z) / 2**n.  The gate maps each sector to itself, so all-zero
    sectors (all x outside the X-part row space of a stabilizer input) are
    skipped.  The one work array is indexed [z, x] (or [b, x]) over the
    other sectors, so the transforms run down its columns; the three factor
    steps each run over blocks of its rows, `_PHASE_BLOCK` entries at a
    time, so no full-size temporary is made.  The factors are looked up in
    a table of e^(2 pi i k / 2**m), each computed by the same expression as
    it would be per entry, unless the table would have more entries than
    the work array.  Returns a new float64 array.
    """
    n = f.n
    size = 1 << n
    sectors = values.reshape(size, size)
    live = np.flatnonzero(sectors.any(axis=1))
    xz = _xz_phase(n).reshape(size, size)
    rows = _PHASE_BLOCK // max(1, len(live))
    blocks = [slice(b, b + rows) for b in range(0, size, rows)]
    v = np.empty((size, len(live)), dtype=np.complex128)
    for blk in blocks:
        np.multiply(_I_POWERS.conj()[xz[live, blk].T], sectors[live, blk].T, out=v[blk])
    _fwht(v)
    vals, m = value_numerators(f)
    table = None
    if (1 << m) <= v.size:  # m runs to 30: a table no longer than the turns
        table = np.exp(2j * np.pi * (np.arange(1 << m) / float(1 << m)))
    for blk in blocks:
        turns = vals[np.arange(size)[blk, None] ^ live]  # theta(b ^ x) numerators, [b, x]
        np.subtract(vals[blk, None], turns, out=turns)
        turns &= (1 << m) - 1
        if table is not None:
            v[blk] *= table[turns]
        else:
            v[blk] *= np.exp(2j * np.pi * (turns / float(1 << m)))
    _fwht(v)
    worst = 0.0
    for blk in blocks:
        v[blk] *= _I_POWERS[xz[live, blk].T] / size
        worst = max(worst, float(np.max(np.abs(v[blk].imag), initial=0.0)))
    if worst > 1e-12:
        raise RuntimeError(f"phase layer has an imaginary part {worst!r} > 1e-12")
    out = np.zeros(size * size)
    out.reshape(size, size)[live] = v.real.T
    return out


def _apply_layers(values: np.ndarray, layers: Sequence[tuple]) -> np.ndarray:
    """Push a raw spectrum vector through ("clifford" | "sqr" | "gate", obj)
    layers in order.  A Clifford layer without gates is skipped, so the
    result is ``values`` itself when no other layer is given."""
    for kind, obj in layers:
        if kind == "clifford":
            if not obj.gates:
                continue
            perm, sign = obj.heisenberg_table()
            values = sign * values[perm]
        elif kind == "sqr":
            values = rotate_layer(values, obj.values)
        else:
            values = phase_layer(values, obj)
    return values


def _computed(n: int, values: np.ndarray) -> "PauliSpectrum":
    """The fold's output as a `PauliSpectrum`.  Its input passed validation
    and every layer keeps the norm, so an output that fails the container's
    check is a fault of the fold, not bad input: RuntimeError."""
    from .spectrum import PauliSpectrum

    try:
        return PauliSpectrum(n, values)
    except ValidationError as exc:
        raise RuntimeError(f"fold output failed its check: {exc}") from exc


def initial_spectrum(t: "StabilizerTableau") -> "PauliSpectrum":
    """Exact signed spectrum of a stabilizer state, +-1 on the group and 0 off
    it: the circuit fold of no layer."""
    # a t that is no tableau fails the circuit's own check
    return ParsedCircuit(getattr(t, "n", None), t, ()).spectrum()


def apply_block(s: "PauliSpectrum", block: LayerBlock) -> "PauliSpectrum":
    """Push a spectrum through one Clifford + rotation block."""
    if block.n != s.n:
        raise ValidationError(f"block on {block.n} qubits, spectrum on {s.n}")
    return _computed(s.n, _apply_layers(s.values, block.layers))


@dataclass(frozen=True)
class ParsedCircuit:
    """Circuit JSON: initial stabilizer state plus an ordered layer list.

    Layers are ("clifford", CliffordOp), ("sqr", RotationVector) or
    ("gate", PhasePolynomial), checked when the circuit is built.  The
    initial state, a `StabilizerTableau`, defaults to |+...+> in circuit
    JSON.  The state and every layer must be on the circuit's n qubits.
    """

    n: int
    initial: "StabilizerTableau"
    layers: tuple[tuple, ...]

    def __post_init__(self) -> None:
        from .stabilizer import StabilizerTableau

        if not isinstance(self.initial, StabilizerTableau):
            raise ValidationError("a circuit's initial state must be a StabilizerTableau, "
                                  f"got {type(self.initial).__name__}")
        _check_kinds(self.layers)
        if {self.initial.n, *(obj.n for _, obj in self.layers)} != {self.n}:
            raise ValidationError(f"a circuit state or layer is not on its n={self.n} qubits")

    def spectrum(self) -> "PauliSpectrum":
        """Exact signed spectrum of the output state: leading Clifford layers
        fold the initial rows, the rest fold from their +-1 group vector."""
        n, rows, layers = self.n, self.initial.rows, self.layers
        if n > MAX_SPECTRUM_QUBITS:
            raise CapacityError(f"circuit spectrum cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
        while layers and layers[0][0] == "clifford":
            rows, layers = _fold(n, rows, layers[0][1].gates), layers[1:]
        label, sign = _group(n, rows)
        values = np.zeros(1 << (2 * n), dtype=np.float64)
        values[label] = 1.0 - 2.0 * sign
        return _computed(n, _apply_layers(values, layers))


def circuit_from_json(obj: Mapping) -> ParsedCircuit:
    from .stabilizer import StabilizerTableau, plus_tableau

    if extra := set(obj) - {"n", "initial", "layers"}:
        raise ValidationError(
            f"unknown circuit JSON keys: {sorted(extra)}; a circuit has 'n', 'initial' and "
            "'layers', each layer one of {'clifford': ...}, {'sqr': ...} and {'gate': ...}")
    try:
        n = whole_number(obj["n"], "circuit n")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"circuit JSON needs an integer 'n': {exc}") from exc
    initial = StabilizerTableau.from_json(obj["initial"]) if "initial" in obj else plus_tableau(n)
    raw_layers = obj.get("layers", [])
    if not isinstance(raw_layers, list):
        raise ValidationError(f"circuit 'layers' must be a list, got {raw_layers!r}")
    layers: list[tuple] = []
    for i, layer in enumerate(raw_layers):
        if not isinstance(layer, Mapping) or len(layer) != 1:
            raise ValidationError(f"layer {i} must be a single-key object")
        (kind, body), = layer.items()
        layers.append(_layer_from_json(n, f"layer {i}", kind, body))
    return ParsedCircuit(n, initial, tuple(layers))


def _layer_from_json(n: int, where: str, kind: str, body) -> tuple:
    """The layer (kind, obj) of a ``clifford``, ``sqr`` or ``gate`` body; a
    Clifford or a gate without its own ``n`` is on n qubits, and ``where``
    names the layer in error messages."""
    if kind == "clifford":
        return "clifford", CliffordOp(n, body)
    if kind == "sqr":
        return "sqr", RotationVector.from_json(body)
    if kind == "gate":
        if not isinstance(body, Mapping):
            raise ValidationError(f"{where} gate must be an object, got {body!r}")
        return "gate", PhasePolynomial.from_json({"n": n, **body})
    raise ValidationError(f"{where} has unknown kind {kind!r}")


def _layer_to_json(kind: str, obj):
    """The JSON body of a layer, which `_layer_from_json` reads back."""
    if kind == "clifford":
        return [list(g) for g in obj.gates]
    return obj.to_json()
