"""Constructive certificates: zero-magic gates, no-ordering pairs, no-go
witnesses for a layer sequence, and the rotation-layer support ceiling.

Everything returned here is checked against the brute-force oracle before it
leaves the function, so a certificate object is always a verified statement,
not a conjecture.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .diagonal_gates import (
    PhasePolynomial,
    RotationVector,
    from_values,
    hierarchy_level,
    value_numerators,
)
from .errors import CapacityError, SearchError, ValidationError
from .oracle import (
    DenseState,
    apply_diagonal,
    apply_gates,
    apply_rotation,
    oracle_spectrum,
    statevector,
)
from .spectrum import f_alpha, nullity, sre
from .stabilizer import (
    StabilizerTableau,
    canonical_frame,
    product_tableau,
    random_stabilizer,
)
from .transfer import MAX_SPECTRUM_QUBITS, CliffordOp, _check_kinds, _fold


def conjugate_diagonal_by_frame(f: PhasePolynomial, frame: CliffordOp) -> PhasePolynomial:
    """frame^dagger . f . frame for an affine frame, via value-table substitution.

    The frame pulls each Z_i back to (-1)^t_i Z^row_i, one `_fold` of the n
    generators, so it sends |b> to |b'> with b'_i = parity(row_i & b) ^ t_i
    up to a phase that commutes with f.  A frame that pulls some Z_i back to
    a label with an X part (an H) is rejected.  Exact up to a global phase:
    the affine shift can produce a constant term, which the canonical form
    drops.
    """
    if f.n != frame.n:
        raise ValidationError("gate and frame act on different register sizes")
    n = f.n
    images = _fold(n, [(0, 1 << i, 0) for i in range(n)], frame.gates, inverse=True)
    if any(x for x, _, _ in images):
        raise ValidationError("frame does not map basis states to basis states")
    vals, m = value_numerators(f)
    b = np.arange(1 << n, dtype=np.int64)
    img = np.zeros(1 << n, dtype=np.int64)
    for i, (_, row, t) in enumerate(images):
        img |= ((np.bitwise_count(b & row) + t) & 1).astype(np.int64) << i
    return from_values(n, vals[img], m)


@dataclass(frozen=True)
class ZeroMagicCertificate:
    """A level-k gate that provably adds no magic to the given state."""

    tableau: StabilizerTableau
    k: int
    gate: PhasePolynomial
    level: int
    f_alpha_values: Mapping[int, float]
    nullity_after: float
    stabilizer_confirmed: bool


def construct_zero_magic(t: StabilizerTableau, k: int) -> ZeroMagicCertificate:
    """Build a level-k diagonal gate acting as the identity on the state.

    Works whenever 3 <= k <= n and the pure-Z rank satisfies r >= k - 2 and
    r >= 1: the frame reduction freezes r qubits, and a k-controlled phase
    flip placed across frozen qubits never fires on the support.  The gate is
    returned in the original (unframed) basis.
    """
    n = t.n
    if n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"certificate construction cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
    if not 3 <= k <= n:
        raise ValidationError(f"need 3 <= k <= n, got k={k}, n={n}")
    r = t.r
    if r < max(k - 2, 1):
        raise ValidationError(
            f"pure-Z rank r={r} too small: need r >= max(k - 2, 1) = {max(k - 2, 1)}"
        )
    frame, _ = canonical_frame(t)
    flip = PhasePolynomial(n, [(1, (1 << k) - 1, 1)])  # C^(k-1)Z on qubits 1..k
    gate = conjugate_diagonal_by_frame(flip, frame)
    level = hierarchy_level(gate)
    if level != k:
        raise RuntimeError(f"conjugated gate has level {level}, expected exactly {k}")

    st = statevector(t)
    out = apply_diagonal(st, gate)
    spec = oracle_spectrum(out)
    values = {a: f_alpha(spec, a) for a in (2, 3, 4)}
    nul = nullity(spec)
    confirmed = bool(
        abs(values[2] - float(1 << n)) <= 1e-9 and nul <= 1e-9
    )
    if not confirmed:
        raise RuntimeError("oracle rejected the certificate; construction is broken")
    return ZeroMagicCertificate(t, k, gate, level, values, nul, confirmed)


def _restrict(f: PhasePolynomial, s_mask: int, v_mask: int) -> PhasePolynomial:
    """f with the qubits of s_mask frozen at their bits in v_mask: a term with a
    qubit frozen at 0 vanishes, and any other loses its frozen qubits (all 1)."""
    return PhasePolynomial(f.n, [(m, a & ~s_mask, c) for (m, a), c in f.terms.items()
                                 if not a & s_mask & ~v_mask])


def zero_magic_state_for_gate(f: PhasePolynomial) -> StabilizerTableau:
    """Find a frozen-product stabilizer state on which the gate adds no magic.

    Strategy: freeze a subset S of qubits at fixed bits so the restricted
    phase polynomial drops to level <= 2 (Clifford on the free qubits).  The
    search is exhaustive over subsets (|S| <= n - 1) and bit values, smallest
    subsets and all-zero values first.  Raises SearchError when no frozen
    product state works; that is a statement about this strategy, not about
    all stabilizer states.
    """
    n = f.n
    if n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"search cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
    k = hierarchy_level(f)
    if k < 3:
        raise ValidationError(f"gate has level {k} <= 2; it never adds magic")
    for s_len in range(1, n):
        for subset in itertools.combinations(range(n), s_len):
            s_mask = sum(1 << q for q in subset)
            for assign in itertools.product((0, 1), repeat=s_len):
                v_mask = sum(bit << q for q, bit in zip(subset, assign))
                if hierarchy_level(_restrict(f, s_mask, v_mask)) <= 2:
                    tab = product_tableau(n, {q + 1: bit for q, bit in zip(subset, assign)})
                    out = apply_diagonal(statevector(tab), f)
                    if nullity(oracle_spectrum(out)) > 1e-9:
                        raise RuntimeError("restriction said Clifford but oracle disagrees")
                    return tab
    raise SearchError(
        f"no frozen product state tames this level-{k} gate; "
        "not found by the frozen-subset strategy"
    )


def _oracle_apply(st: DenseState, layers) -> DenseState:
    for kind, obj in layers:
        st = apply_gates(st, obj.gates) if kind == "clifford" else apply_rotation(st, obj)
    return st


def _is_clifford_angle(w: RotationVector, j: int) -> bool:
    return abs(math.remainder(4.0 * w.values[j], 1.0)) <= 1e-12


@dataclass(frozen=True)
class WitnessState:
    """An input state (stabilizer seed plus preparation layers) and the
    functional change it exhibits across the probed sequence."""

    tableau: StabilizerTableau
    pre_layers: tuple[tuple, ...]
    f_before: float
    f_after: float

    @property
    def delta(self) -> float:
        return self.f_after - self.f_before


@dataclass(frozen=True)
class NoGoWitness:
    layers: tuple[tuple, ...]
    alpha: int
    increase: WitnessState
    decrease: WitnessState
    trials_used: int


def nogo_witness(layers, alpha: int = 2, trials: int = 200, seed: int = 0) -> NoGoWitness:
    """Exhibit inputs on which one fixed sequence of ("clifford", C) and
    ("sqr", w) layers on one qubit count raises and lowers F_alpha.

    Candidates are oracle-evaluated: plain random stabilizer states (these
    tend to lose magic), states dragged backwards through the inverse
    sequence, reversed with C^dagger and -w (these must gain it back), and
    randomly pre-rotated stabilizer states.  Both changes must clear 1e-6 in
    magnitude within the trial budget.
    """
    layers = tuple(layers)
    _check_kinds(layers)
    sizes = {obj.n for _, obj in layers}
    if len(sizes) != 1 or any(kind == "gate" for kind, _ in layers):
        raise ValidationError("a no-go sequence is one or more 'clifford' and 'sqr' layers on "
                              f"one qubit count, got {[(k, obj.n) for k, obj in layers]}")
    (n,) = sizes
    if n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"witness search cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
    if all(kind == "clifford" or all(_is_clifford_angle(obj, j) for j in range(n))
           for kind, obj in layers):
        raise ValidationError(
            "sequence is Clifford (every angle has 4w integral); no witness exists"
        )
    rng = np.random.default_rng([seed, 7])
    inverse = tuple(
        ("clifford", obj.inverse()) if kind == "clifford"
        else ("sqr", RotationVector.continuous([-v for v in obj.values]))
        for kind, obj in reversed(layers)
    )
    up: WitnessState | None = None
    down: WitnessState | None = None
    used = 0
    while used < trials and (up is None or down is None):
        i = used
        used += 1
        tab = random_stabilizer(n, int(rng.integers(1 << 30)))
        if i % 3 == 1:
            pre = inverse
        elif i % 3 == 2:
            pre = (("sqr", RotationVector.continuous(rng.uniform(0, 1, n))),)
        else:
            pre = ()
        st = _oracle_apply(statevector(tab), pre)
        f_before = f_alpha(oracle_spectrum(st), alpha)
        f_after = f_alpha(oracle_spectrum(_oracle_apply(st, layers)), alpha)
        cand = WitnessState(tab, pre, f_before, f_after)
        if cand.delta > 1e-6 and up is None:
            up = cand
        elif cand.delta < -1e-6 and down is None:
            down = cand
    if up is None or down is None:
        missing = "increase" if up is None else "decrease"
        raise SearchError(f"no {missing} witness within {trials} trials")
    return NoGoWitness(layers, alpha, up, down, used)


@dataclass(frozen=True)
class NoOrderingWitness:
    """Side-by-side gates on one state: the higher-level one adds no magic,
    the lower-level one does.  The reversed pair swaps the roles when it can
    be built (k >= 4)."""

    n: int
    k: int
    tableau: StabilizerTableau
    gate_zero: PhasePolynomial
    level_zero: int
    m2_zero: float
    gate_comparator: PhasePolynomial
    level_comparator: int
    m2_comparator: float
    reversed_pair: "NoOrderingWitness | None" = None


def _free_qubit_gate(n: int, level: int, free: list[int]) -> PhasePolynomial:
    """A gate of the requested level supported on free qubits only."""
    if not free:
        raise ValidationError("no free qubits left for a comparator gate")
    if level <= 3:
        return PhasePolynomial(n, [(3, 1 << free[0], 1)])  # T
    if len(free) >= 2:
        mask = (1 << free[0]) | (1 << free[1])
        return PhasePolynomial(n, [(level - 1, mask, 1)])
    return PhasePolynomial(n, [(level, 1 << free[0], 1)])


def no_ordering_witness(n: int, k: int) -> NoOrderingWitness:
    """Hierarchy level does not order generated magic: explicit witness.

    The state is |0>^(k-2) tensor |+>^(n-k+2).  The level-k gate is a
    k-controlled flip across frozen qubits (a dyadic rotation on a frozen
    qubit when k = n + 1) and leaves the state exactly stabilizer; the
    comparator acts on free qubits only and generates strictly positive M_2.
    For k <= 4 the comparator is a T gate (so level max(3, k - 1)); for
    k = 5 with two free qubits it is a two-qubit eighth-phase gate with
    M_2 about 0.57.  Levels and values are reported, not assumed.
    """
    if n > MAX_SPECTRUM_QUBITS:
        raise CapacityError(f"witness cap is n={MAX_SPECTRUM_QUBITS}, got {n}")
    if not 3 <= k <= n + 1:
        raise ValidationError(f"need 3 <= k <= n + 1, got k={k}, n={n}")
    r = k - 2
    if r > n - 1:
        raise ValidationError(f"k={k} leaves no free qubit on n={n}")
    tab = product_tableau(n, {q: 0 for q in range(1, r + 1)})
    if k <= n:
        gate_zero = PhasePolynomial(n, [(1, (1 << k) - 1, 1)])
    else:
        gate_zero = PhasePolynomial(n, [(k, 1, 1)])  # dyadic rotation on frozen qubit 1
    level_zero = hierarchy_level(gate_zero)
    if level_zero != k:
        raise RuntimeError(f"zero-side gate has level {level_zero}, wanted {k}")
    free = list(range(r, n))
    want_level = k - 1 if k > 3 else 3
    if len(free) == 1 and want_level >= 4:
        # a single-qubit gate at level >= 4 generates little magic; any lower
        # level still breaks the ordering, so take the strong level-3 choice
        want_level = 3
    comparator = _free_qubit_gate(n, want_level, free)
    level_comp = hierarchy_level(comparator)

    st = statevector(tab)
    m2_zero = sre(oracle_spectrum(apply_diagonal(st, gate_zero)))
    m2_comp = sre(oracle_spectrum(apply_diagonal(st, comparator)))
    if abs(m2_zero) > 1e-9:
        raise RuntimeError("high-level gate failed to preserve the stabilizer state")
    if m2_comp <= 1e-6:
        raise RuntimeError("comparator gate produced no magic; witness is vacuous")

    reversed_pair = None
    if k >= 4:
        rev_zero = PhasePolynomial(n, [(1, (1 << (k - 1)) - 1, 1)])  # C^(k-2)Z, frozen hit
        rev_comp = _free_qubit_gate(n, k, free)
        rev_m2_zero = sre(oracle_spectrum(apply_diagonal(st, rev_zero)))
        rev_m2_comp = sre(oracle_spectrum(apply_diagonal(st, rev_comp)))
        if abs(rev_m2_zero) <= 1e-9 and rev_m2_comp > 1e-6:
            reversed_pair = NoOrderingWitness(
                n, k, tab,
                rev_zero, hierarchy_level(rev_zero), rev_m2_zero,
                rev_comp, hierarchy_level(rev_comp), rev_m2_comp,
            )
    return NoOrderingWitness(
        n, k, tab, gate_zero, level_zero, m2_zero,
        comparator, level_comp, m2_comp, reversed_pair,
    )


def support_ceiling(w: RotationVector) -> int:
    """Upper bound 3^K * 2^(n-K) on the output support size of one rotation
    layer on any stabilizer input, n = w.n, K = number of non-Clifford angles."""
    n = w.n
    non_clifford = sum(0 if _is_clifford_angle(w, j) else 1 for j in range(n))
    return 3 ** non_clifford * 2 ** (n - non_clifford)
