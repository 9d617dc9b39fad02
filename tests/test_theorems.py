"""Constructive certificates: zero-magic gates, no-go witnesses, support caps."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from magicforge.diagonal_gates import (
    PhasePolynomial,
    RotationVector,
    from_values,
    hierarchy_level,
    make_gate,
    random_polynomial,
    value_numerators,
)
from magicforge.errors import CapacityError, SearchError, ValidationError
from magicforge.oracle import (
    apply_diagonal,
    apply_gates,
    apply_rotation,
    oracle_spectrum,
    statevector,
)
from magicforge.spectrum import f_alpha, nullity, support_size
from magicforge.stabilizer import (
    canonical_frame,
    plus_tableau,
    product_tableau,
    random_stabilizer,
    zeros_tableau,
)
from magicforge.theorems import (
    _restrict,
    construct_zero_magic,
    conjugate_diagonal_by_frame,
    no_ordering_witness,
    nogo_witness,
    support_ceiling,
    zero_magic_state_for_gate,
)
from magicforge.transfer import (
    MAX_SPECTRUM_QUBITS,
    CliffordOp,
    LayerBlock,
    apply_block,
    initial_spectrum,
    random_clifford,
)


class TestFrameConjugation:
    def test_matches_oracle_up_to_global_phase(self):
        # applying the conjugated gate before the frame equals applying the
        # original after it; the affine shift may leave a global phase behind.
        # On |+...+> the frame's image has full support, so this pins the
        # whole diagonal, not only its values on the state's support.
        for n in range(1, 7):
            rng = np.random.default_rng([0, n])
            for _ in range(8):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                frame, target = canonical_frame(tab)
                f = random_polynomial(n, rng)
                moved = conjugate_diagonal_by_frame(f, frame)
                for start in (tab, plus_tableau(n)):
                    a = apply_gates(apply_diagonal(statevector(start), moved), frame.gates)
                    b = apply_diagonal(apply_gates(statevector(start), frame.gates), f)
                    assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) - 1.0) < 1e-12

    def test_affine_only(self):
        with pytest.raises(ValidationError):
            conjugate_diagonal_by_frame(
                make_gate("T", [1], 1), CliffordOp(1, (("H", 0),))
            )


class TestZeroMagic:
    @pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)])
    def test_certificates(self, n, k):
        tab = product_tableau(n, {q: 0 for q in range(1, k - 1)})
        cert = construct_zero_magic(tab, k)
        assert cert.level == k
        assert cert.stabilizer_confirmed
        assert cert.nullity_after < 1e-9
        for a, val in cert.f_alpha_values.items():
            assert abs(val - float(1 << n)) < 1e-9

    def test_oracle_confirms_no_magic(self):
        tab = product_tableau(4, {1: 0, 2: 0})
        cert = construct_zero_magic(tab, 4)
        st = apply_diagonal(statevector(tab), cert.gate)
        spec = oracle_spectrum(st)
        assert abs(f_alpha(spec, 2) - 16.0) < 1e-9

    def test_insufficient_rank_rejected(self):
        with pytest.raises(ValidationError):
            construct_zero_magic(plus_tableau(4), 4)

    def test_k_range(self):
        with pytest.raises(ValidationError):
            construct_zero_magic(zeros_tableau(3), 2)
        with pytest.raises(ValidationError):
            construct_zero_magic(zeros_tableau(3), 4)


class TestZeroMagicStateForGate:
    @pytest.mark.parametrize(
        "gate",
        [
            make_gate("T", [1], 2),
            make_gate("CS", [1, 2], 2),
            make_gate("CCZ", [1, 2, 3], 3),
            make_gate("CS", [2, 3], 3),
        ],
    )
    def test_found_states_verified(self, gate):
        tab = zero_magic_state_for_gate(gate)
        spec = oracle_spectrum(apply_diagonal(statevector(tab), gate))
        assert abs(f_alpha(spec, 2) - float(1 << gate.n)) < 1e-9
        assert nullity(spec) < 1e-9

    def test_clifford_rejected(self):
        with pytest.raises(ValidationError):
            zero_magic_state_for_gate(make_gate("CZ", [1, 2], 2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_restriction_matches_the_value_table(self, n):
        # every frozen subset and assignment, against restricting the value table
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            f = random_polynomial(n, rng)
            vals, m = value_numerators(f)
            for s_mask in range(1 << n):
                v_mask = s_mask
                while True:  # every submask of s_mask
                    want = from_values(n, [vals[(b & ~s_mask) | v_mask] for b in range(1 << n)], m)
                    got = _restrict(f, s_mask, v_mask)
                    assert got.terms == want.terms, (f, s_mask, v_mask)
                    if not v_mask:
                        break
                    v_mask = (v_mask - 1) & s_mask

    def test_no_tamer_at_the_cap(self):
        # T on every qubit plus a CCZ: no frozen product state works
        n = MAX_SPECTRUM_QUBITS
        gate = PhasePolynomial(n, [(3, 1 << j, 1) for j in range(n)] + [(1, 7, 1)])
        with pytest.raises(SearchError):
            zero_magic_state_for_gate(gate)


class TestNoGo:
    def golden_block(self):
        return LayerBlock(
            1, CliffordOp(1, (("H", 0),)), RotationVector.dyadic((1,), 3)
        )

    def test_both_directions_found(self):
        wit = nogo_witness(self.golden_block(), alpha=2, trials=200, seed=0)
        assert wit.increase.delta > 1e-6
        assert wit.decrease.delta < -1e-6
        assert wit.trials_used <= 200

    def test_witness_states_replay_through_oracle(self):
        wit = nogo_witness(self.golden_block(), alpha=2, trials=200, seed=0)
        for ws in (wit.increase, wit.decrease):
            st = statevector(ws.tableau)
            for pre in ws.pre_blocks:
                if pre.clifford is not None:
                    st = apply_gates(st, pre.clifford.gates)
                if pre.w is not None:
                    st = apply_rotation(st, pre.w)
            before = f_alpha(oracle_spectrum(st), 2)
            assert abs(before - ws.f_before) < 1e-9
            blk = wit.block
            if blk.clifford is not None:
                st = apply_gates(st, blk.clifford.gates)
            if blk.w is not None:
                st = apply_rotation(st, blk.w)
            after = f_alpha(oracle_spectrum(st), 2)
            assert abs(after - ws.f_after) < 1e-9

    def test_two_qubit_block(self):
        rng = np.random.default_rng(3)
        block = LayerBlock(
            2, random_clifford(2, rng), RotationVector.dyadic((1, 0), 3)
        )
        wit = nogo_witness(block, alpha=2, trials=200, seed=1)
        assert wit.increase.delta > 1e-6 and wit.decrease.delta < -1e-6

    def test_clifford_block_rejected(self):
        block = LayerBlock(1, CliffordOp(1, (("H", 0),)), RotationVector.dyadic((2,), 3))
        with pytest.raises(ValidationError):
            nogo_witness(block)

    def test_deterministic(self):
        a = nogo_witness(self.golden_block(), seed=5)
        b = nogo_witness(self.golden_block(), seed=5)
        assert a.trials_used == b.trials_used
        assert a.increase.tableau == b.increase.tableau


class TestNoOrdering:
    @pytest.mark.parametrize("n,k", [(3, 3), (3, 4), (4, 4), (4, 5), (3, 3), (5, 5)])
    def test_witness_pairs(self, n, k):
        wit = no_ordering_witness(n, k)
        assert wit.level_zero == k
        assert wit.m2_zero < 1e-9
        assert wit.level_comparator < k or (k == 3 and wit.level_comparator == 3)
        assert wit.m2_comparator > 0.4

    def test_reversed_pair_for_high_k(self):
        # the reversed pair must keep exact levels, so its comparator can be
        # a weak high-level rotation; non-vacuous is the requirement
        wit = no_ordering_witness(4, 5)
        assert wit.reversed_pair is not None
        rev = wit.reversed_pair
        assert rev.m2_zero < 1e-9
        assert rev.m2_comparator > 1e-6
        assert rev.level_zero < rev.level_comparator
        assert rev.level_zero == 4 and rev.level_comparator == 5

    def test_rotation_variant_above_register(self):
        # k = n + 1 exercises the single-qubit rotation ladder
        wit = no_ordering_witness(2, 3)
        assert wit.m2_zero < 1e-9 and wit.m2_comparator > 0.4

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            no_ordering_witness(3, 2)
        with pytest.raises(ValidationError):
            no_ordering_witness(3, 5)


class TestSupportCeiling:
    def test_formula(self):
        w = RotationVector.dyadic((1, 0, 3), 3)  # angles 1/8, 0, 3/8
        assert support_ceiling(w) == 3 * 2 * 3

    def test_all_clifford(self):
        w = RotationVector.dyadic((0, 2, 4, 6), 3)
        assert support_ceiling(w) == 16

    def test_attained_on_plus_states(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            for _ in range(10):
                w = RotationVector.dyadic(
                    tuple(int(v) for v in rng.integers(0, 16, n)), 4
                )
                spec = apply_block(initial_spectrum(plus_tableau(n)), LayerBlock(n, None, w))
                assert support_size(spec) == support_ceiling(w)

    def test_strictly_below_full_square(self):
        # 3^n never reaches the square count 4^n - 2^n for n >= 1
        for n in range(1, 12):
            assert 3 ** n < 4 ** n - 2 ** n or n == 1


class TestCapacity:
    @pytest.mark.parametrize("certify", [
        lambda n: partial(construct_zero_magic, product_tableau(n, {1: 0}), 3),
        lambda n: partial(zero_magic_state_for_gate, make_gate("CCZ", [1, 2, 3], n)),
        lambda n: partial(nogo_witness, LayerBlock(n, None, RotationVector.dyadic((1,) * n, 3))),
        lambda n: partial(no_ordering_witness, n, 3),
    ], ids=["zero-magic", "zero-magic-state", "nogo", "no-ordering"])
    def test_cap_plus_one_before_any_dense_allocation(self, certify):
        n = MAX_SPECTRUM_QUBITS + 1
        call = certify(n)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"cap is n={MAX_SPECTRUM_QUBITS}, got {n}"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a dense state takes 16 * 2**n bytes, a spectrum 8 * 4**n
        assert peak < 16 * 2**n
