"""Constructive certificates: zero-magic gates, no-go witnesses, support caps."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from magicforge.diagonal_gates import (
    PhasePolynomial,
    RotationVector,
    from_values,
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


def _pinned_blocks(n):
    """The two fixed one-block sequences whose witnesses are pinned below."""
    rng = np.random.default_rng([52, n])
    dyadic = RotationVector.dyadic([2 * j + 1 for j in range(n)], 3)
    return {"clifford+dyadic": LayerBlock(n, random_clifford(n, rng), dyadic),
            "continuous": LayerBlock(n, None, RotationVector.continuous(rng.uniform(0, 1, n)))}


# (block, n, seed) -> (trials_used, increase, decrease), each state as its
# tableau's generators, f_before, f_after and the class of its preparation,
# from the block form of nogo_witness, which took one LayerBlock.  On x86-64
# with numpy 2.4's OpenBLAS the layer form gives these floats bit for bit;
# the oracle's matrix product may round otherwise on another BLAS kernel,
# so the floats are compared within 1e-12
_PARENT_WITNESSES = {
    ("clifford+dyadic", 1, 0): (
        8, ("-X", 1.4999999999999973, 1.9999999999999964, "inverse"),
        ("-Z", 2.0, 1.4999999999999987, "plain")),
    ("clifford+dyadic", 1, 1): (
        8, ("+X", 1.4999999999999973, 1.9999999999999964, "inverse"),
        ("-Z", 2.0, 1.4999999999999987, "plain")),
    ("clifford+dyadic", 1, 2): (
        2, ("-X", 1.4999999999999973, 1.9999999999999964, "inverse"),
        ("+Z", 2.0, 1.4999999999999987, "plain")),
    ("continuous", 1, 0): (
        6, ("+X", 1.5858920480490695, 1.590924301474635, "rotated"),
        ("-X", 1.9999999999999982, 1.999912997827509, "plain")),
    ("continuous", 1, 1): (
        8, ("+X", 1.999912997827509, 1.9999999999999982, "inverse"),
        ("-X", 1.9999999999999982, 1.999912997827509, "plain")),
    ("continuous", 1, 2): (
        3, ("-X", 1.999912997827509, 1.9999999999999982, "inverse"),
        ("+Y", 1.5699984921559678, 1.5654844433035804, "rotated")),
    ("clifford+dyadic", 2, 0): (
        8, ("-XI +XZ", 2.999999999999995, 3.9999999999999876, "inverse"),
        ("+YI +YZ", 3.9999999999999964, 2.9999999999999947, "plain")),
    ("clifford+dyadic", 2, 1): (
        4, ("+ZY +IY", 2.9999999999999947, 3.9999999999999876, "inverse"),
        ("-IX -ZI", 3.9999999999999964, 2.9999999999999947, "plain")),
    ("clifford+dyadic", 2, 2): (
        2, ("+IY +ZI", 2.9999999999999947, 3.9999999999999876, "inverse"),
        ("-XI +XZ", 3.9999999999999964, 2.9999999999999947, "plain")),
    ("continuous", 2, 0): (
        6, ("+XX -ZZ", 3.3519228320753887, 3.9106982188996766, "rotated"),
        ("-XX +YY", 3.9999999999999964, 3.0026681928045855, "plain")),
    ("continuous", 2, 1): (
        2, ("+ZY +IY", 3.0362772106305873, 3.9999999999999947, "inverse"),
        ("+ZZ -XY", 3.9999999999999964, 3.0026681928045855, "plain")),
    ("continuous", 2, 2): (
        2, ("+IY +ZI", 3.0362772106305873, 3.9999999999999947, "inverse"),
        ("-XI +XZ", 3.9999999999999964, 3.980539039242122, "plain")),
    ("clifford+dyadic", 3, 0): (
        5, ("+IIY +IZI +ZIY", 5.999999999999978, 7.99999999999995, "inverse"),
        ("+ZZZ -YZY +XZX", 7.999999999999993, 4.499999999999983, "plain")),
    ("clifford+dyadic", 3, 1): (
        2, ("-YZX +XZY +XYX", 5.99999999999998, 7.99999999999995, "inverse"),
        ("+XII -IXZ -XZY", 7.9999999999999964, 3.3749999999999885, "plain")),
    ("clifford+dyadic", 3, 2): (
        2, ("+IIX -XZX +YYI", 3.3749999999999853, 7.999999999999935, "inverse"),
        ("+XXX -XIX +ZXY", 7.9999999999999964, 5.999999999999979, "plain")),
    ("continuous", 3, 0): (
        3, ("-YZX -YYY -XZY", 5.943222399594214, 7.693936924688903, "rotated"),
        ("+ZZZ -YZY +XZX", 7.999999999999993, 6.134586783946378, "plain")),
    ("continuous", 3, 1): (
        2, ("-YZX +XZY +XYX", 6.098393577053248, 8.0, "inverse"),
        ("+XII -IXZ -XZY", 7.9999999999999964, 6.108494841367793, "plain")),
    ("continuous", 3, 2): (
        2, ("+IIX -XZX +YYI", 6.108494841367792, 7.999999999999998, "inverse"),
        ("+XXX -XIX +ZXY", 7.9999999999999964, 6.1084948413677935, "plain")),
    ("clifford+dyadic", 4, 0): (
        2, ("-ZYIZ +XYXX +YIIY +XIIX", 8.999999999999956, 15.999999999999865, "inverse"),
        ("-IYYI +IIYX -ZIII -ZZXZ", 15.999999999999993, 5.062499999999978, "plain")),
    ("clifford+dyadic", 4, 1): (
        2, ("+YXZI -IXII -YXII +YIZX", 6.749999999999961, 15.999999999999849, "inverse"),
        ("+YZXZ +XIYZ +IXXY +ZIIY", 15.999999999999993, 5.062499999999978, "plain")),
    ("clifford+dyadic", 4, 2): (
        3, ("+XZXY +YZYY -YXYZ -IZZZ", 8.999999999999966, 15.999999999999886, "inverse"),
        ("-IZZZ -ZYYI -YIZI -ZIYX", 7.233965344375982, 3.78634495324689, "rotated")),
    ("continuous", 4, 0): (
        2, ("-ZYIZ +XYXX +YIIY +XIIX", 8.153972896497304, 15.999999999999991, "inverse"),
        ("-IYYI +IIYX -ZIII -ZZXZ", 15.999999999999993, 7.9677363621531265, "plain")),
    ("continuous", 4, 1): (
        2, ("+YXZI -IXII -YXII +YIZX", 9.362599119794591, 15.999999999999993, "inverse"),
        ("+YZXZ +XIYZ +IXXY +ZIIY", 15.999999999999993, 7.2038725291070955, "plain")),
    ("continuous", 4, 2): (
        2, ("+XZXY +YZYY -YXYZ -IZZZ", 9.552536589524196, 16.0, "inverse"),
        ("+XIII +IXXZ -IZIY +IZZI", 15.999999999999993, 10.60706898076173, "plain")),
}


class TestNoGo:
    def golden_block(self):
        return LayerBlock(
            1, CliffordOp(1, (("H", 0),)), RotationVector.dyadic((1,), 3)
        )

    def test_both_directions_found(self):
        wit = nogo_witness(self.golden_block().layers, alpha=2, trials=200, seed=0)
        assert wit.increase.delta > 1e-6
        assert wit.decrease.delta < -1e-6
        assert wit.trials_used <= 200

    def test_witness_states_replay_through_oracle(self):
        wit = nogo_witness(self.golden_block().layers, alpha=2, trials=200, seed=0)
        for ws in (wit.increase, wit.decrease):
            st = statevector(ws.tableau)
            for kind, obj in ws.pre_layers:
                st = apply_gates(st, obj.gates) if kind == "clifford" else apply_rotation(st, obj)
            before = f_alpha(oracle_spectrum(st), 2)
            assert abs(before - ws.f_before) < 1e-9
            for kind, obj in wit.layers:
                st = apply_gates(st, obj.gates) if kind == "clifford" else apply_rotation(st, obj)
            after = f_alpha(oracle_spectrum(st), 2)
            assert abs(after - ws.f_after) < 1e-9

    def test_two_qubit_block(self):
        rng = np.random.default_rng(3)
        block = LayerBlock(
            2, random_clifford(2, rng), RotationVector.dyadic((1, 0), 3)
        )
        wit = nogo_witness(block.layers, alpha=2, trials=200, seed=1)
        assert wit.increase.delta > 1e-6 and wit.decrease.delta < -1e-6

    def test_clifford_block_rejected(self):
        block = LayerBlock(1, CliffordOp(1, (("H", 0),)), RotationVector.dyadic((2,), 3))
        with pytest.raises(ValidationError):
            nogo_witness(block.layers)

    def test_deterministic(self):
        a = nogo_witness(self.golden_block().layers, seed=5)
        b = nogo_witness(self.golden_block().layers, seed=5)
        assert a.trials_used == b.trials_used
        assert a.increase.tableau == b.increase.tableau

    @pytest.mark.parametrize("name", ["clifford+dyadic", "continuous"])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_one_block_matches_the_block_witness(self, name, n):
        # a one-block sequence draws what the block form drew and computes the
        # same oracle numbers; its inverse preparation is the block's two
        # inverse blocks as layers, an empty Clifford left out
        (kind_c, cliff), *_ = block_layers = _pinned_blocks(n)[name].layers
        w = block_layers[-1][1]
        inverse = (("sqr", RotationVector.continuous([-v for v in w.values])),)
        if kind_c == "clifford":
            inverse += (("clifford", cliff.inverse()),)
        for seed in range(3):
            trials, *states = _PARENT_WITNESSES[(name, n, seed)]
            wit = nogo_witness(block_layers, seed=seed)
            assert wit.layers == block_layers and wit.trials_used == trials
            for ws, (gens, f_before, f_after, prep) in zip((wit.increase, wit.decrease), states):
                assert ws.tableau.to_json()["generators"] == gens.split()
                assert abs(ws.f_before - f_before) <= 1e-12, (seed, prep)
                assert abs(ws.f_after - f_after) <= 1e-12, (seed, prep)
                if prep == "inverse":
                    assert ws.pre_layers == inverse
                else:
                    assert [kind for kind, _ in ws.pre_layers] == ["sqr"] * (prep == "rotated")

    def test_two_block_sequence_at_n3(self):
        rng = np.random.default_rng([52, 17])
        layers = [
            ("clifford", random_clifford(3, rng)), ("sqr", RotationVector.dyadic((1, 3, 0), 3)),
            ("clifford", random_clifford(3, rng)),
            ("sqr", RotationVector.continuous(rng.uniform(0, 1, 3))),
        ]
        wit = nogo_witness(layers, seed=0)
        assert wit.layers == tuple(layers)
        assert wit.increase.delta > 1e-6 and wit.decrease.delta < -1e-6
        # the dragged-back state's preparation is the sequence's inverse:
        # reversed, C^dagger and negated angles
        inverse = tuple(
            ("clifford", obj.inverse()) if kind == "clifford"
            else ("sqr", RotationVector.continuous([-v for v in obj.values]))
            for kind, obj in reversed(layers))
        assert [kind for kind, _ in inverse] == ["sqr", "clifford", "sqr", "clifford"]
        assert inverse in (wit.increase.pre_layers, wit.decrease.pre_layers)

    @pytest.mark.parametrize("layers", [
        [],
        [("clifford", CliffordOp(2, (("H", 0),)))],
        [("sqr", RotationVector.dyadic((1, 1), 3)), ("gate", make_gate("T", [1], 2))],
        [("sqr", RotationVector.dyadic((1, 1), 3)), ("sqr", RotationVector.dyadic((1,), 3))],
        [("sqr", RotationVector.dyadic((1, 1), 3)), ("sqr", (0.1, 0.2))],
    ], ids=["empty", "clifford-only", "gate", "mixed-n", "bare-angles"])
    def test_bad_sequence_rejected(self, layers):
        with pytest.raises(ValidationError):
            nogo_witness(layers)


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
        lambda n: partial(nogo_witness, LayerBlock(n, None, RotationVector.dyadic((1,) * n, 3)).layers),
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
