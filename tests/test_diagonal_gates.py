"""Phase polynomials, rotation vectors, and the named gate recipes."""

from fractions import Fraction

import numpy as np
import pytest

from magicforge.diagonal_gates import (
    MAX_RESOLUTION,
    PhasePolynomial,
    RotationVector,
    from_values,
    hierarchy_level,
    make_gate,
    random_polynomial,
    value_numerators,
)
from magicforge.errors import ValidationError
from magicforge.pauli_core import MAX_QUBITS

from helpers import diagonal_matrix, rotation_matrix, sqr_to_poly, theta, theta_diff


class TestNormalization:
    @pytest.mark.parametrize("n, terms", [(True, [(2, 1, 1)]), (1.5, [(2, 1, 1)]),
                                          (2, [(2, 1.5, 1)]), (2, [(2.5, 1, 1)]),
                                          (2, [(2, 1, 0.5)]), (2, [(2, True, 1)]),
                                          (2, {(2, 1): 1.5})])
    def test_rejects_non_whole_fields(self, n, terms):
        with pytest.raises(ValidationError):
            PhasePolynomial(n, terms)

    def test_qubit_cap(self):
        # the cap of every n-qubit type: no tableau, Clifford or rotation goes past it
        assert PhasePolynomial(MAX_QUBITS, [(1, 1 << (MAX_QUBITS - 1), 1)]).n == MAX_QUBITS
        for n in (0, MAX_QUBITS + 1):
            with pytest.raises(ValidationError, match=f"n={n} outside 1..{MAX_QUBITS}"):
                PhasePolynomial(n, [])

    def test_reads_whole_floats(self):
        f = PhasePolynomial(2.0, [(2.0, 1.0, np.int64(1))])
        assert f == PhasePolynomial(2, [(2, 1, 1)]) and type(f.n) is int
        assert repr(f) == "PhasePolynomial(n=2, 1/2^2*b[01])"

    def test_merge_same_mask(self):
        # 1/8 + 1/8 = 1/4 on the same monomial
        f = PhasePolynomial(1, [(3, 1, 1), (3, 1, 1)])
        assert f.terms == {(2, 1): 1}

    def test_merge_across_resolutions(self):
        # 1/2 + 1/4 = 3/4
        f = PhasePolynomial(2, [(1, 0b11, 1), (2, 0b11, 1)])
        assert f.terms == {(2, 0b11): 3}

    def test_cancellation_to_identity(self):
        f = PhasePolynomial(1, [(2, 1, 1), (2, 1, 3)])
        assert f.terms == {}
        assert hierarchy_level(f) == 0

    def test_constant_term_dropped(self):
        # a global phase has no observable effect on any state
        f = PhasePolynomial(2, [(3, 0, 5), (1, 0b01, 1)])
        assert f.terms == {(1, 0b01): 1}

    def test_numerator_reduced_to_odd(self):
        f = PhasePolynomial(1, [(4, 1, 4)])
        assert f.terms == {(2, 1): 1}

    def test_numerator_mod_one(self):
        # c = 2**m means a full turn
        f = PhasePolynomial(1, [(3, 1, 8)])
        assert f.terms == {}

    def test_resolution_bounds(self):
        with pytest.raises(ValidationError):
            PhasePolynomial(1, [(0, 1, 1)])
        with pytest.raises(ValidationError):
            PhasePolynomial(1, [(31, 1, 1)])

    def test_mask_bounds(self):
        with pytest.raises(ValidationError):
            PhasePolynomial(1, [(1, 2, 1)])


class TestEvaluate:
    def test_t_gate_values(self):
        t = make_gate("T", [1], 1)
        assert theta(t, 0) == 0
        assert theta(t, 1) == Fraction(1, 8)

    def test_evaluate_matches_value_table(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_polynomial(3, rng)
            vals, m = value_numerators(f)
            for b in range(8):
                assert theta(f, b) == Fraction(int(vals[b]), 1 << m) % 1

    def test_mobius_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = random_polynomial(3, rng)
            vals, m = value_numerators(f)
            assert from_values(3, vals, m) == f

    def test_from_values_arbitrary_table(self):
        # any integer value table is realizable at that resolution
        vals = np.array([0, 3, 5, 6], dtype=np.int64)
        f = from_values(2, vals, 3)
        for b in range(4):
            assert theta(f, b) == Fraction(int(vals[b]), 8) % 1


class TestHierarchyLevel:
    @pytest.mark.parametrize(
        "name,qubits,n,level",
        [
            ("Z", [1], 1, 1),
            ("S", [1], 1, 2),
            ("T", [1], 1, 3),
            ("CZ", [1, 2], 2, 2),
            ("CS", [1, 2], 2, 3),
            ("CCZ", [1, 2, 3], 3, 3),
        ],
    )
    def test_named_gates(self, name, qubits, n, level):
        assert hierarchy_level(make_gate(name, qubits, n)) == level

    def test_fourth_level(self):
        # sqrt(T) and sqrt(CS)
        assert hierarchy_level(PhasePolynomial(1, [(4, 1, 1)])) == 4
        assert hierarchy_level(PhasePolynomial(2, [(3, 0b11, 1)])) == 4

    def test_multi_qubit_controlled_z(self):
        g = make_gate("CCCZ", [1, 2, 3, 4], 4)
        assert hierarchy_level(g) == 4


class TestMakeGateDense:
    def test_t_diagonal(self):
        m = diagonal_matrix(make_gate("T", [1], 1))
        assert np.allclose(np.diag(m), [1, np.exp(1j * np.pi / 4)])

    def test_s_on_second_qubit(self):
        m = diagonal_matrix(make_gate("S", [2], 2))
        assert np.allclose(np.diag(m), [1, 1, 1j, 1j])

    def test_cs_diagonal(self):
        m = diagonal_matrix(make_gate("CS", [1, 2], 2))
        assert np.allclose(np.diag(m), [1, 1, 1, 1j])

    def test_ccz_diagonal(self):
        m = diagonal_matrix(make_gate("CCZ", [1, 2, 3], 3))
        want = np.ones(8, dtype=complex)
        want[7] = -1
        assert np.allclose(np.diag(m), want)

    def test_cz_matches_clifford_gate(self):
        from helpers import gate_matrix

        m = diagonal_matrix(make_gate("CZ", [1, 2], 2))
        assert np.allclose(m, gate_matrix(2, ("CZ", 0, 1)))

    def test_bad_arity(self):
        with pytest.raises(ValidationError):
            make_gate("CS", [1], 2)
        with pytest.raises(ValidationError):
            make_gate("T", [1, 2], 2)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValidationError):
            make_gate("T", [3], 2)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            make_gate("TOFFOLI", [1, 2, 3], 3)


class TestThetaDiff:
    def test_matches_evaluate(self):
        # convention: theta(b) minus theta(b XOR x)
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_polynomial(3, rng)
            for b in range(8):
                for x in range(8):
                    want = (theta(f, b) - theta(f, b ^ x)) % 1
                    assert theta_diff(f, b, x) == want

    def test_identity_shift(self):
        f = make_gate("T", [1], 1)
        assert theta_diff(f, 1, 0) == 0


class TestRotationVector:
    def test_dyadic_angles(self):
        w = RotationVector.dyadic((1, 3), 3)
        assert tuple(Fraction(v) for v in w.values) == (Fraction(1, 8), Fraction(3, 8))

    @pytest.mark.parametrize("n", [True, 1.5, "1", None])
    def test_rejects_non_whole_angle_count(self, n):
        with pytest.raises(ValidationError):
            RotationVector(n, (0.1,))

    def test_reads_a_whole_float_angle_count(self):
        w = RotationVector(2.0, (0.1, 0.2))
        assert w == RotationVector(2, (0.1, 0.2)) and type(w.n) is int

    def test_numerators_wrap(self):
        assert RotationVector.dyadic((9,), 3).values == (0.125,)

    @pytest.mark.parametrize("k", [0.5, True, 1.5, "1", None])
    def test_dyadic_rejects_non_whole_numerator(self, k):
        # never truncated to an angle: 0.5 would read as 0.0, True as 1/8
        with pytest.raises(ValidationError):
            RotationVector.dyadic([k], 3)

    def test_dyadic_reads_whole_floats(self):
        assert RotationVector.dyadic([3.0], 3.0) == RotationVector.dyadic([3], 3)

    def test_dyadic_resolution_range(self):
        for m in (0, MAX_RESOLUTION + 1):
            with pytest.raises(ValidationError):
                RotationVector.dyadic((1,), m)

    def test_continuous_wraps_to_unit(self):
        w = RotationVector.continuous((1.25, -0.25))
        assert w.values == (0.25, 0.75)
        # a tiny negative angle reduces to 1 - eps, which rounds to 1.0: stored as 0.0
        w = RotationVector.continuous((-1e-17, -2.0**-54, -2.0**-53, 1.0, -0.0))
        assert w.values == (0.0, 0.0, 1.0 - 2.0**-53, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_continuous_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            RotationVector.continuous((bad, 0.1))

    def test_json_round_trip(self):
        for w in (RotationVector.dyadic((1, 3), 3), RotationVector.continuous((0.3, 0.7))):
            assert RotationVector.from_json(w.to_json()) == w

    def test_dyadic_json_writes_floats(self):
        w = RotationVector.from_json({"m": 3, "k": [1, 3]})
        assert w.to_json() == {"w": [0.125, 0.375]}

    def test_bad_json(self):
        with pytest.raises(ValidationError):
            RotationVector.from_json({"q": 1})

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            RotationVector(2, (0.5,))

    @pytest.mark.parametrize("values", [(), ("0.125",), (0.125, True), (False,), (None,),
                                        (0.1, [0.2]), (1j,), "0.1"],
                             ids=["none", "str", "bool", "false", "None", "list", "complex",
                                  "text"])
    def test_rejects_missing_or_non_real_angles(self, values):
        with pytest.raises(ValidationError):
            RotationVector.continuous(values)
        with pytest.raises(ValidationError):
            RotationVector.from_json({"w": values if isinstance(values, str) else list(values)})

    def test_angle_count_cap(self):
        assert RotationVector.continuous((0.1,) * MAX_QUBITS).n == MAX_QUBITS
        with pytest.raises(ValidationError, match="1..32 angles"):
            RotationVector.continuous((0.1,) * (MAX_QUBITS + 1))

    def test_accepts_real_number_types(self):
        w = RotationVector.continuous((1, 0.25, np.float64(0.5), np.float32(0.75), np.int64(2)))
        assert w.values == (0.0, 0.25, 0.5, 0.75, 0.0)
        assert all(type(v) is float for v in w.values)


class TestSqrToPoly:
    # the helper that the dyadic cross-checks of the two layer kernels rest on

    def test_linear_terms_only(self):
        f = sqr_to_poly(RotationVector.dyadic((1, 0, 3), 3))
        assert set(a for _, a in f.terms) <= {0b001, 0b100}

    def test_values_match_rotation(self):
        w = RotationVector.dyadic((3, 5), 4)
        f = sqr_to_poly(w)
        assert np.allclose(diagonal_matrix(f), rotation_matrix(w))

    def test_continuous_rejected(self):
        with pytest.raises(ValidationError):
            sqr_to_poly(RotationVector.continuous((0.3,)))

    def test_dyadic_floats_read_exactly(self):
        # a float angle k / 2**m gives the same polynomial as the dyadic layer
        rng = np.random.default_rng(9)
        for m in range(1, MAX_RESOLUTION + 1):
            ks = [int(k) for k in rng.integers(0, 1 << m, 3)]
            want = PhasePolynomial(3, [(m, 1 << j, k) for j, k in enumerate(ks)])
            w = RotationVector.continuous([k / (1 << m) for k in ks])
            assert sqr_to_poly(w) == sqr_to_poly(RotationVector.dyadic(ks, m)) == want
        with pytest.raises(ValidationError):
            sqr_to_poly(RotationVector.continuous((0.1,)))
        with pytest.raises(ValidationError):
            sqr_to_poly(RotationVector.continuous((2.0 ** -(MAX_RESOLUTION + 1),)))


class TestPolynomialJson:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = random_polynomial(3, rng)
            assert PhasePolynomial.from_json(f.to_json()) == f

    def test_mask_string_orientation(self):
        # qubit 1 is the leftmost character of the "a" string
        f = PhasePolynomial.from_json({"n": 3, "terms": [{"m": 3, "a": "100", "c": 1}]})
        assert f.terms == {(3, 0b001): 1}

    def test_embedded_rotation_rejected(self):
        # a rotation is its own circuit layer, never a gate body, and no key is dropped
        for extra in ({"sqr": {"m": 3, "k": [1, 0]}}, {"terms": [], "sqr": {"w": [0.5, 0.0]}},
                      {"terms": [], "gate": 1}):
            with pytest.raises(ValidationError,
                               match=r"unknown gate JSON keys: \['(gate|sqr)'\].*\{'sqr'"):
                PhasePolynomial.from_json({"n": 2, **extra})

    def test_bad_mask_length(self):
        with pytest.raises(ValidationError):
            PhasePolynomial.from_json({"n": 2, "terms": [{"m": 1, "a": "1", "c": 1}]})


class TestRandomPolynomial:
    def test_deterministic(self):
        a = random_polynomial(3, np.random.default_rng(7))
        b = random_polynomial(3, np.random.default_rng(7))
        assert a == b

    def test_resolution_cap(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = random_polynomial(4, rng, max_resolution=3)
            assert f.m_max <= 3
