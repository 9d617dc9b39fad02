"""Closed-form spectra and the magic functionals on top of them."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from magicforge.diagonal_gates import (
    RotationVector,
    make_gate,
    random_polynomial,
)
from magicforge.errors import ValidationError
from magicforge.oracle import apply_diagonal, apply_rotation, oracle_spectrum, statevector
from magicforge.pauli_core import PauliLabel, to_index
from magicforge.spectrum import (
    _CSV_BLOCK_ROWS,
    _EXACT_SUM_CUT,
    PauliSpectrum,
    exact_sum,
    f_alpha,
    flat_bound,
    nullity,
    shallow_spectrum,
    spectrum_csv_rows,
    sre,
    stabilizer_max,
    support_size,
)
from magicforge.stabilizer import (
    StabilizerTableau,
    canonicalize,
    plus_tableau,
    random_stabilizer,
)
from magicforge.transfer import (
    LayerBlock,
    apply_block,
    initial_spectrum,
    phase_layer,
    random_clifford,
)

from helpers import coset_reference, spectrum_csv_reference, sqr_to_poly, theta_diff


def closed(tab, f):
    return shallow_spectrum(canonicalize(tab), f)


class TestContainer:
    def test_norm_enforced(self):
        vals = np.zeros(4)
        vals[0] = 1.0
        with pytest.raises(ValidationError):
            PauliSpectrum(1, vals * 0.5)

    def test_identity_entry_enforced(self):
        vals = np.zeros(4)
        vals[1] = np.sqrt(2.0)
        with pytest.raises(ValidationError):
            PauliSpectrum(1, vals)

    def test_complex_input_rejected(self):
        # entries are expectations of Hermitian operators; complex input is an error, not a cast
        vals = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError):
            PauliSpectrum(1, vals)

    def test_values_are_float64(self):
        s = PauliSpectrum(1, [1, 1, 0, 0])
        assert s.values.dtype == np.float64
        assert closed(plus_tableau(1), make_gate("T", [1], 1)).values.dtype == np.float64

    @pytest.mark.parametrize("vals", [[1.0, np.nan, 0.0, 0.0], [np.nan] * 4,
                                      [1.0, np.inf, 0.0, 0.0]])
    def test_non_finite_entries_rejected(self, vals):
        # a NaN compares false with everything, so a NaN norm must not slip past the bound
        with pytest.raises(ValidationError):
            PauliSpectrum(1, vals)

    def test_values_are_read_only(self):
        s = closed(plus_tableau(2), make_gate("T", [1], 2))
        f = f_alpha(s, 2)
        with pytest.raises(ValueError):
            s.values[1] = 0.0
        assert f_alpha(s, 2) == f

    def test_caller_array_cannot_stale_the_moments(self):
        # the input is copied, so the caller's array stays writeable and apart
        v = np.array([1.0, 1.0, 0.0, 0.0])
        s = PauliSpectrum(1, v)
        assert f_alpha(s, 2) == 2.0
        assert v.flags.writeable
        v[1], v[2] = 0.6, 0.8
        assert s.values.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert f_alpha(s, 2) == 2.0 == math.fsum((s.values ** 4).tolist())

    def test_view_taken_before_construction_cannot_stale_the_moments(self):
        v = np.array([1.0, 1.0, 0.0, 0.0])
        w = v[:]
        s = PauliSpectrum(1, v)
        assert f_alpha(s, 2) == 2.0
        w[1], w[2] = 0.6, 0.8
        assert s.values.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert f_alpha(s, 2) == math.fsum((s.values ** 4).tolist())

    def test_view_input_is_copied(self):
        base = np.array([1.0, 1.0, 0.0, 0.0, 9.0])
        view = base[:4]
        s = PauliSpectrum(1, view)
        base[1], base[2] = 0.6, 0.8  # the caller's view stays writeable
        assert view.flags.writeable
        assert s.values.tolist() == [1.0, 1.0, 0.0, 0.0] and f_alpha(s, 2) == 2.0

    def test_moments_summed_once(self, monkeypatch):
        s = closed(plus_tableau(3), make_gate("CS", [1, 2], 3))
        calls = []
        real = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or real(xs))
        first = (f_alpha(s, 2), sre(s, 2), f_alpha(s, 3))
        assert len(calls) == 2
        assert (f_alpha(s, 2), sre(s, 2), f_alpha(s, 3)) == first
        assert len(calls) == 2


def _outcome(sum_fn, x):
    """The value's bits (so -0.0 and NaN compare), or the exception raised."""
    try:
        return float.hex(sum_fn(x))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _sum_inputs(rng, size):
    """Signed arrays of ``size`` entries that stress exact summation."""
    sign = rng.choice([-1.0, 1.0], size)
    yield sign * rng.random(size)
    yield sign * np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-1074, 997, size))
    yield np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-80, 2, size)) ** 4  # moments
    tiny = sign * rng.integers(1, 1 << 53, size) * 5e-324  # subnormals and the smallest normals
    tiny[rng.random(size) < 0.3] = 0.0
    tiny[rng.random(size) < 0.3] = -0.0
    yield tiny
    half = sign[: size // 2] * np.ldexp(rng.random(size // 2), rng.integers(-60, 60, size // 2))
    yield rng.permutation(np.concatenate([half, -half, [1e-300] * (size % 2)]))


class TestExactSum:
    @pytest.mark.parametrize("size", [1, 7, 1000, 4095, 4096, 4097, 6000, 65536])
    def test_matches_fsum_bit_for_bit(self, size):
        rng = np.random.default_rng([31, size])
        for _ in range(40 if size < 10000 else 2):
            for x in _sum_inputs(rng, size):
                assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())

    def test_repeated_value_below_one(self):
        x = np.full(1 << 16, 1.0 - 2.0 ** -53)
        assert exact_sum(x) == math.fsum(x.tolist()) == 65536.0 - 2.0 ** -37

    @pytest.mark.parametrize("size", [1, 5000])
    def test_all_negative_zero(self, size):
        x = np.full(size, -0.0)
        assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("head", [[np.inf], [np.nan], [np.inf, -np.inf], [1e308, 1e308],
                                      [1e308, 1e308, -1e308], [-np.inf, 1.0]])
    @pytest.mark.parametrize("size", [0, 5000])
    def test_non_finite_and_overflow_as_fsum(self, head, size):
        x = np.concatenate([head, np.random.default_rng(32).random(size)])
        assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())

    def test_f_alpha_on_the_kernel_path(self):
        w = RotationVector.continuous(tuple(np.linspace(0.05, 0.9, 7)))
        s = apply_block(initial_spectrum(random_stabilizer(7, 33)), LayerBlock(7, None, w))
        assert s.values.size >= _EXACT_SUM_CUT
        for a in (2, 3, 4):
            assert f_alpha(s, a) == math.fsum((s.abs2() ** a).tolist())

    @pytest.mark.parametrize("n", [3, 7])
    def test_in_place_power_keeps_every_moment(self, n):
        # f_alpha raises its one temporary in place; the moment must not move a bit
        rng = np.random.default_rng(34 + n)
        w = RotationVector.continuous(tuple(rng.uniform(0, 1, n)))
        s = apply_block(initial_spectrum(random_stabilizer(n, 35 + n)),
                        LayerBlock(n, random_clifford(n, rng), w))
        for a in (2, 3, 4):
            assert f_alpha(s, a) == math.fsum((s.abs2() ** a).tolist())


class TestGoldens:
    def test_t_on_plus(self):
        s = closed(plus_tableau(1), make_gate("T", [1], 1))
        assert np.allclose(s.values, [1, 0, np.sqrt(0.5), np.sqrt(0.5)], rtol=0, atol=1e-12)
        assert abs(f_alpha(s, 2) - 1.5) < 1e-12
        assert abs(sre(s, 2) - math.log2(4.0 / 3.0)) < 1e-12

    def test_t_on_plus_sign_convention(self):
        # the Y expectation comes out positive in this label convention
        o = oracle_spectrum(apply_diagonal(statevector(plus_tableau(1)), make_gate("T", [1], 1)))
        y = o.values[to_index(PauliLabel(1, 1, 1))]
        assert abs(y - np.sqrt(0.5)) < 1e-12

    def test_cs_on_plus_plus(self):
        s = closed(plus_tableau(2), make_gate("CS", [1, 2], 2))
        assert abs(f_alpha(s, 2) - 1.75) < 1e-12
        assert abs(f_alpha(s, 2) - flat_bound(2, 2)) < 1e-12

    def test_entangled_support_hand_case(self):
        # (|00> + i|11>)/sqrt(2): stabilized by YX and ZZ; spectrum worked by hand
        tab = StabilizerTableau.from_json({"n": 2, "generators": ["+YX", "+ZZ"]})
        s = closed(tab, make_gate("CZ", [1, 2], 2))  # any Clifford diagonal keeps structure
        o = oracle_spectrum(apply_diagonal(statevector(tab), make_gate("CZ", [1, 2], 2)))
        assert np.max(np.abs(s.values - o.values)) < 1e-12
        s0 = shallow_spectrum(canonicalize(tab), make_gate("Z", [1], 2))
        o0 = oracle_spectrum(apply_diagonal(statevector(tab), make_gate("Z", [1], 2)))
        assert np.max(np.abs(s0.values - o0.values)) < 1e-12


class TestClosedFormVsOracle:
    def test_any_tableau_matches_its_canonical_form(self):
        # the fold takes any rows of the group: bit for bit the same spectrum
        rng = np.random.default_rng(19)
        for n in range(1, 9):
            for _ in range(3):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                f = random_polynomial(n, rng)
                got = shallow_spectrum(tab, f).values
                want = shallow_spectrum(canonicalize(tab), f).values
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), n

    def test_gate_on_other_qubits_rejected(self):
        with pytest.raises(ValidationError, match="not on its n=2 qubits"):
            shallow_spectrum(plus_tableau(2), make_gate("T", [1], 3))

    def test_random_signed_sweep(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3, 4):
            for _ in range(15):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                f = random_polynomial(n, rng)
                s = closed(tab, f)
                o = oracle_spectrum(apply_diagonal(statevector(tab), f))
                assert np.max(np.abs(s.values - o.values)) < 1e-10

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_signed_sweep_up_to_cap(self, n):
        # the closed form and the rotation transfer, entry for entry with sign,
        # up to the n = 8 cap
        rng = np.random.default_rng([16, n])
        for _ in range(3):
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            st = statevector(tab)
            f = random_polynomial(n, rng)
            o = oracle_spectrum(apply_diagonal(st, f))
            assert np.max(np.abs(closed(tab, f).values - o.values)) < 1e-10
            w = RotationVector.continuous(tuple(rng.uniform(0, 1, n)))
            o = oracle_spectrum(apply_rotation(st, w))
            s = apply_block(initial_spectrum(tab), LayerBlock(n, None, w))
            assert np.max(np.abs(s.values - o.values)) < 1e-10

    def test_norm_identity(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4, 5):
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            s = closed(tab, random_polynomial(n, rng))
            assert abs(float(np.sum(s.abs2())) - (1 << n)) < 1e-9

    def test_x_zero_sector_exact(self):
        # diagonal gates never change Z-type expectations
        rng = np.random.default_rng(12)
        for _ in range(10):
            tab = random_stabilizer(3, int(rng.integers(1 << 30)))
            f = random_polynomial(3, rng)
            s = closed(tab, f)
            plain = oracle_spectrum(statevector(tab))
            # the x = 0 block is the first 2**n entries
            assert np.max(np.abs(s.values[:8] - plain.values[:8])) < 1e-12


class TestSqrPath:
    # a rotation layer goes through the transfer's real kernel, rotate_layer;
    # for dyadic angles the phase-layer kernel must give the same spectrum

    def test_dyadic_agrees_with_polynomial_path(self):
        rng = np.random.default_rng(13)
        for n in range(1, 9):
            for _ in range(2):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                prep = LayerBlock(n, random_clifford(n, rng),
                                  RotationVector.continuous(tuple(rng.uniform(0, 1, n))))
                stab = initial_spectrum(tab)
                for s in (stab, apply_block(stab, prep)):  # stabilizer, then generic input
                    w = RotationVector.dyadic(tuple(int(k) for k in rng.integers(0, 16, n)), 4)
                    a = apply_block(s, LayerBlock(n, None, w)).values
                    b = phase_layer(s.values, sqr_to_poly(w))
                    assert np.max(np.abs(a - b)) < 1e-12, n

    def test_continuous_vs_oracle(self):
        rng = np.random.default_rng(14)
        for n in (1, 2, 3):
            for _ in range(10):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                w = RotationVector.continuous(tuple(rng.uniform(0, 1, n)))
                s = apply_block(initial_spectrum(tab), LayerBlock(n, None, w))
                o = oracle_spectrum(apply_rotation(statevector(tab), w))
                assert np.max(np.abs(s.values - o.values)) < 1e-10

    def test_product_state_per_qubit_structure(self):
        # on |+>^n each qubit contributes (1, cos, sin, 0) independently
        w = RotationVector.continuous((0.1, 0.37))
        s = apply_block(initial_spectrum(plus_tableau(2)), LayerBlock(2, None, w))
        for j, wj in enumerate(w.values):
            x = 1 << j
            c, sn = np.cos(2 * np.pi * wj), np.sin(2 * np.pi * wj)
            assert abs(s.values[x << s.n] - c) < 1e-12
            assert abs(s.values[(x << s.n) | x] - sn) < 1e-12
            assert abs(s.values[x]) < 1e-12


class TestMagicPolynomialConsistency:
    def test_quadruple_sum_matches_f2(self):
        # F_2 as an explicit sum over 4-tuples of support states with zero XOR
        rng = np.random.default_rng(15)
        for n in (1, 2, 3):
            for _ in range(4):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                f = random_polynomial(n, rng)
                supp, cosets = coset_reference(tab)
                scale = 1.0 / len(supp)
                total = 0.0
                for x, ref in cosets.items():
                    phases = {
                        b: complex(
                            np.exp(2j * np.pi * float(theta_diff(f, b, x)))
                        ) * (-1) ** ((b & ref.z).bit_count() & 1)
                        for b in supp
                    }
                    for b1 in supp:
                        for b2 in supp:
                            for b3 in supp:
                                b4 = b1 ^ b2 ^ b3
                                if b4 not in phases:
                                    continue
                                total += (
                                    phases[b1] * phases[b2]
                                    * np.conj(phases[b3]) * np.conj(phases[b4])
                                ).real
                total *= scale ** 4 * (1 << n)
                want = f_alpha(closed(tab, f), 2)
                assert abs(total - want) < 1e-8


# None, NaN and the infinities raised TypeError, ValueError and OverflowError
BAD_ALPHAS = [None, float("nan"), float("inf"), float("-inf"), True, 1, 2.5, "2"]


class TestFunctionals:
    def test_f_alpha_requires_integer_alpha(self):
        s = closed(plus_tableau(1), make_gate("T", [1], 1))
        with pytest.raises(ValidationError):
            f_alpha(s, 1)

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_f_alpha_bad_alpha_is_bad_input(self, alpha):
        s = closed(plus_tableau(1), make_gate("T", [1], 1))
        with pytest.raises(ValidationError, match="alpha must be an integer >= 2"):
            f_alpha(s, alpha)

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_sre_bad_alpha_is_bad_input(self, alpha):
        s = closed(plus_tableau(1), make_gate("T", [1], 1))
        with pytest.raises(ValidationError, match="alpha must be an integer >= 2"):
            sre(s, alpha)

    @pytest.mark.parametrize("alpha", [260, 300, 10**20])
    def test_sre_past_the_normal_range(self, alpha):
        # n alpha > 1022: F 2**(-n alpha) is subnormal or 0, and M_alpha comes
        # from the equal form (log2 F - n) / (1 - alpha), finite
        w = RotationVector.continuous((0.1, 0.2, 0.3, 0.05))
        s = apply_block(initial_spectrum(plus_tableau(4)), LayerBlock(4, None, w))
        m = sre(s, alpha)
        assert math.isfinite(m)
        assert abs(m - (math.log2(f_alpha(s, alpha)) - 4) / (1 - alpha)) <= 1e-15

    @pytest.mark.parametrize("n, alpha", [(8, 3), (2, 511)])
    def test_sre_keeps_the_scaled_form_while_it_is_normal(self, n, alpha):
        # up to n alpha = 1022 the value is the scaled form's, bit for bit
        w = RotationVector.continuous(np.linspace(0.05, 0.45, n))
        s = apply_block(initial_spectrum(plus_tableau(n)), LayerBlock(n, None, w))
        f = f_alpha(s, alpha)
        assert sre(s, alpha) == math.log2(f * 2.0 ** (-n * alpha)) / (1 - alpha) - n

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_flat_bound_bad_alpha_is_bad_input(self, alpha):
        with pytest.raises(ValidationError, match="alpha must be an integer >= 2"):
            flat_bound(3, alpha)

    def test_stabilizer_state_values(self):
        s = closed(plus_tableau(2), make_gate("Z", [1], 2))
        assert abs(f_alpha(s, 2) - 4.0) < 1e-12
        assert abs(sre(s, 2)) < 1e-12
        assert abs(nullity(s) - 0.0) < 1e-12
        assert support_size(s) == 4

    def test_nullity_t_state(self):
        s = closed(plus_tableau(1), make_gate("T", [1], 1))
        assert abs(nullity(s) - 1.0) < 1e-12

    def test_flat_bound_formula(self):
        assert abs(flat_bound(1, 2) - 1.5) < 1e-15
        assert abs(flat_bound(2, 2) - 1.75) < 1e-15
        assert abs(flat_bound(3, 2) - (1 + 7 / 8)) < 1e-15
        assert abs(flat_bound(2, 3) - (1 + 3 / 16)) < 1e-15

    def test_flat_bound_saturation_structure(self):
        # saturation spreads weight evenly over every x != 0 slot at |a|^2 = 2^-n,
        # while the x = 0 row keeps its stabilizer values (1, 0, ..., 0)
        s = closed(plus_tableau(2), make_gate("CS", [1, 2], 2))
        mags = np.abs(s.values)
        assert abs(mags[0] - 1.0) < 1e-12
        assert np.allclose(mags[1:4], 0.0, atol=1e-12)
        assert np.allclose(mags[4:], 0.5, atol=1e-12)

    def test_stabilizer_max(self):
        assert stabilizer_max(3) == 8.0

    def test_higher_alpha_golden(self):
        s = closed(plus_tableau(1), make_gate("T", [1], 1))
        # 1 + 2 * (1/2)**3
        assert abs(f_alpha(s, 3) - 1.25) < 1e-12


def csv_text(s) -> str:
    """The pieces of the CSV body joined, after checking that each one ends
    a line and holds whole x sectors, no more rows than a block (or one
    sector) and at least one."""
    size = 1 << s.n
    pieces = list(spectrum_csv_rows(s))
    for piece in pieces:
        rows = piece.count("\n")
        assert piece.endswith("\n") and rows % size == 0
        assert 0 < rows <= max(size, _CSV_BLOCK_ROWS)
    return "".join(pieces)


class TestCsvRows:
    def test_layout(self):
        s = closed(plus_tableau(1), make_gate("T", [1], 1))
        lines = csv_text(s).splitlines()
        assert len(lines) == 4
        fields = lines[0].split(",")
        assert fields[:2] == ["0", "0"] and fields[3] == "0.0"
        assert abs(float(fields[2]) - 1.0) < 1e-12

    def test_bit_string_orientation(self):
        tab = plus_tableau(2)
        s = closed(tab, make_gate("Z", [1], 2))
        lines = csv_text(s).splitlines()
        # index x=1 means X on qubit 1: leftmost character set
        assert lines[(1 << 2) | 0].startswith("10,00,")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bytes_match_csv_writer(self, n):
        rng = np.random.default_rng([n, 31])
        tab = random_stabilizer(n, int(rng.integers(1 << 30)))
        f = random_polynomial(n, rng)
        for s in (closed(tab, f), oracle_spectrum(apply_diagonal(statevector(tab), f))):
            assert csv_text(s) == spectrum_csv_reference(n, s.values)

    def test_edge_values_match_csv_writer(self):
        # a stand-in skips the norm check; 0.0 precedes -0.0 so merging them by value shows,
        # and abs(a) ** 2 differs from a * a in the last bit at 0.09375000000000001
        vals = np.zeros(16)
        vals[:8] = [1.0, 0.0, -0.0, 5e-324, -5e-324, 1e-05, 0.09375000000000001, -0.09375000000000001]
        s = SimpleNamespace(n=2, values=vals)
        text = csv_text(s)
        assert text == spectrum_csv_reference(2, vals)
        assert text.splitlines()[2] == "00,01,-0.0,0.0,0.0"

    def test_edge_values_scattered_at_the_cap(self):
        # 4**8 entries: half are edge values, in every sector, among distinct random ones
        rng = np.random.default_rng(22)
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 0.09375000000000001, -0.09375000000000001])
        vals = rng.uniform(-1.0, 1.0, 4**8)
        hit = rng.random(4**8) < 0.5
        vals[hit] = edges[rng.integers(len(edges), size=int(hit.sum()))]
        vals[0] = 1.0
        sectors = vals.view(np.int64).reshape(256, 256)
        assert all((sectors == key).any(axis=1).all() for key in edges.view(np.int64))
        s = SimpleNamespace(n=8, values=vals)
        assert csv_text(s) == spectrum_csv_reference(8, vals)
