"""Pauli label algebra against dense matrices built from definitions."""

import itertools

import numpy as np
import pytest

from magicforge.errors import ValidationError
from magicforge.pauli_core import (
    PauliLabel,
    commutes,
    pauli_from_text,
    pauli_mul,
    pauli_to_text,
    symplectic_form,
    to_index,
)

from helpers import from_index, pauli_matrix


def all_labels(n, phases=(0,)):
    for x in range(1 << n):
        for z in range(1 << n):
            for ph in phases:
                yield PauliLabel(n, x, z, ph)


class TestSingleQubitMatrices:
    def test_identity_x_z_y(self):
        assert np.allclose(pauli_matrix(PauliLabel(1, 0, 0)), np.eye(2))
        assert np.allclose(pauli_matrix(PauliLabel(1, 1, 0)), [[0, 1], [1, 0]])
        assert np.allclose(pauli_matrix(PauliLabel(1, 0, 1)), [[1, 0], [0, -1]])
        assert np.allclose(pauli_matrix(PauliLabel(1, 1, 1)), [[0, -1j], [1j, 0]])

    def test_phase_prefactor(self):
        y = pauli_matrix(PauliLabel(1, 1, 1, 0))
        assert np.allclose(pauli_matrix(PauliLabel(1, 1, 1, 1)), 1j * y)
        assert np.allclose(pauli_matrix(PauliLabel(1, 1, 1, 2)), -y)


class TestMul:
    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_against_dense(self, n):
        labels = list(all_labels(n, phases=(0, 1, 2, 3)))
        for p in labels:
            for q in labels:
                prod = pauli_mul(p, q)
                got = pauli_matrix(prod)
                want = pauli_matrix(p) @ pauli_matrix(q)
                assert np.allclose(got, want), (p, q, prod)

    def test_random_three_qubits(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = PauliLabel(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
            q = PauliLabel(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
            assert np.allclose(
                pauli_matrix(pauli_mul(p, q)), pauli_matrix(p) @ pauli_matrix(q)
            )

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            pauli_mul(PauliLabel(1, 0, 0), PauliLabel(2, 0, 0))


class TestCommutation:
    @pytest.mark.parametrize("n", [1, 2])
    def test_symplectic_matches_dense_commutator(self, n):
        for p, q in itertools.product(all_labels(n), repeat=2):
            a, b = pauli_matrix(p), pauli_matrix(q)
            dense_commutes = np.allclose(a @ b, b @ a)
            assert commutes(p, q) == dense_commutes
            assert symplectic_form(p, q) == (0 if dense_commutes else 1)


class TestText:
    def test_known_strings(self):
        assert pauli_to_text(PauliLabel(1, 1, 0)) == "+X"
        assert pauli_to_text(PauliLabel(1, 0, 1)) == "+Z"
        assert pauli_to_text(PauliLabel(1, 1, 1)) == "+Y"
        assert pauli_to_text(PauliLabel(1, 1, 1, 2)) == "-Y"
        assert pauli_to_text(PauliLabel(1, 0, 0, 1)) == "+iI"

    def test_qubit_one_leftmost(self):
        # X on qubit 1, Z on qubit 3
        p = PauliLabel(3, 0b001, 0b100)
        assert pauli_to_text(p) == "+XIZ"

    def test_round_trip_exhaustive(self):
        for p in all_labels(2, phases=(0, 1, 2, 3)):
            assert pauli_from_text(pauli_to_text(p)) == p

    def test_parse_variants(self):
        assert pauli_from_text("-iXY") == PauliLabel(2, 0b11, 0b10, 3)
        assert pauli_from_text("+ZI") == PauliLabel(2, 0, 0b01)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            pauli_from_text("XQ")
        with pytest.raises(ValidationError):
            pauli_from_text("")


class TestIndexing:
    def test_round_trip(self):
        for p in all_labels(3):
            q = from_index(to_index(p), 3)
            assert (q.x, q.z) == (p.x, p.z)

    def test_index_layout(self):
        # index = (x << n) | z
        assert to_index(PauliLabel(2, 0b10, 0b01)) == 0b1001

    def test_index_bounds(self):
        # the flat indices of n = 2 labels run over 0..15, and none lies past them
        assert to_index(PauliLabel(2, 0b11, 0b11)) == 15
        with pytest.raises(ValidationError):
            PauliLabel(2, 0b100, 0)


class TestValidation:
    def test_phase_normalized_mod_four(self):
        assert PauliLabel(1, 0, 0, 7).phase_exp == 3
        assert PauliLabel(1, 0, 0, -1).phase_exp == 3

    def test_mask_bounds(self):
        with pytest.raises(ValidationError):
            PauliLabel(1, 2, 0)
        with pytest.raises(ValidationError):
            PauliLabel(1, 0, -1)

    def test_qubit_cap(self):
        with pytest.raises(ValidationError):
            PauliLabel(33, 0, 0)

    @pytest.mark.parametrize("args", [(2, 1.5, 0), (2, 0, "1"), (True, 1, 0), (1.5, 1, 0),
                                      (2, True, 0), (2, 0, 0, 0.5), (2, 0, 0, None)])
    def test_rejects_non_whole_fields(self, args):
        # never kept as given: 1.5 as a mask, True as a qubit count
        with pytest.raises(ValidationError):
            PauliLabel(*args)

    def test_reads_whole_floats(self):
        p = PauliLabel(2.0, 1.0, np.int64(2), 2.0)
        assert p == PauliLabel(2, 1, 2, 2) and pauli_to_text(p) == "-XZ"
        assert all(type(v) is int for v in (p.n, p.x, p.z, p.phase_exp))
