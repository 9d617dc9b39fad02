"""The dense witness itself, checked against kron-built matrices."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import magicforge.oracle
from magicforge.diagonal_gates import RotationVector, make_gate, random_polynomial
from magicforge.errors import CapacityError, ValidationError
from magicforge.oracle import (
    DenseState,
    apply_diagonal,
    apply_gates,
    apply_rotation,
    expectation,
    oracle_spectrum,
    statevector,
)
from magicforge.pauli_core import PauliLabel, to_index
from magicforge.stabilizer import plus_tableau, random_stabilizer, zeros_tableau
from magicforge.transfer import ParsedCircuit, random_clifford

from helpers import (
    circuit_matrix,
    diagonal_matrix,
    fidelity,
    overlap2,
    pauli_matrix,
    rotation_matrix,
    sqr_to_poly,
    stabilizer_dense,
)


class TestDenseState:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            DenseState(1, np.array([1.0, 1.0], dtype=complex))

    def test_length_enforced(self):
        with pytest.raises(ValidationError):
            DenseState(2, np.array([1.0, 0.0], dtype=complex))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            DenseState(13, np.zeros(1 << 13, dtype=complex))

    def test_norm_that_a_sweep_would_reject_is_bad_input(self):
        # sum a^2 = 2**8 |psi|**4 misses 2**8 by about 5e-7 here
        with pytest.raises(ValidationError, match="not normalized"):
            DenseState(8, (1 + 5e-10) * np.full(256, 1 / 16, dtype=complex))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_state_just_inside_the_bound_sweeps_cleanly(self, n):
        rng = np.random.default_rng([5, n])
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        bound = 1e-9 / (1 << (n + 3))
        for amps in (np.full(1 << n, 2.0 ** (-n / 2)), psi / np.linalg.norm(psi)):
            for scale in (1 - 0.99 * bound, 1 + 0.99 * bound):
                oracle_spectrum(DenseState(n, scale * amps))  # the norm check passes
            with pytest.raises(ValidationError, match="not normalized"):
                DenseState(n, (1 + 1.01 * bound) * amps)


class TestStatevector:
    def test_known_states(self):
        assert np.allclose(statevector(zeros_tableau(2)).amplitudes, [1, 0, 0, 0])
        assert np.allclose(statevector(plus_tableau(1)).amplitudes, [1 / np.sqrt(2)] * 2)

    def test_matches_projector_construction(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                assert fidelity(statevector(tab).amplitudes, stabilizer_dense(tab)) > 1 - 1e-10


class TestApplyGates:
    def test_matches_dense_circuits(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            for _ in range(10):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                c = random_clifford(n, rng)
                got = apply_gates(statevector(tab), c.gates).amplitudes
                want = circuit_matrix(n, c.gates) @ statevector(tab).amplitudes
                assert np.allclose(got, want, atol=1e-12)

    def test_unknown_gate(self):
        with pytest.raises(ValidationError):
            apply_gates(statevector(zeros_tableau(1)), [("SWAP", 0, 1)])

    def test_qubit_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_gates(statevector(zeros_tableau(1)), [("H", 1)])


class TestApplyDiagonal:
    def test_matches_dense_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            tab = random_stabilizer(3, int(rng.integers(1 << 30)))
            f = random_polynomial(3, rng)
            got = apply_diagonal(statevector(tab), f).amplitudes
            want = diagonal_matrix(f) @ statevector(tab).amplitudes
            assert np.allclose(got, want, atol=1e-12)

    def test_t_gate_phases(self):
        st = apply_diagonal(statevector(plus_tableau(1)), make_gate("T", [1], 1))
        assert np.allclose(st.amplitudes * np.sqrt(2), [1, np.exp(1j * np.pi / 4)])


class TestApplyRotation:
    def test_continuous_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tab = random_stabilizer(2, int(rng.integers(1 << 30)))
            w = RotationVector.continuous(tuple(rng.uniform(0, 1, 2)))
            got = apply_rotation(statevector(tab), w).amplitudes
            want = rotation_matrix(w) @ statevector(tab).amplitudes
            assert np.allclose(got, want, atol=1e-12)

    def test_dyadic_matches_polynomial_path(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            tab = random_stabilizer(3, int(rng.integers(1 << 30)))
            w = RotationVector.dyadic(tuple(int(k) for k in rng.integers(0, 16, 3)), 4)
            a = apply_rotation(statevector(tab), w).amplitudes
            b = apply_diagonal(statevector(tab), sqr_to_poly(w)).amplitudes
            assert np.allclose(a, b, atol=1e-12)


class TestSpectrum:
    def test_entries_are_pauli_expectations(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            st = apply_diagonal(statevector(tab), random_polynomial(n, rng))
            spec = oracle_spectrum(st)
            for x in range(1 << n):
                for z in range(1 << n):
                    p = PauliLabel(n, x, z)
                    want = np.vdot(st.amplitudes, pauli_matrix(p) @ st.amplitudes)
                    assert abs(spec.values[to_index(p)] - want.real) < 1e-10
                    assert abs(want.imag) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_signed_against_expectation(self, n):
        # every x at one z, and every z at one x, against the label-by-label formula
        rng = np.random.default_rng([n, 22])
        st = apply_gates(statevector(random_stabilizer(n, int(rng.integers(1 << 30)))),
                         random_clifford(n, rng).gates)
        st = apply_diagonal(apply_rotation(st, RotationVector.continuous(rng.uniform(0, 1, n))),
                            random_polynomial(n, rng))
        spec = oracle_spectrum(st)
        size = 1 << n
        x0, z0 = (int(v) for v in rng.integers(size, size=2))
        labels = [(x, z0) for x in range(size)] + [(x0, z) for z in range(size)]
        for x, z in labels:
            want = expectation(st, x, z)
            assert abs(spec.values[x * size + z] - want.real) < 1e-12
            assert abs(want.imag) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_fold(self, n):
        # stabilizer -> Clifford -> rotations -> gate, oracle against the exact fold
        rng = np.random.default_rng([n, 23])
        tab = random_stabilizer(n, int(rng.integers(1 << 30)))
        layers = (("clifford", random_clifford(n, rng)),
                  ("sqr", RotationVector.continuous(rng.uniform(0, 1, n))),
                  ("gate", random_polynomial(n, rng)))
        st = apply_gates(statevector(tab), layers[0][1].gates)
        st = apply_diagonal(apply_rotation(st, layers[1][1]), layers[2][1])
        exact = ParsedCircuit(n, tab, layers).spectrum().values
        assert np.max(np.abs(oracle_spectrum(st).values - exact)) < 1e-12

    def test_expectation_function(self):
        st = statevector(plus_tableau(1))
        assert abs(expectation(st, 1, 0) - 1.0) < 1e-12
        assert abs(expectation(st, 0, 1)) < 1e-12

    def test_capacity(self):
        amps = np.zeros(1 << 9, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(CapacityError):
            oracle_spectrum(DenseState(9, amps))


class TestIndependence:
    def test_runtime_imports(self):
        # the oracle witnesses the fast paths, so it may import none of them: numpy,
        # the standard library and the error types, plus the spectrum container
        # inside the functions that return one; annotation-only imports do not count
        tree = ast.parse(Path(magicforge.oracle.__file__).read_text())
        top, local = [], []

        def visit(node, inside_def):
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                return
            if isinstance(node, ast.Import):
                (local if inside_def else top).extend((0, a.name, None) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                (local if inside_def else top).extend(
                    (node.level, node.module, a.name) for a in node.names)
            inside = inside_def or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        visit(tree, False)
        for level, module, _ in top:
            if level:
                assert module == "errors", f"oracle imports .{module}"
            else:
                root = module.split(".")[0]
                assert root == "numpy" or root in sys.stdlib_module_names or root == "__future__", \
                    f"oracle imports {module}"
        assert set(local) <= {(1, "spectrum", "PauliSpectrum")}, local
        assert (1, "errors", "CapacityError") in top  # the walk sees the imports

    def test_one_exact_sum(self):
        # F_alpha is summed in one place: no module but spectrum.py names exact_sum
        package = Path(magicforge.oracle.__file__).parent
        naming = sorted(p.name for p in package.glob("*.py") if "exact_sum" in p.read_text())
        assert naming == ["spectrum.py"], naming


class TestOverlap:
    def test_self_overlap(self):
        st = statevector(random_stabilizer(3, 7))
        assert abs(overlap2(st, st) - 1.0) < 1e-12

    def test_orthogonal(self):
        a = statevector(zeros_tableau(1))
        b = apply_gates(a, [("X", 0)])
        assert overlap2(a, b) < 1e-12
