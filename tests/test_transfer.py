"""Heisenberg conjugation and the spectrum transfer map for full blocks."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from magicforge.diagonal_gates import RotationVector, make_gate, random_polynomial, sqr_to_poly
from magicforge.errors import CapacityError, ValidationError
from magicforge.oracle import (
    apply_diagonal,
    apply_gates,
    apply_rotation,
    oracle_spectrum,
    statevector,
)
from magicforge.pauli_core import MAX_QUBITS, PauliLabel, to_index
from magicforge.spectrum import f_alpha, shallow_spectrum
from magicforge.stabilizer import (
    apply_clifford,
    canonicalize,
    plus_tableau,
    random_stabilizer,
    zeros_tableau,
)
from magicforge.transfer import (
    MAX_SPECTRUM_QUBITS,
    CliffordOp,
    LayerBlock,
    ParsedCircuit,
    _below,
    _fold,
    _fwht,
    _gate_qubits,
    _gate_table,
    _xz_phase,
    apply_block,
    circuit_from_json,
    initial_spectrum,
    phase_layer,
    random_clifford,
    rotate_layer,
    xy_pair,
)

from helpers import (
    _turn_reference,
    circuit_matrix,
    conjugate_reference,
    from_index,
    graph_gate_circuit_json,
    pauli_matrix,
    random_clifford_reference,
    submask_mix,
    transfer_orthogonality_check,
)


GATES_1Q = [("H", 0), ("S", 0), ("X", 0), ("Z", 0)]
GATES_2Q = [("CX", 0, 1), ("CX", 1, 0), ("CZ", 0, 1)]


def signed_matrix(n: int, row: tuple[int, int, int]) -> np.ndarray:
    """Dense (-1)^h P(x, z) of one signed row (x, z, h)."""
    x, z, h = row
    return pauli_matrix(PauliLabel(n, x, z, 2 * h))


def all_rows(n: int) -> list[tuple[int, int, int]]:
    return [(x, z, h) for x in range(1 << n) for z in range(1 << n) for h in (0, 1)]


def random_rows(n: int, count: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
    return [(int(x), int(z), int(h)) for x, z, h in zip(
        rng.integers(1 << n, size=count), rng.integers(1 << n, size=count),
        rng.integers(2, size=count))]


def assert_fold_is_conjugation(n: int, gates, rows) -> None:
    """`_fold` takes each row to u P u^dagger, and with inverse=True to
    u^dagger P u, for the dense matrix u of the gate list."""
    u = circuit_matrix(n, gates)
    for inverse, left, right in ((False, u, u.conj().T), (True, u.conj().T, u)):
        for row, image in zip(rows, _fold(n, rows, gates, inverse=inverse)):
            want = left @ signed_matrix(n, row) @ right
            assert np.allclose(signed_matrix(n, image), want), (gates, row, inverse)


def reference_row(gates, n: int, row: tuple[int, int, int]) -> tuple[int, int, int]:
    """`conjugate_reference` of one signed row, as a signed row."""
    q = conjugate_reference(gates, PauliLabel(n, row[0], row[1], 2 * row[2]))
    assert q.phase_exp in (0, 2)
    return q.x, q.z, q.phase_exp >> 1


class TestConjugateLabel:
    # every Clifford conjugation is one `_fold` of signed Hermitian rows

    @pytest.mark.parametrize("gate", GATES_1Q)
    def test_single_qubit_exhaustive(self, gate):
        assert_fold_is_conjugation(1, (gate,), all_rows(1))

    @pytest.mark.parametrize("gate", GATES_2Q)
    def test_two_qubit_exhaustive(self, gate):
        assert_fold_is_conjugation(2, (gate,), all_rows(2))

    def test_embedded_in_larger_register(self):
        assert_fold_is_conjugation(3, (("CX", 2, 0),), [(0b101, 0b011, 1), (0b110, 0b001, 0)])


class TestCliffordConjugateSplit:
    # a folded row splits an image into a sign (-1)^h and a phase-free label

    def test_known_single_qubit_images(self):
        x, y, z = (1, 0), (1, 1), (0, 1)
        assert _fold(1, [(*x, 0)], (("H", 0),)) == [(*z, 0)]
        assert _fold(1, [(*x, 0), (*y, 0)], (("S", 0),)) == [(*y, 0), (*x, 1)]
        # back through S^dagger: Y -> X and X -> -Y
        assert _fold(1, [(*y, 0), (*x, 0)], (("S", 0),), inverse=True) == [(*x, 0), (*y, 1)]

    def test_sign_times_image_matches_dense(self):
        # all 4**n labels of one circuit in one fold, both directions
        n = 4
        c = random_clifford(n, np.random.default_rng(7))
        assert_fold_is_conjugation(n, c.gates, [(x, z, 0) for x in range(16) for z in range(16)])


class TestCliffordOp:
    def test_conjugate_matches_dense(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            c = random_clifford(n, rng)
            assert_fold_is_conjugation(n, c.gates, random_rows(n, 20, rng))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            c = random_clifford(n, rng)
            rows = random_rows(n, 10, rng)
            images = _fold(n, rows, c.gates)
            assert _fold(n, images, c.gates, inverse=True) == rows
            assert _fold(n, images, c.inverse().gates) == rows

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverse_fold_matches_the_expanded_gate_list(self, n):
        # folding backwards with S as S^dagger gives the images of folding
        # forwards through inverse()'s list, where S^dagger is written S S S
        rng = np.random.default_rng([4, n])
        for _ in range(6):
            c = random_clifford(n, rng, length=int(rng.integers(3 * n * n + 2 * n + 1)))
            rows = random_rows(n, 2 * n + 2, rng)
            assert _fold(n, rows, c.gates, inverse=True) == _fold(n, rows, c.inverse().gates)

    def test_heisenberg_table_is_pullback(self):
        # table convention is the other direction: C^dagger P(v) C
        rng = np.random.default_rng(2)
        for n in (1, 2):
            c = random_clifford(n, rng)
            perm, sign = c.heisenberg_table()
            u = circuit_matrix(n, c.gates)
            for v in range(1 << (2 * n)):
                want = u.conj().T @ pauli_matrix(from_index(v, n)) @ u
                got = sign[v] * pauli_matrix(from_index(int(perm[v]), n))
                assert np.allclose(got, want)

    def test_heisenberg_table_matches_scalar_inverse(self):
        # every n up to the cap; all labels up to n = 4, then 256 sampled
        # labels plus the 2n generators and the all-ones labels
        rng = np.random.default_rng(3)
        for n in range(1, 9):
            full = (1 << n) - 1
            circuits = [
                random_clifford(n, rng, length=int(rng.integers(3 * n * n + 2 * n + 1))),
                random_clifford(n, rng, length=0),
                # S is the one gate that is not its own inverse
                CliffordOp(n, tuple(("S", int(q)) for q in rng.integers(n, size=2 * n))),
            ]
            if n <= 4:
                labels = range(1 << (2 * n))
            else:
                labels = {int(v) for v in rng.integers(1 << (2 * n), size=256)}
                labels |= {1 << k for k in range(2 * n)}
                labels |= {full, full << n, (full << n) | full}
            for c in circuits:
                perm, sign = c.heisenberg_table()
                inv = [g for gate in reversed(c.gates)
                       for g in [gate] * (3 if gate[0] == "S" else 1)]
                for v in labels:
                    q = conjugate_reference(inv, from_index(v, n))
                    assert to_index(q) == perm[v], (n, c.gates, v)
                    assert q.phase_exp in (0, 2)
                    assert sign[v] == (1 if q.phase_exp == 0 else -1), (n, c.gates, v)

    def test_conjugate_matches_reference_to_cap(self):
        # dense checks stop at n = 4; above it, against the per-gate reference
        rng = np.random.default_rng(8)
        for n in range(5, 9):
            for _ in range(3):
                c = random_clifford(n, rng)
                inv = c.inverse().gates
                rows = random_rows(n, 40, rng)
                assert _fold(n, rows, c.gates) == [reference_row(c.gates, n, r) for r in rows]
                assert _fold(n, rows, c.gates, inverse=True) == [reference_row(inv, n, r) for r in rows]

    def test_heisenberg_table_cap(self):
        with pytest.raises(CapacityError):
            CliffordOp(9, ()).heisenberg_table()

    def test_gates_cannot_be_reassigned_after_use(self):
        # swapping the gates of an applied op must not leave a table of the old
        # gates in use: the gates are fixed at construction, and no table is kept
        c = CliffordOp(1, (("H", 0),))
        s = apply_block(initial_spectrum(zeros_tableau(1)), LayerBlock(1, c, None))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.gates = (("S", 0),)
        assert [f.name for f in dataclasses.fields(CliffordOp)] == ["n", "gates"]
        assert c.gates == (("H", 0),)
        assert s.values.tolist() == initial_spectrum(plus_tableau(1)).values.tolist()

    def test_heisenberg_table_built_per_call(self):
        c = random_clifford(4, np.random.default_rng(6))
        (perm, sign), (perm2, sign2) = c.heisenberg_table(), c.heisenberg_table()
        assert perm is not perm2 and sign is not sign2
        assert np.array_equal(perm, perm2) and np.array_equal(sign, sign2)

    def test_vectorized_matches_scalar_per_gate(self):
        # one gate's table against the reference image fold, all labels
        rng = np.random.default_rng(4)
        for n in (2, 3):
            for _ in range(15):
                gate = random_clifford(n, rng, length=1).gates[0]
                # a table built from a circuit whose inverse is that one gate
                if gate[0] == "S":
                    fwd = CliffordOp(n, (("S", gate[1]),) * 3)
                else:
                    fwd = CliffordOp(n, (gate,))
                perm, sign = fwd.heisenberg_table()
                for v in range(1 << (2 * n)):
                    q = conjugate_reference([gate], from_index(v, n))
                    assert to_index(q) == perm[v]
                    assert sign[v] == (1 if q.phase_exp == 0 else -1)

    def test_identity(self):
        assert CliffordOp(2, ()).gates == ()
        rows = [(1, 2, 1), (3, 0, 0)]
        assert _fold(2, rows, ()) == rows and _fold(2, rows, (), inverse=True) == rows

    def test_random_clifford_deterministic(self):
        a = random_clifford(3, np.random.default_rng(9))
        b = random_clifford(3, np.random.default_rng(9))
        assert a.gates == b.gates

    def test_rejects_unknown_gate(self):
        with pytest.raises(ValidationError):
            CliffordOp(1, (("T", 0),))


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937)

# sha256 of random_stabilizer(n, seed).to_json() at seeds 0, 7 and 12345, by n
STABILIZER_SHA256 = {
    1: ("9a98f87f30dd7375", "8c471e82bc890095", "ca8924d8ff6a8479"),
    2: ("2047eaa12f7d8b53", "974e23ac47f462ed", "4e5b744631702d31"),
    3: ("558107c7649f29d6", "2bd6ba42f1764e67", "24dd2da392136df7"),
    4: ("20dcbec10f9441c6", "9b7a431f62e62c74", "2f70c877c47faaeb"),
    5: ("0fddb10af4ef02b1", "4e35a696660edcc3", "27b068634d60ba4d"),
    6: ("9d80bf1d546d0e68", "29b903ec12f023d3", "d62f98de6ba15a8a"),
    7: ("019356369cb008dd", "e6ed5e712200907a", "12066f8301aff2cb"),
    8: ("11c891b5757f4efb", "ce7527397354c468", "e53bea9852ac3a4b"),
}


class TestRandomCliffordStream:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_matches_the_generator_api_draws(self, bit_generator):
        # the same gates, and the generator left where the API calls leave it:
        # _ansatz2 draws its rotation angles from the same rng
        for seed in range(4):
            for n in range(1, 9):
                for length in (0, 1, 7, None):
                    ref = np.random.Generator(bit_generator(seed))
                    rng = np.random.Generator(bit_generator(seed))
                    want = random_clifford_reference(n, ref, length)
                    assert random_clifford(n, rng, length).gates == want, (seed, n, length)
                    assert rng.random() == ref.random()
                    assert rng.integers(7) == ref.integers(7)

    @pytest.mark.parametrize("k", [2, 3, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32])
    def test_bounded_draw_matches_integers(self, k):
        # large k rejects often, which covers numpy's rejection step
        ref, rng = np.random.default_rng(k), np.random.default_rng(k)
        draw = rng.bit_generator.ctypes
        got = [_below(draw.next_uint32, draw.state, k) for _ in range(200)]
        assert got == [int(ref.integers(k)) for _ in range(200)]
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", sorted(STABILIZER_SHA256))
    def test_random_stabilizer_pinned(self, n):
        got = tuple(
            hashlib.sha256(json.dumps(random_stabilizer(n, seed).to_json(),
                                      sort_keys=True).encode()).hexdigest()[:16]
            for seed in (0, 7, 12345)
        )
        assert got == STABILIZER_SHA256[n]

    @pytest.mark.parametrize("n, length", [(0, 5), (MAX_QUBITS + 1, 5), (2.5, 5), (True, 5),
                                           (2, -3), (2, 1.5), (2, True), (2, "3")])
    def test_rejects_bad_sizes_before_any_draw(self, n, length):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            random_clifford(n, rng, length)
        assert rng.random() == np.random.default_rng(3).random()

    def test_gates_are_the_shared_table_entries(self):
        by_gate = _gate_table(5)[0]
        c = random_clifford(5, np.random.default_rng(2))
        assert all(by_gate[g] is g for g in c.gates)
        again = CliffordOp(5, c.gates)
        assert all(a is b for a, b in zip(again.gates, c.gates))


GATE_CASES = [
    ["H", 0], ("S", 2), ["x", 1], ("z", 0), ["cx", 0, 2], ["CZ", 2, 1], ["Cz", 1, 0],
    ["H", 0.0], ["CX", 1.0, 2], ["S", 1.5], ["X", np.int64(2)], ["CZ", np.int32(0), 1],
    ["H", np.float64(1.0)], ["H", True], ["CX", 0, False], ["Z", np.True_],
    ["H", 3], ["H", -1], ["CX", 0, 3], ["CX", 1, 1], ["CZ", 2.0, 2],
    ["H"], ["H", 0, 1], ["CX", 0], ["CZ", 0, 1, 2], ["T", 0], ["h0"],
    "H", 5, None, {"H": 0}, [], (), ["H", [0]], ["H", "0"], [["H"], 0],
]


class TestGateValidation:
    @pytest.mark.parametrize("gate", GATE_CASES, ids=repr)
    def test_clifford_op_agrees_with_gate_qubits(self, gate):
        n = 3
        try:
            name, qs = _gate_qubits(n, gate)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                CliffordOp(n, [gate])
            assert str(got.value) == str(exc)
            return
        (stored,) = CliffordOp(n, [gate]).gates
        assert stored == (name, *qs) and stored is _gate_table(n)[0][stored]
        assert type(stored) is tuple and stored[0] == stored[0].upper()
        assert all(type(q) is int for q in stored[1:])

    @pytest.mark.parametrize("n", [True, 1.5, "2", None])
    def test_rejects_non_whole_qubit_count(self, n):
        with pytest.raises(ValidationError):
            CliffordOp(n, ())

    def test_reads_a_whole_float_qubit_count(self):
        c = CliffordOp(2.0, (("CX", 0, 1),))
        assert c == CliffordOp(2, (("CX", 0, 1),)) and type(c.n) is int

    def test_table_lists_every_valid_gate(self):
        by_gate, by_code = _gate_table(3)
        assert len(by_gate) == 4 * 3 + 2 * 3 * 2
        for k, name in enumerate(("H", "S", "X", "Z", "CX", "CZ")):
            for a in range(3):
                for b in range(3):
                    gate = by_code[(k * 3 + a) * 3 + b]
                    if k < 4:
                        assert gate == (name, a)
                    else:
                        assert gate == ((name, a, b) if a != b else None)


class TestRotateLayer:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_submask_reference_on_generic_vectors(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(3):
            v = rng.standard_normal(4**n)
            w = rng.uniform(0, 1, n)
            assert np.max(np.abs(rotate_layer(v, w) - submask_mix(v, w))) < 1e-12

    @pytest.mark.parametrize("n", range(1, MAX_SPECTRUM_QUBITS + 1))
    def test_matches_per_qubit_turns(self, n):
        # the n single-qubit pair updates, one after another
        rng = np.random.default_rng([12, n])
        for _ in range(3):
            v = rng.standard_normal(4**n)
            w = rng.uniform(0, 1, n)
            want = v.copy()
            for j, wj in enumerate(w):
                _turn_reference(want, n, j, wj)
            assert np.max(np.abs(rotate_layer(v, w) - want)) < 1e-13

    @pytest.mark.parametrize("n", range(1, MAX_SPECTRUM_QUBITS + 1))
    def test_matches_oracle_signed(self, n):
        rng = np.random.default_rng([13, n])
        st = statevector(random_stabilizer(n, int(rng.integers(1 << 30))))
        st = apply_gates(st, random_clifford(n, rng).gates)
        st = apply_rotation(st, RotationVector.continuous(tuple(rng.uniform(0, 1, n))))
        w = RotationVector.continuous(tuple(rng.uniform(0, 1, n)))
        out = rotate_layer(oracle_spectrum(st).values, w.values)
        want = oracle_spectrum(apply_rotation(st, w)).values
        assert np.max(np.abs(out - want)) < 1e-12

    @pytest.mark.parametrize("n", range(1, MAX_SPECTRUM_QUBITS + 1))
    def test_zero_angles_give_back_the_input(self, n):
        v = np.random.default_rng([14, n]).standard_normal(4**n)
        kept = v.copy()
        assert np.array_equal(rotate_layer(v, np.zeros(n)), kept)
        rotate_layer(v, np.full(n, 0.3))
        assert np.array_equal(v, kept)

    def test_leaves_input_alone(self):
        v = np.arange(16, dtype=float)
        rotate_layer(v, (0.3, 0.1))
        assert np.array_equal(v, np.arange(16, dtype=float))

    def test_peak_at_the_cap(self):
        # the output and one intermediate of 512 KiB each at n = 8; the
        # matrix stacks are a few KiB
        n = MAX_SPECTRUM_QUBITS
        v = np.random.default_rng(15).standard_normal(4**n)
        w = np.random.default_rng(16).uniform(0, 1, n)
        want = rotate_layer(v, w)
        tracemalloc.start()
        try:
            out = rotate_layer(v, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, want)
        assert peak <= 1.25 * 2**20

    def test_xy_pair_layout(self):
        # index x * 2**n + z; the pair holds x_j = 1 with z_j = 0 and z_j = 1,
        # row by row, in label order within each row
        n = 3
        rows = np.arange(3 * 4**n, dtype=float).reshape(3, 4**n)
        for j in range(n):
            p, q = xy_pair(rows, n, j)
            assert p.shape[0] == 3 and np.shares_memory(p, rows)
            xs_j = [i for i in range(4**n) if (i >> (n + j)) & 1 and not (i >> j) & 1]
            for r in range(3):
                assert p[r].ravel().tolist() == [r * 4**n + i for i in xs_j]
            assert np.array_equal(q, p + (1 << j))


class TestPhaseLayer:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_non_stabilizer_input_vs_oracle(self, n):
        # input after a Clifford + rotation block, both spectra from the oracle
        rng = np.random.default_rng([20, n])
        for _ in range(3):
            st = statevector(random_stabilizer(n, int(rng.integers(1 << 30))))
            st = apply_gates(st, random_clifford(n, rng).gates)
            st = apply_rotation(st, RotationVector.continuous(tuple(rng.uniform(0, 1, n))))
            f = random_polynomial(n, rng)
            out = phase_layer(oracle_spectrum(st).values, f)
            want = oracle_spectrum(apply_diagonal(st, f)).values
            assert np.max(np.abs(out - want)) < 1e-10

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_rotate_layer_on_generic_vectors(self, n):
        # any real vector, with some x sectors all zero; those stay zero
        rng = np.random.default_rng([22, n])
        for _ in range(3):
            v = rng.standard_normal((2**n, 2**n))
            v[rng.random(2**n) < 0.5] = 0.0
            w = RotationVector.dyadic(tuple(int(k) for k in rng.integers(0, 16, n)), 4)
            out = phase_layer(v.reshape(-1), sqr_to_poly(w))
            assert np.max(np.abs(out - rotate_layer(v.reshape(-1), w.values))) < 1e-12
            assert not np.any(out.reshape(v.shape)[~v.any(axis=1)])
        assert not np.any(phase_layer(np.zeros(4**n), sqr_to_poly(w)))

    def test_peak_at_the_cap(self):
        # the one complex work array (1 MiB at n = 8) and the FWHT's half-size
        # scratch; the factor steps add only small blocks
        parsed = circuit_from_json(graph_gate_circuit_json(8, 5))
        state = apply_clifford(parsed.initial, parsed.layers[0][1])
        v, f = initial_spectrum(state).values, parsed.layers[1][1]
        want = phase_layer(v, f)  # warm: the i^(x.z) table is cached per n
        tracemalloc.start()
        try:
            out = phase_layer(v, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, want)
        assert peak < 2.25 * 2**20

    def test_leaves_input_alone(self):
        v = initial_spectrum(plus_tableau(2)).values
        kept = v.copy()
        phase_layer(v, make_gate("CS", [1, 2], 2))
        assert np.array_equal(v, kept)

    def test_imaginary_output_is_a_fault(self):
        v = 1j * initial_spectrum(plus_tableau(1)).values
        with pytest.raises(RuntimeError, match="imaginary"):
            phase_layer(v, make_gate("T", [1], 1))

    def test_butterflies_are_exact(self):
        # out of place, stage by stage down each column: p + q and p - q
        rng = np.random.default_rng(21)
        v = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
        want = v.copy()
        i = np.arange(32)
        half = 1
        while half < 32:
            lo = (i & half) == 0
            nxt = np.empty_like(want)
            nxt[lo] = want[i[lo]] + want[i[lo] | half]
            nxt[~lo] = want[i[~lo] ^ half] - want[i[~lo]]
            want, half = nxt, half << 1
        _fwht(v)
        assert np.array_equal(v.view(np.float64), want.view(np.float64))

    def test_xz_phase_table(self):
        n = 3
        table = _xz_phase(n)
        assert table is _xz_phase(n) and not table.flags.writeable
        assert table.dtype == np.uint8
        labels = [from_index(v, n) for v in range(4**n)]
        assert table.tolist() == [(p.x & p.z).bit_count() & 3 for p in labels]


class TestInitialSpectrum:
    def test_matches_oracle(self):
        # signed entries, up to the n = 8 cap
        rng = np.random.default_rng(4)
        for n in range(1, 9):
            for _ in range(8):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                s = initial_spectrum(tab)
                o = oracle_spectrum(statevector(tab))
                assert np.max(np.abs(s.values - o.values)) < 1e-12

    def test_entries_signed_unit(self):
        s = initial_spectrum(zeros_tableau(2))
        vals = np.real(s.values)
        assert set(np.round(vals, 12)) <= {-1.0, 0.0, 1.0}


class TestApplyBlock:
    def test_golden_single_qubit_block(self):
        # H then an eighth-turn rotation on |0>: magnitudes (1, 0, r, r)
        s = initial_spectrum(zeros_tableau(1))
        block = LayerBlock(1, CliffordOp(1, (("H", 0),)), RotationVector.dyadic((1,), 3))
        out = apply_block(s, block)
        r = np.sqrt(0.5)
        assert np.allclose(np.abs(out.values), [1, 0, r, r], atol=1e-12)

    def test_three_block_circuits_vs_oracle(self):
        # signed entries, up to the n = 8 cap
        rng = np.random.default_rng(5)
        for n, cases in ((2, 6), (3, 6), (5, 1), (6, 1), (7, 1), (8, 1)):
            for _ in range(cases):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                s = initial_spectrum(tab)
                st = statevector(tab)
                for _ in range(3):
                    c = random_clifford(n, rng)
                    w = RotationVector.continuous(tuple(rng.uniform(0, 1, n)))
                    s = apply_block(s, LayerBlock(n, c, w))
                    st = apply_rotation(apply_gates(st, c.gates), w)
                assert np.max(np.abs(s.values - oracle_spectrum(st).values)) < 1e-10

    def test_clifford_only_block(self):
        rng = np.random.default_rng(6)
        tab = random_stabilizer(3, 1)
        c = random_clifford(3, rng)
        s = apply_block(initial_spectrum(tab), LayerBlock(3, c, None))
        o = oracle_spectrum(apply_gates(statevector(tab), c.gates))
        assert np.max(np.abs(s.values - o.values)) < 1e-12

    def test_rotation_only_block(self):
        tab = plus_tableau(2)
        w = RotationVector.continuous((0.21, 0.68))
        s = apply_block(initial_spectrum(tab), LayerBlock(2, None, w))
        o = oracle_spectrum(apply_rotation(statevector(tab), w))
        assert np.max(np.abs(s.values - o.values)) < 1e-10

    def test_f_alpha_clifford_invariance(self):
        rng = np.random.default_rng(7)
        tab = random_stabilizer(3, 2)
        s = apply_block(initial_spectrum(tab),
                        LayerBlock(3, None, RotationVector.continuous((.1, .2, .3))))
        before = f_alpha(s, 2)
        for _ in range(5):
            c = random_clifford(3, rng)
            after = f_alpha(apply_block(s, LayerBlock(3, c, None)), 2)
            assert abs(after - before) < 1e-12

    def test_size_mismatch(self):
        s = initial_spectrum(zeros_tableau(2))
        with pytest.raises(ValidationError):
            apply_block(s, LayerBlock(1, None, RotationVector.continuous((0.1,))))


class TestOrthogonality:
    def test_generic_blocks_are_isometries(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            block = LayerBlock(
                n, random_clifford(n, rng),
                RotationVector.continuous(tuple(rng.uniform(0, 1, n))),
            )
            assert transfer_orthogonality_check(block, trials=30, seed=0) < 1e-9

    def test_cap_checked_before_drawing_vectors(self):
        block = LayerBlock(9, None, RotationVector.continuous((0.1,) * 9))
        with pytest.raises(CapacityError):
            transfer_orthogonality_check(block, trials=1)


class TestCircuitJson:
    def test_default_initial_is_plus(self):
        parsed = circuit_from_json({"n": 2, "layers": []})
        assert parsed.initial == plus_tableau(2)

    def test_explicit_initial(self):
        parsed = circuit_from_json(
            {"n": 1, "initial": {"n": 1, "generators": ["+Z"]}, "layers": []}
        )
        assert parsed.initial == zeros_tableau(1)

    def test_layer_kinds(self):
        parsed = circuit_from_json(
            {
                "n": 2,
                "layers": [
                    {"clifford": [["H", 0], ["CX", 0, 1]]},
                    {"sqr": {"m": 3, "k": [1, 0]}},
                    {"gate": {"n": 2, "terms": [{"m": 2, "a": "11", "c": 1}]}},
                ],
            }
        )
        kinds = [kind for kind, _ in parsed.layers]
        assert kinds == ["clifford", "sqr", "gate"]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dyadic_float_gate_matches_rotation_layer(self, n):
        # a gate layer given as float angles k / 2**m is that rotation layer
        rng = np.random.default_rng([31, n])
        w = [int(k) / 64 for k in rng.integers(0, 64, n)]
        clifford = {"clifford": [list(g) for g in random_clifford(n, rng).gates]}
        gate, sqr = (
            circuit_from_json({"n": n, "layers": [clifford, layer]}).spectrum().values
            for layer in ({"gate": {"sqr": {"w": w}}}, {"sqr": {"w": w}})
        )
        assert np.max(np.abs(gate - sqr)) < 1e-12

    def test_bad_layer(self):
        with pytest.raises(ValidationError):
            circuit_from_json({"n": 1, "layers": [{"what": 1}]})

    def test_missing_n(self):
        with pytest.raises(ValidationError):
            circuit_from_json({"layers": []})


def _random_layer(kind: str, n: int, rng: np.random.Generator) -> tuple:
    if kind == "clifford":
        return kind, random_clifford(n, rng)
    if kind == "sqr":
        return kind, RotationVector.continuous(rng.uniform(0.0, 1.0, n))
    return kind, random_polynomial(n, rng)


def _oracle_values(parsed: ParsedCircuit) -> np.ndarray:
    st = statevector(parsed.initial)
    for kind, obj in parsed.layers:
        if kind == "clifford":
            st = apply_gates(st, obj.gates)
        elif kind == "sqr":
            st = apply_rotation(st, obj)
        else:
            st = apply_diagonal(st, obj)
    return oracle_spectrum(st).values


def _refuse_table(self):
    raise AssertionError("heisenberg_table called")


class TestCircuitFold:
    # ParsedCircuit.spectrum: one pass over the layers, one kernel per kind

    def test_rotation_circuits_match_apply_block_chain(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            c1, c2, c3 = (random_clifford(n, rng) for _ in range(3))
            w1, w2 = (RotationVector.continuous(rng.uniform(0.0, 1.0, n)) for _ in range(2))
            parsed = ParsedCircuit(n, tab, (("sqr", w1), ("clifford", c1), ("clifford", c2),
                                            ("sqr", w2), ("clifford", c3)))
            s = initial_spectrum(tab)
            for block in (LayerBlock(n, None, w1), LayerBlock(n, c1, None),
                          LayerBlock(n, c2, w2), LayerBlock(n, c3, None)):
                s = apply_block(s, block)
            got = parsed.spectrum().values
            assert np.array_equal(got.view(np.int64), s.values.view(np.int64)), n

    def test_two_clifford_prefix_matches_the_tableau_chain(self):
        # the prefix folds the rows: bit for bit two apply_clifford calls, the
        # group vector, then the later layers as apply_block steps
        rng = np.random.default_rng(16)
        for n in range(1, MAX_SPECTRUM_QUBITS + 1):
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            while tab.r < 1:
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            c1, c2, c3 = (random_clifford(n, rng) for _ in range(3))
            w1, w2 = (RotationVector.continuous(rng.uniform(0.0, 1.0, n)) for _ in range(2))
            parsed = ParsedCircuit(n, tab, (("clifford", c1), ("clifford", c2), ("sqr", w1),
                                            ("clifford", c3), ("sqr", w2)))
            s = initial_spectrum(apply_clifford(apply_clifford(tab, c1), c2))
            for block in (LayerBlock(n, None, w1), LayerBlock(n, c3, w2)):
                s = apply_block(s, block)
            got = parsed.spectrum().values
            assert np.array_equal(got.view(np.int64), s.values.view(np.int64)), n

    def test_shallow_shape_matches_shallow_spectrum(self):
        rng = np.random.default_rng(12)
        for n in range(1, MAX_SPECTRUM_QUBITS + 1):
            for _ in range(3):
                tab = random_stabilizer(n, int(rng.integers(1 << 30)))
                c, f = random_clifford(n, rng), random_polynomial(n, rng)
                got = ParsedCircuit(n, tab, (("clifford", c), ("gate", f))).spectrum().values
                want = shallow_spectrum(canonicalize(apply_clifford(tab, c)), f).values
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), n

    @pytest.mark.parametrize("n", range(1, MAX_SPECTRUM_QUBITS + 1))
    def test_mixed_circuits_vs_oracle(self, n):
        rng = np.random.default_rng([13, n])
        for _ in range(2):
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            kinds = ["clifford", "sqr", "gate", "clifford", "sqr", "gate"]
            layers = tuple(_random_layer(k, n, rng) for k in rng.permutation(kinds).tolist())
            parsed = ParsedCircuit(n, tab, layers)
            dev = np.max(np.abs(parsed.spectrum().values - _oracle_values(parsed)))
            assert dev <= 1e-10, (n, [kind for kind, _ in layers])

    @pytest.mark.parametrize("kinds", [["clifford"], ["clifford", "clifford", "gate"],
                                       ["clifford", "sqr", "gate"], ["clifford", "sqr"]])
    def test_clifford_prefix_moves_the_tableau(self, kinds, monkeypatch):
        # leading Clifford layers fold the tableau rows, never a 4**n table
        monkeypatch.setattr(CliffordOp, "heisenberg_table", _refuse_table)
        rng = np.random.default_rng([14, len(kinds)])
        for n in (1, 4, 6):
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            parsed = ParsedCircuit(n, tab, tuple(_random_layer(k, n, rng) for k in kinds))
            dev = np.max(np.abs(parsed.spectrum().values - _oracle_values(parsed)))
            assert dev <= 1e-10, (n, kinds)

    @pytest.mark.parametrize("first", ["sqr", "gate"])
    def test_clifford_after_a_diagonal_layer_uses_the_table(self, first, monkeypatch):
        monkeypatch.setattr(CliffordOp, "heisenberg_table", _refuse_table)
        rng = np.random.default_rng(15)
        layers = (_random_layer("clifford", 3, rng), _random_layer(first, 3, rng),
                  _random_layer("clifford", 3, rng))
        with pytest.raises(AssertionError, match="heisenberg_table called"):
            ParsedCircuit(3, plus_tableau(3), layers).spectrum()

    @pytest.mark.parametrize("layer", [
        ("clifford", CliffordOp(3, (("H", 2),))),
        ("sqr", RotationVector.continuous([0.1, 0.2, 0.3])),
        {"n": 2, "initial": {"n": 3, "generators": ["+XII", "+IXI", "+IIX"]}, "layers": []},
        {"n": 2, "layers": [{"sqr": {"w": [0.1, 0.2, 0.3]}}]},
        {"n": 2, "layers": [{"gate": {"n": 3, "terms": [{"m": 3, "a": "111", "c": 1}]}}]},
    ], ids=["clifford", "sqr", "json-initial", "json-sqr", "json-gate"])
    def test_layer_on_other_qubits_rejected(self, layer):
        # the fold trusts its layers' sizes, so the circuit checks them when
        # built; circuit JSON leaves its sizes to that one check
        with pytest.raises(ValidationError, match="not on its n=2 qubits"):
            if isinstance(layer, dict):
                circuit_from_json(layer)
            else:
                ParsedCircuit(2, plus_tableau(2), (layer,))

    @pytest.mark.parametrize("layer", [
        ("foo", make_gate("T", [1], 2)),
        ("sqr", make_gate("T", [1], 2)),
        ("clifford", RotationVector.continuous([0.1, 0.2])),
        ("gate", RotationVector.continuous([0.1, 0.2])),
        ("gate", CliffordOp(2, (("H", 0),))),
        ("gate", make_gate("T", [1], 2), None),
        "gate",
    ], ids=["unknown", "sqr-gate", "clifford-sqr", "gate-sqr", "gate-clifford", "triple", "bare"])
    def test_layer_of_the_wrong_kind_rejected(self, layer):
        # the fold dispatches on the kind alone, so the circuit checks it when built
        with pytest.raises(ValidationError, match="a layer is"):
            ParsedCircuit(2, plus_tableau(2), (layer,))

    @pytest.mark.parametrize("clifford, w", [
        (RotationVector.continuous([0.1, 0.2]), None),
        (None, CliffordOp(2, (("H", 0),))),
        ((("H", 0),), None),
        (None, (0.1, 0.2)),
    ], ids=["clifford-sqr", "sqr-clifford", "clifford-gates", "sqr-angles"])
    def test_block_field_of_the_wrong_type_rejected(self, clifford, w):
        with pytest.raises(ValidationError, match="a layer is"):
            LayerBlock(2, clifford, w)

    @pytest.mark.parametrize("initial", [None, {"n": 2, "rows": ()}, ("XI", "IX")],
                             ids=["none", "dict", "texts"])
    def test_initial_state_of_another_type_rejected(self, initial):
        # the fold reads the initial rows as they are, so the circuit checks
        # the state's type when built, and its wrappers inherit that check
        for build in (lambda: ParsedCircuit(2, initial, ()),
                      lambda: initial_spectrum(initial),
                      lambda: shallow_spectrum(initial, make_gate("T", [1], 2))):
            with pytest.raises(ValidationError, match="must be a StabilizerTableau"):
                build()

    def test_empty_circuit_is_initial_spectrum(self):
        tab = random_stabilizer(3, 5)
        got = ParsedCircuit(3, tab, ()).spectrum().values
        assert np.array_equal(got, initial_spectrum(tab).values)
