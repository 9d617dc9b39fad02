"""Tableau handling: canonical form, group table, frames, expectations."""

import hashlib
import json

import numpy as np
import pytest

from magicforge.errors import CapacityError, ValidationError
from magicforge.oracle import apply_gates, oracle_spectrum, statevector
from magicforge.pauli_core import PauliLabel, commutes, pauli_mul
from magicforge.stabilizer import (
    StabilizerTableau,
    apply_clifford,
    canonical_frame,
    canonicalize,
    is_graph_type,
    plus_tableau,
    product_tableau,
    pure_z_rank,
    random_stabilizer,
    tableau_expectation,
    zeros_tableau,
)
from magicforge.transfer import CliffordOp, _products, random_clifford

from helpers import (
    circuit_matrix,
    conjugate_reference,
    fidelity,
    group_reference,
    overlap2,
    pauli_matrix,
    stabilizer_dense,
)


def random_cases(ns=(1, 2, 3, 4), per_n=10, seed=0):
    rng = np.random.default_rng(seed)
    for n in ns:
        for _ in range(per_n):
            yield random_stabilizer(n, int(rng.integers(1 << 30)))


def group_table(t) -> list[PauliLabel]:
    """The product kernel on the tableau rows, as one label per group element."""
    label, ph = _products(t.n, t.rows)
    return [PauliLabel(t.n, int(v) >> t.n, int(v) & ((1 << t.n) - 1), int(p))
            for v, p in zip(label, ph)]


def signed_graph_tableau(n, rng):
    """(tableau, adjacency, signs) of a random signed graph state: generators
    (-1)^s_j X_j Z^adj_j, mixed by random row products and shuffled, so that
    a reduction has to find the graph form again."""
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    signs = [int(s) for s in rng.integers(2, size=n)]
    rows = [PauliLabel(n, 1 << j, adj[j], 2 * signs[j]) for j in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.choice(n, 2, replace=False)
        rows[i] = pauli_mul(rows[i], rows[j])
    order = rng.permutation(n)
    tab = StabilizerTableau(n, [(rows[k].x, rows[k].z, rows[k].phase_exp // 2) for k in order])
    return tab, tuple(adj), tuple(signs)


class TestTableauBasics:
    def test_rejects_anticommuting(self):
        with pytest.raises(ValidationError):
            StabilizerTableau(1, ((1, 0, 0), (0, 1, 0)))

    def test_rejects_dependent(self):
        rows = ((0, 0b01, 0), (0, 0b10, 0), (0, 0b11, 0))
        with pytest.raises(ValidationError):
            StabilizerTableau(2, rows)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValidationError):
            StabilizerTableau(2, ((0, 1, 0),))

    @pytest.mark.parametrize("h", [(2, 0), (0.5, 1), (-1, 0), (True, 0), ("1", 0)])
    def test_rejects_bad_sign_bits(self, h):
        # a sign bit other than the whole number 0 or 1 is an error, never truncated
        with pytest.raises(ValidationError):
            StabilizerTableau(2, ((0, 0b01, h[0]), (0, 0b10, h[1])))

    @pytest.mark.parametrize("row", [PauliLabel(1, 0, 1), (0, 1), (0, 1, 0, 0), (0, 2, 0),
                                     (-1, 0, 0), (0, 0.5, 0), None])
    def test_rejects_malformed_rows(self, row):
        # a row is a triple (x, z, h) whose masks fit on the n qubits
        with pytest.raises(ValidationError):
            StabilizerTableau(1, (row,))

    @pytest.mark.parametrize("make", [
        lambda: StabilizerTableau(0, ()),
        lambda: StabilizerTableau(True, zeros_tableau(1).rows),
        lambda: StabilizerTableau(1.5, zeros_tableau(1).rows),
        lambda: zeros_tableau(True),
        lambda: zeros_tableau(33),
        lambda: plus_tableau(0),
        lambda: plus_tableau(2.5),
        lambda: product_tableau(-1, {}),
    ], ids=["n0", "n-bool", "n-float", "zeros-bool", "zeros-33", "plus-0", "plus-float",
            "product-negative"])
    def test_rejects_bad_qubit_count(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_reads_whole_floats(self):
        tab = StabilizerTableau(2.0, ((0, 0b01, 1.0), (0, 0b10, 0)))
        assert tab == product_tableau(2, {1: 1, 2: 0}) and type(tab.n) is int
        assert zeros_tableau(2.0) == zeros_tableau(2)

    def test_json_round_trip(self):
        for tab in random_cases(per_n=5):
            assert StabilizerTableau.from_json(tab.to_json()) == tab

    def test_json_format(self):
        tab = StabilizerTableau.from_json({"n": 2, "generators": ["+XZ", "-ZX"]})
        assert tab.rows == ((0b01, 0b10, 0), (0b10, 0b01, 1))

    def test_json_rejects_imaginary_sign(self):
        with pytest.raises(ValidationError):
            StabilizerTableau.from_json({"n": 1, "generators": ["+iX"]})

    def test_product_states(self):
        assert zeros_tableau(2).to_json()["generators"] == ["+ZI", "+IZ"]
        assert plus_tableau(2).to_json()["generators"] == ["+XI", "+IX"]
        mixed = product_tableau(3, {2: 1})
        assert mixed.to_json()["generators"] == ["+XII", "-IZI", "+IIX"]

    def test_product_rejects_list(self):
        with pytest.raises(ValidationError):
            product_tableau(2, [1])

    @pytest.mark.parametrize("frozen", [{5: 0, 1: 0}, {0: 1}, {-1: 0}, {1: 2}, {1: -1},
                                        {1: 0.5}, {1: True}, {True: 0}, {1.5: 0}, {"1": 0}])
    def test_product_rejects_bad_qubit_or_bit(self, frozen):
        # a qubit outside 1..n or a bit other than 0 or 1 is an error, never
        # skipped or truncated
        with pytest.raises(ValidationError):
            product_tableau(3, frozen)

    def test_product_reads_whole_floats(self):
        assert product_tableau(2, {2.0: 1.0}) == product_tableau(2, {2: 1})


class TestCanonicalize:
    def test_rank_split(self):
        c = canonicalize(product_tableau(3, {1: 0, 2: 1}))
        assert c.r == 2
        assert [x != 0 for x, _, _ in c.rows] == [True, False, False]

    def test_mixed_x_parts_independent(self):
        for tab in random_cases():
            c = canonicalize(tab)
            acc = [0]
            for x, _, _ in c.rows[: tab.n - c.r]:
                assert x != 0
                new = {a ^ x for a in acc}
                assert not (new & set(acc))
                acc += sorted(new)
            assert len(acc) == 1 << (tab.n - c.r)


class TestGroupElements:
    # the subset-product kernel on a tableau's rows gives its stabilizer group

    def test_full_group(self):
        for tab in random_cases(per_n=5):
            els = group_table(tab)
            assert len(els) == 1 << tab.n
            assert len({(e.x, e.z) for e in els}) == 1 << tab.n
            for e in els:
                assert e.phase_exp % 2 == 0

    def test_all_elements_stabilize(self):
        for tab in random_cases(ns=(2, 3), per_n=4):
            psi = stabilizer_dense(tab)
            for e in group_table(tab):
                m = pauli_matrix(e)
                assert np.allclose(m @ psi, psi)

    def test_matches_reference_to_cap(self):
        # element by element, sign included; pure-Z rows (r > 0) at every n
        rng = np.random.default_rng(21)
        for n in range(1, 9):
            tabs = [random_stabilizer(n, int(rng.integers(1 << 30))) for _ in range(4)]
            tabs += [product_tableau(n, {1: 1, n: 0}), zeros_tableau(n)]
            assert any(pure_z_rank(tab) > 0 for tab in tabs)
            for tab in tabs:
                assert group_table(tab) == group_reference(tab), n

    def test_closed_under_product(self):
        tab = random_stabilizer(3, 5)
        els = group_table(tab)
        keyed = {(e.x, e.z): e for e in els}
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, b = rng.integers(len(els), size=2)
            prod = pauli_mul(els[a], els[b])
            assert keyed[(prod.x, prod.z)] == prod


class TestExpectation:
    def test_matches_dense(self):
        rng = np.random.default_rng(13)
        for tab in random_cases(ns=(1, 2, 3), per_n=6):
            n = tab.n
            psi = stabilizer_dense(tab)
            for _ in range(20):
                p = PauliLabel(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                want = np.vdot(psi, pauli_matrix(p) @ psi).real
                assert abs(tableau_expectation(tab, p) - want) < 1e-9

    def test_matches_oracle_to_cap(self):
        # every group label and random labels, both signs, against the dense spectrum
        rng = np.random.default_rng(14)
        for n in range(1, 9):
            for tab in [random_stabilizer(n, int(rng.integers(1 << 30))) for _ in range(3)] \
                    + [product_tableau(n, {1: 1})]:
                values = oracle_spectrum(statevector(tab)).values
                picks = np.flatnonzero(np.abs(values) > 0.5).tolist()
                picks += rng.integers(1 << (2 * n), size=20).tolist()
                for v in picks:
                    p = PauliLabel(n, v >> n, v & ((1 << n) - 1))
                    want = round(values[v])
                    assert tableau_expectation(tab, p) == want, (n, v)
                    assert tableau_expectation(tab, PauliLabel(n, p.x, p.z, 2)) == -want

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValidationError):
            tableau_expectation(zeros_tableau(1), PauliLabel(1, 1, 0, 1))

    def test_cap_checked_before_group(self, monkeypatch):
        def no_group(*args):
            raise AssertionError("group table built past the cap")

        monkeypatch.setattr("magicforge.stabilizer._group", no_group)
        with pytest.raises(CapacityError):
            tableau_expectation(zeros_tableau(17), PauliLabel(17, 0, 1))


class TestGraphType:
    def test_plus_state_is_empty_graph(self):
        ok, adj, signs = is_graph_type(plus_tableau(3))
        assert ok and list(adj) == [0, 0, 0] and list(signs) == [0, 0, 0]

    def test_cz_pair_graph(self):
        tab = apply_clifford(plus_tableau(2), CliffordOp(2, (("CZ", 0, 1),)))
        ok, adj, signs = is_graph_type(tab)
        assert ok and list(adj) == [0b10, 0b01]

    def test_zeros_not_graph(self):
        ok, adj, signs = is_graph_type(zeros_tableau(2))
        assert not ok and adj is None

    def test_y_diagonal_not_graph(self):
        # S|+> has stabilizer Y: x-part identity but nonzero adjacency diagonal
        tab = apply_clifford(plus_tableau(1), CliffordOp(1, (("S", 0),)))
        ok, _, _ = is_graph_type(tab)
        assert not ok

    @pytest.mark.parametrize("n", range(1, 9))
    def test_signed_graph_states_read_back(self, n):
        rng = np.random.default_rng([11, n])
        for _ in range(10):
            tab, adj, signs = signed_graph_tableau(n, rng)
            assert is_graph_type(tab) == (True, adj, signs)
            # Y on its own qubit: still r = 0, but a nonzero adjacency diagonal
            tab_y = apply_clifford(tab, CliffordOp(n, (("S", int(rng.integers(n))),)))
            assert is_graph_type(tab_y) == (False, None, None)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_positive_pure_z_rank_is_not_graph(self, n):
        assert is_graph_type(zeros_tableau(n)) == (False, None, None)
        seen = 0
        for seed in range(40):
            tab = random_stabilizer(n, seed)
            if pure_z_rank(tab) >= 1:
                seen += 1
                assert is_graph_type(tab) == (False, None, None)
        assert seen


class TestCanonicalFrame:
    def test_dense_fidelity(self):
        for tab in random_cases(per_n=8, seed=3):
            frame, target = canonical_frame(tab)
            moved = circuit_matrix(tab.n, frame.gates) @ stabilizer_dense(tab)
            assert fidelity(moved, stabilizer_dense(target)) > 1 - 1e-10

    def test_oracle_sweep_to_cap(self):
        for tab in random_cases(ns=range(1, 9), per_n=3, seed=7):
            frame, target = canonical_frame(tab)
            moved = apply_gates(statevector(tab), frame.gates)
            assert overlap2(moved, statevector(target)) > 1 - 1e-10, tab.to_json()

    def test_no_hadamards(self):
        for tab in random_cases(per_n=4, seed=4):
            frame, _ = canonical_frame(tab)
            assert all(g[0] in {"CX", "CZ", "S", "Z", "X"} for g in frame.gates)

    def test_target_shape(self):
        for tab in random_cases(per_n=4, seed=5):
            _, target = canonical_frame(tab)
            r = pure_z_rank(tab)
            gens = target.to_json()["generators"]
            for j, g in enumerate(gens):
                body = g[1:]
                assert g[0] == "+"
                if j < r:
                    assert body == "I" * j + "Z" + "I" * (tab.n - j - 1)
                else:
                    assert body == "I" * j + "X" + "I" * (tab.n - j - 1)

    @pytest.mark.parametrize("n", [17, 32])
    def test_past_the_canonicalize_cap(self, n):
        # the frame and the graph flag are O(n**2) row work and run to the
        # 32-qubit masks; only canonicalize keeps the n = 16 cap
        tab = random_stabilizer(n, 3)
        with pytest.raises(CapacityError):
            canonicalize(tab)
        frame, target = canonical_frame(tab)
        r = pure_z_rank(tab)
        assert target == product_tableau(n, dict.fromkeys(range(1, r + 1), 0))
        # n independent moved rows in the target's group: +Z on qubits below r, +X above
        low = (1 << r) - 1
        assert all(x & low == 0 and z & ~low == 0 and h == 0
                   for x, z, h in apply_clifford(tab, frame).rows)
        graph, adj, signs = signed_graph_tableau(n, np.random.default_rng([14, n]))
        assert is_graph_type(graph) == (True, adj, signs)
        assert is_graph_type(zeros_tableau(n)) == (False, None, None)


def frame_moves_to_target(tab):
    """The frame of tab, after checking against the oracle that it takes the
    state to the target |0>^r |+>^(n-r)."""
    frame, target = canonical_frame(tab)
    r = pure_z_rank(tab)
    assert target == product_tableau(tab.n, dict.fromkeys(range(1, r + 1), 0))
    moved = apply_gates(statevector(tab), frame.gates)
    assert overlap2(moved, statevector(target)) > 1 - 1e-10, tab.to_json()
    return frame


def graph_tableau(n, rng):
    """A random graph state: |+...+> and CZ on each pair with probability 1/2."""
    edges = tuple(("CZ", a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5)
    return apply_clifford(plus_tableau(n), CliffordOp(n, edges))


class TestCanonicalFrameEdgeCases:
    # each case reaches one branch of the reduction; the oracle checks the frame

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_rank(self, n):
        frame = frame_moves_to_target(zeros_tableau(n))
        assert frame.gates == ()
        ones = product_tableau(n, dict.fromkeys(range(1, n + 1), 1))
        frame = frame_moves_to_target(ones)
        assert sorted(frame.gates) == [("X", q) for q in range(n)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_graph_state_with_y_on_its_own_qubit(self, n):
        # S on qubit q turns its row into a Y there: the frame undoes it with S Z
        rng = np.random.default_rng([31, n])
        for _ in range(4):
            tab = graph_tableau(n, rng)
            ys = {int(q) for q in rng.choice(n, size=1 + int(rng.integers(n)), replace=False)}
            tab = apply_clifford(tab, CliffordOp(n, tuple(("S", q) for q in sorted(ys))))
            assert pure_z_rank(tab) == 0
            frame = frame_moves_to_target(tab)
            assert {g[1] for g in frame.gates if g[0] == "S"} == ys
            assert {g[1] for g in frame.gates if g[0] == "Z"} == ys

    @pytest.mark.parametrize("n", range(1, 9))
    def test_negative_mixed_rows(self, n):
        # Z on qubit q of a graph state negates its row; CZ keeps the signs
        rng = np.random.default_rng([32, n])
        for _ in range(4):
            flips = {q for q in range(n) if rng.random() < 0.5} or {0}
            tab = apply_clifford(graph_tableau(n, rng),
                                 CliffordOp(n, tuple(("Z", q) for q in sorted(flips))))
            assert sum(h for _, _, h in tab.rows) == len(flips)
            frame = frame_moves_to_target(tab)
            assert {g[1] for g in frame.gates if g[0] == "Z"} == flips
            assert not any(g[0] in ("S", "X") for g in frame.gates)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_negative_pure_and_mixed_rows(self, n):
        # |0>, |1>, |+>, |-> on random qubits, the frozen ones moved to the front
        rng = np.random.default_rng([33, n])
        for _ in range(4):
            frozen = {q + 1: int(rng.integers(2)) for q in range(n) if rng.random() < 0.5}
            minus = [q for q in range(n) if q + 1 not in frozen and rng.random() < 0.5]
            tab = apply_clifford(product_tableau(n, frozen),
                                 CliffordOp(n, tuple(("Z", q) for q in minus)))
            frame = frame_moves_to_target(tab)
            names = [g[0] for g in frame.gates]
            assert names.count("X") == sum(frozen.values())
            assert names.count("Z") == len(minus)

    def test_reductions_are_pinned(self):
        # canonicalize's rows and signs and the frame's gate list over
        # random_stabilizer(n, s), n = 1..8, s = 0..9: a reduction that picks
        # other generators or other frame gates changes this digest
        digest = hashlib.sha256()
        for n in range(1, 9):
            for s in range(10):
                tab = random_stabilizer(n, s)
                c = canonicalize(tab)
                frame, _ = canonical_frame(tab)
                digest.update(json.dumps([c.r, [[x, z] for x, z, _ in c.rows],
                                          [h for _, _, h in c.rows],
                                          [list(g) for g in frame.gates]]).encode())
        assert digest.hexdigest() == \
            "6146b34e27f20d943b56125cafbbd9587ef2a543c8914c767461daf991b4c379"

    def test_frames_and_graph_flags_are_pinned(self):
        # the frame's gate list and target rows over random_stabilizer(n, s)
        # and over signed graph tableaux, and `is_graph_type` on those graph
        # tableaux, on them with a Y on one qubit and on random stabilizers,
        # n = 1..8: a reduction that picks other gates or flags changes these
        frames, flags = hashlib.sha256(), hashlib.sha256()
        for n in range(1, 9):
            rng = np.random.default_rng([13, n])
            tabs = [random_stabilizer(n, s) for s in (0, 1, 7, 12345)]
            for _ in range(20):
                graph = signed_graph_tableau(n, rng)[0]
                y = apply_clifford(graph, CliffordOp(n, (("S", int(rng.integers(n))),)))
                tabs.append(graph)
                for tab in (graph, y, random_stabilizer(n, int(rng.integers(1 << 30)))):
                    flags.update(json.dumps(is_graph_type(tab)).encode())
            for tab in tabs:
                frame, target = canonical_frame(tab)
                frames.update(json.dumps([[list(g) for g in frame.gates], target.rows]).encode())
        assert frames.hexdigest() == \
            "402b22e65937e8e30086ed7001ba4e874eff5aa7d0f6dc1218d309734bcc4a6c"
        assert flags.hexdigest() == \
            "9d5cfee7103d3180c6a0e061220ad1542245645fe9f4e31cf036c9c638f2d3c6"


class TestApplyClifford:
    def test_matches_dense(self):
        rng = np.random.default_rng(17)
        for tab in random_cases(ns=(1, 2, 3), per_n=6, seed=6):
            c = random_clifford(tab.n, rng)
            got = stabilizer_dense(apply_clifford(tab, c))
            want = circuit_matrix(tab.n, c.gates) @ stabilizer_dense(tab)
            assert fidelity(got, want) > 1 - 1e-10

    def test_oracle_sweep_to_cap(self):
        rng = np.random.default_rng(18)
        for tab in random_cases(ns=range(1, 9), per_n=3, seed=8):
            c = random_clifford(tab.n, rng)
            got = statevector(apply_clifford(tab, c))
            want = apply_gates(statevector(tab), c.gates)
            assert overlap2(got, want) > 1 - 1e-10, (tab.to_json(), c.gates)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            apply_clifford(zeros_tableau(2), CliffordOp(1, (("H", 0),)))


class TestRandomStabilizer:
    def test_deterministic(self):
        assert random_stabilizer(3, 11) == random_stabilizer(3, 11)

    def test_varies_with_seed(self):
        outs = {random_stabilizer(3, s).to_json()["generators"][0] for s in range(20)}
        assert len(outs) > 3

    def test_rank_spread(self):
        # both full-rank-x and deficient cases should appear
        ranks = {canonicalize(random_stabilizer(3, s)).r for s in range(40)}
        assert 0 in ranks and len(ranks) >= 2

    def test_matches_reference_fold(self):
        # Z_j rows of |0...0> pushed through the same gate string, one label at a time
        for n in range(1, 9):
            for seed in (0, 1, 7, 12345):
                circ = random_clifford(n, np.random.default_rng(seed), length=3 * n * n + 2 * n)
                want = [conjugate_reference(circ.gates, PauliLabel(n, 0, 1 << j)) for j in range(n)]
                tab = random_stabilizer(n, seed)
                assert [(p.x, p.z) for p in want] == [(x, z) for x, z, _ in tab.rows], (n, seed)
                assert [p.phase_exp // 2 for p in want] == [h for _, _, h in tab.rows], (n, seed)
                assert all(p.phase_exp in (0, 2) for p in want)

    def test_rows_commute(self):
        tab = random_stabilizer(5, 23)
        labels = [PauliLabel(tab.n, x, z) for x, z, _ in tab.rows]
        assert all(commutes(a, b) for a in labels for b in labels)


class TestPureZRank:
    def test_product_states(self):
        assert pure_z_rank(zeros_tableau(3)) == 3
        assert pure_z_rank(plus_tableau(3)) == 0
        assert pure_z_rank(product_tableau(4, {1: 0, 3: 1})) == 2

    def test_support_matches_the_oracle(self):
        # the state has 2**(n - r) nonzero amplitudes
        for tab in random_cases(ns=range(1, 9), per_n=25, seed=9):
            support = np.count_nonzero(np.abs(statevector(tab).amplitudes) > 1e-9)
            assert support == 1 << (tab.n - pure_z_rank(tab)), tab.to_json()

    def test_invariant_under_diagonal_clifford(self):
        # CZ and S keep the support, hence the pure-Z rank
        tab = product_tableau(3, {2: 0})
        c = CliffordOp(3, (("CZ", 0, 1), ("S", 2), ("CZ", 1, 2)))
        assert pure_z_rank(apply_clifford(tab, c)) == pure_z_rank(tab)
