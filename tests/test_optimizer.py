"""Angle sweeps, Clifford preconditioning, and the greedy layer pipeline."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

import magicforge.optimizer

from magicforge.diagonal_gates import RotationVector
from magicforge.errors import CapacityError, ValidationError
from magicforge.optimizer import (
    _BATCH_ENTRIES,
    OptimizerConfig,
    _axis_scores,
    _best_turn,
    _harmonics,
    _optimize_angles_full,
    _pool_gates,
    _pool_score,
    _sweeps,
    config_from_dict,
    objective,
    objective_grad,
    optimize_layer,
    precondition_clifford,
    run_pipeline,
)
from magicforge.spectrum import PauliSpectrum, exact_sum, f_alpha, flat_bound
from magicforge.stabilizer import plus_tableau, random_stabilizer, zeros_tableau
from magicforge.transfer import (
    CliffordOp,
    LayerBlock,
    _turn,
    apply_block,
    circuit_from_json,
    initial_spectrum,
    random_clifford,
    xy_pair,
)

from helpers import (
    axis_scores_reference,
    grid_min,
    pool_score_reference,
    submask_objective,
    sweep_reference,
)


def generic_spectrum(n, rng):
    """A random stabilizer state after a random Clifford + rotation block."""
    s = initial_spectrum(random_stabilizer(n, int(rng.integers(1 << 30))))
    w = RotationVector.continuous(tuple(rng.uniform(0, 1, n)))
    return apply_block(s, LayerBlock(n, random_clifford(n, rng), w))


class TestObjective:
    def test_matches_block_application(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            s = initial_spectrum(tab)
            for _ in range(8):
                w = rng.uniform(0, 1, n)
                direct = f_alpha(
                    apply_block(s, LayerBlock(n, None, RotationVector.continuous(tuple(w)))), 2
                )
                assert abs(objective(s, w, 2) - direct) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_submask_reference(self, n):
        rng = np.random.default_rng(20 + n)
        s = initial_spectrum(random_stabilizer(n, int(rng.integers(1 << 30))))
        s = apply_block(s, LayerBlock(n, random_clifford(n, rng),
                                      RotationVector.continuous(tuple(rng.uniform(0, 1, n)))))
        for alpha in (2, 3):
            w = rng.uniform(0, 1, n)
            f_ref, g_ref = submask_objective(s.values, w, alpha)
            assert abs(objective(s, w, alpha) - f_ref) < 1e-10
            assert np.max(np.abs(objective_grad(s, w, alpha) - g_ref)) < 1e-9

    def test_zero_rotation_is_identity(self):
        s = initial_spectrum(zeros_tableau(2))
        assert abs(objective(s, np.zeros(2), 2) - f_alpha(s, 2)) < 1e-12

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for n in (1, 2, 3):
            s = initial_spectrum(random_stabilizer(n, int(rng.integers(1 << 30))))
            for _ in range(10):
                w = rng.uniform(0, 1, n)
                g = objective_grad(s, w, 2)
                for j in range(n):
                    wp, wm = w.copy(), w.copy()
                    wp[j] += h
                    wm[j] -= h
                    fd = (objective(s, wp, 2) - objective(s, wm, 2)) / (2 * h)
                    assert abs(g[j] - fd) <= 1e-5 * max(1.0, abs(fd))

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_is_f_alpha_of_the_transfer(self, alpha):
        # bit for bit, also for angles outside [0, 1), which the transfer reduces
        rng = np.random.default_rng(30 + alpha)
        for n in (1, 2, 3, 5, 7):
            s = generic_spectrum(n, rng)
            for w in (rng.uniform(0, 1, n), rng.uniform(-3, 3, n), np.full(n, -1e-17),
                      np.full(n, 1.0), rng.integers(-4, 4, n) + rng.uniform(0, 1, n)):
                rotation = RotationVector.continuous(tuple(w))
                direct = f_alpha(apply_block(s, LayerBlock(n, None, rotation)), alpha)
                assert objective(s, w, alpha).hex() == direct.hex(), (n, w)

    @pytest.mark.parametrize("alpha", [1, 0, True, 2.5, None, float("nan"), float("inf"),
                                       float("-inf")])
    def test_bad_alpha_rejected(self, alpha):
        # the gradient validates alpha as F_alpha does, instead of a zero or a rounded one
        s = initial_spectrum(plus_tableau(2))
        for call in (objective, objective_grad):
            with pytest.raises(ValidationError):
                call(s, np.zeros(2), alpha)

    def test_higher_alpha(self):
        s = initial_spectrum(plus_tableau(1))
        w = np.array([0.125])
        direct = f_alpha(
            apply_block(s, LayerBlock(1, None, RotationVector.continuous((0.125,)))), 3
        )
        assert abs(objective(s, w, 3) - direct) < 1e-10


class TestOptimizeAngles:
    def test_single_qubit_reaches_known_minimum(self):
        s = initial_spectrum(plus_tableau(1))
        _, _, f, _ = _optimize_angles_full(s, OptimizerConfig(restarts=8, seed=0))
        assert 1.5 - 1e-9 <= f <= 1.5 + 1e-6

    def test_never_worse_than_identity_angles(self):
        rng = np.random.default_rng(2)
        for n in (1, 2):
            s = initial_spectrum(random_stabilizer(n, int(rng.integers(1 << 30))))
            _, _, f, _ = _optimize_angles_full(s, OptimizerConfig(restarts=4, seed=1))
            assert f <= f_alpha(s, 2) + 1e-12

    def test_deterministic(self):
        s = initial_spectrum(plus_tableau(2))
        cfg = OptimizerConfig(restarts=4, seed=3)
        w1, _, f1, _ = _optimize_angles_full(s, cfg)
        w2, _, f2, _ = _optimize_angles_full(s, cfg)
        assert w1.values == w2.values and f1 == f2

    def test_grid_confirms_descent_minimum(self):
        s = initial_spectrum(plus_tableau(1))
        _, _, f_desc, _ = _optimize_angles_full(s, OptimizerConfig(restarts=8, seed=0))
        _, f_grid = grid_min(s, points=256)
        assert f_desc <= f_grid + 1e-6

    @pytest.mark.parametrize("alpha", [2, 3, 4, 5])
    def test_sweeps_reach_the_grid(self, alpha):
        rng = np.random.default_rng(alpha)
        for n, points in ((1, 256), (2, 48)):
            for _ in range(2):
                s = generic_spectrum(n, rng)
                config = OptimizerConfig(alpha=alpha, restarts=4, seed=alpha)
                _, _, f, _ = _optimize_angles_full(s, config)
                _, f_grid = grid_min(s, alpha, points)
                assert f <= f_grid + 1e-9

    @pytest.mark.parametrize("alpha", [2, 3, 4, 5])
    def test_predicted_drop_is_the_change(self, alpha):
        # the one-angle turn lowers F_alpha by exactly its predicted drop, and
        # no point of a fine grid along that angle is lower
        rng = np.random.default_rng(10 + alpha)
        grid = np.arange(500) / 500
        for n in (1, 2, 3, 4):
            s = generic_spectrum(n, rng)
            f0 = f_alpha(s, alpha)
            for j in range(n):
                (t,), (drop,) = _best_turn(_harmonics(*xy_pair(s.values, n, j), alpha))
                assert drop >= 0

                def turned(wj):
                    v = s.values.copy()
                    p, q = xy_pair(v, n, j)
                    p[...], q[...] = _turn(p, q, wj)
                    return exact_sum(v ** (2 * alpha))

                assert abs((f0 - turned(t)) - drop) <= 1e-9
                assert turned(t) <= min(turned(g) for g in grid) + 1e-9

    @pytest.mark.parametrize("harmonics", [1, 2, 3])
    def test_best_turn_on_random_harmonics(self, harmonics):
        # spectra keep a_2 small next to a_1; here every harmonic may dominate,
        # so a stationary point that is not the lowest one would show
        rng = np.random.default_rng(harmonics)
        k = np.arange(1, harmonics + 1)
        grid = np.arange(4000) / 4000

        def change(a, t):
            return (a * (np.exp(8j * np.pi * np.multiply.outer(t, k)) - 1)).real.sum(axis=-1)

        rows = (rng.standard_normal((50, harmonics)) + 1j * rng.standard_normal((50, harmonics))) \
            * rng.uniform(0, 1, (50, harmonics)) ** 2
        for a, t, drop in zip(rows, *_best_turn(rows)):
            assert abs(change(a, t) + drop) <= 1e-12
            assert -drop <= change(a, grid).min() + 1e-12

    def test_grid_capacity(self):
        s = initial_spectrum(plus_tableau(3))
        with pytest.raises(Exception):
            grid_min(s)

    @pytest.mark.parametrize("points", [2.5, 0, True])
    def test_grid_points_validated(self, points):
        with pytest.raises(ValidationError):
            grid_min(initial_spectrum(plus_tableau(1)), points=points)

    def test_grid_points_as_whole_float(self):
        s = initial_spectrum(plus_tableau(1))
        assert grid_min(s, points=8.0)[1] == grid_min(s, points=8)[1]


def _sweep_cases():
    """(n, restarts, max_iters, tol): four settings per n = 1..6 out of
    restarts {0, 1, 2, 16} x max_iters {1, 2, 8, 100} x tol {1e-10, 1e-3},
    then a few at n = 7 and 8."""
    grid = list(itertools.product((0, 1, 2, 16), (1, 2, 8, 100), (1e-10, 1e-3)))
    cases = [(n, *grid[i]) for n in range(1, 7) for i in range(len(grid)) if (i + n) % 8 == 0]
    return cases + [(7, 2, 8, 1e-10), (7, 16, 2, 1e-3), (8, 1, 2, 1e-10), (8, 16, 1, 1e-10)]


class TestBatchedSweeps:
    @pytest.mark.parametrize("alpha", [2, 3, 4])
    @pytest.mark.parametrize("small_batches", [False, True], ids=["cap", "3-row"])
    def test_match_the_per_start_reference(self, alpha, small_batches, monkeypatch):
        # every start's angles and sweep count, and the winner's rotation,
        # spectrum and F, bit for bit as the per-start loop gives them
        rng = np.random.default_rng(70 + alpha)
        for k, (n, restarts, max_iters, tol) in enumerate(_sweep_cases()):
            if small_batches:
                if n > 6:
                    continue
                monkeypatch.setattr(magicforge.optimizer, "_BATCH_ENTRIES", 3 * 4**n)
            s = generic_spectrum(n, rng) if k % 2 else \
                initial_spectrum(random_stabilizer(n, int(rng.integers(1 << 30))))
            cfg = OptimizerConfig(alpha=alpha, restarts=restarts, max_iters=max_iters, tol=tol,
                                  seed=k)
            draw = np.random.default_rng([cfg.seed, k])
            starts = [np.zeros(n)] + [draw.uniform(0.0, 1.0, n) for _ in range(restarts)]
            ref = [sweep_reference(s.values, w0, alpha, max_iters, tol) for w0 in starts]
            w = np.array(starts)
            sweeps = _sweeps(s, w, cfg)
            for (w_ref, sweeps_ref), w_row, sweeps_row in zip(ref, w, sweeps):
                assert w_row.tobytes() == w_ref.tobytes() and sweeps_row == sweeps_ref, (n, k)
            afters = [apply_block(s, LayerBlock(n, None, RotationVector.continuous(w_ref)))
                      for w_ref, _ in ref]
            fs = [f_alpha(a, alpha) for a in afters]
            best = int(np.argmin(fs))  # the first of the least
            rotation, after, f, total = _optimize_angles_full(s, cfg, stream=(k,))
            assert rotation == RotationVector.continuous(ref[best][0])
            assert np.array_equal(after.values.view(np.int64), afters[best].values.view(np.int64))
            assert f.hex() == fs[best].hex() and total == sum(sw for _, sw in ref), (n, k)

    def test_a_qubit_with_no_pairs_keeps_its_start_angle(self):
        # |0> (x) a generic qubit: qubit 0's pairs are all zero, so every row
        # has drop 0 there with an unmasked turn of 1/8, and the last start
        # meets qubit 1 at an exact minimum in its second sweep (drop 0, an
        # unmasked turn of 1/4); neither turn may reach the angles
        zero, other = np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.6], [0.64, 0.48]])
        s = PauliSpectrum(2, np.kron(other, zero).ravel())  # [x1 x0, z1 z0]: qubit 0 low
        starts = np.array([[0.0, 0.0], [0.3, 0.1], [0.7, 0.55], [0.2, 0.9]])
        w = starts.copy()
        sweeps = _sweeps(s, w, OptimizerConfig(restarts=3))
        assert w[:, 0].tobytes() == starts[:, 0].tobytes()
        for w0, w_row, sweeps_row in zip(starts, w, sweeps):
            w_ref, sweeps_ref = sweep_reference(s.values, w0, 2, 500, 1e-10)
            assert w_row.tobytes() == w_ref.tobytes() and sweeps_row == sweeps_ref == 2

    def test_memory_stays_within_the_batch_cap(self):
        # 201 starts at n = 8 would take 201 * 512 KiB as one batch; a batch of
        # at most _BATCH_ENTRIES entries with its pair copies and temporaries,
        # and a few whole spectra (the input, one transfer with its temporaries,
        # the best so far) stay under three batches plus four spectra (5 MiB;
        # 2.6 MiB measured)
        n = 8
        s = generic_spectrum(n, np.random.default_rng(80))
        cfg = OptimizerConfig(restarts=200, max_iters=1)
        tracemalloc.start()
        try:
            _optimize_angles_full(s, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (3 * _BATCH_ENTRIES + 4 * 4**n)


class TestPrecondition:
    def test_deterministic(self):
        s = initial_spectrum(plus_tableau(2))
        cfg = OptimizerConfig(clifford_pool=8, seed=4)
        assert precondition_clifford(s, cfg).gates == precondition_clifford(s, cfg).gates

    def test_preserves_f_alpha(self):
        rng = np.random.default_rng(5)
        s = initial_spectrum(random_stabilizer(3, int(rng.integers(1 << 30))))
        c = precondition_clifford(s, OptimizerConfig(clifford_pool=8, seed=5))
        moved = apply_block(s, LayerBlock(3, c, None))
        assert abs(f_alpha(moved, 2) - f_alpha(s, 2)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_wht_score_equals_table_score_on_stabilizer_spectra(self, n):
        # stabilizer entries are 0 or +-1, so both sums are exact and layer-0
        # ties stay exact ties
        for seed in range(4):
            s = initial_spectrum(random_stabilizer(n, 100 * n + seed))
            axis_scores = _axis_scores(s)
            for gates in _pool_gates(n, 5, np.random.default_rng([n, seed])):
                perm, _ = CliffordOp(n, gates).heisenberg_table()
                assert _pool_score(axis_scores, n, gates) == pool_score_reference(s.values, perm)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_wht_score_matches_table_score_after_rotation(self, n):
        rng = np.random.default_rng(40 + n)
        for seed in range(3):
            s = initial_spectrum(random_stabilizer(n, 200 * n + seed))
            s = apply_block(s, LayerBlock(n, random_clifford(n, rng),
                                          RotationVector.continuous(tuple(rng.uniform(0, 1, n)))))
            axis_scores = _axis_scores(s)
            for gates in [()] + _pool_gates(n, 5, rng):
                perm, _ = CliffordOp(n, gates).heisenberg_table()
                ref = pool_score_reference(s.values, perm)
                assert abs(_pool_score(axis_scores, n, gates) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", range(1, 9))
    def test_axis_scores_match_the_flat_transform_bit_for_bit(self, n):
        # the matrix form runs the same butterflies in the same level order
        rng = np.random.default_rng([41, n])
        for s in [initial_spectrum(random_stabilizer(n, n)), generic_spectrum(n, rng),
                  generic_spectrum(n, rng)]:
            assert np.array_equal(_axis_scores(s), axis_scores_reference(s.values))

    def test_builds_no_heisenberg_table(self, monkeypatch):
        calls = []
        real = CliffordOp.heisenberg_table
        monkeypatch.setattr(CliffordOp, "heisenberg_table",
                            lambda c: calls.append(c) or real(c))
        rng = np.random.default_rng(8)
        s = initial_spectrum(random_stabilizer(5, 8))
        w = RotationVector.continuous(tuple(rng.uniform(0, 1, 5)))
        s = apply_block(s, LayerBlock(5, None, w))
        calls.clear()
        precondition_clifford(s, OptimizerConfig(clifford_pool=16, seed=8))
        assert calls == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_tied_pool_keeps_the_identity(self, n):
        # on |+...+> the axes Z_1..Z_n already score the most; where every
        # candidate ties exactly, the earliest (the identity) must win
        s = initial_spectrum(plus_tableau(n))
        axis_scores = _axis_scores(s)
        tied = 0
        for seed in range(40):
            pool = [()] + _pool_gates(n, 4, np.random.default_rng([seed, 1, 0]))
            scores = [_pool_score(axis_scores, n, gates) for gates in pool]
            if all(score == scores[0] for score in scores):
                tied += 1
                cfg = OptimizerConfig(clifford_pool=4, seed=seed)
                assert precondition_clifford(s, cfg).gates == ()
        assert tied > 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pool_gate_strings(self, n):
        pool = _pool_gates(n, 40, np.random.default_rng(n))
        assert len(pool) == 40
        two = total = 0
        for gates in pool:
            assert len(gates) == 3 * n * n + 2 * n
            assert CliffordOp(n, gates).gates == gates  # validates every gate
            for gate in gates:
                total += 1
                if gate[0] in ("CX", "CZ"):
                    two += 1
                    assert gate[1] != gate[2]
        if n == 1:
            assert two == 0
        else:
            assert 0.45 <= two / total <= 0.55

    def test_single_qubit_and_empty_pool(self):
        rng = np.random.default_rng(9)
        s = initial_spectrum(plus_tableau(1))
        s = apply_block(s, LayerBlock(1, None, RotationVector.continuous((rng.uniform(),))))
        c = precondition_clifford(s, OptimizerConfig(clifford_pool=8, seed=9))
        assert c.n == 1 and all(len(g) == 2 for g in c.gates)
        s4 = initial_spectrum(random_stabilizer(4, 9))
        assert precondition_clifford(s4, OptimizerConfig(clifford_pool=0)).gates == ()
        res = optimize_layer(s4, OptimizerConfig(restarts=1, max_iters=4, clifford_pool=0))
        assert res.block.clifford.gates == ()


class TestOptimizeLayer:
    def test_layer_never_increases_objective(self):
        rng = np.random.default_rng(6)
        for n in (1, 2):
            s = initial_spectrum(random_stabilizer(n, int(rng.integers(1 << 30))))
            res = optimize_layer(s, OptimizerConfig(restarts=4, clifford_pool=8, seed=6))
            assert res.f_after <= res.f_before + 1e-9
            assert res.block.n == n

    def test_result_spectrum_consistent(self):
        s = initial_spectrum(plus_tableau(1))
        res = optimize_layer(s, OptimizerConfig(restarts=4, seed=7))
        redo = apply_block(s, res.block)
        assert abs(f_alpha(redo, 2) - res.f_after) < 1e-9

    def test_kept_identity_builds_no_heisenberg_table(self, monkeypatch):
        # a Clifford layer without gates is skipped, in apply_block and in circuits
        calls = []
        real = CliffordOp.heisenberg_table
        monkeypatch.setattr(CliffordOp, "heisenberg_table",
                            lambda c: calls.append(c) or real(c))
        config = OptimizerConfig(restarts=1, clifford_pool=4, seed=3)
        kept = moved = 0
        for n, seed in [(3, 1), (4, 2), (4, 5), (5, 3)]:
            for res in run_pipeline(random_stabilizer(n, seed), 2, config):
                kept += res.block.clifford.gates == ()
                moved += res.block.clifford.gates != ()
        assert kept > 0 and len(calls) == moved
        calls.clear()
        s = initial_spectrum(random_stabilizer(4, 9))
        w = RotationVector.continuous((0.1, 0.2, 0.3, 0.4))
        got = apply_block(s, LayerBlock(4, CliffordOp(4, ()), w)).values
        want = apply_block(s, LayerBlock(4, None, w)).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        parsed = circuit_from_json({"n": 2, "layers": [{"sqr": {"w": [0.1, 0.2]}},
                                                       {"clifford": []}]})
        want = apply_block(initial_spectrum(plus_tableau(2)),
                           LayerBlock(2, None, RotationVector.continuous((0.1, 0.2)))).values
        assert np.array_equal(parsed.spectrum().values.view(np.int64), want.view(np.int64))
        assert calls == []


class TestPipeline:
    def test_two_layer_single_qubit(self):
        results = run_pipeline(plus_tableau(1), 2, OptimizerConfig(restarts=8, seed=0))
        assert len(results) == 2
        assert results[0].f_before >= results[0].f_after
        assert abs(results[0].f_before - 2.0) < 1e-12
        assert results[0].f_after <= 1.5 + 1e-6
        assert results[1].f_before == results[0].f_after
        assert results[1].f_after <= results[1].f_before + 1e-9

    @pytest.mark.parametrize("start", [plus_tableau(1), random_stabilizer(1, 1)],
                             ids=["plus", "stabilizer"])
    def test_second_layer_crosses_flat_bound_at_one_qubit(self, start):
        # flat_bound is the floor at depth 1 only: layer 2 goes below it,
        # and stays above 4/3, the least F_2 of any one-qubit state
        cfg = OptimizerConfig(restarts=4, clifford_pool=16, max_iters=100)
        results = run_pipeline(start, 2, cfg)
        assert results[0].f_after >= flat_bound(1, 2) - 1e-12
        assert 4 / 3 - 1e-12 <= results[1].f_after < flat_bound(1, 2)

    @pytest.mark.parametrize("n, seed", [(4, 1), (5, 1), (6, 2)])
    def test_stabilizer_start_leaves_its_maximum(self, n, seed):
        # w = 0 on a stabilizer state is a maximum along every angle: each pair
        # z is 0, +-1 or +-i, so a_1 = sum z^4 / 4 >= 0 and f(t) = f(0) - a_1 (1 - cos 4t)
        s = initial_spectrum(random_stabilizer(n, seed))
        for j in range(n):
            (a,) = _harmonics(*xy_pair(s.values, n, j), 2)
            assert a.imag[0] == 0 and a.real[0] >= 0
        w = np.zeros((1, n))
        (sweeps,) = _sweeps(s, w, OptimizerConfig())
        assert sweeps >= 1 and w.any()
        assert objective(s, w[0], 2) < 2.0**n

    def test_f_before_reuses_the_last_f_after(self, monkeypatch):
        # layer 1's f_before is layer 0's f_after, memoised on the spectrum it handed on
        summed = []
        real = PauliSpectrum.abs2
        monkeypatch.setattr(PauliSpectrum, "abs2", lambda s: summed.append(s) or real(s))
        cfg = OptimizerConfig(restarts=1, max_iters=8, clifford_pool=4, seed=3)
        results = run_pipeline(random_stabilizer(4, 1), 2, cfg)
        # f_before of layer 0, then the F of each start's spectrum, each summed once
        assert len(summed) == 1 + (cfg.restarts + 1) * len(results)
        assert len({id(s) for s in summed}) == len(summed)
        assert any(s is results[0].spectrum_after for s in summed)
        assert results[1].f_before == results[0].f_after

    def test_one_transfer_per_start(self, monkeypatch):
        # each start ends in one transfer of its final angles through apply_block,
        # and the layer's spectrum is its winner's transfer, bit for bit
        transfers = []
        real_block = magicforge.optimizer.apply_block

        def transferring(s, block):
            out = real_block(s, block)
            transfers.append((s, block, out))
            return out

        monkeypatch.setattr(magicforge.optimizer, "apply_block", transferring)
        cfg = OptimizerConfig(restarts=3, max_iters=8, clifford_pool=4, seed=3)
        results = run_pipeline(random_stabilizer(5, 1), 2, cfg)
        starts = [t for t in transfers if t[1].w is not None]
        assert len(starts) == (cfg.restarts + 1) * len(results)
        assert all(block.clifford is None for _, block, _ in starts)
        for res in results:
            (s, block, out), = [t for t in starts if t[2] is res.spectrum_after]
            assert block.w is res.block.w
            want = real_block(s, LayerBlock(s.n, None, RotationVector.continuous(block.w.values)))
            assert np.array_equal(out.values.view(np.int64), want.values.view(np.int64))

    def test_f_after_is_the_f_its_start_was_ranked_by(self, monkeypatch):
        # the least F over a layer's starts is its f_after, bit for bit
        ranked = []
        real_block = magicforge.optimizer.apply_block

        def transferring(s, block):
            out = real_block(s, block)
            if block.clifford is None:
                ranked.append(out)
            return out

        monkeypatch.setattr(magicforge.optimizer, "apply_block", transferring)
        for alpha in (2, 3, 4):
            cfg = OptimizerConfig(alpha=alpha, restarts=2, max_iters=8, clifford_pool=4,
                                  seed=alpha)
            starts = cfg.restarts + 1
            for n in range(1, 7):
                for seed in (1, 2):
                    ranked.clear()
                    results = run_pipeline(random_stabilizer(n, seed), 2, cfg)
                    assert len(ranked) == starts * len(results)
                    for layer, res in enumerate(results):
                        afters = ranked[layer * starts:(layer + 1) * starts]
                        fs = [f_alpha(a, alpha) for a in afters]
                        assert min(fs).hex() == res.f_after.hex(), (alpha, n, seed, layer)
                        assert res.spectrum_after is afters[fs.index(min(fs))]

    @pytest.mark.parametrize("max_iters", [1, 2, 8])
    def test_every_layer_runs_a_sweep(self, max_iters):
        cfg = OptimizerConfig(restarts=2, max_iters=max_iters, clifford_pool=4, seed=2)
        for n, seed in [(1, 1), (3, 2), (5, 3)]:
            for res in run_pipeline(random_stabilizer(n, seed), 2, cfg):
                assert 1 <= res.iterations <= max_iters * (cfg.restarts + 1)

    def test_results_hold_one_spectrum_per_layer(self):
        # twelve n = 8 layers hold their twelve 512 KiB spectra, 6 MiB, and none
        # of their Heisenberg tables, which would add 1 MiB per layer
        cfg = OptimizerConfig(restarts=1, clifford_pool=4, max_iters=8, seed=1)
        run_pipeline(random_stabilizer(8, 2), 1, cfg)  # the per-n tables, built once
        tracemalloc.start()
        try:
            results = run_pipeline(random_stabilizer(8, 1), 12, cfg)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 7 * 2**20
        # replaying the blocks with fresh tables gives every f_after bit for bit
        s = initial_spectrum(random_stabilizer(8, 1))
        for res in results:
            s = apply_block(s, res.block)
            assert f_alpha(s, 2).hex() == res.f_after.hex()

    def test_cap_before_any_dense_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                run_pipeline(plus_tableau(9), 1, OptimizerConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 entry per label would take 8 * 4**n bytes
        assert peak < 8 * 4**9

    def test_layer_count_validation(self):
        with pytest.raises(ValidationError):
            run_pipeline(plus_tableau(1), 0, OptimizerConfig())


class TestConfig:
    def test_from_dict_round_trip(self):
        cfg = config_from_dict({"alpha": 3, "restarts": 2, "seed": 9})
        assert cfg.alpha == 3 and cfg.restarts == 2 and cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({"restartz": 2})

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(alpha=1)
        with pytest.raises(ValidationError):
            OptimizerConfig(restarts=-1)
        with pytest.raises(ValidationError):
            OptimizerConfig(step=-0.1)

    @pytest.mark.parametrize("alpha", [None, float("nan"), float("inf"), float("-inf"), True,
                                       False, 1, 2.5, "2", 2 + 0j])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError, match="alpha must be an integer >= 2"):
            OptimizerConfig(alpha=alpha)

    @pytest.mark.parametrize("field", ["step", "tol"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True])
    def test_non_finite_step_and_tol_rejected(self, field, bad):
        # NaN passes a plain `<= 0` test, and True passes `0 < True < inf`
        with pytest.raises(ValidationError):
            config_from_dict({field: bad})

    @pytest.mark.parametrize("seed", [-1, 1.5, False])
    def test_bad_seed_rejected(self, seed):
        # the CLI takes its seed from --seed only; the config type still checks it
        with pytest.raises(ValidationError):
            config_from_dict({"seed": seed})

    def test_whole_float_counts_read_as_integers(self):
        cfg = config_from_dict({"restarts": 2.0, "max_iters": 3.0, "clifford_pool": 4.0,
                                "seed": 5.0})
        assert cfg == config_from_dict({"restarts": 2, "max_iters": 3, "clifford_pool": 4,
                                        "seed": 5})
        assert all(type(getattr(cfg, name)) is int
                   for name in ("restarts", "max_iters", "clifford_pool", "seed"))
