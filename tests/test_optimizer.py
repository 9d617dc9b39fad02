"""Angle descent, Clifford preconditioning, and the greedy layer pipeline."""

import tracemalloc

import numpy as np
import pytest

import magicforge.optimizer

from magicforge.diagonal_gates import RotationVector
from magicforge.errors import CapacityError, ValidationError
from magicforge.optimizer import (
    OptimizerConfig,
    _axis_scores,
    _descend,
    _pool_gates,
    _pool_score,
    config_from_dict,
    grid_min,
    objective,
    objective_grad,
    optimize_angles,
    optimize_layer,
    precondition_clifford,
    run_pipeline,
)
from magicforge.spectrum import PauliSpectrum, f_alpha
from magicforge.stabilizer import plus_tableau, random_stabilizer, zeros_tableau
from magicforge.transfer import (
    CliffordOp,
    LayerBlock,
    apply_block,
    initial_spectrum,
    random_clifford,
)

from helpers import pool_score_reference, submask_objective


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
        w, f = optimize_angles(s, OptimizerConfig(restarts=8, seed=0))
        assert 1.5 - 1e-9 <= f <= 1.5 + 1e-6

    def test_never_worse_than_identity_angles(self):
        rng = np.random.default_rng(2)
        for n in (1, 2):
            s = initial_spectrum(random_stabilizer(n, int(rng.integers(1 << 30))))
            _, f = optimize_angles(s, OptimizerConfig(restarts=4, seed=1))
            assert f <= f_alpha(s, 2) + 1e-12

    def test_deterministic(self):
        s = initial_spectrum(plus_tableau(2))
        cfg = OptimizerConfig(restarts=4, seed=3)
        w1, f1 = optimize_angles(s, cfg)
        w2, f2 = optimize_angles(s, cfg)
        assert np.array_equal(w1, w2) and f1 == f2

    def test_grid_confirms_descent_minimum(self):
        s = initial_spectrum(plus_tableau(1))
        _, f_desc = optimize_angles(s, OptimizerConfig(restarts=8, seed=0))
        _, f_grid = grid_min(s, points=256)
        assert f_desc <= f_grid + 1e-6

    def test_grid_capacity(self):
        s = initial_spectrum(plus_tableau(3))
        with pytest.raises(Exception):
            grid_min(s)


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


class TestPipeline:
    def test_two_layer_single_qubit(self):
        results = run_pipeline(plus_tableau(1), 2, OptimizerConfig(restarts=8, seed=0))
        assert len(results) == 2
        assert results[0].f_before >= results[0].f_after
        assert abs(results[0].f_before - 2.0) < 1e-12
        assert results[0].f_after <= 1.5 + 1e-6
        assert results[1].f_before == results[0].f_after
        assert results[1].f_after <= results[1].f_before + 1e-9

    @pytest.mark.parametrize("n, seed", [(4, 1), (5, 1), (6, 2)])
    def test_zero_gradient_stops_before_any_trial_point(self, n, seed, monkeypatch):
        # w = 0 on a stabilizer state is stationary: every trial point would be w
        s = initial_spectrum(random_stabilizer(n, seed))
        calls = 0
        real = magicforge.optimizer.rotate_layer

        def counting(values, angles):
            nonlocal calls
            calls += 1
            return real(values, angles)

        monkeypatch.setattr(magicforge.optimizer, "rotate_layer", counting)
        w, f, iters = _descend(s, np.zeros(n), OptimizerConfig())
        assert iters == 0 and calls == 1
        assert f == 2.0**n and np.array_equal(w, np.zeros(n))

    def test_f_before_reuses_the_last_f_after(self, monkeypatch):
        # layer 1's f_before is layer 0's f_direct, memoised on the spectrum it handed on
        summed = []
        real = PauliSpectrum.abs2
        monkeypatch.setattr(PauliSpectrum, "abs2", lambda s: summed.append(s) or real(s))
        cfg = OptimizerConfig(restarts=1, max_iters=8, clifford_pool=4, seed=3)
        results = run_pipeline(random_stabilizer(4, 1), 2, cfg)
        assert len(summed) == 3  # f_before of layer 0 and each layer's f_direct
        assert results[1].f_before == results[0].f_after

    def test_one_rotation_per_trial_point(self, monkeypatch):
        # each descent rotates its start once and each iteration's trial point
        # once; the gradient reads the vector already rotated at that point
        calls = 0
        real = magicforge.optimizer.rotate_layer

        def counting(values, angles):
            nonlocal calls
            calls += 1
            return real(values, angles)

        monkeypatch.setattr(magicforge.optimizer, "rotate_layer", counting)
        cfg = OptimizerConfig(restarts=1, max_iters=8, step=0.05, clifford_pool=4, seed=3)
        results = run_pipeline(random_stabilizer(5, 1), 2, cfg)
        assert calls == sum(res.iterations + cfg.restarts + 1 for res in results)

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

    @pytest.mark.parametrize("field", ["step", "tol"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_step_and_tol_rejected(self, field, bad):
        # NaN passes a plain `<= 0` test
        with pytest.raises(ValidationError):
            config_from_dict({field: bad})
