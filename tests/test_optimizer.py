"""Angle descent, Clifford preconditioning, and the greedy layer pipeline."""

import tracemalloc

import numpy as np
import pytest

import magicforge.optimizer

from magicforge.diagonal_gates import RotationVector
from magicforge.errors import CapacityError, ValidationError
from magicforge.optimizer import (
    OptimizerConfig,
    _descend,
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
from magicforge.transfer import LayerBlock, apply_block, initial_spectrum, random_clifford

from helpers import submask_objective


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
