"""Acceptance gate: ten criteria, fixed seeds, pinned tolerances.

Each test prints one summary line (visible with -s or on failure) and holds
a single top-level assertion theme, so a red line maps to one criterion.
"""

import time

import numpy as np

from magicforge.diagonal_gates import RotationVector, make_gate, random_polynomial
from magicforge.oracle import (
    apply_diagonal,
    apply_gates,
    apply_rotation,
    oracle_spectrum,
    statevector,
)
from magicforge.optimizer import OptimizerConfig, objective, objective_grad, run_pipeline
from magicforge.spectrum import (
    f_alpha,
    flat_bound,
    shallow_spectrum,
    support_size,
)
from magicforge.stabilizer import (
    canonicalize,
    plus_tableau,
    product_tableau,
    random_stabilizer,
)
from magicforge.theorems import (
    construct_zero_magic,
    no_ordering_witness,
    nogo_witness,
    support_ceiling,
)
from magicforge.transfer import (
    LayerBlock,
    apply_block,
    initial_spectrum,
    random_clifford,
)

from helpers import grid_min, transfer_orthogonality_check


def test_criterion_01_closed_form_signed_vs_oracle():
    # 200 random (state, gate) pairs per register size 1..5, signed
    # agreement within 1e-10, full sweep under two minutes
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        for i in range(200):
            rng = np.random.default_rng([1, n, i])
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            gate = random_polynomial(n, rng)
            spec = shallow_spectrum(canonicalize(tab), gate)
            witness = oracle_spectrum(apply_diagonal(statevector(tab), gate))
            dev = float(np.max(np.abs(spec.values - witness.values)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst signed deviation {worst:.3e} over 1000 cases in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 120.0


def test_criterion_02_golden_values_saturate_flat_bound():
    s1 = shallow_spectrum(canonicalize(plus_tableau(1)), make_gate("T", [1], 1))
    s2 = shallow_spectrum(canonicalize(plus_tableau(2)), make_gate("CS", [1, 2], 2))
    f1, f2 = f_alpha(s1, 2), f_alpha(s2, 2)
    print(f"criterion 2: F2 goldens {f1!r} and {f2!r}")
    assert abs(f1 - 1.5) <= 1e-12
    assert abs(f2 - 1.75) <= 1e-12
    assert abs(f1 - flat_bound(1, 2)) <= 1e-12
    assert abs(f2 - flat_bound(2, 2)) <= 1e-12


def test_criterion_03_spectrum_norm_identity():
    worst = 0.0
    for n in range(1, 6):
        for i in range(40):
            rng = np.random.default_rng([3, n, i])
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            spec = shallow_spectrum(canonicalize(tab), random_polynomial(n, rng))
            worst = max(worst, abs(float(np.sum(spec.abs2())) - (1 << n)))
    print(f"criterion 3: worst norm defect {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_04_block_transfer_signed_vs_oracle():
    worst = 0.0
    for n in (2, 3, 4):
        for i in range(50):
            rng = np.random.default_rng([4, n, i])
            tab = random_stabilizer(n, int(rng.integers(1 << 30)))
            spec = initial_spectrum(tab)
            st = statevector(tab)
            for _ in range(3):
                cliff = random_clifford(n, rng)
                w = RotationVector.continuous(tuple(rng.uniform(0, 1, n)))
                spec = apply_block(spec, LayerBlock(n, cliff, w))
                st = apply_rotation(apply_gates(st, cliff.gates), w)
            dev = float(np.max(np.abs(spec.values - oracle_spectrum(st).values)))
            worst = max(worst, dev)
    print(f"criterion 4: worst signed deviation {worst:.3e} over 150 circuits")
    assert worst <= 1e-10


def test_criterion_05_gradient_vs_finite_differences():
    h = 1e-6
    worst = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng([5, n])
        spec = initial_spectrum(random_stabilizer(n, int(rng.integers(1 << 30))))
        for _ in range(100):
            w = rng.uniform(0, 1, n)
            grad = objective_grad(spec, w, 2)
            for j in range(n):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                fd = (objective(spec, wp, 2) - objective(spec, wm, 2)) / (2 * h)
                rel = abs(grad[j] - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
    print(f"criterion 5: worst gradient relative error {worst:.3e}")
    assert worst <= 1e-5


def test_criterion_06_single_qubit_pipeline_hits_known_optimum():
    results = run_pipeline(plus_tableau(1), 1, OptimizerConfig(restarts=16, seed=0))
    f_star = results[0].f_after
    _, f_grid = grid_min(initial_spectrum(plus_tableau(1)), alpha=2, points=256)
    print(f"criterion 6: pipeline reached {f_star!r}, grid floor {f_grid!r}")
    assert 1.5 <= f_star <= 1.5 + 1e-6
    assert f_star <= f_grid + 1e-9


def test_criterion_07_zero_magic_certificates_and_no_ordering():
    for n in (3, 4, 5):
        for k in range(3, n + 1):
            tab = product_tableau(n, {q: 0 for q in range(1, k - 1)})
            cert = construct_zero_magic(tab, k)
            assert cert.level == k, (n, k)
            assert cert.stabilizer_confirmed, (n, k)
            assert cert.nullity_after <= 1e-9, (n, k)
            wit = no_ordering_witness(n, k)
            assert wit.m2_zero <= 1e-9, (n, k)
            assert wit.m2_comparator >= 0.4, (n, k)
    print("criterion 7: certificates exact and ordering witnesses strong for all "
          "3 <= k <= n <= 5")


def test_criterion_08_support_ceiling_attained():
    mismatches = 0
    for n in range(1, 5):
        for i in range(50):
            rng = np.random.default_rng([8, n, i])
            w = RotationVector.dyadic(tuple(int(v) for v in rng.integers(0, 16, n)), 4)
            counted = support_size(apply_block(initial_spectrum(plus_tableau(n)),
                                               LayerBlock(n, None, w)))
            if counted != support_ceiling(w):
                mismatches += 1
    print(f"criterion 8: {mismatches} ceiling mismatches over 200 rotation layers")
    assert mismatches == 0
    for n in range(2, 9):
        assert 3 ** n < 4 ** n - 2 ** n


def test_criterion_09_nogo_witnesses_found():
    found = 0
    for i in range(20):
        n = 1 + (i % 2)
        rng = np.random.default_rng([9, i])
        while True:
            ks = tuple(int(v) for v in rng.integers(0, 8, n))
            if any(k % 2 for k in ks):
                break
        block = LayerBlock(n, random_clifford(n, rng), RotationVector.dyadic(ks, 3))
        wit = nogo_witness(block.layers, alpha=2, trials=200, seed=i)
        assert wit.increase.delta > 1e-6, i
        assert wit.decrease.delta < -1e-6, i
        assert wit.trials_used <= 200
        found += 1
    print(f"criterion 9: both-direction witnesses found for all {found} blocks")


def test_criterion_10_transfer_orthogonality_and_clifford_invariance():
    worst = 0.0
    for i in range(10):
        n = 1 + (i % 3)
        rng = np.random.default_rng([10, i])
        block = LayerBlock(
            n, random_clifford(n, rng),
            RotationVector.continuous(tuple(rng.uniform(0, 1, n))),
        )
        worst = max(worst, transfer_orthogonality_check(block, trials=10, seed=i))
    print(f"criterion 10: worst isometry defect {worst:.3e} over 100 vectors")
    assert worst <= 1e-9

    rng = np.random.default_rng([10, 99])
    tab = random_stabilizer(3, 41)
    spec = apply_block(
        initial_spectrum(tab),
        LayerBlock(3, None, RotationVector.continuous((0.11, 0.23, 0.37))),
    )
    before = np.sort(np.abs(spec.values))
    for _ in range(5):
        cliff = random_clifford(3, rng)
        after = np.sort(np.abs(apply_block(spec, LayerBlock(3, cliff, None)).values))
        assert float(np.max(np.abs(after - before))) <= 1e-12
