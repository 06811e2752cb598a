import math

import numpy as np
import pytest

from momentous import BarrierPotential, InvalidEnergy, NoTurningPoint, UnsupportedOrder

from conftest import bisect_turning_point, mp_richardson_derivative, richardson_derivative, rng


def test_height_and_evaluate_examples():
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    assert pot.height == 1.0
    assert pot(0.0) == 1.0
    assert pot(1.0) == 0.5
    assert BarrierPotential(alpha=1.0, a=1.0, n=1)(2.0) == pytest.approx(0.2, abs=0)


def test_evaluate_even_symmetry():
    pot = BarrierPotential(alpha=1.3, a=0.7, n=3)
    qs = rng(7).uniform(-5, 5, size=1000)
    for q in qs:
        left = pot(float(q))
        right = pot(float(-q))
        assert abs(left - right) <= math.ulp(left)


def test_strictly_decreasing_for_positive_alpha():
    pot = BarrierPotential(alpha=2.0, a=1.0, n=2)
    qs = np.linspace(0.01, 5, 200)
    vals = [pot(float(q)) for q in qs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_monotone_sharpening_beyond_width():
    # Past the half-width the barrier falls off faster for larger n.
    for q in (1.2, 1.7, 3.0):
        vals = [BarrierPotential(alpha=1.0, a=1.0, n=n)(q) for n in range(1, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_odd_derivatives_vanish_at_origin():
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    for k in (1, 3, 5, 7):
        assert pot.derivative(0.0, k) == 0.0


def test_second_derivative_examples():
    # 1/(q^2 + 1) has curvature exactly -2 at the top.
    pot1 = BarrierPotential(alpha=1.0, a=1.0, n=1)
    assert pot1.derivative(0.0, 2) == -2.0
    oracle = richardson_derivative(pot1, 0.0, 2, h0=1e-3)
    assert pot1.derivative(0.0, 2) == pytest.approx(oracle, rel=1e-8)
    # 1/(1 + q^8) is flat to seventh order at the top.
    pot4 = BarrierPotential(alpha=1.0, a=1.0, n=4)
    assert pot4.derivative(0.0, 2) == 0.0


@pytest.mark.parametrize(
    "alpha,a,n", [(1.0, 1.0, 4), (1.0, 1.0, 1), (2.5, 0.8, 2), (-1.0, 1.3, 3)]
)
def test_derivatives_match_richardson_fd(alpha, a, n):
    pot = BarrierPotential(alpha=alpha, a=a, n=n)
    gen = rng(42)
    qs = gen.uniform(-3 * a, 3 * a, size=100)
    for k in range(1, 5):
        fds = [mp_richardson_derivative(alpha, a, n, float(q), k) for q in qs]
        scale = max(abs(fd) for fd in fds)
        for q, fd in zip(qs, fds):
            jet = pot.derivative(float(q), k)
            assert abs(jet - fd) <= 1e-6 * max(abs(fd), 1e-6 * scale)


def test_derivatives_prefix_consistency():
    pot = BarrierPotential(alpha=1.0, a=1.0, n=2)
    full = pot.derivatives(0.37, 8)
    assert full[0] == pot(0.37)
    for k in range(9):
        assert pot.derivative(0.37, k) == full[k]
    # An ndarray q gives, entry by entry, the bits of the scalar calls and is
    # left as it was.
    for pot in (pot, BarrierPotential(alpha=-1.0, a=1.3, n=3), BarrierPotential()):
        qs = np.concatenate([rng(7).uniform(-3.0, 3.0, size=40), [0.0, -0.0, 1.0]])
        before = qs.copy()
        for k in range(9):
            columns = pot.derivatives(qs, k)
            assert len(columns) == k + 1
            for j, column in enumerate(columns):
                expected = np.array([pot.derivatives(float(q), k)[j] for q in qs])
                assert column.tobytes() == expected.tobytes()
        assert qs.tobytes() == before.tobytes()


def test_unsupported_order():
    pot = BarrierPotential()
    with pytest.raises(UnsupportedOrder):
        pot.derivative(0.0, 9)
    with pytest.raises(UnsupportedOrder):
        pot.derivatives(0.0, -1)
    assert math.isfinite(pot.derivative(0.5, 8))


def test_turning_points_examples(barrier):
    # Marginal energy: the return points merge at the top.
    assert barrier.turning_points(barrier.height) == (0.0, 0.0)
    energy = barrier.height / 1.46484
    neg, pos = barrier.turning_points(energy)
    assert pos == pytest.approx(0.90867, abs=1e-4)
    assert neg == -pos
    assert pos == pytest.approx(bisect_turning_point(barrier, energy), abs=1e-12)
    with pytest.raises(NoTurningPoint):
        barrier.turning_points(2.0 * barrier.height)


def test_turning_point_residual_random():
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    gammas = 1.0 + 9.0 * rng(3).random(100)
    for gamma in gammas:
        energy = pot.height / gamma
        _, x = pot.turning_points(energy)
        assert abs(pot(x) - energy) <= 1e-10 * energy


def test_energy_ratio():
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    assert pot.energy_ratio(0.98) == pytest.approx(1.0204081632653061, rel=1e-15)
    assert pot.energy_ratio(pot.height) == 1.0
    with pytest.raises(InvalidEnergy):
        pot.energy_ratio(0.0)
    with pytest.raises(InvalidEnergy):
        pot.turning_points(-1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        BarrierPotential(a=0.0)
    with pytest.raises(ValueError):
        BarrierPotential(alpha=0.0)
    with pytest.raises(ValueError):
        BarrierPotential(n=0)
