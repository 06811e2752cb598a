"""Shared oracles, scenario helpers and the hypothesis profile.

The finite-difference machinery here is the independent check for the jet
derivatives: central stencils of second-order accuracy pushed through two
Richardson extrapolation levels. :func:`reference_jet` is the independent
check for the generated jet code: the same recurrence as a plain loop, which
the generated code must match bit for bit.

Property tests run derandomized and without an example database, so every
run, in CI or locally, draws the same examples.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import mul

import numpy as np
import pytest
from hypothesis import settings

from momentous import BarrierPotential, GaussianPacket, IntegratorConfig

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def reference_jet(alpha, a, n, q, k_max):
    """``[V(q), ..., V^(k_max)(q)]`` by the jet recurrence written as loops.

    The Taylor coefficients of ``u(q + e) = (q + e)**(2n) + a**(2n)`` are
    ``u[0] = q**(2n) + a**(2n)`` and ``u[j] = C(2n, j) * q**(2n - j)``, with
    the powers of ``q`` by repeated multiplication; the reciprocal series
    ``w = alpha / u`` follows from ``u * w = alpha``, and ``V^(k) = k! w[k]``.
    """
    two_n = 2 * n
    top = min(two_n, k_max)
    powers = [1.0, *accumulate(repeat(q, two_n), mul)]
    u0 = powers[two_n] + a ** two_n
    binomials = [float(math.comb(two_n, j)) for j in range(top + 1)]
    u = [u0] + list(map(mul, binomials[1:], powers[two_n - 1::-1]))
    w = [alpha / u0]
    for k in range(1, k_max + 1):
        acc = 0.0
        for j in range(1, min(k, top) + 1):
            acc = acc + u[j] * w[k - j]
        w.append(-acc / u0)
    return [w[k] * float(math.factorial(k)) for k in range(k_max + 1)]


def central_difference(f, q, k, h):
    """Second-order central stencil for the k-th derivative, k <= 4."""
    if k == 0:
        return f(q)
    if k == 1:
        return (f(q + h) - f(q - h)) / (2 * h)
    if k == 2:
        return (f(q + h) - 2 * f(q) + f(q - h)) / h**2
    if k == 3:
        return (f(q + 2 * h) - 2 * f(q + h) + 2 * f(q - h) - f(q - 2 * h)) / (2 * h**3)
    if k == 4:
        return (f(q + 2 * h) - 4 * f(q + h) + 6 * f(q) - 4 * f(q - h) + f(q - 2 * h)) / h**4
    raise ValueError("stencils implemented for k <= 4")


def richardson_derivative(f, q, k, h0=None):
    """Two Richardson levels over the central stencil: O(h^6) truncation."""
    if h0 is None:
        h0 = 0.01 if k <= 2 else 0.08
    a1 = central_difference(f, q, k, h0)
    a2 = central_difference(f, q, k, h0 / 2)
    a3 = central_difference(f, q, k, h0 / 4)
    b1 = (4 * a2 - a1) / 3
    b2 = (4 * a3 - a2) / 3
    return (16 * b2 - b1) / 15


def mp_richardson_derivative(alpha, a, n, q, k, h0="0.001", dps=50):
    """Richardson finite differences in 50-digit arithmetic.

    The barrier's high-order derivatives grow violently near the shoulders,
    so double precision cannot push the stencil truncation below ~1e-5
    relative; extended precision removes the roundoff floor and the same
    stencils then converge. Still a finite-difference oracle, fully
    independent of the jet arithmetic under test.
    """
    import mpmath as mp

    with mp.workdps(dps):
        alpha_ = mp.mpf(repr(float(alpha)))
        a_ = mp.mpf(repr(float(a)))

        def f(x):
            return alpha_ / (x ** (2 * n) + a_ ** (2 * n))

        value = richardson_derivative(f, mp.mpf(repr(float(q))), k, mp.mpf(h0))
        return float(value)


def bisect_turning_point(pot: BarrierPotential, energy: float, hi=None) -> float:
    """Independent root of V(x) = energy on (0, hi) by plain bisection."""
    lo = 0.0
    if hi is None:
        hi = 2.0 * pot.a
    while pot(hi) > energy:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pot(mid) > energy:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="session")
def barrier():
    return BarrierPotential(alpha=1.0, a=1.0, n=4)


def scenario_packet(pot, q0, sigma0, energy=0.98, hbar=1.0, mass=1.0):
    """Inbound packet at the standard scenario energy."""
    p0 = math.copysign(math.sqrt(2 * mass * (energy - pot(q0))), -q0)
    return GaussianPacket(q0=q0, p0=p0, sigma0=sigma0, hbar=hbar)


def tight_integrator(**overrides):
    defaults = dict(rtol=1e-10, atol=1e-10, t_max=20.0)
    defaults.update(overrides)
    return IntegratorConfig(**defaults)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
