"""Shared oracles, scenario helpers and the hypothesis profile.

The finite-difference machinery here is the independent check for the jet
derivatives: central stencils of second-order accuracy pushed through two
Richardson extrapolation levels. :func:`reference_jet` is the independent
check for the generated jet code: the same recurrence as a plain loop, which
the generated code must match bit for bit. :data:`TABLEAU` holds the
Dormand-Prince tableau and the step-size controller's constants, typed in
independently of the integrator's tables: the C kernel and the Python loop
both read those tables, so only a comparison with this copy shows a mistyped
weight. :func:`darboux_integrate` is an independent realization of the
order-2 moment system, the oracle for its tags: its equations and its map
to the moments are ``RhsSource`` templates (:func:`darboux_args`), so it
runs in the C kernel or the Python loop as a model run does.
:func:`split_operator_moments` solves the Schrödinger equation itself: the
exact quantum moments that the truncated moment system approximates.

Property tests run derandomized and without an example database, so every
run, in CI or locally, draws the same examples.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import accumulate, repeat
from operator import mul

import numpy as np
import pytest
from hypothesis import settings

from momentous import BarrierPotential, GaussianPacket, IntegratorConfig
from momentous.dynamics import RhsSource, series_source
from momentous.integrator import Trajectory, _event_specs, _propagate
from momentous.potential import jet_lines, jet_name

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


# Dormand-Prince 5(4) tableau, typed in independently of the integrator's
# tables.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)


# The integrator's tables and step-size controller constants, by name, built
# from the weights above.
TABLEAU = {
    "_A": (
        ((1, _A21),),
        ((1, _A31), (2, _A32)),
        ((1, _A41), (2, _A42), (3, _A43)),
        ((1, _A51), (2, _A52), (3, _A53), (4, _A54)),
        ((1, _A61), (2, _A62), (3, _A63), (4, _A64), (5, _A65)),
    ),
    "_B": ((1, _B1), (3, _B3), (4, _B4), (5, _B5), (6, _B6)),
    "_E": ((1, _E1), (3, _E3), (4, _E4), (5, _E5), (6, _E6), (7, _E7)),
    "_D": ((1, _D1), (3, _D3), (4, _D4), (5, _D5), (6, _D6), (7, _D7)),
    "_SAFETY": 0.9,
    "_BETA": 0.04,
    "_EXPO1": 0.2 - 0.04 * 0.75,
    "_FAC_MIN": 0.2,
    "_FAC_MAX": 10.0,
}


def _darboux_moments(y, casimir):
    """``(q, p, G20, G11, G02)`` of a Darboux state ``(q, p, s, p_s)``."""
    q, p, s, p_s = y
    return q, p, s * s, -s * p_s, p_s * p_s + casimir / (s * s)


def darboux_args(init, model, icfg, mark_positions=()):
    """The arguments ``(rhs, t0, y0, icfg, specs, series)`` of the
    ``_propagate`` run of an order-2 state in canonical "Darboux"
    coordinates ``(q, p, s, p_s)``.

    ``G20 = s**2``, ``G11 = -s*p_s``, ``G02 = p_s**2 + U/s**2``, with the
    Casimir ``U = G20*G02 - G11**2`` fixed by ``init``, turn the order-2
    system into a particle in two dimensions with Hamiltonian
    ``p**2/2m + V(q) + p_s**2/2m + U/(2m s**2) + V''(q) s**2/2``. ``rhs``
    holds its four equations, written here from that Hamiltonian, not from
    ``eom_table``, with the barrier's jet and ``m`` and ``casimir`` as
    constants; the uncertainty relation holds in them by construction.
    ``series`` is the model's ``series_source`` over the moments of the
    state, which it writes too, as ``{k3}``, ``{k4}`` and ``{k5}``. The
    events are those of :func:`momentous.integrate`, less any
    uncertainty-constraint stop, which has nothing to monitor here.

    No line divides by zero, as an ``RhsSource`` must not: at order 2 the
    initial moments have ``U = hbar**2/4 > 0``, and the term ``U/(2m
    s**2)`` of the Hamiltonian is a wall that repels ``s`` from 0, so
    ``casimir / (m * s*s*s)`` and ``casimir / (s * s)`` see ``s != 0``.
    """
    assert model.order == 2
    g20, g11, g02 = init.moments
    casimir = g20 * g02 - g11 * g11
    pot, m = model.potential, model.mass
    v1, v2, v3 = map(jet_name, (1, 2, 3))
    constants = {"alpha": pot.alpha, "a_2n": pot._a_2n, "m": m, "casimir": casimir}
    rhs = RhsSource("\n".join([
        *jet_lines(pot.n, (1, 2, 3), "{y0}"),
        "{k0} = {y1} / m",
        f"{{k1}} = -{v1} - 0.5 * {v3} * {{y2}} * {{y2}}",
        "{k2} = {y3} / m",
        f"{{k3}} = casimir / (m * {{y2}} * {{y2}} * {{y2}}) - {v2} * {{y2}}",
    ]), f"darboux rhs n={pot.n}", constants)
    moments = series_source(model)
    fields = dict(zip(("y0", "y1", "y2", "y3", "y4"), ("{y0}", "{y1}", "_g20", "_g11", "_g02")))
    series = RhsSource("\n".join([
        "_g20 = {y2} * {y2}",
        "_g11 = -{y2} * {y3}",
        "_g02 = {y3} * {y3} + casimir / ({y2} * {y2})",
        moments.template.format(**fields, k0="{k0}", k1="{k1}", k2="{k2}"),
        "{k3} = _g20",
        "{k4} = _g11",
        "{k5} = _g02",
    ]), f"darboux moments, {moments.label}", {**moments.bound, "casimir": casimir})
    s0 = math.sqrt(g20)
    specs = [spec for spec in _event_specs(model, icfg.escape_radius, mark_positions)
             if spec.kind != "constraint"]
    return rhs, init.t, [init.q, init.p, s0, -g11 / s0], icfg, specs, series


def darboux_integrate(init, model, icfg, mark_positions=()):
    """Integrate an order-2 state in the Darboux coordinates of
    :func:`darboux_args` and return the :class:`Trajectory` of its moments.

    The run goes through the package's adaptive loop, the C kernel where
    one builds. Its table's series columns hold ``H_Q``, ``V_eff``, the
    uncertainty residual and the moments, which make up the trajectory's
    table with the times and ``(q, p)``; each event's ``y`` is mapped from
    the Darboux state the loop located to its moments ``(q, p, G20, G11,
    G02)``.
    """
    args = darboux_args(init, model, icfg, mark_positions)
    times, states, events, termination, stats, series = _propagate(*args)
    h_q, v_eff, residual, g20, g11, g02 = series
    table = np.column_stack([times, states[:, :2], g20, g11, g02, h_q, v_eff, residual])
    casimir = args[0].bound["casimir"]
    return Trajectory(model, table, termination, tuple(
        replace(e, y=_darboux_moments(e.y, casimir)) for e in events), stats)


def _weyl_moments(x, p, psi, dx):
    """Mean and Weyl-ordered central moments of a grid wave function ``psi``
    (normalised, ``x`` the grid and ``p`` the momentum of each FFT mode).

    A Weyl-ordered moment of ``dq**a dp**b`` is the real part of
    ``<psi| dq**a dp**b |psi>``, as ``(dq dp + dp dq) / 2`` is that of
    ``dq dp``; ``dp`` acts through the FFT.
    """
    def dp_of(f, mean):
        return np.fft.ifft(p * np.fft.fft(f)) - mean * f

    rho = np.abs(psi) ** 2 * dx
    q_mean = float(np.sum(rho * x))
    dq = x - q_mean
    p_mean = float(np.real(np.sum(np.conj(psi) * dp_of(psi, 0.0)) * dx))
    dp_psi = dp_of(psi, p_mean)
    dp2_psi = dp_of(dp_psi, p_mean)

    def weyl(f):
        return float(np.real(np.sum(np.conj(psi) * f) * dx))

    return {
        "q": q_mean, "p": p_mean,
        "qq": float(np.sum(rho * dq**2)), "qp": weyl(dq * dp_psi), "pp": weyl(dp2_psi),
        "qqq": float(np.sum(rho * dq**3)), "qqp": weyl(dq**2 * dp_psi),
        "qpp": weyl(dq * dp2_psi), "ppp": float(np.real(np.sum(np.conj(dp_psi) * dp2_psi) * dx)),
    }


def split_operator_moments(potential, packet: GaussianPacket, times, *, hbar=1.0, mass=1.0,
                           box=40.0, n=8192, dt=2e-4):
    """Exact quantum moments of ``packet``'s Gaussian under ``V = potential``
    (elementwise on an array) at each of ``times``, multiples of ``dt``.

    The split-operator method of Feit, Fleck & Steiger, J. Comput. Phys. 47
    (1982) 412: on ``n`` points of a periodic box of length ``box`` centred
    on 0, each step of ``dt`` is a half step of the potential phase, a full
    step of the kinetic phase in momentum space (FFT) and a half step of the
    potential phase. Without a potential the kinetic step is exact, so any
    ``dt`` gives the free evolution. Each entry of the returned list maps
    ``"q"``, ``"p"`` and the Weyl-ordered central moments ``"qq"``, ``"qp"``
    (the symmetrised covariance), ``"pp"``, ``"qqq"``, ``"qqp"``, ``"qpp"``
    and ``"ppp"`` to floats. The package's ``G<a><b>`` is ``(-1)**b`` times
    the moment of ``a`` q's and ``b`` p's (README: ``G11`` is minus the
    covariance).
    """
    dx = box / n
    x = (np.arange(n) - n // 2) * dx
    p = 2 * np.pi * hbar * np.fft.fftfreq(n, dx)
    q0, p0, sigma0 = packet.q0, packet.p0, packet.sigma0
    psi = np.exp(-(((x - q0) / (2 * sigma0)) ** 2) + 1j * p0 * (x - q0) / hbar)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)
    half_v = np.exp(-0.5j * dt / hbar * potential(x))
    kinetic = np.exp(-1j * dt / (2 * mass * hbar) * p**2)
    out, done = [], 0
    for t in times:
        steps = round(t / dt)
        for _ in range(steps - done):
            psi = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * psi))
        done = steps
        out.append(_weyl_moments(x, p, psi, dx))
    return out


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


def scenario_packet(pot, q0, sigma0, energy=0.98, mass=1.0, **fields):
    """Inbound packet at the standard scenario energy; ``fields`` go to the
    packet (its ``third_moment_convention``)."""
    p0 = math.copysign(math.sqrt(2 * mass * (energy - pot(q0))), -q0)
    return GaussianPacket(q0=q0, p0=p0, sigma0=sigma0, **fields)


def tight_integrator(**overrides):
    defaults = dict(rtol=1e-10, atol=1e-10, t_max=20.0)
    defaults.update(overrides)
    return IntegratorConfig(**defaults)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
