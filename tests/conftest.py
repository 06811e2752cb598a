"""Shared oracles, scenario helpers and the hypothesis profile.

The finite-difference machinery here is the independent check for the jet
derivatives: central stencils of second-order accuracy pushed through two
Richardson extrapolation levels. :func:`reference_jet` is the independent
check for the generated jet code: the same recurrence as a plain loop, which
the generated code must match bit for bit. :func:`reference_integrate` plays
the same part for the generated Dormand-Prince loop: the adaptive loop written
with per-component list code (:func:`reference_step`), a list dense output and
a plain bisection. :func:`darboux_integrate` is an independent realization of
the order-2 moment system, the oracle for its tags. :func:`split_operator_moments`
solves the Schrödinger equation itself: the exact quantum moments that the
truncated moment system approximates.

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

from momentous import BarrierPotential, GaussianPacket, IntegratorConfig, Termination
from momentous.dynamics import effective_series, vector_to_state
from momentous.integrator import Event, Trajectory, _event_specs, _propagate

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


# Dormand-Prince 5(4) tableau for reference_step, typed in independently of
# the integrator's tables.
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


def _finite(v):
    return all(map(math.isfinite, v))


def reference_rms(v):
    """Root mean square, squares summed in numpy's pairwise order: left to
    right below 8 terms, otherwise 8 interleaved partial sums combined as a
    tree, then the remainder."""
    n = len(v)
    if n < 8:
        total = 0.0
        for x in v:
            total = total + x * x
    else:
        sq = [x * x for x in v]
        r = sq[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            r = [a + b for a, b in zip(r, sq[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in sq[end:]:
            total = total + x
    return math.sqrt(total / n)


def reference_step(f, rtol, atol, h, y, k1):
    """One Dormand-Prince step of size ``h`` from the float list ``y`` with
    derivative ``k1``, as per-component list code.

    Returns ``(rhs_calls, err, (y1, k7, coeffs))`` like the generated step:
    ``coeffs`` holds the quartic dense-output coefficients per component. A
    stage state or ``y1`` that is not finite gives ``(rhs_calls, None, None)``
    after the calls made so far.
    """
    ys = [a + h * (_A21 * b) for a, b in zip(y, k1)]
    if not _finite(ys):
        return 0, None, None
    k2 = f(ys)
    ys = [a + h * (_A31 * b + _A32 * c) for a, b, c in zip(y, k1, k2)]
    if not _finite(ys):
        return 1, None, None
    k3 = f(ys)
    ys = [
        a + h * (_A41 * b + _A42 * c + _A43 * d)
        for a, b, c, d in zip(y, k1, k2, k3)
    ]
    if not _finite(ys):
        return 2, None, None
    k4 = f(ys)
    ys = [
        a + h * (_A51 * b + _A52 * c + _A53 * d + _A54 * e)
        for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    ]
    if not _finite(ys):
        return 3, None, None
    k5 = f(ys)
    ys = [
        a + h * (_A61 * b + _A62 * c + _A63 * d + _A64 * e + _A65 * g)
        for a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5)
    ]
    if not _finite(ys):
        return 4, None, None
    k6 = f(ys)
    y1 = [
        a + h * (_B1 * b + _B3 * d + _B4 * e + _B5 * g + _B6 * x)
        for a, b, d, e, g, x in zip(y, k1, k3, k4, k5, k6)
    ]
    if not _finite(y1):
        return 5, None, None
    k7 = f(y1)
    err = reference_rms([
        h * (_E1 * b + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * x)
        / (atol + rtol * max(abs(a0), abs(a1)))
        for a0, a1, b, c, d, e, g, x in zip(y, y1, k1, k3, k4, k5, k6, k7)
    ])
    coeffs = []
    for a, b, c1, c3, c4, c5, c6, c7 in zip(y, y1, k1, k3, k4, k5, k6, k7):
        ydiff = b - a
        bspl = h * c1 - ydiff
        coeffs.append((
            a,
            ydiff,
            bspl,
            ydiff - h * c7 - bspl,
            h * (_D1 * c1 + _D3 * c3 + _D4 * c4 + _D5 * c5 + _D6 * c6 + _D7 * c7),
        ))
    return 6, err, (y1, k7, coeffs)


def reference_dense(t0, h, coeffs):
    """The quartic interpolant over the step ``[t0, t0 + h]``, from the
    per-component coefficients of :func:`reference_step`."""

    def dense(t):
        theta = (t - t0) / h
        om = 1 - theta
        return [
            c0 + theta * (c1 + om * (c2 + theta * (c3 + om * c4)))
            for c0, c1, c2, c3, c4 in coeffs
        ]

    return dense


def reference_locate_zero(fn, lo, hi, glo, dense, t0):
    """Bisect a sign change of ``fn`` on ``(lo, hi]`` over dense output, to
    ~1e-13 of the time elapsed since the run's start ``t0``, or until the
    midpoint rounds onto an end."""
    for _ in range(200):
        if hi - lo <= 1e-13 * max(1.0, hi - t0):
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        gm = fn(dense(mid))
        if gm == 0.0:
            return mid
        if (glo < 0.0) == (gm < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_initial_step(f, y0, k1, rtol, atol, span, max_step):
    """Hairer's starting-step heuristic, with :func:`reference_rms`; None,
    with no probe, where ``h0`` is 0 (``d1`` overflowed)."""
    sc = [atol + rtol * abs(a) for a in y0]
    d0 = reference_rms([a / s for a, s in zip(y0, sc)])
    d1 = reference_rms([a / s for a, s in zip(k1, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    if h0 == 0.0:
        return None
    f1 = f([a + h0 * b for a, b in zip(y0, k1)])
    d2 = reference_rms([(a - b) / s for a, b, s in zip(f1, k1, sc)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span, max_step)


class _Subscripts(dict):
    def __missing__(self, name):
        return f"{name[0]}[{name[1:]}]"


def event_function(spec):
    """``spec``'s event expression as a function of a state list."""
    fn = eval(f"lambda y, c: {spec.expr.format_map(_Subscripts())}", {"fabs": math.fabs})
    return lambda y: fn(y, spec.values)


def reference_integrate(f, t0, y0, icfg, specs=()):
    """The adaptive Dormand-Prince loop as list code: the same arguments and
    the same ``(times, states, raw events, termination, stats)`` as the
    generated loop, which must match it bit for bit."""
    rtol, atol, max_step = icfg.rtol, icfg.atol, icfg.max_step
    sample_dt, max_steps = icfg.sample_dt, icfg.max_steps
    t_end = t0 + icfg.t_max
    t = t0
    y = [float(a) for a in y0]
    k1 = f(y)
    n_rhs = 1
    failure = None
    if not all(map(math.isfinite, k1)):
        failure = "nonfinite_start"
    else:
        h = reference_initial_step(f, y, k1, rtol, atol, t_end - t0, max_step)
        if h is None:
            failure = "nonfinite_start"
        else:
            n_rhs = 2  # k1 and the starting-step probe
            if not 0.0 < h < math.inf:
                failure = "nonfinite_start"
    fns = [event_function(spec) for spec in specs]

    times = [t]
    states = [y]
    raw_events = []
    g_prev = [fn(y) for fn in fns]
    sample_index = 1
    facold = 1e-4
    rejected = False
    n_steps = 0
    n_error = 0
    n_nonfinite = 0
    h_min, h_max = math.inf, 0.0
    termination = Termination.REACHED_TMAX if failure is None else Termination.STEP_FAILURE

    def record(tr, yr):
        if tr - times[-1] > 1e-12 * max(1.0, tr - t0):
            times.append(tr)
            states.append(yr)

    close = 1e-12 * max(1.0, t_end - t0)
    while failure is None and t_end - t > close:
        h = min(h, max_step)
        landing = h > t_end - t
        if landing:
            h = t_end - t
        if h < 1e-14 * max(1.0, t - t0) or t + h == t:
            failure = "underflow"
        elif n_steps + n_error + n_nonfinite >= max_steps:
            failure = "budget"
        elif max(map(abs, y)) > 1e12:
            failure = "blowup"
        if failure is not None:
            termination = Termination.STEP_FAILURE
            break

        calls, err, result = reference_step(f, rtol, atol, h, y, k1)
        n_rhs += calls
        if err is None or not math.isfinite(err):
            n_nonfinite += 1
            rejected = True
            h *= 0.1
            continue

        fac11 = err ** (0.2 - 0.04 * 0.75)
        if err > 1.0:
            n_error += 1
            rejected = True
            h = h / min(1.0 / 0.2, fac11 / 0.9)
            continue

        n_steps += 1
        if not landing:
            h_min = min(h_min, h)
            h_max = max(h_max, h)
        tnew = t + h
        y1, k7, coeffs = result
        dense = reference_dense(t, h, coeffs)

        located = []
        g_new = []
        for spec, fn, g0 in zip(specs, fns, g_prev):
            g1 = fn(y1)
            g_new.append(g1)
            crossed = (g0 < 0.0 < g1) or (g0 > 0.0 > g1) or (g0 != 0.0 and g1 == 0.0)
            if not crossed:
                continue
            direction = 1 if g0 < 0.0 else -1
            if spec.direction and spec.direction != direction:
                continue
            te = tnew if g1 == 0.0 else reference_locate_zero(fn, t, tnew, g0, dense, t0)
            located.append((te, spec, direction))
        located.sort(key=lambda item: item[0])

        cut = tnew
        kept_events = []
        for te, spec, direction in located:
            kept_events.append((te, spec, direction))
            if spec.stop is not None:
                cut, termination = te, spec.stop
                break

        pending = [(te, dense(te), spec, direction) for te, spec, direction in kept_events]
        while True:
            ts = t0 + sample_index * sample_dt
            if ts > cut + 1e-9 * sample_dt:
                break
            ts_clip = min(ts, cut)
            pending.append((ts_clip, y1 if ts_clip >= tnew else dense(ts_clip), None, 0))
            sample_index += 1
        pending.sort(key=lambda item: item[0])
        for tr, yr, spec, direction in pending:
            record(tr, yr)
            if spec is not None:
                raw_events.append((tr, spec, direction, yr))

        if termination is not Termination.REACHED_TMAX:
            t, y = cut, dense(cut)
            break

        fac = fac11 / facold ** 0.04
        fac = max(1.0 / 10.0, min(1.0 / 0.2, fac / 0.9))
        hnew = h / fac
        if rejected:
            hnew = min(hnew, h)
        facold = max(err, 1e-4)
        rejected = False

        t, y, k1, g_prev = tnew, y1, k7, g_new
        h = hnew

    record(t, y)
    stats = {
        "n_steps": n_steps,
        "n_rejected": n_error + n_nonfinite,
        "n_rhs": n_rhs,
        "n_rejected_error": n_error,
        "n_rejected_nonfinite": n_nonfinite,
        "h_min": h_min if h_max else None,
        "h_max": h_max if h_max else None,
    }
    if failure is not None:
        stats["failure"] = failure
    return times, states, raw_events, termination, stats


def _darboux_moments(y, casimir):
    """``(q, p, G20, G11, G02)`` of a Darboux state ``(q, p, s, p_s)``."""
    q, p, s, p_s = y
    return q, p, s * s, -s * p_s, p_s * p_s + casimir / (s * s)


def darboux_integrate(init, model, icfg, mark_positions=()):
    """Integrate an order-2 state in canonical "Darboux" coordinates and
    return the :class:`Trajectory` of its moments.

    ``G20 = s**2``, ``G11 = -s*p_s``, ``G02 = p_s**2 + U/s**2``, with the
    Casimir ``U = G20*G02 - G11**2`` fixed by ``init``, turn the order-2
    system into a particle in two dimensions with Hamiltonian
    ``p**2/2m + V(q) + p_s**2/2m + U/(2m s**2) + V''(q) s**2/2``. Its four
    equations are written here from that Hamiltonian, not from
    ``eom_table``, and the uncertainty relation holds in them by
    construction. They run through the package's adaptive loop with the
    events of :func:`momentous.integrate`, less any uncertainty-constraint
    stop, which has nothing to monitor here.
    """
    assert model.order == 2
    g20, g11, g02 = init.moments
    casimir = g20 * g02 - g11 * g11
    pot, m = model.potential, model.mass

    def f(y):
        q, p, s, p_s = y
        _, v1, v2, v3 = pot.derivatives(q, 3)
        return [p / m, -v1 - 0.5 * v3 * s * s, p_s / m, casimir / (m * s ** 3) - v2 * s]

    s0 = math.sqrt(g20)
    times, states, raw_events, termination, stats, _ = _propagate(
        f, init.t, [init.q, init.p, s0, -g11 / s0], icfg,
        [spec for spec in _event_specs(model, icfg.escape_radius, mark_positions)
         if spec.kind != "constraint"],
    )
    moments = np.column_stack(_darboux_moments(states.T, casimir))
    h_q, v_eff = effective_series(moments, model)
    g20, g11, g02 = moments[:, 2:].T
    events = tuple(
        Event(t=te, kind=spec.kind, direction=direction,
              state=vector_to_state(te, _darboux_moments(ye, casimir), 2), marker=spec.marker)
        for te, spec, direction, ye in raw_events
    )
    return Trajectory(
        model=model, times=times, states=moments, h_q=h_q, v_eff=v_eff,
        uncertainty=g20 * g02 - g11 * g11 - model.hbar ** 2 / 4,
        termination=termination, events=events, stats=stats,
    )


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
