"""Property tests of the compiled moment system, drawn by hypothesis under the
derandomized profile that ``conftest`` loads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from momentous import BarrierPotential, GaussianPacket, IntegratorConfig, ModelConfig
from momentous.dynamics import effective_series, make_rhs, state_variables
from momentous.integrator import integrate
from momentous.packet import initial_moments


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


orders = st.sampled_from([0, 2, 3])
exponents = st.integers(1, 9)


def alphas(lo, hi):
    """Barrier strengths of either sign with magnitude in [lo, hi]."""
    return st.builds(lambda sign, size: sign * size, st.sampled_from([1.0, -1.0]), finite(lo, hi))


def mirror(values, order):
    """The parity image q -> -q, p -> -p: a moment G^{a,b} picks up the sign
    (-1)**(a + b), so the second moments stay and the third ones flip."""
    signs = [-1.0 if var in ("q", "p") else (-1.0) ** sum(var) for var in state_variables(order)]
    return [-v if s < 0 else v for v, s in zip(values, signs)]


@settings(max_examples=300)
@given(order=orders, n=exponents, alpha=alphas(0.1, 10.0), a=finite(0.5, 2.0),
       mass=finite(0.5, 2.0), values=st.lists(finite(-3.0, 3.0), min_size=9, max_size=9))
def test_mirror_symmetry_is_exact(order, n, alpha, a, mass, values):
    # The barrier is even and IEEE arithmetic is sign-symmetric, so the
    # mirrored state's flow is the mirrored flow, with no rounding slack,
    # and H_Q and V_eff do not change.
    cfg = ModelConfig(potential=BarrierPotential(alpha=alpha, a=a, n=n), mass=mass, order=order)
    y = values[:len(state_variables(order))]
    image = mirror(y, order)
    f = make_rhs(cfg)
    assert f(image) == mirror(f(y), order)
    h_q, v_eff = effective_series(np.array([y, image]), cfg)
    assert h_q[1] == h_q[0] and v_eff[1] == v_eff[0]


def gradient_bound(traj, pot, mass):
    """The largest 1-norm of grad H_Q over the samples of a trajectory."""
    y = traj.states.T
    v = pot.derivatives(y[0], 4)
    norm = np.abs(v[1]) + np.abs(y[1]) / mass
    if traj.order >= 2:
        norm += np.abs(v[3] * y[2]) / 2 + np.abs(v[2]) / 2 + 1 / (2 * mass)
    if traj.order == 3:
        norm += np.abs(v[4] * y[5]) / 6 + np.abs(v[3]) / 6
    return float(norm.max())


@settings(max_examples=40)
@given(order=orders, n=exponents, alpha=alphas(0.5, 1.5),
       q0=finite(-3.5, -2.0), p0=finite(0.3, 1.5), sigma0=finite(0.3, 0.8),
       mass=finite(0.5, 2.0), exponent=finite(-10.0, -6.0))
def test_effective_hamiltonian_drift_follows_the_tolerance(
        order, n, alpha, q0, p0, sigma0, mass, exponent):
    # The step controller keeps each accepted step's RMS error estimate
    # under one unit of atol + rtol*|y_i|, so a step moves each of the d
    # components by at most about sqrt(d) such units, and H_Q by that times
    # the 1-norm of its gradient. The flow itself conserves H_Q, so over N
    # steps the drift stays below N times that first-order step bound. A
    # packet in a steep well can blow up under the order-2 closure with no
    # stop before t_max; the step budget keeps such a draw at 10,000
    # attempts (the bound holds for a partial trajectory too).
    pot = BarrierPotential(alpha=alpha, a=1.0, n=n)
    cfg = ModelConfig(potential=pot, mass=mass, order=order)
    tol = 10.0 ** exponent
    init = initial_moments(GaussianPacket(q0, p0, sigma0, "zero"), cfg)
    icfg = IntegratorConfig(rtol=tol, atol=tol, t_max=3.0, max_steps=10_000)
    traj = integrate(init, cfg, icfg)
    d = traj.states.shape[1]
    step_bound = np.sqrt(d) * tol * (1.0 + np.abs(traj.states).max()) * gradient_bound(
        traj, pot, mass)
    assert traj.energy_drift * abs(traj.h_q[0]) <= traj.stats["n_steps"] * step_bound
