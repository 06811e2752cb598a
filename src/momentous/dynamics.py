"""Equations of motion for the semiclassical moment system.

State layout per truncation order::

    0:  (q, p)                                   classical point particle
    2:  (q, p, G20, G11, G02)                    + second central moments
    3:  (q, p, G20, G11, G02, G30, G21, G12, G03)  + third central moments

The right-hand sides below are the authoritative tables the propagator
integrates. The order-2 system is exactly the order-3 system with every
third moment set to zero. Both conserve the effective Hamiltonian
identically (the V-derivative terms telescope), reduce to the classical
system when all moments vanish, and at order 2 also preserve the
uncertainty product ``G20*G02 - G11**2``.

Sign convention: ``dG20/dt = -(2/m) G11``, i.e. G11 is minus the usual
position-momentum covariance; a spreading free packet has G11 < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .moment_algebra import Moment, MomentPolynomial
from .potential import BarrierPotential

__all__ = [
    "MOMENTS_BY_ORDER",
    "ModelConfig",
    "MomentState",
    "effective_hamiltonian",
    "effective_potential",
    "effective_series",
    "eom_table",
    "make_rhs",
    "moment_labels",
    "rhs",
    "state_dimension",
    "state_variables",
    "state_to_vector",
    "vector_to_state",
]

MOMENTS_BY_ORDER: dict[int, tuple[Moment, ...]] = {
    0: (),
    2: ((2, 0), (1, 1), (0, 2)),
    3: ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)),
}

_ORDER_BY_COUNT = {len(v): k for k, v in MOMENTS_BY_ORDER.items()}

VALID_ORDERS = (0, 2, 3)


def moment_labels(order: int) -> tuple[str, ...]:
    """Column labels g20, g11, ... for the moments of a truncation order."""
    return tuple(f"g{a}{b}" for a, b in MOMENTS_BY_ORDER[order])


def state_dimension(order: int) -> int:
    return 2 + len(MOMENTS_BY_ORDER[order])


def state_variables(order: int) -> tuple[Union[str, Moment], ...]:
    """Dynamical variables in state-vector order: q, p, then moments."""
    return ("q", "p") + MOMENTS_BY_ORDER[order]


@dataclass(frozen=True)
class ModelConfig:
    """Physical model: potential, mass, hbar and the truncation order.

    ``veff_third_moment`` controls whether the effective potential includes
    the ``(1/6) V''' G30`` term at order 3 (the Hamiltonian always does).
    """

    potential: BarrierPotential
    mass: float = 1.0
    hbar: float = 1.0
    order: int = 2
    veff_third_moment: bool = True

    def __post_init__(self) -> None:
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        if self.order not in VALID_ORDERS:
            raise ValueError(f"truncation order must be one of {VALID_ORDERS}")


@dataclass(frozen=True)
class MomentState:
    """Mean position/momentum plus central moments at one instant.

    ``moments`` holds values in the canonical order of
    ``MOMENTS_BY_ORDER[order]``; the truncation order is inferred from its
    length. Negative dispersions are tolerated (truncation drift) but can be
    queried via :attr:`dispersions_nonnegative`.
    """

    t: float
    q: float
    p: float
    moments: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.moments) not in _ORDER_BY_COUNT:
            raise ValueError(
                f"moments must have length in {sorted(_ORDER_BY_COUNT)}, "
                f"got {len(self.moments)}"
            )
        for name, value in (("t", self.t), ("q", self.q), ("p", self.p)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not all(math.isfinite(g) for g in self.moments):
            raise ValueError("moments must be finite")

    @property
    def order(self) -> int:
        return _ORDER_BY_COUNT[len(self.moments)]

    def moment(self, a: int, b: int) -> float:
        """Value of the (a, b) moment; zero above the truncation order."""
        indices = MOMENTS_BY_ORDER[self.order]
        try:
            return self.moments[indices.index((a, b))]
        except ValueError:
            return 0.0

    def moment_dict(self) -> dict[Moment, float]:
        return dict(zip(MOMENTS_BY_ORDER[self.order], self.moments))

    @property
    def dispersions_nonnegative(self) -> bool:
        return self.order == 0 or (self.moment(2, 0) >= 0 and self.moment(0, 2) >= 0)


def state_to_vector(state: MomentState) -> np.ndarray:
    return np.array((state.q, state.p) + state.moments, dtype=float)


def vector_to_state(t: float, y: Sequence[float], order: int) -> MomentState:
    expected = state_dimension(order)
    if len(y) != expected:
        raise ValueError(f"state vector has length {len(y)}, expected {expected}")
    return MomentState(t=float(t), q=float(y[0]), p=float(y[1]),
                       moments=tuple(float(v) for v in y[2:]))


def make_rhs(cfg: ModelConfig):
    """Return ``f(y) -> list`` evaluating the time derivative of a state
    vector. The closure is allocation-light for use inside the integrator."""
    pot = cfg.potential
    m = cfg.mass
    order = cfg.order

    if order == 0:

        def f0(y):
            v0, v1 = pot.derivatives(y[0], 1)
            return [y[1] / m, -v1]

        return f0

    if order == 2:

        def f2(y):
            q, p, g20, g11, g02 = y
            v0, v1, v2, v3 = pot.derivatives(q, 3)
            return [
                p / m,
                -v1 - 0.5 * v3 * g20,
                -2.0 * g11 / m,
                -g02 / m + v2 * g20,
                2.0 * v2 * g11,
            ]

        return f2

    def f3(y):
        q, p, g20, g11, g02, g30, g21, g12, g03 = y
        v0, v1, v2, v3, v4 = pot.derivatives(q, 4)
        return [
            p / m,
            -v1 - 0.5 * v3 * g20 - v4 * g30 / 6.0,
            -2.0 * g11 / m,
            -g02 / m + v2 * g20 + 0.5 * v3 * g30,
            2.0 * v2 * g11 + v3 * g21,
            -3.0 * g21 / m,
            -2.0 * g12 / m + v2 * g30,
            -g03 / m + 2.0 * v2 * g21,
            3.0 * v2 * g12,
        ]

    return f3


def rhs(state: MomentState, cfg: ModelConfig) -> np.ndarray:
    """Time derivative of a state, in state-vector layout."""
    if state.order != cfg.order:
        raise ValueError(
            f"state order {state.order} does not match model order {cfg.order}"
        )
    return np.array(make_rhs(cfg)(state_to_vector(state)), dtype=float)


def _hamiltonian_terms(cfg: ModelConfig, v, p, g20, g02, g30):
    """``H_Q`` at orders 2 and 3 from the jet ``v`` of V at the mean
    position; floats and arrays alike."""
    value = p ** 2 / (2 * cfg.mass) + v[0] + g02 / (2 * cfg.mass) + 0.5 * v[2] * g20
    if cfg.order >= 3:
        value = value + v[3] * g30 / 6.0
    return value


def _potential_terms(cfg: ModelConfig, order: int, v, g20, g02, g30):
    """``V_eff`` at orders 2 and 3 from the jet ``v`` of V at the evaluation
    point; floats and arrays alike."""
    value = v[0] + 0.5 * v[2] * g20 + g02 / (2 * cfg.mass)
    if order >= 3 and cfg.veff_third_moment:
        value = value + v[3] * g30 / 6.0
    return value


def effective_hamiltonian(state: MomentState, cfg: ModelConfig) -> float:
    """Moment-expanded energy; conserved exactly along the flow.

    ``p^2/2m + V + G02/2m + (1/2)V''G20`` plus ``(1/6)V'''G30`` at order 3;
    the bare classical energy at order 0.
    """
    pot = cfg.potential
    if cfg.order == 0:
        return state.p ** 2 / (2 * cfg.mass) + pot(state.q)
    v = pot.derivatives(state.q, 2 if cfg.order == 2 else 3)
    return _hamiltonian_terms(
        cfg, v, state.p, state.moment(2, 0), state.moment(0, 2), state.moment(3, 0)
    )


def effective_potential(q: float, state: MomentState, cfg: ModelConfig) -> float:
    """Potential felt at position ``q`` given the (frozen) moments of ``state``.

    ``V(q) + (1/2)V''(q)G20 + G02/2m``, plus ``(1/6)V'''(q)G30`` at order 3
    when the model keeps that term. ``q`` may be an ndarray: one call then
    gives a whole section of the time-dependent effective-potential surface.
    """
    pot = cfg.potential
    if state.order == 0:
        return pot(q)
    k = 3 if (state.order >= 3 and cfg.veff_third_moment) else 2
    return _potential_terms(
        cfg, state.order, pot.derivatives(q, k),
        state.moment(2, 0), state.moment(0, 2), state.moment(3, 0),
    )


def effective_series(states: np.ndarray, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """``H_Q`` and ``V_eff`` at the mean position for every row of an
    ``(n, d)`` state array, from one jet evaluation.

    Row by row these are :func:`effective_hamiltonian` and
    :func:`effective_potential` at the row's ``q``, up to the last bit:
    numpy squares ``p`` exactly where Python's ``p ** 2`` may round, and at
    order 0 numpy's ``q ** (2n)`` may differ from Python's by an ulp.
    """
    q, p = states[:, 0], states[:, 1]
    if cfg.order == 0:
        v = cfg.potential(q)
        return p ** 2 / (2 * cfg.mass) + v, v
    v = cfg.potential.derivatives(q, 2 if cfg.order == 2 else 3)
    g20, g02 = states[:, 2], states[:, 4]
    g30 = states[:, 5] if cfg.order >= 3 else None
    return (
        _hamiltonian_terms(cfg, v, p, g20, g02, g30),
        _potential_terms(cfg, cfg.order, v, g20, g02, g30),
    )


def _third_order_table() -> dict[Union[str, Moment], MomentPolynomial]:
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    table: dict[Union[str, Moment], MomentPolynomial] = {}
    table["q"] = MomentPolynomial().add(1, p_power=1, mass_power=-1)
    table["p"] = (
        MomentPolynomial()
        .add(-1, v_order=1)
        .add(-half, v_order=3, moments=((2, 0),))
        .add(-sixth, v_order=4, moments=((3, 0),))
    )
    table[(2, 0)] = MomentPolynomial().add(-2, mass_power=-1, moments=((1, 1),))
    table[(1, 1)] = (
        MomentPolynomial()
        .add(-1, mass_power=-1, moments=((0, 2),))
        .add(1, v_order=2, moments=((2, 0),))
        .add(half, v_order=3, moments=((3, 0),))
    )
    table[(0, 2)] = (
        MomentPolynomial()
        .add(2, v_order=2, moments=((1, 1),))
        .add(1, v_order=3, moments=((2, 1),))
    )
    table[(3, 0)] = MomentPolynomial().add(-3, mass_power=-1, moments=((2, 1),))
    table[(2, 1)] = (
        MomentPolynomial()
        .add(-2, mass_power=-1, moments=((1, 2),))
        .add(1, v_order=2, moments=((3, 0),))
    )
    table[(1, 2)] = (
        MomentPolynomial()
        .add(-1, mass_power=-1, moments=((0, 3),))
        .add(2, v_order=2, moments=((2, 1),))
    )
    table[(0, 3)] = MomentPolynomial().add(3, v_order=2, moments=((1, 2),))
    return table


def eom_table(order: int) -> dict[Union[str, Moment], MomentPolynomial]:
    """Authoritative right-hand sides in symbolic form.

    Lower orders are obtained from the order-3 table by zeroing the moments
    above the truncation, which is the defining closure of the hierarchy.
    """
    if order not in VALID_ORDERS:
        raise ValueError(f"truncation order must be one of {VALID_ORDERS}")
    full = _third_order_table()
    if order == 3:
        return full
    keep = set(MOMENTS_BY_ORDER[order])
    table: dict[Union[str, Moment], MomentPolynomial] = {}
    for var in state_variables(order):
        reduced = MomentPolynomial()
        for term, coeff in full[var].items():
            if all(idx in keep for idx in term.moments):
                reduced.add(coeff, term)
        table[var] = reduced
    return table
