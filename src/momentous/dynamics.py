"""Equations of motion for the semiclassical moment system.

State layout per truncation order::

    0:  (q, p)                                   classical point particle
    2:  (q, p, G20, G11, G02)                    + second central moments
    3:  (q, p, G20, G11, G02, G30, G21, G12, G03)  + third central moments

The equations exist once, as the exact-rational :func:`eom_table`; the
effective Hamiltonian exists once, as ``moment_algebra.hamiltonian_terms``.
A small compiler turns those tables, with the barrier's jet inlined, into
straight-line Python per truncation order and exponent ``n``: :func:`make_rhs`
is the compiled table the propagator integrates (and ``check-algebra``
verifies), and ``H_Q`` and ``V_eff`` (the Hamiltonian without its ``p``
terms) are compiled expressions that take floats and arrays alike.

The order-2 system is exactly the order-3 system with every third moment
set to zero. Both conserve the effective Hamiltonian identically (the
V-derivative terms telescope), reduce to the classical system when all
moments vanish, and at order 2 also preserve the uncertainty product
``G20*G02 - G11**2``.

Sign convention: ``dG20/dt = -(2/m) G11``, i.e. G11 is minus the usual
position-momentum covariance; a spreading free packet has G11 < 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .moment_algebra import Moment, MomentPolynomial, Term, hamiltonian_terms
from .potential import BarrierPotential, exec_source, jet_lines

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
            raise ValueError("order must be 0, 2 or 3")


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
    """Return ``f(y) -> list``, the time derivative of a state vector,
    compiled from :func:`eom_table` for the model's truncation order."""
    # Keyed on the eom_table in force, so a substituted table compiles its own
    # kernel and never reaches the one compiled from the real table.
    pot = cfg.potential
    return _rhs_kernel(cfg.order, eom_table, pot.n)(pot.alpha, pot._a_2n, cfg.mass)


def _state_row(state: MomentState, cfg: ModelConfig) -> list:
    if state.order != cfg.order:
        raise ValueError(
            f"state order {state.order} does not match model order {cfg.order}"
        )
    return [state.q, state.p, *state.moments]


def rhs(state: MomentState, cfg: ModelConfig) -> np.ndarray:
    """Time derivative of a state, in state-vector layout."""
    return np.array(make_rhs(cfg)(_state_row(state, cfg)), dtype=float)


def _series(cfg: ModelConfig):
    """``f(y) -> [H_Q, V_eff]`` at the ``q`` of ``y``, from one jet."""
    pot = cfg.potential
    return _series_kernel(cfg.order, cfg.veff_third_moment, pot.n)(pot.alpha, pot._a_2n, cfg.mass)


def effective_hamiltonian(state: MomentState, cfg: ModelConfig) -> float:
    """Moment-expanded energy ``hamiltonian_terms(order)``; conserved exactly
    along the flow.

    ``p^2/2m + V + G02/2m + (1/2)V''G20`` plus ``(1/6)V'''G30`` at order 3;
    the bare classical energy at order 0.
    """
    return _series(cfg)(_state_row(state, cfg))[0]


def effective_potential(q: float, state: MomentState, cfg: ModelConfig) -> float:
    """Potential felt at position ``q`` given the (frozen) moments of ``state``.

    The effective Hamiltonian without its ``p`` terms: ``V(q) + G02/2m +
    (1/2)V''(q)G20``, plus ``(1/6)V'''(q)G30`` at order 3 when the model keeps
    that term. ``q`` may be an ndarray: one call then gives a whole section of
    the time-dependent effective-potential surface.
    """
    row = _state_row(state, cfg)
    row[0] = q
    with np.errstate(over="ignore"):  # as in effective_series
        return _series(cfg)(row)[1]


def effective_series(states: np.ndarray, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """``H_Q`` and ``V_eff`` at the mean position for every row of an
    ``(n, d)`` state array, from one evaluation of the jet.

    Row by row these are exactly :func:`effective_hamiltonian` and
    :func:`effective_potential` at the row's ``q``: all three evaluate one
    compiled expression.

    Where a far ``q`` makes ``q**(2n)`` overflow to inf, ``alpha / inf`` is
    the limit the scalar path gives, so overflow warnings are silenced here;
    invalid-value warnings (an ``inf * 0``) still surface.
    """
    with np.errstate(over="ignore"):
        h_q, v_eff = _series(cfg)(states.T)
    return h_q, v_eff


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
    """Authoritative right-hand sides in symbolic form; :func:`make_rhs`
    compiles them into the integrated closure.

    Every order is the order-3 table closed by
    :meth:`MomentPolynomial.truncated`, which drops the terms whose combined
    moment order exceeds the truncation order: the defining closure of the
    hierarchy, and the one ``check-algebra`` applies to the bracket side.
    """
    if order not in VALID_ORDERS:
        raise ValueError(f"truncation order must be one of {VALID_ORDERS}")
    full = _third_order_table()
    return {var: full[var].truncated(order) for var in state_variables(order)}


# ---------------------------------------------------------------------------
# Table compiler: the exact-rational tables become straight-line Python, so
# the equations integrated are the ones check-algebra verifies.


def _term_source(coeff: Fraction, term: Term) -> str:
    """``|coeff| * term`` as source: the numerator times the factors, then
    ``/ m`` per inverse mass, then ``/ denominator``."""
    if term.hbar_power or term.mass_power > 0:
        raise ValueError("compiled tables carry no hbar and only inverse masses")
    factors = [] if term.v_order is None else [f"v{term.v_order}"]
    factors += ["p"] * term.p_power
    factors += [f"g{a}{b}" for a, b in term.moments]
    numerator = abs(coeff.numerator)
    if numerator != 1:
        factors.insert(0, repr(float(numerator)))
    source = " * ".join(factors) + " / m" * -term.mass_power
    # Divide by the exact integer denominator last: a coefficient such as
    # 1/6 has no float, and x / 2.0 has the bits of 0.5 * x.
    if coeff.denominator != 1:
        source += f" / {float(coeff.denominator)!r}"
    return source


def _expression_source(poly: MomentPolynomial) -> str:
    """The terms summed left to right in ``poly.items()`` order."""
    source = ""
    for term, coeff in poly.items():
        body = _term_source(coeff, term)
        if not source:
            source = f"-{body}" if coeff < 0 else body
        else:
            source += f" - {body}" if coeff < 0 else f" + {body}"
    return source


def _compile(name: str, order: int, n: int, polys: Sequence[MomentPolynomial]):
    """Compile ``polys`` into ``make(alpha, a_2n, m) -> f(y) -> list``.

    ``f`` unpacks a state ``y`` (q, p, then the moments of ``order``; floats
    or arrays alike), runs the jet lines of exponent ``n`` up to the highest
    derivative any term uses, and returns one value per polynomial.
    """
    names = ", ".join(("q", "p", *moment_labels(order)))
    k = max(t.v_order for poly in polys for t, _ in poly.items() if t.v_order is not None)
    jet = "".join(f"        {line}\n" for line in jet_lines(n, k))
    source = (
        "def make(alpha, a_2n, m):\n"
        "    def f(y):\n"
        f"        [{names}] = y\n"
        f"{jet}"
        f"        return [{', '.join(map(_expression_source, polys))}]\n"
        "    return f\n"
    )
    return exec_source(source, f"<order-{order} {name} kernel n={n}>")["make"]


@functools.lru_cache(maxsize=None)
def _rhs_kernel(order: int, table, n: int):
    equations = table(order)
    return _compile("rhs", order, n, [equations[var] for var in state_variables(order)])


@functools.lru_cache(maxsize=None)
def _series_kernel(order: int, veff_third_moment: bool, n: int):
    # V_eff is the effective Hamiltonian without its p terms; without the
    # third-moment term it is the order-2 expression.
    veff_order = 2 if order == 3 and not veff_third_moment else order
    potential = MomentPolynomial(
        {t: c for t, c in hamiltonian_terms(veff_order).items() if not t.p_power}
    )
    name = "V_eff" if veff_order == order else "V_eff without G30"
    return _compile(f"H_Q, {name}", order, n, [hamiltonian_terms(order), potential])
