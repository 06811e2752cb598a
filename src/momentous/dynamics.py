"""Equations of motion for the semiclassical moment system.

State layout per truncation order::

    0:  (q, p)                                   classical point particle
    2:  (q, p, G20, G11, G02)                    + second central moments
    3:  (q, p, G20, G11, G02, G30, G21, G12, G03)  + third central moments

The physics exists once, as the effective Hamiltonian
``moment_algebra.hamiltonian_terms``. :func:`eom_table` derives the exact
equations from it through the complete moment bracket, and a small compiler
turns those tables, with the barrier's jet inlined, into straight-line
Python source per truncation order and exponent ``n``: :func:`rhs_source` is
the table as a template over the state components, which the C kernel of
the propagator translates and its Python loop runs compiled,
:func:`make_rhs` is the same source compiled as a function (which
``check-algebra`` verifies), and ``H_Q`` and ``V_eff`` (the Hamiltonian
without its ``p`` terms) are compiled expressions that take floats and
arrays alike, whose lines :func:`series_source` gives as a template too.
That template holds every per-sample series of a run, at orders 2 and 3
the uncertainty residual ``G20*G02 - G11**2 - hbar**2/4`` too, and both
loops of the integrator write its values into each sample row. The
integrator's event values are a third such template. One compiler,
:func:`_compile`, turns every template into a Python function, and one
translator, ``native.c_lines``, into the body of a C function.

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
import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import moment_algebra
from .moment_algebra import VALID_ORDERS, Moment, MomentPolynomial, Term
from .potential import BarrierPotential, exec_source, jet_lines, jet_name

__all__ = [
    "MOMENTS_BY_ORDER",
    "ModelConfig",
    "MomentState",
    "RhsSource",
    "UNCERTAINTY_PRODUCT",
    "effective_hamiltonian",
    "effective_potential",
    "effective_series",
    "eom_table",
    "make_rhs",
    "moment_labels",
    "rhs",
    "rhs_source",
    "series_source",
    "state_dimension",
    "state_variables",
    "vector_to_state",
]

MOMENTS_BY_ORDER: dict[int, tuple[Moment, ...]] = {
    0: (),
    2: ((2, 0), (1, 1), (0, 2)),
    3: ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)),
}

_ORDER_BY_COUNT = {len(v): k for k, v in MOMENTS_BY_ORDER.items()}

# The uncertainty product ``G20*G02 - G11**2`` over the components of a state
# of order 2 or 3, as template source: the integrator's constraint event and
# the residual of :func:`series_source`.
UNCERTAINTY_PRODUCT = "{y2} * {y4} - {y3} * {y3}"


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
    """Physical model: potential, mass, hbar and the truncation order."""

    potential: BarrierPotential
    mass: float = 1.0
    hbar: float = 1.0
    order: int = 2

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
        if not all(map(math.isfinite, self.moments)):
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


def vector_to_state(t: float, y: Sequence[float], order: int) -> MomentState:
    expected = state_dimension(order)
    if len(y) != expected:
        raise ValueError(f"state vector has length {len(y)}, expected {expected}")
    return MomentState(t=float(t), q=float(y[0]), p=float(y[1]),
                       moments=tuple(map(float, y[2:])))


@dataclass(frozen=True)
class RhsSource:
    """The time derivative of a state vector as source lines, for a caller
    to paste into its own code.

    In ``template``, ``{y0}, {y1}, ...`` stand for the state's components,
    each to be replaced by a plain name, and ``{k0}, {k1}, ...`` for the
    names the lines assign the derivative's components to. The lines read
    the constants ``bound``, name to value, and assign temporaries whose
    names begin with ``_`` or ``v``. ``label`` names the source in generated
    file names. Equality and hashing take the text only, not ``bound``.

    The lines never divide by zero, at any state: the C kernel translates
    ``/`` as C's (see :func:`native.c_lines`), which gives an inf or a nan
    where Python raises. A model template divides only by nonzero
    literals, the mass, which ``ModelConfig`` requires to be positive, and
    ``q**(2n) + a**(2n)``, an even power plus ``a**(2n) > 0``, so at least
    ``a**(2n)`` or nan.
    """

    template: str
    label: str
    bound: dict = field(compare=False)


def rhs_source(cfg: ModelConfig) -> RhsSource:
    """The model's RHS, compiled from :func:`eom_table` for its truncation
    order, as source: the lines :func:`make_rhs` runs."""
    # Keyed on the eom_table in force, so a substituted table yields its own
    # source and never the one derived from the real table.
    pot = cfg.potential
    return RhsSource(_rhs_template(cfg.order, eom_table, pot.n),
                     f"order-{cfg.order} rhs kernel n={pot.n}",
                     {"alpha": pot.alpha, "a_2n": pot._a_2n, "m": cfg.mass})


def make_rhs(cfg: ModelConfig):
    """Return ``f(y) -> list``, the time derivative of a state vector: the
    lines of :func:`rhs_source` compiled as a function."""
    source = rhs_source(cfg)
    return _compile(source, state_dimension(cfg.order))(**source.bound)


def _state_row(state: MomentState, cfg: ModelConfig) -> list:
    if state.order != cfg.order:
        raise ValueError(
            f"state order {state.order} does not match model order {cfg.order}"
        )
    return [state.q, state.p, *state.moments]


def rhs(state: MomentState, cfg: ModelConfig) -> np.ndarray:
    """Time derivative of a state, in state-vector layout."""
    return np.array(make_rhs(cfg)(_state_row(state, cfg)), dtype=float)


def series_source(cfg: ModelConfig) -> RhsSource:
    """The per-sample series of a state as source: ``H_Q`` (``{k0}``) and
    ``V_eff`` (``{k1}``) at its ``q``, from one jet, and at orders >= 2 the
    uncertainty residual (``{k2}``), ``UNCERTAINTY_PRODUCT`` less the
    constant ``quarter`` = ``hbar**2/4``. These are the lines
    :func:`effective_series` runs and both loops of ``integrate`` evaluate
    at every sample row."""
    pot = cfg.potential
    label = f"order-{cfg.order} H_Q, V_eff kernel n={pot.n}"
    bound = {"alpha": pot.alpha, "a_2n": pot._a_2n, "m": cfg.mass}
    if cfg.order >= 2:
        label += ", residual"
        bound["quarter"] = cfg.hbar * cfg.hbar / 4
    return RhsSource(_series_template(cfg.order, pot.n), label, bound)


def _series(cfg: ModelConfig):
    """``f(y) -> [H_Q, V_eff]``, plus the residual at orders >= 2, at the
    ``q`` of ``y``, from one jet."""
    source = series_source(cfg)
    return _compile(source, state_dimension(cfg.order))(**source.bound)


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
    (1/2)V''(q)G20``, plus ``(1/6)V'''(q)G30`` at order 3. ``q`` may be an
    ndarray: one call then gives a whole section of the time-dependent
    effective-potential surface.
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
        h_q, v_eff = _series(cfg)(states.T)[:2]
    return h_q, v_eff


def eom_table(order: int) -> dict[Union[str, Moment], MomentPolynomial]:
    """Right-hand sides in symbolic form, which :func:`rhs_source` compiles.

    Each is the bracket of its variable with ``hamiltonian_terms(order)``
    through the complete moment bracket (contractions up to and including
    ``n = min(a+c, b+d, a+b, c+d)``), closed by
    :meth:`MomentPolynomial.truncated` at the truncation order.
    """
    hamiltonian = moment_algebra.hamiltonian_terms(order)
    return {var: moment_algebra._assemble(var, hamiltonian, order)
            for var in state_variables(order)}


# ---------------------------------------------------------------------------
# Table compiler: the exact-rational tables become straight-line Python, so
# the equations integrated are the ones check-algebra verifies.


def _term_source(coeff: Fraction, term: Term, fields: dict) -> str:
    """``|coeff| * term`` as source, the variables read from ``fields``: the
    numerator times the factors, then ``/ m`` per inverse mass, then ``/
    denominator``."""
    if term.hbar_power or term.mass_power > 0:
        raise ValueError("compiled tables carry no hbar and only inverse masses")
    factors = [] if term.v_order is None else [jet_name(term.v_order)]
    factors += [fields["p"]] * term.p_power
    factors += [fields[moment] for moment in term.moments]
    numerator = abs(coeff.numerator)
    if numerator != 1:
        factors.insert(0, repr(float(numerator)))
    source = " * ".join(factors) + " / m" * -term.mass_power
    # Divide by the exact integer denominator last: a coefficient such as
    # 1/6 has no float, and x / 2.0 has the bits of 0.5 * x.
    if coeff.denominator != 1:
        source += f" / {float(coeff.denominator)!r}"
    return source


def _expression_source(poly: MomentPolynomial, fields: dict) -> str:
    """The terms summed left to right in ``poly.items()`` order."""
    source = ""
    for term, coeff in poly.items():
        body = _term_source(coeff, term, fields)
        if not source:
            source = f"-{body}" if coeff < 0 else body
        else:
            source += f" - {body}" if coeff < 0 else f" + {body}"
    return source


def _template(order: int, n: int, polys: Sequence[MomentPolynomial]) -> str:
    """``polys`` as the lines of an :class:`RhsSource` template over a state
    of ``order``: the jet lines of exponent ``n`` for the derivatives the
    terms read, then ``{k<i>} = `` polynomial ``i``."""
    fields = {var: f"{{y{i}}}" for i, var in enumerate(state_variables(order))}
    orders = {t.v_order for poly in polys for t, _ in poly.items() if t.v_order is not None}
    lines = jet_lines(n, orders, fields["q"])
    lines += [f"{{k{i}}} = {_expression_source(poly, fields)}" for i, poly in enumerate(polys)]
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def _fields(text: str, kind: str) -> tuple[int, ...]:
    """The indices of the ``{<kind><i>}`` fields of a template or an event
    expression, ascending: kind "y" the state components, "k" the values a
    template assigns and "c" the constants of an event."""
    names = {name for _, name, _, _ in string.Formatter().parse(text) if name}
    return tuple(sorted(int(name[1:]) for name in names if name[0] == kind))


@functools.lru_cache(maxsize=None)
def _compile(source: RhsSource, d: int):
    """Compile ``source`` over a state of ``d`` components into
    ``make(**constants) -> f(y) -> list``, in a file named by its label.

    ``f`` unpacks a state ``y`` (floats or arrays alike) into ``y0, y1,
    ...``, runs the template's lines and returns the values of its ``{k0},
    {k1}, ...``; ``make`` takes the constants by the names of
    ``source.bound``. The cache is keyed on the text, so sources that differ
    only in their constants share one compile.
    """
    names = [f"y{i}" for i in range(d)]
    assigned = _fields(source.template, "k")
    outputs = [f"r{i}" for i in assigned]
    body = source.template.format(**{name: name for name in names},
                                  **{f"k{i}": f"r{i}" for i in assigned})
    text = (
        f"def make({', '.join(source.bound)}):\n"
        "    def f(y):\n"
        f"        [{', '.join(names)}] = y\n"
        + "".join(f"        {line}\n" for line in body.splitlines())
        + f"        return [{', '.join(outputs)}]\n"
        "    return f\n"
    )
    return exec_source(text, source.label)["make"]


@functools.lru_cache(maxsize=None)
def _rhs_template(order: int, table, n: int) -> str:
    equations = table(order)
    return _template(order, n, [equations[var] for var in state_variables(order)])


@functools.lru_cache(maxsize=None)
def _series_template(order: int, n: int) -> str:
    # V_eff is the effective Hamiltonian without its p terms.
    hamiltonian = moment_algebra.hamiltonian_terms(order)
    potential = MomentPolynomial({t: c for t, c in hamiltonian.items() if not t.p_power})
    template = _template(order, n, [hamiltonian, potential])
    if order >= 2:
        template += f"\n{{k2}} = {UNCERTAINTY_PRODUCT} - quarter"
    return template
