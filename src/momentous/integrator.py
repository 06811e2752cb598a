"""Adaptive trajectory integration with dense output and event capture.

The stepper is the Dormand-Prince 5(4) embedded pair (the 5th-order solution
is propagated, the 4th-order companion provides the error estimate) with the
beta-damped PI step-size controller and the quartic dense-output interpolant
of Hairer, Norsett & Wanner, "Solving Ordinary Differential Equations I".

An explicit pair is used deliberately: the moment system is not separable,
and exact conservation of the effective Hamiltonian then serves as an
independent accuracy diagnostic rather than a built-in property.

One trajectory is one run of the adaptive loop for a state dimension, set
of event expressions and RHS source (each event is a source expression over
the state components, and the model's RHS is the source
``dynamics.rhs_source`` derives from ``eom_table``, whose constants are
arguments, so every sweep point shares one compiled kernel). It runs the
starting-step heuristic, the step-size guards, the six stages (checking
each stage state for finiteness), the 5th-order update, the error norm, the
PI controller, the event tests, the choice of sample rows and the bisection
of each located event. Every sum keeps the per-component operation order,
and the error norm sums its squares in numpy's pairwise order, so step
sizes, samples and events are those of an array implementation, bit for
bit.

The loop exists twice, with the same operations in the same order. Where a
C compiler is found (``$CC``, else ``cc``), an :class:`RhsSource` run goes
through a C kernel (:func:`_c_units`), compiled once per machine and kept in
the cache that :mod:`native` manages (``$XDG_CACHE_HOME/momentous``, else
``~/.cache/momentous``, pruned to the ``native.CACHE_SIZE`` most recently
loaded libraries); a new ``(d, events, rhs, series)`` costs one compile of
about half a second. Otherwise, and for an opaque RHS callable, the Python
loop (:func:`_python_loop`) runs: list code over the components, calling
the RHS callable, or the RHS source compiled as a function, at each of its
eight evaluations. Which loop runs depends on that key and the machine
only, never on a run's values. Both read the start time, the state, the
settings and the model's constants as floats, and the outputs are the same
bytes either way.

Recorded along the way:

* samples on a fixed ``sample_dt`` grid plus event points, in time order
  (an event before a grid sample at its time), less each row within
  ``1e-12 * max(t - t0, 1)`` of the last one kept, each on the quartic
  interpolant in the loop's operation order. Either loop writes each row
  it keeps as it steps, ``(t, y0 ... y{d-1}, series ...)``, into one
  table, which the :class:`Trajectory` holds as it is;
* events: momentum sign changes, crossings of caller-supplied position
  markers (classical return points), outbound escape, and, at orders 2 and
  3, ``G20*G02 - G11**2`` turning negative, which no state can have (a stop);
* per-sample series: effective Hamiltonian, effective potential at the mean
  position, and at orders 2 and 3 the uncertainty-product residual, whose
  minimum over the samples and its time go into the step statistics.
  Either loop evaluates them per row it keeps, from the template of
  ``dynamics.series_source``, into the row's last columns;
* on a step failure, its cause: a non-finite start, step-size underflow,
  the ``max_steps`` budget, or a state blowup.

Runs are bit-reproducible: identical configuration yields identical output.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import math
import string
import weakref
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    UNCERTAINTY_PRODUCT,
    ModelConfig,
    MomentState,
    RhsSource,
    _compile,
    _fields,
    _series,
    _state_row,
    rhs_source,
    series_source,
    state_dimension,
    vector_to_state,
)

# Unused here: perfbench's tracer wraps these three names in this module, and
# its smoke tests require every traced name to exist.
from .dynamics import effective_hamiltonian, effective_potential, make_rhs
from . import native

__all__ = [
    "Event",
    "IntegratorConfig",
    "Termination",
    "Trajectory",
    "integrate",
    "uncertainty_residual",
]


# The default escape radius, in units of the potential half-width ``a``.
ESCAPE_RADIUS_SCALE = 10.0


def resolve_escape_radius(radius: Optional[float], a: float) -> float:
    """``radius``, or ``ESCAPE_RADIUS_SCALE * a`` (``a`` the half-width) for None."""
    return ESCAPE_RADIUS_SCALE * a if radius is None else radius


class Termination(enum.Enum):
    REACHED_TMAX = "reached_tmax"
    ESCAPED = "escaped"
    CONSTRAINT_VIOLATED = "constraint_violated"
    STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, horizon and output control for one integration."""

    rtol: float = 1e-10
    atol: float = 1e-10
    t_max: float = 20.0
    max_step: float = 0.1
    escape_radius: Optional[float] = None  # None: see resolve_escape_radius
    sample_dt: float = 0.01
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        # Numbers are stored as floats and an integral max_steps as the int
        # it equals, so that an int or numpy setting runs as its float does.
        for name in ("rtol", "atol", "t_max", "max_step", "sample_dt"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # The loop counts grid indices in floats, and i + 1.0 == i from 2**53.
        if not self.t_max / self.sample_dt < 2**53:
            raise ValueError("sample_dt must give fewer than 2**53 samples over t_max")
        if self.escape_radius is not None:
            object.__setattr__(self, "escape_radius", float(self.escape_radius))
            if not self.escape_radius > 0:
                raise ValueError("escape_radius must be positive")
        if not (self.max_steps >= 1 and self.max_steps % 1 == 0):  # also rejects inf and nan
            raise ValueError("max_steps must be a positive integer")
        object.__setattr__(self, "max_steps", int(self.max_steps))


@dataclass(frozen=True)
class Event:
    """Located zero crossing of an event function."""

    t: float
    kind: str  # "p_zero" | "q_cross" | "escape" | "constraint"
    direction: int  # +1 the event function rose through zero, -1 it fell
    state: MomentState
    marker: Optional[float] = None


@dataclass(frozen=True)
class _EventSpec:
    """An event function as Python source: ``{y0}, {y1}, ...`` stand for the
    state components and ``{c0}, {c1}, ...`` for the entries of ``values``."""

    expr: str
    kind: str
    values: tuple = ()
    stop: Optional[Termination] = None  # why the run ends at this event, if it does
    direction: int = 0  # 0 = both directions
    marker: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered samples, derived series, events and the stop reason.

    ``table`` holds one row per sample, ``(t, state, H_Q, V_eff)`` plus the
    uncertainty residual at orders >= 2, as the loop of :func:`integrate`
    writes it. ``times``, ``states``, ``h_q``, ``v_eff`` and
    ``uncertainty`` are views of its columns; ``uncertainty`` is all nan at
    order 0."""

    model: ModelConfig
    table: np.ndarray
    termination: Termination
    events: tuple[Event, ...] = ()
    stats: dict = field(default_factory=dict)
    times: np.ndarray = field(init=False, repr=False)
    states: np.ndarray = field(init=False, repr=False)
    h_q: np.ndarray = field(init=False, repr=False)
    v_eff: np.ndarray = field(init=False, repr=False)
    uncertainty: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        order, table = self.model.order, self.table
        d = state_dimension(order)
        width = d + 3 + (order >= 2)
        if table.ndim != 2 or table.shape[1] != width:
            raise ValueError(f"an order-{order} sample table has {width} columns, "
                             f"not shape {table.shape}")
        times = table[:, 0]
        if not (times[1:] > times[:-1]).all():
            raise ValueError("sample times must be strictly increasing")
        columns = {
            "times": times,
            "states": table[:, 1:1 + d],
            "h_q": table[:, 1 + d],
            "v_eff": table[:, 2 + d],
            "uncertainty": table[:, 3 + d] if order >= 2 else np.full(len(times), np.nan),
        }
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    @property
    def order(self) -> int:
        return self.model.order

    @property
    def q(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def p(self) -> np.ndarray:
        return self.states[:, 1]

    def state(self, i: int) -> MomentState:
        return vector_to_state(self.times[i], self.states[i], self.order)

    @property
    def final_state(self) -> MomentState:
        return self.state(len(self.times) - 1)

    @property
    def energy_drift(self) -> float:
        """Max relative deviation of the effective Hamiltonian from its
        initial value."""
        h0 = self.h_q[0]
        return float(np.max(np.abs(self.h_q - h0)) / abs(h0))


def uncertainty_residual(state: MomentState, model: ModelConfig) -> float:
    """``G20*G02 - G11**2 - hbar**2/4`` under the model's hbar, the series
    that ``integrate`` writes per sample; negative values violate the
    uncertainty relation. A state whose order is not the model's is a
    ValueError."""
    if model.order < 2:
        raise ValueError("uncertainty residual requires truncation order >= 2")
    return _series(model)(_state_row(state, model))[2]


# Dormand-Prince 5(4) tableau as ``(stage, weight)`` pairs over the nonzero
# entries. The stages need no time nodes: the moment system is autonomous. The
# 5th-order weights _B double as row 7 of _A (FSAL); stage 2 has zero weight in
# _B, _E and _D and is left out of them.
_A = (
    ((1, 1 / 5),),
    ((1, 3 / 40), (2, 9 / 40)),
    ((1, 44 / 45), (2, -56 / 15), (3, 32 / 9)),
    ((1, 19372 / 6561), (2, -25360 / 2187), (3, 64448 / 6561), (4, -212 / 729)),
    ((1, 9017 / 3168), (2, -355 / 33), (3, 46732 / 5247), (4, 49 / 176),
     (5, -5103 / 18656)),
)
_B = ((1, 35 / 384), (3, 500 / 1113), (4, 125 / 192), (5, -2187 / 6784), (6, 11 / 84))
# Difference between the 5th- and 4th-order weights.
_E = (
    (1, 71 / 57600), (3, -71 / 16695), (4, 71 / 1920), (5, -17253 / 339200),
    (6, 22 / 525), (7, -1 / 40),
)
# Dense-output weights for the quartic interpolant.
_D = (
    (1, -12715105075 / 11282082432),
    (3, 87487479700 / 32700410799),
    (4, -10690763975 / 1880347072),
    (5, 701980252875 / 199316789632),
    (6, -1453857185 / 822651844),
    (7, 69997945 / 29380423),
)

# The weights by name, for the list code of the Python loop (:func:`_step`).
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), (
    _A61, _A62, _A63, _A64, _A65) = ([w for _, w in row] for row in _A)
_B1, _B3, _B4, _B5, _B6 = (w for _, w in _B)
_E1, _E3, _E4, _E5, _E6, _E7 = (w for _, w in _E)
_D1, _D3, _D4, _D5, _D6, _D7 = (w for _, w in _D)

_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - _BETA * 0.75
_FAC_MIN = 0.2  # strongest allowed shrink per step
_FAC_MAX = 10.0  # strongest allowed growth per step


def _rms_expression(names: Sequence[str]) -> str:
    """The root mean square of ``names`` as one expression.

    The squares are summed in the order of numpy's pairwise sum (``np.mean``):
    left to right below 8 terms, otherwise 8 interleaved partial sums (for up
    to 128 terms) combined as a tree, then the remainder. Step sizes therefore
    repeat those of an array implementation bit for bit.
    """
    sq = [f"{x} * {x}" for x in names]
    if len(sq) < 8:
        total = " + ".join(["0.0", *sq])
    else:
        end = len(sq) - len(sq) % 8
        r = [f"({' + '.join(sq[j:end:8])})" for j in range(8)]
        tree = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
        total = " + ".join([tree, *sq[end:]])
    return f"sqrt(({total}) / {float(len(sq))!r})"


def _rms(v: Sequence[float]) -> float:
    """The root mean square of ``v``, summed as :func:`_rms_expression` sums it."""
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


def _initial_step(f, y, k1, rtol, atol, span, max_step):
    """Hairer's starting step from ``y``, where ``k1 = f(y)`` is finite, or
    None where ``h0`` is 0 (``d1`` overflowed), before the probe ``f(y + h0
    * k1)``, whose norm divides by ``h0``."""
    sc = [atol + rtol * abs(a) for a in y]
    d0 = _rms([a / s for a, s in zip(y, sc)])
    d1 = _rms([a / s for a, s in zip(k1, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    if h0 == 0.0:
        return None
    f1 = f([a + h0 * b for a, b in zip(y, k1)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, k1, sc)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span, max_step)


def _step(f, rtol, atol, h, y, k1):
    """One step attempt of size ``h`` from ``y``, where ``k1 = f(y)``:
    ``(calls, err, y1, k)``, ``k`` the seven stages, ``k7 = f(y1)``, and
    ``calls`` the RHS evaluations made. A stage state or ``y1`` that is not
    finite gives ``(calls, None, None, None)`` after the calls made so far."""
    ys = [a + h * (_A21 * b) for a, b in zip(y, k1)]
    if not all(map(math.isfinite, ys)):
        return 0, None, None, None
    k2 = f(ys)
    ys = [a + h * (_A31 * b + _A32 * c) for a, b, c in zip(y, k1, k2)]
    if not all(map(math.isfinite, ys)):
        return 1, None, None, None
    k3 = f(ys)
    ys = [a + h * (_A41 * b + _A42 * c + _A43 * d) for a, b, c, d in zip(y, k1, k2, k3)]
    if not all(map(math.isfinite, ys)):
        return 2, None, None, None
    k4 = f(ys)
    ys = [a + h * (_A51 * b + _A52 * c + _A53 * d + _A54 * e)
          for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    if not all(map(math.isfinite, ys)):
        return 3, None, None, None
    k5 = f(ys)
    ys = [a + h * (_A61 * b + _A62 * c + _A63 * d + _A64 * e + _A65 * g)
          for a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5)]
    if not all(map(math.isfinite, ys)):
        return 4, None, None, None
    k6 = f(ys)
    y1 = [a + h * (_B1 * b + _B3 * d + _B4 * e + _B5 * g + _B6 * x)
          for a, b, d, e, g, x in zip(y, k1, k3, k4, k5, k6)]
    if not all(map(math.isfinite, y1)):
        return 5, None, None, None
    k7 = f(y1)
    err = _rms([
        h * (_E1 * b + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * x)
        / (atol + rtol * max(abs(a0), abs(a1)))
        for a0, a1, b, c, d, e, g, x in zip(y, y1, k1, k3, k4, k5, k6, k7)
    ])
    return 6, err, y1, (k1, k2, k3, k4, k5, k6, k7)


def _dense(t, h, y, y1, k):
    """The quartic interpolant of the step ``(t, h)`` from ``y`` to ``y1``
    with the stages ``k``, as a function of time."""
    k1, _, k3, k4, k5, k6, k7 = k
    coeffs = []
    for a, b, c1, c3, c4, c5, c6, c7 in zip(y, y1, k1, k3, k4, k5, k6, k7):
        d1 = b - a
        d2 = h * c1 - d1
        coeffs.append((a, d1, d2, d1 - h * c7 - d2,
                       h * (_D1 * c1 + _D3 * c3 + _D4 * c4 + _D5 * c5 + _D6 * c6 + _D7 * c7)))

    def dense(at):
        theta = (at - t) / h
        om = 1 - theta
        return [a + theta * (b + om * (c + theta * (d + om * e))) for a, b, c, d, e in coeffs]

    return dense


def _locate(fn, c, lo, hi, glo, dense, t0):
    """The time of a sign change of the event ``fn`` with constants ``c`` on
    ``(lo, hi]``, where it was ``glo`` at ``lo``: bisection over ``dense`` to
    1e-13 of the time elapsed since ``t0``, or until the midpoint rounds
    onto an end."""
    for _ in range(200):
        if hi - lo <= 1e-13 * max(1.0, hi - t0):
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        gm = fn(dense(mid), c)
        if gm == 0.0:
            return mid
        if (glo < 0.0) == (gm < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


_time = itemgetter(0)


class _Subscripts(dict):
    def __missing__(self, name):
        return f"{name[0]}[{name[1:]}]"


@functools.lru_cache(maxsize=None)
def _event_function(expr: str):
    """The event expression ``expr`` as ``fn(y, c)`` of a state list ``y``
    and the spec's ``values`` ``c``."""
    return eval(f"lambda y, c: {expr.format_map(_Subscripts())}", {"fabs": math.fabs})


def _python_loop(rhs, t0, y, icfg, specs, series):
    """The loop of the C kernel (:func:`_kernel`) in Python, with the same
    arguments and result, ``(table, raw_events, stop, counts)`` (see
    :func:`_run`): the same operations in the same order, so the same
    bytes. ``rhs`` is an :class:`RhsSource`, which runs compiled
    (``dynamics._compile``), or a callable from a state list to its
    derivative list; ``series`` an :class:`RhsSource` or None.

    A step with a crossing or a grid sample before its end plus a slack of
    ``1e-9 * sample_dt`` writes its rows: its located events in time order
    up to the first that stops the run, and its grid samples up to the stop
    or the step's end plus the slack, merged by time, an event first on a
    tie. A grid sample at ``ts >= cut`` is the end state at the cut time; in
    a stopping step that row shares the stop's time and is dropped. The
    nested ``emit`` drops a row within ``1e-12 * max(t - t0, 1)`` of the
    last row kept, and appends the time, the state and the series values of
    a row it keeps to one ``array('d')``, which numpy wraps without a copy.
    """
    d = len(y)
    f = _compile(rhs, d)(**rhs.bound) if isinstance(rhs, RhsSource) else rhs
    rtol, atol, max_step = icfg.rtol, icfg.atol, icfg.max_step
    sample_dt, max_steps = icfg.sample_dt, icfg.max_steps
    t_end = t0 + icfg.t_max
    t = t0
    k1 = f(y)
    n_rhs, failure = 1, "nonfinite_start"
    if all(map(math.isfinite, k1)):
        h = _initial_step(f, y, k1, rtol, atol, t_end - t0, max_step)
        if h is not None:
            n_rhs = 2  # k1 and the starting-step probe
            if 0.0 < h < math.inf:
                failure = None

    table = array("d")
    width = 1 + d + _series_count(series)
    values = series and _compile(series, d)(**series.bound)

    def emit(tr, u):
        a = tr - t0
        if table and tr - table[-width] <= 1e-12 * (a if a > 1.0 else 1.0):
            return
        table.append(tr)
        table.extend(u)
        if values:
            table.extend(values(u))

    emit(t, y)
    events = [(_event_function(spec.expr), spec.values, spec) for spec in specs]
    g = [fn(y, c) for fn, c, _ in events]
    raw_events = []
    sample_index = 1
    facold = 1e-4
    rejected = False
    n_steps = n_error = n_nonfinite = 0  # n_nonfinite: a non-finite stage, update or err
    h_min, h_max = math.inf, 0.0
    stop = None
    # The horizon is met within 1e-12 of the span (at least 1e-12); a longer
    # remainder, even a few ulps of a late t, is one more step.
    close = 1e-12 * max(1.0, t_end - t0)
    slack = 1e-9 * sample_dt
    while failure is None and t_end - t > close:
        h = min(h, max_step)
        landing = h > t_end - t  # cut short to land on t_end
        if landing:
            h = t_end - t
        # The smallest step scales with the elapsed time, not with t itself.
        if h < 1e-14 * max(1.0, t - t0) or t + h == t:
            failure = "underflow"
        elif n_steps + n_error + n_nonfinite >= max_steps:
            failure = "budget"
        elif max(map(abs, y)) > 1e12:
            failure = "blowup"
        if failure is not None:
            break

        calls, err, y1, k = _step(f, rtol, atol, h, y, k1)
        n_rhs += calls
        if err is None or not math.isfinite(err):
            n_nonfinite += 1
            rejected = True
            h *= 0.1
            continue
        fac11 = err ** _EXPO1
        if err > 1.0:
            n_error += 1
            rejected = True
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFETY)
            continue

        n_steps += 1
        if not landing:
            h_min = min(h_min, h)
            h_max = max(h_max, h)
        tnew = t + h
        G = [fn(y1, c) for fn, c, _ in events]
        crossed = []
        for (fn, c, spec), g0, g1 in zip(events, g, G):
            if (g0 < 0.0 < g1) or (g0 > 0.0 > g1) or (g0 != 0.0 and g1 == 0.0):
                direction = 1 if g0 < 0.0 else -1
                if not spec.direction or spec.direction == direction:
                    crossed.append((fn, c, spec, direction, g0, g1))
        if crossed or t0 + sample_index * sample_dt <= tnew + slack:
            dense = _dense(t, h, y, y1, k)
            located = sorted(
                ((tnew if g1 == 0.0 else _locate(fn, c, t, tnew, g0, dense, t0), spec, direction)
                 for fn, c, spec, direction, g0, g1 in crossed),
                key=_time,
            )
            cut = tnew
            for n, (te, spec, _) in enumerate(located, start=1):
                if spec.stop is not None:
                    cut, stop = te, spec.stop
                    del located[n:]
                    break
            rows = [(te, dense(te), spec, direction) for te, spec, direction in located]
            while (ts := t0 + sample_index * sample_dt) <= cut + slack:
                rows.append((cut, y1, None, 0) if ts >= cut else (ts, dense(ts), None, 0))
                sample_index += 1
            rows.sort(key=_time)  # stable: an event first on a tie
            for tr, u, spec, direction in rows:
                if spec is not None:
                    raw_events.append((tr, spec, direction, u))
                emit(tr, u)
            if stop is not None:
                break

        # PI controller update.
        fac = fac11 / facold ** _BETA
        fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
        hnew = h / fac
        if rejected:
            hnew = min(hnew, h)
        facold = max(err, 1e-4)
        rejected = False
        t, y, k1, g = tnew, y1, k[6], G
        h = hnew

    # After a stop the last row is the stop event's, at its time.
    if stop is None:
        emit(t, y)
    return (np.frombuffer(table).reshape(-1, width), raw_events, stop,
            (n_steps, n_error, n_nonfinite, n_rhs, failure, h_min, h_max))


# The loop of :func:`_python_loop` in C over arrays of D doubles, its rows
# and their per-sample series included, as four translation units that
# share _C_SHARED; :func:`_c_units` fills in the $-fields. Each operation is
# that of the Python loop in its order, so every bit is the same: min, max,
# abs and conditional expressions are comparisons in the order the builtins
# make them. The compiler's memory grows with the largest function and
# unit, so the loop's parts are functions in separate units, and no header
# is read.
_C_SHARED = r"""#if !defined(__FLT_EVAL_METHOD__) || __FLT_EVAL_METHOD__ != 0
#error "each double operation must round to double, as Python's do"
#endif

double fabs(double);
double pow(double, double);
double sqrt(double);
void *realloc(void *, __SIZE_TYPE__);
void free(void *);

#define D $d
#define NEV $nev
#define NSERIES $nseries
#define WIDTH (1 + D + NSERIES)  /* a sample row: t, the state, the series */
#define INF __builtin_inf()

enum { OK, NO_MEMORY };
enum { NONE, NONFINITE_START, UNDERFLOW, BUDGET, BLOWUP };

typedef struct { double *data; long long n, cap; } buffer;

/* A run's settings, constants, outputs so far and sample grid position. */
typedef struct {
    double t0, rtol, atol, max_step, sample_dt, t_end, slack, sample_index;
    const double *b, *c, *sb;  /* the RHS's, the events' and the series' constants */
    buffer rows, events;
    int stop;  /* the stopping event or -1 */
} loop;

void rhs(const double *y, double *k, const double *b);
void series(const double *y, double *k, const double *b);
double event(int j, const double *y, const double *c);
double starting_step(loop *lp, const double *x, const double *k1, long long *n_rhs);
int attempt(loop *lp, const double *x, double h, double k[7][D], double *z, double *err);
double bisect(loop *lp, int j, double glo, double gend, double t, double h, double tnew,
              const double *x, const double d[4][D]);
int emit(loop *lp, double t, const double *u);
int record(loop *lp, double t, double h, const double *x, const double *z,
           const double k[7][D], const double *g, const double *G);

/* 0.0 * v is a zero for every finite v and nan for inf or nan. */
static inline int all_finite(const double *v, int n)
{
    for (int i = 0; i < n; i++)
        if (0.0 * v[i] != 0.0)
            return 0;
    return 1;
}

/* The quartic interpolant at time at of the step (t, h) from x. */
static inline void dense(double at, double t, double h, const double *x, const double d[4][D],
                         double *u)
{
    double theta = (at - t) / h, om = 1 - theta;
    for (int i = 0; i < D; i++)
        u[i] = x[i] + theta * (d[0][i] + om * (d[1][i] + theta * (d[2][i] + om * d[3][i])));
}
"""

# The model: the RHS template, the series template and the event
# expressions.
_C_MODEL = r"""
/* The RHS at the state y into k; its constants are b. */
void rhs(const double *y, double *k, const double *b)
{
$rhs
}

/* The NSERIES per-sample series at the state y into k; their constants are b. */
void series(const double *y, double *k, const double *b)
{
$series
}

/* The value of event j at the state y; the events' constants are c. */
double event(int j, const double *y, const double *c)
{
    switch (j) {
$events
    }
    return 0.0;
}
"""

# The stepper: the starting step, one step attempt and the event bisection.
_C_STEP = r"""
static double rms(const double *u)
{
    return $rms;
}

/* Hairer's starting step from x, where k1 = f(x) is finite, or 0.0 where
   h0 is 0 (norm1 overflowed), before the probe f(x + h0 * k1), whose norm
   divides by h0. Adds the probe to *n_rhs. */
double starting_step(loop *lp, const double *x, const double *k1, long long *n_rhs)
{
    double sc[D], u[D], s[D], f1[D], norm0, norm1, norm2, h0, h1, h, top;
    double span = lp->t_end - lp->t0;
    int i;
    for (i = 0; i < D; i++)
        sc[i] = lp->atol + lp->rtol * fabs(x[i]);
    for (i = 0; i < D; i++)
        u[i] = x[i] / sc[i];
    norm0 = rms(u);
    for (i = 0; i < D; i++)
        u[i] = k1[i] / sc[i];
    norm1 = rms(u);
    h0 = (norm0 < 1e-5 || norm1 < 1e-5) ? 1e-6 : 0.01 * norm0 / norm1;
    if (span < h0)
        h0 = span;
    if (lp->max_step < h0)
        h0 = lp->max_step;
    if (h0 == 0.0)
        return 0.0;
    for (i = 0; i < D; i++)
        s[i] = x[i] + h0 * k1[i];
    rhs(s, f1, lp->b);
    *n_rhs += 1;
    for (i = 0; i < D; i++)
        u[i] = (f1[i] - k1[i]) / sc[i];
    norm2 = rms(u) / h0;
    top = norm2 > norm1 ? norm2 : norm1;
    if (top <= 1e-15) {
        h1 = h0 * 1e-3;
        h1 = h1 > 1e-6 ? h1 : 1e-6;
    } else {
        h1 = pow(0.01 / top, 0.2);
    }
    h = 100 * h0;
    if (h1 < h)
        h = h1;
    if (span < h)
        h = span;
    if (lp->max_step < h)
        h = lp->max_step;
    return h;
}

/* One attempt of the step h from x, where k[0] = f(x): the stages k[1] to
   k[5], the update z, k[6] = f(z) and the error norm *err. Returns the
   RHS evaluations it made: 6, or fewer where a stage state or the update
   is not finite. */
int attempt(loop *lp, const double *x, double h, double k[7][D], double *z, double *err)
{
    const double *b = lp->b;
    double s[D], e[D];
    int i;
$stages
    for (i = 0; i < D; i++) {
        double mx = fabs(x[i]), mz = fabs(z[i]);
        e[i] = h * ($error) / (lp->atol + lp->rtol * (mz > mx ? mz : mx));
    }
    *err = rms(e);
    return 6;
}

/* The time of event j's crossing in the step (t, h) from x to tnew, with
   the dense coefficients d, where it was glo at t and gend at tnew:
   bisection to 1e-13 of the elapsed time, or until the midpoint rounds
   onto an end. */
double bisect(loop *lp, int j, double glo, double gend, double t, double h, double tnew,
              const double *x, const double d[4][D])
{
    double lo = t, hi = tnew, mid, gm, a, u[D];
    if (gend == 0.0)
        return tnew;
    for (int it = 0; it < 200; it++) {
        a = hi - lp->t0;
        if (hi - lo <= 1e-13 * (a > 1.0 ? a : 1.0))
            return 0.5 * (lo + hi);
        mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            return mid;
        dense(mid, t, h, x, d, u);
        gm = event(j, u, lp->c);
        if (gm == 0.0)
            return mid;
        if ((glo < 0.0) == (gm < 0.0)) {
            lo = mid;
            glo = gm;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}
"""

# The records of an accepted step: its events and its sample rows, with
# their series.
_C_RECORD = r"""
/* Per event: 1 rising, -1 falling, 0 both ways; and whether it ends the run. */
static const int DIRECTION[NEV + 1] = {$directions};
static const int STOPS[NEV + 1] = {$stops};

/* Whether event j crossed from g to G: rose through or onto zero, or fell
   (a nan start counts as falling). */
static int crosses(int j, double g, double G)
{
    int up = g < 0.0 && 0.0 <= G;
    int down = (g > 0.0 && 0.0 >= G) || (g != g && G == 0.0);
    return DIRECTION[j] > 0 ? up : DIRECTION[j] < 0 ? down : up || down;
}

static int append(buffer *b, const double *v, int n)
{
    if (b->n + n > b->cap) {
        long long cap = b->cap ? 2 * b->cap : 4096;
        double *data;
        while (cap < b->n + n)
            cap *= 2;
        data = realloc(b->data, cap * sizeof *data);
        if (!data)
            return 0;
        b->data = data;
        b->cap = cap;
    }
    for (int i = 0; i < n; i++)
        b->data[b->n + i] = v[i];
    b->n += n;
    return 1;
}

/* The sample row (t, u, its series), unless t lies within
   1e-12 * max(t - t0, 1) of the last row kept. The rows come in time
   order, so a row is tested against the last one kept only. */
int emit(loop *lp, double t, const double *u)
{
    double a = t - lp->t0, row[WIDTH];
    if (lp->rows.n && t - lp->rows.data[lp->rows.n - WIDTH] <= 1e-12 * (a > 1.0 ? a : 1.0))
        return OK;
    row[0] = t;
    for (int i = 0; i < D; i++)
        row[1 + i] = u[i];
    series(u, row + 1 + D, lp->sb);
    return append(&lp->rows, row, WIDTH) ? OK : NO_MEMORY;
}

/* The records of the accepted step (t, h) from x to z, where the events
   went from g to G, for a step with a crossing or a grid sample: its
   located events in time order (a stable sort) up to the first that stops
   the run, and its grid samples up to the stop or the step's end, plus a
   slack, merged by time with an event first on a tie. A grid sample at
   ts takes the interpolant, or the end state z at the cut time where
   ts >= cut; in a stopping step that row shares the stop's time, so the
   drop rule drops it. */
int record(loop *lp, double t, double h, const double *x, const double *z,
           const double k[7][D], const double *g, const double *G)
{
    double d[4][D], u[D], event_row[3 + D], located_t[NEV + 1];
    double tnew = t + h, cut = tnew, bound = tnew + lp->slack, te, ts;
    int located[NEV + 1], located_direction[NEV + 1], crossing = 0, i, j, m, n = 0, status;

    for (j = 0; j < NEV; j++)
        crossing = crossing || crosses(j, g[j], G[j]);
    if (!crossing && lp->t0 + lp->sample_index * lp->sample_dt > bound)
        return OK;
    for (i = 0; i < D; i++) {
        d[0][i] = z[i] - x[i];
        d[1][i] = h * k[0][i] - d[0][i];
        d[2][i] = d[0][i] - h * k[6][i] - d[1][i];
        d[3][i] = h * ($dense);
    }
    for (j = 0; crossing && j < NEV; j++) {
        if (!crosses(j, g[j], G[j]))
            continue;
        te = bisect(lp, j, g[j], G[j], t, h, tnew, x, d);
        for (m = n++; m > 0 && te < located_t[m - 1]; m--) {
            located_t[m] = located_t[m - 1];
            located[m] = located[m - 1];
            located_direction[m] = located_direction[m - 1];
        }
        located_t[m] = te;
        located[m] = j;
        located_direction[m] = DIRECTION[j] ? DIRECTION[j] : g[j] < 0.0 ? 1 : -1;
    }
    for (m = 0; m < n; m++)
        if (STOPS[located[m]]) {
            n = m + 1;
            cut = located_t[m];
            lp->stop = located[m];
            bound = cut + lp->slack;
            break;
        }
    /* The grid samples at ts <= bound, one index after another. */
    for (m = 0;;) {
        ts = lp->t0 + lp->sample_index * lp->sample_dt;
        if (m < n && (ts > bound || located_t[m] <= (ts >= cut ? cut : ts))) {
            dense(located_t[m], t, h, x, d, u);
            event_row[0] = located_t[m];
            event_row[1] = located[m];
            event_row[2] = located_direction[m];
            for (i = 0; i < D; i++)
                event_row[3 + i] = u[i];
            if (!append(&lp->events, event_row, 3 + D))
                return NO_MEMORY;
            status = emit(lp, located_t[m++], u);
        } else if (ts > bound) {
            return OK;
        } else if (ts >= cut) {
            status = emit(lp, cut, z);
            lp->sample_index += 1.0;
        } else {
            dense(ts, t, h, x, d, u);
            status = emit(lp, ts, u);
            lp->sample_index += 1.0;
        }
        if (status != OK)
            return status;
    }
}
"""

# The loop itself: guards, step attempts, error control and the PI
# controller.
_C_RUN = r"""
void release(double *data)
{
    free(data);
}

/* A buffer's data cut to its length. */
static double *fitted(buffer *b)
{
    double *data = b->n ? realloc(b->data, b->n * sizeof *data) : 0;
    return data ? data : b->data;
}

/* The loop over the input block in: the start state (D doubles), t0,
   rtol, atol, max_step, sample_dt and t_max, then the RHS constants ($nb),
   the event constants ($nc) and the series constants. On OK, bufs holds
   the (n, WIDTH) sample rows and the raw events (t, j, direction, state)
   as doubles, each its own allocation for release; counts holds n, the
   events' doubles, n_steps, n_error, n_nonfinite, n_rhs, the failure and
   the stopping event (or -1); hs holds h_min and h_max. */
int run(const double *in, long long max_steps, void **bufs, long long *counts, double *hs)
{
    const double *cfg = in + D, *b = cfg + 6, *c = b + $nb;
    loop lp = {.t0 = cfg[0], .rtol = cfg[1], .atol = cfg[2], .max_step = cfg[3],
               .sample_dt = cfg[4], .t_end = cfg[0] + cfg[5], .slack = 1e-9 * cfg[4],
               .sample_index = 1.0, .b = b, .c = c, .sb = c + $nc, .stop = -1};
    double x[D], z[D], k[7][D], g[NEV + 1], G[NEV + 1];
    double t = lp.t0, h = 0.0, h_min = INF, h_max = 0.0, facold = 1e-4;
    double close, a, err, fac, fac11, hnew;
    long long n_rhs = 1, n_steps = 0, n_error = 0, n_nonfinite = 0;
    int failure = NONE, rejected = 0, landing, calls, i, j;

    for (i = 0; i < D; i++)
        x[i] = in[i];
    rhs(x, k[0], b);
    /* The run fails at once if k1 or the starting step is not finite. */
    if (!all_finite(k[0], D)) {
        failure = NONFINITE_START;
    } else {
        h = starting_step(&lp, x, k[0], &n_rhs);
        if (!(0.0 < h && h < INF))
            failure = NONFINITE_START;
    }

    if (emit(&lp, t, x) != OK)
        goto no_memory;
    for (j = 0; j < NEV; j++)
        g[j] = event(j, x, c);
    close = 1e-12 * (1.0 > lp.t_end - lp.t0 ? 1.0 : lp.t_end - lp.t0);

    while (failure == NONE && lp.t_end - t > close) {
        if (lp.max_step < h)
            h = lp.max_step;
        landing = h > lp.t_end - t;
        if (landing)
            h = lp.t_end - t;
        a = t - lp.t0;
        if (h < 1e-14 * (a > 1.0 ? a : 1.0) || t + h == t) {
            failure = UNDERFLOW;
            break;
        }
        if (n_steps + n_error + n_nonfinite >= max_steps) {
            failure = BUDGET;
            break;
        }
        a = fabs(x[0]);
        for (i = 1; i < D; i++)
            if (fabs(x[i]) > a)
                a = fabs(x[i]);
        if (a > 1e12) {
            failure = BLOWUP;
            break;
        }

        calls = attempt(&lp, x, h, k, z, &err);
        n_rhs += calls;
        if (calls < 6 || !all_finite(&err, 1)) {
            n_nonfinite++;
            rejected = 1;
            h *= 0.1;
            continue;
        }
        fac11 = pow(err, $expo1);
        if (err > 1.0) {
            n_error++;
            rejected = 1;
            a = fac11 / $safety;
            h = h / (a < $fac_min ? a : $fac_min);
            continue;
        }

        /* Accepted. */
        n_steps++;
        if (!landing) {
            if (h < h_min)
                h_min = h;
            if (h > h_max)
                h_max = h;
        }
        for (j = 0; j < NEV; j++)
            G[j] = event(j, z, c);
        if (record(&lp, t, h, x, z, k, g, G) != OK)
            goto no_memory;
        if (lp.stop >= 0)
            break;

        /* PI controller update. */
        fac = fac11 / pow(facold, $beta);
        a = fac / $safety;
        fac = a < $fac_min ? a : $fac_min;
        fac = fac > $fac_max ? fac : $fac_max;
        hnew = h / fac;
        if (rejected && h < hnew)
            hnew = h;
        facold = err < 1e-4 ? 1e-4 : err;
        rejected = 0;
        t = t + h;
        for (i = 0; i < D; i++) {
            x[i] = z[i];
            k[0][i] = k[6][i];
        }
        for (j = 0; j < NEV; j++)
            g[j] = G[j];
        h = hnew;
    }

    /* After a stop the last row is the stop event's, at its time. */
    if (lp.stop < 0 && emit(&lp, t, x) != OK)
        goto no_memory;
    bufs[0] = fitted(&lp.rows);
    bufs[1] = lp.events.data;
    counts[0] = lp.rows.n / WIDTH;
    counts[1] = lp.events.n;
    counts[2] = n_steps;
    counts[3] = n_error;
    counts[4] = n_nonfinite;
    counts[5] = n_rhs;
    counts[6] = failure;
    counts[7] = lp.stop;
    hs[0] = h_min;
    hs[1] = h_max;
    return OK;

no_memory:
    free(lp.rows.data);
    free(lp.events.data);
    return NO_MEMORY;
}
"""


def _c_units(d: int, events: tuple[tuple[str, int, bool], ...], rhs: RhsSource,
             series: Optional[RhsSource] = None) -> tuple[str, ...]:
    """The C translation units of the kernel for ``d`` state components,
    the :func:`_events` of the event specs, the RHS source ``rhs``
    and the per-sample series ``series`` (``{k0}, {k1}, ...`` of its
    template; none for None): the loop of :func:`_python_loop` with its
    rows and their series, the templates as the functions ``rhs`` and
    ``series`` and the events as the function ``event``. Raises
    :class:`native.NotC` for a template or an event with no exact C
    translation."""
    def combo(weights):
        # Stage j is k[j - 1].
        return " + ".join(f"{w!r} * k[{j - 1}][i]" for j, w in weights)

    def stage(target, weights, calls, out):
        # A stage state or the update, its finiteness check, and the RHS there.
        return ["for (i = 0; i < D; i++)",
                f"    {target}[i] = x[i] + h * ({combo(weights)});",
                f"if (!all_finite({target}, D))",
                f"    return {calls};",
                f"rhs({target}, k[{out}], b);"]

    def function_body(source):
        # A template as C over the arrays y and k, its constants read from b.
        if source is None:
            return ""
        names = {f"y{i}": f"y[{i}]" for i in range(d)}
        names.update((f"k{i}", f"k[{i}]") for i in _fields(source.template, "k"))
        bound = [f"const double {name} = b[{j}];" for j, name in enumerate(source.bound)]
        body = native.c_lines(source.template.format(**names), tuple(source.bound), ("y", "k"))
        return "\n".join("    " + line for line in [*bound, *body])

    cases, offset = [], 0
    for j, (expr, _, _) in enumerate(events):
        constants = _fields(expr, "c")
        fields = {f"y{i}": f"y[{i}]" for i in _fields(expr, "y")}
        fields.update((f"c{k}", f"c[{offset + n}]") for n, k in enumerate(constants))
        offset += len(constants)
        cases.append(f"    case {j}: return {native.c_expression(expr.format(**fields), (), ('y', 'c'))};")

    stages = []
    for j, row in enumerate(_A, start=2):
        stages += stage("s", row, j - 2, j - 1)
    stages += stage("z", _B, 5, 6)
    fields = dict(
        d=d, nev=len(events), nseries=_series_count(series),
        rhs=function_body(rhs), series=function_body(series),
        events="\n".join(cases),
        directions=", ".join([*(str(direction) for _, direction, _ in events), "0"]),
        stops=", ".join([*(str(int(stop)) for _, _, stop in events), "0"]),
        nb=len(rhs.bound), nc=offset,
        rms=_rms_expression([f"u[{i}]" for i in range(d)]),
        stages="\n".join("    " + line for line in stages),
        error=combo(_E), dense=combo(_D),
        expo1=repr(_EXPO1), beta=repr(_BETA), safety=repr(_SAFETY),
        fac_min=repr(1.0 / _FAC_MIN), fac_max=repr(1.0 / _FAC_MAX),
    )
    return tuple(string.Template(_C_SHARED + unit).substitute(fields)
                 for unit in (_C_MODEL, _C_STEP, _C_RECORD, _C_RUN))


def _series_count(series: Optional[RhsSource]) -> int:
    """The number of series ``{k0}, {k1}, ...`` the template of ``series`` assigns."""
    return len(_fields(series.template, "k")) if series is not None else 0


# The failures by the kernel's code; 0 is none.
_FAILURES = (None, "nonfinite_start", "underflow", "budget", "blowup")
_NO_MEMORY = 1


def _owned(address: int, n: int, release) -> np.ndarray:
    """The ``n`` doubles the kernel allocated at ``address``, as a numpy
    array over that memory; ``release`` frees it once the array and every
    view of it (the table's columns) are gone."""
    block = (ctypes.c_double * n).from_address(address)
    weakref.finalize(block, release, address).atexit = False
    return np.frombuffer(block)


@functools.lru_cache(maxsize=None)
def _kernel(d: int, events: tuple[tuple[str, int, bool], ...], rhs: RhsSource,
            series: Optional[RhsSource] = None):
    """``run(rhs, t0, y0, icfg, specs, series)``, the C kernel of
    :func:`_c_units`, or None where the kernel cannot be translated,
    compiled, cached or loaded (see :mod:`native`). ``run`` takes the
    arguments of :func:`_python_loop` and returns the same bytes, ``(table,
    raw_events, stop, counts)`` (see :func:`_run`). It passes the start
    state, the settings and the constants to the kernel as one block, and
    its table is the kernel's own memory, freed with its last view."""
    try:
        lib = native.load(_c_units(d, events, rhs, series))
    except native.NotC:
        return None
    if lib is None:
        return None
    kernel, release = lib.run, lib.release
    kernel.restype = ctypes.c_int
    kernel.argtypes = (ctypes.POINTER(ctypes.c_double), ctypes.c_longlong,
                       ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_longlong),
                       ctypes.POINTER(ctypes.c_double))
    release.restype = None
    release.argtypes = (ctypes.c_void_p,)
    width = 1 + d + _series_count(series)

    def run(rhs, t0, y0, icfg, specs, series):
        block = [*y0, t0, icfg.rtol, icfg.atol, icfg.max_step, icfg.sample_dt, icfg.t_max,
                 *rhs.bound.values(), *(v for spec in specs for v in spec.values),
                 *(series.bound.values() if series else ())]
        bufs = (ctypes.c_void_p * 2)()
        counts = (ctypes.c_longlong * 8)()
        hs = (ctypes.c_double * 2)()
        status = kernel((ctypes.c_double * len(block))(*block), min(icfg.max_steps, 2**62),
                        bufs, counts, hs)
        if status == _NO_MEMORY:
            raise MemoryError("kernel buffers")
        n, n_events = counts[0], counts[1]
        try:
            flat = (ctypes.c_double * n_events).from_address(bufs[1])[:] if n_events else []
        finally:
            release(bufs[1])
        table = _owned(bufs[0], n * width, release).reshape(n, width)
        raw_events = [(flat[j], specs[int(flat[j + 1])], int(flat[j + 2]), flat[j + 3:j + 3 + d])
                      for j in range(0, len(flat), 3 + d)]
        stop = counts[7]
        return (table, raw_events, None if stop < 0 else specs[stop].stop,
                (*counts[2:6], _FAILURES[counts[6]], *hs))

    return run


def _float_constants(source: RhsSource) -> RhsSource:
    """``source`` with its constants as floats."""
    return RhsSource(source.template, source.label,
                     {name: float(value) for name, value in source.bound.items()})


def _propagate(
    rhs,
    t0: float,
    y0: Sequence[float],
    icfg: IntegratorConfig,
    specs: Sequence[_EventSpec] = (),
    series: Optional[RhsSource] = None,
):
    """Adaptive loop for ``icfg.t_max`` from ``t0``, under the tolerances,
    step cap, sample grid and step budget of ``icfg``; ``rhs`` is an
    :class:`RhsSource` or a callable that maps a state list to its
    derivative list, and an event whose spec names a ``stop`` ends the run
    with that termination. ``t0``, ``y0`` and the constants of the sources
    are read as floats here, for both loops, and a spec whose ``values``
    do not hold one entry per ``{c<j>}`` field of its expression is a
    ValueError (:func:`_events`). Runs the C kernel (:func:`_kernel`) for
    the state dimension, the specs' :func:`_events`, an :class:`RhsSource`
    and the per-sample series source ``series`` (or none), or else, where
    that kernel is None or the RHS a callable, the Python loop
    :func:`_python_loop`, which compiles the sources it is given; which one
    runs depends on those and the machine only, and its result is final.
    Either loop writes one table of sample rows (see :func:`_run`), which
    this entry point for tests slices into columns.
    Returns (times, states, raw events, termination, stats, series):
    ``times`` is the float array of sample times and ``states`` the ``(n,
    d)`` float array, the same bytes either way, both column views of that
    table. Raw events are ``(t, spec, direction, y)`` tuples, ``y`` a list
    of floats. ``stats`` counts accepted steps, rejected attempts (in all,
    for an error norm above 1 and for a non-finite stage, update or error
    norm) and RHS evaluations, and gives ``h_min`` and ``h_max`` over the
    accepted steps (None when there are none). On a step failure
    ``stats["failure"]`` names the guard that stopped the run:
    "nonfinite_start", "underflow", "budget" or "blowup". ``series`` is the
    list of the column views of ``{k0}, {k1}, ...`` of the template of the
    argument ``series`` at every row, or None where ``series`` is None."""
    specs = tuple(specs)
    table, *rest = _run(rhs, t0, y0, icfg, specs, _events(specs), series)
    d = len(y0)
    return table[:, 0], table[:, 1:1 + d], *rest, series and list(table[:, 1 + d:].T)


def _run(rhs, t0, y0, icfg, specs, events, series):
    """The run of :func:`_propagate` for a tuple of ``specs`` whose
    ``events`` are already known, as :func:`_events` gives them: ``(table,
    raw_events, termination, stats)``.

    Either loop returns ``(table, raw_events, stop, counts)``: the ``(n, 1
    + d + n_series)`` table of the sample rows ``(t, y0 ... y{d-1}, series
    ...)``, the raw events, the ``stop`` of the spec that ended the run (or
    None) and ``(n_steps, n_error, n_nonfinite, n_rhs, failure, h_min,
    h_max)``, where ``failure`` names a step failure (or is None) and
    ``h_max`` is 0.0 where no step counts. The table and the raw events
    are returned as the loop wrote them."""
    t0, y0 = float(t0), [float(a) for a in y0]
    series = series and _float_constants(series)
    run = None
    if isinstance(rhs, RhsSource):
        rhs = _float_constants(rhs)
        run = _kernel(len(y0), events, rhs, series)
    table, raw_events, stop, counts = (run or _python_loop)(rhs, t0, y0, icfg, specs, series)
    n_steps, n_error, n_nonfinite, n_rhs, failure, h_min, h_max = counts
    stats = {
        "n_steps": n_steps,
        "n_rejected": n_error + n_nonfinite,
        "n_rhs": n_rhs,
        "n_rejected_error": n_error,
        "n_rejected_nonfinite": n_nonfinite,
        # Over accepted steps, leaving out one cut short to land on t_end.
        "h_min": h_min if h_max else None,
        "h_max": h_max if h_max else None,
    }
    if failure is not None:
        stats["failure"] = failure
        termination = Termination.STEP_FAILURE
    else:
        termination = Termination.REACHED_TMAX if stop is None else stop
    return table, raw_events, termination, stats


def _events(specs: Sequence[_EventSpec]) -> tuple[tuple[str, int, bool], ...]:
    """The ``(expr, direction, stops)`` of each spec, ``stops`` whether it
    names a ``stop``: the key of its kernel. A spec whose ``values`` do not
    hold one entry per ``{c<j>}`` field of its expression is a
    ValueError."""
    for spec in specs:
        fields = len(_fields(spec.expr, "c"))
        if len(spec.values) != fields:
            raise ValueError(f"the spec of event {spec.expr!r} holds {len(spec.values)} "
                             f"values, not {fields}")
    return tuple((spec.expr, spec.direction, spec.stop is not None) for spec in specs)


def _event_specs(
    model: ModelConfig, escape_radius: Optional[float], mark_positions: Sequence[float]
) -> list[_EventSpec]:
    """The events of :func:`integrate`: momentum sign changes, crossings of
    ``mark_positions``, outbound escape through the
    :func:`resolve_escape_radius` of ``escape_radius`` (a stop) and, at
    orders 2 and 3, ``G20*G02 - G11**2`` turning negative (a stop): no
    state can have that, so past it the moments describe no packet. Order
    2 conserves the product, which then falls through zero only where the
    moments have grown so far that ``hbar**2/4`` is lost in their
    rounding."""
    radius = resolve_escape_radius(escape_radius, model.potential.a)

    specs = [_EventSpec("{y1}", kind="p_zero")]
    specs += [
        _EventSpec("{y0} - {c0}", kind="q_cross", values=(marker,), marker=marker)
        for marker in map(float, mark_positions)
    ]
    specs.append(
        _EventSpec(
            "fabs({y0}) - {c0}",
            kind="escape",
            values=(radius,),
            stop=Termination.ESCAPED,
            direction=1,
        )
    )
    if model.order >= 2:
        specs.append(
            _EventSpec(
                UNCERTAINTY_PRODUCT,
                kind="constraint",
                stop=Termination.CONSTRAINT_VIOLATED,
                direction=-1,
            )
        )
    return specs


# The most run families whose event plan is kept: the runs of a sweep at
# one energy are one family; a sweep that moves the energy, and so the
# return points it marks, has one per point below the barrier top.
PLAN_CACHE_SIZE = 64


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(model: ModelConfig, escape_radius: Optional[float],
          marks: bytes) -> tuple[tuple[_EventSpec, ...], tuple[tuple[str, int, bool], ...]]:
    """The event specs of :func:`integrate` and their checked
    :func:`_events`, the same for every run of the model, the configured
    ``escape_radius`` and the marker positions whose doubles ``marks``
    holds. The markers are keyed by their bytes, as ``0.0 == -0.0`` and a
    marker is recorded with its sign."""
    specs = tuple(_event_specs(model, escape_radius, array("d", marks)))
    return specs, _events(specs)


def integrate(
    init: MomentState,
    model: ModelConfig,
    icfg: IntegratorConfig,
    mark_positions: Sequence[float] = (),
) -> Trajectory:
    """Propagate ``init`` to ``t_max`` or an early stop.

    Early stops: outbound escape through ``|q| =`` the
    :func:`resolve_escape_radius` of ``escape_radius``, ``G20*G02 -
    G11**2`` turning negative (orders 2 and 3), or a step failure, whose cause
    ``stats["failure"]`` names: "nonfinite_start" (a non-finite first
    derivative or starting step; no step is attempted), "underflow" (step size
    below ``1e-14 * max(t - t0, 1)`` or too small to change ``t``), "budget"
    (``max_steps`` attempts used) or "blowup" (a state component beyond
    ``1e12``). ``mark_positions`` adds recorded (non-stopping) crossing
    events, typically ``BarrierPotential.turning_points``. At
    orders >= 2, ``stats["residual_min"]`` and ``stats["t_residual_min"]``
    give the lowest sampled uncertainty residual and its time.

    Either loop hands back the sample table whole and final, and the
    :class:`Trajectory` holds it as it is: times, states, ``H_Q``,
    ``V_eff`` and the residual (:func:`dynamics.series_source`), the same
    bytes either way. A series value that is not finite is written as the
    loop computed it, with no warning. An ``init`` whose order is not the
    model's is a ValueError.

    The event specs and the key of their loop are derived once per model,
    configured escape radius and set of marker positions (:func:`_plan`);
    the sources and their constants are read from the model on every run.
    """
    start = _state_row(init, model)
    specs, events = _plan(model, icfg.escape_radius,
                          array("d", map(float, mark_positions)).tobytes())
    table, raw_events, termination, stats = _run(
        rhs_source(model), init.t, start, icfg, specs, events, series_source(model))

    order = model.order
    if order >= 2:
        worst = int(np.argmin(table[:, -1]))
        stats["residual_min"] = float(table[worst, -1])
        stats["t_residual_min"] = float(table[worst, 0])

    events = tuple(
        Event(
            t=te,
            kind=spec.kind,
            direction=direction,
            state=vector_to_state(te, ye, order),
            marker=spec.marker,
        )
        for te, spec, direction, ye in raw_events
    )
    return Trajectory(model, table, termination, events, stats)
