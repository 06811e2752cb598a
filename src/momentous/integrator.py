"""Adaptive trajectory integration with dense output and event capture.

The stepper is the Dormand-Prince 5(4) embedded pair (the 5th-order solution
is propagated, the 4th-order companion provides the error estimate) with the
beta-damped PI step-size controller and the quartic dense-output interpolant
of Hairer, Norsett & Wanner, "Solving Ordinary Differential Equations I".

An explicit pair is used deliberately: the moment system is not separable,
and exact conservation of the effective Hamiltonian then serves as an
independent accuracy diagnostic rather than a built-in property.

The state has at most nine components, so the stepper works on Python floats
rather than numpy arrays, whose per-call overhead would dominate. One
trajectory is one call of a loop generated from the tableau per state
dimension and set of event expressions (each event is a source expression
over the state components, so every sweep point shares one compiled loop):
straight-line code with one local per component and stage that runs the
starting-step heuristic, the step-size guards, the six stages (checking each
stage state for finiteness), the 5th-order update, the error norm, the PI
controller, the event tests, the choice of sample rows and the bisection of
each located event, and calls the RHS it is given. Every expression keeps the
per-component operation order, and the error norm sums its squares in numpy's
pairwise order, so step sizes, samples and events are those of an array
implementation, bit for bit.

Recorded along the way:

* samples on a fixed ``sample_dt`` grid plus event points. The loop packs
  one row of dense-output coefficients per step that holds a sample or an
  event, and records every step's grid samples as one range of grid indices
  and each event, the start and the end as single rows with their times;
  after the loop one numpy pass expands the ranges, orders the rows by time
  and drops rows within ``1e-12`` of the last one kept, on 1-D arrays over
  all rows, then evaluates the quartic interpolant in the loop's operation
  order, block by block (:func:`row_blocks`), into the preallocated
  ``(n, d)`` sample array;
* events: momentum sign changes, crossings of caller-supplied position
  markers (classical return points), outbound escape, and, at orders 2 and
  3, ``G20*G02 - G11**2`` turning negative, which no state can have (a stop);
* per-sample series, computed block by block into preallocated arrays:
  effective Hamiltonian, effective potential at the mean position, and the
  uncertainty-product residual, whose minimum over the samples and its time
  go into the step statistics. No temporary between the loop and the
  returned arrays holds more than one block;
* on a step failure, its cause: a non-finite start, step-size underflow,
  the ``max_steps`` budget, or a state blowup.

Runs are bit-reproducible: identical configuration yields identical output.
"""

from __future__ import annotations

import enum
import functools
import string
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    ModelConfig,
    MomentState,
    # Unused here: perfbench's tracer wraps these two names in this module,
    # and its smoke tests require every traced name to exist.
    effective_hamiltonian,
    effective_potential,
    effective_series,
    make_rhs,
    state_to_vector,
    vector_to_state,
)
from .potential import exec_source

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
    escape_radius: Optional[float] = None  # None -> ESCAPE_RADIUS_SCALE * a
    sample_dt: float = 0.01
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        for name in ("rtol", "atol", "t_max", "max_step", "sample_dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # The loop counts grid indices in floats, and i + 1.0 == i from 2**53.
        if not self.t_max / self.sample_dt < 2**53:
            raise ValueError("sample_dt must give fewer than 2**53 samples over t_max")
        if self.escape_radius is not None and not self.escape_radius > 0:
            raise ValueError("escape_radius must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


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
    """Time-ordered samples, derived series, events and the stop reason."""

    model: ModelConfig
    times: np.ndarray
    states: np.ndarray
    h_q: np.ndarray
    v_eff: np.ndarray
    uncertainty: np.ndarray
    termination: Termination
    events: tuple[Event, ...] = ()
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.times)
        if self.states.shape[0] != n:
            raise ValueError("states and times disagree in length")
        for name in ("h_q", "v_eff", "uncertainty"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"series {name} and times disagree in length")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

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


# The most cells (rows times columns) one block of the sample pass or of the
# float CSV writer holds: their temporaries are set by this, not by the run's
# length.
BLOCK_CELLS = 8192


def row_blocks(n: int, columns: int):
    """The slices of ``n`` rows of ``columns`` cells each in blocks of
    ``BLOCK_CELLS // columns`` rows, at least 1 (the last may be shorter)."""
    step = max(1, BLOCK_CELLS // max(columns, 1))
    return (slice(lo, lo + step) for lo in range(0, n, step))


# The uncertainty product ``G20*G02 - G11**2`` as event source, and the
# uncertainty residual, which subtracts ``{c0}`` = ``hbar**2/4`` from it.
_PRODUCT = "{y2} * {y4} - {y3} * {y3}"
_RESIDUAL = _PRODUCT + " - {c0}"
# ``_residual(y, quarter)``: the residual of a state vector, or per sample of
# the transposed ``(d, n)`` sample array.
_residual = exec_source(
    "def residual(y, quarter):\n"
    f"    return {_RESIDUAL.format(y2='y[2]', y3='y[3]', y4='y[4]', c0='quarter')}\n",
    "<uncertainty residual>",
)["residual"]


def uncertainty_residual(state: MomentState, model: ModelConfig) -> float:
    """``G20*G02 - G11**2 - hbar**2/4`` under the model's hbar; negative
    values violate the uncertainty relation."""
    if state.order < 2:
        raise ValueError("uncertainty residual requires truncation order >= 2")
    return _residual((state.q, state.p) + state.moments, model.hbar * model.hbar / 4)


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


def _fields(expr: str, kind: str) -> list[int]:
    """The indices of the ``{y<i>}`` (kind "y") or ``{c<j>}`` (kind "c")
    fields of an event expression, ascending."""
    names = {name for _, name, _, _ in string.Formatter().parse(expr) if name}
    return sorted(int(name[1:]) for name in names if name[0] == kind)


@functools.lru_cache(maxsize=None)
def _loop(d: int, events: tuple[tuple[str, int], ...]):
    """Compile ``run(f, t0, y0, icfg, specs)``, the whole adaptive loop for
    ``d`` state components and the ``(expr, direction)`` of each event spec.

    The loop is straight-line code per step with one local per component and
    stage (component ``i`` of stage ``j`` is ``k{j}_{i}``): Hairer's starting
    step (or a failure before any attempt when k1 or that step is not
    finite), the step-size guards, the six stages with their finiteness
    checks, the error norm of :func:`_rms_expression`, the PI controller, the
    event values and crossing tests, the choice of rows on the sample grid,
    and the bisection of each crossing event over the components it reads.
    A step builds the interpolant's coefficients only when an event crosses
    or a sample falls inside it. Such a step packs its coefficients into the
    bytearray ``coeffs`` as one row of doubles ``(t, h, x_i..., d1_i...,
    d2_i..., d3_i..., d4_i..., z_i...)`` and appends entries of four numbers
    to the flat list ``rec`` (see :func:`_dense_rows`): first one entry per
    located event, in time order up to the first that stops the run, each with
    its time, then one entry for the range of grid indices the step holds up
    to ``cut`` (the stop event's time, or the step's end) plus a slack of
    ``1e-9 * sample_dt``, found by one division and exact tests at its ends;
    no per-sample code runs. The start row and a final ``t_end`` row are exact
    rows of the same table. Event rows are not merged with grid rows and
    nothing is dropped here: :func:`_dense_rows` sorts the rows by time and
    applies the rule for rows within ``1e-12`` of each other after the loop.
    The loop evaluates the interpolant only for event states;
    :func:`_dense_rows` builds the sample times and states after it. It calls
    ``f`` on state lists and reads the run's tolerances, horizon, step cap,
    sample grid and step budget from ``icfg``; each event's constants come
    from its spec's ``values``. Every expression keeps the operation order of
    the per-component list loop it replaces (see ``tests/conftest.py``), so
    every bit is that loop's.

    ``run`` returns ``(rec, coeffs, raw events, stop, stats)``: ``stop`` is
    the ``stop`` of the spec whose event ended the run, or None.
    """
    comps = range(d)
    out: list[str] = []

    def put(level, *lines):
        out.extend("    " * level + line for line in lines)

    def listed(prefix, indices=comps):
        return ", ".join(f"{prefix}{i}" for i in indices)

    def combo(weights, i):
        return " + ".join(f"{w!r} * k{j}_{i}" for j, w in weights)

    def event(k, prefix):
        # Event k over the locals prefix0, prefix1, ... and its constants.
        expr = events[k][0]
        names = {f"y{i}": f"{prefix}{i}" for i in _fields(expr, "y")}
        names.update({f"c{j}": f"c{k}_{j}" for j in _fields(expr, "c")})
        return expr.format(**names)

    def interpolant(i):
        return f"x{i} + theta * (d1_{i} + om * (d2_{i} + theta * (d3_{i} + om * d4_{i})))"

    def dense_at(level, at):
        put(level, f"theta = ({at} - t) / h", "om = 1 - theta")

    def exact_row(level):
        # A coefficient row read only for its end state, the current x.
        zeros = ", ".join(["0.0"] * (4 * d))
        put(level, f"coeffs += pack(t, 1.0, {listed('x')}, {zeros}, {listed('x')})")

    def reject_unless_finite(level, names, calls):
        # 0.0 * v is a zero for every finite v and nan for inf or nan.
        put(level, f"if {' + '.join(f'0.0 * {v}' for v in names)} != 0.0:")
        if calls:
            put(level + 1, f"n_rhs += {calls}")
        put(level + 1, "n_nonfinite += 1", "rejected = True", "h *= 0.1", "continue")

    def rms(level, target, values, scale=""):
        put(level, *(f"u{i} = {v}" for i, v in zip(comps, values)))
        put(level, f"{target} = {_rms_expression([f'u{i}' for i in comps])}{scale}")

    def crossing(k):
        # The crossing tests of the list loop, split by direction: g rose
        # through or onto zero, or fell (a nan start counts as falling).
        up = f"g{k} < 0.0 <= G{k}"
        down = f"g{k} > 0.0 >= G{k} or g{k} != g{k} and G{k} == 0.0"
        return {1: up, -1: down, 0: f"{up} or {down}"}[events[k][1]]

    ev = range(len(events))
    put(1, "rtol = icfg.rtol", "atol = icfg.atol", "max_step = icfg.max_step",
        "sample_dt = icfg.sample_dt", "max_steps = icfg.max_steps",
        "t_end = t0 + icfg.t_max", "t = t0", "y = [float(a) for a in y0]",
        f"[{listed('x')}] = y")
    for k in ev:
        constants = _fields(events[k][0], "c")
        if constants:
            put(1, f"[{listed(f'c{k}_', constants)}] = specs[{k}].values")
    put(1, f"[{listed('k1_')}] = f(y)", "n_rhs = 1", "failure = None")

    # Hairer's starting-step heuristic, unless k1 is not finite; the run
    # fails at once if either gives no finite positive starting step.
    put(1, f"if {' + '.join(f'0.0 * k1_{i}' for i in comps)} != 0.0:",
        "    failure = 'nonfinite_start'", "else:")
    put(2, *(f"sc{i} = atol + rtol * abs(x{i})" for i in comps))
    rms(2, "norm0", [f"x{i} / sc{i}" for i in comps])
    rms(2, "norm1", [f"k1_{i} / sc{i}" for i in comps])
    put(2, "h0 = 1e-6 if (norm0 < 1e-5 or norm1 < 1e-5) else 0.01 * norm0 / norm1",
        "span = t_end - t0",
        "if span < h0:", "    h0 = span",
        "if max_step < h0:", "    h0 = max_step",
        f"[{listed('f1_')}] = f([{', '.join(f'x{i} + h0 * k1_{i}' for i in comps)}])")
    rms(2, "norm2", [f"(f1_{i} - k1_{i}) / sc{i}" for i in comps], " / h0")
    put(2, "top = norm2 if norm2 > norm1 else norm1",
        "if top <= 1e-15:",
        "    h1 = h0 * 1e-3",
        "    h1 = h1 if h1 > 1e-6 else 1e-6",
        "else:",
        "    h1 = (0.01 / top) ** 0.2",
        "h = 100 * h0",
        "if h1 < h:", "    h = h1",
        "if span < h:", "    h = span",
        "if max_step < h:", "    h = max_step",
        "n_rhs = 2  # k1 and the starting-step probe",
        "if not 0.0 < h < inf:", "    failure = 'nonfinite_start'")

    put(1, "coeffs = bytearray()")
    exact_row(1)
    put(1, "rec = [t, 0, inf, 1]", "raw_events = []")
    put(1, *(f"g{k} = {event(k, 'x')}" for k in ev))
    put(1, "sample_index = 1", "facold = 1e-4", "rejected = False",
        "n_steps = 0", "n_error = 0  # rejected for err > 1",
        "n_nonfinite = 0  # rejected for a non-finite stage, update or err",
        "h_min = inf", "h_max = 0.0", "stop = None",
        # The horizon is met within 1e-12 of the span (at least 1e-12); a
        # longer remainder, even a few ulps of a late t, is one more step.
        "close = 1e-12 * max(t_end - t0, 1.0)",
        "slack = 1e-9 * sample_dt")

    put(1, "while failure is None and t_end - t > close:")
    put(2, "if max_step < h:", "    h = max_step",
        "landing = h > t_end - t  # cut short to land on t_end",
        "if landing:", "    h = t_end - t")
    # Underflow, iteration-budget and blowup guards: the truncated moment
    # hierarchy can develop finite-time blowups, which must surface as a step
    # failure with the partial trajectory intact.
    biggest = f"max({', '.join(f'abs(x{i})' for i in comps)})" if d > 1 else "abs(x0)"
    # The smallest step scales with the elapsed time, not with t itself; a
    # step too small to move t fails as well.
    put(2, "a = t - t0",
        "if h < 1e-14 * (a if a > 1.0 else 1.0) or t + h == t:",
        "    failure = 'underflow'", "    break",
        "if n_steps + n_error + n_nonfinite >= max_steps:", "    failure = 'budget'", "    break",
        f"if {biggest} > 1e12:", "    failure = 'blowup'", "    break")

    # One step attempt (FSAL: k1 carried over from the previous step).
    for j, row in enumerate(_A, start=2):
        put(2, *(f"s{i} = x{i} + h * ({combo(row, i)})" for i in comps))
        reject_unless_finite(2, [f"s{i}" for i in comps], j - 2)
        put(2, f"[{listed(f'k{j}_')}] = f([{listed('s')}])")
    put(2, *(f"z{i} = x{i} + h * ({combo(_B, i)})" for i in comps))
    reject_unless_finite(2, [f"z{i}" for i in comps], 5)
    put(2, f"[{listed('k7_')}] = f([{listed('z')}])", "n_rhs += 6")
    for i in comps:
        # The scale takes max(|x|, |z|) the way the builtin picks it, inline.
        put(2, f"m{i} = abs(x{i})", f"n{i} = abs(z{i})",
            f"e{i} = h * ({combo(_E, i)}) / (atol + rtol * (n{i} if n{i} > m{i} else m{i}))")
    put(2, f"err = {_rms_expression([f'e{i}' for i in comps])}")
    reject_unless_finite(2, ["err"], 0)
    put(2, f"fac11 = err ** {_EXPO1!r}",
        "if err > 1.0:",
        "    n_error += 1",
        "    rejected = True",
        f"    a = fac11 / {_SAFETY!r}",
        f"    h = h / (a if a < {1.0 / _FAC_MIN!r} else {1.0 / _FAC_MIN!r})",
        "    continue")

    # Accepted.
    put(2, "n_steps += 1",
        "if not landing:",
        "    if h < h_min:", "        h_min = h",
        "    if h > h_max:", "        h_max = h",
        "tnew = t + h")
    put(2, *(f"G{k} = {event(k, 'z')}" for k in ev))
    # The interpolant's coefficients are built only for a step with an event
    # or a sample before tnew + slack.
    if events:
        put(2, f"crossing = {' or '.join(f'({crossing(k)})' for k in ev)}")
    put(2, "ts = t0 + sample_index * sample_dt", "bound = tnew + slack",
        f"if {'crossing or ' if events else ''}not ts > bound:")
    for i in comps:
        put(3, f"d1_{i} = z{i} - x{i}", f"d2_{i} = h * k1_{i} - d1_{i}",
            f"d3_{i} = d1_{i} - h * k7_{i} - d2_{i}", f"d4_{i} = h * ({combo(_D, i)})")
    blocks = ", ".join(listed(prefix) for prefix in ("x", "d1_", "d2_", "d3_", "d4_", "z"))
    put(3, "row = len(coeffs)", f"coeffs += pack(t, h, {blocks})", "cut = tnew")
    if events:
        # Events on (t, tnew]: locate each crossing by bisection over dense
        # output (~1e-13 in time) and record them in time order, each as a
        # row at its time, up to the first that stops the run; its time cuts
        # the step's grid samples. The rows go before the step's range entry,
        # so an event precedes a grid sample at its time (see _dense_rows).
        put(3, "if crossing:")
        put(4, "crossed = []")
        for k in ev:
            direction = events[k][1] or f"1 if g{k} < 0.0 else -1"
            put(4, f"if {crossing(k)}:", f"    crossed.append(({k}, g{k}, G{k}, {direction}))")
        put(4, "located = []", "for k, glo, gend, direction in crossed:",
            "    if gend == 0.0:", "        te = tnew", "    else:")
        put(6, "lo = t", "hi = tnew", "for _ in range(200):")
        put(7, "a = abs(hi)",
            "if hi - lo <= 1e-13 * (a if a > 1.0 else 1.0):",
            "    te = 0.5 * (lo + hi)", "    break",
            "mid = 0.5 * (lo + hi)")
        dense_at(7, "mid")
        for k in ev:  # event k's value, from the components it reads
            put(7, f"{'if' if k == 0 else 'elif'} k == {k}:")
            put(8, *(f"u{i} = {interpolant(i)}" for i in _fields(events[k][0], "y")),
                f"gm = {event(k, 'u')}")
        put(7, "if gm == 0.0:", "    te = mid", "    break",
            "if (glo < 0.0) == (gm < 0.0):", "    lo = mid", "    glo = gm",
            "else:", "    hi = mid")
        put(6, "else:", "    te = 0.5 * (lo + hi)")
        put(5, "located.append((te, specs[k], direction))")
        put(4, "located.sort(key=_time)", "for te, spec, direction in located:")
        # An event row takes the interpolant, as does its state, built here.
        put(5, "rec += (te, row, nan, 1)")
        dense_at(5, "te")
        state = ", ".join(interpolant(i) for i in comps)
        put(5, f"raw_events.append((te, spec, direction, [{state}]))",
            "if spec.stop is not None:",
            "    cut = te",
            "    stop = spec.stop",
            "    bound = cut + slack",
            "    break")
    # The grid samples: the indices from sample_index to the last i with
    # t0 + i * sample_dt <= bound, which the division finds to within its
    # rounding and the exact tests settle. An event step without one
    # records a range of n = 0. In a stopping step an index at or just
    # past cut reads "exact" by the range rule, which is harmless: its row
    # has the stop row's time, so the duplicate rule drops it.
    put(3, "i = (bound - t0) // sample_dt",
        "while t0 + (i + 1.0) * sample_dt <= bound:", "    i += 1.0",
        "while t0 + i * sample_dt > bound:", "    i -= 1.0",
        "rec += (cut, row, sample_index, i + 1.0 - sample_index)",
        "sample_index = i + 1.0")
    if events:
        put(3, "if stop is not None:", "    break")

    # PI controller update.
    put(2, f"fac = fac11 / facold ** {_BETA!r}",
        f"a = fac / {_SAFETY!r}",
        f"fac = a if a < {1.0 / _FAC_MIN!r} else {1.0 / _FAC_MIN!r}",
        f"fac = fac if fac > {1.0 / _FAC_MAX!r} else {1.0 / _FAC_MAX!r}",
        "hnew = h / fac",
        "if rejected and h < hnew:", "    hnew = h",
        "facold = 1e-4 if err < 1e-4 else err",
        "rejected = False",
        "t = tnew",
        *(f"x{i} = z{i}" for i in comps),
        *(f"k1_{i} = k7_{i}" for i in comps),
        *(f"g{k} = G{k}" for k in ev),
        "h = hnew")

    # After a stop the last row considered is the stop event's, at its time.
    put(1, "if stop is None:", "    rec += (t, len(coeffs), inf, 1)")
    exact_row(2)
    put(1, "stats = {",
        "    'n_steps': n_steps,",
        "    'n_rejected': n_error + n_nonfinite,",
        "    'n_rhs': n_rhs,",
        "    'n_rejected_error': n_error,",
        "    'n_rejected_nonfinite': n_nonfinite,",
        "    # Over accepted steps, leaving out one cut short to land on t_end.",
        "    'h_min': h_min if h_max else None,",
        "    'h_max': h_max if h_max else None,",
        "}",
        "if failure is not None:", "    stats['failure'] = failure",
        "return rec, coeffs, raw_events, stop, stats")
    source = (
        "from math import inf, nan, sqrt\n"
        "from operator import itemgetter\n"
        "from struct import Struct\n"
        "_time = itemgetter(0)\n"
        f"pack = Struct('{2 + 6 * d}d').pack\n"
        "def run(f, t0, y0, icfg, specs):\n"
        + "".join(f"{line}\n" for line in out)
    )
    described = "; ".join(
        expr + {0: "", 1: " rising", -1: " falling"}[direction] for expr, direction in events
    )
    return exec_source(source, f"<dopri5 loop d={d} events: {described}>")["run"]


def _dense_rows(rec, coeffs, d: int, t0: float, sample_dt: float):
    """The ``(times, states)`` arrays of the rows the loop recorded in ``rec``.

    ``coeffs`` holds packed float64 coefficient rows ``(t, h, x_i...,
    d1_i..., d2_i..., d3_i..., d4_i..., z_i...)``, one per recorded step.
    ``rec`` is flat, four numbers ``(t, row, i, n)`` an entry, where ``row``
    is the byte offset of a coefficient row:

    * ``n`` (possibly 0) grid samples ``i, i + 1, ...`` of a step cut at
      ``t``: with ``ts = t0 + i * sample_dt``, each lies at ``min(ts, t)``
      and takes the step's quartic interpolant, or its exact end state ``z``
      when ``ts >= t``. ``t`` is the step's end, or the time of the event
      that stops the run; a sample there reads "exact" too, which is
      harmless, as the stop event's row precedes it at the same time and
      the duplicate rule drops it;
    * ``n = 1`` with ``i`` nan: one row at ``t`` on the interpolant (an
      event); with ``i`` inf: one row at ``t`` with the end state (the start
      and ``t_end`` rows). The same rule gives both, as ``ts`` is then nan
      or inf and ``np.fmin`` passes over a nan.

    One stable sort by time merges an event step's event rows, which come
    first in ``rec``, with its grid rows; on a tie the event stays first. Then
    a row within ``1e-12 * max(t - t0, 1)`` of the last row kept is dropped:
    the window grows with the elapsed time, not with ``|t|``, so a run's rows
    do not depend on where its clock starts. The sorted times never
    decrease, so a row kept against the row before it is kept against the
    last kept row too; only a chain of dropped rows needs the test in turn.
    The rows' times, the sort and the drop rule work on 1-D arrays over all
    rows, so no rule crosses a block boundary. Every time is the loop's
    Python expression, and the interpolant is evaluated in the loop's
    operation order on blocks of :func:`row_blocks` rows, in place in the
    preallocated ``(n, d)`` states, so every bit is that of a per-row
    evaluation and no temporary holds more than one block. numpy's float
    warnings are off, as Python floats raise none.
    """
    width = 2 + 6 * d
    table = np.frombuffer(coeffs).reshape(-1, width)
    entries = np.array(rec, float).reshape(-1, 4)
    count = entries[:, 3].astype(np.intp)
    start = count.cumsum()
    start -= count
    entries[:, 2] -= start  # plus the row number: the sample index i
    entries[:, 1] /= table.itemsize * width  # byte offset -> row number
    # One value per row, repeated from its entry. Each all-row temporary is
    # deleted once used, as the (n, d) states come on top of what is left.
    ts = entries[:, 2].repeat(count)
    ts += np.arange(len(ts), dtype=float)
    ts *= sample_dt
    ts += t0
    ends = entries[:, 0].repeat(count)
    exact = ts >= ends
    times = np.fmin(ts, ends, out=ts)
    del ends
    k = entries[:, 1].astype(np.intp).repeat(count)
    # Merge each event step's event rows, recorded first, with its grid rows;
    # on a tie the event stays first.
    order = np.argsort(times, kind="stable")
    times, exact, k = times[order], exact[order], k[order]
    del order

    later = times[1:]
    tol = later - t0
    np.maximum(tol, 1.0, out=tol)
    tol *= 1e-12
    drop = []
    for j in (later - times[:-1] <= tol).nonzero()[0].tolist():
        j += 1
        if drop and drop[-1] == j - 1:  # test against the last kept row
            t = times[j]
            a = t - t0
            if t - kept > 1e-12 * (a if a > 1.0 else 1.0):
                kept = t
                continue
        else:
            kept = times[j - 1]
        drop.append(j)
    del later, tol
    if drop:
        keep = np.ones(len(times), bool)
        keep[drop] = False
        times, k, exact = times[keep], k[keep], exact[keep]

    # The x, d1, d2, d3, d4 and z columns of the coefficient rows.
    x, d1, d2, d3, d4, z = (table[:, 2 + j * d:2 + (j + 1) * d] for j in range(6))
    states = np.empty((len(times), d))
    with np.errstate(all="ignore"):
        for rows in row_blocks(len(times), d):
            kb, out = k[rows], states[rows]
            theta = table[:, 0].take(kb)
            np.subtract(times[rows], theta, out=theta)
            theta /= table[:, 1].take(kb)
            om = 1.0 - theta
            theta, om = theta[:, None], om[:, None]
            # x + theta * (d1 + om * (d2 + theta * (d3 + om * d4)))
            d4.take(kb, axis=0, out=out, mode="clip")  # clip: unbuffered
            out *= om
            out += d3.take(kb, axis=0)
            out *= theta
            out += d2.take(kb, axis=0)
            out *= om
            out += d1.take(kb, axis=0)
            out *= theta
            out += x.take(kb, axis=0)
            hit = exact[rows]
            out[hit] = z.take(kb[hit], axis=0)
    return times, states


def _propagate(
    f,
    t0: float,
    y0: Sequence[float],
    icfg: IntegratorConfig,
    specs: Sequence[_EventSpec] = (),
):
    """Adaptive loop for ``icfg.t_max`` from ``t0``, under the tolerances,
    step cap, sample grid and step budget of ``icfg``; ``f`` maps a state
    list to its derivative list, and an event whose spec names a ``stop``
    ends the run with that termination. Runs the loop :func:`_loop` compiled
    for the state dimension and the specs' expressions, and returns (times,
    states, raw events, termination, stats): ``times`` is the float array of
    sample times and ``states`` the ``(n, d)`` float array that
    :func:`_dense_rows` builds after the loop. Raw events are ``(t, spec,
    direction, y)`` tuples, ``y`` a list of floats. ``stats`` counts accepted steps, rejected
    attempts (in all, for an error norm above 1 and for a non-finite stage,
    update or error norm) and RHS calls, and gives ``h_min`` and ``h_max``
    over the accepted steps (None when there are none). On a step failure
    ``stats["failure"]`` names the guard that stopped the run:
    "nonfinite_start", "underflow", "budget" or "blowup"."""
    d = len(y0)
    run = _loop(d, tuple((spec.expr, spec.direction) for spec in specs))
    rec, coeffs, raw_events, stop, stats = run(f, t0, y0, icfg, tuple(specs))
    times, states = _dense_rows(rec, coeffs, d, t0, icfg.sample_dt)
    if "failure" in stats:
        termination = Termination.STEP_FAILURE
    else:
        termination = Termination.REACHED_TMAX if stop is None else stop
    return times, states, raw_events, termination, stats


def _event_specs(
    model: ModelConfig, icfg: IntegratorConfig, mark_positions: Sequence[float]
) -> list[_EventSpec]:
    """The events of :func:`integrate`: momentum sign changes, crossings of
    ``mark_positions``, outbound escape (a stop) and, at orders 2 and 3,
    ``G20*G02 - G11**2`` turning negative (a stop): no state can have that,
    so past it the moments describe no packet. Order 2 conserves the
    product, which then falls through zero only where the moments have
    grown so far that ``hbar**2/4`` is lost in their rounding."""
    radius = (
        icfg.escape_radius
        if icfg.escape_radius is not None
        else ESCAPE_RADIUS_SCALE * model.potential.a
    )

    specs = [_EventSpec("{y1}", kind="p_zero")]
    specs += [
        _EventSpec("{y0} - {c0}", kind="q_cross", values=(marker,), marker=marker)
        for marker in map(float, mark_positions)
    ]
    specs.append(
        _EventSpec(
            "abs({y0}) - {c0}",
            kind="escape",
            values=(radius,),
            stop=Termination.ESCAPED,
            direction=1,
        )
    )
    if model.order >= 2:
        specs.append(
            _EventSpec(
                _PRODUCT,
                kind="constraint",
                stop=Termination.CONSTRAINT_VIOLATED,
                direction=-1,
            )
        )
    return specs


def integrate(
    init: MomentState,
    model: ModelConfig,
    icfg: IntegratorConfig,
    mark_positions: Sequence[float] = (),
) -> Trajectory:
    """Propagate ``init`` to ``t_max`` or an early stop.

    Early stops: outbound escape through ``|q| = escape_radius`` (default
    ``ESCAPE_RADIUS_SCALE`` times the potential half-width), ``G20*G02 -
    G11**2`` turning negative (orders 2 and 3), or a step failure, whose cause
    ``stats["failure"]`` names: "nonfinite_start" (a non-finite first
    derivative or starting step; no step is attempted), "underflow" (step size
    below ``1e-14 * max(t - t0, 1)`` or too small to change ``t``), "budget"
    (``max_steps`` attempts used) or "blowup" (a state component beyond
    ``1e12``). ``mark_positions`` adds recorded (non-stopping) crossing
    events, typically the classical return points. At
    orders >= 2, ``stats["residual_min"]`` and ``stats["t_residual_min"]``
    give the lowest sampled uncertainty residual and its time.
    """
    if init.order != model.order:
        raise ValueError(
            f"initial state order {init.order} does not match model order {model.order}"
        )
    f = make_rhs(model)
    times, y_arr, raw_events, termination, stats = _propagate(
        f, init.t, state_to_vector(init), icfg, _event_specs(model, icfg, mark_positions)
    )

    order = model.order
    n, d = y_arr.shape
    h_q, v_eff = np.empty(n), np.empty(n)
    uncertainty = np.empty(n) if order >= 2 else np.full(n, np.nan)
    for rows in row_blocks(n, d):
        h_q[rows], v_eff[rows] = effective_series(y_arr[rows], model)
        if order >= 2:
            uncertainty[rows] = _residual(y_arr[rows].T, model.hbar * model.hbar / 4)
    if order >= 2:
        worst = int(np.argmin(uncertainty))
        stats["residual_min"] = float(uncertainty[worst])
        stats["t_residual_min"] = float(times[worst])

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
    return Trajectory(
        model=model,
        times=times,
        states=y_arr,
        h_q=h_q,
        v_eff=v_eff,
        uncertainty=uncertainty,
        termination=termination,
        events=events,
        stats=stats,
    )
