"""Adaptive trajectory integration with dense output and event capture.

The stepper is the Dormand-Prince 5(4) embedded pair (the 5th-order solution
is propagated, the 4th-order companion provides the error estimate) with the
beta-damped PI step-size controller and the quartic dense-output interpolant
of Hairer, Norsett & Wanner, "Solving Ordinary Differential Equations I".

An explicit pair is used deliberately: the moment system is not separable,
and exact conservation of the effective Hamiltonian then serves as an
independent accuracy diagnostic rather than a built-in property.

The state has at most nine components, so the stepper works on Python floats
rather than numpy arrays, whose per-call overhead would dominate. One step
attempt is one call of a kernel generated per state dimension from the
tableau: straight-line code with one local per component and stage that runs
the six stages (checking each stage state for finiteness), the 5th-order
update, the error norm and the dense-output coefficients, and calls the RHS
it is given. Every expression keeps the per-component operation order, and
the error norm sums its squares in numpy's pairwise order, so step sizes,
samples and events are those of an array implementation, bit for bit.

Recorded along the way:

* samples on a fixed ``sample_dt`` grid (via dense output) plus event points;
* events: momentum sign changes, crossings of caller-supplied position
  markers (classical return points), outbound escape, and violation of the
  uncertainty constraint beyond ``-10 * atol`` (which stops the run);
* per-sample series, computed once per trajectory on the ``(n, d)`` sample
  array: effective Hamiltonian, effective potential at the mean position,
  and the uncertainty-product residual;
* on a step failure, its cause: step-size underflow, the ``max_steps``
  budget, or a state blowup.

Runs are bit-reproducible: identical configuration yields identical output.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    escape_radius: Optional[float] = None  # None -> 10 * potential half-width
    sample_dt: float = 0.01
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        for name in ("rtol", "atol", "t_max", "max_step", "sample_dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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
    fn: Callable[[Sequence[float]], float]
    kind: str
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


def _residual(y, quarter):
    """The uncertainty residual of a state vector, or per sample of the
    transposed ``(d, n)`` sample array; ``quarter`` is ``hbar**2/4``."""
    return y[2] * y[4] - y[3] * y[3] - quarter


def uncertainty_residual(state: MomentState, hbar: float) -> float:
    """``G20*G02 - G11**2 - hbar**2/4``; negative values violate the
    uncertainty relation."""
    if state.order < 2:
        raise ValueError("uncertainty residual requires truncation order >= 2")
    return _residual((state.q, state.p) + state.moments, hbar * hbar / 4)


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


def _initial_step(f, y0, k1, rtol, atol, span, max_step):
    """Hairer's starting-step heuristic."""
    rms = _rms_kernel(len(y0))
    sc = [atol + rtol * abs(a) for a in y0]
    d0 = rms([a / s for a, s in zip(y0, sc)])
    d1 = rms([a / s for a, s in zip(k1, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    f1 = f([a + h0 * b for a, b in zip(y0, k1)])
    d2 = rms([(a - b) / s for a, b, s in zip(f1, k1, sc)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span, max_step)


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


@functools.lru_cache(maxsize=None)
def _rms_kernel(d: int):
    """Compile ``rms(v)`` for a list of ``d`` floats, from :func:`_rms_expression`."""
    names = [f"v{i}" for i in range(d)]
    source = (
        "from math import sqrt\n"
        "def rms(v):\n"
        f"    [{', '.join(names)}] = v\n"
        f"    return {_rms_expression(names)}\n"
    )
    return exec_source(source, f"<rms kernel d={d}>")["rms"]


@functools.lru_cache(maxsize=None)
def _step_kernel(d: int):
    """Compile ``make(f, rtol, atol) -> step(h, y, k1)`` for ``d`` components.

    ``step`` takes one Dormand-Prince step of size ``h`` from the state list
    ``y`` with derivative ``k1`` (FSAL), written out as straight-line code:
    component ``i`` of stage ``j`` is the local ``k{j}_{i}``. It returns
    ``(rhs_calls, err, (y1, k7, coeffs))``: the 5th-order update ``y1`` with
    ``k7 = f(y1)``, the dense-output coefficients of :class:`_DenseOutput` and
    the scaled error norm of :func:`_rms_expression`. When a stage state or
    ``y1`` is not finite it returns ``(rhs_calls, nan, None)`` at once. Each
    expression keeps the operation order of the per-component list code it
    replaces, so every bit is that code's.
    """
    comps = range(d)

    def listed(prefix):
        return ", ".join(f"{prefix}{i}" for i in comps)

    def combo(weights, i):
        return " + ".join(f"{w!r} * k{j}_{i}" for j, w in weights)

    def bail_unless_finite(prefix, calls):
        # 0.0 * v is a zero for every finite v and nan for inf or nan.
        test = " + ".join(f"0.0 * {prefix}{i}" for i in comps)
        return [f"if {test} != 0.0:", f"    return {calls}, nan, None"]

    lines = [f"[{listed('x')}] = y", f"[{listed('k1_')}] = k1"]
    for j, row in enumerate(_A, start=2):
        lines += [f"s{i} = x{i} + h * ({combo(row, i)})" for i in comps]
        lines += bail_unless_finite("s", j - 2)
        lines.append(f"[{listed(f'k{j}_')}] = f([{listed('s')}])")
    lines += [f"z{i} = x{i} + h * ({combo(_B, i)})" for i in comps]
    lines += bail_unless_finite("z", 5)
    lines += [f"y1 = [{listed('z')}]", "k7 = f(y1)", f"[{listed('k7_')}] = k7"]
    for i in comps:
        # The scale takes max(|x|, |z|) the way the builtin picks it, inline.
        scale = f"atol + rtol * (n{i} if n{i} > m{i} else m{i})"
        lines += [f"m{i} = abs(x{i})", f"n{i} = abs(z{i})",
                  f"e{i} = h * ({combo(_E, i)}) / ({scale})"]
    lines.append(f"err = {_rms_expression([f'e{i}' for i in comps])}")
    for i in comps:
        lines += [f"w{i} = z{i} - x{i}", f"b{i} = h * k1_{i} - w{i}"]
    coeffs = ", ".join(
        f"(x{i}, w{i}, b{i}, w{i} - h * k7_{i} - b{i}, h * ({combo(_D, i)}))" for i in comps
    )
    lines.append(f"return 6, err, (y1, k7, [{coeffs}])")
    source = (
        "from math import nan, sqrt\n"
        "def make(f, rtol, atol):\n"
        "    def step(h, y, k1):\n"
        + "".join(f"        {line}\n" for line in lines)
        + "    return step\n"
    )
    return exec_source(source, f"<dopri5 step kernel d={d}>")["make"]


class _DenseOutput:
    """Quartic interpolant over one accepted step, one coefficient tuple per
    state component (as the step kernel returns them)."""

    __slots__ = ("t0", "h", "coeffs")

    def __init__(self, t0, h, coeffs):
        self.t0 = t0
        self.h = h
        self.coeffs = coeffs

    def __call__(self, t):
        theta = (t - self.t0) / self.h
        om = 1 - theta
        return [
            c0 + theta * (c1 + om * (c2 + theta * (c3 + om * c4)))
            for c0, c1, c2, c3, c4 in self.coeffs
        ]


def _locate_zero(fn, t0, t1, g0, dense):
    """Bisect a sign change of ``fn`` over dense output; ~1e-13 in time."""
    lo, hi = t0, t1
    glo = g0
    for _ in range(200):
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        gm = fn(dense(mid))
        if gm == 0.0:
            return mid
        if (glo < 0.0) == (gm < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _integrate_core(
    f,
    t0: float,
    y0: Sequence[float],
    icfg: IntegratorConfig,
    specs: Sequence[_EventSpec] = (),
):
    """Generic adaptive loop over float lists for ``icfg.t_max`` from ``t0``,
    under the tolerances, step cap, sample grid and step budget of ``icfg``;
    ``f`` maps a state list to its derivative list, and an event whose spec
    names a ``stop`` ends the run with that termination. Returns (times,
    states, raw events, termination, stats), with each state a list of floats.
    Raw events are ``(t, spec, direction, y)`` tuples. ``stats`` counts
    accepted steps, rejected attempts (in all, for an error norm above 1 and
    for a non-finite stage, update or error norm) and RHS calls, and gives
    ``h_min`` and ``h_max`` over the accepted steps (None when there are
    none). On a step failure ``stats["failure"]`` names the guard that
    stopped the run: "underflow", "budget" or "blowup"."""
    rtol, atol, max_step = icfg.rtol, icfg.atol, icfg.max_step
    sample_dt, max_steps = icfg.sample_dt, icfg.max_steps
    t_end = t0 + icfg.t_max
    t = t0
    y = [float(a) for a in y0]
    step = _step_kernel(len(y))(f, rtol, atol)
    k1 = f(y)
    h = _initial_step(f, y, k1, rtol, atol, t_end - t0, max_step)
    n_rhs = 2  # k1 and the starting-step probe

    times = [t]
    states = [y]
    raw_events: list[tuple[float, _EventSpec, int, list]] = []
    g_prev = [spec.fn(y) for spec in specs]
    sample_index = 1
    facold = 1e-4
    rejected = False
    n_steps = 0
    n_error = 0  # rejected for err > 1
    n_nonfinite = 0  # rejected for a non-finite stage, update or err
    h_min, h_max = math.inf, 0.0
    termination = Termination.REACHED_TMAX
    failure = None

    def record(tr, yr):
        if tr - times[-1] > 1e-12 * max(1.0, abs(tr)):
            times.append(tr)
            states.append(yr)

    while t_end - t > 1e-12 * max(1.0, abs(t_end)):
        h = min(h, max_step)
        landing = h > t_end - t  # cut short to land on t_end
        if landing:
            h = t_end - t
        # Underflow, iteration-budget and blowup guards: the truncated moment
        # hierarchy can develop finite-time blowups, which must surface as a
        # step failure with the partial trajectory intact.
        if h < 1e-14 * max(1.0, abs(t)):
            failure = "underflow"
        elif n_steps + n_error + n_nonfinite >= max_steps:
            failure = "budget"
        elif max(map(abs, y)) > 1e12:
            failure = "blowup"
        if failure is not None:
            termination = Termination.STEP_FAILURE
            break

        # One step attempt (FSAL: k1 carried over from the previous step).
        calls, err, result = step(h, y, k1)
        n_rhs += calls
        if not math.isfinite(err):  # a stage, the update or the error norm
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

        # Accepted.
        n_steps += 1
        if not landing:
            h_min = min(h_min, h)
            h_max = max(h_max, h)
        tnew = t + h
        y1, k7, coeffs = result
        dense = _DenseOutput(t, h, coeffs)

        # Events on (t, tnew].
        located: list[tuple[float, _EventSpec, int]] = []
        g_new = []
        for spec, g0 in zip(specs, g_prev):
            g1 = spec.fn(y1)
            g_new.append(g1)
            crossed = (g0 < 0.0 < g1) or (g0 > 0.0 > g1) or (g0 != 0.0 and g1 == 0.0)
            if not crossed:
                continue
            direction = 1 if g0 < 0.0 else -1
            if spec.direction and spec.direction != direction:
                continue
            te = tnew if g1 == 0.0 else _locate_zero(spec.fn, t, tnew, g0, dense)
            located.append((te, spec, direction))
        located.sort(key=lambda item: item[0])

        cut = tnew
        kept_events = []
        for te, spec, direction in located:
            kept_events.append((te, spec, direction))
            if spec.stop is not None:
                cut, termination = te, spec.stop
                break

        # Merge grid samples and event points in time order.
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

        if termination is not Termination.REACHED_TMAX:  # an event stopped the run
            t, y = cut, dense(cut)
            break

        # PI controller update.
        fac = fac11 / facold ** _BETA
        fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
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
        # Over accepted steps, leaving out one cut short to land on t_end.
        "h_min": h_min if h_max else None,
        "h_max": h_max if h_max else None,
    }
    if failure is not None:
        stats["failure"] = failure
    return times, states, raw_events, termination, stats


def integrate(
    init: MomentState,
    model: ModelConfig,
    icfg: IntegratorConfig,
    mark_positions: Sequence[float] = (),
) -> Trajectory:
    """Propagate ``init`` to ``t_max`` or an early stop.

    Early stops: outbound escape through ``|q| = escape_radius`` (default
    ``10 *`` the potential half-width), uncertainty residual below
    ``-10 * atol`` (orders >= 2), or a step failure, whose cause
    ``stats["failure"]`` names: "underflow" (step size below ``1e-14 * |t|``),
    "budget" (``max_steps`` attempts used) or "blowup" (a state component
    beyond ``1e12``). ``mark_positions`` adds recorded (non-stopping) crossing
    events, typically the classical return points.
    """
    if init.order != model.order:
        raise ValueError(
            f"initial state order {init.order} does not match model order {model.order}"
        )
    radius = (
        icfg.escape_radius
        if icfg.escape_radius is not None
        else 10.0 * model.potential.a
    )

    specs: list[_EventSpec] = [_EventSpec(lambda y: y[1], kind="p_zero")]
    for marker in mark_positions:
        specs.append(
            _EventSpec(
                (lambda mk: lambda y: y[0] - mk)(float(marker)),
                kind="q_cross",
                marker=float(marker),
            )
        )
    specs.append(
        _EventSpec(
            lambda y: abs(y[0]) - radius,
            kind="escape",
            stop=Termination.ESCAPED,
            direction=1,
        )
    )
    quarter = model.hbar * model.hbar / 4
    if model.order >= 2:
        floor = -10.0 * icfg.atol

        def constraint(y):
            return _residual(y, quarter) - floor

        stop = Termination.CONSTRAINT_VIOLATED
        specs.append(_EventSpec(constraint, kind="constraint", stop=stop, direction=-1))

    f = make_rhs(model)
    times, states, raw_events, termination, stats = _integrate_core(
        f, init.t, state_to_vector(init), icfg, specs
    )

    order = model.order
    t_arr = np.array(times)
    y_arr = np.array(states)
    n = len(t_arr)
    h_q, v_eff = effective_series(y_arr, model)
    if order >= 2:
        uncertainty = _residual(y_arr.T, quarter)
    else:
        uncertainty = np.full(n, np.nan)

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
        times=t_arr,
        states=y_arr,
        h_q=h_q,
        v_eff=v_eff,
        uncertainty=uncertainty,
        termination=termination,
        events=events,
        stats=stats,
    )
