"""Adaptive trajectory integration with dense output and event capture.

The stepper is the Dormand-Prince 5(4) embedded pair (the 5th-order solution
is propagated, the 4th-order companion provides the error estimate) with the
beta-damped PI step-size controller and the quartic dense-output interpolant
of Hairer, Norsett & Wanner, "Solving Ordinary Differential Equations I".

An explicit pair is used deliberately: the moment system is not separable,
and exact conservation of the effective Hamiltonian then serves as an
independent accuracy diagnostic rather than a built-in property.

The state has at most nine components, so the stepper works on plain lists
of Python floats rather than numpy arrays, whose per-call overhead would
dominate. Each stage, the 5th-order update, the error estimate and the dense
output is one expression per component over the tableau constants; the error
norm sums its squares in numpy's pairwise order. Step sizes, samples and
events are therefore those of an array implementation, bit for bit.

Recorded along the way:

* samples on a fixed ``sample_dt`` grid (via dense output) plus event points;
* events: momentum sign changes, crossings of caller-supplied position
  markers (classical return points), outbound escape, and violation of the
  uncertainty constraint beyond ``-10 * atol`` (terminal);
* per-sample series, computed once per trajectory on the ``(n, d)`` sample
  array: effective Hamiltonian, effective potential at the mean position,
  and the uncertainty-product residual;
* on a step failure, its cause: step-size underflow, the ``max_steps``
  budget, or a state blowup.

Runs are bit-reproducible: identical configuration yields identical output.
"""

from __future__ import annotations

import enum
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
    terminal: bool = False
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


# Dormand-Prince 5(4) tableau, one module float per nonzero entry. The stages
# need no time nodes: the moment system is autonomous. The 5th-order weights B
# double as row 7 of A (FSAL); b2, e2 and d2 are zero and left out.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Difference between the 5th- and 4th-order weights.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)
# Dense-output weights for the quartic interpolant.
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - _BETA * 0.75
_FAC_MIN = 0.2  # strongest allowed shrink per step
_FAC_MAX = 10.0  # strongest allowed growth per step


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _rms(v) -> float:
    """Root mean square of a float list.

    The squares are summed in the order of numpy's pairwise sum (``np.mean``):
    left to right below 8 terms, otherwise 8 interleaved partial sums (for up
    to 128 terms) combined as a tree, then the remainder. Step sizes therefore
    repeat those of an array implementation bit for bit.
    """
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


def _initial_step(f, y0, k1, rtol, atol, span, max_step):
    """Hairer's starting-step heuristic."""
    sc = [atol + rtol * abs(a) for a in y0]
    d0 = _rms([a / s for a, s in zip(y0, sc)])
    d1 = _rms([a / s for a, s in zip(k1, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    f1 = f([a + h0 * b for a, b in zip(y0, k1)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, k1, sc)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span, max_step)


def _stages(f, h, y, k1):
    """The stages of one Dormand-Prince step of size ``h`` from ``y``, whose
    derivative is ``k1``.

    Returns ``(rhs_calls, result)``. ``result`` is ``(y1, k3, k4, k5, k6,
    k7)`` with ``y1`` the 5th-order update and ``k7 = f(y1)``, or None when a
    stage state or ``y1`` is not finite. ``k2`` is not returned: its weights
    in the update, the error estimate and the dense output are zero.
    """
    ys = [a + h * (_A21 * b) for a, b in zip(y, k1)]
    if not _finite(ys):
        return 0, None
    k2 = f(ys)
    ys = [a + h * (_A31 * b + _A32 * c) for a, b, c in zip(y, k1, k2)]
    if not _finite(ys):
        return 1, None
    k3 = f(ys)
    ys = [
        a + h * (_A41 * b + _A42 * c + _A43 * d)
        for a, b, c, d in zip(y, k1, k2, k3)
    ]
    if not _finite(ys):
        return 2, None
    k4 = f(ys)
    ys = [
        a + h * (_A51 * b + _A52 * c + _A53 * d + _A54 * e)
        for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    ]
    if not _finite(ys):
        return 3, None
    k5 = f(ys)
    ys = [
        a + h * (_A61 * b + _A62 * c + _A63 * d + _A64 * e + _A65 * g)
        for a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5)
    ]
    if not _finite(ys):
        return 4, None
    k6 = f(ys)
    y1 = [
        a + h * (_B1 * b + _B3 * d + _B4 * e + _B5 * g + _B6 * x)
        for a, b, d, e, g, x in zip(y, k1, k3, k4, k5, k6)
    ]
    if not _finite(y1):
        return 5, None
    return 6, (y1, k3, k4, k5, k6, f(y1))


class _DenseOutput:
    """Quartic interpolant over one accepted step, one coefficient tuple per
    state component."""

    __slots__ = ("t0", "h", "coeffs")

    def __init__(self, t0, h, y0, y1, k1, k3, k4, k5, k6, k7):
        self.t0 = t0
        self.h = h
        coeffs = []
        for a, b, c1, c3, c4, c5, c6, c7 in zip(y0, y1, k1, k3, k4, k5, k6, k7):
            ydiff = b - a
            bspl = h * c1 - ydiff
            coeffs.append((
                a,
                ydiff,
                bspl,
                ydiff - h * c7 - bspl,
                h * (_D1 * c1 + _D3 * c3 + _D4 * c4 + _D5 * c5 + _D6 * c6 + _D7 * c7),
            ))
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
    t_end: float,
    *,
    rtol: float,
    atol: float,
    max_step: float,
    sample_dt: float,
    specs: Sequence[_EventSpec] = (),
    max_steps: int = 2_000_000,
):
    """Generic adaptive loop over float lists; ``f`` maps a state list to its
    derivative list. Returns (times, states, raw events, termination, stats),
    with each state a list of floats. Raw events are ``(t, spec, direction,
    y)`` tuples. On a step failure ``stats["failure"]`` names the guard that
    stopped the run: "underflow", "budget" or "blowup"."""
    t = t0
    y = [float(a) for a in y0]
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
    n_rejected = 0
    termination = Termination.REACHED_TMAX
    failure = None

    def record(tr, yr):
        if tr - times[-1] > 1e-12 * max(1.0, abs(tr)):
            times.append(tr)
            states.append(yr)

    while t_end - t > 1e-12 * max(1.0, abs(t_end)):
        h = min(h, max_step, t_end - t)
        # Underflow, iteration-budget and blowup guards: the truncated moment
        # hierarchy can develop finite-time blowups, which must surface as a
        # step failure with the partial trajectory intact.
        if h < 1e-14 * max(1.0, abs(t)):
            failure = "underflow"
        elif n_steps + n_rejected >= max_steps:
            failure = "budget"
        elif max(map(abs, y)) > 1e12:
            failure = "blowup"
        if failure is not None:
            termination = Termination.STEP_FAILURE
            break

        # Stages (FSAL: k1 carried over from the previous step).
        calls, result = _stages(f, h, y, k1)
        n_rhs += calls
        if result is not None:
            y1, k3, k4, k5, k6, k7 = result
            err = _rms([
                h * (_E1 * b + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * x)
                / (atol + rtol * max(abs(a0), abs(a1)))
                for a0, a1, b, c, d, e, g, x in zip(y, y1, k1, k3, k4, k5, k6, k7)
            ])
        if result is None or not math.isfinite(err):
            n_rejected += 1
            rejected = True
            h *= 0.1
            continue

        fac11 = err ** _EXPO1
        if err > 1.0:
            n_rejected += 1
            rejected = True
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFETY)
            continue

        # Accepted.
        n_steps += 1
        tnew = t + h
        dense = _DenseOutput(t, h, y, y1, k1, k3, k4, k5, k6, k7)

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
        terminal_spec = None
        kept_events = []
        for te, spec, direction in located:
            kept_events.append((te, spec, direction))
            if spec.terminal:
                cut = te
                terminal_spec = spec
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

        if terminal_spec is not None:
            termination = (
                Termination.ESCAPED
                if terminal_spec.kind == "escape"
                else Termination.CONSTRAINT_VIOLATED
            )
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
    stats = {"n_steps": n_steps, "n_rejected": n_rejected, "n_rhs": n_rhs}
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
    beyond ``1e12``). ``mark_positions`` adds recorded (non-terminal) crossing
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
            terminal=True,
            direction=1,
        )
    )
    quarter = model.hbar * model.hbar / 4
    if model.order >= 2:
        floor = -10.0 * icfg.atol

        def constraint(y):
            return _residual(y, quarter) - floor

        specs.append(
            _EventSpec(constraint, kind="constraint", terminal=True, direction=-1)
        )

    f = make_rhs(model)
    times, states, raw_events, termination, stats = _integrate_core(
        f,
        init.t,
        state_to_vector(init),
        init.t + icfg.t_max,
        rtol=icfg.rtol,
        atol=icfg.atol,
        max_step=icfg.max_step,
        sample_dt=icfg.sample_dt,
        specs=specs,
        max_steps=icfg.max_steps,
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
