"""Per-call costs on fixed inputs, and the host-speed calibration loop.

Both are diagnostics printed beside the traced numbers, never gates. Each
micro-run looks its target up by name when it runs, so a renamed or deleted
function shows up as absent rather than failing the benchmark.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 5
CALLS = 4000
CALIBRATION_LOOPS = 1_500_000

# A state near the barrier shoulder, where every jet term is nonzero.
_Q, _P = -0.7, 0.3
_MOMENTS_2 = (0.09, 0.0, 2.7777777777777777)
_MOMENTS_3 = _MOMENTS_2 + (0.0, 0.0, 0.0, -0.4)


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop: how fast this host runs now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def _per_call_us(fn, calls: int = CALLS) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6 / calls


def _cases():
    """(metric, unit, zero-argument callable factory)."""
    from momentous import dynamics, potential

    def pot():
        return potential.BarrierPotential(alpha=1.0, a=1.0, n=4)

    def jet(k):
        p = pot()
        return lambda: p.derivatives(_Q, k)

    def rhs(order, moments):
        f = dynamics.make_rhs(dynamics.ModelConfig(potential=pot(), order=order))
        y = [_Q, _P, *moments]
        return lambda: f(y)

    def veff():
        cfg = dynamics.ModelConfig(potential=pot(), order=2)
        state = dynamics.MomentState(t=0.0, q=_Q, p=_P, moments=_MOMENTS_2)
        return lambda: dynamics.effective_potential(_Q, state, cfg)

    return (
        ("potential.derivatives.k3_us", lambda: jet(3), CALLS),
        ("potential.derivatives.k4_us", lambda: jet(4), CALLS),
        ("dynamics.rhs.order2_us", lambda: rhs(2, _MOMENTS_2), CALLS),
        ("dynamics.rhs.order3_us", lambda: rhs(3, _MOMENTS_3), CALLS),
        ("dynamics.effective_potential.us", veff, CALLS),
        ("dynamics.eom_table.us", lambda: (lambda: dynamics.eom_table(3)), 100),
    )


def micro_metrics() -> tuple[dict[str, tuple[float, str]], list[str]]:
    """({metric: (microseconds per call, "us")}, names found absent)."""
    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name, make, calls in _cases():
        try:
            fn = make()
            fn()
        except (AttributeError, ImportError, TypeError) as exc:
            absent.append(f"{name}: {exc}")
            out[name] = (0.0, "us")
            continue
        out[name] = (_per_call_us(fn, calls), "us")
    return out, absent
