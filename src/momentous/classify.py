"""Outcome tagging for integrated trajectories.

A below-barrier run, one whose barrier ``traj.model.potential`` has return
points ``+-x`` at the energy (``turning_points``), ends in exactly one of four
tags, judged from the final sampled state against ``+-x`` widened by the
margin (:func:`resolve_margin`, which the CLI applies too):

* ``TUNNELED``  -- final position beyond ``x + margin`` moving right;
* ``REFLECTED`` -- final position beyond ``-x - margin`` moving left;
  both require having approached within ``2x`` of the barrier center, which
  keeps the tags mirror-symmetric and rejects runs that never interacted;
* ``TRAPPED``   -- still inside ``|q| < x + margin`` at the time horizon with
  at least two momentum flips inside that window (the tag is
  horizon-relative: trapped particles leave eventually);
* ``UNDETERMINED`` otherwise, including runs at or above the barrier top
  and integrations that stopped on a constraint violation or step failure.

A momentum flip is a ``p_zero`` event of the trajectory, located by the
integrator; the sampled momenta are not scanned, so a trajectory without
events has no flips.

An undetermined below-barrier run that stopped normally gives one reason of
a fixed vocabulary, tested in this order: "inside the window with fewer than
two momentum flips"; "outside the window, not moving away"; "moving away
without having come within 2x of the barrier centre".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import Termination, Trajectory

__all__ = ["Evidence", "InvalidMargin", "Outcome", "Tag", "classify"]


# The default margin, in units of the potential half-width ``a``.
MARGIN_SCALE = 0.05


class InvalidMargin(ValueError):
    """Classification margin must be finite and non-negative."""


def resolve_margin(margin: Optional[float], a: float) -> float:
    """``margin``, or ``MARGIN_SCALE * a`` for None; InvalidMargin for a
    negative or non-finite one."""
    margin = MARGIN_SCALE * a if margin is None else margin
    if not math.isfinite(margin):
        raise InvalidMargin("margin must be finite")
    if margin < 0:
        raise InvalidMargin("margin must be non-negative")
    return margin


class Tag(enum.Enum):
    REFLECTED = "reflected"
    TUNNELED = "tunneled"
    TRAPPED = "trapped"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Evidence:
    """Measurements backing a tag; times lie within the trajectory span."""

    barrier_entry_time: Optional[float]
    barrier_exit_time: Optional[float]
    barrier_exit_side: Optional[int]  # +1 right, -1 left
    sign_changes_inside: int
    final_q: float
    final_p: float
    time_horizon: float
    reason: str = ""


@dataclass(frozen=True)
class Outcome:
    tag: Tag
    evidence: Evidence


def classify(traj: Trajectory, energy: float, margin: Optional[float] = None) -> Outcome:
    """Tag a terminated trajectory by the barrier of the model it was
    integrated under; ``margin`` is resolved by :func:`resolve_margin`."""
    pot = traj.model.potential
    margin = resolve_margin(margin, pot.a)

    q = traj.q
    p = traj.p
    t = traj.times
    final_q = float(q[-1])
    final_p = float(p[-1])
    horizon = float(t[-1])

    marks = pot.turning_points(energy)
    if not marks:
        return Outcome(Tag.UNDETERMINED, Evidence(
            barrier_entry_time=None,
            barrier_exit_time=None,
            barrier_exit_side=None,
            sign_changes_inside=0,
            final_q=final_q,
            final_p=final_p,
            time_horizon=horizon,
            reason="energy at or above the barrier top",
        ))

    x = marks[1]
    window = x + margin

    distance = np.abs(q)
    inside = distance < x
    entry = float(t[np.argmax(inside)]) if inside.any() else None
    exit_t = None
    side = None
    leaving = np.where(inside[:-1] & ~inside[1:])[0]
    if leaving.size:
        j = int(leaving[-1]) + 1
        exit_t = float(t[j])
        side = 1 if q[j] > 0 else -1

    flips_inside = sum(
        1 for e in traj.events if e.kind == "p_zero" and abs(e.y[0]) < window
    )

    tag, reason = _verdict(traj, distance, final_q, final_p, x, window, flips_inside)
    return Outcome(tag, Evidence(
        barrier_entry_time=entry,
        barrier_exit_time=exit_t,
        barrier_exit_side=side,
        sign_changes_inside=flips_inside,
        final_q=final_q,
        final_p=final_p,
        time_horizon=horizon,
        reason=reason,
    ))


def _verdict(traj: Trajectory, distance: np.ndarray, final_q: float, final_p: float, x: float,
             window: float, flips_inside: int) -> tuple[Tag, str]:
    """The tag of a below-barrier run with return points ``+-x``, whose
    sampled ``|q|`` is ``distance``, and its reason ("" for a tag other than
    undetermined)."""
    if traj.termination in (Termination.CONSTRAINT_VIOLATED, Termination.STEP_FAILURE):
        return Tag.UNDETERMINED, f"integration stopped early: {traj.termination.value}"

    approached = float(np.min(distance)) <= 2 * x
    if final_q > window and final_p > 0 and approached:
        return Tag.TUNNELED, ""
    if final_q < -window and final_p < 0 and approached:
        return Tag.REFLECTED, ""
    if (
        abs(final_q) < window
        and flips_inside >= 2
        and traj.termination is Termination.REACHED_TMAX
    ):
        return Tag.TRAPPED, ""
    if abs(final_q) < window:
        reason = "inside the window with fewer than two momentum flips"
    elif final_q * final_p <= 0:
        reason = "outside the window, not moving away"
    else:  # an approached run would have matched a tag above
        reason = "moving away without having come within 2x of the barrier centre"
    return Tag.UNDETERMINED, reason
