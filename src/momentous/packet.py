"""Gaussian wavepacket initial data for the moment system.

A packet centered at (q0, p0) with position spread sigma0 gives the
initial state of every truncation order of a model, under the model's
hbar: the bare ``(q0, p0)`` at order 0; at orders 2 and 3 also second
moments that saturate the uncertainty relation exactly: ``G20 = sigma0**2``,
``G11 = 0``, ``G02 = (hbar / (2 sigma0))**2``.

Third moments come in two conventions, a field of the packet: the default
"skewed" convention sets ``G03 = -hbar**2 p0 / sigma0**2`` with the other
three zero; the "zero" convention zeroes all four, which is the
symmetric-packet value. Arithmetic is type-preserving, so exact
(``fractions.Fraction``) inputs yield exact moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import ModelConfig, MomentState

__all__ = ["GaussianPacket", "THIRD_MOMENT_CONVENTIONS", "initial_moments"]

THIRD_MOMENT_CONVENTIONS = ("skewed", "zero")


@dataclass(frozen=True)
class GaussianPacket:
    """Minimum-uncertainty packet: mean position, mean momentum, spread and
    the convention of its third moments."""

    q0: float
    p0: float
    sigma0: float = 0.5
    third_moment_convention: str = "skewed"

    def __post_init__(self) -> None:
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if self.third_moment_convention not in THIRD_MOMENT_CONVENTIONS:
            raise ValueError(
                f"third_moment_convention must be one of {list(THIRD_MOMENT_CONVENTIONS)}"
            )


def initial_moments(packet: GaussianPacket, model: ModelConfig) -> MomentState:
    """State of the packet at t = 0 at the model's truncation order and hbar.

    The second moments saturate ``G20*G02 - G11**2 = hbar**2/4`` exactly; a
    moment outside the float range raises a ``ValueError`` naming sigma0.
    """
    sigma0, hbar, order = packet.sigma0, model.hbar, model.order
    zero = 0 * sigma0
    moments = ()
    try:
        if order >= 2:
            moments = (sigma0 * sigma0, zero, (hbar / (2 * sigma0)) ** 2)
        if order == 3:
            if packet.third_moment_convention == "skewed":
                g03 = -(hbar ** 2) * packet.p0 / sigma0 ** 2
            else:
                g03 = zero
            moments += (zero, zero, zero, g03)
        finite = all(math.isfinite(g) for g in moments)
    except ArithmeticError:  # a power beyond the float range, or sigma0**2 = 0
        finite = False
    if not finite:
        raise ValueError(
            f"sigma0 = {sigma0!r} gives initial moments outside the float range"
        )
    return MomentState(t=0.0, q=packet.q0, p=packet.p0, moments=moments)
