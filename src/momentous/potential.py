"""Smoothed barrier potential with exact derivatives of any order up to K_MAX.

The barrier family is ``V(q) = alpha / (q**(2n) + a**(2n))``: an even bump of
height ``V0 = alpha / a**(2n)`` at the origin whose shoulders sharpen toward a
square barrier of half-width ``a`` as ``n`` grows.

Derivatives are produced by truncated power-series (jet) arithmetic on the
composition ``q -> q**(2n) + a**(2n) -> alpha / u``, so every order comes out
exact to roundoff and nested quotient rules never appear. Finite differences
are used only by the test suite, as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

__all__ = [
    "K_MAX",
    "BarrierPotential",
    "InvalidEnergy",
    "NoTurningPoint",
    "UnsupportedOrder",
]

# Highest derivative order served by the jet. The third-order moment system
# needs V'''' (k=4); the rest is headroom.
K_MAX = 8

# k! as floats: they turn Taylor coefficients into derivatives.
_FACTORIALS = tuple(float(math.factorial(k)) for k in range(K_MAX + 1))


class UnsupportedOrder(ValueError):
    """Requested derivative order exceeds K_MAX."""


class InvalidEnergy(ValueError):
    """Energy must be strictly positive."""


class NoTurningPoint(ValueError):
    """No classical turning point: the energy exceeds the barrier top."""


@dataclass(frozen=True)
class BarrierPotential:
    """Even barrier ``V(q) = alpha / (q**(2n) + a**(2n))``.

    Parameters
    ----------
    alpha : float
        Barrier strength (energy * length**(2n)); nonzero.
    a : float
        Half-width; positive.
    n : int
        Smoothness exponent; >= 1. Large ``n`` approaches a square barrier.
    """

    alpha: float = 1.0
    a: float = 1.0
    n: int = 4

    def __post_init__(self) -> None:
        # Messages read "<field> <rule>", so a caller can prefix the section.
        if not self.a > 0:
            raise ValueError("a must be positive")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        if self.n != int(self.n) or self.n < 1:
            raise ValueError("n must be a positive integer")
        # Constants of the jet, computed once: the binomials C(2n, j) and a**(2n).
        # C(2n, j) grows up to j = n, so an overflow stops the loop early.
        two_n = 2 * self.n
        try:
            binomials = tuple(float(math.comb(two_n, j)) for j in range(two_n + 1))
        except OverflowError:
            raise ValueError("n is too large: C(2n, n) overflows a float") from None
        try:
            a_2n = self.a ** two_n
        except OverflowError:
            a_2n = math.inf
        if not 0.0 < a_2n < math.inf:
            raise ValueError(f"a**(2n) = {self.a!r}**{two_n} is outside the float range")
        if not math.isfinite(self.alpha / a_2n):
            raise ValueError("alpha / a**(2n), the barrier height, must be finite")
        object.__setattr__(self, "_binomials", binomials)
        object.__setattr__(self, "_a_2n", a_2n)

    @property
    def height(self) -> float:
        """Barrier top V(0) = alpha / a**(2n)."""
        return self.alpha / self._a_2n

    def __call__(self, q: float) -> float:
        """Evaluate V(q); finite for every real q (0 with alpha's sign where
        q**(2n) overflows)."""
        try:
            return self.alpha / (q ** (2 * self.n) + self._a_2n)
        except OverflowError:
            return math.copysign(0.0, self.alpha)

    def derivatives(self, q, k_max: int = 4) -> list:
        """Return ``[V(q), V'(q), ..., V^(k_max)(q)]`` in one jet pass.

        ``q`` may be a float or an ndarray. The recurrence is elementwise, so
        an array gives, entry by entry, the bits of the scalar calls; the
        caller's array is never modified.
        """
        if k_max < 0:
            raise UnsupportedOrder("derivative order must be non-negative")
        if k_max > K_MAX:
            raise UnsupportedOrder(
                f"derivative order {k_max} not supported (K_MAX = {K_MAX})"
            )
        two_n = 2 * self.n
        top = min(two_n, k_max)

        # Taylor coefficients of u(q + e) = (q + e)**two_n + a**two_n in e:
        # u[0] = q**two_n + a**two_n, u[j] = C(two_n, j) * q**(two_n - j) for
        # j = 1..top, with the powers of q by repeated multiplication.
        powers = [1.0, *accumulate(repeat(q, two_n), mul)]
        u0 = powers[two_n] + self._a_2n
        u = [u0] + list(map(mul, self._binomials[1:top + 1], powers[two_n - 1::-1]))

        # Reciprocal series w = alpha / u.
        w = [self.alpha / u0]
        for k in range(1, k_max + 1):
            acc = 0.0
            for j in range(1, (k if k < top else top) + 1):
                acc = acc + u[j] * w[k - j]
            w.append(-acc / u0)
        return list(map(mul, w, _FACTORIALS))

    def derivative(self, q: float, k: int) -> float:
        """Exact k-th derivative of V at q (k <= K_MAX)."""
        return self.derivatives(q, k)[k]

    def energy_ratio(self, energy: float) -> float:
        """Barrier top over particle energy; > 1 means classically forbidden."""
        if not energy > 0:
            raise InvalidEnergy("energy must be positive")
        return self.height / energy

    def turning_points(self, energy: float) -> tuple[float, float]:
        """Classical return points (-x, +x) where V(x) = energy.

        Uses the closed form ``x = a * (ratio - 1)**(1 / 2n)`` polished by one
        guarded Newton step, which protects the marginal case ratio ~ 1.
        Raises NoTurningPoint when the energy exceeds the barrier top.
        """
        ratio = self.energy_ratio(energy)
        if ratio < 1.0:
            raise NoTurningPoint("energy exceeds the barrier height")
        x = self.a * (ratio - 1.0) ** (1.0 / (2 * self.n))
        residual = self(x) - energy
        if residual != 0.0 and x > 0.0:
            slope = self.derivative(x, 1)
            if slope != 0.0:
                candidate = x - residual / slope
                if candidate > 0.0 and abs(self(candidate) - energy) < abs(residual):
                    x = candidate
        return (-x, x)
