"""Smoothed barrier potential with exact derivatives of any order up to K_MAX.

The barrier family is ``V(q) = alpha / (q**(2n) + a**(2n))``: an even bump of
height ``V0 = alpha / a**(2n)`` at the origin whose shoulders sharpen toward a
square barrier of half-width ``a`` as ``n`` grows.

Derivatives are produced by truncated power-series (jet) arithmetic on the
composition ``q -> q**(2n) + a**(2n) -> alpha / u``, so every order comes out
exact to roundoff and nested quotient rules never appear. :func:`jet_lines`
writes it as straight-line code, run by ``derivatives`` and inlined into the
moment kernels of ``dynamics``. ``turning_points`` alone decides whether an
energy is below the top; finite differences only serve as a test oracle.
"""

from __future__ import annotations

import functools
import linecache
import math
import zlib
from dataclasses import dataclass

__all__ = [
    "K_MAX",
    "BarrierPotential",
    "InvalidEnergy",
    "UnsupportedOrder",
]

# Highest derivative order served by the jet. The third-order moment system
# needs V'''' (k=4); the rest is headroom.
K_MAX = 8

# Largest exponent n whose C(2n, n), the largest binomial of the expansion of
# (q + e)**(2n), fits a float. A constant, so a huge n is refused without
# building its exact binomials.
N_MAX = 514


def jet_name(i: int) -> str:
    """The local that :func:`jet_lines` leaves ``V^(i)(q)`` in: ``_w{i}``
    itself where ``i! = 1`` (``x * 1.0`` is ``x``, bit for bit), else
    ``v{i}``."""
    return f"_w{i}" if i < 2 else f"v{i}"


def jet_lines(n: int, orders, q: str = "q") -> list[str]:
    """Statements setting :func:`jet_name` ``(i)`` to ``V^(i)(q)`` for each
    ``i`` in ``orders``, from the source ``q``, ``alpha`` and ``a_2n`` (=
    ``a**(2n)``): the powers ``_p{i}`` of ``q`` by repeated multiplication,
    the Taylor coefficients ``_u{j}`` of ``u``, those of ``alpha / u``
    (``_w{i}``, each sum from ``0.0``, left to right, up to the highest
    order) and ``v{i} = i! * _w{i}``. That order fixes the bits; the ``_``
    keeps temporaries apart from kernel names (``p`` is the momentum)."""
    k = max(orders)
    two_n, top = 2 * n, min(2 * n, k)
    lines = ["_p0 = 1.0"] if top == two_n else []  # read only by _u{2n}
    lines += [f"_p1 = {q}", *(f"_p{i} = _p{i - 1} * {q}" for i in range(2, two_n + 1))]
    lines.append(f"_u0 = _p{two_n} + a_2n")
    lines += [f"_u{j} = {float(math.comb(two_n, j))!r} * _p{two_n - j}"
              for j in range(1, top + 1)]
    lines.append("_w0 = alpha / _u0")
    for i in range(1, k + 1):
        terms = "".join(f" + _u{j} * _w{i - j}" for j in range(1, min(i, top) + 1))
        lines.append(f"_w{i} = -(0.0{terms}) / _u0")
    lines += [f"{jet_name(i)} = _w{i} * {float(math.factorial(i))!r}"
              for i in sorted(orders) if jet_name(i) != f"_w{i}"]
    return lines


def exec_source(source: str, label: str) -> dict:
    """Run generated ``source``, shown by warnings and tracebacks as the file
    ``<label #crc>``, the CRC-32 of its text (``hash()`` varies per process).
    It may call ``fabs``, the one call ``native.c_lines`` translates, and
    ``sqrt``, that of the integrator's error norm."""
    filename = f"<{label} #{zlib.crc32(source.encode()):08x}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {"fabs": math.fabs, "sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


@functools.lru_cache(maxsize=None)
def _jet(n: int, k: int):
    """The compiled ``jet(q, alpha, a_2n) -> [v0, ..., v{k}]``."""
    lines = [*jet_lines(n, range(k + 1)), f"return [{', '.join(map(jet_name, range(k + 1)))}]"]
    source = "def jet(q, alpha, a_2n):\n" + "".join(f"    {line}\n" for line in lines)
    return exec_source(source, f"jet n={n} k={k}")["jet"]


class UnsupportedOrder(ValueError):
    """Requested derivative order exceeds K_MAX."""


class InvalidEnergy(ValueError):
    """Energy must be strictly positive."""


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
        if not (self.n >= 1 and self.n % 1 == 0):  # also rejects inf and nan
            raise ValueError("n must be a positive integer")
        # An integral float n is stored as the int it equals, so n=4.0 builds
        # the potential n=4 does and shares its compiled jets.
        object.__setattr__(self, "n", int(self.n))
        if self.n > N_MAX:
            raise ValueError("n is too large: C(2n, n) overflows a float")
        two_n = 2 * self.n
        try:
            a_2n = self.a ** two_n
        except OverflowError:
            a_2n = math.inf
        if not 0.0 < a_2n < math.inf:
            raise ValueError(f"a**(2n) = {self.a!r}**{two_n} is outside the float range")
        if not math.isfinite(self.alpha / a_2n):
            raise ValueError("alpha / a**(2n), the barrier height, must be finite")
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
        """Return ``[V(q), V'(q), ..., V^(k_max)(q)]`` from the compiled jet.

        ``q`` may be a float or an ndarray. The code is elementwise, so an
        array gives, entry by entry, the bits of the scalar calls; the
        caller's array is never modified.
        """
        if k_max < 0:
            raise UnsupportedOrder("derivative order must be non-negative")
        if k_max > K_MAX:
            raise UnsupportedOrder(
                f"derivative order {k_max} not supported (K_MAX = {K_MAX})"
            )
        return _jet(self.n, k_max)(q, self.alpha, self._a_2n)

    def derivative(self, q: float, k: int) -> float:
        """Exact k-th derivative of V at q (k <= K_MAX)."""
        return self.derivatives(q, k)[k]

    def energy_ratio(self, energy: float) -> float:
        """Barrier top over particle energy; > 1 means classically forbidden."""
        if not energy > 0:
            raise InvalidEnergy("energy must be positive")
        return self.height / energy

    def turning_points(self, energy: float) -> tuple[float, ...]:
        """Classical return points ``(-x, x)`` where V(x) = energy below the
        barrier top; ``()`` at or above it, where nothing is forbidden.

        Uses the closed form ``x = a * (ratio - 1)**(1 / 2n)`` polished by one
        guarded Newton step, which protects the marginal case ratio ~ 1.
        """
        ratio = self.energy_ratio(energy)
        if ratio <= 1.0:
            return ()
        x = self.a * (ratio - 1.0) ** (1.0 / (2 * self.n))
        residual = self(x) - energy
        if residual != 0.0 and x > 0.0:
            slope = self.derivative(x, 1)
            if slope != 0.0:
                candidate = x - residual / slope
                if candidate > 0.0 and abs(self(candidate) - energy) < abs(residual):
                    x = candidate
        return (-x, x)
