"""Formal Poisson algebra of Weyl-ordered central moments.

A moment is indexed by a pair ``(a, b)``: ``a`` powers of the position
fluctuation times ``b`` powers of the momentum fluctuation, Weyl ordered.
``(1, 0)`` and ``(0, 1)`` are permitted as formal symbols but are identically
zero, so canonical form eliminates any term containing them.

What lives here:

* ``hamiltonian_terms`` -- the moment expansion of the effective Hamiltonian,
  the one hand-written piece of physics: :mod:`momentous.dynamics` compiles
  ``H_Q`` and ``V_eff`` from it and derives ``eom_table`` from it.
* The closed-form moment bracket: two bilinear product terms plus a
  contraction sum over odd ``n`` with integer weights and even powers of
  hbar. One implementation serves two ranges: the complete bracket, with
  ``1 <= n <= min(a+c, b+d, a+b, c+d)``, derives ``eom_table``; the printed
  ``bracket_formula`` stops below ``min(...)``, and ``property_lines``
  checks its antisymmetry, hbar grading and first contraction weight
  ``k_coefficient`` exhaustively over low orders.
* ``MomentPolynomial.truncated`` -- the closure of the hierarchy: it drops
  every term whose combined moment order (moment powers plus 2 per hbar)
  exceeds the truncation order. The Hamiltonian and every bracket assembly
  are closed by this one rule.
* ``verify_eom_consistency`` -- assembles time derivatives through
  ``bracket_formula`` and compares them term by term against
  ``dynamics.eom_table``. The strict range leaves several low-order brackets
  empty (for example ``{G11, G02}``), so some equations come out short. A
  mismatch is KNOWN when the table equals the complete-bracket assembly, so
  the gap is exactly the missing top terms, and UNEXPECTED otherwise.
  Mismatches are data, not errors.

Coefficients are exact rationals throughout; floats appear only when a
polynomial is numerically evaluated or compiled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "EquationCheck",
    "ConsistencyReport",
    "MomentPolynomial",
    "RangeViolation",
    "Term",
    "bracket_formula",
    "hamiltonian_terms",
    "assemble_rhs",
    "k_coefficient",
    "property_lines",
    "verify_eom_consistency",
]

Moment = tuple[int, int]
Variable = Union[str, Moment]
Scalar = Union[int, float, Fraction]

VALID_ORDERS = (0, 2, 3)


class RangeViolation(ValueError):
    """Contraction index n lies outside the bracket's summation range."""


def _validate_moment(index: Moment) -> Moment:
    a, b = index
    if a < 0 or b < 0:
        raise ValueError(f"moment powers must be non-negative, got {index}")
    return (int(a), int(b))


def _contraction_weight(n: int, a: int, b: int, c: int, d: int) -> int:
    """The weight sum of the hbar**(n-1) contraction, at any ``n``."""
    return sum((-1) ** s * math.factorial(s) * math.factorial(n - s) * math.comb(a, s)
               * math.comb(b, n - s) * math.comb(c, n - s) * math.comb(d, s)
               for s in range(n + 1))


def k_coefficient(n: int, a: int, b: int, c: int, d: int) -> int:
    """Integer weight of the hbar**(n-1) contraction in the moment bracket.

    Defined for odd ``n`` with ``1 <= n < min(a+c, b+d, a+b, c+d)``; binomial
    coefficients with lower index above the upper are zero. Callers iterating
    the bracket sum must filter the range themselves.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative")
    if n < 1 or n % 2 == 0 or n >= min(a + c, b + d, a + b, c + d):
        raise RangeViolation(
            f"n={n} outside odd range [1, min(a+c, b+d, a+b, c+d)) for "
            f"(a, b, c, d)=({a}, {b}, {c}, {d})"
        )
    return _contraction_weight(n, a, b, c, d)


@dataclass(frozen=True)
class Term:
    """One monomial: product of moments, powers of hbar, p and mass, and an
    optional derivative of the potential ``V^(v_order)``.

    The numeric coefficient is *not* part of the term; it is the map value in
    :class:`MomentPolynomial`. Canonical form: ``moments`` is the sorted
    multiset of factors without ``(0, 0)``, so equal monomials compare and
    hash alike however they were built.
    """

    moments: tuple[Moment, ...] = ()
    hbar_power: int = 0
    v_order: Optional[int] = None
    p_power: int = 0
    mass_power: int = 0

    def __post_init__(self) -> None:
        canonical = sorted((int(a), int(b)) for a, b in self.moments if (a, b) != (0, 0))
        object.__setattr__(self, "moments", tuple(canonical))

    def moment_order(self) -> int:
        """Combined semiclassical order: moment powers plus 2 per hbar."""
        return sum(a + b for a, b in self.moments) + 2 * self.hbar_power

    def sort_key(self):
        return (
            self.moment_order(),
            self.moments,
            self.hbar_power,
            self.v_order is not None,
            self.v_order if self.v_order is not None else -1,
            self.p_power,
            -self.mass_power,
        )

    def contains_first_moment(self) -> bool:
        return any(a + b == 1 for a, b in self.moments)


class MomentPolynomial:
    """Finite rational-coefficient combination of :class:`Term` monomials.

    Canonical form: canonical :class:`Term` keys, zero coefficients removed,
    and any term containing a first moment (``(1, 0)`` or ``(0, 1)``)
    eliminated.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Term, Scalar]] = None) -> None:
        self._terms: dict[Term, Fraction] = {}
        if terms:
            for term, coeff in terms.items():
                self.add(coeff, term)

    def add(
        self,
        coeff: Scalar,
        term: Optional[Term] = None,
        **term_fields,
    ) -> "MomentPolynomial":
        """Accumulate ``coeff * term``; returns self for chaining."""
        if term is None:
            term = Term(**term_fields)
        elif term_fields:
            raise TypeError("pass either a Term or field keywords, not both")
        if term.contains_first_moment():
            return self
        total = self._terms.get(term, Fraction(0)) + Fraction(coeff)
        if total == 0:
            self._terms.pop(term, None)
        else:
            self._terms[term] = total
        return self

    def items(self) -> Iterator[tuple[Term, Fraction]]:
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()))

    def coefficient(self, term: Term) -> Fraction:
        return self._terms.get(term, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MomentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "MomentPolynomial") -> "MomentPolynomial":
        out = self.copy()
        for term, coeff in other._terms.items():
            out.add(coeff, term)
        return out

    def __sub__(self, other: "MomentPolynomial") -> "MomentPolynomial":
        return self + other.scaled(-1)

    def __neg__(self) -> "MomentPolynomial":
        return self.scaled(-1)

    def copy(self) -> "MomentPolynomial":
        out = MomentPolynomial()
        out._terms = dict(self._terms)
        return out

    def scaled(self, factor: Scalar) -> "MomentPolynomial":
        out = MomentPolynomial()
        if factor == 0:
            return out
        f = Fraction(factor)
        out._terms = {t: c * f for t, c in self._terms.items()}
        return out

    def times(self, coeff: Scalar, factor: Term) -> "MomentPolynomial":
        """Multiply every term by ``coeff * factor``."""
        out = MomentPolynomial()
        for term, c in self._terms.items():
            if factor.v_order is not None and term.v_order is not None:
                raise ValueError("product of two potential-derivative factors")
            out.add(
                c * Fraction(coeff),
                replace(
                    term,
                    moments=term.moments + factor.moments,
                    hbar_power=term.hbar_power + factor.hbar_power,
                    v_order=term.v_order if factor.v_order is None else factor.v_order,
                    p_power=term.p_power + factor.p_power,
                    mass_power=term.mass_power + factor.mass_power,
                ),
            )
        return out

    def truncated(self, order: int) -> "MomentPolynomial":
        """Drop terms whose combined semiclassical order exceeds ``order``."""
        out = MomentPolynomial()
        for term, coeff in self._terms.items():
            if term.moment_order() <= order:
                out.add(coeff, term)
        return out

    def evaluate(
        self,
        moments: Mapping[Moment, float],
        *,
        v_derivs: Sequence[float] = (),
        p: float = 0.0,
        mass: float = 1.0,
        hbar: float = 1.0,
    ) -> float:
        """Numeric value given moment values and potential derivatives.

        ``v_derivs[k]`` supplies ``V^(k)`` at the evaluation point; moments
        missing from the mapping count as zero.
        """
        total = 0.0
        for term, coeff in self._terms.items():
            value = float(coeff)
            for idx in term.moments:
                value *= moments.get(idx, 0.0)
            if term.v_order is not None:
                value *= v_derivs[term.v_order]
            value *= p ** term.p_power
            value *= mass ** term.mass_power
            value *= hbar ** term.hbar_power
            total += value
        return total

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, (term, coeff) in enumerate(self.items()):
            parts.append(_format_term(coeff, term, first=i == 0))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MomentPolynomial({self.to_text()})"


def _format_coeff(c: Fraction) -> str:
    return str(c) if c.denominator != 1 else str(c.numerator)


def _format_term(coeff: Fraction, term: Term, first: bool) -> str:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    factors = []
    if mag != 1 or (
        not term.moments
        and term.v_order is None
        and term.p_power == 0
        and term.mass_power == 0
        and term.hbar_power == 0
    ):
        factors.append(f"({_format_coeff(mag)})" if mag.denominator != 1 else _format_coeff(mag))
    if term.hbar_power:
        factors.append("hbar" if term.hbar_power == 1 else f"hbar^{term.hbar_power}")
    if term.v_order is not None:
        factors.append("V" + "'" * term.v_order if term.v_order else "V")
    if term.p_power:
        factors.append("p" if term.p_power == 1 else f"p^{term.p_power}")
    for a, b in term.moments:
        factors.append(f"G{a}{b}")
    body = "*".join(factors) if factors else "1"
    if term.mass_power:
        if term.mass_power == -1:
            body += "/m"
        elif term.mass_power < 0:
            body += f"/m^{-term.mass_power}"
        else:
            body += "*m" if term.mass_power == 1 else f"*m^{term.mass_power}"
    if first and sign == "+":
        return body
    return f"{sign} {body}" if not first else f"- {body}"


def _bracket(lhs: Moment, rhs: Moment, complete: bool = True) -> MomentPolynomial:
    """The closed-form moment bracket; ``complete`` includes the contraction
    ``n = min(a+c, b+d, a+b, c+d)``, which :func:`bracket_formula` stops below:
    the bracket of Bojowald & Skirzewski (math-ph/0511043) in this package's
    sign, through which ``dynamics.eom_table`` is derived."""
    a, b = _validate_moment(lhs)
    c, d = _validate_moment(rhs)
    if a + b < 2 or c + d < 2:
        raise ValueError("bracket_formula expects genuine moments (a + b >= 2)")
    poly = MomentPolynomial()
    poly.add(a * d, moments=((a - 1, b), (c, d - 1)))
    poly.add(-b * c, moments=((a, b - 1), (c - 1, d)))
    for n in range(1, min(a + c, b + d, a + b, c + d) + complete, 2):
        weight = _contraction_weight(n, a, b, c, d)
        if weight == 0:
            continue
        coeff = Fraction(weight * (-1) ** ((n - 1) // 2), 2 ** (n - 1))
        poly.add(coeff, moments=((a + c - n, b + d - n),), hbar_power=n - 1)
    return poly


def bracket_formula(lhs: Moment, rhs: Moment) -> MomentPolynomial:
    """Poisson bracket of two moments, straight from the closed formula.

    Product part ``ad * G(a-1,b) G(c,d-1) - bc * G(a,b-1) G(c-1,d)`` plus the
    contraction sum over odd ``n`` in ``[1, min(a+c, b+d, a+b, c+d))`` with
    weight ``k_coefficient`` and prefactor ``(i*hbar/2)**(n-1)``; only odd
    ``n`` occur, so the prefactor is the real number
    ``(-1)**((n-1)/2) * (hbar/2)**(n-1)``. ``hbar`` stays symbolic: the
    contraction terms carry ``hbar_power = n - 1``.
    """
    return _bracket(lhs, rhs, complete=False)


def hamiltonian_terms(order: int) -> MomentPolynomial:
    """Moment expansion of the effective Hamiltonian at a truncation order.

    The order-3 expansion ``p^2/2m + V + G02/2m + (1/2) V'' G20 +
    (1/6) V''' G30`` closed by :meth:`MomentPolynomial.truncated`: order 2
    drops the ``G30`` term, and order 0 is the bare classical Hamiltonian.
    """
    if order not in VALID_ORDERS:
        raise ValueError("truncation order must be 0, 2 or 3")
    h = MomentPolynomial()
    h.add(Fraction(1, 2), p_power=2, mass_power=-1)
    h.add(1, v_order=0)
    h.add(Fraction(1, 2), mass_power=-1, moments=((0, 2),))
    h.add(Fraction(1, 2), v_order=2, moments=((2, 0),))
    h.add(Fraction(1, 6), v_order=3, moments=((3, 0),))
    return h.truncated(order)


def property_lines() -> list[str]:
    """Exhaustive structural checks of the bracket formula, summarized as
    stable text lines for the golden report."""
    pairs = 0
    anti_ok = True
    grading_ok = True
    indices = [
        (a, b)
        for a in range(5)
        for b in range(5)
        if 2 <= a + b <= 4
    ]
    # Each ordered pair's bracket once: it is one pair's left and another's right.
    brackets = {(lhs, rhs): bracket_formula(lhs, rhs) for lhs in indices for rhs in indices}
    for (lhs, rhs), left in brackets.items():
        if left != brackets[rhs, lhs].scaled(-1):
            anti_ok = False
        expected = lhs[0] + lhs[1] + rhs[0] + rhs[1] - 2
        for term, _ in left.items():
            total = sum(x + y for x, y in term.moments)
            if total != expected - 2 * term.hbar_power:
                grading_ok = False
        pairs += 1
    k_ok = True
    k_count = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    if min(a + c, b + d, a + b, c + d) > 1:
                        k_count += 1
                        if k_coefficient(1, a, b, c, d) != b * c - a * d:
                            k_ok = False
    return [
        f"antisymmetry over {pairs} moment pairs (orders 2..4): "
        + ("PASS" if anti_ok else "FAIL"),
        f"hbar grading over {pairs} moment pairs (orders 2..4): "
        + ("PASS" if grading_ok else "FAIL"),
        f"first contraction weight equals b*c - a*d on {k_count} index tuples: "
        + ("PASS" if k_ok else "FAIL"),
    ]


def _assemble(var: Variable, hamiltonian: MomentPolynomial, order: int,
              bracket=_bracket) -> MomentPolynomial:
    """Time derivative of ``var`` under ``hamiltonian``, with ``bracket`` as
    the moment bracket, closed at the truncation order."""
    out = MomentPolynomial()
    for term, coeff in hamiltonian.items():
        if var == "q":
            if term.p_power:
                out.add(coeff * term.p_power, replace(term, p_power=term.p_power - 1))
        elif var == "p":
            if term.v_order is not None:
                out.add(-coeff, replace(term, v_order=term.v_order + 1))
        else:
            for factor in term.moments:
                rest = list(term.moments)
                rest.remove(factor)
                product = bracket(var, factor).times(coeff, replace(term, moments=tuple(rest)))
                for product_term, product_coeff in product._terms.items():
                    out.add(product_coeff, product_term)
    return out.truncated(order)


def assemble_rhs(var: Variable, order: int) -> MomentPolynomial:
    """Time derivative of ``var`` generated by the bracket formula.

    ``var`` is ``"q"``, ``"p"`` or a moment pair. Mean variables follow the
    elementary brackets ``{q, p} = 1`` and ``{q or p, G} = 0``, which reduce
    to partial derivatives of the Hamiltonian's coefficient functions; moment
    variables use :func:`bracket_formula` against each Hamiltonian term.
    Products whose combined moment order exceeds the truncation order are
    dropped, matching the closure of the integrated system.
    """
    return _assemble(var, hamiltonian_terms(order), order, bracket_formula)


@dataclass(frozen=True)
class EquationCheck:
    """Per-equation comparison between the bracket assembly and the table;
    ``known`` marks a mismatch where the table is the complete-bracket one."""

    variable: str
    assembled: MomentPolynomial
    table: MomentPolynomial
    missing: MomentPolynomial  # present in the table, absent or off in the assembly
    extra: MomentPolynomial  # produced by the assembly, absent from the table
    known: bool

    @property
    def matches(self) -> bool:
        return self.missing.is_zero() and self.extra.is_zero()

    def status(self) -> str:
        if self.matches:
            return "MATCH"
        return "MISMATCH (KNOWN)" if self.known else "MISMATCH (UNEXPECTED)"


_NOTES: tuple[str, ...] = (
    "momentum equation: the integrated table uses dp/dt = -V' - (1/2)V'''*G20"
    " (- (1/6)V''''*G30 at order 3); the alternative reading dp/dt = 2V''*G11"
    " duplicates the G02 equation and does not conserve the effective"
    " Hamiltonian, so it is rejected.",
    "contraction range 1 <= n < min(a+c, b+d, a+b, c+d) is empty for"
    " {G11,G02}, {G11,G20}, {G11,G30}, {G21,G20} and {G12,G02}; the equations"
    " assembled from those brackets come out short and are flagged KNOWN.",
    "bracket products whose combined moment order exceeds the truncation"
    " order are dropped before comparison, matching the closure of the"
    " integrated system.",
)


def _variable_name(var: Variable) -> str:
    if isinstance(var, str):
        return f"d{var}/dt"
    a, b = var
    return f"dG{a}{b}/dt"


def verify_eom_consistency(order: int) -> "ConsistencyReport":
    """Compare ``bracket_formula``-assembled time derivatives with the
    integrated tables, which are derived through the complete bracket.

    Both sides stay symbolic in the mass and hbar. Mismatches are reported,
    not raised; one is KNOWN when the table equals the complete-bracket
    assembly, and UNEXPECTED otherwise (a table that is not the Hamiltonian's).
    """
    from . import dynamics

    if order not in (2, 3):
        raise ValueError("consistency check supports orders 2 and 3")
    table = dynamics.eom_table(order)
    hamiltonian = hamiltonian_terms(order)
    checks = []
    for var in dynamics.state_variables(order):
        assembled = assemble_rhs(var, order)
        expected = table[var]
        checks.append(
            EquationCheck(
                variable=_variable_name(var),
                assembled=assembled,
                table=expected,
                missing=MomentPolynomial(
                    {t: c - assembled.coefficient(t) for t, c in expected.items()}
                ),
                extra=MomentPolynomial(
                    {t: c for t, c in assembled.items() if not expected.coefficient(t)}
                ),
                known=assembled != expected and expected == _assemble(var, hamiltonian, order),
            )
        )
    return ConsistencyReport(order=order, checks=tuple(checks), notes=_NOTES)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of :func:`verify_eom_consistency` for one truncation order."""

    order: int
    checks: tuple[EquationCheck, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def unexpected(self) -> tuple[EquationCheck, ...]:
        return tuple(c for c in self.checks if not c.matches and not c.known)

    def to_text(self) -> str:
        lines = [f"equations of motion, truncation order {self.order}"]
        width = max(len(c.variable) for c in self.checks)
        for c in self.checks:
            lines.append(f"  {c.variable:<{width}}  {c.status()}")
            lines.append(f"    table   : {c.table.to_text()}")
            lines.append(f"    formula : {c.assembled.to_text()}")
            if not c.missing.is_zero():
                lines.append(f"    missing : {c.missing.to_text()}")
            if not c.extra.is_zero():
                lines.append(f"    extra   : {c.extra.to_text()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "notes": list(self.notes),
            "equations": [
                {
                    "variable": c.variable,
                    "status": c.status(),
                    "table": c.table.to_text(),
                    "formula": c.assembled.to_text(),
                    "missing": c.missing.to_text(),
                    "extra": c.extra.to_text(),
                }
                for c in self.checks
            ],
        }
