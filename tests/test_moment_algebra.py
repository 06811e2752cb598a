import math
from fractions import Fraction

import pytest

from momentous import (
    MomentPolynomial,
    RangeViolation,
    bracket_formula,
    k_coefficient,
    verify_eom_consistency,
)
from momentous.moment_algebra import Term, assemble_rhs, hamiltonian_terms

from conftest import rng


def k_direct(n, a, b, c, d):
    """Plain transcription of the contraction-weight sum, as an oracle."""
    return sum(
        (-1) ** s
        * math.factorial(s)
        * math.factorial(n - s)
        * math.comb(a, s)
        * math.comb(b, n - s)
        * math.comb(c, n - s)
        * math.comb(d, s)
        for s in range(n + 1)
    )


def test_k_coefficient_example():
    # s=0 term vanishes through C(0,1); s=1 gives -1 * C(2,1)*C(2,1) = -4.
    assert k_coefficient(1, 2, 0, 0, 2) == -4


def test_k_coefficient_closes_to_bc_minus_ad():
    gen = rng(11)
    seen = 0
    while seen < 50:
        a, b, c, d = (int(v) for v in gen.integers(0, 7, size=4))
        if min(a + c, b + d, a + b, c + d) <= 1:
            continue
        assert k_coefficient(1, a, b, c, d) == b * c - a * d
        seen += 1
    assert k_coefficient(1, 1, 1, 1, 1) == 0


def test_k_coefficient_exhaustive_n1():
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    if min(a + c, b + d, a + b, c + d) > 1:
                        assert k_coefficient(1, a, b, c, d) == b * c - a * d


def test_k_coefficient_matches_direct_sum_n3():
    for abcd in ((3, 1, 1, 3), (2, 2, 2, 2), (4, 3, 2, 4), (3, 3, 3, 3)):
        if min(abcd[0] + abcd[2], abcd[1] + abcd[3], abcd[0] + abcd[1], abcd[2] + abcd[3]) > 3:
            assert k_coefficient(3, *abcd) == k_direct(3, *abcd)


def test_k_coefficient_range_violation():
    with pytest.raises(RangeViolation):
        k_coefficient(2, 2, 2, 2, 2)  # even
    with pytest.raises(RangeViolation):
        k_coefficient(0, 2, 2, 2, 2)
    with pytest.raises(RangeViolation):
        k_coefficient(1, 1, 1, 0, 2)  # min(a+c) = 1 leaves no room
    with pytest.raises(ValueError):
        k_coefficient(1, -1, 2, 2, 2)


def test_bracket_g20_g02():
    expected = MomentPolynomial().add(-4, moments=((1, 1),))
    assert bracket_formula((2, 0), (0, 2)) == expected


def test_bracket_self_is_zero():
    indices = [(a, b) for a in range(5) for b in range(5) if 2 <= a + b <= 4]
    for idx in indices:
        assert bracket_formula(idx, idx).is_zero()


def test_bracket_g11_g02_literal_formula_gives_zero():
    # Product terms carry first moments and the contraction range is empty,
    # so the literal formula returns 0 for this pair (the integrated table
    # needs -2*G02 here; see the consistency report).
    assert bracket_formula((1, 1), (0, 2)).is_zero()
    assert bracket_formula((1, 1), (2, 0)).is_zero()


def test_bracket_rejects_first_moments():
    with pytest.raises(ValueError):
        bracket_formula((1, 0), (0, 2))


def test_antisymmetry_exhaustive_up_to_order4():
    indices = [(a, b) for a in range(5) for b in range(5) if 2 <= a + b <= 4]
    for lhs in indices:
        for rhs in indices:
            assert bracket_formula(lhs, rhs) == -bracket_formula(rhs, lhs)


def test_hbar_grading():
    indices = [(a, b) for a in range(5) for b in range(5) if 2 <= a + b <= 4]
    for lhs in indices:
        for rhs in indices:
            order = lhs[0] + lhs[1] + rhs[0] + rhs[1] - 2
            for term, coeff in bracket_formula(lhs, rhs).items():
                assert coeff != 0
                total = sum(a + b for a, b in term.moments)
                assert total == order - 2 * term.hbar_power


def test_canonicalization():
    poly = MomentPolynomial()
    poly.add(5, moments=((1, 0), (2, 0)))  # first moment: dropped
    assert poly.is_zero()
    poly.add(Fraction(1, 2), moments=((0, 2), (2, 0)))
    poly.add(Fraction(1, 2), moments=((2, 0), (0, 2)))  # same multiset, sorted
    assert len(poly) == 1
    assert poly.coefficient(Term(moments=((0, 2), (2, 0)))) == 1
    poly.add(-1, moments=((2, 0), (0, 2)))
    assert poly.is_zero()


def test_term_canonical_form():
    # Permuted moments and (0, 0) factors name the same monomial.
    term = Term(moments=((2, 0), (0, 2)), v_order=2, mass_power=-1)
    for same in (
        Term(moments=((0, 2), (2, 0)), v_order=2, mass_power=-1),
        Term(moments=((0, 2), (0, 0), (2, 0)), v_order=2, mass_power=-1),
    ):
        assert same == term
        assert hash(same) == hash(term)
    assert term.moments == ((0, 2), (2, 0))
    assert term != Term(moments=((2, 0), (0, 2)), v_order=2)
    lookup = Term(moments=((0, 0), (2, 0), (0, 2)), v_order=2, mass_power=-1)
    assert MomentPolynomial().add(Fraction(3, 4), term).coefficient(lookup) == Fraction(3, 4)


def test_polynomial_algebra_closure():
    p = MomentPolynomial().add(2, moments=((2, 0),))
    q = MomentPolynomial().add(Fraction(1, 3), moments=((2, 0),)).add(1, v_order=2)
    s = p + q
    assert s.coefficient(Term(moments=((2, 0),))) == Fraction(7, 3)
    assert (s - s).is_zero()
    assert s.scaled(0).is_zero()
    doubled = s + s
    assert doubled == s.scaled(2)


def test_polynomial_evaluate():
    poly = (
        MomentPolynomial()
        .add(Fraction(1, 2), v_order=2, moments=((2, 0),))
        .add(-1, mass_power=-1, moments=((0, 2),))
        .add(3, p_power=2, hbar_power=1)
    )
    value = poly.evaluate(
        {(2, 0): 0.5, (0, 2): 2.0},
        v_derivs=[0.0, 0.0, 4.0],
        p=2.0,
        mass=4.0,
        hbar=0.5,
    )
    assert value == pytest.approx(0.5 * 4.0 * 0.5 - 2.0 / 4.0 + 3 * 4.0 * 0.5, rel=1e-15)


def test_hamiltonian_terms_orders():
    # Order 0 is exactly the classical p^2/2m + V.
    classical = MomentPolynomial().add(Fraction(1, 2), p_power=2, mass_power=-1).add(1, v_order=0)
    assert hamiltonian_terms(0) == classical
    h2 = hamiltonian_terms(2)
    assert h2.coefficient(Term(moments=((0, 2),), mass_power=-1)) == Fraction(1, 2)
    assert h2.coefficient(Term(v_order=3, moments=((3, 0),))) == 0
    h3 = hamiltonian_terms(3)
    assert h3.coefficient(Term(v_order=3, moments=((3, 0),))) == Fraction(1, 6)


def test_assembled_g20_matches_table():
    out = assemble_rhs((2, 0), 2)
    expected = MomentPolynomial().add(-2, mass_power=-1, moments=((1, 1),))
    assert out == expected


def test_consistency_report_order2():
    report = verify_eom_consistency(2)
    by_var = {c.variable: c for c in report.checks}
    assert by_var["dq/dt"].matches
    assert by_var["dp/dt"].matches
    assert by_var["dG20/dt"].matches
    assert by_var["dG02/dt"].matches
    g11 = by_var["dG11/dt"]
    assert not g11.matches and g11.known
    # The missing part carries the kinetic coupling the formula cannot produce.
    assert g11.missing.coefficient(Term(moments=((0, 2),), mass_power=-1)) == -1
    assert g11.missing.coefficient(Term(v_order=2, moments=((2, 0),))) == 1
    assert report.unexpected == ()


def test_consistency_report_order3():
    report = verify_eom_consistency(3)
    by_var = {c.variable: c for c in report.checks}
    assert by_var["dG30/dt"].matches
    table_g30 = by_var["dG30/dt"].table
    assert table_g30.coefficient(Term(moments=((2, 1),), mass_power=-1)) == -3
    assert {c.variable for c in report.checks if not c.matches} == {
        "dG11/dt",
        "dG21/dt",
        "dG12/dt",
    }
    assert all(c.known for c in report.checks if not c.matches)
    assert report.unexpected == ()


def test_report_serialization_roundtrip():
    report = verify_eom_consistency(3)
    text = report.to_text()
    assert "MISMATCH (KNOWN)" in text
    assert "MATCH" in text
    data = report.to_dict()
    assert data["order"] == 3
    assert len(data["equations"]) == 9
    statuses = {e["variable"]: e["status"] for e in data["equations"]}
    assert statuses["dG11/dt"] == "MISMATCH (KNOWN)"


# ---------------------------------------------------------------------------
# An independent oracle for the bracket (Bojowald & Skirzewski, "Effective
# equations of motion for quantum systems", Rev. Math. Phys. 18 (2006) 713,
# arXiv:math-ph/0511043). G^{ab} is the expectation of the Weyl symbol
# X^a K^b, with X = x - <x> and K = k - <k>. As a function of the state it
# varies like the expectation of X^a K^b - a G^{a-1,b} X - b G^{a,b-1} K (the
# chain rule through <x> and <k>), and the bracket of two expectations is the
# expectation of the Moyal bracket of their symbols.

# The one sign between the oracle and this package's bracket: bracket_formula
# and eom_table follow dG20/dt = -2 G11/m, the oracle {G20, G02} = +4 G11.
SIGN = -1

INDICES = [(a, b) for a in range(5) for b in range(5) if 2 <= a + b <= 4]

_ONE = MomentPolynomial().add(1)


def _moment(i, j):
    """The expectation of X^i K^j as a polynomial: 1, 0 or G^{ij}."""
    return MomentPolynomial().add(1, moments=((i, j),))


def _product(p, q):
    out = MomentPolynomial()
    for term, coeff in q.items():
        out = out + p.times(coeff, term)
    return out


def _derivative(i, j, di, dj):
    """(factor, i - di, j - dj) for d^di/dX^di d^dj/dK^dj of X^i K^j, or None."""
    if di > i or dj > j:
        return None
    return math.perm(i, di) * math.perm(j, dj), i - di, j - dj


def _symbol(index):
    """The symbol of G^{ab} with its chain-rule terms: {(i, j): coefficient}."""
    a, b = index
    return {(a, b): _ONE, (1, 0): _moment(a - 1, b).scaled(-a),
            (0, 1): _moment(a, b - 1).scaled(-b)}


def moyal_oracle(lhs, rhs):
    """{G^lhs, G^rhs}: the expectation of the Moyal bracket
    sum over odd n of (-1)**((n-1)/2) (hbar/2)**(n-1) / n! *
    sum_s C(n, s) (-1)**s d_X^(n-s) d_K^s S d_K^(n-s) d_X^s T
    of the two symbols S and T."""
    out = MomentPolynomial()
    for (i, j), p in _symbol(lhs).items():
        for (k, l), q in _symbol(rhs).items():
            for n in range(1, i + j + 1, 2):
                scale = Fraction((-1) ** ((n - 1) // 2), 2 ** (n - 1) * math.factorial(n))
                for s in range(n + 1):
                    left = _derivative(i, j, n - s, s)
                    right = _derivative(k, l, s, n - s)
                    if left is None or right is None:
                        continue
                    weight = scale * math.comb(n, s) * (-1) ** s * left[0] * right[0]
                    moment = _moment(left[1] + right[1], left[2] + right[2])
                    out = out + _product(_product(p, q), moment).times(
                        weight, Term(hbar_power=n - 1))
    return out


def closed_form_bracket(lhs, rhs, inclusive):
    """bracket_formula transcribed with its contraction sum over odd n up to
    min(a+c, b+d, a+b, c+d), inclusive or (as shipped) exclusive."""
    (a, b), (c, d) = lhs, rhs
    poly = MomentPolynomial()
    poly.add(a * d, moments=((a - 1, b), (c, d - 1)))
    poly.add(-b * c, moments=((a, b - 1), (c - 1, d)))
    for n in range(1, min(a + c, b + d, a + b, c + d) + inclusive, 2):
        coeff = Fraction(k_direct(n, a, b, c, d) * (-1) ** ((n - 1) // 2), 2 ** (n - 1))
        poly.add(coeff, moments=((a + c - n, b + d - n),), hbar_power=n - 1)
    return poly


def test_moyal_oracle_is_the_inclusive_range_bracket():
    # Over all 144 pairs of orders 2-4 the oracle is the closed formula with
    # the inclusive range, up to SIGN. The shipped strict range, which the
    # transcription reproduces, misses the n = min(...) term of 48 pairs.
    assert len(INDICES) ** 2 == 144
    differ = 0
    for lhs in INDICES:
        for rhs in INDICES:
            inclusive = closed_form_bracket(lhs, rhs, inclusive=True)
            assert moyal_oracle(lhs, rhs) == inclusive.scaled(SIGN), (lhs, rhs)
            strict = closed_form_bracket(lhs, rhs, inclusive=False)
            assert strict == bracket_formula(lhs, rhs)
            differ += strict != inclusive
    assert differ == 48


@pytest.mark.parametrize("order", [2, 3])
def test_moyal_oracle_reproduces_every_eom_table_equation(order, monkeypatch):
    from momentous import moment_algebra
    from momentous.dynamics import eom_table

    monkeypatch.setattr(moment_algebra, "bracket_formula",
                        lambda lhs, rhs: moyal_oracle(lhs, rhs).scaled(SIGN))
    table = eom_table(order)
    assert len(table) == {2: 5, 3: 9}[order]
    for var, rhs in table.items():
        assert assemble_rhs(var, order) == rhs, var


def test_moyal_oracle_low_order_brackets():
    g11 = _moment(1, 1)
    assert moyal_oracle((2, 0), (0, 2)) == g11.scaled(4)
    assert bracket_formula((2, 0), (0, 2)) == g11.scaled(4 * SIGN)
    # The n = 3 contraction of {G12, G21} lands on G00 = 1: its hbar**2/2 term
    # (in this package's sign), which the strict range leaves out.
    g12_g21 = moyal_oracle((1, 2), (2, 1)).scaled(SIGN)
    assert g12_g21.coefficient(Term(hbar_power=2)) == Fraction(1, 2)
    assert bracket_formula((1, 2), (2, 1)).coefficient(Term(hbar_power=2)) == 0
    # {G11, G02}, empty under the strict range, carries the kinetic coupling.
    assert moyal_oracle((1, 1), (0, 2)) == _moment(0, 2).scaled(2)
    for lhs in INDICES:
        for rhs in INDICES:
            assert moyal_oracle(lhs, rhs) == moyal_oracle(rhs, lhs).scaled(-1)
