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
