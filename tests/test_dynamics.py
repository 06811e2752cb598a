import linecache
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from momentous import (
    BarrierPotential,
    ModelConfig,
    MomentState,
    dynamics,
    effective_hamiltonian,
    effective_potential,
    eom_table,
    rhs,
)
from momentous.dynamics import (
    MOMENTS_BY_ORDER,
    effective_series,
    make_rhs,
    moment_labels,
    state_variables,
    vector_to_state,
)
from momentous.moment_algebra import MomentPolynomial, Term, hamiltonian_terms

from conftest import reference_jet, rng


def third_order_reference():
    """Independent transcription of the nine third-order equations, frozen
    here so the integrated table is checked against a second copy."""
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    return {
        "q": [(1, None, 1, -1, ())],
        "p": [
            (-1, 1, 0, 0, ()),
            (-half, 3, 0, 0, ((2, 0),)),
            (-sixth, 4, 0, 0, ((3, 0),)),
        ],
        (2, 0): [(-2, None, 0, -1, ((1, 1),))],
        (1, 1): [
            (-1, None, 0, -1, ((0, 2),)),
            (1, 2, 0, 0, ((2, 0),)),
            (half, 3, 0, 0, ((3, 0),)),
        ],
        (0, 2): [(2, 2, 0, 0, ((1, 1),)), (1, 3, 0, 0, ((2, 1),))],
        (3, 0): [(-3, None, 0, -1, ((2, 1),))],
        (2, 1): [(-2, None, 0, -1, ((1, 2),)), (1, 2, 0, 0, ((3, 0),))],
        (1, 2): [(-1, None, 0, -1, ((0, 3),)), (2, 2, 0, 0, ((2, 1),))],
        (0, 3): [(3, 2, 0, 0, ((1, 2),))],
    }


def as_polynomial(terms):
    poly = MomentPolynomial()
    for coeff, v_order, p_power, mass_power, moments in terms:
        poly.add(
            coeff, v_order=v_order, p_power=p_power, mass_power=mass_power,
            moments=moments,
        )
    return poly


def test_order3_table_matches_reference_transcription():
    table = eom_table(3)
    reference = third_order_reference()
    assert set(table) == set(reference)
    for var, terms in reference.items():
        assert table[var] == as_polynomial(terms), f"equation for {var}"


def test_order2_table_is_order3_with_thirds_zeroed():
    table2 = eom_table(2)
    reference = third_order_reference()
    third = {idx for idx in MOMENTS_BY_ORDER[3] if sum(idx) == 3}
    for var in state_variables(2):
        expected = as_polynomial(
            [
                term
                for term in reference[var]
                if not any(m in third for m in term[4])
            ]
        )
        assert table2[var] == expected, f"equation for {var}"


def test_eom_table_is_derived_from_the_hamiltonian(monkeypatch):
    # The tables follow hamiltonian_terms: doubling its G02/2m coefficient
    # doubles the kinetic coupling of dG11/dt. Only the symbolic tables are
    # checked, as the compiled kernels are cached per process.
    from momentous import moment_algebra

    true_hamiltonian = moment_algebra.hamiltonian_terms
    kinetic = Term(moments=((0, 2),), mass_power=-1)

    def doubled(order):
        h = true_hamiltonian(order)
        return h.copy().add(h.coefficient(kinetic), kinetic)

    assert eom_table(2)[(1, 1)].coefficient(kinetic) == -1
    monkeypatch.setattr(moment_algebra, "hamiltonian_terms", doubled)
    assert eom_table(2)[(1, 1)].coefficient(kinetic) == -2
    assert eom_table(3)[(1, 1)].coefficient(kinetic) == -2


def test_eom_table_rejects_an_invalid_order():
    for order in (1, 4, -1):
        with pytest.raises(ValueError, match="truncation order must be 0, 2 or 3"):
            eom_table(order)


def random_state(order, gen, scale=1.0):
    moments = tuple(float(v) for v in gen.uniform(-scale, scale, len(MOMENTS_BY_ORDER[order])))
    return MomentState(
        t=0.0, q=float(gen.uniform(-2, 2)), p=float(gen.uniform(-2, 2)), moments=moments
    )


@pytest.mark.parametrize("order", [0, 2, 3])
def test_numeric_rhs_matches_symbolic_table(order):
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    cfg = ModelConfig(potential=pot, mass=1.7, order=order)
    table = eom_table(order)
    gen = rng(order + 1)
    for _ in range(25):
        state = random_state(order, gen)
        derivs = pot.derivatives(state.q, 4)
        numeric = rhs(state, cfg)
        for i, var in enumerate(state_variables(order)):
            symbolic = table[var].evaluate(
                state.moment_dict(), v_derivs=derivs, p=state.p, mass=cfg.mass,
            )
            assert numeric[i] == pytest.approx(symbolic, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("order", [0, 2, 3])
def test_table_coefficient_reaches_rhs(order, monkeypatch):
    # The integrated RHS is compiled from eom_table: tripling one coefficient
    # of one equation changes exactly that component, to the tampered
    # table's value, and the real table's kernel is untouched afterwards.
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    cfg = ModelConfig(potential=pot, mass=1.7, order=order)
    state = random_state(order, rng(31 + order))
    y = [state.q, state.p, *state.moments]
    derivs = pot.derivatives(state.q, 4)
    true_table = dynamics.eom_table
    base = make_rhs(cfg)(y)
    for i, var in enumerate(state_variables(order)):
        table = dict(true_table(order))
        term, coeff = next(table[var].items())
        table[var] = table[var].copy().add(2 * coeff, term)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "eom_table", lambda o: table)
            changed = make_rhs(cfg)(y)
        assert changed[:i] + changed[i + 1:] == base[:i] + base[i + 1:]
        assert changed[i] != base[i]
        assert changed[i] == pytest.approx(
            table[var].evaluate(
                state.moment_dict(), v_derivs=derivs, p=state.p, mass=cfg.mass,
            ),
            rel=1e-12, abs=1e-12,
        )
    assert make_rhs(cfg)(y) == base


def reference_values(cfg, state):
    """The RHS, H_Q and V_eff of one state from the symbolic tables, with the
    reference jet's derivatives; V_eff is H_Q at p = 0."""
    pot = cfg.potential
    v = reference_jet(pot.alpha, pot.a, pot.n, state.q, 4)
    moments = state.moment_dict()

    def value(poly, p):
        return poly.evaluate(moments, v_derivs=v, p=p, mass=cfg.mass)

    table, hamiltonian = eom_table(cfg.order), hamiltonian_terms(cfg.order)
    flow = [value(table[var], state.p) for var in state_variables(cfg.order)]
    return flow, value(hamiltonian, state.p), value(hamiltonian, 0.0)


def approx(values):
    return pytest.approx(values, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("order", [0, 2, 3])
def test_kernels_inline_the_jet(order, monkeypatch):
    # The compiled kernels carry the jet in their own code: with
    # BarrierPotential.derivatives raising, they still give the tables'
    # values at the reference jet.
    def no_jet(self, q, k_max=4):
        raise AssertionError("a compiled kernel called derivatives")

    monkeypatch.setattr(BarrierPotential, "derivatives", no_jet)
    gen = rng(50 + order)
    for n in (1, 4, 7):
        pot = BarrierPotential(alpha=-1.3, a=0.9, n=n)
        cfg = ModelConfig(potential=pot, mass=1.7, order=order)
        states = [random_state(order, gen) for _ in range(10)]
        rows = np.array([[s.q, s.p, *s.moments] for s in states])
        h_q, v_eff = effective_series(rows, cfg)
        qs = np.linspace(-2.0, 2.0, 5)
        for state, row, h, v in zip(states, rows.tolist(), h_q, v_eff):
            flow, h_ref, v_ref = reference_values(cfg, state)
            assert make_rhs(cfg)(row) == approx(flow)
            assert (h, v) == approx((h_ref, v_ref))
            section = [reference_values(cfg, vector_to_state(0.0, [q, *row[1:]], order))[2]
                       for q in qs]
            assert effective_potential(qs, state, cfg) == approx(section)


@pytest.mark.parametrize("first,second", [(2, 4), (4, 2)])
def test_kernels_are_compiled_per_exponent(first, second):
    # Kernels for two barrier exponents live side by side in one process,
    # each with its own jet, whichever was compiled first.
    dynamics._compile.cache_clear()
    state = random_state(3, rng(77))
    y = [state.q, state.p, *state.moments]
    cfgs = [ModelConfig(potential=BarrierPotential(n=n), order=3) for n in (first, second)]
    kernels = [make_rhs(cfg) for cfg in cfgs]
    for cfg, f in zip(cfgs, kernels):
        flow, h_ref, v_ref = reference_values(cfg, state)
        assert f(y) == approx(flow)
        h_q, v_eff = effective_series(np.array([y]), cfg)
        assert (h_q[0], v_eff[0]) == approx((h_ref, v_ref))


def test_kernel_warnings_show_the_generated_line():
    cfg = ModelConfig(potential=BarrierPotential(n=4), order=2)
    y = np.array([[1e200, 0.5], [1.0, 1.0], [0.1, 0.1], [0.0, 0.0], [0.1, 0.1]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="warn", invalid="ignore"):
            make_rhs(cfg)(y)
    assert caught[0].category is RuntimeWarning
    # Named by its label and the CRC-32 of its text.
    assert re.fullmatch(r"<order-2 rhs kernel n=4 #[0-9a-f]{8}>", caught[0].filename)
    assert linecache.getline(caught[0].filename, caught[0].lineno).strip() == "_p2 = _p1 * y0"


def test_rhs_order0_farfield():
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    cfg = ModelConfig(potential=pot, mass=1.0, order=0)
    out = rhs(MomentState(t=0.0, q=-10.0, p=1.0, moments=()), cfg)
    assert out[0] == 1.0
    assert abs(out[1]) < 1e-6


@pytest.mark.parametrize("order", [2, 3])
def test_rhs_zero_moments_reduces_to_classical(order):
    pot = BarrierPotential(alpha=1.0, a=1.0, n=2)
    cfg = ModelConfig(potential=pot, mass=1.3, order=order)
    cfg0 = ModelConfig(potential=pot, mass=1.3, order=0)
    gen = rng(9)
    for _ in range(20):
        q, p = (float(v) for v in gen.uniform(-3, 3, 2))
        zeros = (0.0,) * len(MOMENTS_BY_ORDER[order])
        full = rhs(MomentState(t=0.0, q=q, p=p, moments=zeros), cfg)
        classical = rhs(MomentState(t=0.0, q=q, p=p, moments=()), cfg0)
        assert full[0] == classical[0]
        assert full[1] == classical[1]
        assert np.all(full[2:] == 0.0)


def hamiltonian_gradient(state, cfg):
    """Hand-written gradient of the effective Hamiltonian, for the
    conservation identity check."""
    pot = cfg.potential
    v = pot.derivatives(state.q, 5)
    g = {idx: state.moment(*idx) for idx in MOMENTS_BY_ORDER[state.order]}
    dq = v[1] + 0.5 * v[3] * g.get((2, 0), 0.0)
    if state.order >= 3:
        dq += v[4] * g.get((3, 0), 0.0) / 6.0
    grad = [dq, state.p / cfg.mass]
    for idx in MOMENTS_BY_ORDER[state.order]:
        if idx == (2, 0):
            grad.append(0.5 * v[2])
        elif idx == (0, 2):
            grad.append(0.5 / cfg.mass)
        elif idx == (3, 0):
            grad.append(v[3] / 6.0)
        else:
            grad.append(0.0)
    return np.array(grad)


@pytest.mark.parametrize("order", [2, 3])
def test_hamiltonian_conservation_identity(order):
    # grad(H) . f(y) telescopes to zero for the authoritative tables.
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    cfg = ModelConfig(potential=pot, mass=0.9, order=order)
    gen = rng(13 + order)
    for _ in range(50):
        state = random_state(order, gen, scale=2.0)
        flow = rhs(state, cfg)
        grad = hamiltonian_gradient(state, cfg)
        scale = np.sum(np.abs(grad * flow)) + 1e-30
        assert abs(float(np.dot(grad, flow))) <= 1e-13 * scale


def test_uncertainty_product_rate():
    # Algebraically conserved at order 2; at order 3 the rate equals
    # V''' (G20*G21 - G11*G30).
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    gen = rng(21)
    cfg2 = ModelConfig(potential=pot, order=2)
    for _ in range(30):
        state = random_state(2, gen)
        d = rhs(state, cfg2)
        g20, g11, g02 = state.moments
        rate = d[2] * g02 + g20 * d[4] - 2 * g11 * d[3]
        assert abs(rate) <= 1e-13 * (abs(g20 * g02) + g11 * g11 + 1)
    cfg3 = ModelConfig(potential=pot, order=3)
    for _ in range(30):
        state = random_state(3, gen)
        d = rhs(state, cfg3)
        g = state.moment
        rate = d[2] * g(0, 2) + g(2, 0) * d[4] - 2 * g(1, 1) * d[3]
        v3 = pot.derivative(state.q, 3)
        expected = v3 * (g(2, 0) * g(2, 1) - g(1, 1) * g(3, 0))
        assert rate == pytest.approx(expected, rel=1e-10, abs=1e-13)


def test_effective_hamiltonian_examples():
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    cfg = ModelConfig(potential=pot, mass=1.0, hbar=1.0, order=2)
    bare = MomentState(t=0.0, q=0.3, p=1.2, moments=(0.0, 0.0, 0.0))
    assert effective_hamiltonian(bare, cfg) == pytest.approx(
        1.2**2 / 2 + pot(0.3), rel=1e-15
    )
    # Far-field Gaussian: kinetic 1/2 plus momentum-dispersion offset
    # G02/2m = 1/8 (sigma0 = 1), everything else negligible.
    far = MomentState(t=0.0, q=-10.0, p=1.0, moments=(1.0, 0.0, 0.25))
    assert effective_hamiltonian(far, cfg) == pytest.approx(0.625, abs=5e-8)


def test_effective_potential_examples():
    pot4 = BarrierPotential(alpha=1.0, a=1.0, n=4)
    cfg = ModelConfig(potential=pot4, mass=1.0, hbar=1.0, order=2)
    bare = MomentState(t=0.0, q=0.0, p=0.0, moments=(0.0, 0.0, 0.0))
    for q in (-1.5, 0.0, 0.4, 2.0):
        assert effective_potential(q, bare, cfg) == pot4(q)
    # Flat-top barrier: V''(0) = 0, so only the momentum dispersion lifts the top.
    sigma0, hbar, mass = 0.5, 1.0, 1.0
    state = MomentState(
        t=0.0, q=-5.0, p=1.0, moments=(sigma0**2, 0.0, (hbar / (2 * sigma0)) ** 2)
    )
    assert effective_potential(0.0, state, cfg) == pytest.approx(
        pot4.height + hbar**2 / (8 * mass * sigma0**2), rel=1e-14
    )
    # Round-top barrier (n=1): the curvature term enters with V''(0) = -2 alpha / a^4.
    pot1 = BarrierPotential(alpha=1.0, a=1.0, n=1)
    cfg1 = ModelConfig(potential=pot1, mass=1.0, hbar=1.0, order=2)
    assert effective_potential(0.0, state, cfg1) == pytest.approx(
        pot1.height - sigma0**2 + hbar**2 / (8 * mass * sigma0**2), rel=1e-14
    )


def test_effective_potential_has_the_g30_term():
    # At order 3 V_eff adds (1/6) V''' G30 to the order-2 expression; the
    # other third moments and the mean momentum add nothing.
    pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
    cfg = ModelConfig(potential=pot, order=3)
    second = (0.5, 0.1, 0.5)
    without = MomentState(t=0.0, q=0.0, p=0.3, moments=second + (0.0, 0.3, -0.2, 0.4))
    with_g30 = MomentState(t=0.0, q=0.0, p=0.3, moments=second + (0.2, 0.3, -0.2, 0.4))
    order2 = MomentState(t=0.0, q=0.0, p=0.0, moments=second)
    q = 0.7
    assert effective_potential(q, without, cfg) == effective_potential(
        q, order2, ModelConfig(potential=pot, order=2)
    )
    delta = effective_potential(q, with_g30, cfg) - effective_potential(q, without, cfg)
    assert delta == pytest.approx(pot.derivative(q, 3) * 0.2 / 6.0, rel=1e-12)


def test_state_helpers_and_validation():
    state = MomentState(t=1.0, q=0.5, p=-0.25, moments=(1.0, 2.0, 3.0))
    assert state.order == 2
    assert state.moment(1, 1) == 2.0
    assert state.moment(3, 0) == 0.0  # beyond truncation reads as zero
    assert state.moment_dict() == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 3.0}
    vec = np.array([state.q, state.p, *state.moments])
    assert np.array_equal(vec, [0.5, -0.25, 1.0, 2.0, 3.0])
    back = vector_to_state(1.0, vec, 2)
    assert back == state
    assert moment_labels(3) == ("g20", "g11", "g02", "g30", "g21", "g12", "g03")
    with pytest.raises(ValueError):
        MomentState(t=0.0, q=0.0, p=0.0, moments=(1.0,))
    with pytest.raises(ValueError):
        MomentState(t=0.0, q=math.nan, p=0.0, moments=())
    with pytest.raises(ValueError):
        vector_to_state(0.0, [1.0, 2.0, 3.0], 2)
    dispersion_flip = MomentState(t=0.0, q=0.0, p=0.0, moments=(-1.0, 0.0, 1.0))
    assert not dispersion_flip.dispersions_nonnegative
    with pytest.raises(ValueError):
        ModelConfig(potential=BarrierPotential(), order=1)
    with pytest.raises(ValueError):
        ModelConfig(potential=BarrierPotential(), mass=0.0)
