from fractions import Fraction

import pytest

from momentous import BarrierPotential, GaussianPacket, ModelConfig, initial_moments

from conftest import rng


def model(order, hbar=1.0):
    return ModelConfig(potential=BarrierPotential(alpha=1.0, a=1.0, n=4), hbar=hbar, order=order)


def test_order2_example():
    state = initial_moments(GaussianPacket(q0=-5.0, p0=1.0, sigma0=1.0), model(2))
    assert state.t == 0.0
    assert state.q == -5.0 and state.p == 1.0
    assert state.moments == (1.0, 0.0, 0.25)


def test_saturation_exact_for_rational_packets():
    gen = rng(5)
    for _ in range(100):
        sigma0 = Fraction(int(gen.integers(1, 60)), int(gen.integers(1, 60)))
        hbar = Fraction(int(gen.integers(1, 30)), int(gen.integers(1, 30)))
        packet = GaussianPacket(q0=Fraction(-3), p0=Fraction(1), sigma0=sigma0)
        state = initial_moments(packet, model(2, hbar))
        g20, g11, g02 = state.moments
        assert g20 * g02 - g11 * g11 == hbar * hbar / 4


def test_order3_skewed_example():
    state = initial_moments(GaussianPacket(q0=0.0, p0=1.0, sigma0=1.0), model(3))
    assert state.moments[3:] == (0.0, 0.0, 0.0, -1.0)


def test_order3_zero_convention():
    packet = GaussianPacket(q0=0.0, p0=2.5, sigma0=0.4, third_moment_convention="zero")
    state = initial_moments(packet, model(3))
    assert state.moments[3:] == (0.0, 0.0, 0.0, 0.0)


def test_order3_reduces_to_order2_on_shared_indices():
    packet = GaussianPacket(q0=-2.0, p0=1.3, sigma0=0.7)
    s2 = initial_moments(packet, model(2, 0.8))
    s3 = initial_moments(packet, model(3, 0.8))
    assert s3.moments[:3] == s2.moments
    assert (s3.q, s3.p) == (s2.q, s2.p)


def test_spread_scaling():
    base = GaussianPacket(q0=0.0, p0=0.0, sigma0=0.5)
    wide = GaussianPacket(q0=0.0, p0=0.0, sigma0=1.0)
    a = initial_moments(base, model(2))
    b = initial_moments(wide, model(2))
    assert b.moments[0] == 4 * a.moments[0]
    assert b.moments[2] == a.moments[2] / 4
    assert a.moments[0] * a.moments[2] == b.moments[0] * b.moments[2]


def test_order0_is_the_bare_mean_state():
    state = initial_moments(GaussianPacket(q0=-5.0, p0=1.0, sigma0=1.0), model(0))
    assert (state.t, state.q, state.p, state.moments) == (0.0, -5.0, 1.0, ())
    assert state.order == 0
    # No moment is formed at order 0, so no spread overflows.
    assert initial_moments(GaussianPacket(q0=-5.0, p0=1.0, sigma0=1e160), model(0)).moments == ()


def test_validation():
    # The order is the model's, which rejects every order but 0, 2 and 3.
    for order in (1, 4):
        with pytest.raises(ValueError, match=r"^order must be 0, 2 or 3$"):
            model(order)
    with pytest.raises(ValueError, match=r"^sigma0 must be positive$"):
        GaussianPacket(q0=0, p0=0, sigma0=0.0)
    # The spread is checked before the convention.
    with pytest.raises(ValueError, match=r"^sigma0 must be positive$"):
        GaussianPacket(q0=0, p0=0, sigma0=-1.0, third_moment_convention="flat")
    with pytest.raises(ValueError, match="third_moment_convention"):
        GaussianPacket(q0=0, p0=0, sigma0=1.0, third_moment_convention="flat")


@pytest.mark.parametrize("order", [0, 2, 3])
def test_the_convention_is_checked_at_every_order(order):
    # The packet checks its convention when it is built, so no order, not
    # even order 0 where no moment is formed, meets an invalid one.
    with pytest.raises(ValueError) as info:
        initial_moments(GaussianPacket(q0=0, p0=0, sigma0=1.0, third_moment_convention="odd"),
                        model(order))
    assert str(info.value) == "third_moment_convention must be one of ['skewed', 'zero']"
    assert initial_moments(GaussianPacket(q0=0, p0=0, sigma0=1.0), model(order)).order == order

