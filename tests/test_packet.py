from fractions import Fraction

import pytest

from momentous import GaussianPacket, InvalidOrder, initial_moments

from conftest import rng


def test_order2_example():
    state = initial_moments(GaussianPacket(q0=-5.0, p0=1.0, sigma0=1.0, hbar=1.0), 2)
    assert state.t == 0.0
    assert state.q == -5.0 and state.p == 1.0
    assert state.moments == (1.0, 0.0, 0.25)


def test_saturation_exact_for_rational_packets():
    gen = rng(5)
    for _ in range(100):
        sigma0 = Fraction(int(gen.integers(1, 60)), int(gen.integers(1, 60)))
        hbar = Fraction(int(gen.integers(1, 30)), int(gen.integers(1, 30)))
        packet = GaussianPacket(
            q0=Fraction(-3), p0=Fraction(1), sigma0=sigma0, hbar=hbar
        )
        state = initial_moments(packet, 2)
        g20, g11, g02 = state.moments
        assert g20 * g02 - g11 * g11 == hbar * hbar / 4


def test_order3_skewed_example():
    state = initial_moments(GaussianPacket(q0=0.0, p0=1.0, sigma0=1.0, hbar=1.0), 3)
    assert state.moments[3:] == (0.0, 0.0, 0.0, -1.0)


def test_order3_zero_convention():
    packet = GaussianPacket(q0=0.0, p0=2.5, sigma0=0.4, hbar=1.0)
    state = initial_moments(packet, 3, third_moment_convention="zero")
    assert state.moments[3:] == (0.0, 0.0, 0.0, 0.0)


def test_order3_reduces_to_order2_on_shared_indices():
    packet = GaussianPacket(q0=-2.0, p0=1.3, sigma0=0.7, hbar=0.8)
    s2 = initial_moments(packet, 2)
    s3 = initial_moments(packet, 3)
    assert s3.moments[:3] == s2.moments
    assert (s3.q, s3.p) == (s2.q, s2.p)


def test_spread_scaling():
    base = GaussianPacket(q0=0.0, p0=0.0, sigma0=0.5, hbar=1.0)
    wide = GaussianPacket(q0=0.0, p0=0.0, sigma0=1.0, hbar=1.0)
    a = initial_moments(base, 2)
    b = initial_moments(wide, 2)
    assert b.moments[0] == 4 * a.moments[0]
    assert b.moments[2] == a.moments[2] / 4
    assert a.moments[0] * a.moments[2] == b.moments[0] * b.moments[2]


def test_order0_is_the_bare_mean_state():
    state = initial_moments(GaussianPacket(q0=-5.0, p0=1.0, sigma0=1.0), 0)
    assert (state.t, state.q, state.p, state.moments) == (0.0, -5.0, 1.0, ())
    assert state.order == 0
    # No moment is formed at order 0, so no spread overflows.
    assert initial_moments(GaussianPacket(q0=-5.0, p0=1.0, sigma0=1e160), 0).moments == ()


def test_validation():
    with pytest.raises(InvalidOrder):
        initial_moments(GaussianPacket(q0=0, p0=0, sigma0=1.0), 4)
    with pytest.raises(InvalidOrder):
        initial_moments(GaussianPacket(q0=0, p0=0, sigma0=1.0), 1)
    with pytest.raises(ValueError):
        GaussianPacket(q0=0, p0=0, sigma0=0.0)
    with pytest.raises(ValueError):
        GaussianPacket(q0=0, p0=0, sigma0=1.0, hbar=0.0)
    with pytest.raises(ValueError):
        initial_moments(
            GaussianPacket(q0=0, p0=0, sigma0=1.0), 3, third_moment_convention="flat"
        )


@pytest.mark.parametrize("order", [0, 2, 3])
def test_the_convention_is_checked_at_every_order(order):
    with pytest.raises(ValueError) as info:
        initial_moments(GaussianPacket(q0=0, p0=0, sigma0=1.0), order, "odd")
    assert str(info.value) == "third_moment_convention must be one of ['skewed', 'zero']"

