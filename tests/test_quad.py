import math

import numpy as np
import pytest

from maxstable import NumericError
from maxstable._quad import tail_quad


class Counted:
    """An array integrand that records the size of each call."""

    def __init__(self, g):
        self.g = g
        self.sizes = []

    def __call__(self, s):
        assert s.ndim == 1
        self.sizes.append(s.size)
        return self.g(s)


def test_one_vectorized_call_per_round():
    g = Counted(lambda s: np.exp(-s))
    assert tail_quad(g, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert all(n % 15 == 0 for n in g.sizes)
    assert len(g.sizes) <= 10


@pytest.mark.parametrize("a", [0.0, 0.3, 5.0, 40.0])
def test_light_tail(a):
    # int_a^oo e^-s (1 + s) ds = e^-a (2 + a)
    value = tail_quad(lambda s: np.exp(-s) * (1.0 + s), a, 1.0)
    assert value == pytest.approx(math.exp(-a) * (2.0 + a), rel=1e-12, abs=1e-10)


@pytest.mark.parametrize("kappa", [1.00001, 1.001, 1.1, 2.0, 5.0])
def test_algebraic_tail(kappa):
    # int_0^oo (1 - exp(-s^-kappa)) ds = Gamma(1 - 1/kappa), up to 1e5
    exact = math.gamma(1.0 - 1.0 / kappa)
    value = tail_quad(lambda s: -np.expm1(-s ** -kappa), 0.0, 1.0,
                      tail_index=kappa, abs_tol=1e-11 * exact)
    assert value == pytest.approx(exact, rel=1e-11)


def test_finite_upper_with_breakpoints():
    # a step function: exact once the breakpoints are panel edges
    steps = np.array([0.5, 1.25, 2.0])
    value = tail_quad(lambda s: 1.0 - np.searchsorted(steps, s, side="right") / 3.0,
                      0.0, 2.0, upper=2.0, breakpoints=steps)
    assert value == pytest.approx((0.5 + 0.75 * 2.0 / 3.0 + 0.75 / 3.0), rel=1e-14)


def test_undeclared_heavy_tail_raises():
    # the exponential map gives up at s = 1e300, where this tail still
    # carries most of its mass
    with pytest.raises(NumericError):
        tail_quad(lambda s: -np.expm1(-s ** -1.001), 0.0, 1.0)


def test_tail_heavier_than_declared_raises():
    # declared kappa = 3 maps an s^-1.01 tail onto an unbounded integrand
    with pytest.raises(NumericError) as info:
        tail_quad(lambda s: -np.expm1(-s ** -1.01), 0.0, 1.0, tail_index=3.0)
    assert info.value.achieved > 1e-10


def test_tolerance_below_rounding_raises():
    with pytest.raises(NumericError) as info:
        tail_quad(lambda s: np.exp(-s), 0.0, 1.0, abs_tol=1e-20)
    assert info.value.achieved > 1e-20


def test_empty_range_and_invalid_tail_index():
    assert tail_quad(lambda s: np.ones_like(s), 2.0, 1.0, upper=1.0) == 0.0
    with pytest.raises(ValueError):
        tail_quad(lambda s: np.exp(-s), 0.0, 1.0, tail_index=1.0)


def test_many_breakpoints_forced_quadrature():
    # 200 atoms times 3 distinct t entries: 600 breakpoints, more pieces
    # than the first round could split into 8 panels each within the cap
    from maxstable import Discrete, stdf_extremal

    values = np.linspace(0.01, 1.99, 200)
    F = Discrete([(v, 1.0) for v in values])
    t = np.array([1.0, 0.7, 0.3])
    # the exact sum over the product's steps
    exact = F._product_tail(0.0, t, np.ones(3), 1e-9)
    assert stdf_extremal(F, t, method="quadrature") == pytest.approx(exact, rel=1e-9)
