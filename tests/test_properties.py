"""Property tests of the evaluators l(t) over families, weights and scales.

Each evaluation is either within its stated tolerance or raises NumericError:
the quadrature route keeps an absolute tolerance of 1e-9 on l(t / m), with
m = max t, which is relative 1e-9 on l(t).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxstable import (
    Discrete,
    DiscreteCdf,
    Exponential,
    Frechet,
    NumericError,
    PointMass,
    Rescaled,
    Tilted,
    TwoPoint,
    UnitExponential,
    pairwise_l2_identity,
    rescale_to_unit_mean,
    stdf_extremal,
    tilt,
)

ALPHA = st.floats(0.05, 0.99999)
Z = st.floats(0.1, 20.0)
MEAN = st.floats(0.01, 100.0)


@st.composite
def families(draw):
    kind = draw(st.integers(0, 10))
    if kind == 0:
        return Frechet(draw(ALPHA))
    if kind == 1:
        return UnitExponential()
    if kind == 2:
        return TwoPoint(draw(st.floats(0.01, 10.0)))
    if kind == 3:
        return Discrete([(0.5, 0.5), (1.5, 0.5)])
    if kind == 4:
        return tilt(UnitExponential(), draw(Z))
    if kind == 5:
        return tilt(Discrete([(0.0, 0.25), (0.8, 0.25), (1.6, 0.5)]), draw(Z))
    if kind == 6:
        return Tilted(Frechet(draw(ALPHA)), draw(Z))
    if kind == 7:
        return Rescaled(Exponential(draw(MEAN)))
    if kind == 8:
        return rescale_to_unit_mean(Exponential(draw(MEAN)))
    if kind == 9:
        return rescale_to_unit_mean(PointMass(draw(MEAN)))
    return rescale_to_unit_mean(DiscreteCdf([(draw(MEAN), 0.5), (draw(MEAN), 0.5)]))


WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)), min_size=1,
                   max_size=8).filter(lambda t: max(t) > 0.0)
SCALES = st.integers(-300, 300).map(lambda k: 10.0 ** k)
METHOD = st.sampled_from(["auto", "quadrature"])


def evaluate(F, t, method):
    """l_F(t), or None when the route raises NumericError."""
    try:
        return stdf_extremal(F, t, method=method)
    except NumericError:
        return None


def logistic(t, alpha):
    t = np.asarray(t, dtype=float)
    m = t.max()
    return m * float(np.sum((t / m) ** (1.0 / alpha)) ** alpha)


@settings(max_examples=80, deadline=None)
@given(families(), WEIGHTS, METHOD)
def test_bounds(F, t, method):
    value = evaluate(F, t, method)
    if value is not None:
        assert max(t) * (1.0 - 1e-9) <= value <= sum(t) * (1.0 + 1e-9)


@settings(max_examples=80, deadline=None)
@given(families(), WEIGHTS, SCALES, METHOD)
def test_homogeneity_from_1e_minus_300_to_1e300(F, t, c, method):
    # the tolerance is relative at every scale: no route may give up, and
    # each side is within 1e-9 relative of the exact value
    t = np.asarray(t)
    value = stdf_extremal(F, t, method=method)
    scaled = stdf_extremal(F, c * t, method=method)
    assert scaled == pytest.approx(c * value, rel=2e-9)


@settings(max_examples=60, deadline=None)
@given(families(), WEIGHTS, st.randoms(use_true_random=False), METHOD)
def test_permutation_invariance(F, t, random, method):
    shuffled = list(t)
    random.shuffle(shuffled)
    value = evaluate(F, t, method)
    if value is not None:
        assert evaluate(F, shuffled, method) == pytest.approx(value, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(ALPHA, st.one_of(st.none(), Z), WEIGHTS, st.integers(-300, 0))
def test_frechet_quadrature_matches_logistic(alpha, z, t, k):
    # Tilted(Frechet(alpha), z) is Frechet(alpha) again, through the
    # generic wrapper
    F = Frechet(alpha) if z is None else Tilted(Frechet(alpha), z)
    t = 10.0 ** k * np.asarray(t) / max(t)
    value = stdf_extremal(F, t, method="quadrature")
    assert value == pytest.approx(logistic(t, alpha), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(families())
def test_pairwise_identity_matches_product_integral(F):
    # 2 - int (1 - F)^2 and int (1 - F^2): two integrands for l_F(1, 1)
    expected = pairwise_l2_identity(F)
    assert stdf_extremal(F, [1.0, 1.0], method="quadrature") == pytest.approx(
        expected, rel=1e-9)
    assert stdf_extremal(F, [1.0, 1.0]) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(Z, st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
def test_tilted_exponential_matches_scipy(z, t):
    # F(x) = (1 - e^(-psi x))^z, integrated by QUADPACK in pieces
    F = Tilted(UnitExponential(), z)
    rates = F.psi / np.asarray(t)

    def g(s):
        return -math.expm1(z * float(np.sum(np.log(-np.expm1(-rates * s)))))

    edges = max(t) * np.array([0.0, 0.25, 1.0, 3.0, 8.0, 50.0]) * max(1.0, 1.0 / F.psi)
    oracle = math.fsum(quad(g, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                       for lo, hi in zip(edges[:-1], edges[1:]))
    assert stdf_extremal(F, t) == pytest.approx(oracle, rel=1e-9)
