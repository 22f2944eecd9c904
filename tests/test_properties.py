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
    CanonicalModel,
    Discrete,
    DiscreteCdf,
    Exponential,
    Frechet,
    MixingMeasure,
    NumericError,
    PointMass,
    Rescaled,
    Tilted,
    TwoPoint,
    UnitExponential,
    copula,
    pairwise_l2_identity,
    rescale_to_unit_mean,
    stdf_canonical,
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


@st.composite
def models(draw):
    b = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    if b == 1.0 and draw(st.booleans()):
        return CanonicalModel(1.0)
    shares = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    total = math.fsum(shares)
    return CanonicalModel(b, MixingMeasure(
        [(share / total, draw(families())) for share in shares]))


def bits(call, *args, **kwargs):
    """The result's bits, or the error type it raised."""
    try:
        return float(call(*args, **kwargs)).hex()
    except NumericError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(models(), WEIGHTS, METHOD)
def test_canonical_is_the_mixture_of_extremal_calls(model, t, method):
    # one validation per call, then the same family calls, bit for bit
    def mixture():
        total = float(np.sum(np.asarray(t, dtype=float)))
        if model.mu is None or model.b == 1.0:
            return model.b * total
        mix = math.fsum(w * stdf_extremal(F, t, method=method) for w, F in model.mu)
        return model.b * total + (1.0 - model.b) * mix

    assert bits(stdf_canonical, model, t, method=method) == bits(mixture)


@settings(max_examples=60, deadline=None)
@given(models(), st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=6))
def test_copula_is_exp_of_minus_canonical(model, u):
    u = np.asarray(u)
    assert bits(copula, model, u) == bits(
        lambda: math.exp(-stdf_canonical(model, -np.log(u))))


@st.composite
def tiny_weight_laws(draw):
    """Discrete laws with weights as light as 1e-15 at the bottom, in the
    middle or at the top, at atom ratios up to 1e12."""
    n = draw(st.integers(2, 5))
    raw = [10.0 ** draw(st.floats(-15.0, 0.0)) for _ in range(n)]
    weights = np.array(raw) / math.fsum(raw)
    values = np.cumprod([1.0] + [10.0 ** draw(st.floats(0.01, 12.0)) for _ in raw[1:]])
    if draw(st.booleans()):
        values[0] = 0.0
    values /= values @ weights
    return Discrete(list(zip(values.tolist(), weights.tolist())))


@settings(max_examples=150, deadline=None)
@given(tiny_weight_laws(), Z.filter(lambda z: z != 1.0))  # tilt(F, 1) is F itself
def test_tilted_atomic_weights_match_mpmath(F, z):
    # F_j^z - F_(j-1)^z at 50 digits, from the law's own weights.  The
    # weights are F_j^z (1 - e^(-z J_j)): the jump J_j keeps its relative
    # precision, and so does F_j^z, a power of F_j up to 1/2 and e^(z log F_j)
    # above, where log F_j = log1p(-mass above) keeps a light top weight.
    # Subnormal weights keep only an absolute precision.
    import mpmath

    with mpmath.workdps(50):
        w = [mpmath.mpf(float(v)) for v in F.weights]
        cum = [mpmath.fsum(w[:j + 1]) / mpmath.fsum(w) for j in range(len(w))]
        exact = np.array([float(c ** z - p ** z) for c, p in zip(cum, [0] + cum[:-1])])
    values, weights = Tilted(F, z).atom_values()
    G = tilt(F, z)
    assert isinstance(G, Discrete)
    assert np.array_equal(G.values, values)
    assert np.array_equal(G.weights, weights / weights.sum())
    for got in (weights, G.weights):
        assert np.all(np.abs(got - exact) <= 1e-14 * exact + np.finfo(float).tiny)


@settings(max_examples=200, deadline=None)
@given(st.floats(math.log(1e-12), math.log(1e3)).map(math.exp),
       st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5))
def test_two_point_is_the_two_atom_table_from_theta(theta, t):
    F = TwoPoint(theta)
    q, p0 = F.q, math.exp(-theta)
    assert np.all(F.log_cdf(np.array([0.0, 0.5 * q, np.nextafter(q, 0.0)])) == -theta)
    assert np.all(F.log_cdf(np.array([5e-324, 0.5 * q, q]), left=True) == -theta)
    p = np.array([0.0, p0, np.nextafter(p0, 1.0), 0.5, 1.0])
    assert np.array_equal(F.quantile(p), np.where(p <= p0, 0.0, q))
    a = np.array([0.0, 0.5 * q, q, 2.0 * q])
    assert np.array_equal(F.tail_integral(a), -math.expm1(-theta) * np.maximum(q - a, 0.0))
    values, jumps = F._atom_steps()
    assert np.array_equal(values, [0.0, q]) and np.array_equal(jumps, [np.inf, theta])
    if p0 > 0.0:
        # the law from the weights builds; where e^-theta is subnormal its
        # log F at 0 loses digits, which l(t) hardly sees
        G = Discrete([(0.0, p0), (q, -math.expm1(-theta))])
        for method in ("auto", "quadrature"):
            expected = stdf_extremal(G, t, method=method)
            assert stdf_extremal(F, t, method=method) == pytest.approx(
                expected, rel=1e-14, abs=0.0)
