import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maxstable import (
    CanonicalModel,
    Dirac1,
    Discrete,
    Frechet,
    LevySpec,
    MixingMeasure,
    NumericError,
    TwoPoint,
    UnitExponential,
    bernstein_psi,
    check_3margin_ciid,
    copula,
    effective_dim,
    estimate_drift,
    inclusion_exclusion_transform,
    pairwise_l2_identity,
    stable_evaluator,
    stable_transform,
    stdf_canonical,
    stdf_extremal,
    stdf_levy,
    tilt,
    weight_vector,
)

LN2 = math.log(2.0)
BETA_LN2 = 1.0 / -math.expm1(-LN2)  # == 2


def point_model(F, b=0.0):
    return CanonicalModel(b, MixingMeasure.point(F))


EVAL_FAMILIES = [
    Dirac1(),
    Frechet(0.5),
    TwoPoint(LN2),
    UnitExponential(),
    Discrete([(0.0, 0.25), (0.8, 0.25), (1.6, 0.5)]),
    tilt(UnitExponential(), 2.0),
]


def test_weight_vector_validation():
    assert_allclose(weight_vector([1, 2, 0]), [1.0, 2.0, 0.0])
    assert effective_dim([1, 0, 2, 0, 0]) == 3
    assert effective_dim([0.0, 0.0]) == 0
    assert effective_dim([]) == 0
    with pytest.raises(ValueError):
        weight_vector([1.0, -0.5])
    with pytest.raises(ValueError):
        weight_vector([np.inf])


def test_extremal_margin_and_zero():
    for F in EVAL_FAMILIES:
        assert stdf_extremal(F, [1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
        assert stdf_extremal(F, [0.0, 0.0]) == 0.0
        assert stdf_extremal(F, []) == 0.0


def test_extremal_examples():
    assert stdf_extremal(Frechet(0.5), [1, 1]) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )
    assert stdf_extremal(TwoPoint(LN2), [1, 2]) == pytest.approx(2.5, abs=1e-12)
    assert stdf_extremal(UnitExponential(), [1, 1]) == pytest.approx(1.5, abs=1e-12)
    assert stdf_extremal(Dirac1(), [2, 3]) == pytest.approx(3.0, abs=1e-15)


def test_canonical_examples():
    assert stdf_canonical(CanonicalModel(1.0), [2, 3]) == pytest.approx(5.0)
    assert stdf_canonical(point_model(Dirac1(), b=0.5), [1, 1]) == pytest.approx(1.5)
    assert stdf_canonical(point_model(Frechet(0.5)), [1, 1, 1, 1]) == pytest.approx(
        2.0, abs=1e-12
    )


@pytest.mark.parametrize("F", EVAL_FAMILIES, ids=repr)
@pytest.mark.parametrize("lam", [0.1, 1.0, 7.3])
def test_homogeneity(F, lam):
    rng = np.random.default_rng(41)
    for _ in range(5):
        t = rng.uniform(0.05, 2.0, size=rng.integers(1, 6))
        a = stdf_extremal(F, lam * t)
        b = lam * stdf_extremal(F, t)
        assert a == pytest.approx(b, abs=1e-9 * max(1.0, lam))


@pytest.mark.parametrize("F", EVAL_FAMILIES, ids=repr)
def test_bounds_and_symmetry(F):
    rng = np.random.default_rng(43)
    model = point_model(F)
    for _ in range(10):
        t = rng.uniform(0.0, 3.0, size=rng.integers(2, 9))
        val = stdf_extremal(F, t)
        assert np.max(t) - 1e-9 <= val <= np.sum(t) + 1e-9
        perm = rng.permutation(t.size)
        assert stdf_canonical(model, t[perm]) == pytest.approx(
            stdf_canonical(model, t), abs=1e-12
        )


@pytest.mark.parametrize("F", EVAL_FAMILIES, ids=repr)
def test_margin_consistency(F):
    rng = np.random.default_rng(47)
    t = rng.uniform(0.1, 2.0, size=4)
    with_zero = np.concatenate([t, [0.0]])
    assert stdf_extremal(F, with_zero) == pytest.approx(
        stdf_extremal(F, t), abs=1e-12
    )


@pytest.mark.parametrize(
    "F", [Frechet(0.5), TwoPoint(LN2), Dirac1(), UnitExponential()], ids=repr
)
def test_oracle_equivalence_closed_vs_quadrature(F):
    rng = np.random.default_rng(53)
    for _ in range(50):
        t = rng.uniform(0.05, 3.0, size=rng.integers(1, 7))
        closed = stdf_extremal(F, t)
        numeric = stdf_extremal(F, t, method="quadrature")
        assert numeric == pytest.approx(closed, abs=1e-7)


def test_levy_examples():
    assert stdf_levy(LevySpec(1.0), [1, 1]) == pytest.approx(2.0)
    single = LevySpec(0.0, [(LN2, BETA_LN2)])
    assert bernstein_psi(single, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert bernstein_psi(single, 2.0) == pytest.approx(1.5, abs=1e-14)
    assert stdf_levy(single, [1, 1]) == pytest.approx(1.5, abs=1e-12)
    assert stdf_levy(single, [1, 2]) == pytest.approx(2.5, abs=1e-12)
    mixed = LevySpec(0.25, [(LN2, 1.5)])
    assert bernstein_psi(mixed, 2.0) == pytest.approx(1.625, abs=1e-14)


def test_bernstein_psi_shape():
    spec = LevySpec(0.2, [(0.7, 1.3), (math.inf, 0.4)])
    xs = np.linspace(0.0, 6.0, 25)
    psi = bernstein_psi(spec, xs)
    assert psi[0] == 0.0
    diffs = np.diff(psi)
    assert np.all(diffs >= -1e-12)  # non-decreasing
    assert np.all(np.diff(diffs) <= 1e-12)  # concave
    with pytest.raises(ValueError):
        bernstein_psi(spec, -1.0)


def test_levy_bridge_matches_two_point_mixture():
    rng = np.random.default_rng(59)
    # single normalized atom
    single = LevySpec(0.0, [(LN2, BETA_LN2)])
    model_single = point_model(TwoPoint(LN2))
    # two atoms plus drift, normalized so drift + intensity = 1
    c1, c2 = -0.3 * math.expm1(-0.9), -0.8 * math.expm1(-2.2)
    drift = 1.0 - (c1 + c2)
    double = LevySpec(drift, [(0.9, 0.3), (2.2, 0.8)])
    model_double = CanonicalModel(
        drift,
        MixingMeasure(
            [(c1 / (c1 + c2), TwoPoint(0.9)), (c2 / (c1 + c2), TwoPoint(2.2))]
        ),
    )
    for spec, model in [(single, model_single), (double, model_double)]:
        for _ in range(40):
            t = rng.uniform(0.0, 4.0, size=rng.integers(1, 7))
            assert stdf_levy(spec, t) == pytest.approx(
                stdf_canonical(model, t), abs=1e-10
            )


def test_copula_examples_and_margins():
    logistic = point_model(Frechet(0.5))
    assert copula(logistic, [0.5, 1.0]) == pytest.approx(0.5, abs=1e-12)
    assert copula(logistic, [math.exp(-1), math.exp(-1)]) == pytest.approx(
        math.exp(-math.sqrt(2.0)), abs=1e-12
    )
    indep = CanonicalModel(1.0)
    assert copula(indep, [0.3, 0.7]) == pytest.approx(0.21, abs=1e-12)
    with pytest.raises(ValueError):
        copula(indep, [0.0, 0.5])
    with pytest.raises(ValueError):
        copula(indep, [0.5, 1.2])


@pytest.mark.parametrize("s", [2.0, 5.0])
def test_copula_max_stability(s):
    rng = np.random.default_rng(61)
    model = CanonicalModel(0.4, MixingMeasure.point(TwoPoint(LN2)))
    for _ in range(10):
        u = rng.uniform(0.05, 1.0, size=rng.integers(2, 5))
        lhs = copula(model, u**s) ** (1.0 / s)
        assert lhs == pytest.approx(copula(model, u), abs=1e-9)


def test_stable_transform_identities():
    indep = CanonicalModel(1.0)
    assert stable_transform(indep, 0.5, [1, 1]) == pytest.approx(
        math.sqrt(2.0), abs=1e-14
    )
    assert stable_transform(indep, 0.5, [1, 0, 0]) == pytest.approx(1.0, abs=1e-14)
    chain = stable_evaluator(stable_evaluator(indep, 0.5), 0.5)
    assert chain([1, 1]) == pytest.approx(
        stable_transform(indep, 0.25, [1, 1]), abs=1e-12
    )
    with pytest.raises(ValueError):
        stable_evaluator(indep, 1.0)


def test_stable_transform_stays_valid():
    model = CanonicalModel(0.3, MixingMeasure.point(UnitExponential()))
    ev = stable_evaluator(model, 0.7)
    rng = np.random.default_rng(67)
    for _ in range(5):
        t = rng.uniform(0.1, 2.0, size=3)
        val = ev(t)
        assert np.max(t) <= val <= np.sum(t) + 1e-9
    assert ev([1.0]) == pytest.approx(1.0, abs=1e-10)


def test_inclusion_exclusion_examples():
    comonotone = lambda t: float(np.max(np.asarray(t))) if len(t) else 0.0  # noqa: E731
    assert inclusion_exclusion_transform(comonotone, [2, 3]) == pytest.approx(3.0)
    indep = CanonicalModel(1.0)
    assert inclusion_exclusion_transform(indep, [1, 1]) == pytest.approx(1.5)
    logistic = stable_evaluator(indep, 0.5)
    assert inclusion_exclusion_transform(logistic, [1, 1]) == pytest.approx(
        2.0 - 2.0**-0.5, abs=1e-12
    )


def test_inclusion_exclusion_bounds_and_cap():
    rng = np.random.default_rng(71)
    model = point_model(Frechet(0.5))
    for _ in range(5):
        t = rng.uniform(0.2, 2.0, size=5)
        val = inclusion_exclusion_transform(model, t)
        assert np.max(t) - 1e-8 <= val <= np.sum(t) + 1e-8
    with pytest.raises(ValueError):
        inclusion_exclusion_transform(model, np.ones(21))


@pytest.mark.parametrize("F", EVAL_FAMILIES, ids=repr)
def test_pairwise_l2_identity(F):
    val = pairwise_l2_identity(F)
    assert val < 2.0
    assert val == pytest.approx(stdf_extremal(F, [1.0, 1.0]), abs=1e-8)


def test_pairwise_l2_examples():
    assert pairwise_l2_identity(Dirac1()) == pytest.approx(1.0, abs=1e-12)
    assert pairwise_l2_identity(UnitExponential()) == pytest.approx(1.5, abs=1e-10)
    assert pairwise_l2_identity(Frechet(0.5)) == pytest.approx(
        math.sqrt(2.0), abs=1e-10
    )


def test_estimate_drift_examples():
    assert estimate_drift(CanonicalModel(1.0), 100) == 1.0
    est = estimate_drift(point_model(Frechet(0.5)), 10_000)
    assert est <= 0.005
    mixed = CanonicalModel(0.4, MixingMeasure.point(Frechet(0.5)))
    expected = 0.4 + 0.6 * (math.sqrt(10_001.0) - math.sqrt(10_000.0))
    assert estimate_drift(mixed, 10_000) == pytest.approx(expected, abs=1e-9)


def test_estimate_drift_accepts_evaluator():
    model = CanonicalModel(0.4, MixingMeasure.point(Frechet(0.5)))
    ev = lambda t: stdf_canonical(model, t)  # noqa: E731
    assert estimate_drift(ev, 500) == pytest.approx(
        estimate_drift(model, 500), abs=1e-9
    )
    with pytest.raises(ValueError):
        estimate_drift(model, 1)


@pytest.mark.parametrize(
    "F", [Frechet(0.5), TwoPoint(LN2), UnitExponential(), Dirac1()], ids=repr
)
def test_drift_differences_monotone(F):
    model = CanonicalModel(0.25, MixingMeasure.point(F))
    diffs = [estimate_drift(model, n) for n in (2, 5, 10, 50, 200, 1000)]
    for a, b in zip(diffs, diffs[1:]):
        assert b <= a + 1e-10
    assert all(d >= 0.25 - 1e-12 for d in diffs)


def test_check_3margin_examples():
    feasible, l3 = check_3margin_ciid(1.0, 1.0, 1.0)
    assert feasible
    assert l3([1, 1, 1]) == pytest.approx(1.75)
    feasible, _ = check_3margin_ciid(1.0, 2.0, 1.0)
    assert not feasible
    feasible, _ = check_3margin_ciid(2.0, 2.0, 2.0)
    assert feasible
    with pytest.raises(ValueError):
        check_3margin_ciid(0.0, 1.0, 1.0)


def test_check_3margin_evaluator_properties():
    _, l3 = check_3margin_ciid(0.8, 1.1, 2.3)
    rng = np.random.default_rng(73)
    for _ in range(20):
        t = rng.uniform(0.0, 3.0, size=3)
        val = l3(t)
        assert np.max(t) - 1e-12 <= val <= np.sum(t) + 1e-12
        assert l3(t[rng.permutation(3)]) == pytest.approx(val, abs=1e-12)
        lam = rng.uniform(0.1, 4.0)
        assert l3(lam * t) == pytest.approx(lam * val, abs=1e-9 * max(1, lam))


def test_unit_exponential_inclusion_exclusion_closed_form():
    # the dispatched closed form is the subset sum; check it directly
    ue = UnitExponential()
    rng = np.random.default_rng(79)
    for _ in range(10):
        t = rng.uniform(0.2, 2.5, size=rng.integers(1, 6))
        oracle = 0.0
        for k in range(1, t.size + 1):
            for idx in combinations(range(t.size), k):
                oracle += (-1.0) ** (k + 1) / np.sum(1.0 / t[list(idx)])
        assert stdf_extremal(ue, t) == pytest.approx(oracle, abs=1e-10)


def test_numeric_error_carries_achieved_tolerance():
    err = NumericError("boom", achieved=3e-8)
    assert err.achieved == 3e-8


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_logistic_closed_form_extreme_scales(c):
    t = np.array([1.0, 2.0, 0.5])
    F = Frechet(0.5)
    assert stdf_extremal(F, c * t) == pytest.approx(c * stdf_extremal(F, t),
                                                    rel=1e-12)


@pytest.mark.parametrize("c", [1e-8, 1e-6])
def test_quadrature_tiny_scale_is_homogeneous(c):
    t = np.array([1.0, 2.0, 0.5])
    F = tilt(UnitExponential(), 2.0)
    assert stdf_extremal(F, c * t) == pytest.approx(c * stdf_extremal(F, t),
                                                    rel=1e-9)


@pytest.mark.parametrize("c", [1e6, 1e250])
def test_quadrature_large_scale_is_homogeneous(c):
    # the tolerance is relative at every scale: large t neither raises nor
    # loses digits
    t = np.array([1.0, 2.0, 0.5])
    F = tilt(UnitExponential(), 2.0)
    assert stdf_extremal(F, c * t) == pytest.approx(c * stdf_extremal(F, t),
                                                    rel=1e-9)


@pytest.mark.parametrize("F", [tilt(UnitExponential(), 2.0), Frechet(0.5)], ids=repr)
def test_quadrature_weights_below_rounding_of_the_maximum(F):
    # t / max t underflows to 0 for the small entry: s / 0 = oo and F(oo) = 1,
    # with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = stdf_extremal(F, [1e300, 1e-300], method="quadrature")
    assert value == pytest.approx(1e300, rel=1e-9)


def test_copula_near_one_respects_upper_bound():
    u = np.array([0.99999, 0.99999])
    model = point_model(tilt(UnitExponential(), 2.0))
    value = copula(model, u)
    assert float(np.prod(u)) <= value <= u.min()
    t = -math.log(0.99999)
    expected = math.exp(-t * stdf_canonical(model, [1.0, 1.0]))
    assert value == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.97, 0.99, 0.999, 0.9999, 0.99999])
def test_quadrature_heavy_frechet_is_right_or_raises(alpha):
    # the quadrature maps the tail by the family's tail index 1/alpha; its
    # tolerance is relative at every scale and it must not give up
    F = Frechet(alpha)
    for t in ([1.0, 2.0, 0.5], [1e-8, 3e-8], [1.0] * 10, [1e250, 3e250],
              [1e6, 2e6, 5e5]):
        value = stdf_extremal(F, t, method="quadrature")
        assert value == pytest.approx(stdf_extremal(F, t), rel=1e-9)
