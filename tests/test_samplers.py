import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from maxstable import samplers
from maxstable import (
    CanonicalModel,
    Dirac1,
    Discrete,
    Frechet,
    IdtTriplet,
    LevySpec,
    MixingMeasure,
    PickandsSample,
    ResourceError,
    Tilted,
    TwoPoint,
    UnitExponential,
    sample_conditional_iid,
    sample_conditional_iid_batch,
    sample_idt_path,
    sample_minstable,
    sample_minstable_batch,
    sample_pickands,
    sample_pickands_batch,
    stdf_canonical,
    tilt,
)
from maxstable.verify import mc_pickands_check

LN2 = math.log(2.0)


def point_model(F, b=0.0):
    return CanonicalModel(b, MixingMeasure.point(F))


def survival_z(samples, t, model):
    t = np.asarray(t, dtype=float)
    emp = np.mean(np.all(samples > t, axis=1))
    exact = math.exp(-stdf_canonical(model, t))
    se = math.sqrt(exact * (1.0 - exact) / samples.shape[0])
    return (emp - exact) / se


# -- minimum construction ---------------------------------------------------


def test_minstable_independent_margins():
    rng = np.random.default_rng(1)
    y = sample_minstable_batch(CanonicalModel(1.0), 3, 100_000, rng)
    se = 1.0 / math.sqrt(100_000)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 3.0 * se)
    assert np.all(y > 0.0)


def test_minstable_comonotone_exact():
    rng = np.random.default_rng(2)
    y = sample_minstable_batch(point_model(Dirac1()), 4, 5_000, rng)
    assert np.all(y == y[:, :1])
    se = 1.0 / math.sqrt(5_000)
    assert abs(y[:, 0].mean() - 1.0) <= 3.0 * se


def test_minstable_logistic_joint_survival():
    rng = np.random.default_rng(3)
    model = point_model(Frechet(0.5))
    y = sample_minstable_batch(model, 2, 100_000, rng)
    assert abs(survival_z(y, [1.0, 1.0], model)) <= 4.0
    se = 1.0 / math.sqrt(100_000)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)


def test_minstable_two_point_and_mixed():
    rng = np.random.default_rng(4)
    model = point_model(TwoPoint(LN2))
    y = sample_minstable_batch(model, 2, 100_000, rng)
    assert abs(survival_z(y, [1.0, 1.0], model)) <= 4.0

    mixed = CanonicalModel(0.5, MixingMeasure.point(TwoPoint(LN2)))
    y = sample_minstable_batch(mixed, 3, 100_000, rng)
    assert abs(survival_z(y, [0.5, 1.0, 1.5], mixed)) <= 4.0


def test_minstable_multi_component_mixture():
    rng = np.random.default_rng(5)
    mu = MixingMeasure([(0.5, TwoPoint(LN2)), (0.5, Dirac1())])
    model = CanonicalModel(0.25, mu)
    y = sample_minstable_batch(model, 2, 100_000, rng)
    assert abs(survival_z(y, [1.0, 1.0], model)) <= 4.0


def test_thinned_path_matches_block_path():
    # a two-component mixture of identical Frechet components is the same
    # model, drawn as the minimum of two independent stable parts, not one
    rng = np.random.default_rng(6)
    F = Frechet(0.5)
    thin_model = point_model(F)
    block_model = CanonicalModel(0.0, MixingMeasure([(0.5, F), (0.5, F)]))
    n = 40_000
    y1 = sample_minstable_batch(thin_model, 2, n, rng)
    y2 = sample_minstable_batch(block_model, 2, n, rng)
    for t in ([1.0, 1.0], [0.5, 2.0]):
        t = np.asarray(t)
        p1 = np.mean(np.all(y1 > t, axis=1))
        p2 = np.mean(np.all(y2 > t, axis=1))
        exact = math.exp(-stdf_canonical(thin_model, t))
        se = math.sqrt(exact * (1.0 - exact) / n)
        assert abs(p1 - p2) <= 4.0 * math.sqrt(2.0) * se + 1e-3


def test_minstable_single_draw_and_determinism():
    model = point_model(Frechet(0.5), b=0.3)
    y1 = sample_minstable(model, 5, np.random.default_rng(11))
    y2 = sample_minstable(model, 5, np.random.default_rng(11))
    assert y1.shape == (5,)
    assert np.array_equal(y1, y2)
    b1 = sample_minstable_batch(model, 3, 200, np.random.default_rng(12))
    b2 = sample_minstable_batch(model, 3, 200, np.random.default_rng(12))
    assert np.array_equal(b1, b2)


def test_minstable_generic_family_exact(monkeypatch):
    # the tilted family has no closed forms: extremal functions with the
    # tabulated size-biased draws, exact with no truncation; a row draws
    # d spectral vectors on average (Dombry, Engelke & Oesting 2016)
    model = point_model(tilt(UnitExponential(), 2.0))
    d, n = 3, 20_000
    drawn = []
    raw = samplers._pickands_raw

    def counted(mu, d_, m, picked, rng):
        drawn.append(m)
        return raw(mu, d_, m, picked, rng)

    monkeypatch.setattr(samplers, "_pickands_raw", counted)
    y = sample_minstable_batch(model, d, n, np.random.default_rng(7))
    for t in ([0.5, 0.5, 0.5], [1.0, 0.3, 2.0], [0.1, 1.5, 0.8]):
        assert abs(survival_z(y, t, model)) <= 4.0
    se = 1.0 / math.sqrt(n)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)
    assert abs(sum(drawn) / n - d) <= 0.05 * d


@pytest.mark.parametrize("mu, d", [
    (MixingMeasure([(0.5, Frechet(0.9)), (0.5, Dirac1())]), 3),
    (MixingMeasure([(0.5, Frechet(0.9)), (0.5, TwoPoint(2.0))]), 10),
])
def test_minstable_heavy_mixture_battery(mu, d):
    # Frechet(0.9) tails mixed with atoms, at d = 3 and d = 10
    model = CanonicalModel(0.0, mu)
    n = 20_000
    y = sample_minstable_batch(model, d, n, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    for t in (np.full(d, 0.3), np.full(d, 1.0), rng.uniform(0.1, 2.0, d)):
        assert abs(survival_z(y, t, model)) <= 4.0
    se = 1.0 / math.sqrt(n)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)


def _levy_mu():
    # jumps 1e-3, 0.1 and 1, each a third of the jump intensity
    spec = LevySpec(0.0, [(theta, 1.0 / (-3.0 * math.expm1(-theta)))
                          for theta in (1e-3, 0.1, 1.0)])
    return spec.to_canonical().mu


closed_minimum_cases = [
    *[(f"TwoPoint({theta:g})", MixingMeasure.point(TwoPoint(theta)), 3)
      for theta in (1e-300, 1e-12, 1e-3, 0.7, 2.0)],
    ("Dirac1", MixingMeasure.point(Dirac1()), 3),
    # a direct Tilted wrapper: tilt() would collapse it to TwoPoint(1.5)
    ("Tilted", MixingMeasure.point(Tilted(TwoPoint(0.5), 3.0)), 3),
    ("heavy", MixingMeasure([(0.5, Frechet(0.5)), (0.5, TwoPoint(2.0))]), 3),
    ("heavy", MixingMeasure([(0.5, Frechet(0.5)), (0.5, TwoPoint(2.0))]), 10),
    ("levy", _levy_mu(), 3),
    ("two-stable", MixingMeasure([(0.5, Frechet(0.5)), (0.5, Frechet(0.8))]), 3),
    # a direct Tilted wrapper: C = -log F(1) is its z c psi^(-1/alpha)
    ("Tilted-Frechet", MixingMeasure.point(Tilted(Frechet(0.7), 2.0)), 3),
]


@pytest.mark.parametrize("b", [0.0, 0.3])
@pytest.mark.parametrize("name, mu, d", closed_minimum_cases,
                         ids=[f"{c[0]}-d{c[2]}" for c in closed_minimum_cases])
def test_minstable_closed_parts(name, mu, d, b, monkeypatch):
    # power-law and one-atom families draw their parts in closed form: no
    # spectral vector is drawn, no first passage is run, and a geometric
    # index does not saturate where p is tiny (TwoPoint(1e-300) has p = 1e-300)
    for name_ in ("_pickands_raw", "_first_passage", "_Series"):
        monkeypatch.setattr(samplers, name_, None)
    model = CanonicalModel(b, mu)
    n = 20_000
    y = sample_minstable_batch(model, d, n, np.random.default_rng(13))
    assert np.all(np.isfinite(y)) and np.all(y > 0.0)
    for t in (np.full(d, 0.3), np.full(d, 1.0),
              np.random.default_rng(14).uniform(0.1, 2.0, d)):
        assert abs(survival_z(y, t, model)) <= 4.0
    se = 1.0 / math.sqrt(n)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)
    if name == "Dirac1" and b == 0.0:
        assert np.all(y == y[:, :1])


@pytest.mark.parametrize("mu", [
    MixingMeasure.point(TwoPoint(0.7)),
    MixingMeasure([(0.5, Frechet(0.5)), (0.5, TwoPoint(2.0))]),
    MixingMeasure([(0.25, Frechet(0.5)), (0.25, Dirac1()), (0.5, TwoPoint(0.7))]),
])
def test_minstable_closed_parts_edge_sizes(mu):
    model = CanonicalModel(0.0, mu)
    assert sample_minstable_batch(model, 4, 0, np.random.default_rng(0)).shape == (0, 4)
    n = 20_000
    y = sample_minstable_batch(model, 1, n, np.random.default_rng(15))
    assert y.shape == (n, 1)
    assert abs(y.mean() - 1.0) <= 4.0 / math.sqrt(n)
    assert abs(survival_z(y, [0.7], model)) <= 4.0


walked_cases = [
    ("frechet+exp", MixingMeasure([(0.5, Frechet(0.5)), (0.5, UnitExponential())]), 0.5),
    ("twopoint+tilted", MixingMeasure([(0.5, TwoPoint(2.0)),
                                       (0.5, tilt(UnitExponential(), 2.0))]), 0.5),
    ("dirac+discrete", MixingMeasure([(0.5, Dirac1()),
                                      (0.5, Discrete([(0.5, 0.5), (1.5, 0.5)]))]), 0.5),
    ("exp+tilted", MixingMeasure([(0.5, UnitExponential()),
                                  (0.5, tilt(UnitExponential(), 2.0))]), 1.0),
]


@pytest.mark.parametrize("name, mu, walked", walked_cases,
                         ids=[c[0] for c in walked_cases])
def test_minstable_walks_only_families_without_closed_form(name, mu, walked,
                                                           monkeypatch):
    # extremal functions walk only the families with neither a power law nor
    # one positive atom, at rate w_R = their total weight: d w_R spectral
    # vectors a row, d when no family has a closed part
    d, n = 3, 20_000
    drawn = []
    raw = samplers._pickands_raw

    def counted(mu_, d_, m, picked, rng):
        drawn.append(m)
        return raw(mu_, d_, m, picked, rng)

    monkeypatch.setattr(samplers, "_pickands_raw", counted)
    model = CanonicalModel(0.0, mu)
    y = sample_minstable_batch(model, d, n, np.random.default_rng(16))
    assert abs(sum(drawn) / n - d * walked) <= 0.05 * d * walked
    assert abs(survival_z(y, [1.0, 0.5, 2.0], model)) <= 4.0


mixed_route_cases = [
    ("twopoint+exp", MixingMeasure([(0.5, TwoPoint(0.7)), (0.5, UnitExponential())])),
    ("frechet+tilted", MixingMeasure([(0.5, Frechet(0.5)),
                                      (0.5, tilt(UnitExponential(), 2.0))])),
    ("frechet+dirac+discrete", MixingMeasure([
        (0.25, Frechet(0.5)), (0.25, Dirac1()),
        (0.5, Discrete([(0.5, 0.5), (1.5, 0.5)]))])),
]


@pytest.mark.parametrize("d", [3, 10])
@pytest.mark.parametrize("b", [0.0, 0.3])
@pytest.mark.parametrize("name, mu", mixed_route_cases,
                         ids=[c[0] for c in mixed_route_cases])
def test_minstable_closed_parts_and_walk(name, mu, b, d):
    # closed parts and a walk that starts from their minima
    model = CanonicalModel(b, mu)
    n = 20_000
    y = sample_minstable_batch(model, d, n, np.random.default_rng(17))
    assert np.all(np.isfinite(y)) and np.all(y > 0.0)
    for t in (np.full(d, 0.3), np.full(d, 1.0),
              np.random.default_rng(18).uniform(0.1, 2.0, d)):
        assert abs(survival_z(y, t, model)) <= 4.0
    se = 1.0 / math.sqrt(n)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)


closed_form_families = st.one_of(
    st.just(Dirac1()),
    st.just(UnitExponential()),
    st.floats(0.05, 0.95).map(Frechet),
    st.just(Tilted(Frechet(0.7), 2.0)),
    st.floats(0.05, 5.0).map(TwoPoint),
    st.floats(0.05, 0.95).map(
        lambda p: Discrete([(0.5, p), ((1.0 - 0.5 * p) / (1.0 - p), 1.0 - p)])),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    components=st.lists(st.tuples(st.floats(0.05, 1.0), closed_form_families),
                        min_size=1, max_size=3),
    b=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    d=st.integers(1, 6),
    n=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_minstable_property(components, b, d, n, seed):
    total = math.fsum(w for w, _ in components)
    model = CanonicalModel(b, MixingMeasure([(w / total, F) for w, F in components]))
    y = sample_minstable_batch(model, d, n, np.random.default_rng(seed))
    assert y.shape == (n, d)
    assert np.all(np.isfinite(y)) and np.all(y > 0.0)
    again = sample_minstable_batch(model, d, n, np.random.default_rng(seed))
    assert np.array_equal(y, again)


def test_sampler_budget_errors_report_rows_in_the_message(monkeypatch):
    # achieved_bound is a truncation bound, which these samplers do not have;
    # the unit exponential walks arrivals, a two-point law would not
    model = point_model(UnitExponential())
    monkeypatch.setattr(samplers, "MAX_ARRIVALS", 1)
    with pytest.raises(ResourceError, match="rows open") as err:
        sample_minstable_batch(model, 3, 100, np.random.default_rng(0))
    assert math.isnan(err.value.achieved_bound)
    model = point_model(TwoPoint(LN2))
    monkeypatch.setattr(samplers, "_PICKANDS_MAX_RESAMPLES", -1)
    with pytest.raises(ResourceError, match="rows left") as err:
        sample_pickands_batch(model, 3, 100, np.random.default_rng(0))
    assert math.isnan(err.value.achieved_bound)


def test_minstable_subnormal_b_overflows_to_the_extremal_part():
    # E / b is past the float range: inf, with no RuntimeWarning
    model = CanonicalModel(5e-324, MixingMeasure.point(Dirac1()))
    y = sample_minstable_batch(model, 2, 50, np.random.default_rng(1))
    assert np.all(np.isfinite(y)) and np.all(y == y[:, :1])


def test_minstable_validation():
    model = CanonicalModel(1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_minstable_batch(model, 0, 10, rng)


# -- Pickands sampler --------------------------------------------------------


def test_pickands_vertices_for_independence():
    rng = np.random.default_rng(21)
    model = CanonicalModel(1.0, MixingMeasure.point(Dirac1()))
    x, resampled = sample_pickands_batch(model, 5, 100_000, rng)
    assert resampled == 0
    assert np.all(np.sort(x, axis=1)[:, :-1] == 0.0)
    assert np.all(np.sort(x, axis=1)[:, -1] == 1.0)
    freq = x.mean(axis=0)
    se = math.sqrt(0.2 * 0.8 / 100_000)
    assert np.all(np.abs(freq - 0.2) <= 3.0 * se)


def test_pickands_comonotone_constant():
    rng = np.random.default_rng(22)
    x, _ = sample_pickands_batch(point_model(Dirac1()), 4, 500, rng)
    assert np.all(x == 0.25)


def test_pickands_simplex_and_means():
    rng = np.random.default_rng(23)
    model = point_model(UnitExponential())
    x, resampled = sample_pickands_batch(model, 3, 100_000, rng)
    assert resampled == 0
    assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(x >= 0.0)
    means = x.mean(axis=0)
    se = x.std(axis=0, ddof=1) / math.sqrt(100_000)
    assert np.all(np.abs(means - 1.0 / 3.0) <= 4.0 * se)


def test_pickands_monte_carlo_matches_quadrature():
    rng = np.random.default_rng(24)
    model = point_model(UnitExponential())
    t = np.array([1.0, 2.0, 3.0])
    x, _ = sample_pickands_batch(model, 3, 100_000, rng)
    vals = 3.0 * np.max(t * x, axis=1)
    exact = stdf_canonical(model, t)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) <= 4.0 * se


@pytest.mark.parametrize("alpha", [0.99, 0.995])
def test_pickands_frechet_near_one_normalizes_infinite_draws(alpha):
    # standard_gamma(1 - alpha) underflows to 0 for some draws, so the
    # size-biased value is inf; its row is the vertex, not nan
    model = point_model(Frechet(alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _ = sample_pickands_batch(model, 3, 200_000, np.random.default_rng(0))
        y = sample_minstable_batch(
            CanonicalModel(0.0, MixingMeasure([(0.5, Frechet(alpha)), (0.5, TwoPoint(2.0))])),
            3, 20_000, np.random.default_rng(1))
    assert np.all(np.isfinite(x))
    assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(y)) and np.all(y > 0.0)
    for seed in (0, 1, 2):
        report = mc_pickands_check(model, [1.0, 0.5, 2.0], 100_000,
                                   np.random.default_rng(seed))
        assert report.passed, report


def test_pickands_single_draw_type():
    s = sample_pickands(point_model(Frechet(0.5), b=0.5), 3,
                        np.random.default_rng(25))
    assert isinstance(s, PickandsSample)
    assert s.coords.shape == (3,)
    assert s.coords.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        PickandsSample(np.array([0.5, 0.4]))


# -- additive paths ----------------------------------------------------------


def test_path_point_mass_pins_to_infinity():
    tr = IdtTriplet(0.0, 1.0, MixingMeasure.point(Dirac1()))
    path = sample_idt_path(tr, 6.0, np.random.default_rng(31), 1e-3)
    assert len(path.atoms) == 1
    assert path.truncation_bound == 0.0
    gamma = path.atoms[0][0]
    ts = np.linspace(0.0, 6.0, 200)
    vals = path.values(ts)
    assert np.all(vals[ts < gamma] == 0.0)
    assert np.all(np.isinf(vals[ts >= gamma]))


def test_path_value_matches_values_bitwise():
    # value is values at one point; a point's value does not depend on the
    # other points of its sweep
    mu = MixingMeasure([(0.5, Discrete([(0.5, 0.5), (1.5, 0.5)])),
                        (0.3, UnitExponential()), (0.2, Frechet(0.6))])
    tr = IdtTriplet(0.2, 0.8, mu)
    for seed in range(5):
        path = sample_idt_path(tr, 3.0, np.random.default_rng(seed), 1e-3)
        ts = np.random.default_rng(100 + seed).uniform(0.0, 3.0, 64)
        ts[:2] = 0.0, 3.0
        scalar = np.array([path.value(t) for t in ts])
        assert np.array_equal(scalar, path.values(ts))
        assert np.array_equal(scalar[:1], path.values(ts[:1]))


def test_path_two_point_compound_poisson():
    # H_t = ln2 * N(2t): E[e^-H_1] = exp(-2 (1 - 1/2)) = e^-1
    tr = IdtTriplet(0.0, 1.0, MixingMeasure.point(TwoPoint(LN2)))
    vals = []
    for seed in range(4_000):
        path = sample_idt_path(tr, 1.0, np.random.default_rng(seed), 1e-5)
        vals.append(math.exp(-path.value(1.0)))
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - math.exp(-1.0)) <= 4.0 * se


def test_path_drift_plus_jumps_normalized():
    tr = IdtTriplet(0.5, 0.5, MixingMeasure.point(TwoPoint(LN2)))
    vals = []
    for seed in range(4_000):
        path = sample_idt_path(tr, 1.0, np.random.default_rng(seed), 1e-5)
        vals.append(math.exp(-path.value(1.0)))
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - math.exp(-1.0)) <= 4.0 * se


def test_path_monotone_on_grid():
    rng = np.random.default_rng(33)
    mu = MixingMeasure([(0.5, TwoPoint(LN2)), (0.5, UnitExponential())])
    tr = IdtTriplet(0.2, 0.8, mu)
    ts = np.linspace(0.0, 3.0, 1000)
    for _ in range(100):
        path = sample_idt_path(tr, 3.0, rng, 1e-3)
        vals = path.values(ts)
        assert vals[0] == 0.0
        finite = np.isfinite(vals)
        assert np.all(np.diff(vals[finite]) >= -1e-12)
        if np.any(~finite):
            assert np.all(~finite[np.argmax(~finite):])


def test_path_respects_horizon_and_reports_bound():
    tr = IdtTriplet(0.0, 1.0, MixingMeasure.point(UnitExponential()))
    path = sample_idt_path(tr, 2.0, np.random.default_rng(35), 1e-4)
    assert 0.0 <= path.truncation_bound <= 1e-4
    assert np.all(np.diff([g for g, _ in path.atoms]) > 0.0)
    with pytest.raises(ValueError):
        path.value(2.5)
    assert path.value(0.0) == 0.0


def test_path_pure_drift():
    path = sample_idt_path(IdtTriplet(0.7, 0.0, None), 2.0,
                           np.random.default_rng(36), 1e-3)
    assert path.atoms == ()
    assert path.value(2.0) == pytest.approx(1.4)


# -- conditionally iid first passage ----------------------------------------


def test_conditional_iid_pure_drift():
    rng = np.random.default_rng(41)
    y = sample_conditional_iid_batch(IdtTriplet(1.0, 0.0, None), 4, 50_000, rng)
    se = 1.0 / math.sqrt(50_000)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 3.0 * se)
    corr = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
    assert abs(corr) <= 0.02


def test_conditional_iid_comonotone():
    rng = np.random.default_rng(42)
    tr = IdtTriplet(0.0, 1.0, MixingMeasure.point(Dirac1()))
    y = sample_conditional_iid_batch(tr, 3, 20_000, rng)
    assert np.all(y == y[:, :1])
    se = 1.0 / math.sqrt(20_000)
    assert abs(y[:, 0].mean() - 1.0) <= 3.0 * se


def test_conditional_iid_two_point_survival():
    rng = np.random.default_rng(43)
    tr = IdtTriplet(0.0, 1.0, MixingMeasure.point(TwoPoint(LN2)))
    y = sample_conditional_iid_batch(tr, 2, 100_000, rng)
    model = tr.to_canonical()
    assert abs(survival_z(y, [1.0, 1.0], model)) <= 4.0
    se = 1.0 / math.sqrt(100_000)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)


def test_conditional_iid_matches_minstable():
    tr = IdtTriplet(0.5, 0.5, MixingMeasure.point(TwoPoint(LN2)))
    model = tr.to_canonical()
    n = 100_000
    y1 = sample_conditional_iid_batch(tr, 2, n, np.random.default_rng(44))
    y2 = sample_minstable_batch(model, 2, n, np.random.default_rng(45))
    for t in ([1.0, 1.0], [0.4, 1.7], [2.0, 0.3]):
        t = np.asarray(t)
        exact = math.exp(-stdf_canonical(model, t))
        se = math.sqrt(exact * (1.0 - exact) / n)
        p1 = np.mean(np.all(y1 > t, axis=1))
        p2 = np.mean(np.all(y2 > t, axis=1))
        assert abs(p1 - exact) <= 4.0 * se
        assert abs(p2 - exact) <= 4.0 * se
        assert abs(p1 - p2) <= 4.0 * math.sqrt(2.0) * se


def test_conditional_iid_generic_bisection_path():
    # continuous family: exercises lazy extension plus bracketed bisection
    rng = np.random.default_rng(46)
    tr = IdtTriplet(0.0, 1.0, MixingMeasure.point(UnitExponential()))
    y = sample_conditional_iid_batch(tr, 2, 3_000, rng, tol=1e-4)
    model = tr.to_canonical()
    t = np.array([0.5, 0.5])
    emp = np.mean(np.all(y > t, axis=1))
    exact = math.exp(-stdf_canonical(model, t))
    se = math.sqrt(exact * (1.0 - exact) / 3_000)
    assert abs(emp - exact) <= 4.0 * se
    se_m = 1.0 / math.sqrt(3_000)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se_m)


def test_conditional_iid_requires_normalization():
    rng = np.random.default_rng(47)
    with pytest.raises(ValueError):
        sample_conditional_iid(
            IdtTriplet(0.5, 0.75, MixingMeasure.point(Dirac1())), 2, rng
        )


def test_conditional_iid_determinism():
    tr = IdtTriplet(0.25, 0.75, MixingMeasure.point(TwoPoint(LN2)))
    y1 = sample_conditional_iid_batch(tr, 3, 100, np.random.default_rng(48))
    y2 = sample_conditional_iid_batch(tr, 3, 100, np.random.default_rng(48))
    assert np.array_equal(y1, y2)


@pytest.mark.parametrize("b, c, alpha", [(0.0, 1.0, 0.95), (0.9, 0.1, 0.5),
                                         (0.3, 0.7, 0.8)])
def test_conditional_iid_frechet_exact(b, c, alpha):
    # the stable-frailty route: no series, so even alpha near 1 is cheap
    tr = IdtTriplet(b, c, MixingMeasure.point(Frechet(alpha)))
    n = 10_000
    y = sample_conditional_iid_batch(tr, 2, n, np.random.default_rng(49))
    model = tr.to_canonical()
    for t in ([0.5, 0.5], [1.0, 0.3], [2.0, 1.5]):
        assert abs(survival_z(y, t, model)) <= 4.0
    se = 1.0 / math.sqrt(n)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)


@pytest.mark.parametrize("mu", [
    MixingMeasure.point(Frechet(0.8)),
    MixingMeasure.point(TwoPoint(LN2)),
    MixingMeasure([(0.5, Discrete([(0.5, 0.5), (1.5, 0.5)])), (0.5, TwoPoint(LN2))]),
], ids=["frechet", "two_point", "discrete_mixture"])
def test_conditional_iid_frechet_ignores_tol(mu):
    # the stable frailty has no series; bounded supports are summed exactly
    tr = IdtTriplet(0.3, 0.7, mu)
    y1 = sample_conditional_iid_batch(tr, 3, 50, np.random.default_rng(50), tol=0.5)
    y2 = sample_conditional_iid_batch(tr, 3, 50, np.random.default_rng(50), tol=1e-9)
    assert np.array_equal(y1, y2)


FRECHET_TYPE_MIXTURES = [
    IdtTriplet(0.0, 1.0, MixingMeasure([(0.5, Frechet(0.5)), (0.5, TwoPoint(2.0))])),
    IdtTriplet(0.0, 1.0, MixingMeasure([(0.5, Frechet(0.9)), (0.5, Dirac1())])),
    IdtTriplet(0.3, 0.7, MixingMeasure([(0.5, Tilted(Frechet(0.9), 0.5)),
                                        (0.5, UnitExponential())])),
    # as one series, the Frechet(0.95) tail needed ~1e54 arrivals
    IdtTriplet(0.1, 0.9, MixingMeasure([(0.5, Frechet(0.95)),
                                        (0.5, UnitExponential())])),
]
FRECHET_TYPE_IDS = ["frechet_two_point", "frechet_dirac1", "tilted_frechet_exponential",
                    "frechet_095_exponential"]


@pytest.mark.parametrize("d", [3, 10])
@pytest.mark.parametrize("tr", FRECHET_TYPE_MIXTURES, ids=FRECHET_TYPE_IDS)
def test_conditional_iid_frechet_type_components_are_stable_terms(tr, d):
    # each Frechet-type component is an exact stable term beside the series
    # of the others
    n = 20_000
    y = sample_conditional_iid_batch(tr, d, n, np.random.default_rng(55))
    model = tr.to_canonical()
    rng = np.random.default_rng(56)
    for t in (np.full(d, 0.3), np.full(d, 1.0), rng.uniform(0.1, 2.0, d)):
        assert abs(survival_z(y, t, model)) <= 4.0
    se = 1.0 / math.sqrt(n)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)


@pytest.mark.parametrize("tr", FRECHET_TYPE_MIXTURES[:2], ids=FRECHET_TYPE_IDS[:2])
def test_path_with_stable_terms_matches_stdf(tr):
    # E exp(-sum_k H(t_k)) = P(Y > t) = exp(-l(t)) for b + c = 1
    t = np.array([0.5, 1.0, 1.5])
    vals = []
    for seed in range(2_000):
        path = sample_idt_path(tr, 1.5, np.random.default_rng(seed), 1e-5)
        assert len(path.stable) == 1 and path.truncation_bound == 0.0
        vals.append(math.exp(-path.values(t).sum()))
    exact = math.exp(-stdf_canonical(tr.to_canonical(), t))
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - exact) <= 4.0 * se


# atoms below the support infimum (Discrete's 0.5, Dirac1's 1) pin the path
# to +oo; EXP_DIRAC1 is the pinned case of the path tests below
EXP_DIRAC1 = IdtTriplet(0.1, 0.9, MixingMeasure([(0.5, UnitExponential()),
                                                 (0.5, Dirac1())]))
PINNED_MIXTURES = [
    IdtTriplet(0.2, 0.8, MixingMeasure([(0.5, Discrete([(0.5, 0.5), (1.5, 0.5)])),
                                        (0.5, UnitExponential())])),
    IdtTriplet(0.0, 1.0, MixingMeasure([(0.5, UnitExponential()), (0.5, Dirac1())])),
    IdtTriplet(0.3, 0.7, MixingMeasure([(0.5, tilt(UnitExponential(), 0.5)),
                                        (0.5, Dirac1())])),
]
PINNED_IDS = ["discrete_exponential", "exponential_dirac1", "tilted_dirac1"]


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("tr", PINNED_MIXTURES, ids=PINNED_IDS)
def test_conditional_iid_mixture_with_pinned_paths(tr, d):
    # pinned rows certify against their horizon's threshold scaled by
    # horizon / pin, and the bisection sweep has to honour each row's pin time
    n = 10_000
    y = sample_conditional_iid_batch(tr, d, n, np.random.default_rng(51))
    model = tr.to_canonical()
    for t in (np.full(d, 0.5), np.resize([1.0, 0.3], d), np.full(d, 3.0 / d)):
        assert abs(survival_z(y, t, model)) <= 4.0
    se = 1.0 / math.sqrt(n)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)


@pytest.mark.parametrize("tr", [
    IdtTriplet(0.0, 1.0, MixingMeasure.point(UnitExponential())),
    IdtTriplet(0.0, 1.0, MixingMeasure.point(TwoPoint(LN2))),
    IdtTriplet(0.5, 0.5, MixingMeasure.point(TwoPoint(LN2))),
    IdtTriplet(0.0, 1.0, MixingMeasure.point(Dirac1())),
    IdtTriplet(0.2, 0.8, MixingMeasure([(0.5, Discrete([(0.5, 0.5), (1.5, 0.5)])),
                                        (0.5, UnitExponential())])),
    IdtTriplet(0.3, 0.7, MixingMeasure.point(Frechet(0.8))),
    IdtTriplet(0.0, 1.0, MixingMeasure([(0.5, Frechet(0.5)), (0.5, TwoPoint(2.0))])),
    EXP_DIRAC1,
], ids=["unit_exponential", "two_point", "two_point_drift", "dirac1",
        "pinned_mixture", "frechet_drift", "frechet_two_point", "exponential_dirac1"])
def test_conditional_iid_rows_do_not_depend_on_n(tr, monkeypatch):
    # rows are drawn and bisected in blocks; a row's value must depend
    # neither on the rows after it in its block nor on the number of blocks
    monkeypatch.setattr(samplers, "_PASSAGE_BLOCK", 128)
    long = sample_conditional_iid_batch(tr, 2, 1000, np.random.default_rng(52))
    short = sample_conditional_iid_batch(tr, 2, 300, np.random.default_rng(52))
    assert np.array_equal(long[:300], short)


@pytest.mark.parametrize("F", [UnitExponential(), tilt(UnitExponential(), 2.0)])
def test_path_stops_at_first_certifying_arrival(F):
    tr = IdtTriplet(0.0, 1.0, MixingMeasure.point(F))
    horizon, tol = 2.0, 1e-3
    median = float(F.quantile(0.5))
    for seed in range(20):
        path = sample_idt_path(tr, horizon, np.random.default_rng(seed), tol)
        gammas = [g for g, _ in path.atoms]
        assert gammas[-1] >= horizon * median
        assert path.truncation_bound <= tol
        before = 2.0 * horizon * float(F.tail_integral(gammas[-2] / horizon))
        assert gammas[-2] < horizon * median or before > tol


def test_path_uncertifiable_tail_raises_quickly():
    # horizons of 1e9 would need about 1e9 arrivals: refuse before drawing them
    two_point = IdtTriplet(0.0, 1.0, MixingMeasure.point(TwoPoint(0.7)))
    exponential = IdtTriplet(0.0, 1.0, MixingMeasure.point(UnitExponential()))
    start = time.perf_counter()
    for triplet in (two_point, exponential):
        for horizon in (1e9, 1e300):
            with pytest.raises(ResourceError):
                sample_idt_path(triplet, horizon, np.random.default_rng(53))
    assert time.perf_counter() - start < 1.0
    for horizon in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError):
            sample_idt_path(two_point, horizon, np.random.default_rng(53))


def _spy_series(monkeypatch) -> list:
    """The _Series that the samplers build from here on, in order."""
    made = []

    class Spy(samplers._Series):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(samplers, "_Series", Spy)
    return made


def test_pinned_path_scales_its_horizon_threshold(monkeypatch):
    # a Dirac1 arrival at gamma pins the path from eff = gamma on; the row
    # meets the horizon's one threshold at last * horizon / eff, and it
    # stops at the first arrival that does
    made = _spy_series(monkeypatch)
    horizon, tol = 8.0, 1e-5
    pinned = 0
    for seed in range(20):
        path = sample_idt_path(EXP_DIRAC1, horizon, np.random.default_rng(seed), tol)
        series = made[-1]
        assert list(series._thresholds) == [horizon]
        threshold = series._thresholds[horizon]
        assert path.truncation_bound <= tol

        def certifies(k):
            # the series cut after the first k kept arrivals
            gammas = [g for g, _ in path.atoms[:k]]
            pins = [g for g, F in path.atoms[:k] if isinstance(F, Dirac1)]
            eff = min([horizon] + pins)
            last = gammas[-1] if gammas else 0.0
            return (last * (horizon / eff) >= threshold
                    and last >= eff * series.median_max)

        assert certifies(len(path.atoms))
        assert not certifies(len(path.atoms) - 1)
        pinned += path.value(horizon) == math.inf
    assert pinned >= 5


def test_first_passage_solves_thresholds_at_row_horizons_only(monkeypatch):
    # pinned rows scale the threshold of their horizon, so thresholds are
    # solved at the doubling horizons 2^j and never at a pin time
    made = _spy_series(monkeypatch)
    y = sample_conditional_iid_batch(EXP_DIRAC1, 5, 2_000, np.random.default_rng(57))
    series, = made
    horizons = sorted(series._thresholds)
    assert horizons == [2.0 ** j for j in range(len(horizons))]
    assert len(horizons) > 1 and np.all(np.isfinite(y))


@pytest.mark.parametrize("tr", [
    IdtTriplet(0.0, 1.0, MixingMeasure.point(UnitExponential())),
    IdtTriplet(0.0, 1.0, MixingMeasure.point(tilt(UnitExponential(), 2.5))),
    IdtTriplet(0.25, 0.75, MixingMeasure([(0.5, TwoPoint(0.7)),
                                          (0.5, UnitExponential())])),
], ids=["unit_exponential", "tilted_quadrature", "two_point_exponential"])
@pytest.mark.parametrize("tol", [1e-3, 1e-5])
def test_threshold_is_the_least_float_within_tol(tr, tol):
    # an unpinned row is certified exactly where the bound is at most tol
    series = samplers._Series(tr, tol)
    for horizon in (0.5, 1.0, 8.0, 1e3):
        threshold = series._threshold(horizon)
        assert series.bound(horizon, threshold) <= tol
        if threshold > 0.0:
            assert series.bound(horizon, np.nextafter(threshold, 0.0)) > tol


def test_pinned_path_matches_stdf():
    # E exp(-sum_k H(t_k)) = P(Y > t) = exp(-l(t)) for b + c = 1
    t = np.array([0.5, 1.0, 1.5])
    vals = []
    for seed in range(2_000):
        path = sample_idt_path(EXP_DIRAC1, 1.5, np.random.default_rng(seed), 1e-5)
        vals.append(math.exp(-path.values(t).sum()))
    exact = math.exp(-stdf_canonical(EXP_DIRAC1.to_canonical(), t))
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - exact) <= 4.0 * se


def test_conditional_iid_sweep_matches_scalar_bisection():
    # reference: bisect each coordinate alone with scalar evaluations of the
    # row's own final path, an IdtPath over the row's final horizon, through
    # one single-point sweep per row (bit-identical to path.value)
    mu = MixingMeasure([(0.5, Discrete([(0.5, 0.5), (1.5, 0.5)])),
                        (0.5, UnitExponential())])
    tr = IdtTriplet(0.2, 0.8, mu)
    d, n, tol = 3, 200, 1e-3
    y = sample_conditional_iid_batch(tr, d, n, np.random.default_rng(54), tol)
    block_rng, = np.random.default_rng(54).spawn(1)
    rows, etas = samplers._passage_rows(samplers._Series(tr, tol), d, n,
                                        block_rng)
    for i in range(n):
        path = rows.path(i)
        sweep = path._sweep(1)
        for k in range(d):
            lo, hi = 0.0, path.horizon
            for _ in range(200):
                if hi - lo <= 1e-10 * hi:
                    break
                mid = 0.5 * (lo + hi)
                if sweep.values(np.array([mid]))[0] > etas[i, k]:
                    hi = mid
                else:
                    lo = mid
            assert y[i, k] == pytest.approx(hi, rel=1e-9)
