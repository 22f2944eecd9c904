import math

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
    MixingMeasure,
    PickandsSample,
    ResourceError,
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
    # model but runs through extremal functions, not the stable frailty
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


closed_form_families = st.one_of(
    st.just(Dirac1()),
    st.just(UnitExponential()),
    st.floats(0.05, 0.95).map(Frechet),
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


def test_conditional_iid_frechet_ignores_tol():
    tr = IdtTriplet(0.3, 0.7, MixingMeasure.point(Frechet(0.8)))
    y1 = sample_conditional_iid_batch(tr, 3, 50, np.random.default_rng(50), tol=0.5)
    y2 = sample_conditional_iid_batch(tr, 3, 50, np.random.default_rng(50), tol=1e-9)
    assert np.array_equal(y1, y2)


def test_conditional_iid_mixture_with_pinned_paths():
    # the Discrete atom at 0.5 lies below the support, so paths pin to +oo
    # and the bisection sweep has to honour each row's pin time
    mu = MixingMeasure([(0.5, Discrete([(0.5, 0.5), (1.5, 0.5)])),
                        (0.5, UnitExponential())])
    tr = IdtTriplet(0.2, 0.8, mu)
    n = 4_000
    y = sample_conditional_iid_batch(tr, 2, n, np.random.default_rng(51))
    model = tr.to_canonical()
    for t in ([0.5, 0.5], [1.0, 0.3], [1.5, 1.5]):
        assert abs(survival_z(y, t, model)) <= 4.0
    se = 1.0 / math.sqrt(n)
    assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 4.0 * se)


def test_conditional_iid_rows_do_not_depend_on_n():
    # rows are bisected in blocks; a row's value must not depend on its block
    tr = IdtTriplet(0.0, 1.0, MixingMeasure.point(UnitExponential()))
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
    # Frechet(0.95) tails would need ~1e54 arrivals: refuse before drawing them
    mu = MixingMeasure([(0.5, Frechet(0.95)), (0.5, UnitExponential())])
    tr = IdtTriplet(0.1, 0.9, mu)
    with pytest.raises(ResourceError):
        sample_idt_path(tr, 1.0, np.random.default_rng(53))
    with pytest.raises(ResourceError):
        sample_conditional_iid_batch(tr, 2, 5, np.random.default_rng(53))


def test_conditional_iid_sweep_matches_scalar_bisection():
    # reference: bisect each coordinate alone with scalar evaluations of the
    # row's final path, as the per-row loop did
    mu = MixingMeasure([(0.5, Discrete([(0.5, 0.5), (1.5, 0.5)])),
                        (0.5, UnitExponential())])
    tr = IdtTriplet(0.2, 0.8, mu)
    d, n, tol = 3, 200, 1e-3
    y = sample_conditional_iid_batch(tr, d, n, np.random.default_rng(54), tol)
    rng = np.random.default_rng(54)
    series = samplers._Series(tr, tol)
    for i in range(n):
        builder, etas, t_his = samplers._bracket_row(series, d, rng)
        for k in range(d):
            lo, hi = 0.0, t_his[k]
            for _ in range(200):
                if hi - lo <= 1e-10 * hi:
                    break
                mid = 0.5 * (lo + hi)
                if builder.value(mid) > etas[k]:
                    hi = mid
                else:
                    lo = mid
            assert y[i, k] == pytest.approx(hi, rel=1e-9)
