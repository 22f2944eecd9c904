import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats
from scipy.integrate import quad

from maxstable import (
    Cdf,
    Dirac1,
    Discrete,
    DiscreteCdf,
    Exponential,
    Frechet,
    PointMass,
    Rescaled,
    Tilted,
    TwoPoint,
    UnitExponential,
    rescale_to_unit_mean,
    tilt,
)
from maxstable.families import _SizeBiasedTable, _gammainc, _harmonic

LN2 = math.log(2.0)


class UniformCdf(Cdf):
    """Uniform on [0, width]: a raw finite-mean descriptor for rescale tests."""

    def __init__(self, width=4.0):
        self.width = width

    def cdf(self, x, left=False):
        return np.clip(np.asarray(x, dtype=float) / self.width, 0.0, 1.0)

    def quantile(self, p):
        return self.width * np.asarray(p, dtype=float)

    def support_upper(self):
        return self.width

    def _key(self):
        return ("uniform", self.width)


def all_families():
    return [
        Dirac1(),
        Frechet(0.2),
        Frechet(0.5),
        Frechet(0.8),
        TwoPoint(0.3),
        TwoPoint(LN2),
        TwoPoint(2.0),
        UnitExponential(),
        Discrete([(0.5, 0.5), (1.5, 0.5)]),
        Discrete([(0.0, 0.25), (0.8, 0.25), (1.6, 0.5)]),
        tilt(UnitExponential(), 2.0),
        rescale_to_unit_mean(UniformCdf()),
    ]


@pytest.mark.parametrize("F", all_families(), ids=repr)
def test_unit_mean(F):
    assert abs(float(F.tail_integral(0.0)) - 1.0) <= 1e-8


@pytest.mark.parametrize("F", all_families(), ids=repr)
def test_cdf_monotone_bounded(F):
    rng = np.random.default_rng(101)
    xs = np.sort(rng.uniform(0.0, 6.0, size=200))
    vals = np.asarray(F.cdf(xs))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= 0.0)
    assert float(F.cdf(np.inf)) == 1.0


@pytest.mark.parametrize("F", all_families(), ids=repr)
def test_log_cdf_consistent(F):
    rng = np.random.default_rng(33)
    xs = rng.uniform(0.01, 8.0, size=50)
    vals = np.asarray(F.cdf(xs))
    logs = np.asarray(F.log_cdf(xs))
    # where the cdf is representable, the two routes agree; where it
    # underflows, log_cdf still carries the (large negative) exponent
    ok = vals > 1e-300
    with np.errstate(divide="ignore"):
        assert_allclose(logs[ok], np.log(vals[ok]), rtol=1e-9, atol=1e-12)
    assert np.all(logs[~ok] < -600.0)


def test_cdf_point_examples():
    d1 = Dirac1()
    assert float(d1.cdf(0.5)) == 0.0
    assert float(d1.cdf(1.0)) == 1.0

    tp = TwoPoint(LN2)
    # q = 1/(1 - e^(-ln 2)) = 2, atom at zero has mass 1/2
    assert tp.q == 2.0
    assert float(tp.cdf(1.9)) == 0.5
    assert float(tp.cdf(2.0)) == 1.0

    F = Frechet(0.5)
    # c = Gamma(1/2)^(-2) = 1/pi; F(x) = 1/e at x = sqrt(c)
    assert_allclose(F.c, 1.0 / math.pi, rtol=1e-13)
    assert_allclose(float(F.cdf(math.sqrt(F.c))), math.exp(-1.0), rtol=1e-12)


def test_left_limits():
    d1 = Dirac1()
    assert float(d1.cdf(1.0, left=True)) == 0.0
    assert float(d1.cdf(1.0 + 1e-12, left=True)) == 1.0

    tp = TwoPoint(LN2)
    assert float(tp.cdf(0.0, left=True)) == 0.0
    assert float(tp.cdf(1.0, left=True)) == 0.5
    assert float(tp.cdf(2.0, left=True)) == 0.5
    assert float(tp.cdf(2.5, left=True)) == 1.0

    disc = Discrete([(0.5, 0.5), (1.5, 0.5)])
    assert float(disc.cdf(0.5, left=True)) == 0.0
    assert float(disc.cdf(1.5, left=True)) == 0.5


def test_tail_integral_examples():
    assert float(Dirac1().tail_integral(0.3)) == pytest.approx(0.7, abs=1e-15)
    assert float(UnitExponential().tail_integral(1.0)) == pytest.approx(
        math.exp(-1.0), abs=1e-15
    )
    for F in all_families():
        assert float(F.tail_integral(0.0)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("F", all_families(), ids=repr)
@pytest.mark.parametrize("a", [0.0, 0.35, 1.2])
def test_tail_integral_matches_quadrature(F, a):
    oracle, _ = quad(lambda u: 1.0 - float(F.cdf(u)), a, 60.0, limit=500,
                     points=[0.5, 1.0, 1.5, 2.0])
    if isinstance(F, Frechet):
        # add the algebraic tail beyond the finite window
        oracle += quad(lambda u: 1.0 - float(F.cdf(u)), 60.0, np.inf)[0]
    assert_allclose(float(F.tail_integral(a)), oracle, atol=5e-8)


@pytest.mark.parametrize(
    "F", [Frechet(0.3), Frechet(0.5), UnitExponential(), tilt(UnitExponential(), 2.0)],
    ids=repr,
)
def test_sampler_ks(F):
    n = 100_000
    rng = np.random.default_rng(7)
    xs = np.sort(np.asarray(F.sample(rng, size=n)))
    ecdf = np.arange(1, n + 1) / n
    vals = np.asarray(F.cdf(xs))
    ks = np.max(np.maximum(np.abs(ecdf - vals), np.abs(ecdf - 1.0 / n - vals)))
    assert ks <= 1.63 / math.sqrt(n)


def test_sampler_atomic():
    rng = np.random.default_rng(11)
    assert float(Dirac1().sample(rng)) == 1.0
    assert np.all(np.asarray(Dirac1().sample(rng, size=50)) == 1.0)

    tp = TwoPoint(LN2)
    n = 100_000
    draws = np.asarray(tp.sample(rng, size=n))
    assert set(np.unique(draws)) == {0.0, 2.0}
    freq = np.mean(draws == 2.0)
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    mean = np.asarray(UnitExponential().sample(rng, size=n)).mean()
    assert abs(mean - 1.0) <= 3.0 / math.sqrt(n)


def test_size_biased_fixed_values():
    rng = np.random.default_rng(13)
    assert Dirac1().sample_size_biased(rng) == 1.0
    tp = TwoPoint(LN2)
    assert np.all(np.asarray(tp.sample_size_biased(rng, size=100)) == tp.q)


def test_size_biased_exponential_mean():
    # size-biased unit exponential is Gamma(2): mean 2
    rng = np.random.default_rng(17)
    n = 100_000
    z = np.asarray(UnitExponential().sample_size_biased(rng, size=n))
    se = z.std(ddof=1) / math.sqrt(n)
    assert abs(z.mean() - 2.0) <= 3.0 * se
    assert np.all(z > 0.0)


def test_size_biased_frechet_mean():
    # E[size-biased] = E[X^2] = int 2u (1 - F(u)) du, finite for alpha < 1/2
    F = Frechet(0.3)
    oracle = quad(lambda u: 2.0 * u * (1.0 - float(F.cdf(u))), 0.0, np.inf,
                  limit=500)[0]
    rng = np.random.default_rng(19)
    n = 200_000
    z = np.asarray(F.sample_size_biased(rng, size=n))
    se = z.std(ddof=1) / math.sqrt(n)
    assert abs(z.mean() - oracle) <= 4.0 * se
    assert np.all(z > 0.0)


def test_size_biased_generic_inversion():
    # the tilted family exercises the tabulated generic inverse
    F = tilt(UnitExponential(), 2.0)
    oracle = quad(lambda u: 2.0 * u * (1.0 - float(F.cdf(u))), 0.0, 50.0,
                  limit=500)[0]
    rng = np.random.default_rng(23)
    n = 2_000
    z = np.asarray(F.sample_size_biased(rng, size=n))
    se = z.std(ddof=1) / math.sqrt(n)
    assert abs(z.mean() - oracle) <= 4.0 * se
    assert np.all(z > 0.0)


@pytest.mark.parametrize("z", [0.5, 2.0, 7.0, 50.0])
def test_size_biased_table_matches_scalar_inverse(z):
    # at z = 50 the tilted quantile of 1 - 1e-15 is inf, and the table
    # finds its top node from the cdf instead
    F = tilt(UnitExponential(), z)
    u = 1.0 - np.random.default_rng(31).random(24)
    ref = np.array([F._size_biased_inverse(v) for v in u])
    assert_allclose(_SizeBiasedTable(F).inverse(u), ref, rtol=1e-12, atol=0.0)


def test_size_biased_table_atoms_and_rescaled():
    # the left half of each atom's jump in G returns the atom; a Rescaled
    # generic base draws from the base's table
    F = Tilted(Discrete([(0.5, 0.5), (1.5, 0.5)]), 2.0)
    u = 1.0 - np.random.default_rng(37).random(24)
    ref = np.array([F._size_biased_inverse(v) for v in u])
    assert_allclose(_SizeBiasedTable(F).inverse(u), ref, rtol=1e-12, atol=0.0)
    R = Rescaled(UniformCdf(4.0))
    draws = R.sample_size_biased(np.random.default_rng(41), size=8)
    base = UniformCdf(4.0)
    u = 1.0 - np.random.default_rng(41).random(8)
    ref = np.array([base._size_biased_inverse(v) for v in u]) / R.scale
    assert_allclose(draws, ref, rtol=1e-12, atol=0.0)


def test_size_biased_frechet_gamma_route_matches_incomplete_gamma():
    # (c / V)^alpha with V ~ Gamma(1 - alpha) against inverting the
    # size-biased cdf gammaincc(1 - alpha, c t^(-1/alpha))
    F = Frechet(0.7)
    gamma_route = F.sample_size_biased(np.random.default_rng(43), size=20_000)
    u = np.random.default_rng(47).random(20_000)
    inverted = (F.c / special.gammainccinv(1.0 - F.alpha, u)) ** F.alpha
    assert stats.ks_2samp(gamma_route, inverted).pvalue > 1e-3


def test_size_biased_discrete():
    disc = Discrete([(0.0, 0.25), (0.8, 0.25), (1.6, 0.5)])
    rng = np.random.default_rng(29)
    z = np.asarray(disc.sample_size_biased(rng, size=50_000))
    assert np.all(z > 0.0)
    # size-biased masses are value * weight: 0.2 on 0.8 and 0.8 on 1.6
    freq = np.mean(z == 1.6)
    assert abs(freq - 0.8) <= 3.0 * math.sqrt(0.8 * 0.2 / 50_000)


@pytest.mark.parametrize("a", [0.7, 1.0, 3.0])
@pytest.mark.parametrize("z", [20.0, 50.0, 100.0, 300.0, 1e5])
def test_unit_exponential_power_tail_large_z(z, a):
    # independent reference: 1 - (1 - e^-u)^z falls from ~1 to ~0 around
    # u = ln z, so split there; beyond ln z + 50 the integral is below 1e-20
    def g(u):
        return -math.expm1(z * math.log1p(-math.exp(-u)))

    knee = math.log(z)
    pieces = [(a, knee), (max(a, knee), max(a, knee) + 50.0)]
    oracle = sum(quad(g, lo, hi, limit=500, epsabs=1e-13, epsrel=1e-13)[0]
                 for lo, hi in pieces if hi > lo)
    value = UnitExponential().power_tail_integral(a, z)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_digamma_matches_scipy():
    zs = np.concatenate([np.geomspace(1e-12, 1e8, 2001), np.arange(1.0, 40.0)])
    ours = np.array([_harmonic(z) - np.euler_gamma for z in zs])
    assert_allclose(ours, special.digamma(1.0 + zs), rtol=0.0, atol=1e-14)
    F = UnitExponential()
    for z in (0.5, 2.0, 7.0, 1e3):
        assert F.power_tail_integral(0.0, z) == pytest.approx(
            special.digamma(z + 1.0) + np.euler_gamma, rel=0.0, abs=1e-14)


def test_gammainc_matches_scipy():
    # shapes 1 - alpha of the Frechet tail integrals; where scipy and ours
    # differ by more than 1e-13, mpmath decides (scipy itself is ~1e-13 off
    # at some v below 1e-200)
    import mpmath

    mpmath.mp.dps = 40
    shapes = np.concatenate([np.geomspace(1e-6, 0.5, 12),
                             1.0 - np.geomspace(1e-6, 0.5, 12)[::-1]])
    vs = np.concatenate([[0.0, np.inf], np.geomspace(1e-300, 1e3, 400),
                         np.linspace(0.5, 3.0, 101)])
    for s in shapes:
        ours, ref = _gammainc(s, vs), special.gammainc(s, vs)
        assert np.all(ours[:2] == [0.0, 1.0])
        for v, value, expected in zip(vs[2:], ours[2:], ref[2:]):
            if abs(value - expected) <= 1e-13 * expected:
                continue
            exact = float(mpmath.gammainc(mpmath.mpf(float(s)), 0, mpmath.mpf(float(v)),
                                          regularized=True))
            assert value == pytest.approx(exact, rel=1e-13, abs=0.0), (s, v)


def test_frechet_tail_integral_extreme_arguments():
    F = Frechet(0.5)
    a = np.array([0.0, 1e-300, 1e-10, 1.0, 1e10, 1e300, np.inf])
    values = F.tail_integral(a)
    assert values[0] == pytest.approx(1.0, rel=1e-14)
    assert np.all(np.diff(values) <= 0.0) and values[-1] == 0.0
    assert F.tail_integral(2.0) == pytest.approx(
        quad(lambda u: -math.expm1(F.log_cdf(u)), 2.0, np.inf, epsabs=0.0)[0], rel=1e-10)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 0.99, 0.99999])
def test_frechet_tail_integral_matches_mpmath(alpha):
    # v = c a^(-1/alpha) goes subnormal, then 0, long before the value does;
    # the value must keep its digits wherever it is a normal double
    import mpmath

    F = Frechet(alpha)
    a = np.concatenate([np.geomspace(1e-10, 1e300, 311), [3.2e161, 1e162, 3.2e290]])
    values = F.tail_integral(a)
    with mpmath.workdps(50):
        al = mpmath.mpf(alpha)
        c = mpmath.gamma(1 - al) ** (-1 / al)
        for x, value in zip(a, values):
            v = c * mpmath.mpf(float(x)) ** (-1 / al)
            exact = float(c**al * (mpmath.gammainc(1 - al, 0, v)
                                   + v ** (-al) * mpmath.expm1(-v)))
            if exact >= np.finfo(float).tiny:
                assert value == pytest.approx(exact, rel=1e-13, abs=0.0), x


@pytest.mark.parametrize("F", all_families() + [
    Tilted(Frechet(0.5), 2.0), Exponential(2.0), PointMass(2.5),
    DiscreteCdf([(0.5, 0.5), (3.0, 0.5)])], ids=repr)
def test_cdf_vanishes_below_zero(F):
    x = np.array([-1e300, -1.0, -1e-300])
    for left in (False, True):
        assert np.all(np.asarray(F.cdf(x, left=left)) == 0.0)
        assert float(F.cdf(-1.0, left=left)) == 0.0


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 0.99999])
def test_frechet_quantile_at_one_is_inf(alpha):
    F = Frechet(alpha)
    p = np.random.default_rng(5).random(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(F.quantile(1.0)) == math.inf
        assert float(Tilted(F, 2.0).quantile(1.0)) == math.inf
        assert F.quantile(np.array([0.0, 1.0])).tolist() == [0.0, math.inf]
        # below 1 the draws keep their bits
        assert np.array_equal(F.quantile(p), (F.c / -np.log(p)) ** alpha)


def test_tilted_psi_matches_mpmath():
    # psi = digamma(1 + z) + gamma keeps relative precision as z -> 0
    import mpmath

    mpmath.mp.dps = 40
    for z in np.geomspace(1e-12, 1e8, 201):
        exact = mpmath.digamma(1 + mpmath.mpf(float(z))) + mpmath.euler
        psi = Tilted(UnitExponential(), float(z)).psi
        assert psi == pytest.approx(float(exact), rel=4 * np.finfo(float).eps,
                                    abs=0.0)


@pytest.mark.parametrize("theta", np.geomspace(1e-12, 50.0, 25))
def test_two_point_tail_integral_small_theta(theta):
    F = TwoPoint(theta)
    for a in (0.0, 0.25 * F.q, 0.999 * F.q):
        assert float(F.tail_integral(a)) == pytest.approx(
            F.power_tail_integral(a, 1.0), rel=1e-14, abs=0.0)
    assert F.mean() == pytest.approx(1.0, rel=1e-14, abs=0.0)
    values, weights = F.atom_values()
    assert float(values @ weights) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_point_mass_closed_forms():
    F = PointMass(2.5)
    assert F.location == 2.5 and repr(F) == "PointMass(2.5)"
    x = np.array([0.0, 2.4, 2.5, 3.0])
    assert_allclose(F.cdf(x), [0.0, 0.0, 1.0, 1.0], rtol=0.0, atol=0.0)
    assert_allclose(F.cdf(x, left=True), [0.0, 0.0, 0.0, 1.0], rtol=0.0, atol=0.0)
    assert_allclose(F.quantile([0.0, 0.3, 1.0]), 2.5, rtol=0.0, atol=0.0)
    a = np.array([0.0, 1.0, 2.5, 4.0])
    assert_allclose(F.tail_integral(a), [2.5, 1.5, 0.0, 0.0], rtol=0.0, atol=0.0)
    for z in (0.5, 1.0, 3.0):
        assert [F.power_tail_integral(v, z) for v in a] == [2.5, 1.5, 0.0, 0.0]
    assert F.mean() == 2.5
    assert (F.support_lower(), F.support_upper()) == (2.5, 2.5)
    values, weights = F.atom_values()
    assert values.tolist() == [2.5] and weights.tolist() == [1.0]
    for value in (F.cdf(2.5), F.cdf(2.5, left=True), F.quantile(0.3),
                  F.tail_integral(1.0), F.power_tail_integral(1.0, 2.0)):
        assert type(value) is float


def test_exponential_closed_forms():
    m = 3.0
    F = Exponential(m)
    assert F.mean_value == m and repr(F) == "Exponential(3.0)"
    x = np.array([0.0, 0.1, 1.0, 3.0, 20.0])
    assert_allclose(F.cdf(x), -np.expm1(-x / m), rtol=1e-14, atol=0.0)
    assert_allclose(F.cdf(x, left=True), -np.expm1(-x / m), rtol=1e-14, atol=0.0)
    assert_allclose(F.log_cdf(x[1:]), np.log1p(-np.exp(-x[1:] / m)), rtol=1e-14)
    p = np.array([0.0, 0.3, 0.9, 1.0 - 1e-12])
    assert_allclose(F.quantile(p), -m * np.log1p(-p), rtol=1e-14, atol=0.0)
    assert_allclose(F.tail_integral(x), m * np.exp(-x / m), rtol=1e-14, atol=0.0)
    for a in (0.5, 2.0, 6.0):
        w = math.exp(-a / m)
        assert F.power_tail_integral(a, 1.0) == pytest.approx(m * w, rel=1e-14)
        # int_a^oo 1 - (1 - e^(-u/m))^2 du
        assert F.power_tail_integral(a, 2.0) == pytest.approx(
            m * (2.0 * w - 0.5 * w * w), rel=1e-14)
    assert F.power_tail_integral(0.0, 2.0) == pytest.approx(1.5 * m, rel=1e-14)
    assert F.mean() == pytest.approx(m, rel=1e-15)
    assert (F.support_lower(), F.support_upper()) == (0.0, math.inf)
    assert F.atom_values() is None
    for value in (F.cdf(1.0), F.log_cdf(1.0), F.quantile(0.3),
                  F.tail_integral(1.0), F.power_tail_integral(1.0, 2.0),
                  F.sample_size_biased(np.random.default_rng(0))):
        assert type(value) is float
    # the size-biased law of an exponential with mean m is Gamma(2, m)
    assert_allclose(F.sample_size_biased(np.random.default_rng(4), size=5),
                    m * np.random.default_rng(4).gamma(2.0, size=5), rtol=1e-15)


def test_dirac1_is_the_one_atom_discrete_law():
    F = Dirac1()
    assert isinstance(F, Discrete) and repr(F) == "Dirac1()"
    assert F == Dirac1() and F != Discrete([(1.0, 1.0)])
    assert F.values.tolist() == [1.0] and F.weights.tolist() == [1.0]
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert F.sample_size_biased(rng) == 1.0
    assert F.sample_size_biased(rng, size=(4, 2)).tolist() == [[1.0, 1.0]] * 4
    assert rng.bit_generator.state == state


def test_tilt_identity_and_fixed_points():
    ue = UnitExponential()
    assert tilt(ue, 1.0) is ue
    assert isinstance(tilt(Dirac1(), 3.0), Dirac1)
    assert isinstance(tilt(Frechet(0.5), 2.0), Frechet)

    t2 = tilt(TwoPoint(LN2), 2.0)
    assert isinstance(t2, TwoPoint)
    assert t2.theta == pytest.approx(2.0 * LN2, rel=1e-15)


def test_tilt_exponential_closed_form():
    # psi(2) = int (1 - (1 - e^-t)^2) dt = 3/2 and F_2(x) = (1 - e^(-1.5 x))^2
    t2 = tilt(UnitExponential(), 2.0)
    assert isinstance(t2, Tilted)
    assert t2.psi == pytest.approx(1.5, abs=1e-12)
    xs = np.linspace(0.05, 6.0, 40)
    assert_allclose(np.asarray(t2.cdf(xs)), (1.0 - np.exp(-1.5 * xs)) ** 2,
                    atol=1e-12)
    assert float(t2.tail_integral(0.0)) == pytest.approx(1.0, abs=1e-10)


def test_tilt_pointwise_identity_at_one():
    grid = np.linspace(0.0, 5.0, 23)
    for F in all_families():
        F1 = tilt(F, 1.0)
        assert_allclose(np.asarray(F1.cdf(grid)), np.asarray(F.cdf(grid)),
                        atol=1e-12)


@pytest.mark.parametrize("z", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("F", all_families(), ids=repr)
def test_tilt_preserves_unit_mean(F, z):
    Fz = tilt(F, z)
    atoms = Fz.atom_values()
    pts = sorted(v for v in np.atleast_1d(atoms[0] if atoms else []) if 0 < v < 80)
    oracle = quad(lambda u: 1.0 - float(Fz.cdf(u)), 0.0, 80.0, limit=500,
                  points=pts or None)[0]
    if math.isinf(Fz.support_upper()):
        oracle += quad(lambda u: 1.0 - float(Fz.cdf(u)), 80.0, np.inf)[0]
    assert oracle == pytest.approx(1.0, abs=1e-6)
    assert float(Fz.tail_integral(0.0)) == pytest.approx(1.0, abs=1e-8)


def test_tilt_collapses_repeated():
    t = tilt(tilt(UnitExponential(), 2.0), 2.5)
    assert isinstance(t, Tilted)
    assert t.z == pytest.approx(5.0)
    assert isinstance(t.base, UnitExponential)


def test_rescale_examples():
    assert isinstance(rescale_to_unit_mean(PointMass(2.0)), Dirac1)
    assert isinstance(rescale_to_unit_mean(Exponential(3.0)), UnitExponential)

    r = rescale_to_unit_mean(DiscreteCdf([(0.0, 0.5), (4.0, 0.5)]))
    tp = TwoPoint(LN2)
    grid = np.linspace(0.0, 3.0, 31)
    assert_allclose(np.asarray(r.cdf(grid)), np.asarray(tp.cdf(grid)), atol=1e-12)


def test_rescale_generic_wrapper():
    g = rescale_to_unit_mean(UniformCdf(4.0))
    assert isinstance(g, Rescaled)
    assert g.scale == pytest.approx(2.0, abs=1e-10)
    assert float(g.tail_integral(0.0)) == pytest.approx(1.0, abs=1e-9)
    # exponential with non-unit mean rescales exactly
    exp3 = rescale_to_unit_mean(Exponential(3.0))
    xs = np.linspace(0.0, 5.0, 11)
    assert_allclose(np.asarray(exp3.cdf(xs)), -np.expm1(-xs), atol=1e-12)


def test_rescale_unit_mean_input_passthrough():
    F = Frechet(0.5)
    assert rescale_to_unit_mean(F) is F


def test_construction_errors():
    with pytest.raises(ValueError):
        Frechet(0.0)
    with pytest.raises(ValueError):
        Frechet(1.0)
    with pytest.raises(ValueError):
        TwoPoint(0.0)
    with pytest.raises(ValueError):
        TwoPoint(-1.0)
    with pytest.raises(ValueError):
        Discrete([(-0.5, 0.5), (1.0, 0.5)])
    with pytest.raises(ValueError):
        Discrete([(0.5, 0.5), (1.0, 0.5)])  # mean 0.75, not rescaled silently
    with pytest.raises(ValueError):
        Discrete([])
    with pytest.raises(ValueError):
        tilt(UnitExponential(), 0.0)
    with pytest.raises(ValueError):
        PointMass(0.0)
    with pytest.raises(ValueError):
        Tilted(PointMass(2.0), 2.0)  # base must be unit-mean


def test_discrete_normalizes_weights_not_values():
    disc = Discrete([(0.5, 5.0), (1.5, 5.0)])
    assert_allclose(disc.weights, [0.5, 0.5])
    with pytest.raises(ValueError):
        Discrete([(1.0, 3.0), (3.0, 3.0)])  # mean 2 after normalizing weights


def test_quantile_examples():
    tp = TwoPoint(LN2)
    assert float(tp.quantile(0.25)) == 0.0
    assert float(tp.quantile(0.75)) == 2.0
    assert float(Dirac1().quantile(0.0)) == 1.0
    F = Frechet(0.5)
    u = 0.37
    assert float(F.cdf(F.quantile(u))) == pytest.approx(u, rel=1e-12)
