import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats
from scipy.integrate import quad

from maxstable import (
    CanonicalModel,
    Cdf,
    Dirac1,
    Discrete,
    DiscreteCdf,
    Exponential,
    Frechet,
    MixingMeasure,
    PointMass,
    Rescaled,
    Tilted,
    TwoPoint,
    UnitExponential,
    rescale_to_unit_mean,
    sample_conditional_iid_batch,
    sample_minstable_batch,
    stdf_extremal,
    tilt,
)
from maxstable.families import _SizeBiasedTable, _gammainc, _harmonic, _suffix_sums

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


def scalar_size_biased_inverse(F, u):
    """inf{t : G(t) >= u} by doubling and bisection, with the size-biased
    cdf G(t) = (mean - tail(t) - t (1 - F(t))) / mean from the tail integral:
    the reference that the tabulated inverse is held to."""
    m = F.mean()

    def g(t):
        return (m - float(F.tail_integral(t)) + t * math.expm1(float(F.log_cdf(t)))) / m

    hi = max(float(F.quantile(0.9)), 1.0)
    upper = F.support_upper()
    for _ in range(200):
        if g(hi) >= u or hi >= upper:
            break
        hi *= 2.0
    hi = min(hi, upper)
    lo = 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if g(mid) >= u:
            hi = mid
        else:
            lo = mid
    return hi


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


def product_tail_families():
    # plus the generic wrappers over atomic and exponential bases
    return all_families() + [
        Tilted(Discrete([(0.5, 0.5), (1.5, 0.5)]), 2.0),
        Rescaled(Exponential(2.0)),
        Rescaled(DiscreteCdf([(0.0, 0.3), (1.0, 0.4), (3.0, 0.3)])),
    ]


@pytest.mark.parametrize("F", product_tail_families(), ids=repr)
def test_product_tail_matches_quadrature(F):
    # each family's closed form or exact atomic sum against the generic
    # quadrature, with repeated weights and unit and non-unit powers
    cases = [(np.array([1.0, 0.4, 0.75, 0.4, 1.0]), np.ones(5)),
             (np.array([1.0, 0.4, 0.75, 0.4, 1.0]), np.array([0.5, 2.0, 1.0, 3.0, 0.7])),
             (np.ones(1), np.array([0.5])),
             (np.ones(1), np.array([3.0]))]
    for a in (0.0, 0.3, 2.0):
        for t, powers in cases:
            value = F._product_tail(a, t, powers, 1e-12)
            assert value == pytest.approx(F._product_tail_quad(a, t, powers, 1e-12),
                                          rel=0.0, abs=1e-12)
        for z in (0.5, 1.0, 3.0):
            assert F.power_tail_integral(a, z) == F._product_tail(
                a, np.ones(1), np.array([z]), 1e-10)


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


def exact_log_cdf(F, x, left=False):
    """log F(x) at 50 digits from the parameters of a family of all_families()."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(float(x))
        if x < 0:
            return -math.inf
        if isinstance(F, Frechet):
            alpha = mpmath.mpf(F.alpha)
            c = mpmath.gamma(1 - alpha) ** (-1 / alpha)
            return float(-c * x ** (-1 / alpha)) if x > 0 else -math.inf
        if isinstance(F, TwoPoint):
            # the atoms 0 and q, as the family keeps them
            below_q = x < F.q or (left and x == F.q)
            if x == 0 and left:
                return -math.inf
            return float(-mpmath.mpf(F.theta)) if below_q else 0.0
        if isinstance(F, UnitExponential):
            return float(mpmath.log(-mpmath.expm1(-x)))
        if isinstance(F, Discrete):
            weights = [mpmath.mpf(float(w)) for w in F.weights]
            kept = [w for v, w in zip(F.values, weights) if (v < x if left else v <= x)]
            return float(mpmath.log(mpmath.fsum(kept) / mpmath.fsum(weights)))
        if isinstance(F, Tilted):
            # psi = digamma(z + 1) + gamma for a unit exponential base
            z = mpmath.mpf(F.z)
            psi = mpmath.digamma(z + 1) + mpmath.euler
            return float(z * mpmath.log(-mpmath.expm1(-x * psi)))
        if isinstance(F, Rescaled):
            return float(mpmath.log(min(x * mpmath.mpf(F.scale) / F.base.width, 1)))
    raise TypeError(F)


@pytest.mark.parametrize("F", all_families(), ids=repr)
def test_log_cdf_consistent(F):
    # against log F written out at 50 digits, off and on the atoms, where F
    # underflows too (Frechet(0.2) near 0.01)
    rng = np.random.default_rng(33)
    xs = rng.uniform(0.01, 8.0, size=50)
    atoms = F.atom_values()
    if atoms is not None:
        xs = np.concatenate([xs, atoms[0]])
    for left in (False, True):
        logs = np.asarray(F.log_cdf(xs, left=left))
        exact = np.array([exact_log_cdf(F, x, left) for x in xs])
        assert_allclose(logs, exact, rtol=1e-13, atol=0.0)
        assert_allclose(np.asarray(F.cdf(xs, left=left)), np.exp(exact), rtol=1e-13,
                        atol=0.0)


def test_a_family_must_define_cdf_or_log_cdf():
    class Bare(Cdf):
        def _key(self):
            return ("bare",)

    for method in (Bare().cdf, Bare().log_cdf):
        with pytest.raises(NotImplementedError):
            method(0.5)


ATOMIC = [Dirac1(), TwoPoint(0.3), TwoPoint(LN2), PointMass(2.0),
          Discrete([(0.5, 0.5), (1.5, 0.5)]),
          Discrete([(0.0, 0.25), (0.8, 0.25), (1.6, 0.5)]),
          Discrete([(0.5 / (1.0 - 1e-12), 1.0 - 1e-12), (0.5e12, 1e-12)]),
          DiscreteCdf([(0.0, 0.3), (1.0, 0.4), (3.0, 0.3)])]


@pytest.mark.parametrize("F", ATOMIC, ids=repr)
def test_atom_steps_kept_from_construction_are_log_cdf_jumps(F):
    # the atomic l(t) route reads the same table of log F as log_cdf
    values, jumps = F._atom_steps()
    generic_values, generic_jumps = Cdf._atom_steps(F)
    assert np.array_equal(values, F.atom_values()[0])
    assert np.array_equal(values, generic_values)
    assert np.array_equal(jumps, generic_jumps)
    assert jumps[0] == np.inf and np.all(jumps[1:] > 0.0)


def test_discrete_log_cdf_keeps_a_tiny_top_weight():
    w = 1e-12
    F = Discrete([(0.5 / (1.0 - w), 1.0 - w), (0.5 / w, w)])
    low, top = F.values
    top_weight = F.weights[1]
    assert float(F.log_cdf(low)) == math.log1p(-top_weight)
    assert float(F.log_cdf(top, left=True)) == math.log1p(-top_weight)
    assert float(F.log_cdf(0.5 * (low + top))) == math.log1p(-top_weight)
    assert float(F.log_cdf(low, left=True)) == -math.inf
    assert float(F.log_cdf(top)) == 0.0
    assert math.copysign(1.0, float(F.log_cdf(top))) == 1.0
    # log of the cdf loses the weight's relative precision
    assert abs(math.log(float(F.cdf(low))) / math.log1p(-top_weight) - 1.0) > 1e-6


def test_discrete_cdf_is_exact_at_a_light_bottom_atom():
    # exp(log F) was up to 16 eps off at cum near 1e-15; the oracle's float
    # log F rounds those digits away, so F itself is summed at 50 digits too
    import mpmath

    eps = np.finfo(float).eps
    for bottom in np.geomspace(1e-16, 1e-13, 16):
        F = Discrete([(0.5, bottom), ((1.0 - 0.5 * bottom) / (1.0 - bottom),
                                      1.0 - bottom)])
        low, top = F.values
        with mpmath.workdps(50):
            w = [mpmath.mpf(float(v)) for v in F.weights]
            exact = float(w[0] / mpmath.fsum(w))
        for x, left in ((low, False), (0.5 * (low + top), False), (top, True)):
            assert F.cdf(x, left=left) == pytest.approx(exact, rel=eps, abs=0.0)
            assert math.log(F.cdf(x, left=left)) == pytest.approx(
                exact_log_cdf(F, x, left), rel=eps, abs=0.0)
        assert F.cdf(low, left=True) == 0.0 and F.cdf(top) == 1.0
        assert np.array_equal(F.cdf(np.array([low, top])), F.cum)


def test_discrete_with_a_light_bottom_atom_builds_without_a_warning():
    # the mass above the first atom rounds past 1; log1p of minus it was
    # nan, though only log(cum) is kept there
    F = Discrete([(0.006767242381428393, 4.376580651937872e-26),
                  (0.06767242381428394, 0.00048828124999949514),
                  (0.6767242381428393, 0.946384358685893),
                  (6.767242381428393, 0.053127360063072074),
                  (67.67242381428395, 1.0354461614264286e-12)])
    assert float(F.log_cdf(F.values[0])) == math.log(F.weights[0])


@pytest.mark.parametrize("z", [0.1, 2.0, 20.0])
@pytest.mark.parametrize("atoms", [
    [(0.5, 0.5), (1.0, 1e-15), (1.5, 0.5 - 1e-15)],
    [(0.5, 0.3), (1.0, 1e-15), (1.0 / 0.7 * 0.85, 0.7 - 1e-15)],
    [(0.5, 1e-15), (1.0, 1.0 - 1e-15)],
], ids=["light middle", "light middle below 1/2", "light bottom"])
def test_tilted_weights_of_light_atoms(atoms, z):
    # a difference of the levels log F cancelled on a light middle atom (8e-4
    # off), and e^(z log F) on a light bottom atom was a relative z |log F|
    # eps off (2.2e-14 at z = 20); the jump is log1p(w_j / F_(j-1)) and F^z a
    # power of F up to F = 1/2 now
    import mpmath

    F = Discrete(atoms)
    with mpmath.workdps(50):
        w = [mpmath.mpf(float(v)) for v in F.weights]
        cum = [mpmath.fsum(w[:j + 1]) for j in range(len(w))]
        exact = np.array([float(c ** z - p ** z) for c, p in zip(cum, [0] + cum[:-1])])
    _, weights = Tilted(F, z).atom_values()
    assert np.all(np.abs(weights - exact) <= 1e-14 * exact)
    assert np.array_equal(tilt(F, z).weights, weights / weights.sum())


class _TwoAtoms(Cdf):
    """Atoms 0.5 and 1.5 with weight 1/2 each, declared through cdf and
    atom_values only: the atomic route takes its jumps from log_cdf."""

    def cdf(self, x, left=False):
        side = "left" if left else "right"
        idx = np.searchsorted([0.5, 1.5], np.asarray(x, dtype=float), side=side)
        return np.array([0.0, 0.5, 1.0])[idx]

    def atom_values(self):
        return np.array([0.5, 1.5]), np.array([0.5, 0.5])


def test_atomic_route_of_a_family_without_kept_steps():
    t = np.array([1.0, 0.4, 0.7])
    disc = Discrete([(0.5, 0.5), (1.5, 0.5)])
    assert _TwoAtoms()._product_tail(0.0, t, np.ones(3), 1e-9) == \
        disc._product_tail(0.0, t, np.ones(3), 1e-9)


def _suffix_sums_by_concatenation(x):
    # the rows as built before they were filled in place
    width = max(math.isqrt(x.size), 1)
    rows = np.concatenate([x[::-1], np.zeros(-x.size % width)]).reshape(-1, width)
    rows = np.cumsum(rows, axis=1)
    rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
    return rows.ravel()[:x.size][::-1]


def test_suffix_sums_bitwise_the_concatenated_rows():
    rng = np.random.default_rng(41)
    for n in list(range(1, 130)) + [1000, 4097]:
        x = rng.exponential(size=n) * rng.choice([1.0, 1e-10, 1e10], size=n)
        x[rng.random(n) < 0.1] = np.inf
        assert _suffix_sums(x).tobytes() == _suffix_sums_by_concatenation(x).tobytes()


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
def test_tail_integral_is_the_power_one_tail(F):
    # atomic laws keep sum_j w_j (v_j - a)+, which can round one ulp away from
    # the step sum of power_tail_integral; every other family is that call
    for a in (0.0, 0.1, 0.35, 0.6, 1.2, 3.0):
        value, power_one = float(F.tail_integral(a)), F.power_tail_integral(a, 1.0)
        if isinstance(F, Discrete):
            assert value == pytest.approx(power_one, rel=np.finfo(float).eps, abs=0.0)
        else:
            assert value == power_one
    assert_allclose(F.tail_integral(np.array([[0.1, 1.2]])),
                    [[F.tail_integral(0.1), F.tail_integral(1.2)]], rtol=0.0, atol=0.0)


def test_closed_form_tail_integrals_need_no_quadrature(monkeypatch):
    # below a = ln 2 the exponential's binomial series ends, at k = z + 1,
    # for an integer z; the Frechet mean is the closed form's 1 exactly
    from maxstable import families

    def no_quadrature(*args, **kwargs):
        raise AssertionError("tail_quad called")

    monkeypatch.setattr(families, "tail_quad", no_quadrature)
    a = np.linspace(0.01, 0.69, 12)
    assert UnitExponential().tail_integral(a).tolist() == [math.exp(-v) for v in a]
    assert_allclose(Exponential(3.0).tail_integral(a), 3.0 * np.exp(-a / 3.0),
                    rtol=1e-15, atol=0.0)
    for v in a:
        w = math.exp(-v)
        assert UnitExponential().power_tail_integral(v, 2.0) == pytest.approx(
            2.0 * w - 0.5 * w * w, rel=1e-15, abs=0.0)
    for alpha in (0.2, 0.5, 0.9, 0.99):
        F = Frechet(alpha)
        assert F.mean() == 1.0
        values = F.tail_integral(a)
        assert np.all(np.diff(values) < 0.0) and np.all(values < 1.0)


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
    # a law whose masses v w sit on one atom returns it and draws nothing
    for F, atom in ((tp, tp.q), (TwoPoint(1000.0), 1.0), (PointMass(2.5), 2.5),
                    (Discrete([(0.0, 0.5), (2.0, 0.5)]), 2.0),
                    (DiscreteCdf([(0.0, 0.3), (2.5, 0.7)]), 2.5)):
        state = rng.bit_generator.state
        value = F.sample_size_biased(rng)
        assert type(value) is float and value == atom
        assert F.sample_size_biased(rng, size=(3, 2)).tolist() == [[atom] * 2] * 3
        assert rng.bit_generator.state == state


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
    ref = np.array([scalar_size_biased_inverse(F, v) for v in u])
    assert_allclose(_SizeBiasedTable(F).inverse(u), ref, rtol=1e-12, atol=0.0)


def test_size_biased_table_atoms_and_rescaled():
    # the left half of each atom's jump in G returns the atom; a Rescaled
    # generic base draws from the base's table
    F = Tilted(Discrete([(0.5, 0.5), (1.5, 0.5)]), 2.0)
    u = 1.0 - np.random.default_rng(37).random(24)
    ref = np.array([scalar_size_biased_inverse(F, v) for v in u])
    assert_allclose(_SizeBiasedTable(F).inverse(u), ref, rtol=1e-12, atol=0.0)
    R = Rescaled(UniformCdf(4.0))
    draws = R.sample_size_biased(np.random.default_rng(41), size=8)
    base = UniformCdf(4.0)
    u = 1.0 - np.random.default_rng(41).random(8)
    ref = np.array([scalar_size_biased_inverse(base, v) for v in u]) / R.scale
    assert_allclose(draws, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_size_biased_table_heavy_tail_matches_incomplete_gamma(alpha):
    # the generic table on a Frechet tail: F_z(x) = exp(-C x^(-1/alpha)) with
    # C = z c psi^(-1/alpha), so 1 - G(t) = P(1 - alpha, C t^(-1/alpha)) as for
    # Frechet's own sampler; the table reaches out to 1e300 and returns inf
    # only for a u above G there
    import mpmath

    F = Tilted(Frechet(alpha), 2.0)
    u = np.concatenate([1.0 - np.random.default_rng(53).random(24),
                        [0.5, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _SizeBiasedTable(F).inverse(u)
    with mpmath.workdps(40):
        power = -1 / mpmath.mpf(alpha)
        C = mpmath.mpf(2.0 * F.base.c) * mpmath.mpf(F.psi) ** power

        def tail(t):
            return mpmath.gammainc(1 - mpmath.mpf(alpha), 0, C * mpmath.mpf(t) ** power,
                                   regularized=True)

        for v, t in zip(u, x):
            if math.isfinite(t):
                assert abs(tail(t) - (1 - mpmath.mpf(v))) <= 1e-14
            else:
                assert tail(1e300) > 1 - mpmath.mpf(v)
    if alpha == 0.99:
        assert not np.isfinite(x[-1])  # 1 - G(1e300) is 9e-4 here


@pytest.mark.parametrize("F", [tilt(UnitExponential(), 2.0), Tilted(Frechet(0.9), 2.0),
                               Tilted(Discrete([(0.5, 0.5), (1.5, 0.5)]), 2.0),
                               Tilted(Discrete([(1.0 - 1e-10, 1.0 - 1e-16), (1e6, 1e-16)]), 2.0),
                               rescale_to_unit_mean(UniformCdf())], ids=repr)
def test_size_biased_table_nodes_up_to_the_top_quantile(F):
    # up to the 1 - 1e-15 quantile the nodes are 0, the geometric ones from
    # the 1e-15 quantile and the atoms below; the table is built without a
    # warning.  In the fourth law both quantiles are the bottom atom, and
    # the nodes past it must still reach the top one
    lo, hi = float(F.quantile(1e-15)), float(F.quantile(1.0 - 1e-15))
    if not lo > 0.0:
        lo = 1e-15 * hi
    expected = [[0.0], np.geomspace(lo, hi, 1000)]
    atoms = F.atom_values()
    if atoms is not None:
        expected.append(atoms[0][(atoms[0] > 0.0) & (atoms[0] < hi)])
    expected = np.unique(np.concatenate(expected))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _SizeBiasedTable(F)
    assert table.nodes[:expected.size].tolist() == expected.tolist()
    assert np.all(table.nodes[expected.size:] > hi)
    # every one of these tails is negligible before 1e300, so a u above G at
    # the last node draws that node, the top of a bounded support
    assert table.beyond == table.nodes[-1]
    if math.isfinite(F.support_upper()):
        assert table.beyond == F.support_upper()


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
    x = np.array([-np.inf, -1e300, -1.0, -1e-300])
    for left in (False, True):
        assert np.all(np.asarray(F.cdf(x, left=left)) == 0.0)
        assert float(F.cdf(-1.0, left=left)) == 0.0
        assert np.all(np.asarray(F.log_cdf(x, left=left)) == -np.inf)
        assert float(F.log_cdf(-1e-300, left=left)) == -math.inf


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


@pytest.mark.parametrize("theta", [746.0, 1000.0, 1e300])
def test_two_point_where_the_atom_at_zero_underflows(theta):
    # e^-theta is 0, so a law built from the weights would have an atom of
    # weight 0; the table from theta keeps log F = -theta, and the law is the
    # comonotone one: l(t) = max t, every row one value
    F = TwoPoint(theta)
    assert F.q == 1.0 and float(F.log_cdf(0.5)) == -theta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the jump of log F at q is log1p(1 / 0) = oo
        values, weights = Tilted(F, 2.0).atom_values()
    assert weights.tolist() == [0.0, 1.0]
    assert stdf_extremal(F, [1.0, 2.0, 0.5]) == 2.0
    model = CanonicalModel(0.0, MixingMeasure.point(F))
    for rows in (sample_minstable_batch(model, 3, 5, np.random.default_rng(1)),
                 sample_conditional_iid_batch(model.to_triplet(), 3, 5,
                                              np.random.default_rng(1))):
        assert rows.shape == (5, 3) and np.all(np.isfinite(rows) & (rows > 0.0))
        assert np.all(rows == rows[:, :1])


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
