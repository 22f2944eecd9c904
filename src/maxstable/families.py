"""Distribution functions of non-negative random variables with unit mean.

These families are the extremal building blocks of the library: every model
mixes them, every evaluator integrates against them and every sampler draws
from them.  Each family exposes the same surface:

* ``cdf(x, left=...)``  -- F(x), or the left limit F(x-) for atomic families,
* ``tail_integral(a)``  -- int_a^oo (1 - F(u)) du  (equals 1 at a = 0),
* ``power_tail_integral(a, z)`` -- int_a^oo (1 - F(u)^z) du,
* ``quantile(p)``       -- generalized inverse inf{x : F(x) >= p},
* ``sample(rng)``       -- inverse-transform sampling,
* ``sample_size_biased(rng)`` -- draw from t -> int_0^t s dF(s).

Closed forms are used wherever the family admits one; the generic fallbacks
go through adaptive Gauss-Kronrod quadrature (``_quad.tail_quad``, whose
tail map reads the family's ``tail_index()``), monotone bisection and a
size-biased table cached by the first draw.  Objects are otherwise immutable
after construction, and safe to share across threads.

Each law has one implementation.  Point masses are one-atom discrete laws
(Dirac1 a Discrete, PointMass a DiscreteCdf), and the scale wrapper
F(x) = G(x * scale) serves both Rescaled (scale = mean of G) and Exponential
(scale = 1 / mean over UnitExponential).

Only numpy is needed: the Frechet tail integrals use the incomplete gamma
function of _gammainc, and Tilted's normalizing constant for a
UnitExponential base is digamma(z+1) + gamma from _harmonic.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._quad import tail_quad

__all__ = [
    "Cdf",
    "UnitMeanCdf",
    "Dirac1",
    "Frechet",
    "TwoPoint",
    "UnitExponential",
    "Discrete",
    "Tilted",
    "Rescaled",
    "PointMass",
    "Exponential",
    "DiscreteCdf",
    "tilt",
    "rescale_to_unit_mean",
]

#: construction-time tolerance on the unit-mean constraint
UNIT_MEAN_TOL = 1e-9

_SERIES_GROWTH = math.log(1e4)


def _maybe_scalar(arr, scalar_in):
    if scalar_in:
        return float(arr)
    return arr


class Cdf:
    """Distribution function of a non-negative random variable with finite positive mean."""

    def cdf(self, x, left: bool = False):
        """Evaluate F(x); with ``left=True`` the left limit F(x-) instead."""
        raise NotImplementedError

    def log_cdf(self, x, left: bool = False):
        """log F(x) for x >= 0, full relative precision where F is close to one."""
        with np.errstate(divide="ignore"):
            return np.log(self.cdf(x, left=left))

    def quantile(self, p):
        """Generalized inverse inf{x : F(x) >= p}; p = 0 maps to the support infimum."""
        raise NotImplementedError

    def tail_integral(self, a):
        """int_a^oo (1 - F(u)) du.  Vectorized over ``a``."""
        a_arr = np.asarray(a, dtype=float)
        if a_arr.ndim == 0:
            return self.power_tail_integral(float(a_arr), 1.0)
        out = np.array([self.power_tail_integral(v, 1.0) for v in a_arr.ravel()])
        return out.reshape(a_arr.shape)

    def power_tail_integral(self, a: float, z: float) -> float:
        """int_a^oo (1 - F(u)^z) du for z > 0 (quadrature fallback)."""
        return self._product_tail(a, np.ones(1), np.array([float(z)]), 1e-10)

    def _product_tail(self, a: float, t, powers, abs_tol: float) -> float:
        """int_a^oo (1 - prod_k F(s / t_k)^powers_k) ds to absolute tolerance
        ``abs_tol``, for weights t with max t = 1: l_F(t) at a = 0."""

        def integrand(s):
            # no cancellation where every factor is near 1; s / 0 = oo gives F = 1
            with np.errstate(divide="ignore", over="ignore"):
                return -np.expm1(np.asarray(self.log_cdf(s[:, None] / t)) @ powers)

        scale = max(float(self.quantile(0.999)), 1.0)
        atoms = self.atom_values()
        breaks = () if atoms is None else np.outer(atoms[0], t).ravel()
        return tail_quad(integrand, a, scale, upper=self.support_upper(),
                         breakpoints=breaks, abs_tol=abs_tol,
                         tail_index=self.tail_index())

    def mean(self) -> float:
        return float(self.tail_integral(0.0))

    def support_lower(self) -> float:
        """inf{u : F(u) > 0}."""
        return 0.0

    def support_upper(self) -> float:
        """sup of the support; inf for unbounded families."""
        return math.inf

    def tail_index(self) -> float:
        """kappa with 1 - F(x) ~ C x^(-kappa) as x -> oo; inf for tails
        lighter than every power.  A family with a power tail must declare
        it: the quadrature maps the tail by it."""
        return math.inf

    def atom_values(self):
        """(values, weights) for purely atomic families, else None."""
        return None

    def sample(self, rng, size=None):
        """Inverse-transform sample(s) from F."""
        u = rng.random() if size is None else rng.random(size)
        return self.quantile(u)

    def sample_size_biased(self, rng, size=None):
        """Sample from the size-biased distribution t -> int_0^t s dF(s) / mean.

        Inverts a table of int_0^x (1 - F) that the first draw builds
        (see _SizeBiasedTable).
        """
        u = 1.0 - (rng.random() if size is None else rng.random(size))
        table = getattr(self, "_size_biased_table", None)
        if table is None:
            # a race between threads only builds the same table twice
            table = self._size_biased_table = _SizeBiasedTable(self)
        out = table.inverse(np.ravel(u))
        return float(out[0]) if size is None else out.reshape(np.shape(u))

    # -- internals ------------------------------------------------------

    def _size_biased_cdf(self, t: float) -> float:
        # int_0^t s dF(s) / mean == (mean - tail(t) - t (1 - F(t))) / mean
        m = self.mean()
        return (m - float(self.tail_integral(t)) - t * (1.0 - float(self.cdf(t)))) / m

    def _size_biased_inverse(self, u: float) -> float:
        hi = max(float(self.quantile(0.9)), 1.0)
        upper = self.support_upper()
        for _ in range(200):
            if self._size_biased_cdf(hi) >= u or hi >= upper:
                break
            hi *= 2.0
        hi = min(hi, upper)
        lo = 0.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if self._size_biased_cdf(mid) >= u:
                hi = mid
            else:
                lo = mid
        return hi

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Cdf) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind, *params = self._key()
        inner = ", ".join(repr(p) for p in params)
        return f"{type(self).__name__}({inner})"


#: geometric nodes of a size-biased table
_TABLE_NODES = 1000
#: 5-point Gauss-Legendre rule on [0, 1] in closed form (leggauss would call
#: LAPACK, whose workspace then stays resident)
_GL_X = 0.5 + np.array([-1, -1, 0, 1, 1]) * np.sqrt(
    5.0 + 2.0 * np.array([1, -1, 0, -1, 1]) * math.sqrt(10.0 / 7.0)) / 6.0
_GL_W = (np.array([322, 322, 512, 322, 322])
         + 13.0 * np.array([-1, 1, 0, 1, -1]) * math.sqrt(70.0)) / 1800.0
#: secant steps and relative bracket width at which a table inverse stops
_SECANT_STEPS = 100
_SECANT_RTOL = 1e-15


class _SizeBiasedTable:
    """Inverse of the size-biased cdf G(t) = (C(t) - t (1 - F(t))) / mean
    of one family, where C(t) = int_0^t (1 - F).

    C is tabulated at 0, at _TABLE_NODES geometric nodes between the 1e-15
    and 1 - 1e-15 quantiles (the upper one found from log_cdf where the
    quantile rounds to inf) and at the atoms, by one 5-point
    Gauss-Legendre panel per interval; atoms are nodes because the rule is
    wrong across a jump.  A value u is placed between two nodes by
    searchsorted, and an Illinois secant solves G(t) = u between them, with
    C(t) from a Gauss-Legendre panel over [node, t]; the secant keeps the
    upper end, so u in the jump of G at an atom returns the atom.  Values
    above G at the last node (probability ~1e-14) go to the scalar inverse.
    """

    def __init__(self, F: Cdf):
        self.F = F
        hi = float(F.quantile(1.0 - 1e-15))
        if not math.isfinite(hi):
            # the quantile can round its argument up to 1, as Tilted does
            # with p ** (1 / z) for z >~ 19
            hi = max(float(F.quantile(0.9)), 1.0)
            while -math.expm1(float(F.log_cdf(hi))) > 1e-15:
                hi *= 2.0
        lo = float(F.quantile(1e-15))
        if not lo > 0.0:
            lo = 1e-15 * hi
        nodes = [[0.0], np.geomspace(lo, hi, _TABLE_NODES)]
        atoms = F.atom_values()
        if atoms is not None:
            nodes.append(atoms[0][(atoms[0] > 0.0) & (atoms[0] < hi)])
        self.nodes = np.unique(np.concatenate(nodes))
        self.c = np.concatenate([[0.0], np.cumsum(
            self._panel(self.nodes[:-1], self.nodes[1:]))])
        self.mean = F.mean()
        # rounding must not unsort the nodes' values for searchsorted
        self.g = np.maximum.accumulate(self._g(self.nodes, self.c))

    def _panel(self, a, b):
        """int_a^b (1 - F), one Gauss-Legendre rule per entry."""
        width = b - a
        points = a[:, None] + width[:, None] * _GL_X
        return width * (-np.expm1(self.F.log_cdf(points)) @ _GL_W)

    def _g(self, t, c):
        """G(t), given c = C(t)."""
        return (c + t * np.expm1(self.F.log_cdf(t))) / self.mean

    def inverse(self, u) -> np.ndarray:
        """inf{t : G(t) >= u} for each u in (0, 1]."""
        out = np.empty(u.size)
        i = np.searchsorted(self.g, u, side="left")  # g[i - 1] < u <= g[i]
        beyond = i >= self.nodes.size
        out[beyond] = [self.F._size_biased_inverse(v) for v in u[beyond]]
        out[~beyond] = self._secant(u[~beyond], i[~beyond])
        return out

    def _secant(self, u, i):
        """Illinois secant for inf{t : G(t) >= u} on (nodes[i - 1], nodes[i]],
        where G(nodes[i - 1]) < u <= G(nodes[i]) and G is continuous but for
        a jump at nodes[i] if it is an atom."""
        a, b = self.nodes[i - 1], self.nodes[i]
        fa, fb = self.g[i - 1] - u, self.g[i] - u
        c_a = self.c[i - 1]
        last = np.zeros(u.size)  # +1 if the last step moved b, -1 if a
        for _ in range(_SECANT_STEPS):
            live = np.nonzero((b - a > _SECANT_RTOL * b) & (fb > 0.0))[0]
            if live.size == 0:
                break
            al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
            t = bl - fbl * (bl - al) / (fbl - fal)
            # rounding can put t on an end; bisect then
            t = np.where((t > al) & (t < bl), t, 0.5 * (al + bl))
            c_t = c_a[live] + self._panel(al, t)
            ft = self._g(t, c_t) - u[live]
            up = ft >= 0.0
            lb, la = live[up], live[~up]
            # Illinois: an end kept twice in a row has its value halved
            fa[lb[last[lb] == 1.0]] *= 0.5
            fb[la[last[la] == -1.0]] *= 0.5
            b[lb], fb[lb] = t[up], ft[up]
            a[la], fa[la], c_a[la] = t[~up], ft[~up], c_t[~up]
            last[lb], last[la] = 1.0, -1.0
        return b


class UnitMeanCdf(Cdf):
    """Marker base class for families whose mean is exactly one."""


class Frechet(UnitMeanCdf):
    """F(x) = exp(-c x^(-1/alpha)) with c = Gamma(1-alpha)^(-1/alpha), alpha in (0, 1).

    The unique scaling of the heavy-tailed Frechet law with unit mean; its
    stable tail dependence function is the logistic model (Sigma t^(1/alpha))^alpha.
    """

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        self.alpha = alpha
        self.c = math.gamma(1.0 - alpha) ** (-1.0 / alpha)

    def cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.exp(-self.c * np.maximum(x_arr, 0.0) ** (-1.0 / self.alpha))
        return _maybe_scalar(out, x_arr.ndim == 0)

    def log_cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = -self.c * x_arr ** (-1.0 / self.alpha)
        return _maybe_scalar(out, x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        # 0 - log p, not -log p: at p = 1 that is +0, so the quantile is +inf
        with np.errstate(divide="ignore"):
            out = np.where(
                p_arr <= 0.0, 0.0, (self.c / (0.0 - np.log(p_arr))) ** self.alpha
            )
        return _maybe_scalar(out, p_arr.ndim == 0)

    def tail_integral(self, a):
        a_arr = np.asarray(a, dtype=float)
        out = _frechet_tail(self.c, self.alpha, a_arr)
        return _maybe_scalar(out, a_arr.ndim == 0)

    def power_tail_integral(self, a: float, z: float) -> float:
        # F^z is the same Frechet shape with constant z*c
        return float(_frechet_tail(z * self.c, self.alpha, np.asarray(a, dtype=float)))

    def tail_index(self) -> float:
        return 1.0 / self.alpha

    def sample_size_biased(self, rng, size=None):
        # V = c X^(-1/alpha) is unit exponential under F, so under x dF(x)
        # it is Gamma(1 - alpha)
        v = rng.standard_gamma(1.0 - self.alpha, size=size)
        # v underflows to 0 now and then for alpha near 1; the draw is then inf
        with np.errstate(divide="ignore", over="ignore"):
            out = (self.c / v) ** self.alpha
        return float(out) if size is None else out

    def _key(self):
        return ("frechet", self.alpha)


def _frechet_tail(c: float, alpha: float, a):
    """int_a^oo (1 - exp(-c u^(-1/alpha))) du via incomplete gamma."""
    with np.errstate(divide="ignore", over="ignore"):
        v = c * a ** (-1.0 / alpha)
        lead = c * a ** ((alpha - 1.0) / alpha) * (alpha / (1.0 - alpha))
    lower = _gammainc(1.0 - alpha, v) * math.gamma(1.0 - alpha)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = v ** (-alpha) * -np.expm1(-v)
    # v = inf (a = 0) and v = 0 (a = inf) both contribute no correction
    corr = np.where(np.isfinite(corr), corr, 0.0)
    # below v = eps the series' leading term c^alpha v^(1 - alpha) alpha /
    # (1 - alpha) is exact to rounding, and stays normal where v goes subnormal
    return np.where(v < _GAMMAINC_EPS, lead, c**alpha * (lower - corr))


#: iteration cap and relative stopping size of the incomplete gamma's series
#: and continued fraction (both converge in well under 100 steps)
_GAMMAINC_STEPS = 300
_GAMMAINC_EPS = np.finfo(float).eps


def _gammainc(s: float, v) -> np.ndarray:
    """Regularized lower incomplete gamma P(s, v) for a shape s in (0, 1],
    elementwise over v >= 0 (Numerical Recipes, section 6.2).

    Below v = s + 1 the series P = v^s e^-v / Gamma(s + 1) sum_n v^n /
    ((s + 1) ... (s + n)) converges quickly; above it P = 1 - Q, with Q
    from the continued fraction of the upper function evaluated by the
    modified Lentz method.  Gamma comes from math.gamma.
    """
    shape = np.shape(v)
    v = np.asarray(v, dtype=float).ravel()
    out = np.where(v > 0.0, 1.0, 0.0)  # v = inf gives 1
    low = (v > 0.0) & (v < s + 1.0)
    high = (v >= s + 1.0) & np.isfinite(v)
    if low.any():
        x = v[low]
        term = np.ones_like(x)
        total = np.ones_like(x)
        for n in range(1, _GAMMAINC_STEPS):
            term *= x / (s + n)
            total += term
            if np.all(term < _GAMMAINC_EPS * total):
                break
        out[low] = x**s * np.exp(-x) / math.gamma(s + 1.0) * total
    if high.any():
        x = v[high]
        tiny = 1e-300
        b = x + 1.0 - s
        c = np.full_like(x, 1.0 / tiny)
        d = 1.0 / b
        h = d.copy()
        for i in range(1, _GAMMAINC_STEPS):
            an = -i * (i - s)
            b = b + 2.0
            d = an * d + b
            d = np.where(np.abs(d) < tiny, tiny, d)
            c = b + an / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            d = 1.0 / d
            delta = d * c
            h *= delta
            if np.all(np.abs(delta - 1.0) < _GAMMAINC_EPS):
                break
        out[high] = 1.0 - x**s * np.exp(-x) / math.gamma(s) * h
    return out.reshape(shape)


class TwoPoint(UnitMeanCdf):
    """Mass e^(-theta) at 0 and mass 1 - e^(-theta) at q = 1/(1 - e^(-theta)).

    The jump distribution of a compound Poisson subordinator with constant
    jump size theta, normalized to unit mean.
    """

    def __init__(self, theta: float):
        theta = float(theta)
        if not (theta > 0.0 and math.isfinite(theta)):
            raise ValueError(f"theta must be positive and finite, got {theta}")
        self.theta = theta
        self.p0 = math.exp(-theta)
        self.q = 1.0 / -math.expm1(-theta)

    def cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        if left:
            out = np.where(x_arr > self.q, 1.0, np.where(x_arr > 0.0, self.p0, 0.0))
        else:
            out = np.where(x_arr >= self.q, 1.0, np.where(x_arr >= 0.0, self.p0, 0.0))
        return _maybe_scalar(out, x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        out = np.where(p_arr <= self.p0, 0.0, self.q)
        return _maybe_scalar(out, p_arr.ndim == 0)

    def tail_integral(self, a):
        a_arr = np.asarray(a, dtype=float)
        out = -math.expm1(-self.theta) * np.clip(self.q - a_arr, 0.0, None)
        return _maybe_scalar(out, a_arr.ndim == 0)

    def power_tail_integral(self, a: float, z: float) -> float:
        return -math.expm1(-z * self.theta) * max(0.0, self.q - a)

    def support_upper(self) -> float:
        return self.q

    def atom_values(self):
        return np.array([0.0, self.q]), np.array([self.p0, -math.expm1(-self.theta)])

    def sample_size_biased(self, rng, size=None):
        # value-weighted masses kill the atom at zero: q * (1 - p0) == 1
        return self.q if size is None else np.full(size, self.q)

    def _key(self):
        return ("two_point", self.theta)


class UnitExponential(UnitMeanCdf):
    """F(x) = 1 - e^(-x)."""

    def cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        return _maybe_scalar(-np.expm1(-np.maximum(x_arr, 0.0)), x_arr.ndim == 0)

    def log_cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                x_arr > 0.5,
                np.log1p(-np.exp(-x_arr)),
                np.log(-np.expm1(-x_arr)),
            )
        return _maybe_scalar(out, x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore"):
            out = -np.log1p(-p_arr)
        return _maybe_scalar(out, p_arr.ndim == 0)

    def tail_integral(self, a):
        a_arr = np.asarray(a, dtype=float)
        return _maybe_scalar(np.exp(-a_arr), a_arr.ndim == 0)

    def power_tail_integral(self, a: float, z: float) -> float:
        if a <= 0.0:
            # int_0^oo (1 - (1-e^-v)^z) dv == digamma(z+1) + gamma
            return _harmonic(z)
        w0 = math.exp(-a)
        # the series' terms sum in absolute value to about (1 + w0)^z, so it
        # is used only while that cancellation costs at most 4 digits
        if w0 <= 0.5 and z * math.log1p(w0) <= _SERIES_GROWTH:
            # int_0^w0 (1 - (1-w)^z) / w dw as an alternating binomial series
            total = 0.0
            coef = -1.0  # (-1)^(k+1) binom(z, k), by the running product
            term_w = w0
            for k in range(1, 200):
                coef *= -(z - k + 1) / k
                term = coef * term_w / k
                total += term
                term_w *= w0
                if abs(term) < 1e-17:
                    break
            return total
        return super().power_tail_integral(a, z)

    def sample_size_biased(self, rng, size=None):
        out = rng.gamma(2.0, size=size)
        return float(out) if size is None else out

    def _key(self):
        return ("unit_exponential",)


#: Bernoulli terms B_2k / 2k of the asymptotic series of digamma, k = 1..6
_DIGAMMA_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
                   1.0 / 132.0, -691.0 / 32760.0)


def _harmonic(z: float) -> float:
    """digamma(1 + z) + Euler's gamma for z >= 0, to a few units in the
    last place relative.

    The recurrence digamma(x) = digamma(x + 1) - 1/x, applied from 1 + z
    and from 1 up to 12 + z and 12, gives

        digamma(1 + z) - digamma(1) = sum_{k=1}^{11} z / (k (k + z))
                                      + digamma(12 + z) - digamma(12).

    The last difference comes from the asymptotic series log x - 1/(2x) -
    sum B_2k / (2k x^2k) through B_12 (the next term is below 1e-16 at 12),
    each term's difference taken from log1p and expm1, so that no step
    cancels; fsum adds the terms with one rounding.
    """
    r = math.log1p(z / 12.0)
    terms = [z / (k * (k + z)) for k in range(1, 12)]
    terms += [r, z / (24.0 * (12.0 + z))]
    terms += [-coef * 12.0 ** (-2 * k) * math.expm1(-2 * k * r)
              for k, coef in enumerate(_DIGAMMA_SERIES, 1)]
    return math.fsum(terms)


class _DiscreteBase(Cdf):
    """Shared machinery for finitely supported distributions."""

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        if len(atoms) == 0:
            raise ValueError("atoms must be non-empty")
        values = np.asarray([a[0] for a in atoms], dtype=float)
        weights = np.asarray([a[1] for a in atoms], dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("atom values must be finite and non-negative")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("atom weights must be finite and positive")
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        # merge duplicate locations, then normalize the weights
        uniq, inverse = np.unique(values, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inverse, weights)
        self.values = uniq
        self.weights = merged / merged.sum()
        self.cum = np.cumsum(self.weights)
        self.cum[-1] = 1.0

    def cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        side = "left" if left else "right"
        idx = np.searchsorted(self.values, x_arr, side=side)
        padded = np.concatenate([[0.0], self.cum])
        return _maybe_scalar(padded[idx], x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        idx = np.searchsorted(self.cum, p_arr, side="left")
        idx = np.minimum(idx, len(self.values) - 1)
        return _maybe_scalar(self.values[idx], p_arr.ndim == 0)

    def tail_integral(self, a):
        a_arr = np.asarray(a, dtype=float)
        gaps = np.clip(self.values - a_arr[..., None], 0.0, None)
        return _maybe_scalar(gaps @ self.weights, a_arr.ndim == 0)

    def power_tail_integral(self, a: float, z: float) -> float:
        lo = np.concatenate([[0.0], self.values[:-1]])
        hi = self.values
        levels = np.concatenate([[0.0], self.cum[:-1]])
        lengths = np.clip(hi - np.maximum(a, lo), 0.0, None)
        return float(lengths @ (1.0 - levels**z))

    def support_lower(self) -> float:
        return float(self.values[0])

    def support_upper(self) -> float:
        return float(self.values[-1])

    def atom_values(self):
        return self.values, self.weights

    def sample_size_biased(self, rng, size=None):
        probs = self.values * self.weights
        cum = np.cumsum(probs / probs.sum())
        u = rng.random() if size is None else rng.random(size)
        idx = np.minimum(np.searchsorted(cum, u, side="left"), len(cum) - 1)
        out = self.values[idx]
        return float(out) if size is None else out

    def _key(self):
        return (
            "discrete",
            tuple(self.values.tolist()),
            tuple(self.weights.tolist()),
        )

    def __repr__(self):
        atoms = list(zip(self.values.tolist(), self.weights.tolist()))
        return f"{type(self).__name__}({atoms!r})"


class DiscreteCdf(_DiscreteBase):
    """Finitely supported distribution with arbitrary (finite, positive) mean."""

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        super().__init__(atoms)
        if float(self.values @ self.weights) <= 0.0:
            raise ValueError("distribution must have positive mean")


class Discrete(_DiscreteBase, UnitMeanCdf):
    """Finitely supported distribution constrained to unit mean.

    Weights are normalized; the mean is checked, not silently rescaled
    (use :func:`rescale_to_unit_mean` for intentional rescaling).
    """

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        super().__init__(atoms)
        m = float(self.values @ self.weights)
        if abs(m - 1.0) > UNIT_MEAN_TOL:
            raise ValueError(f"atoms have mean {m!r}, expected 1 within {UNIT_MEAN_TOL}")


class Dirac1(Discrete):
    """Point mass at 1: the comonotone atom."""

    def __init__(self):
        super().__init__([(1.0, 1.0)])

    def sample_size_biased(self, rng, size=None):
        # the atom itself, drawing no randomness
        return 1.0 if size is None else np.ones(size)

    def _key(self):
        return ("dirac1",)

    __repr__ = Cdf.__repr__


class PointMass(DiscreteCdf):
    """Point mass at an arbitrary positive location (finite-mean descriptor)."""

    def __init__(self, location: float):
        location = float(location)
        if not (location > 0.0 and math.isfinite(location)):
            raise ValueError(f"location must be positive and finite, got {location}")
        super().__init__([(location, 1.0)])
        self.location = location

    def _key(self):
        return ("point_mass", self.location)

    __repr__ = Cdf.__repr__


class Tilted(UnitMeanCdf):
    """The power-tilted family F_z(x) = F(x * psi)^z with psi = int_0^oo (1 - F^z).

    The normalizing constant makes F_z unit-mean for every z > 0.  Prefer the
    :func:`tilt` factory, which collapses to exact closed forms where they
    exist and only falls back to this generic wrapper.
    """

    def __init__(self, base: UnitMeanCdf, z: float):
        z = float(z)
        if not (z > 0.0 and math.isfinite(z)):
            raise ValueError(f"z must be positive and finite, got {z}")
        if not isinstance(base, UnitMeanCdf):
            raise ValueError("base must be a unit-mean family")
        self.base = base
        self.z = z
        self.psi = float(base.power_tail_integral(0.0, z))

    def cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        out = np.asarray(self.base.cdf(x_arr * self.psi, left=left)) ** self.z
        return _maybe_scalar(out, x_arr.ndim == 0)

    def log_cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        out = self.z * np.asarray(self.base.log_cdf(x_arr * self.psi, left=left))
        return _maybe_scalar(out, x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        out = np.asarray(self.base.quantile(p_arr ** (1.0 / self.z))) / self.psi
        return _maybe_scalar(out, p_arr.ndim == 0)

    def power_tail_integral(self, a: float, z: float) -> float:
        return self.base.power_tail_integral(a * self.psi, self.z * z) / self.psi

    def support_lower(self) -> float:
        return self.base.support_lower() / self.psi

    def support_upper(self) -> float:
        return self.base.support_upper() / self.psi

    def tail_index(self) -> float:
        # 1 - F(x)^z ~ z (1 - F(x))
        return self.base.tail_index()

    def atom_values(self):
        base_atoms = self.base.atom_values()
        if base_atoms is None:
            return None
        values, _ = base_atoms
        cum = np.asarray(self.base.cdf(values)) ** self.z
        weights = np.diff(np.concatenate([[0.0], cum]))
        return values / self.psi, weights

    def _key(self):
        return ("tilted", self.base._key(), self.z)


class _Scaled(Cdf):
    """F(x) = G(x * scale) for a base G and a positive scale."""

    def __init__(self, base: Cdf, scale: float):
        self.base = base
        self.scale = scale

    def cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        out = np.asarray(self.base.cdf(x_arr * self.scale, left=left))
        return _maybe_scalar(out, x_arr.ndim == 0)

    def log_cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        out = np.asarray(self.base.log_cdf(x_arr * self.scale, left=left))
        return _maybe_scalar(out, x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        out = np.asarray(self.base.quantile(p_arr)) / self.scale
        return _maybe_scalar(out, p_arr.ndim == 0)

    def tail_integral(self, a):
        a_arr = np.asarray(a, dtype=float)
        out = np.asarray(self.base.tail_integral(a_arr * self.scale)) / self.scale
        return _maybe_scalar(out, a_arr.ndim == 0)

    def power_tail_integral(self, a: float, z: float) -> float:
        return self.base.power_tail_integral(a * self.scale, z) / self.scale

    def support_lower(self) -> float:
        return self.base.support_lower() / self.scale

    def support_upper(self) -> float:
        return self.base.support_upper() / self.scale

    def tail_index(self) -> float:
        return self.base.tail_index()

    def atom_values(self):
        base_atoms = self.base.atom_values()
        if base_atoms is None:
            return None
        values, weights = base_atoms
        return values / self.scale, weights

    def sample_size_biased(self, rng, size=None):
        return self.base.sample_size_biased(rng, size) / self.scale


class Rescaled(_Scaled, UnitMeanCdf):
    """F(t) = G(M t) for a finite-mean base G with mean M: time-rescaling to unit mean."""

    def __init__(self, base: Cdf):
        m = base.mean()
        if not (0.0 < m < math.inf):
            raise ValueError(f"base mean must be finite and positive, got {m!r}")
        super().__init__(base, m)

    def _key(self):
        return ("rescaled", self.base._key())


class Exponential(_Scaled):
    """Exponential distribution with arbitrary positive mean (finite-mean descriptor)."""

    def __init__(self, mean: float):
        mean = float(mean)
        if not (mean > 0.0 and math.isfinite(mean)):
            raise ValueError(f"mean must be positive and finite, got {mean}")
        super().__init__(UnitExponential(), 1.0 / mean)
        self.mean_value = mean

    def _key(self):
        return ("exponential", self.mean_value)


def tilt(F: UnitMeanCdf, z: float) -> UnitMeanCdf:
    """Return the power-tilted family F_z(x) = F(x psi)^z, again unit-mean.

    Exact closed forms: the point mass and the Frechet family are fixed
    points, a two-point family maps to TwoPoint(z * theta), and discrete
    families stay discrete.  Repeated tilts collapse multiplicatively.
    """
    z = float(z)
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"z must be positive and finite, got {z}")
    if z == 1.0:
        return F
    if isinstance(F, (Dirac1, Frechet)):
        return F
    if isinstance(F, TwoPoint):
        return TwoPoint(z * F.theta)
    if isinstance(F, Discrete):
        psi = F.power_tail_integral(0.0, z)
        cum = F.cum**z
        weights = np.diff(np.concatenate([[0.0], cum]))
        return Discrete(list(zip((F.values / psi).tolist(), weights.tolist())))
    if isinstance(F, Tilted):
        return tilt(F.base, F.z * z)
    return Tilted(F, z)


def rescale_to_unit_mean(G: Cdf) -> UnitMeanCdf:
    """Map a finite-mean cdf G to F(t) = G(M_G t), which has unit mean.

    Recognizes bases with exact images: point masses become :class:`Dirac1`,
    exponentials become :class:`UnitExponential` and discrete laws stay
    discrete with rescaled atom locations.
    """
    if isinstance(G, UnitMeanCdf):
        return G
    if isinstance(G, PointMass):
        return Dirac1()
    if isinstance(G, Exponential):
        return UnitExponential()
    if isinstance(G, _DiscreteBase):
        m = float(G.values @ G.weights)
        if m <= 0.0:
            raise ValueError("base mean must be positive")
        return Discrete(list(zip((G.values / m).tolist(), G.weights.tolist())))
    return Rescaled(G)
