"""Distribution functions of non-negative random variables with unit mean.

These families are the extremal building blocks of the library: every model
mixes them, every evaluator integrates against them and every sampler draws
from them.  A family states F once, by ``log_cdf``; ``Cdf`` derives the rest
of the surface each family exposes:

* ``log_cdf(x, left=...)`` -- log F(x), or of the left limit F(x-) for atomic
  families; -oo below 0,
* ``cdf(x, left=...)``  -- F(x) = exp(log F(x)),
* ``tail_integral(a)``  -- int_a^oo (1 - F(u)) du  (equals 1 at a = 0),
* ``power_tail_integral(a, z)`` -- int_a^oo (1 - F(u)^z) du,
* ``quantile(p)``       -- generalized inverse inf{x : F(x) >= p},
* ``sample(rng)``       -- inverse-transform sampling,
* ``sample_size_biased(rng)`` -- draw from t -> int_0^t s dF(s).

Closed forms live in ``_product_tail``: int_a^oo (1 - prod_k F(s/t_k)^p_k) ds,
behind the tail integrals and l_F(t), summed exactly for atomic laws.  The
fallbacks are Gauss-Kronrod quadrature (``_quad.tail_quad``, tail map from
``tail_index()``) and a table of the size-biased cdf, cached by the first
draw, whose inverse serves every u in (0, 1].  Objects are otherwise
immutable and safe to share across threads.

Each law has one implementation.  Point masses are one-atom discrete laws
(Dirac1 a Discrete, PointMass a DiscreteCdf), TwoPoint is the two-atom
Discrete law with log F = -theta exact, every atomic law draws size-biased
values from its masses v w, kept at construction, and the scale wrapper
F(x) = G(x * scale) serves both Rescaled (scale = mean of G) and
Exponential (scale = 1 / mean over UnitExponential).

Only numpy is needed: the Frechet tail integrals use the incomplete gamma
function of _gammainc, and Tilted's normalizing constant for a
UnitExponential base is digamma(z+1) + gamma from _harmonic.
"""

from __future__ import annotations

import functools
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
#: subset enumeration cap for inclusion-exclusion sums
INCLUSION_EXCLUSION_MAX_DIM = 20


def _maybe_scalar(arr, scalar_in):
    if scalar_in:
        return float(arr)
    return arr


class Cdf:
    """Distribution function of a non-negative random variable with finite positive mean."""

    def cdf(self, x, left: bool = False):
        """Evaluate F(x) = exp(log F(x)); with ``left=True`` the left limit
        F(x-) instead."""
        if type(self).log_cdf is Cdf.log_cdf:
            raise NotImplementedError(f"{type(self).__name__} defines no cdf or log_cdf")
        return _maybe_scalar(np.exp(self.log_cdf(x, left=left)), np.ndim(x) == 0)

    def log_cdf(self, x, left: bool = False):
        """log F(x), -oo below 0, with full relative precision where F is close
        to one.  Families define this; a subclass that defines cdf instead
        gets log(cdf)."""
        with np.errstate(divide="ignore"):
            return np.log(self.cdf(x, left=left))

    def quantile(self, p):
        """Generalized inverse inf{x : F(x) >= p}; p = 0 maps to the support infimum."""
        raise NotImplementedError

    def tail_integral(self, a):
        """int_a^oo (1 - F(u)) du, elementwise over ``a``."""
        a_arr = np.asarray(a, dtype=float)
        if a_arr.ndim == 0:
            return self.power_tail_integral(float(a_arr), 1.0)
        out = np.array([self.power_tail_integral(v, 1.0) for v in a_arr.ravel()])
        return out.reshape(a_arr.shape)

    def power_tail_integral(self, a: float, z: float) -> float:
        """int_a^oo (1 - F(u)^z) du for z > 0."""
        return self._product_tail(a, np.ones(1), np.array([float(z)]), 1e-10)

    def _product_tail(self, a: float, t, powers, abs_tol: float) -> float:
        """int_a^oo (1 - prod_k F(s / t_k)^powers_k) ds for a >= 0, powers > 0
        and max t = 1 (l_F(t) at a = 0 and unit powers): exact for atomic laws,
        else to absolute tolerance ``abs_tol``.  Closed forms override it."""
        steps = self._atom_steps()
        if steps is None:
            return self._product_tail_quad(a, t, powers, abs_tol)
        # factor k steps up at s = v t_k, for each atom v, by powers_k times
        # the jump of log F at v; on the piece ending at a step, log prod_k F
        # is minus the sum of the steps still to come
        values, jumps = steps
        at = (values[:, None] * t).ravel()
        order = at.argsort(kind="stable")
        to_come = _suffix_sums((jumps[:, None] * powers).ravel()[order])
        edges = np.concatenate(([a], np.maximum(at[order], a)))
        # minus the widths times e^-to_come - 1: the same products, signs moved
        return float((edges[:-1] - edges[1:]) @ np.expm1(-to_come))

    def _product_tail_quad(self, a: float, t, powers, abs_tol: float) -> float:
        """The integral of _product_tail by tail_quad, for any family."""
        t, inverse = np.unique(t, return_inverse=True)
        powers = np.bincount(inverse.ravel(), weights=powers)

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

    def _power_law(self):
        """alpha if -log F(x) = C x^(-1/alpha) on all of x > 0, else None."""
        return None

    def atom_values(self):
        """(values, weights) for purely atomic families, else None."""
        return None

    def _atom_steps(self):
        """(values, jumps) for purely atomic families, else None: the atoms
        and the jumps of log F at them (+oo at the first, from F(v-) = 0).
        Families that know their atoms keep these from construction."""
        atoms = self.atom_values()
        if atoms is None:
            return None
        return atoms[0], _log_jumps(np.asarray(self.log_cdf(atoms[0])))

    def sample(self, rng, size=None):
        """Inverse-transform sample(s) from F."""
        u = rng.random() if size is None else rng.random(size)
        return self.quantile(u)

    def sample_size_biased(self, rng, size=None):
        """Sample from the size-biased distribution t -> int_0^t s dF(s) / mean.

        Inverts the size-biased cdf by a table that the first draw builds
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


def _log_jumps(logs: np.ndarray) -> np.ndarray:
    """Jumps of log F at the atoms, given log F there; +oo at the first."""
    return logs - np.concatenate(([-np.inf], logs[:-1]))


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """sum(x[i:]) for each i, accumulated in rows of about sqrt(n) entries
    so that rounding grows with sqrt(n) rather than n."""
    n = x.size
    width = max(math.isqrt(n), 1)
    rows = np.zeros(n + -n % width)
    rows[:n] = x[::-1]
    rows = rows.reshape(-1, width)
    rows.cumsum(axis=1, out=rows)
    rows[1:] += rows[:-1, -1].cumsum()[:, None]
    return rows.ravel()[n - 1::-1]


#: geometric nodes of a size-biased table up to its 1 - 1e-15 quantile
_TABLE_NODES = 1000
#: past them the nodes go on at the same ratio up to the first t with
#: t (1 - F(t)) at most _TABLE_TAIL times the mean, but not past _TABLE_CAP
_TABLE_TAIL = 1e-17
_TABLE_CAP = 1e300
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
    quantile rounds to inf), at the nodes of _grow past them and at the
    atoms, by one 5-point Gauss-Legendre panel per interval; atoms are
    nodes because the rule is wrong across a jump.  A value u is placed
    between two nodes by searchsorted, and an Illinois secant solves G(t) =
    u between them, with C(t) from a Gauss-Legendre panel over [node, t];
    the secant keeps the upper end, so u in the jump of G at an atom
    returns the atom.  A value above G at the last node returns that node
    where the tail is negligible there, else inf, as Frechet's own sampler
    does: 1 - G(1e300) is 9e-4 for Tilted(Frechet(0.99), 2).
    """

    def __init__(self, F: Cdf):
        self.F = F
        self.mean = F.mean()
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
        # a law with all but 1e-15 of its mass near one point, lo ~ hi, still
        # grows its nodes by e^(1 / 999) at least
        step = max(math.log(hi) - math.log(lo), 1.0) / (_TABLE_NODES - 1)
        grown, self.beyond = self._grow(hi, step)
        nodes = [[0.0], np.geomspace(lo, hi, _TABLE_NODES), grown]
        atoms = F.atom_values()
        if atoms is not None:
            nodes.append(atoms[0][(atoms[0] > 0.0) & (atoms[0] <= self.beyond)])
        self.nodes = np.unique(np.concatenate(nodes))
        panels = self._panel(self.nodes[:-1], self.nodes[1:])
        # past hi, where a heavy tail has thousands of nodes, the panels are
        # summed in rows so that rounding does not grow with their number
        head = np.cumsum(panels[:np.searchsorted(self.nodes, hi)])
        tail = _suffix_sums(panels[head.size:][::-1])[::-1]
        self.c = np.concatenate([[0.0], head, head[-1] + tail])
        # rounding must not unsort the nodes' values for searchsorted
        self.g = np.maximum.accumulate(self._g(self.nodes, self.c))

    def _grow(self, hi, step):
        """The nodes hi e^(k step), k = 1, 2, ..., up to the first t, hi
        included, with t (1 - F(t)) at most _TABLE_TAIL times the mean, and
        t, which a value above G there returns; or, if none comes first, up
        to the support's top or _TABLE_CAP, and inf.  The tried nodes
        double, so a light tail costs one small block."""
        top = min(self.F.support_upper(), _TABLE_CAP)
        span = math.log(top) - math.log(hi)
        count = 32
        while True:
            # nodes from span on are top itself, so nothing overflows
            exponent = step * np.arange(count)
            t = np.where(exponent < span, hi * np.exp(np.minimum(exponent, span)), top)
            small = t * -np.expm1(self.F.log_cdf(t)) <= _TABLE_TAIL * self.mean
            if small.any():
                return t[1:small.argmax() + 1], float(t[small.argmax()])
            if t[-1] >= top:
                return t[1:np.searchsorted(t, top) + 1], math.inf
            count *= 2

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
        out = np.full(u.size, self.beyond)
        i = np.searchsorted(self.g, u, side="left")  # g[i - 1] < u <= g[i]
        inside = i < self.nodes.size
        out[inside] = self._secant(u[inside], i[inside])
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

    def log_cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = -self.c * np.maximum(x_arr, 0.0) ** (-1.0 / self.alpha)
        out = np.where(x_arr <= 0.0, -np.inf, out)  # -0 can come out as +oo
        return _maybe_scalar(out, x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        # 0 - log p, not -log p: at p = 1 that is +0, so the quantile is +inf
        with np.errstate(divide="ignore"):
            out = np.where(
                p_arr <= 0.0, 0.0, (self.c / (0.0 - np.log(p_arr))) ** self.alpha
            )
        return _maybe_scalar(out, p_arr.ndim == 0)

    def _product_tail(self, a: float, t, powers, abs_tol: float) -> float:
        # the product is F's shape with c sum_k p_k t_k^(1/alpha): logistic from 0
        weight = (powers * t ** (1.0 / self.alpha)).sum()
        if a == 0.0:
            return float(weight ** self.alpha)
        return float(_frechet_tail(weight * self.c, self.alpha, np.asarray(a, dtype=float)))

    def tail_index(self) -> float:
        return 1.0 / self.alpha

    def _power_law(self):
        return self.alpha

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


class UnitExponential(UnitMeanCdf):
    """F(x) = 1 - e^(-x)."""

    def log_cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        v = np.maximum(x_arr, 0.0)  # F = 0 below 0: log(-expm1(-0)) = -oo
        with np.errstate(divide="ignore"):
            out = np.where(v > 0.5, np.log1p(-np.exp(-v)), np.log(-np.expm1(-v)))
        return _maybe_scalar(out, x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore"):
            out = -np.log1p(-p_arr)
        return _maybe_scalar(out, p_arr.ndim == 0)

    def _product_tail(self, a: float, t, powers, abs_tol: float) -> float:
        if a == 0.0 and t.size <= INCLUSION_EXCLUSION_MAX_DIM and (powers == 1.0).all():
            # inclusion-exclusion, sum_S (-1)^(|S|+1) / sum_{k in S} 1/t_k over
            # subsets S; first, as the harmonic number gives l(1) = 1 - 1 ulp.
            # Subset i (bit k for t_k) has its sum at sums[i], the sums of
            # the subsets with top bit k filled from those without it
            sums = np.empty(1 << t.size)
            sums[0] = 0.0
            k = 1
            for r in 1.0 / t:
                np.add(sums[:k], r, out=sums[k:2 * k])
                k *= 2
            return float(np.sum(_subset_signs(t.size) / sums[1:]))
        if t.size > 1:
            return super()._product_tail(a, t, powers, abs_tol)
        z = float(powers[0])  # and t = (1,)
        if a <= 0.0:
            # int_0^oo (1 - (1-e^-v)^z) dv == digamma(z+1) + gamma
            return _harmonic(z)
        w0 = math.exp(-a)
        # the series' terms sum in absolute value to about (1 + w0)^z, so it
        # is used only while that cancellation costs at most 4 digits, and
        # above w0 = 1/2 only where it ends, at k = z + 1 for an integer z
        if ((w0 <= 0.5 or z.is_integer())
                and z * math.log1p(w0) <= _SERIES_GROWTH):
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
        return super()._product_tail(a, t, powers, abs_tol)

    def sample_size_biased(self, rng, size=None):
        out = rng.gamma(2.0, size=size)
        return float(out) if size is None else out

    def _key(self):
        return ("unit_exponential",)


@functools.lru_cache(maxsize=None)
def _subset_signs(d: int) -> np.ndarray:
    """(-1)^(|S|+1) for the non-empty subsets S of d elements, in the order
    of UnitExponential's inclusion-exclusion sums (subset i has bit k for
    element k); read-only, as it is shared."""
    signs = np.empty(1 << d)
    signs[0] = -1.0
    k = 1
    for _ in range(d):
        np.negative(signs[:k], out=signs[k:2 * k])
        k *= 2
    signs = signs[1:]
    signs.flags.writeable = False
    return signs


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
        weights = merged / merged.sum()
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        # log F at the atoms: log1p of minus the weight above where F > 1/2,
        # so that a tiny top weight keeps its relative precision, and log(cum)
        # below, where log1p(-above) would lose that of a tiny bottom weight
        above = np.concatenate([np.cumsum(weights[:0:-1])[::-1], [0.0]])
        with np.errstate(divide="ignore"):
            log_cum = np.log(cum)
        # log1p only where F > 1/2: above a light bottom atom the sum can round past 1
        upper = cum > 0.5
        log_cum[upper] = np.log1p(-above[upper])
        log_cum[-1] = 0.0
        self._tabulate(uniq, weights, cum, log_cum)

    def _tabulate(self, values, weights, cum, log_levels):
        """Keep the sorted atoms, their weights, F and log F at them, and the
        tables that log_cdf and _atom_steps read."""
        self.values, self.weights, self.cum = values, weights, cum
        self._cum_levels = np.concatenate([[0.0], cum])
        self._log_levels = np.concatenate([[-np.inf], log_levels])
        self._steps = (values, _log_jumps(log_levels))
        # the size-biased law: masses v w / sum v w, one positive at least
        biased = values * weights
        self._biased_cum = np.cumsum(biased / biased.sum())
        positive = values[biased > 0.0]
        self._biased_atom = float(positive[0]) if positive.size == 1 else None

    def cdf(self, x, left: bool = False):
        # cum itself: exp(log F) is a relative |log F| eps off where F is small
        return self._level(self._cum_levels, x, left)

    def log_cdf(self, x, left: bool = False):
        return self._level(self._log_levels, x, left)

    def _level(self, levels, x, left):
        # level j + 1 on [values[j], values[j + 1]), shifted to the right end
        # for the left limit; levels[0] under the first atom
        x_arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.values, x_arr, side="left" if left else "right")
        return _maybe_scalar(levels[idx], x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        idx = np.searchsorted(self.cum, p_arr, side="left")
        idx = np.minimum(idx, len(self.values) - 1)
        return _maybe_scalar(self.values[idx], p_arr.ndim == 0)

    def tail_integral(self, a):
        a_arr = np.asarray(a, dtype=float)
        gaps = np.clip(self.values - a_arr[..., None], 0.0, None)
        return _maybe_scalar(gaps @ self.weights, a_arr.ndim == 0)

    def support_lower(self) -> float:
        return float(self.values[0])

    def support_upper(self) -> float:
        return float(self.values[-1])

    def atom_values(self):
        return self.values, self.weights

    def _atom_steps(self):
        return self._steps

    def sample_size_biased(self, rng, size=None):
        if self._biased_atom is not None:
            # the one atom with positive v w, drawing no randomness
            atom = self._biased_atom
            return atom if size is None else np.full(size, atom)
        u = rng.random() if size is None else rng.random(size)
        cum = self._biased_cum
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

    def _product_tail(self, a: float, t, powers, abs_tol: float) -> float:
        # every factor is 0 below s = t_k and 1 from there on
        return max(0.0, float(t.max()) - a)

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


class TwoPoint(Discrete):
    """Mass e^(-theta) at 0 and mass 1 - e^(-theta) at q = 1/(1 - e^(-theta)).

    The jump distribution of a compound Poisson subordinator with constant
    jump size theta, normalized to unit mean.  The table is built from
    theta, so log F = -theta exactly on [0, q), also where e^(-theta)
    underflows.
    """

    def __init__(self, theta: float):
        theta = float(theta)
        if not (theta > 0.0 and math.isfinite(theta)):
            raise ValueError(f"theta must be positive and finite, got {theta}")
        self.theta = theta
        self.p0 = math.exp(-theta)
        top = -math.expm1(-theta)
        self.q = 1.0 / top
        self._tabulate(np.array([0.0, self.q]), np.array([self.p0, top]),
                       np.array([self.p0, 1.0]), np.array([-theta, 0.0]))

    def quantile(self, p):
        # one comparison, not a searchsorted over the two atoms
        p_arr = np.asarray(p, dtype=float)
        out = np.where(p_arr <= self.p0, 0.0, self.q)
        return _maybe_scalar(out, p_arr.ndim == 0)

    def _key(self):
        return ("two_point", self.theta)

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

    def log_cdf(self, x, left: bool = False):
        x_arr = np.asarray(x, dtype=float)
        out = self.z * np.asarray(self.base.log_cdf(x_arr * self.psi, left=left))
        return _maybe_scalar(out, x_arr.ndim == 0)

    def quantile(self, p):
        p_arr = np.asarray(p, dtype=float)
        out = np.asarray(self.base.quantile(p_arr ** (1.0 / self.z))) / self.psi
        return _maybe_scalar(out, p_arr.ndim == 0)

    def _product_tail(self, a: float, t, powers, abs_tol: float) -> float:
        # s = u / psi turns prod_k F_z(s/t_k)^p_k into prod_k G(u/t_k)^(z p_k)
        return self.base._product_tail(a * self.psi, t, self.z * powers,
                                       abs_tol * self.psi) / self.psi

    def support_lower(self) -> float:
        return self.base.support_lower() / self.psi

    def support_upper(self) -> float:
        return self.base.support_upper() / self.psi

    def tail_index(self) -> float:
        # 1 - F(x)^z ~ z (1 - F(x))
        return self.base.tail_index()

    def _power_law(self):
        return self.base._power_law()

    def atom_values(self):
        atoms = self.base.atom_values()
        if atoms is None:
            return None
        # F_j^z - F_(j-1)^z = F_j^z (1 - e^(-z J_j)) with J = log1p(w_j /
        # F_(j-1)) the jumps of log F: no difference cancels, so a weight far
        # below the mass around it keeps its digits.  F_j^z is a power of F_j
        # up to 1/2 and e^(z log F_j) above, each exact to rounding there
        values, weights = atoms
        cum = np.cumsum(weights)
        # a bottom weight that underflowed to 0 gives the jump log1p(oo) = oo
        with np.errstate(divide="ignore"):
            jumps = np.concatenate([[np.inf], np.log1p(weights[1:] / cum[:-1])])
        powers = np.where(cum <= 0.5, cum ** self.z,
                          np.exp(self.z * np.asarray(self.base.log_cdf(values))))
        return values / self.psi, powers * -np.expm1(-self.z * jumps)

    def _key(self):
        return ("tilted", self.base._key(), self.z)


class _Scaled(Cdf):
    """F(x) = G(x * scale) for a base G and a positive scale."""

    def __init__(self, base: Cdf, scale: float):
        self.base = base
        self.scale = scale

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

    def _product_tail(self, a: float, t, powers, abs_tol: float) -> float:
        return self.base._product_tail(a * self.scale, t, powers,
                                       abs_tol * self.scale) / self.scale

    def support_lower(self) -> float:
        return self.base.support_lower() / self.scale

    def support_upper(self) -> float:
        return self.base.support_upper() / self.scale

    def tail_index(self) -> float:
        return self.base.tail_index()

    def _power_law(self):
        return self.base._power_law()

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
        values, weights = Tilted(F, z).atom_values()
        return Discrete(list(zip(values.tolist(), weights.tolist())))
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
