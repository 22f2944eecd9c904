"""Reference values for the benchmark's correctness checks.

Nothing here calls maxstable.  The spec JSON documents are read directly and
every stable tail dependence function is computed from its definition

    l_F(t) = int_0^oo (1 - prod_k F(s / t_k)) ds

by a method of its own: the logistic formula for Frechet families, exact
sums over the constant pieces for atomic families, inclusion-exclusion for
the unit exponential, and a finite-interval scipy integration for the
tilted exponential.  Mixtures combine them as
l(t) = b sum_k t_k + c sum_i w_i l_{F_i}(t), with c = 1 - b for a canonical
pair and c given explicitly for a triplet.
"""

from __future__ import annotations

import math
from itertools import combinations

from scipy import integrate


def logistic(t, alpha: float) -> float:
    """(sum_k t_k^(1/alpha))^alpha: the Frechet(alpha) family."""
    return math.fsum(x ** (1.0 / alpha) for x in t) ** alpha


def atomic(t, atoms) -> float:
    """l(t) for F(x) = sum_{v <= x} w over atoms [(v, w)], weights summing to 1.

    The integrand is constant between consecutive products v * t_k; each
    piece is valued at its midpoint, where no product rounds across a jump.
    """
    t = [x for x in t if x > 0.0]
    knots = sorted({v * x for v, _ in atoms if v > 0.0 for x in t})
    total = []
    prev = 0.0
    for knot in knots:
        mid = 0.5 * (prev + knot)
        prod = 1.0
        for x in t:
            prod *= math.fsum(w for v, w in atoms if v <= mid / x)
        total.append((knot - prev) * (1.0 - prod))
        prev = knot
    return math.fsum(total)


def iid_exponential(t) -> float:
    """Inclusion-exclusion over non-empty subsets: the unit exponential family."""
    rates = [1.0 / x for x in t if x > 0.0]
    terms = []
    for k in range(1, len(rates) + 1):
        sign = 1.0 if k % 2 else -1.0
        terms.extend(sign / math.fsum(sub) for sub in combinations(rates, k))
    return math.fsum(terms)


def _log1mexp(x: float) -> float:
    """log(1 - e^(-x)) for x > 0 without cancellation."""
    return math.log(-math.expm1(-x)) if x < 0.693 else math.log1p(-math.exp(-x))


class TiltedExponential:
    """F(x) = (1 - e^(-psi x))^z, the unit-mean tilt of the unit exponential."""

    def __init__(self, z: float):
        self.z = z
        # psi = int_0^oo (1 - (1 - e^(-v))^z) dv makes the mean one
        self.psi = _integrate(lambda v: -math.expm1(z * _log1mexp(v)) if v > 0 else 1.0,
                              1.0)
        self._cache: dict = {}

    def __call__(self, t) -> float:
        t = tuple(float(x) for x in t if x > 0.0)
        if t not in self._cache:
            rates = [self.psi / x for x in t]

            def g(s: float) -> float:
                if s <= 0.0:
                    return 1.0
                return -math.expm1(self.z * math.fsum(_log1mexp(r * s) for r in rates))

            self._cache[t] = _integrate(g, max(t))
        return self._cache[t]


def _integrate(g, scale: float) -> float:
    # g <= z d e^(-psi s / scale) beyond the last piece is far below 1e-17
    edges = [0.0, 0.25, 1.0, 3.0, 8.0, 50.0]
    parts = [
        integrate.quad(g, scale * lo, scale * hi, epsabs=1e-14, epsrel=1e-13,
                       limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    return math.fsum(parts)


_TILTED: dict = {}


def family(obj: dict):
    """l_F as a function of t for one family fragment of a spec."""
    name = obj["family"]
    if name == "dirac1":
        return lambda t: max(t)
    if name == "frechet":
        alpha = float(obj["alpha"])
        return lambda t: logistic(t, alpha)
    if name == "two_point":
        theta = float(obj["theta"])
        p0 = math.exp(-theta)
        atoms = [(0.0, p0), (1.0 / -math.expm1(-theta), -math.expm1(-theta))]
        return lambda t: atomic(t, atoms)
    if name == "unit_exponential":
        return iid_exponential
    if name == "discrete":
        raw = [(float(v), float(w)) for v, w in obj["atoms"]]
        total = math.fsum(w for _, w in raw)
        atoms = [(v, w / total) for v, w in raw]
        return lambda t: atomic(t, atoms)
    if name == "tilted" and obj["base"]["family"] == "unit_exponential":
        z = float(obj["z"])
        if z not in _TILTED:
            _TILTED[z] = TiltedExponential(z)
        return _TILTED[z]
    raise NotImplementedError(f"no reference for family fragment {obj!r}")


def mixture(b: float, c: float, mu, t) -> float:
    """b sum_k t_k + c sum_i w_i l_{F_i}(t)."""
    t = [float(x) for x in t]
    mix = math.fsum(float(item.get("weight", 1.0)) * family(item)(t) for item in mu)
    return b * math.fsum(t) + c * mix


def model(spec: dict, t) -> float:
    """l(t) of a canonical-pair spec {"b": ..., "mu": [...]}."""
    b = float(spec["b"])
    if b == 1.0:
        return math.fsum(float(x) for x in t)
    return mixture(b, 1.0 - b, spec["mu"], t)


def triplet(spec: dict, t) -> float:
    """l(t) of a normalized triplet spec {"b": ..., "c": ..., "mu": [...]}."""
    return mixture(float(spec["b"]), float(spec["c"]), spec["mu"], t)


def stable(l, alpha: float, t) -> float:
    """Stable transform l(t^(1/alpha))^alpha of an evaluator l."""
    return l([x ** (1.0 / alpha) for x in t]) ** alpha


def inclusion_exclusion(l, t) -> float:
    """sum over non-empty subsets S of (-1)^(|S|+1) / l(1 / t_S)."""
    inv = [1.0 / x for x in t if x > 0.0]
    terms = []
    for k in range(1, len(inv) + 1):
        sign = 1.0 if k % 2 else -1.0
        terms.extend(sign / l(list(sub)) for sub in combinations(inv, k))
    return math.fsum(terms)


def drift(l, n_max: int) -> float:
    """l(1_{n+1}) - l(1_n) at n = n_max, clamped to [0, 1]."""
    return min(1.0, max(0.0, l([1.0] * (n_max + 1)) - l([1.0] * n_max)))
