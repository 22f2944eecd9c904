"""Stable tail dependence functions, extreme-value copulas and transforms.

The central objects are evaluators l(t) on finite non-negative weight
vectors, normalized to l(1,0,...) = 1 and satisfying

    max_k t_k  <=  l(t)  <=  sum_k t_k,

with exp(-l(t)) the joint survival function of the associated min-stable
exponential sequence.  Closed forms are dispatched per family; the generic
path integrates 1 - prod_k F(s/t_k) by the vectorized Gauss-Kronrod
quadrature of ``_quad.tail_quad``, one array of nodes per round, with the
infinite tail mapped by the family's tail index; the family's
``_product_tail`` sets the integral up.  It evaluates l(t) = m l(t/m) with
m = max_k t_k to absolute tolerance 1e-9 on l(t/m) >= 1, i.e. relative
tolerance 1e-9 on l(t) at every scale, and raises NumericError when the
quadrature's error estimate misses that tolerance.

By convention s / 0 = oo and F(oo) = 1, so zero entries of t drop out, and
the zero weight vector evaluates to 0.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Sequence, Union

import numpy as np

from ._quad import tail_quad
from .families import Cdf, Dirac1, Frechet, UnitExponential, UnitMeanCdf
from .models import CanonicalModel, LevySpec

__all__ = [
    "weight_vector",
    "effective_dim",
    "stdf_extremal",
    "stdf_canonical",
    "stdf_levy",
    "bernstein_psi",
    "copula",
    "stable_transform",
    "stable_evaluator",
    "inclusion_exclusion_transform",
    "inclusion_exclusion_evaluator",
    "pairwise_l2_identity",
    "estimate_drift",
    "check_3margin_ciid",
]

Evaluator = Callable[[Sequence[float]], float]

#: subset enumeration cap for the inclusion-exclusion transform
INCLUSION_EXCLUSION_MAX_DIM = 20

_QUAD_TOL = 1e-9


def weight_vector(t) -> np.ndarray:
    """Validate and return a weight vector as a 1-d float array."""
    arr = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
    if arr.size and (np.any(arr < 0.0) or not np.all(np.isfinite(arr))):
        raise ValueError("weight vector entries must be finite and non-negative")
    return arr


def effective_dim(t) -> int:
    """Index of the last strictly positive entry (0 for the zero vector)."""
    arr = weight_vector(t)
    nz = np.nonzero(arr > 0.0)[0]
    return int(nz[-1]) + 1 if nz.size else 0


def stdf_extremal(F: UnitMeanCdf, t, method: str = "auto") -> float:
    """l_F(t) = int_0^oo (1 - prod_k F(s/t_k)) ds for a single family F.

    ``method="auto"`` dispatches to a closed form where one exists
    (Frechet -> logistic, point mass -> max, atomic families -> exact
    piecewise-constant integration, exponential -> inclusion-exclusion);
    ``method="quadrature"`` forces the generic integration path.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    tt = weight_vector(t)
    tt = tt[tt > 0.0]
    if tt.size == 0:
        return 0.0
    if method == "quadrature":
        return _stdf_quadrature(F, tt)
    if isinstance(F, Frechet):
        # m (sum (t_k/m)^(1/alpha))^alpha with m = max t neither under- nor
        # overflows at extreme scales of t
        m = float(np.max(tt))
        return m * float(np.sum((tt / m) ** (1.0 / F.alpha)) ** F.alpha)
    if isinstance(F, Dirac1):
        return float(np.max(tt))
    atoms = F.atom_values()
    if atoms is not None:
        return _stdf_atomic(F, tt, atoms[0])
    if isinstance(F, UnitExponential) and tt.size <= INCLUSION_EXCLUSION_MAX_DIM:
        return _stdf_iid_exponential(tt)
    return _stdf_quadrature(F, tt)


def _stdf_atomic(F: Cdf, tt: np.ndarray, values: np.ndarray) -> float:
    # the integrand 1 - prod_k F(s/t_k) is piecewise constant between the
    # products of atom locations and weights; sum it exactly, sampling each
    # piece at its midpoint (endpoints are unsafe: v*t/t may round across
    # the jump)
    products = np.unique(np.outer(values[values > 0.0], tt).ravel())
    knots = np.concatenate([[0.0], products])
    mids = 0.5 * (knots[:-1] + knots[1:])
    grid = mids[:, None] / tt[None, :]
    g = 1.0 - np.prod(np.asarray(F.cdf(grid)), axis=1)
    return float(np.sum(g * np.diff(knots)))


def _stdf_iid_exponential(tt: np.ndarray) -> float:
    # inclusion-exclusion over non-empty subsets S: (-1)^(|S|+1) / sum_{k in S} 1/t_k
    rates = 1.0 / tt
    sums = np.zeros(1)
    parity = np.zeros(1)
    for r in rates:
        sums = np.concatenate([sums, sums + r])
        parity = np.concatenate([parity, parity + 1.0])
    sums, parity = sums[1:], parity[1:]
    return float(np.sum((-1.0) ** (parity + 1.0) / sums))


def _stdf_quadrature(F: Cdf, tt: np.ndarray) -> float:
    # l(t) = m l(t/m) with m = max t puts the integrand's mass on the scale
    # the quadrature expects, and l(t/m) >= 1 makes its absolute tolerance
    # relative on l(t) at every scale
    m = float(np.max(tt))
    t_unique, counts = np.unique(tt / m, return_counts=True)
    return m * F._product_tail(0.0, t_unique, counts.astype(float), _QUAD_TOL)


def stdf_canonical(model: CanonicalModel, t, method: str = "auto") -> float:
    """l(t) = b sum_k t_k + (1 - b) sum_i w_i l_{F_i}(t) for a canonical pair."""
    tt = weight_vector(t)
    total = float(np.sum(tt))
    if model.b == 1.0 or model.mu is None:
        return model.b * total
    mix = math.fsum(
        w * stdf_extremal(F, tt, method=method) for w, F in model.mu
    )
    return model.b * total + (1.0 - model.b) * mix


def bernstein_psi(spec: LevySpec, x) -> Union[float, np.ndarray]:
    """Psi(x) = drift * x + sum_i rate_i (1 - e^(-x theta_i)); Psi(0) = 0.

    An infinite jump size contributes rate * 1_{x > 0}.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("x must be non-negative")
    out = spec.drift * x_arr
    for theta, rate in spec.atoms:
        if math.isinf(theta):
            out = out + rate * (x_arr > 0.0)
        else:
            out = out - rate * np.expm1(-x_arr * theta)
    return float(out) if x_arr.ndim == 0 else out


def stdf_levy(spec: LevySpec, t) -> float:
    """Ordered-difference evaluation l(t) = sum_k t_[k] (Psi(d-k+1) - Psi(d-k)).

    t_[1] <= ... <= t_[d] sorts the positive entries ascending; equals the
    canonical evaluation of the equivalent two-point mixture whenever the
    spec is normalized to drift + intensity = 1.
    """
    tt = weight_vector(t)
    tt = np.sort(tt[tt > 0.0])
    d = tt.size
    if d == 0:
        return 0.0
    psi = bernstein_psi(spec, np.arange(d + 1))
    # k-th smallest multiplies Psi(d-k+1) - Psi(d-k)
    diffs = psi[1:][::-1] - psi[:-1][::-1]
    return float(tt @ diffs)


def copula(model: CanonicalModel, u) -> float:
    """Extreme-value copula C(u) = exp(-l(-log u_1, ..., -log u_d))."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr <= 0.0) or np.any(u_arr > 1.0):
        raise ValueError("copula arguments must lie in (0, 1]")
    return math.exp(-stdf_canonical(model, -np.log(u_arr)))


def _as_evaluator(base) -> Evaluator:
    if isinstance(base, CanonicalModel):
        return lambda t: stdf_canonical(base, t)
    if isinstance(base, LevySpec):
        return lambda t: stdf_levy(base, t)
    if callable(base):
        return base
    raise ValueError(f"expected a model or evaluator, got {base!r}")


def stable_evaluator(base, alpha: float) -> Evaluator:
    """Evaluator of the stable transform l_alpha(t) = l(t^(1/alpha))^alpha."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    ev = _as_evaluator(base)

    def transformed(t) -> float:
        tt = weight_vector(t)
        return float(ev(tt ** (1.0 / alpha)) ** alpha)

    return transformed


def stable_transform(base, alpha: float, t) -> float:
    """Evaluate the stable transform of ``base`` at t (see stable_evaluator)."""
    return stable_evaluator(base, alpha)(t)


def inclusion_exclusion_evaluator(base) -> Evaluator:
    """Evaluator of l_Y(t) = sum_k (-1)^(k+1) sum_{i1<...<ik} 1 / l_X(1/t_{i1}, ..., 1/t_{ik})."""
    ev = _as_evaluator(base)

    def transformed(t) -> float:
        tt = weight_vector(t)
        tt = tt[tt > 0.0]
        d = tt.size
        if d == 0:
            return 0.0
        if d > INCLUSION_EXCLUSION_MAX_DIM:
            raise ValueError(
                f"inclusion-exclusion transform supports at most "
                f"{INCLUSION_EXCLUSION_MAX_DIM} positive entries, got {d}"
            )
        inv = 1.0 / tt
        total = 0.0
        for k in range(1, d + 1):
            sign = 1.0 if k % 2 else -1.0
            for idx in combinations(range(d), k):
                total += sign / ev(inv[list(idx)])
        return total

    return transformed


def inclusion_exclusion_transform(base, t) -> float:
    """Evaluate the inclusion-exclusion transform of ``base`` at t."""
    return inclusion_exclusion_evaluator(base)(t)


def pairwise_l2_identity(F: UnitMeanCdf) -> float:
    """l_F(1, 1) computed as 2 - int_0^oo (1 - F(s))^2 ds.

    Strictly below 2 for every unit-mean family; independent of the
    product-form integration used by :func:`stdf_extremal`.
    """
    atoms = F.atom_values()
    if atoms is not None:
        values = atoms[0]
        knots = np.concatenate([[0.0], values[values > 0.0]])
        surv = 1.0 - np.asarray(F.cdf(knots[:-1]))
        integral = float(np.sum(surv**2 * np.diff(knots)))
    else:
        def integrand(s):
            return np.expm1(np.asarray(F.log_cdf(s))) ** 2

        scale = max(float(F.quantile(0.999)), 1.0)
        # (1 - F)^2 has twice the tail index of F
        integral = tail_quad(integrand, 0.0, scale, upper=F.support_upper(),
                             abs_tol=_QUAD_TOL, tail_index=2.0 * F.tail_index())
    return 2.0 - integral


def estimate_drift(model_or_evaluator, n_max: int) -> float:
    """Recover the independence weight from extremal coefficient differences.

    Returns l(1_{n+1}) - l(1_n) at n = n_max, clamped to [0, 1]; the
    differences decrease monotonically to the drift b of the model.
    """
    n_max = int(n_max)
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if isinstance(model_or_evaluator, CanonicalModel):
        model = model_or_evaluator
        if model.b == 1.0 or model.mu is None:
            return 1.0
        diff = math.fsum(
            w * (F.power_tail_integral(0.0, n_max + 1.0)
                 - F.power_tail_integral(0.0, float(n_max)))
            for w, F in model.mu
        )
        est = model.b + (1.0 - model.b) * diff
    else:
        ev = _as_evaluator(model_or_evaluator)
        est = ev(np.ones(n_max + 1)) - ev(np.ones(n_max))
    return min(1.0, max(0.0, float(est)))


def check_3margin_ciid(lambda1: float, lambda2: float, lambda3: float):
    """Feasibility of the three-parameter trivariate family as a margin.

    Returns ``(feasible, evaluator)``: feasible is the criterion
    lambda2^2 <= lambda1 * lambda3 for realizability by a conditionally iid
    sequence; the evaluator computes

        l3(t) = (l1 t_[1] + (l1 + l2) t_[2]) / (l1 + 2 l2 + l3) + t_[3]

    with t_[1] <= t_[2] <= t_[3], and is returned regardless of feasibility.
    """
    lams = (float(lambda1), float(lambda2), float(lambda3))
    if any(not (v > 0.0 and math.isfinite(v)) for v in lams):
        raise ValueError(f"lambdas must be positive and finite, got {lams}")
    l1, l2, l3 = lams
    feasible = l2 * l2 <= l1 * l3
    denom = l1 + 2.0 * l2 + l3

    def evaluator(t) -> float:
        tt = weight_vector(t)
        if tt.size > 3:
            if effective_dim(tt) > 3:
                raise ValueError("evaluator is trivariate")
            tt = tt[:3]
        tt = np.sort(np.pad(tt, (0, 3 - tt.size)))
        return float((l1 * tt[0] + (l1 + l2) * tt[1]) / denom + tt[2])

    return feasible, evaluator
