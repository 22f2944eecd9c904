"""Stable tail dependence functions, extreme-value copulas and transforms.

The central objects are evaluators l(t) on finite non-negative weight
vectors, normalized to l(1,0,...) = 1 and satisfying

    max_k t_k  <=  l(t)  <=  sum_k t_k,

with exp(-l(t)) the joint survival function of the associated min-stable
exponential sequence.  l_F(t) = m l_F(t/m), with m = max_k t_k, is one call
of the family's ``_product_tail``, which holds the family's closed form;
families without one integrate 1 - prod_k F(s/t_k) by the vectorized
Gauss-Kronrod quadrature of ``_quad.tail_quad``, one array of nodes per
round, with the infinite tail mapped by the family's tail index.  The
quadrature works to absolute tolerance 1e-9 on l(t/m) >= 1, i.e. relative
tolerance 1e-9 on l(t) at every scale, and raises NumericError when its
error estimate misses that tolerance.

By convention s / 0 = oo and F(oo) = 1, so zero entries of t drop out, and
the zero weight vector evaluates to 0.

Validation: every public function validates its arguments (weight vectors
through :func:`weight_vector`) and raises ValueError on bad input.  The
private helpers take t already validated: ``_canonical`` a validated weight
vector, ``_extremal`` the ``(m, t/m, ones)`` of ``_scaled``.  So one public
call checks t once, however many families its model mixes.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Sequence, Union

import numpy as np

from ._quad import tail_quad
from .families import INCLUSION_EXCLUSION_MAX_DIM, UnitMeanCdf
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

_QUAD_TOL = 1e-9


def weight_vector(t) -> np.ndarray:
    """Validate and return a weight vector as a 1-d float array."""
    arr = np.asarray(t, dtype=float).ravel()
    # both comparisons are False for NaN
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise ValueError("weight vector entries must be finite and non-negative")
    return arr


def effective_dim(t) -> int:
    """Index of the last strictly positive entry (0 for the zero vector)."""
    arr = weight_vector(t)
    nz = np.nonzero(arr > 0.0)[0]
    return int(nz[-1]) + 1 if nz.size else 0


def _check_method(method: str) -> None:
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")


def _scaled(tt: np.ndarray):
    """(m, u, ones) for a validated t: m = max t, u the positive entries of
    t over m and ones the unit powers; m = 0 for the zero vector."""
    pos = tt[tt > 0.0]
    if pos.size == 0:
        return 0.0, pos, pos
    m = float(pos.max())
    return m, pos / m, np.ones(pos.size)


def _extremal(F: UnitMeanCdf, scaled, method: str) -> float:
    """l_F(t) = m l_F(t/m) from scaled = _scaled(t)."""
    m, u, ones = scaled
    if m == 0.0:
        return 0.0
    # t/m puts the integrand's mass where the quadrature expects it and keeps
    # closed forms finite; l(t/m) >= 1 makes the tolerance relative on l(t)
    integral = F._product_tail_quad if method == "quadrature" else F._product_tail
    return m * integral(0.0, u, ones, _QUAD_TOL)


def _canonical(model: CanonicalModel, tt: np.ndarray, method: str) -> float:
    """stdf_canonical for a validated t and method."""
    with np.errstate(over="ignore"):
        total = float(tt.sum())
    if model.b == 1.0 or model.mu is None:
        return model.b * total
    scaled = _scaled(tt)
    mix = math.fsum(w * _extremal(F, scaled, method) for w, F in model.mu)
    if model.b == 0.0:
        return mix
    if math.isinf(total):
        # sum t overflows where b sum t need not: m (b sum t/m)
        m, u, _ = scaled
        return m * (model.b * float(u.sum())) + (1.0 - model.b) * mix
    return model.b * total + (1.0 - model.b) * mix


def stdf_extremal(F: UnitMeanCdf, t, method: str = "auto") -> float:
    """l_F(t) = int_0^oo (1 - prod_k F(s/t_k)) ds for a single family F.

    ``method="auto"`` takes the family's ``_product_tail``, with its closed
    form where it has one (Frechet -> logistic, point mass -> max, atomic
    families -> exact sum, exponential -> inclusion-exclusion);
    ``method="quadrature"`` forces the generic integration path.
    """
    _check_method(method)
    return _extremal(F, _scaled(weight_vector(t)), method)


def stdf_canonical(model: CanonicalModel, t, method: str = "auto") -> float:
    """l(t) = b sum_k t_k + (1 - b) sum_i w_i l_{F_i}(t) for a canonical pair."""
    _check_method(method)
    return _canonical(model, weight_vector(t), method)


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
    u_arr = np.asarray(u, dtype=float).ravel()
    # both comparisons are False for NaN; -log u is then finite and >= 0
    if u_arr.size and not (u_arr.min() > 0.0 and u_arr.max() <= 1.0):
        raise ValueError("copula arguments must lie in (0, 1] and not be NaN")
    return math.exp(-_canonical(model, -np.log(u_arr), "auto"))


def _as_evaluator(base) -> Evaluator:
    if isinstance(base, CanonicalModel):
        return lambda t: stdf_canonical(base, t)
    if isinstance(base, LevySpec):
        return lambda t: stdf_levy(base, t)
    if callable(base):
        return base
    raise ValueError(f"expected a model or evaluator, got {base!r}")


def stable_evaluator(base, alpha: float) -> Evaluator:
    """Evaluator of the stable transform l_alpha(t) = l(t^(1/alpha))^alpha,
    as m l((t/m)^(1/alpha))^alpha with m = max t, so no power over- or underflows."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    ev = _as_evaluator(base)

    def transformed(t) -> float:
        tt = weight_vector(t)
        m = float(tt.max(initial=0.0))
        return m * float(ev((tt / m) ** (1.0 / alpha)) ** alpha) if m > 0.0 else 0.0

    return transformed


def stable_transform(base, alpha: float, t) -> float:
    """Evaluate the stable transform of ``base`` at t (see stable_evaluator)."""
    return stable_evaluator(base, alpha)(t)


def inclusion_exclusion_evaluator(base) -> Evaluator:
    """Evaluator of l_Y(t) = sum_k (-1)^(k+1) sum_{i1<...<ik} 1 / l_X(1/t_{i1}, ..., 1/t_{ik}),
    as m l_Y(t/m) with m = max t, so that no reciprocal of t overflows."""
    ev = _as_evaluator(base)

    def transformed(t) -> float:
        m, u, _ = _scaled(weight_vector(t))
        d = u.size
        if d == 0:
            return 0.0
        if d > INCLUSION_EXCLUSION_MAX_DIM:
            raise ValueError(
                f"inclusion-exclusion transform supports at most "
                f"{INCLUSION_EXCLUSION_MAX_DIM} positive entries, got {d}"
            )
        with np.errstate(over="ignore", divide="ignore"):
            inv = 1.0 / u
        # keep the entries whose subset sums stay finite; l_Y is 1-Lipschitz,
        # so the t_k left out (each below d m / 1.8e308) move it by less than their sum
        inv = inv[inv <= np.finfo(float).max / d]
        total = 0.0
        for k in range(1, inv.size + 1):
            sign = 1.0 if k % 2 else -1.0
            for idx in combinations(range(inv.size), k):
                total += sign / ev(inv[list(idx)])
        return m * total

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
        surv = -np.expm1(np.asarray(F.log_cdf(knots[:-1])))
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
