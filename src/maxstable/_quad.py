"""Global-adaptive Gauss-Kronrod quadrature of decaying integrands on [a, oo).

The integrals appearing throughout the package all have the shape
``int_a^upper g(s) ds`` with g non-negative, non-increasing towards 0 and
integrable.  ``tail_quad`` integrates them with the 7-point Gauss and
15-point Kronrod pair (G7/K15, as in QUADPACK, Piessens et al. 1983),
written in numpy.  The range is cut at the breakpoints into pieces of
_FIRST_SPLIT equal panels each (one each when there are too many pieces);
each round evaluates the 15 nodes of every open panel in one call of the
array integrand ``g``, retires the panels whose error estimate |K15 - G7|
is negligible and bisects the others, until the summed estimate is at
most the tolerance.  A call that does not reach the tolerance within a
fixed round cap, or whose bisections would exceed a panel cap, raises
NumericError; it never returns a value whose error estimate exceeds the
tolerance.

An infinite range is split at a point S beyond the integrand's mass:
[a, S] is integrated as it is, and [S, oo) through a substitution chosen by
the declared tail index kappa of g (g(s) ~ C s^(-kappa)):

* finite kappa: s = S w^(-p) with p = 1 / (kappa - 1), written in
  v = 1 - w.  The mapped integrand g(s) s p / w tends to the constant
  p C S^(1 - kappa) as w -> 0, so the algebraic tail becomes a bounded
  integrand on [0, 1]; beyond s = S e^_LOG_SPAN, where g is asymptotic to
  its power law, the mapped integrand is taken at that point.  It changes
  on the scale 1/p near w = 1, where breakpoints sit at w = 1 - {30, 3, 1/3}/p.
* kappa = oo (light tails): s = S e^y with y = u / (1 - u).  Where s would
  exceed _S_MAX the integrand counts as zero; a call raises NumericError
  if g has not decayed there, since the tail is then heavier than declared.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

#: nodes of the 15-point Kronrod rule on [-1, 1]; the odd entries are the
#: 7 Gauss nodes
_XK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_XK = np.concatenate([-_XK_HALF, _XK_HALF[-2::-1]])
_WK = np.concatenate([_WK_HALF, _WK_HALF[-2::-1]])
_WG = np.concatenate([_WG_HALF, _WG_HALF[-2::-1]])

#: a panel's error estimate is at least this multiple of the rounding in its
#: Kronrod sum (QUADPACK's floor)
_ROUNDING = 50.0 * np.finfo(float).eps
#: equal panels per piece in the first round
_FIRST_SPLIT = 8
#: bisection depth (= rounds) and open-panel caps
_MAX_ROUNDS = 64
_MAX_PANELS = 4096
#: log(s / S) beyond which an algebraic tail is taken at its limit
_LOG_SPAN = 230.0
#: largest s an exponentially mapped tail is evaluated at
_S_MAX = 1e300


def tail_quad(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    scale: float,
    *,
    upper: float = math.inf,
    breakpoints: Sequence[float] = (),
    abs_tol: float = 1e-10,
    tail_index: float = math.inf,
) -> float:
    """Integrate ``g`` over [a, upper) to absolute tolerance ``abs_tol``.

    ``g`` maps a 1-d array of points to the array of its values.
    ``scale`` locates where the mass of g lives (the split point is placed
    beyond it); ``breakpoints`` marks discontinuities of g (those beyond
    the split point are ignored); a finite
    ``upper`` means g vanishes identically beyond it.  ``tail_index`` is
    kappa > 1 with g(s) ~ C s^(-kappa) as s -> oo, or oo if g decays faster
    than every power.

    Raises NumericError (with the achieved error estimate attached) when
    the estimate does not reach ``abs_tol`` within the round and panel caps,
    or when rounding alone exceeds it.
    """
    if upper <= a:
        return 0.0
    if not tail_index > 1.0:
        raise ValueError(f"tail index must exceed 1, got {tail_index}")
    breaks = np.asarray(breakpoints, dtype=float).ravel()
    if math.isfinite(upper):
        split = upper
        tail = None
    else:
        split = max(2.0 * a, 2.0 * scale, 1.0)
        tail = _Tail(split, tail_index, abs_tol)
    inner = breaks[(breaks > a) & (breaks < split)]
    direct = np.unique(np.concatenate([[a, split], inner]))
    lo, hi = [direct[:-1]], [direct[1:]]
    if tail is not None:
        mapped = tail.edges()
        lo.append(mapped[:-1])
        hi.append(mapped[1:])
    n_direct = direct.size - 1
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    is_tail = np.arange(lo.size) >= n_direct
    # the first round already splits each piece, which saves rounds, unless
    # there are so many pieces that one panel each is enough to start with
    split_first = _FIRST_SPLIT if lo.size * _FIRST_SPLIT <= _MAX_PANELS else 1
    width = (hi - lo) / split_first
    edges = lo[:, None] + width[:, None] * np.arange(split_first + 1)
    edges[:, -1] = hi
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    is_tail = np.repeat(is_tail, split_first)
    # the cap bounds the panels made by bisection, not the starting ones
    max_panels = max(_MAX_PANELS, lo.size)
    # a retired panel may keep an error of its share of the root width,
    # so that all retired panels together keep at most abs_tol / 4
    allowance = np.full(lo.size, abs_tol / (4.0 * lo.size))

    done_value, done_err = [], 0.0
    for _ in range(_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * _XK
        s, jac = x, np.ones_like(x)
        if tail is not None:
            s[is_tail], jac[is_tail] = tail.map(x[is_tail])
        gs = np.asarray(g(s.ravel()), dtype=float).reshape(x.shape)
        if tail is not None:
            tail.check(gs, jac)
        with np.errstate(invalid="ignore"):
            f = np.where((gs == 0.0) | (jac == 0.0), 0.0, gs * jac)
        if not np.all(np.isfinite(f)):
            raise NumericError("quadrature integrand is not finite")
        kronrod = half * (f @ _WK)
        gauss = half * (f[:, 1::2] @ _WG)
        diff = np.abs(kronrod - gauss)
        floor = _ROUNDING * half * (np.abs(f) @ _WK)
        err = np.maximum(diff, floor)
        err_total = done_err + float(np.sum(err))
        if err_total <= abs_tol:
            return math.fsum(done_value) + math.fsum(kronrod)
        retire = (err <= allowance) | (diff <= floor)
        done_value.extend(kronrod[retire])
        done_err += float(np.sum(err[retire]))
        keep = ~retire
        kronrod = kronrod[keep]
        if not keep.any() or 2 * int(np.count_nonzero(keep)) > max_panels:
            break
        lo, hi, half = lo[keep], hi[keep], half[keep]
        mid = lo + half
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        is_tail = np.tile(is_tail[keep], 2)
        allowance = np.tile(0.5 * allowance[keep], 2)
    value = math.fsum(done_value) + math.fsum(kronrod)
    raise NumericError(
        f"quadrature did not reach abs tol {abs_tol:g} "
        f"(estimate {value!r}, error estimate {err_total:g})",
        achieved=err_total,
    )


class _Tail:
    """The substitution of [split, oo) onto [0, 1] (see the module docstring)."""

    def __init__(self, split: float, kappa: float, abs_tol: float):
        self.split = split
        self.abs_tol = abs_tol
        self.p = 1.0 / (kappa - 1.0) if math.isfinite(kappa) else None

    def edges(self) -> np.ndarray:
        """Panel edges in the mapped variable: 0, 1 and, for an algebraic
        tail, the points 1/3, 3 and 30 over p."""
        if self.p is None:
            return np.array([0.0, 1.0])
        mapped = np.array([1.0 / 3.0, 3.0, 30.0]) / self.p
        return np.unique(np.concatenate([[0.0, 1.0], mapped[mapped < 1.0]]))

    def map(self, x: np.ndarray):
        """(s, ds/dx) at the mapped nodes x in (0, 1); ds/dx = 0 marks a
        node whose contribution is zero."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.p is not None:
                # s = S (1 - v)^(-p), ds/dv = s p / (1 - v)
                log_s = np.minimum(-self.p * np.log1p(-x), _LOG_SPAN)
                s = self.split * np.exp(log_s)
                jac = self.split * self.p * np.exp(log_s * (1.0 + 1.0 / self.p))
                return s, jac
            # s = S e^y with y = u / (1 - u), ds/du = s / (1 - u)^2
            y = x / (1.0 - x)
            y_max = math.log(_S_MAX / self.split)
            beyond = ~(y <= y_max)
            s = self.split * np.exp(np.minimum(y, y_max))
            jac = np.where(beyond, 0.0, s / (1.0 - x) ** 2)
            return s, jac

    def check(self, gs: np.ndarray, jac: np.ndarray) -> None:
        """Raise unless g has decayed where the exponential map gives up
        (the nodes with ds/du = 0, evaluated at s = _S_MAX)."""
        if self.p is not None:
            return
        beyond = jac == 0.0
        if np.any(beyond) and float(np.max(gs[beyond])) * _S_MAX > 1e-3 * self.abs_tol:
            raise NumericError(
                "quadrature integrand has not decayed at s = 1e300: its tail "
                "is heavier than the declared tail index")
