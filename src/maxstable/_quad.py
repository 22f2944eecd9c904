"""Adaptive Gauss-Kronrod quadrature of non-negative decaying integrands on [a, oo).

The integrals appearing throughout the package all have the shape
``int_a^oo g(s) ds`` with g non-negative, non-increasing towards 0 and
integrable.  A plain cut-off is unusable for heavy algebraic tails
(g ~ s^(-1/alpha) with alpha close to 1), so the integral is split at a
finite point S and the remainder is mapped by the substitution s = S e^y
onto [0, oo), where the integrand decays exponentially and QUADPACK's
infinite-interval transform converges quickly.  Both pieces go through
scipy's QUADPACK (adaptive Gauss-Kronrod with extrapolation).  scipy is
loaded on the first call, not at import, so that the CLI and the samplers
start without it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import NumericError

_LIMIT = 10_000


def tail_quad(
    g: Callable[[float], float],
    a: float,
    scale: float,
    *,
    upper: float = math.inf,
    breakpoints: Sequence[float] = (),
    abs_tol: float = 1e-10,
) -> float:
    """Integrate ``g`` over [a, upper) to absolute tolerance ``abs_tol``.

    ``scale`` locates where the mass of g lives (the split point is placed
    beyond it); ``breakpoints`` marks discontinuities of g; a finite
    ``upper`` means g vanishes identically beyond it.

    Raises NumericError (with the achieved error estimate attached) when the
    QUADPACK error estimate exceeds the requested tolerance.
    """
    if upper <= a:
        return 0.0
    from scipy.integrate import quad

    eps = abs_tol / 4.0

    if math.isfinite(upper):
        pts = sorted(p for p in breakpoints if a < p < upper)
        value, err = quad(g, a, upper, points=pts or None, limit=_LIMIT,
                          epsabs=eps, epsrel=1e-12)
        total_err = err
    else:
        split = max(2.0 * a, 2.0 * scale, 1.0)
        pts = sorted(p for p in breakpoints if a < p < split)
        value, err1 = quad(g, a, split, points=pts or None, limit=_LIMIT,
                           epsabs=eps, epsrel=1e-12)

        def tail_integrand(y: float) -> float:
            if y > 700.0:  # g underflows far before exp(y) overflows
                return 0.0
            s = split * math.exp(y)
            gs = g(s)
            return gs * s if gs > 0.0 else 0.0

        tail, err2 = quad(tail_integrand, 0.0, math.inf, limit=_LIMIT,
                          epsabs=eps, epsrel=1e-12)
        value += tail
        total_err = err1 + err2

    if not math.isfinite(value) or total_err > abs_tol:
        raise NumericError(
            f"quadrature did not reach abs tol {abs_tol:g} "
            f"(error estimate {total_err:g})",
            achieved=total_err,
        )
    return value
