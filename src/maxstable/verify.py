"""Monte Carlo verification of samplers against the analytic evaluators.

Each check draws n samples, compares an empirical functional with its exact
value and gates on a z-score.  Sampling is sharded into fixed-size chunks
with generators spawned from the caller's generator, so results are
deterministic for a fixed seed and invariant to the worker count;
aggregation uses exact sums and counts combined in chunk order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import CanonicalModel
from .samplers import sample_minstable_batch, sample_pickands_batch
from .stdf import stdf_canonical, weight_vector

__all__ = [
    "CheckReport",
    "mc_survival_check",
    "mc_pickands_check",
    "mc_margin_check",
    "exchangeability_check",
    "reports_to_csv",
    "CSV_HEADER",
]

_CHUNK = 8192

CSV_HEADER = "name,empirical,exact,std_error,z_score,n,passed"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one Monte Carlo check; ``passed`` gates on |z| <= threshold."""

    name: str
    empirical: float
    exact: float
    std_error: float
    z_score: float
    n: int
    passed: bool

    def csv_row(self) -> str:
        return (
            f"{self.name},{self.empirical!r},{self.exact!r},{self.std_error!r},"
            f"{self.z_score!r},{self.n},{'true' if self.passed else 'false'}"
        )


def reports_to_csv(reports) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"


def _z_score(empirical: float, exact: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if empirical == exact else math.inf
    return (empirical - exact) / se


def _run_chunks(rng, n: int, chunk_fn, workers: int):
    """chunk_fn(child, size) per chunk of at most _CHUNK rows, in order; each
    chunk has its own child of rng, so results do not depend on workers."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    children = rng.spawn(len(sizes))
    if workers <= 1:
        return [chunk_fn(child, size) for child, size in zip(children, sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, children, sizes))


def _fmt_t(tt: np.ndarray) -> str:
    return ":".join(f"{v:g}" for v in tt)


def mc_survival_check(model: CanonicalModel, t, n: int, rng,
                      z_threshold: float = 4.0, workers: int = 1) -> CheckReport:
    """Empirical frequency of {Y > t componentwise} against exp(-l(t)).

    The standard error uses the exact probability, which keeps the z-score
    defined even when the empirical frequency is zero.
    """
    n = int(n)
    if n < 1000:
        raise ValueError(f"n must be at least 1000, got {n}")
    tt = weight_vector(t)
    exact = math.exp(-stdf_canonical(model, tt))
    d = tt.size

    def chunk(child, size):
        samples = sample_minstable_batch(model, d, size, child)
        return int(np.sum(np.all(samples > tt, axis=1)))

    hits = sum(_run_chunks(rng, n, chunk, workers))
    empirical = hits / n
    se = math.sqrt(exact * (1.0 - exact) / n)
    z = _z_score(empirical, exact, se)
    return CheckReport(f"survival[t={_fmt_t(tt)}]", empirical, exact, se, z, n,
                       abs(z) <= z_threshold)


def mc_pickands_check(model: CanonicalModel, t, n: int, rng,
                      z_threshold: float = 4.0, workers: int = 1) -> CheckReport:
    """d * mean(max_k t_k X_k) over simplex draws against l(t)."""
    n = int(n)
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    tt = weight_vector(t)
    d = tt.size
    if d < 1 or not np.any(tt > 0.0):
        raise ValueError("t must have at least one positive entry")
    exact = stdf_canonical(model, tt)

    def chunk(child, size):
        coords, _ = sample_pickands_batch(model, d, size, child)
        vals = d * np.max(tt * coords, axis=1)
        return float(vals.sum()), float(np.sum(vals * vals))

    parts = _run_chunks(rng, n, chunk, workers)
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    empirical = total / n
    var = max(0.0, (total_sq - n * empirical * empirical) / (n - 1))
    se = math.sqrt(var / n)
    z = _z_score(empirical, exact, se)
    return CheckReport(f"pickands[t={_fmt_t(tt)}]", empirical, exact, se, z, n,
                       abs(z) <= z_threshold)


def mc_margin_check(model: CanonicalModel, n: int, rng,
                    z_threshold: float = 4.0, workers: int = 1) -> CheckReport:
    """Second-margin mean of a bivariate draw against 1; the name carries a
    one-sample Kolmogorov-Smirnov statistic versus the unit exponential.

    A univariate draw would test nothing: at d=1 the minimum construction
    returns its first arrival whatever mu, while the second margin of a
    bivariate draw depends on the size-biased draws and on the rejection
    step of the extremal functions."""
    n = int(n)
    if n < 1000:
        raise ValueError(f"n must be at least 1000, got {n}")

    def chunk(child, size):
        return sample_minstable_batch(model, 2, size, child)[:, 1]

    values = np.concatenate(_run_chunks(rng, n, chunk, workers))
    empirical = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(n)
    z = _z_score(empirical, 1.0, se)
    sorted_cdf = -np.expm1(-np.sort(values))
    steps = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(steps - sorted_cdf, sorted_cdf - steps + 1.0 / n)))
    return CheckReport(f"margin[ks={ks:.6f}]", empirical, 1.0, se, z, n,
                       abs(z) <= z_threshold)


def exchangeability_check(model: CanonicalModel, t, perm, tol: float = 1e-12) -> bool:
    """l(t) == l(perm(t)) within ``tol`` (permutations must not change l)."""
    tt = weight_vector(t)
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(tt.size)):
        raise ValueError("perm must be a permutation of range(len(t))")
    return abs(stdf_canonical(model, tt) - stdf_canonical(model, tt[perm])) <= tol
