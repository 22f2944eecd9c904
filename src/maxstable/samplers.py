"""Samplers: min-stable sequences, simplex vectors, additive paths, first passage.

All samplers take an explicit numpy Generator and are deterministic given
its state.

The minimum construction is exact: a single Frechet family draws its
stable frailty, every other mixture is simulated by extremal functions, and
no truncation is involved.  Only the additive-path series is truncated, and
only it and first passage take ``tol``: the series stops once the expected
omitted increment over the requested horizon is below ``tol``, using the
envelope -log F(u-) <= 2 (1 - F(u-)) valid above the median; families with
bounded support terminate exactly, and atoms below the support infimum pin
the path to +oo from the corresponding time onward.

First passage Y_k = inf{t : H_t > eta_k} is exact for pure drift, for a
single family with one positive atom and for a single Frechet family; the
Frechet route draws the stable frailty S of H_t = b t + (c t)^(1/alpha) S
(Kanter 1975) and ignores ``tol``.  Any other triplet brackets each row's
levels by horizon doublings of its certified series, then bisects every
coordinate of a block of rows in one vectorized sweep on the row's final
arrivals.  That route is deterministic per seed; its outputs may differ,
within the truncation tolerance, from a bisection of each coordinate on
only the arrivals drawn up to its own bracket, as earlier versions did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .families import Frechet, UnitMeanCdf
from .models import CanonicalModel, IdtTriplet, MixingMeasure

__all__ = [
    "PickandsSample",
    "IdtPath",
    "sample_minstable",
    "sample_minstable_batch",
    "sample_pickands",
    "sample_pickands_batch",
    "sample_idt_path",
    "sample_conditional_iid",
    "sample_conditional_iid_batch",
]

#: hard cap on Poisson arrivals per sample coordinate / per path
MAX_ARRIVALS = 10**7
#: hard cap on first-passage bracket doublings
MAX_DOUBLINGS = 10**6
_PICKANDS_MAX_RESAMPLES = 100
_BISECT_RTOL = 1e-10
#: rows bisected together by the generic first passage
_PASSAGE_BLOCK = 128
#: relative width around a solved certification threshold within which an
#: arrival is checked against the remainder bound itself
_CERTIFY_BAND = 1e-6
#: (arrival, point) pairs evaluated at once by IdtPath.values
_SWEEP_PAIRS = 2**20


@dataclass(frozen=True)
class PickandsSample:
    """A point of the unit simplex carrying the dependence of one d-margin."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1 or coords.size < 1:
            raise ValueError("coords must be a non-empty vector")
        if np.any(coords < 0.0) or abs(float(coords.sum()) - 1.0) > 1e-12:
            raise ValueError("coords must be non-negative and sum to 1")
        object.__setattr__(self, "coords", coords)


def _mixture_arrays(mu: MixingMeasure):
    weights = np.array([w for w, _ in mu], dtype=float)
    families = [F for _, F in mu]
    return weights, families


def _mixture_tail(weights, families, a):
    """Expected tail mass sum_i w_i int_a^oo (1 - F_i) du, vectorized over a."""
    total = weights[0] * np.asarray(families[0].tail_integral(a))
    for w, F in zip(weights[1:], families[1:]):
        total = total + w * np.asarray(F.tail_integral(a))
    return total


# ---------------------------------------------------------------------------
# exact minimum construction by extremal functions
# ---------------------------------------------------------------------------


def sample_minstable(model: CanonicalModel, d: int, rng):
    """One realization of (Y_1, ..., Y_d) with survival exp(-l(t)); exact."""
    return sample_minstable_batch(model, d, 1, rng)[0]


def sample_minstable_batch(model: CanonicalModel, d: int, n: int,
                           rng) -> np.ndarray:
    """n independent realizations, shape (n, d).  See sample_minstable.

    Y = min(E / b, Z / (1 - b)) with E iid unit exponentials and
    Z_k = min_j gamma_j / X_jk over a unit-rate Poisson process whose
    arrivals carry iid vectors X_j: a family drawn from mu, then d iid
    values of it.  A single Frechet family draws Z by its stable frailty
    (_passage_frechet); every other mixture by extremal functions.
    """
    d, n = int(d), int(n)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if model.b == 1.0:
        return rng.exponential(size=(n, d))
    components = model.mu.components
    if len(components) == 1 and isinstance(components[0][1], Frechet):
        # Z is the first passage of the triplet (0, 1, mu)
        extremal = _passage_frechet(0.0, 1.0, components[0][1], d, n, rng)
    else:
        extremal = _extremal_minimum_batch(model.mu, d, n, rng)
    if model.b == 0.0:
        return extremal
    independent = rng.exponential(size=(n, d))
    return np.minimum(independent / model.b, extremal / (1.0 - model.b))


def _extremal_minimum_batch(mu: MixingMeasure, d: int, n: int,
                            rng) -> np.ndarray:
    """Exact Z by extremal functions (Dombry, Engelke & Oesting 2016).

    For each coordinate k the arrivals gamma < Z_k are walked in order.
    Each carries a vector X from the k-th extremal-function law: the family
    drawn from mu, slot k size-biased and the other slots iid
    (_pickands_raw).  Its candidate gamma * X_k / X is dropped if it
    undercuts some Z_j, j < k, because the walk over coordinate j has
    already met every arrival that lowers Z_j; otherwise it lowers Z.  A
    row draws d vectors on average.
    """
    minima = np.full((n, d), np.inf)
    for k in range(d):
        gamma = rng.exponential(size=n)
        rows = np.nonzero(gamma < minima[:, k])[0]
        arrivals = 0
        while rows.size:
            if arrivals >= MAX_ARRIVALS:
                raise ResourceError(
                    f"minimum construction exceeded {MAX_ARRIVALS} arrivals "
                    f"in coordinate {k}", achieved_bound=float(rows.size))
            x = _pickands_raw(mu, d, rows.size, np.full(rows.size, k), rng)
            g = gamma[rows]
            with np.errstate(divide="ignore"):
                candidate = (g * x[:, k])[:, None] / x
            candidate[:, k] = g
            current = minima[rows]
            keep = ~np.any(candidate[:, :k] < current[:, :k], axis=1)
            minima[rows[keep]] = np.minimum(current[keep], candidate[keep])
            gamma[rows] = g + rng.exponential(size=rows.size)
            rows = rows[gamma[rows] < minima[rows, k]]
            arrivals += 1
    return minima


# ---------------------------------------------------------------------------
# Pickands simplex sampler
# ---------------------------------------------------------------------------


def sample_pickands(model: CanonicalModel, d: int, rng) -> PickandsSample:
    """One draw of the simplex vector of the d-margin of the model.

    With probability b return a uniformly random vertex; otherwise draw a
    family F from the mixture, one size-biased value for a uniformly chosen
    slot and iid F-values for the rest, then normalize to the simplex.
    """
    coords, _ = sample_pickands_batch(model, d, 1, rng)
    return PickandsSample(coords[0])


def sample_pickands_batch(model: CanonicalModel, d: int, n: int, rng):
    """(samples, n_resampled): n simplex rows, shape (n, d), plus the count
    of rows redrawn because their raw coordinates summed to zero."""
    d, n = int(d), int(n)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    picked = rng.integers(0, d, size=n)
    if model.b == 1.0:
        vertex = np.ones(n, dtype=bool)
    elif model.b == 0.0:
        vertex = np.zeros(n, dtype=bool)
    else:
        vertex = rng.random(n) < model.b

    w = np.zeros((n, d))
    rows_v = np.nonzero(vertex)[0]
    w[rows_v, picked[rows_v]] = 1.0

    rows = np.nonzero(~vertex)[0]
    resampled = 0
    attempts = 0
    while rows.size:
        if attempts > _PICKANDS_MAX_RESAMPLES:
            raise ResourceError(
                f"simplex sampler hit {_PICKANDS_MAX_RESAMPLES} resample attempts",
                achieved_bound=float(rows.size),
            )
        w[rows] = _pickands_raw(model.mu, d, rows.size, picked[rows], rng)
        bad = w[rows].sum(axis=1) <= 0.0
        rows = rows[bad]
        resampled += int(bad.sum())
        attempts += 1

    return w / w.sum(axis=1, keepdims=True), resampled


def _pickands_raw(mu: MixingMeasure, d, m, picked, rng):
    weights, families = _mixture_arrays(mu)
    if len(families) == 1:
        comp = np.zeros(m, dtype=int)
    else:
        comp = np.searchsorted(np.cumsum(weights), rng.random(m), side="left")
    out = np.empty((m, d))
    biased = np.empty(m)
    u = rng.random((m, d))
    for ci, F in enumerate(families):
        mask = comp == ci
        if np.any(mask):
            out[mask] = F.quantile(u[mask])
            biased[mask] = F.sample_size_biased(rng, size=int(mask.sum()))
    out[np.arange(m), picked] = biased
    return out


# ---------------------------------------------------------------------------
# additive-path (LePage series) sampler and first passage
# ---------------------------------------------------------------------------


class _PathSweep:
    """Truncated paths of several rows, each evaluated at m points in one pass.

    Entry r*m + j is the j-th point of row r, whose value at t is

        H_r(t) = drift * t + sum_k -log F_k((gamma_k / t)-)

    over the row's arrivals (gamma_k, F_k), and +oo from the row's pin time
    on.  Each family's (arrival, entry) pairs go through one log_cdf call and
    are summed per entry by bincount, in arrival order, so the value of an
    entry does not depend on which other rows share the sweep.
    """

    def __init__(self, drift, families, gammas, comps, owners, pins, m):
        self.drift = drift
        self.pins = np.repeat(np.asarray(pins, dtype=float), m)
        self.ids = np.arange(self.pins.size)
        cols = np.arange(m)
        self.groups = []
        for ci, F in enumerate(families):
            sel = comps == ci
            if np.any(sel):
                entries = (owners[sel] * m)[:, None] + cols
                self.groups.append((F, np.repeat(gammas[sel], m), entries.ravel()))

    def values(self, ts) -> np.ndarray:
        """H at ts[e] for every entry e still held."""
        total = self.drift * ts
        with np.errstate(divide="ignore"):
            for F, gammas, entries in self.groups:
                logs = np.asarray(F.log_cdf(gammas / ts[entries], left=True))
                total = total - np.bincount(entries, weights=logs,
                                            minlength=ts.size)
        return np.where(ts >= self.pins, np.inf, total)

    def at(self, ts, ids) -> np.ndarray:
        """H at ts for the entries ``ids``, a sorted subset of those held.

        Entries outside ``ids`` are evaluated at t = 1 and discarded; once
        they are the majority they are dropped from the sweep.
        """
        if 2 * ids.size <= self.ids.size:
            keep = np.isin(self.ids, ids)
            index = np.cumsum(keep) - 1
            self.groups = [
                (F, gammas[keep[entries]], index[entries[keep[entries]]])
                for F, gammas, entries in self.groups
            ]
            self.pins, self.ids = self.pins[keep], self.ids[keep]
        pos = np.searchsorted(self.ids, ids)
        full = np.ones(self.ids.size)
        full[pos] = ts
        return self.values(full)[pos]


def _bisect(evaluate, eta, t_hi) -> np.ndarray:
    """First passage over ``eta`` of increasing paths with H(t_hi) > eta.

    Per entry this is the bisection lo = 0, hi = t_hi, halving while
    hi - lo > _BISECT_RTOL * hi (at most 200 times) and keeping H(hi) > eta;
    it returns hi.  ``evaluate(ts, ids)`` gives H at ts for the open entries
    ``ids``.
    """
    hi = np.array(t_hi, dtype=float)
    lo = np.zeros_like(hi)
    ids = np.arange(hi.size)
    for _ in range(200):
        ids = ids[hi[ids] - lo[ids] > _BISECT_RTOL * hi[ids]]
        if ids.size == 0:
            break
        mid = 0.5 * (lo[ids] + hi[ids])
        up = evaluate(mid, ids) > eta[ids]
        hi[ids[up]] = mid[up]
        lo[ids[~up]] = mid[~up]
    return hi


@dataclass(frozen=True)
class IdtPath:
    """One truncated realization of a non-decreasing additive path.

    ``atoms`` lists the Poisson arrivals (gamma, F) kept before the stopping
    rule fired; the arrivals are drawn at rate ``intensity``, so evaluation
    needs no further scaling:

        H(t) = drift * t + sum_k -log F_k((gamma_k / t)-).

    H is non-decreasing, starts at H(0) = 0, and may equal +oo.
    ``truncation_bound`` is the certified bound on the expected omitted
    increment over [0, horizon].
    """

    drift: float
    intensity: float
    atoms: tuple[tuple[float, UnitMeanCdf], ...]
    horizon: float
    truncation_bound: float

    def value(self, t: float) -> float:
        return float(self.values(np.asarray([t]))[0])

    def values(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0.0) or np.any(ts > self.horizon * (1.0 + 1e-12)):
            raise ValueError("evaluation points must lie in [0, horizon]")
        families = list(dict.fromkeys(F for _, F in self.atoms))
        gammas = np.array([g for g, _ in self.atoms], dtype=float)
        comps = np.array([families.index(F) for _, F in self.atoms], dtype=int)
        pin = min((g / F.support_lower() for g, F in self.atoms
                   if F.support_lower() > 0.0), default=math.inf)
        flat = ts.ravel()
        out = np.empty(flat.size)
        # bound the (arrival, point) pairs held at once
        step = max(1, _SWEEP_PAIRS // max(1, gammas.size))
        for start in range(0, flat.size, step):
            chunk = flat[start:start + step]
            sweep = _PathSweep(self.drift, families, gammas, comps,
                               np.zeros(gammas.size, dtype=int), [pin],
                               chunk.size)
            out[start:start + step] = sweep.values(chunk)
        return out.reshape(ts.shape)


class _Series:
    """What the rows of one batch share: the triplet, the tolerance and the
    certification thresholds solved so far, one per horizon.

    A row's series is certified over [0, horizon] once its last arrival
    reaches eff * median_max and the remainder bound

        2 * intensity * eff * sum_i w_i tail_i(last / eff),  eff = min(horizon, pin),

    is at most ``tol``.  The bound decreases in ``last``, so for an unpinned
    row it is solved once per horizon for the arrival at which it crosses
    ``tol``; arrivals within a relative ``_CERTIFY_BAND`` of that point are
    checked against the bound itself, and pinned rows always are.
    """

    def __init__(self, triplet: IdtTriplet, tol: float):
        self.drift = triplet.b
        self.intensity = triplet.c
        self.tol = tol
        self._thresholds = {}
        if triplet.c > 0.0:
            self.weights, self.families = _mixture_arrays(triplet.mu)
            self.cum_weights = np.cumsum(self.weights)
            self.median_max = max(float(F.quantile(0.5)) for F in self.families)
            self.lowers = [F.support_lower() for F in self.families]
        else:
            self.weights, self.families, self.lowers = np.ones(1), [], []

    def bound(self, eff: float, last: float) -> float:
        """Expected omitted increment over [0, eff] after arrivals up to ``last``."""
        if self.intensity == 0.0:
            return 0.0
        return float(2.0 * self.intensity * eff
                     * _mixture_tail(self.weights, self.families, last / eff))

    def certified(self, horizon: float, pin: float, last: float) -> bool:
        if self.intensity == 0.0:
            return True
        eff = min(horizon, pin)
        if last < eff * self.median_max:
            return False
        if eff == horizon:
            lo, hi = self._threshold(horizon)
            if last >= hi:
                return True
            if last <= lo:
                return False
        return self.bound(eff, last) <= self.tol

    def _threshold(self, horizon: float):
        """(lo, hi), hi / lo <= 1 + band: the bound exceeds tol at lo and
        is at most tol at hi."""
        cached = self._thresholds.get(horizon)
        if cached is not None:
            return cached
        if self.bound(horizon, 0.0) <= self.tol:
            cached = (-math.inf, 0.0)
        else:
            lo, hi = 0.0, horizon * max(self.median_max, 1.0)
            while self.bound(horizon, hi) > self.tol:
                lo, hi = hi, 2.0 * hi
                if math.isinf(hi):
                    raise ResourceError(
                        f"path series cannot certify tol {self.tol:g} "
                        f"over [0, {horizon:g}]", achieved_bound=math.inf)
            for _ in range(200):
                if hi <= lo * (1.0 + _CERTIFY_BAND):
                    break
                mid = 0.5 * (lo + hi)
                if self.bound(horizon, mid) <= self.tol:
                    hi = mid
                else:
                    lo = mid
            expected = self.intensity * lo
            if expected > 2.0 * MAX_ARRIVALS and max(self.lowers) == 0.0:
                # no atom can pin the path, so about ``expected`` arrivals
                # are needed: fail now instead of after MAX_ARRIVALS
                raise ResourceError(
                    f"path series needs about {expected:.3g} arrivals to "
                    f"certify tol {self.tol:g} over [0, {horizon:g}] "
                    f"(cap {MAX_ARRIVALS})",
                    achieved_bound=self.bound(horizon,
                                              MAX_ARRIVALS / self.intensity),
                )
            cached = (lo, hi)
        self._thresholds[horizon] = cached
        return cached


class _PathBuilder:
    """The Poisson arrivals of one row, extended lazily until certified."""

    def __init__(self, series: _Series, rng):
        self.series = series
        self.rng = rng
        self.gammas: list[float] = []
        self.comp_idx: list[int] = []
        self.pin_time = math.inf
        self._values = {}  # H at bracket points, until the next arrival
        self._sweep = None

    def extend_to(self, horizon: float) -> None:
        series = self.series
        single = len(series.families) == 1
        last = self.gammas[-1] if self.gammas else 0.0
        while not series.certified(horizon, self.pin_time, last):
            if len(self.gammas) >= MAX_ARRIVALS:
                raise ResourceError(
                    f"path series exceeded {MAX_ARRIVALS} arrivals",
                    achieved_bound=self.bound(horizon),
                )
            # arrivals carry the triplet's intensity as their Poisson rate
            last += float(self.rng.exponential()) / series.intensity
            if single:
                ci = 0
            else:
                ci = int(np.searchsorted(series.cum_weights, self.rng.random(),
                                         side="left"))
            self.gammas.append(last)
            self.comp_idx.append(ci)
            lower = series.lowers[ci]
            if lower > 0.0:
                self.pin_time = min(self.pin_time, last / lower)
            self._values.clear()
            self._sweep = None

    def bound(self, horizon: float) -> float:
        """The remainder bound over [0, horizon] of the arrivals drawn so far."""
        last = self.gammas[-1] if self.gammas else 0.0
        return self.series.bound(min(horizon, self.pin_time), last)

    def value(self, t: float) -> float:
        value = self._values.get(t)
        if value is None:
            if self._sweep is None:
                self._sweep = _PathSweep(
                    self.series.drift, self.series.families,
                    np.array(self.gammas, dtype=float),
                    np.array(self.comp_idx, dtype=int),
                    np.zeros(len(self.gammas), dtype=int), [self.pin_time], 1)
            value = float(self._sweep.values(np.array([t]))[0])
            self._values[t] = value
        return value

    def snapshot(self, horizon: float) -> IdtPath:
        series = self.series
        atoms = tuple(
            (float(g), series.families[ci])
            for g, ci in zip(self.gammas, self.comp_idx)
        )
        return IdtPath(series.drift, series.intensity, atoms, horizon,
                       self.bound(horizon))


def sample_idt_path(triplet: IdtTriplet, horizon: float, rng,
                    tol: float = 1e-3) -> IdtPath:
    """Sample one additive path, truncated with certified remainder <= tol
    (in expectation) over [0, horizon].

    The series stops at the first arrival that certifies the bound.
    """
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    builder = _PathBuilder(_Series(triplet, tol), rng)
    builder.extend_to(horizon)
    return builder.snapshot(horizon)


def sample_conditional_iid(triplet: IdtTriplet, d: int, rng,
                           tol: float = 1e-3) -> np.ndarray:
    """One vector (Y_1, ..., Y_d) of first-passage times Y_k = inf{t : H_t > eta_k}.

    Requires the normalization b + c = 1 so the margins are unit exponential;
    in distribution the output matches sample_minstable of the corresponding
    canonical model.  See sample_conditional_iid_batch for the routes and
    the role of ``tol``.
    """
    return sample_conditional_iid_batch(triplet, d, 1, rng, tol)[0]


def sample_conditional_iid_batch(triplet: IdtTriplet, d: int, n: int, rng,
                                 tol: float = 1e-3) -> np.ndarray:
    """n first-passage vectors, shape (n, d).  See sample_conditional_iid.

    Routes, chosen from the triplet:

    * pure drift (c = 0): iid unit exponentials;
    * a single family with one positive atom: exact jump-by-jump passage;
    * a single Frechet family: exact, H_t = b t + (c t)^(1/alpha) S with S
      positive alpha-stable drawn by Kanter's representation; ``tol`` is
      not used;
    * anything else: each row draws its levels and doubles a horizon per
      coordinate until the path, truncated with certified remainder <= tol,
      exceeds the level; then every coordinate of a block of rows is
      bisected at once on the row's final arrivals.

    Outputs are deterministic given the generator's state; off the Frechet
    route, row i does not depend on n.
    """
    d, n = int(d), int(n)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not triplet.is_normalized(1e-9):
        raise ValueError("first-passage sampling requires b + c = 1")
    if triplet.c == 0.0:
        return rng.exponential(size=(n, d))

    jump = _single_jump_structure(triplet)
    if jump is not None:
        location, size = jump
        out = np.empty((n, d))
        for i in range(n):
            out[i] = _passage_single_jump(triplet.b, triplet.c, location, size,
                                          d, rng)
        return out

    components = triplet.mu.components
    if len(components) == 1 and isinstance(components[0][1], Frechet):
        return _passage_frechet(triplet.b, triplet.c, components[0][1], d, n,
                                rng)

    series = _Series(triplet, tol)
    out = np.empty((n, d))
    for start in range(0, n, _PASSAGE_BLOCK):
        rows = [_bracket_row(series, d, rng)
                for _ in range(min(_PASSAGE_BLOCK, n - start))]
        out[start:start + len(rows)] = _bisect_rows(series, rows, d)
    return out


def _bracket_row(series: _Series, d: int, rng):
    """Draw one row's levels and extend its path until each level is
    bracketed: (builder, levels, t_hi) with H(t_hi) > level per coordinate."""
    builder = _PathBuilder(series, rng)
    etas = rng.exponential(size=d)
    t_his = np.empty(d)
    for k, eta in enumerate(etas):
        t_hi = 1.0
        builder.extend_to(t_hi)
        doublings = 0
        while builder.value(t_hi) <= eta:
            doublings += 1
            if doublings > MAX_DOUBLINGS or math.isinf(t_hi):
                raise ResourceError(
                    f"no passage after {doublings} horizon doublings",
                    achieved_bound=builder.bound(t_hi),
                )
            t_hi *= 2.0
            builder.extend_to(t_hi)
        t_his[k] = t_hi
    return builder, etas, t_his


def _bisect_rows(series: _Series, rows, d: int) -> np.ndarray:
    """Bisect every coordinate of the bracketed rows in one sweep."""
    counts = [len(builder.gammas) for builder, _, _ in rows]
    sweep = _PathSweep(
        series.drift, series.families,
        np.array([g for builder, _, _ in rows for g in builder.gammas]),
        np.array([c for builder, _, _ in rows for c in builder.comp_idx],
                 dtype=int),
        np.repeat(np.arange(len(rows)), counts),
        [builder.pin_time for builder, _, _ in rows], d,
    )
    etas = np.concatenate([etas for _, etas, _ in rows])
    t_his = np.concatenate([t_his for _, _, t_his in rows])
    return _bisect(sweep.at, etas, t_his).reshape(len(rows), d)


def _passage_frechet(drift, intensity, F: Frechet, d, n, rng) -> np.ndarray:
    """Exact first passage for a single Frechet family.

    -log F(x) = c_F x^(-1/alpha), so the jumps add up to
    t^(1/alpha) c_F sum_k gamma_k^(-1/alpha), and with the gammas arriving
    at rate ``intensity`` the path is H_t = drift t + (intensity t)^(1/alpha) S
    where S = c_F sum_k E_k^(-1/alpha) over a unit-rate Poisson process is
    positive alpha-stable with Laplace transform exp(-lambda^alpha)
    (c_F^alpha = 1/Gamma(1 - alpha)).  S is drawn by Kanter's (1975)
    representation S = (A(U) / E)^((1 - alpha) / alpha) with U uniform on
    (0, pi), E unit exponential and Zolotarev's function A.
    """
    a = F.alpha
    etas = rng.exponential(size=(n, d))
    u = np.pi * (1.0 - rng.random(n))  # in (0, pi]; the float pi is below pi
    e = rng.exponential(size=n)
    # (1 - a) log A(u), then log S
    w = (a * np.log(np.sin(a * u)) + (1.0 - a) * np.log(np.sin((1.0 - a) * u))
         - np.log(np.sin(u)))
    log_s = (w - (1.0 - a) * np.log(e)) / a
    # without drift, (intensity t)^(1/a) S = eta at t = (eta / S)^a / intensity
    with np.errstate(divide="ignore"):
        jump_only = np.exp(a * (np.log(etas) - log_s[:, None])) / intensity
    if drift == 0.0:
        return jump_only

    def evaluate(ts, ids):
        return drift * ts + np.exp(np.log(intensity * ts) / a + log_s[ids // d])

    # each increasing term alone reaches eta no earlier than the sum does
    t_hi = np.minimum(etas / drift, jump_only)
    return _bisect(evaluate, etas.ravel(), t_hi.ravel()).reshape(n, d)


def _single_jump_structure(triplet: IdtTriplet):
    """(location, jump size) when every path atom produces one jump at
    gamma / location of deterministic size (possibly +oo), else None."""
    if len(triplet.mu.components) != 1:
        return None
    F = triplet.mu.components[0][1]
    atoms = F.atom_values()
    if atoms is None:
        return None
    values, _ = atoms
    positive = values[values > 0.0]
    if positive.size != 1:
        return None
    location = float(positive[0])
    below = float(F.cdf(location, left=True))
    size = math.inf if below == 0.0 else -math.log(below)
    return location, size


def _passage_single_jump(drift, intensity, location, size, d, rng):
    """Exact first passage for drift plus equally sized jumps at gamma_i/location,
    the gammas arriving at rate ``intensity``."""
    etas = rng.exponential(size=d)
    if math.isinf(size):
        pin = rng.exponential() / (intensity * location)
        if drift > 0.0:
            return np.minimum(etas / drift, pin)
        return np.full(d, pin)
    if drift == 0.0:
        # level after m jumps is m*size; passage at the m-th jump time
        needed = np.floor(etas / size).astype(int) + 1
        top = int(needed.max())
        if top > MAX_ARRIVALS:
            raise ResourceError(
                f"first passage needs {top} arrivals (cap {MAX_ARRIVALS})",
                achieved_bound=float(top),
            )
        gammas = np.cumsum(rng.exponential(size=top)) / intensity
        return gammas[needed - 1] / location

    out = np.full(d, np.nan)
    remaining = sorted(range(d), key=etas.__getitem__)
    pos = 0
    gamma = 0.0
    level = 0.0
    t_prev = 0.0
    for _ in range(MAX_ARRIVALS):
        if pos >= d:
            break
        gamma += float(rng.exponential()) / intensity
        t_jump = gamma / location
        # passages inside the drift segment [t_prev, t_jump)
        while pos < d:
            k = remaining[pos]
            t_star = (etas[k] - level) / drift
            if t_star >= t_jump:
                break
            out[k] = max(t_star, t_prev)
            pos += 1
        level += size
        # passages exactly at the jump location
        while pos < d and drift * t_jump + level > etas[remaining[pos]]:
            out[remaining[pos]] = t_jump
            pos += 1
        t_prev = t_jump
    else:
        raise ResourceError(
            f"first passage exceeded {MAX_ARRIVALS} arrivals", achieved_bound=np.nan
        )
    return out
