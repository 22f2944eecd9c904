"""Samplers: min-stable sequences, simplex vectors, additive paths, first passage.

All samplers take an explicit numpy Generator and are deterministic given
it: its state, and the seed sequence that the path samplers spawn from.

The minimum construction is exact.  Each family of the mixture draws its
own part: a Frechet-type family (-log F an exact power) as the passage of
one stable term, a one-atom family in closed form; the others are walked
together by extremal functions, starting from the minima of those parts.

Paths and first passage share one engine: the arrivals of a Frechet-type
family add up exactly to a stable term s t^(1/alpha) drawn per row
(Kanter 1975), those of the others stay a series.  Only that series
is truncated, and only it takes ``tol``: it stops once the expected
omitted increment over the requested horizon is below ``tol``, using the
envelope -log F(u-) <= 2 (1 - F(u-)) valid above the median, and checked
against one threshold per horizon; families with bounded support terminate
exactly, and atoms below the support infimum pin the path to +oo from the
corresponding time onward, a pinned row scaling its horizon's threshold.

First passage Y_k = inf{t : H_t > eta_k} runs on blocks of rows, as
sample_idt_path runs on one row: it doubles each row's horizon until the
row's certified path exceeds its levels, then bisects every coordinate of
the block in one vectorized sweep on the rows' final paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceError
from .families import UnitMeanCdf
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
_PICKANDS_MAX_RESAMPLES = 100
_BISECT_RTOL = 1e-10
#: rows of one generic first-passage block, which has its own generator
_PASSAGE_BLOCK = 4096
#: arrivals of a row's first draw; each later draw doubles the row's count
_FIRST_DRAW = 8
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
    arrivals carry a family drawn from mu and d iid values of it.  Thinned
    by family, it splits into independent processes of rate w_i, and Z is
    the minimum of their parts, drawn in mixture order: (eta_k / s)^alpha
    if -log F = C x^(-1/alpha), whose arrivals add up to s t^(1/alpha) with
    log s = log S + log(w) / alpha + log(C / c_alpha); gamma_(J_k) / (v w),
    J_k iid geometric(p), for one atom v of mass p.  The other families,
    of total weight w_R, are walked as one process of rate w_R from the
    minima of those parts (mu itself at rate 1 if nothing else is in it).
    That is exact: the parts are independent, and a walk that starts lower
    only stops sooner.
    """
    d, n = int(d), int(n)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if model.b == 1.0:
        return rng.exponential(size=(n, d))
    extremal = np.full((n, d), np.inf)
    walked = []
    for w, F in model.mu:
        alpha = F._power_law()
        if alpha is not None:
            log_s = _log_stable(alpha, np.pi * (1.0 - rng.random(n)),
                                rng.exponential(size=n))[:, None]
            part = np.exp(alpha * (np.log(rng.exponential(size=(n, d)))
                                   - log_s - _stable_shift(w, F, alpha)))
        elif (atom := _one_atom(F)) is not None:
            v, p = atom
            part = _one_atom_minimum(p, d, n, rng) / (v * w)
        else:
            walked.append((w, F))
            continue
        np.minimum(extremal, part, out=extremal)
    if len(walked) == len(model.mu.components):
        _extremal_minimum(model.mu, extremal, 1.0, rng)
    elif walked:
        rate = math.fsum(w for w, _ in walked)
        _extremal_minimum(MixingMeasure([(w / rate, F) for w, F in walked]),
                          extremal, rate, rng)
    if model.b == 0.0:
        return extremal
    independent = rng.exponential(size=(n, d))
    # E / b past the float range for a subnormal b is inf, which never wins
    with np.errstate(over="ignore"):
        return np.minimum(independent / model.b, extremal / (1.0 - model.b))


def _log_stable(a, u, e):
    """log S, S positive a-stable of Laplace transform exp(-lambda^a), from u
    uniform on (0, pi] and e unit exponential (Kanter 1975)."""
    # (1 - a) log A(u)
    w = (a * np.log(np.sin(a * u)) + (1.0 - a) * np.log(np.sin((1.0 - a) * u))
         - np.log(np.sin(u)))
    return (w - (1.0 - a) * np.log(e)) / a


def _stable_shift(rate: float, F, alpha: float) -> float:
    """log(rate^(1/alpha) C / c_alpha), C = -log F(1), c_alpha = Gamma(1 -
    alpha)^(-1/alpha): at ``rate``, F's arrivals sum to e^shift S t^(1/alpha)."""
    return math.log(rate) / alpha + math.log(
        -float(F.log_cdf(1.0)) / math.gamma(1.0 - alpha) ** (-1.0 / alpha))


def _one_atom(F):
    """(v, p) if F has exactly one positive atom v, of mass p; else None."""
    values, weights = F.atom_values() or (np.empty(0), None)
    positive = np.flatnonzero(values > 0.0)
    if positive.size != 1:
        return None
    return float(values[positive[0]]), float(weights[positive[0]])


def _one_atom_minimum(p: float, d: int, n: int, rng) -> np.ndarray:
    """gamma_(J_k) over unit-rate arrivals gamma, J_k iid geometric(p), shape (n, d).

    J = floor(E / -log(1 - p)) + 1 is drawn in floats, so it does not
    saturate for tiny p (numpy's integer geometric does) and is 1 at p = 1.
    gamma is drawn only at each row's sorted distinct J, by gamma gaps:
    gamma_m' - gamma_m ~ Gamma(m' - m).
    """
    with np.errstate(divide="ignore"):
        rate = -np.log1p(-p)
    j = np.floor(rng.exponential(size=(n, d)) / rate) + 1.0
    order = np.argsort(j, axis=1)
    gaps = np.diff(np.take_along_axis(j, order, axis=1), axis=1, prepend=0.0)
    steps = np.zeros_like(gaps)
    new = gaps > 0.0
    steps[new] = rng.standard_gamma(gaps[new])
    out = np.empty_like(steps)
    np.put_along_axis(out, order, np.cumsum(steps, axis=1), axis=1)
    return out


def _extremal_minimum(mu: MixingMeasure, minima: np.ndarray, rate: float,
                      rng) -> None:
    """Lower ``minima`` in place by the arrivals of an independent process of
    rate ``rate`` whose families are drawn from mu, walked by extremal
    functions (Dombry, Engelke & Oesting 2016); exact.

    For each coordinate k the arrivals gamma < Z_k are walked in order.
    Each carries a vector X from the k-th extremal-function law: the family
    drawn from mu, slot k size-biased and the other slots iid
    (_pickands_raw).  Its candidate gamma * X_k / X is dropped if it
    undercuts some Z_j, j < k, because the walk over coordinate j has
    already met every arrival that lowers Z_j; otherwise it lowers Z.  From
    infinite minima a row draws d vectors on average.  The open rows'
    minima are kept compacted, and a row is written back once it closes.
    """
    n, d = minima.shape
    for k in range(d):
        gamma = rng.exponential(size=n) / rate
        rows = np.nonzero(gamma < minima[:, k])[0]
        # np.take and np.compress: several times faster than fancy indexing
        # on rows of a 2-d array
        g, current = gamma[rows], np.take(minima, rows, axis=0)
        arrivals = 0
        while rows.size:
            if arrivals >= MAX_ARRIVALS:
                raise ResourceError(
                    f"minimum construction exceeded {MAX_ARRIVALS} arrivals "
                    f"in coordinate {k} with {rows.size} rows open")
            x = _pickands_raw(mu, d, rows.size, np.full(rows.size, k), rng)
            # a candidate past the float range is inf, which lowers nothing;
            # an infinite x_k makes inf / inf in column k, which is overwritten
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                candidate = (g * x[:, k])[:, None] / x
            candidate[:, k] = g
            keep = ~np.any(candidate[:, :k] < current[:, :k], axis=1)
            np.minimum(current, candidate, out=current, where=keep[:, None])
            g += rng.exponential(size=rows.size) / rate
            still = g < current[:, k]
            if not still.all():
                minima[rows[~still]] = np.compress(~still, current, axis=0)
                rows, g = rows[still], g[still]
                current = np.compress(still, current, axis=0)
            arrivals += 1


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
                f"simplex sampler hit {_PICKANDS_MAX_RESAMPLES} resample attempts "
                f"with {rows.size} rows left")
        w[rows] = _pickands_raw(model.mu, d, rows.size, picked[rows], rng)
        bad = w[rows].sum(axis=1) <= 0.0
        rows = rows[bad]
        resampled += int(bad.sum())
        attempts += 1

    # a size-biased draw can be inf (Frechet with alpha near 1); such a row
    # normalizes to its limit, spread over its infinite coordinates
    infinite = np.isinf(w).any(axis=1)
    w[infinite] = np.isinf(w[infinite])
    return w / w.sum(axis=1, keepdims=True), resampled


def _pickands_raw(mu: MixingMeasure, d, m, picked, rng):
    """m rows of a family drawn from mu: slot ``picked`` size-biased, the
    others iid.  A family drawn by every row takes them without selection."""
    weights, families = _mixture_arrays(mu)
    comp = (np.zeros(m, dtype=int) if len(families) == 1 else
            np.searchsorted(np.cumsum(weights), rng.random(m), side="left"))
    out, biased = np.empty((m, d)), np.empty(m)
    u = rng.random((m, d))
    for ci, F in enumerate(families):
        rows = np.flatnonzero(comp == ci)
        if rows.size == m:
            out = np.asarray(F.quantile(u), dtype=float)
            biased = F.sample_size_biased(rng, size=m)
        elif rows.size:
            out[rows] = F.quantile(np.take(u, rows, axis=0))
            biased[rows] = F.sample_size_biased(rng, size=rows.size)
    out[np.arange(m), picked] = biased
    return out


# ---------------------------------------------------------------------------
# additive-path (LePage series) sampler and first passage
# ---------------------------------------------------------------------------


class _PathSweep:
    """Truncated paths of several rows, each evaluated at m points in one pass.

    Entry r*m + j is the j-th point of row r, whose value at t is

        H_r(t) = drift t + sum_i s_ri t^(1/alpha_i) + sum_k -log F_k((gamma_k/t)-)

    over the row's stable terms (alpha_i, log s_ri) and arrivals (gamma_k,
    F_k), and +oo from the row's pin time on.  Each family's (arrival,
    entry) pairs go through one log_cdf call and are summed per entry by
    bincount, in arrival order, so the value of an entry does not depend on
    which other rows share the sweep.
    """

    def __init__(self, drift, families, gammas, comps, owners, pins, m, stable):
        self.drift = drift
        self.stable = [(alpha, np.repeat(scales, m)) for alpha, scales in stable]
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
        with np.errstate(divide="ignore", over="ignore"):
            for alpha, scales in self.stable:
                total = total + np.exp(np.log(ts) / alpha + scales)
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
        if ids.size == self.ids.size:
            return self.values(ts)
        if 2 * ids.size <= self.ids.size:
            keep = np.isin(self.ids, ids)
            index = np.cumsum(keep) - 1
            self.groups = [
                (F, gammas[keep[entries]], index[entries[keep[entries]]])
                for F, gammas, entries in self.groups
            ]
            self.stable = [(alpha, scales[keep]) for alpha, scales in self.stable]
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

    ``stable`` holds (alpha, log s) per Frechet-type family, whose arrivals
    add up to s t^(1/alpha); ``atoms`` lists the arrivals (gamma, F) of the
    others kept before the stopping rule fired, drawn at rate
    ``intensity``, so evaluation needs no further scaling:

        H(t) = drift * t + sum_i s_i t^(1/alpha_i) + sum_k -log F_k((gamma_k / t)-).

    H is non-decreasing, starts at H(0) = 0, and may equal +oo.
    ``truncation_bound`` is the certified bound on the expected increment
    that the series omits over [0, horizon].
    """

    drift: float
    intensity: float
    atoms: tuple[tuple[float, UnitMeanCdf], ...]
    horizon: float
    truncation_bound: float
    stable: tuple[tuple[float, float], ...] = ()

    @cached_property
    def _arrivals(self):
        """(families, gammas, family indices, pin time) of the atoms."""
        families = list(dict.fromkeys(F for _, F in self.atoms))
        gammas = np.array([g for g, _ in self.atoms], dtype=float)
        comps = np.array([families.index(F) for _, F in self.atoms], dtype=int)
        pin = min((g / F.support_lower() for g, F in self.atoms
                   if F.support_lower() > 0.0), default=math.inf)
        return families, gammas, comps, pin

    def _sweep(self, m: int) -> _PathSweep:
        families, gammas, comps, pin = self._arrivals
        return _PathSweep(self.drift, families, gammas, comps,
                          np.zeros(gammas.size, dtype=int), [pin], m,
                          [(alpha, [scale]) for alpha, scale in self.stable])

    def value(self, t: float) -> float:
        return float(self.values(np.asarray([t]))[0])

    def values(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0.0) or np.any(ts > self.horizon * (1.0 + 1e-12)):
            raise ValueError("evaluation points must lie in [0, horizon]")
        flat = ts.ravel()
        out = np.empty(flat.size)
        # bound the (arrival, point) pairs held at once
        step = max(1, _SWEEP_PAIRS // max(1, self._arrivals[1].size))
        for start in range(0, flat.size, step):
            chunk = flat[start:start + step]
            out[start:start + step] = self._sweep(chunk.size).values(chunk)
        return out.reshape(ts.shape)


class _Series:
    """What the rows of one batch share: the triplet, the tolerance and the
    certification thresholds solved so far, one per horizon.  At rate c w_i,
    a component with -log F = C x^(-1/alpha) sums to the stable term
    (C / c_alpha) (c w_i t)^(1/alpha) S; the series holds the others.

    A row's series may be cut over [0, horizon] once its last arrival
    reaches eff * median_max, eff = min(horizon, pin), and the remainder
    bound

        bound(eff, last) = 2 * intensity * eff * sum_i w_i tail_i(last / eff)

    is at most ``tol``.  The bound decreases in ``last``, and bound(eff, x)
    = (eff / horizon) bound(horizon, x horizon / eff), so it is solved once
    per horizon for its threshold, the least float at which
    bound(horizon, .) is at most ``tol``, and a row is certified once
    last * horizon / eff reaches it: for an unpinned row (eff = horizon)
    that is the bound's own comparison, and a pinned row's bound is then at
    most eff / horizon times ``tol``.  If every family has bounded support,
    the series is instead certified, exactly and without ``tol``, once its
    last arrival reaches eff * upper, the largest support bound: later
    arrivals add nothing on [0, eff].
    """

    def __init__(self, triplet: IdtTriplet, tol: float):
        self.drift = triplet.b
        self.intensity = triplet.c
        self.tol = tol
        self._thresholds = {}
        weights, families = _mixture_arrays(triplet.mu)
        alphas = [F._power_law() for F in families]
        rest = np.array([a is None for a in alphas])
        self.alphas = np.array([a for a in alphas if a is not None], dtype=float)
        self.shifts = np.array([
            _stable_shift(self.intensity * w, F, a)
            for w, F, a in zip(weights, families, alphas) if a is not None])
        # the weights sum to 1 only within 1e-12: unchanged unless a term splits off
        share = 1.0 if rest.all() else weights[rest].sum()
        self.intensity *= share
        self.weights = weights[rest] / share
        self.families = [F for F, a in zip(families, alphas) if a is None]
        self.median_max = max([0.0] + [float(F.quantile(0.5)) for F in self.families])
        self.lowers = np.array([F.support_lower() for F in self.families])
        # with no family left every cut of the series is exact
        self.upper = max([0.0] + [F.support_upper() for F in self.families])

    def scales(self, m: int, rng) -> list:
        """(alpha, log s of m rows) per term, log s - shift = log S with S
        positive alpha-stable (_log_stable), U and E from the children of
        rng keyed 0 and 1: a row needs no later rows."""
        a = self.alphas
        # in (0, pi]; the float pi is below pi
        u = np.pi * (1.0 - _child(rng, 0).random((m, a.size)))
        e = _child(rng, 1).exponential(size=(m, a.size))
        log_s = _log_stable(a, u, e) + self.shifts
        return list(zip(a.tolist(), log_s.T))

    def bound(self, eff, last):
        """Expected omitted increment over [0, eff] after arrivals up to
        ``last``: 2 c eff sum_i w_i int_(last / eff)^oo (1 - F_i) du."""
        tail = sum(w * np.asarray(F.tail_integral(last / eff))
                   for w, F in zip(self.weights, self.families))
        return 2.0 * self.intensity * eff * tail

    def thresholds(self, horizon) -> np.ndarray:
        """The threshold of each entry's horizon (see _threshold)."""
        values, inverse = np.unique(horizon, return_inverse=True)
        return np.array([self._threshold(v) for v in values.tolist()])[inverse]

    def certified(self, last, pin, horizon) -> np.ndarray:
        """Whether a series cut after an arrival at ``last``, with pin time
        ``pin``, is certified over [0, horizon]; elementwise."""
        eff = np.minimum(horizon, pin)
        if math.isfinite(self.upper):
            return last >= eff * self.upper
        return ((last >= eff * self.median_max)
                & (last * (horizon / eff) >= self.thresholds(horizon)))

    def _threshold(self, horizon: float) -> float:
        """The least float at which the bound over [0, horizon] is at most
        tol (0 if it is at 0)."""
        cached = self._thresholds.get(horizon)
        if cached is not None:
            return cached
        if self.bound(horizon, 0.0) <= self.tol:
            hi = 0.0
        else:
            lo, hi = 0.0, horizon * max(self.median_max, 1.0)
            while self.bound(horizon, hi) > self.tol:
                lo, hi = hi, 2.0 * hi
                if math.isinf(hi):
                    raise ResourceError(
                        f"path series cannot certify tol {self.tol:g} "
                        f"over [0, {horizon:g}]", achieved_bound=math.inf)
            # halve [lo, hi] until lo and hi are adjacent floats
            while (mid := 0.5 * lo + 0.5 * hi) not in (lo, hi):
                if self.bound(horizon, mid) <= self.tol:
                    hi = mid
                else:
                    lo = mid
        self._thresholds[horizon] = hi
        return hi


def _child(rng, *key):
    """The generator of the child of rng's SeedSequence with spawn key ``key``."""
    seq = rng.bit_generator.seed_seq
    return np.random.Generator(type(rng.bit_generator)(np.random.SeedSequence(
        seq.entropy, spawn_key=(*seq.spawn_key, *key), pool_size=seq.pool_size)))


#: one stored arrival: its row, its position in the row, gamma, family index,
#: and the row's pin time up to and including it
_ARRIVAL = np.dtype([("row", np.int64), ("pos", np.int64), ("gamma", float),
                     ("comp", np.int64), ("pin", float)])


class _Rows:
    """The LePage series of a block of rows, each certified over its own
    horizon.  In round r each uncertified row draws _FIRST_DRAW arrivals,
    or as many as it holds, from the child of the block generator keyed by
    (r, count): rows drawing the same count take consecutive rows of one
    matrix, so a row's arrivals depend only on itself and the rows before
    it.  A row keeps its shortest certified prefix (``kept`` arrivals);
    until then ``kept`` is the shortest prefix not ruled out.  Either ends
    in the row's latest draw.
    """

    def __init__(self, series: _Series, horizons, rng):
        m = len(horizons)
        self.series = series
        self.rng = rng
        self.stable = series.scales(m, rng) if series.alphas.size else []
        self.round = 0
        self.horizon = np.array(horizons, dtype=float)
        self.count = np.zeros(m, dtype=np.int64)
        self.kept = np.zeros(m, dtype=np.int64)
        self.certified = np.zeros(m, dtype=bool)
        # store index minus row position, over the row's latest draw
        self.offset = np.zeros(m, dtype=np.int64)
        self.arrivals = np.empty(0, dtype=_ARRIVAL)
        self.size = 0
        self.check(np.arange(m))

    def extend(self, rows) -> None:
        """Draw the next arrivals of ``rows``, then check them."""
        series = self.series
        count = self.count[rows]
        last, pin = self._ends(rows, count)
        eff = np.minimum(self.horizon[rows], pin)
        if count.max() >= MAX_ARRIVALS:
            raise ResourceError(
                f"path series exceeded {MAX_ARRIVALS} arrivals",
                achieved_bound=float(np.max(series.bound(eff, last))))
        self._require(last, eff, self.horizon[rows])
        sizes = np.minimum(np.maximum(count, _FIRST_DRAW), MAX_ARRIVALS - count)
        for size in np.unique(sizes).tolist():
            sel = sizes == size
            group = rows[sel]
            m = group.size
            gaps = _child(self.rng, self.round, size).exponential(size=(m, size))
            gammas = last[sel, None] + np.cumsum(gaps, axis=1) / series.intensity
            comps = (np.zeros((m, size), dtype=np.int64) if len(series.families) == 1
                     else np.searchsorted(np.cumsum(series.weights), _child(
                         self.rng, self.round, size, 1).random((m, size))))
            lowers = series.lowers[comps]
            with np.errstate(divide="ignore"):
                pins = np.where(lowers > 0.0, gammas / lowers, np.inf)
            new = self._store(m * size)
            new["row"] = np.repeat(group, size)
            new["pos"] = (count[sel, None] + np.arange(size)).ravel()
            new["gamma"], new["comp"] = gammas.ravel(), comps.ravel()
            new["pin"] = np.minimum(np.minimum.accumulate(pins, axis=1),
                                    pin[sel, None]).ravel()
            self.offset[group] = (self.size - m * size + size * np.arange(m)
                                  - count[sel])
            self.count[group] += size
        self.check(rows)

    def _require(self, last, eff, horizon) -> None:
        """Fail fast where certifying over [0, eff] expects over 2 * MAX_ARRIVALS
        arrivals, for rows that no later arrival can pin earlier than eff."""
        series = self.series
        final = last >= eff * series.lowers.max()
        if not np.any(final):
            return
        eff, horizon = eff[final], horizon[final]
        if math.isfinite(series.upper):
            point = eff * series.upper
        else:
            point = np.maximum(eff * series.median_max,
                               series.thresholds(horizon) * (eff / horizon))
        worst = int(np.argmax(point))
        needed, v = series.intensity * point[worst], eff[worst]
        if needed > 2.0 * MAX_ARRIVALS:
            raise ResourceError(
                f"path series needs about {needed:.3g} arrivals to certify "
                f"tol {series.tol:g} over [0, {v:g}] (cap {MAX_ARRIVALS})",
                achieved_bound=float(series.bound(v, MAX_ARRIVALS / series.intensity)))

    def _store(self, n: int) -> np.ndarray:
        """The next n slots of the store."""
        end = self.size + n
        if end > self.arrivals.size:
            grown = np.empty(max(end, 2 * self.arrivals.size), dtype=_ARRIVAL)
            grown[:self.size] = self.arrivals[:self.size]
            self.arrivals = grown
        self.size = end
        return self.arrivals[end - n:end]

    def _ends(self, rows, n):
        """(gamma, pin) of the n-th arrival of each of ``rows``, which must
        lie in the row's latest draw; (0, inf) for n = 0."""
        last, pin = np.zeros(n.shape), np.full(n.shape, np.inf)
        some = n > 0
        end = self.arrivals[(self.offset[rows] + n - 1)[some]]
        last[some], pin[some] = end["gamma"], end["pin"]
        return last, pin

    def check(self, rows) -> None:
        """Search each of ``rows`` from ``kept`` for its certified prefix."""
        kept = self.kept[rows]
        lengths = self.count[rows] - kept + 1
        starts = np.cumsum(lengths) - lengths
        prefixes = np.repeat(kept - starts, lengths) + np.arange(lengths.sum())
        ok = self.series.certified(*self._ends(np.repeat(rows, lengths), prefixes),
                                   np.repeat(self.horizon[rows], lengths))
        # the first certifying candidate of each row, at least lengths if none
        first = np.minimum.reduceat(np.where(ok, np.arange(ok.size), ok.size),
                                    starts) - starts
        self.kept[rows] = kept + np.minimum(first, lengths)
        self.certified[rows] = first < lengths

    def _kept_arrivals(self, rows):
        """The kept arrivals of ``rows``, and their rows' indices in rows."""
        local = np.full(self.horizon.size, -1)
        local[rows] = np.arange(rows.size)
        stored = self.arrivals[:self.size]
        owner = stored["row"]
        kept = stored[(local[owner] >= 0) & (stored["pos"] < self.kept[owner])]
        return kept, local[kept["row"]]

    def sweep(self, rows, m: int) -> _PathSweep:
        """The kept paths of ``rows``, m points each."""
        kept, local = self._kept_arrivals(rows)
        _, pin = self._ends(rows, self.kept[rows])
        return _PathSweep(self.series.drift, self.series.families,
                          kept["gamma"], kept["comp"], local, pin, m,
                          [(alpha, scales[rows]) for alpha, scales in self.stable])

    def path(self, row: int) -> IdtPath:
        """The kept path of one row."""
        series, horizon = self.series, float(self.horizon[row])
        kept, _ = self._kept_arrivals(np.array([row]))
        (last,), (pin,) = self._ends(np.array([row]), self.kept[[row]])
        families = [series.families[c] for c in kept["comp"]]
        return IdtPath(series.drift, series.intensity,
                       tuple(zip(kept["gamma"].tolist(), families)), horizon,
                       float(series.bound(min(horizon, pin), last)),
                       tuple((a, float(s[row])) for a, s in self.stable))


def sample_idt_path(triplet: IdtTriplet, horizon: float, rng,
                    tol: float = 1e-3) -> IdtPath:
    """Sample one additive path, truncated with certified remainder <= tol
    (in expectation) over [0, horizon].

    The series stops at the first arrival that certifies the bound.
    """
    horizon = float(horizon)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if triplet.c == 0.0:
        return IdtPath(triplet.b, 0.0, (), horizon, 0.0)
    rows = _Rows(_Series(triplet, tol), [horizon], rng.spawn(1)[0])
    while not rows.certified[0]:
        rows.extend(np.array([0]))
        rows.round += 1
    return rows.path(0)


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

    Pure drift (c = 0) gives iid unit exponentials; every other triplet runs
    the block engine _first_passage.  ``tol`` bounds only the series of the
    families that are not Frechet-type.  Outputs are deterministic given the
    generator, and row i does not depend on n.
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
    return _first_passage(_Series(triplet, tol), d, n, rng)


def _first_passage(series: _Series, d: int, n: int, rng) -> np.ndarray:
    """n rows of d first passages, in blocks of _PASSAGE_BLOCK rows, each with
    its own child generator.  No term of H reaches eta before H does, so the
    bisection's top is the least of each stable term's passage (eta / s)^alpha
    and the row's horizon (eta / drift with no series): exact for one term."""
    out = np.empty((n, d))
    starts = range(0, n, _PASSAGE_BLOCK)
    for start, block_rng in zip(starts, rng.spawn(len(starts))):
        m = min(_PASSAGE_BLOCK, n - start)
        rows, etas = _passage_rows(series, d, m, block_rng)
        sweep = rows.sweep(np.arange(m), d)
        eta = etas.ravel()
        with np.errstate(divide="ignore"):
            t_hi = (np.repeat(rows.horizon, d) if series.families
                    else eta / series.drift)
            for alpha, scales in sweep.stable:
                t_hi = np.minimum(t_hi, np.exp(alpha * (np.log(eta) - scales)))
        if series.families or series.drift or len(sweep.stable) > 1:
            t_hi = _bisect(sweep.at, eta, t_hi)
        out[start:start + m] = t_hi.reshape(m, d)
    return out


def _passage_rows(series: _Series, d: int, m: int, rng):
    """(rows, levels): m rows of d levels drawn from rng, and their paths,
    certified over a horizon 2^j above the levels (1, unused, if no series)."""
    etas = rng.exponential(size=(m, d))
    rows = _Rows(series, np.ones(m), rng)
    pending = np.full(m, bool(series.families))
    while np.any(pending):
        drawing = np.flatnonzero(pending & ~rows.certified)
        if drawing.size:
            rows.extend(drawing)
        ready = np.flatnonzero(pending & rows.certified)
        if ready.size:
            above = (rows.sweep(ready, 1).values(rows.horizon[ready])
                     > etas[ready].max(axis=1))
            pending[ready[above]] = False
            again = ready[~above]
            rows.horizon[again] *= 2.0
            rows.check(again)
        rows.round += 1
    return rows, etas
