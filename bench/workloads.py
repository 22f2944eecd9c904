"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, then offers one
fixed operation that the runner repeats: every repetition gets the same
inputs (fresh generators seeded the same way), so repetitions do identical
work and their outputs must be identical.  ``check`` compares one output
with values computed apart from the program (see reference.py) and with
properties the method must have; it returns a list of problems, empty when
the output is correct.

Seeds: stream k of workload seed s is numpy's SeedSequence([s, k]); a CLI
``--seed`` is the first 32-bit word that SeedSequence generates.  The
evaluator matrix uses stream 0, the generic draws streams 1 to 4.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

import reference

SPECS = Path(__file__).resolve().parent / "specs"
Z_MAX = 4.0


def stream(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def cli_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def load_spec(name: str):
    with open(SPECS / name, encoding="utf-8") as fh:
        return json.load(fh)


def _z_problem(label, empirical, exact, se):
    z = (empirical - exact) / se if se > 0.0 else (0.0 if empirical == exact else math.inf)
    if not abs(z) <= Z_MAX:
        return [f"{label}: {empirical!r} vs {exact!r} gives |z| = {abs(z):.2f} > {Z_MAX}"]
    return []


def survival_problems(label, y, t, l_ref):
    """Empirical P(Y > t componentwise) against exp(-l(t))."""
    p = math.exp(-l_ref)
    hits = float(np.mean(np.all(y > np.asarray(t), axis=1)))
    return _z_problem(f"{label} survival", hits, p, math.sqrt(p * (1.0 - p) / len(y)))


def mean_problems(label, values, exact):
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    return _z_problem(f"{label} mean", float(values.mean()), exact, se)


class SampleLight:
    """``maxstable sample`` in-process, one invocation per light model."""

    name = "sample_light"
    item = "CSV value written"
    spec_files = ("light_frechet.json", "light_mixture.json")
    d = 5
    t = (0.1, 0.2, 0.3, 0.4, 0.5)

    def __init__(self, seed: int, tiny: bool = False):
        from maxstable import cli

        self.cli = cli
        self.n = 5000 if tiny else 20000
        self.seeds = [cli_seed(seed, k) for k in range(len(self.spec_files))]
        self.refs = [reference.model(load_spec(f), self.t) for f in self.spec_files]
        self.items = self.n * self.d * len(self.spec_files)

    def op(self, workers: int = 1):
        outputs = []
        for spec, seed in zip(self.spec_files, self.seeds):
            buf = io.StringIO()
            rc = self.cli.run(["sample", "--spec", str(SPECS / spec), "--d", str(self.d),
                               "--n", str(self.n), "--seed", str(seed),
                               "--workers", str(workers)], buf)
            outputs.append((rc, buf.getvalue()))
        return outputs

    def check(self, outputs):
        problems = []
        header = ",".join(f"y{i + 1}" for i in range(self.d))
        for spec, l_ref, (rc, text) in zip(self.spec_files, self.refs, outputs):
            if rc != 0:
                problems.append(f"{spec}: exit code {rc}")
                continue
            lines = text.splitlines()
            if not lines or lines[0] != header:
                problems.append(f"{spec}: header {lines[:1]!r}, expected {header!r}")
                continue
            try:
                y = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
            except ValueError as exc:
                problems.append(f"{spec}: unparsable CSV ({exc})")
                continue
            if y.shape != (self.n, self.d):
                problems.append(f"{spec}: CSV has shape {y.shape}, expected "
                                f"{(self.n, self.d)}")
                continue
            if not (np.all(np.isfinite(y)) and np.all(y > 0.0)):
                problems.append(f"{spec}: values not all finite and positive")
                continue
            problems += mean_problems(f"{spec} first margin", y[:, 0], 1.0)
            problems += survival_problems(spec, y, self.t, l_ref)
        return problems

    def extra_checks(self, outputs):
        if self.op(workers=2) != outputs:
            return ["output differs between --workers 1 and --workers 2"]
        return []


class VerifyHeavy:
    """``maxstable verify`` in-process on a heavy-tailed mixture, two workers."""

    name = "verify_heavy"
    item = "Monte Carlo row drawn"
    spec_files = ("heavy_mixture.json",)
    t = (1.0, 1.0, 1.0)
    header = "name,empirical,exact,std_error,z_score,n,passed"

    def __init__(self, seed: int, tiny: bool = False):
        from maxstable import cli

        self.cli = cli
        self.n = 2048 if tiny else 16384
        self.seed = cli_seed(seed, 0)
        self.l_ref = reference.model(load_spec(self.spec_files[0]), self.t)
        self.items = 3 * self.n

    def op(self):
        buf = io.StringIO()
        rc = self.cli.run(["verify", "--spec", str(SPECS / self.spec_files[0]),
                           "--t", ",".join(str(x) for x in self.t), "--n", str(self.n),
                           "--seed", str(self.seed), "--workers", "2"], buf)
        return rc, buf.getvalue()

    def check(self, output):
        rc, text = output
        problems = [] if rc == 0 else [f"exit code {rc}"]
        lines = text.splitlines()
        if not lines or lines[0] != self.header:
            return problems + [f"report header {lines[:1]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        kinds = [row[0].split("[")[0] for row in rows]
        if kinds != ["survival", "pickands", "margin"] or any(len(r) != 7 for r in rows):
            return problems + [f"report rows {kinds!r}, expected survival, pickands, "
                               "margin"]
        exact = {"survival": math.exp(-self.l_ref), "pickands": self.l_ref, "margin": 1.0}
        for kind, (_, emp, ex, se, z, n, passed) in zip(kinds, rows):
            if passed != "true":
                problems.append(f"{kind} row has passed={passed}")
            if int(n) != self.n:
                problems.append(f"{kind} row has n={n}, expected {self.n}")
            if not abs(float(ex) - exact[kind]) <= 1e-12 * abs(exact[kind]):
                problems.append(f"{kind} exact {ex} != reference {exact[kind]!r}")
            problems += _z_problem(kind, float(emp), exact[kind], float(se))
        return problems

    def extra_checks(self, output):
        return []


class EvalRoutes:
    """Library evaluators over family x mixture x b x d x t.

    Closed-form models get ``CLOSED_T`` weight vectors per dimension and models
    on the quadrature route ``QUAD_T``, so that both routes take a
    substantial share of a pass (a closed form costs ~0.02-0.1 ms, a
    quadrature ~0.5-5 ms).
    """

    spec_files = ("eval_routes.json",)
    dims = (2, 5, 10)
    CLOSED_T = 40
    QUAD_T = 2
    HOMOGENEITY = 2.5
    ALPHA = 0.5
    DRIFT_N = (4, 9)
    # known faults: fixed inputs, each its own operation outside the timed pass
    FAULT_T = (1.0, 2.0, 0.5)

    def __init__(self, seed: int, tiny: bool = False):
        import maxstable
        from maxstable import stdf

        self.stdf = stdf
        closed_t, quad_t = (1, 1) if tiny else (self.CLOSED_T, self.QUAD_T)
        rng = stream(seed, 0)
        specs = load_spec(self.spec_files[0])
        self.calls = []  # (label, fn, args, reference, tolerance, bounds)

        def add(label, fn, args, ref, scale=1.0, bounds=None):
            self.calls.append((label, fn, args, ref, 1e-9 * scale, bounds))

        def family_of(spec):
            return maxstable.parse_model(json.dumps(spec)).canonical.mu.components[0][1]

        singles = [s for s in specs if s["b"] == 0.0 and len(s["mu"]) == 1]
        for spec in specs:
            parsed = maxstable.parse_model(json.dumps(spec))
            ev, model = parsed.evaluator(), parsed.canonical
            label = json.dumps(spec)
            quad_route = "tilted" in label

            def l_ref(t, spec=spec):
                return reference.model(spec, t)

            for d in self.dims:
                for _ in range(quad_t if quad_route else closed_t):
                    t = rng.uniform(0.2, 2.0, d)
                    perm = rng.permutation(d)
                    ref = l_ref(t)
                    bounds = (float(t.max()), float(t.sum()))
                    c = self.HOMOGENEITY
                    add(f"evaluator {label} t={t.tolist()}", ev, (t,), ref, bounds=bounds)
                    add(f"evaluator {label} {c}*t", ev, (c * t,), c * ref, c,
                        (c * bounds[0], c * bounds[1]))
                    add(f"evaluator {label} permuted t", ev, (t[perm],), ref, bounds=bounds)
                    u = np.exp(-t)
                    add(f"copula {label} u=exp(-t)", stdf.copula, (model, u),
                        math.exp(-ref), math.exp(-ref),
                        (float(np.prod(u)), float(u.min())))
            if quad_route:
                continue
            for d in self.dims:
                t = rng.uniform(0.2, 2.0, d)
                add(f"stable {label}", stdf.stable_transform, (model, self.ALPHA, t),
                    reference.stable(l_ref, self.ALPHA, t.tolist()))
            for d in self.dims[:2]:
                t = rng.uniform(0.2, 2.0, d)
                add(f"inclusion-exclusion {label}", stdf.inclusion_exclusion_transform,
                    (model, t), reference.inclusion_exclusion(l_ref, t.tolist()))
            for n_max in self.DRIFT_N:
                add(f"drift {label} n={n_max}", stdf.estimate_drift, (model, n_max),
                    reference.drift(l_ref, n_max))
        for spec in singles:
            F = family_of(spec)
            l_F = reference.family(spec["mu"][0])
            add(f"pairwise_l2 {F!r}", stdf.pairwise_l2_identity, (F,), l_F([1.0, 1.0]))
            for d in self.dims:
                for _ in range(quad_t):
                    t = rng.uniform(0.2, 2.0, d)
                    add(f"quadrature {F!r} t={t.tolist()}", self._extremal,
                        (F, t, "quadrature"), l_F(t.tolist()),
                        bounds=(float(t.max()), float(t.sum())))
        self.items = len(self.calls)
        self.faults = self._fault_cases(maxstable)

    def _extremal(self, F, t, method):
        # looked up at call time, so that the tracer sees it
        return self.stdf.stdf_extremal(F, t, method=method)

    def _fault_cases(self, maxstable):
        t0 = np.array(self.FAULT_T)
        tilted = maxstable.tilt(maxstable.UnitExponential(), 2.0)
        l_tilted = reference.family({"family": "tilted", "z": 2.0,
                                     "base": {"family": "unit_exponential"}})(self.FAULT_T)
        frechet = maxstable.Frechet(0.5)
        cases = []
        # 1. tail_quad floors its split point at 1, missing the mass at tiny scale
        for c in (1e-8, 1e-6, 1e6):
            cases.append((f"tilted exponential at {c:g}*t", self._extremal,
                          (tilted, c * t0, "auto"), c * l_tilted))
        # 2. the logistic closed form under- and overflows
        for c in (1e-200, 1e200):
            cases.append((f"Frechet(0.5) at {c:g}*t", self._extremal,
                          (frechet, c * t0, "auto"),
                          c * reference.logistic(self.FAULT_T, 0.5)))
        # 3. the quadrature route loses heavy tails without raising
        for alpha in (0.98, 0.99, 0.999):
            cases.append((f"Frechet({alpha}) by quadrature", self._extremal,
                          (maxstable.Frechet(alpha), t0, "quadrature"),
                          reference.logistic(self.FAULT_T, alpha)))
        return cases

    def run_fault(self, case) -> bool:
        """True when the call returns the reference value or raises NumericError."""
        from maxstable import NumericError

        _, fn, args, ref = case
        try:
            value = fn(*args)
        except NumericError:
            return True
        return math.isfinite(value) and abs(value - ref) <= 1e-9 * abs(ref)

    def op(self):
        return [fn(*args) for _, fn, args, _, _, _ in self.calls]

    def check(self, values):
        problems = []
        for value, (label, _, _, ref, tol, bounds) in zip(values, self.calls):
            if not abs(value - ref) <= tol:
                problems.append(f"{label}: {value!r} vs reference {ref!r}")
            if bounds is not None:
                lo, hi = bounds
                slack = 1e-9 * max(1.0, hi)
                if not lo - slack <= value <= hi + slack:
                    problems.append(f"{label}: {value!r} outside [{lo!r}, {hi!r}]")
        if len(values) != len(self.calls):
            problems.append(f"{len(values)} values for {len(self.calls)} calls")
        return problems


class GenericDraws:
    """The generic size-biased bisection and the first-passage path series."""

    spec_files = ("generic_draws.json",)
    d = 3
    t_simplex = (1.0, 0.5, 2.0)
    t_passage = (0.3, 0.6, 0.9)
    POOL_EXTRA = 48

    def __init__(self, seed: int, tiny: bool = False):
        import maxstable
        from maxstable import samplers

        self.samplers = samplers
        self.seed = seed
        pickands, *triplets = load_spec(self.spec_files[0])
        self.triplet_specs = triplets
        self.model = maxstable.parse_model(json.dumps(pickands)).canonical
        self.triplets = [maxstable.parse_triplet(json.dumps(s)) for s in triplets]
        self.sizes = (4, 64, 32) if tiny else (12, 768, 384)
        self.pool_extra = 16 if tiny else self.POOL_EXTRA
        self.items = sum(self.sizes)
        self.l_simplex = reference.model(pickands, self.t_simplex)
        self.l_passage = [reference.triplet(s, self.t_passage) for s in triplets]

    def op(self):
        n_pick, *n_pass = self.sizes
        coords, _ = self.samplers.sample_pickands_batch(self.model, self.d, n_pick,
                                                        stream(self.seed, 1))
        passages = [
            self.samplers.sample_conditional_iid_batch(triplet, self.d, n,
                                                       stream(self.seed, k + 2))
            for k, (triplet, n) in enumerate(zip(self.triplets, n_pass))
        ]
        return [coords] + passages

    def check(self, output):
        coords, *passages = output
        problems = []
        if coords.shape != (self.sizes[0], self.d):
            problems.append(f"simplex rows have shape {coords.shape}")
        elif np.any(coords < 0.0) or np.any(np.abs(coords.sum(axis=1) - 1.0) > 1e-12):
            problems.append("simplex rows not non-negative with unit sum")
        for spec, y, n, l_ref in zip(self.triplet_specs, passages, self.sizes[1:],
                                     self.l_passage):
            label = f"first passage {json.dumps(spec)}"
            if y.shape != (n, self.d) or not np.all(np.isfinite(y)) or np.any(y < 0.0):
                problems.append(f"{label}: shape {y.shape} or non-finite values")
                continue
            problems += survival_problems(label, y, self.t_passage, l_ref)
            problems += mean_problems(f"{label} margins", y.mean(axis=1), 1.0)
        return problems

    def extra_checks(self, output):
        """d * mean(max t X) against l(t), pooling the operation's simplex rows
        with ``POOL_EXTRA`` more from stream 4 so the z-test has enough rows."""
        extra, _ = self.samplers.sample_pickands_batch(
            self.model, self.d, self.pool_extra, stream(self.seed, 4))
        pooled = np.concatenate([output[0], extra])
        vals = self.d * np.max(np.asarray(self.t_simplex) * pooled, axis=1)
        return mean_problems("pooled d*max(t*X)", vals, self.l_simplex)


class Library:
    """The evaluator matrix and the generic draws, one after the other.

    Both drive the library directly and leave ``cli`` and the minimum
    construction idle.  Each alone was too sensitive to the machine's
    speed phases for a short run, so they share one workload whose runs can
    be long enough (see README.md).
    """

    name = "library"
    item = "evaluator call or sampled vector"
    spec_files = EvalRoutes.spec_files + GenericDraws.spec_files

    def __init__(self, seed: int, tiny: bool = False):
        self.evals = EvalRoutes(seed, tiny)
        self.draws = GenericDraws(seed, tiny)
        self.items = self.evals.items + self.draws.items
        self.faults = self.evals.faults
        self.run_fault = self.evals.run_fault

    def op(self):
        return self.evals.op(), self.draws.op()

    def check(self, output):
        return self.evals.check(output[0]) + self.draws.check(output[1])

    def extra_checks(self, output):
        return self.draws.extra_checks(output[1])


WORKLOADS = {cls.name: cls for cls in (SampleLight, VerifyHeavy, Library)}


def same(a, b) -> bool:
    """Output equality for repetitions of one operation (arrays compared exactly)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) \
            and a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b
