"""Command-line front end.

Subcommands: eval, sample, pickands, verify, path.  All randomness is
seeded (``--seed``, default 0) and output is byte-identical across runs and
across ``--workers`` settings.  Exit codes: 0 ok, 2 parse/validation error,
3 numeric failure, 4 resource exhaustion, 5 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import NumericError, ResourceError, SpecError
from .modelspec import dump_model, dump_triplet, parse_model, parse_triplet
from .samplers import (
    sample_idt_path,
    sample_minstable_batch,
    sample_pickands_batch,
)
from .stdf import weight_vector
# the mc_* names are never called here; they stay bound only because
# bench/tracing.py wraps them in this module
from .verify import (  # noqa: F401
    _build_margin,
    _build_pickands,
    _build_survival,
    _run_checks,
    _run_chunks,
    mc_margin_check,
    mc_pickands_check,
    mc_survival_check,
    reports_to_csv,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5


def _read_spec(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc


def _parse_t(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
        return weight_vector(values)
    except ValueError as exc:
        raise SpecError(f"field 't': {exc}") from exc


def _print_rows(rows, out) -> None:
    """One CSV line per row; repr of a Python float (hence ``tolist``:
    numpy 2 writes np.float64(...)) round-trips and prints inf as ``inf``."""
    for row in rows.tolist():
        print(",".join(map(repr, row)), file=out)


def _cmd_eval(args, out) -> int:
    spec = parse_model(_read_spec(args.spec))
    if args.dump_spec:
        print(dump_model(spec), file=out)
        return EXIT_OK
    if args.t is None:
        raise SpecError("field 't' is required for eval")
    value = spec.evaluator()(_parse_t(args.t))
    print(f"{value:.12f}", file=out)
    return EXIT_OK


def _sample_csv(args, out, prefix: str, draw) -> int:
    """Header prefix1..prefixd, then the rows of draw(model, d, size, child)
    over the chunks of _run_chunks; nothing is printed if d or n is
    invalid."""
    spec = parse_model(_read_spec(args.spec))
    if args.dump_spec:
        print(dump_model(spec), file=out)
        return EXIT_OK
    model = spec.require_canonical()
    if args.d < 1:
        raise ValueError(f"d must be at least 1, got {args.d}")
    rng = np.random.default_rng(args.seed)

    def chunk(child, size):
        return draw(model, args.d, size, child)

    [blocks] = _run_chunks(rng, [(args.n, chunk)], args.workers)
    print(",".join(f"{prefix}{i + 1}" for i in range(args.d)), file=out)
    for block in blocks:
        _print_rows(block, out)
    return EXIT_OK


def _cmd_sample(args, out) -> int:
    return _sample_csv(args, out, "y", sample_minstable_batch)


def _cmd_pickands(args, out) -> int:
    return _sample_csv(args, out, "x",
                       lambda *draw_args: sample_pickands_batch(*draw_args)[0])


def _cmd_verify(args, out) -> int:
    spec = parse_model(_read_spec(args.spec))
    if args.dump_spec:
        print(dump_model(spec), file=out)
        return EXIT_OK
    model = spec.require_canonical()
    if args.t is None:
        raise SpecError("field 't' is required for verify")
    t = _parse_t(args.t)
    checks = [
        _build_survival(model, t, args.n, args.z_threshold),
        _build_pickands(model, t, args.n, args.z_threshold),
        _build_margin(model, args.n, args.z_threshold),
    ]
    reports = _run_checks(checks, np.random.default_rng(args.seed), args.workers)
    print(reports_to_csv(reports), end="", file=out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _cmd_path(args, out) -> int:
    triplet = parse_triplet(_read_spec(args.spec))
    if args.dump_spec:
        print(dump_triplet(triplet), file=out)
        return EXIT_OK
    if args.horizon is None or args.grid is None:
        raise SpecError("fields 'horizon' and 'grid' are required for path")
    if args.grid < 2:
        raise SpecError("field 'grid' must be at least 2")
    rng = np.random.default_rng(args.seed)
    path = sample_idt_path(triplet, args.horizon, rng, args.tol)
    ts = np.linspace(0.0, args.horizon, args.grid)
    _print_rows(np.column_stack([ts, path.values(ts)]), out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxstable",
        description="Evaluate, sample and verify exchangeable min-stable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, t=False, sampling=False, horizon=False):
        p.add_argument("--spec", required=True, help="path to a JSON model spec")
        p.add_argument("--dump-spec", action="store_true",
                       help="print the canonical spec and exit")
        if t:
            p.add_argument("--t", help="comma-separated weight vector")
        if sampling:
            p.add_argument("--n", type=int, default=1, help="number of samples")
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
            p.add_argument("--workers", type=int, default=1,
                           help="worker threads (output is invariant to this)")
        if horizon:
            p.add_argument("--horizon", type=float)
            p.add_argument("--grid", type=int)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--tol", type=float, default=1e-3)

    p_eval = sub.add_parser("eval", help="print l(t) for a model spec")
    common(p_eval, t=True)

    p_sample = sub.add_parser("sample", help="CSV of min-stable samples")
    common(p_sample, sampling=True)
    p_sample.add_argument("--d", type=int, required=True, help="dimension")

    p_pick = sub.add_parser("pickands", help="CSV of simplex samples")
    common(p_pick, sampling=True)
    p_pick.add_argument("--d", type=int, required=True, help="dimension")

    p_verify = sub.add_parser("verify", help="Monte Carlo check report CSV")
    common(p_verify, t=True, sampling=True)
    p_verify.add_argument("--z-threshold", type=float, default=4.0)

    p_path = sub.add_parser("path", help="CSV of one additive path on a grid")
    common(p_path, horizon=True)

    return parser


_COMMANDS = {
    "eval": _cmd_eval,
    "sample": _cmd_sample,
    "pickands": _cmd_pickands,
    "verify": _cmd_verify,
    "path": _cmd_path,
}


def run(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResourceError as exc:
        print(f"resource exhausted: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
