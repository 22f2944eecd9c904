"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload once at tiny sizes and requires every correctness check
to pass on the current program; then feeds each check a deliberately
corrupted output (a CSV column scaled by 1.1, a dropped CSV row, an l(t)
moved by 1e-6, a verify report with a flipped ``passed`` field, a simplex
row off the simplex) and requires the check to reject it.  It also runs one
traced operation per workload twice, requiring every per-layer metric of
BENCHMARK.json and identical exact counts, and runs run.py in a directory
without the program's sources, requiring a non-zero exit.  Exits 1 if any
expectation fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

os.environ.update(run.BLAS_ENV)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

COUNT_METRICS = ("cli.bytes_out", "samplers.minstable_calls", "samplers.pickands_resamples",
                 "samplers.passage_rows", "families.quantile_values_per_row",
                 "families.tail_integral_calls", "families.size_biased_draws",
                 "families.log_cdf_calls", "stdf.extremal_calls", "quad.calls",
                 "quad.integrand_evals")

failures = []


def expect(label: str, ok: bool, detail: str = "") -> None:
    suffix = f": {detail}" if detail and not ok else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{suffix}")
    if not ok:
        failures.append(label)


def scale_first_column(text: str, factor: float) -> str:
    header, *rows = text.splitlines()
    out = [header]
    for row in rows:
        first, rest = row.split(",", 1)
        out.append(f"{float(first) * factor!r},{rest}")
    return "\n".join(out) + "\n"


def corruptions(name, wl, output):
    """(label, corrupted output) pairs for one workload's output."""
    if name == "sample_light":
        (rc, text), *others = output
        yield "CSV column y1 scaled by 1.1", [(rc, scale_first_column(text, 1.1))] + others
        yield "CSV row dropped", [(rc, text.rsplit("\n", 2)[0] + "\n")] + others
    elif name == "verify_heavy":
        rc, text = output
        lines = text.splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",false"
        yield "verify report with a flipped passed field", (rc, "\n".join(lines) + "\n")
    elif name == "library":
        values, (coords, *rest) = output
        yield "l(t) moved by 1e-6", ([values[0] + 1e-6] + values[1:], [coords] + rest)
        bad = coords.copy()
        bad[0] *= 1.01
        yield "simplex row off the simplex", (values, [bad] + rest)


def traced_counts(wl):
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        with tracer.span("op"):
            wl.op()
    finally:
        tracer.uninstall()
    return tracer.layer_metrics(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    layer_names -= {"traced.items_per_s", "setup.import_scipy_s", "setup.import_numpy_s",
                    "setup.import_maxstable_s"}
    expect("BENCHMARK.json names the workloads",
           [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed=0, tiny=True)
        output = wl.op()
        problems = wl.check(output) + wl.extra_checks(output)
        expect(f"{name}: checks pass on the program's output", not problems,
               "; ".join(problems[:3]))
        expect(f"{name}: a repetition gives identical output",
               workloads.same(wl.op(), output))
        for label, bad in corruptions(name, wl, output):
            expect(f"{name}: rejects {label}", bool(wl.check(bad)))
        for case in getattr(wl, "faults", []):
            print(f"INFO {name}: known-fault operation {case[0]!r} "
                  f"{'passes' if wl.run_fault(case) else 'fails'}")
        first, second = traced_counts(wl), traced_counts(wl)
        missing = layer_names - set(first)
        expect(f"{name}: traced run reports every per-layer metric", not missing,
               ", ".join(sorted(missing)))
        diff = [k for k in COUNT_METRICS if first[k] != second[k]]
        expect(f"{name}: exact counts repeat", not diff, ", ".join(diff))

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "library",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=120)
        expect("run.py exits non-zero without the program's sources",
               proc.returncode != 0 and not proc.stdout.strip(), proc.stdout[-300:])

    print(f"{'all expectations met' if not failures else f'{len(failures)} FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
