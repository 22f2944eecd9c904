"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload sample_light --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports maxstable from its
``src`` directory.  With ``--trace 0`` it reports the end-to-end metrics
(setup_s, items_per_s, peak_rss_mb); with ``--trace 1`` it installs the
wrappers of tracing.py and reports the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name each metric with
its unit and record the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
MIN_OPS = 3
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(spec_files, importtime=False):
    """Run one fresh interpreter that imports the CLI and parses the specs."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "setup_probe.py")] + [str(BENCH / "specs" / f) for f in spec_files]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def measure_setup(spec_files) -> float:
    """Median wall time of fresh interpreters, bytecode compiled beforehand."""
    import compileall

    compileall.compile_dir(str(SRC / "maxstable"), quiet=1)
    probe(spec_files)
    return statistics.median(probe(spec_files)[0] for _ in range(SETUP_RUNS))


def import_self_times(spec_files) -> dict:
    """Median self import time per top-level package, from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        totals = {"scipy": 0.0, "numpy": 0.0, "maxstable": 0.0}
        for line in probe(spec_files, importtime=True)[1].splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(fields[0]) * 1e-6
        runs.append(totals)
    return {f"setup.import_{pkg}_s": (statistics.median(r[pkg] for r in runs), "s")
            for pkg in ("scipy", "numpy", "maxstable")}


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "maxstable").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads

    cls = workloads.WORKLOADS[workload_name]
    metrics = {}
    if traced:
        metrics.update(import_self_times(cls.spec_files))
    else:
        metrics["setup_s"] = (measure_setup(cls.spec_files), "s")

    wl = cls(seed)
    reference_output = wl.op()  # warm-up, untimed; its output is the one checked
    problems = wl.check(reference_output) + wl.extra_checks(reference_output)
    faults = getattr(wl, "faults", [])

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    times, attempted, failed, failing = [], 0, 0, set()
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < seconds:
        if failed > 2 * MIN_OPS and not times:
            raise SystemExit(f"every operation of {workload_name} raised: {problems[-1]}")
        attempted += 1
        try:
            if tracer is not None:
                tracer.active = True
                with tracer.span("op"):
                    t0 = time.perf_counter()
                    output = wl.op()
                    elapsed = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                output = wl.op()
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            problems.append(f"operation raised {exc!r}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        times.append(elapsed)
        if not workloads.same(output, reference_output):
            problems.append("operation output changed between repetitions")
        for case in faults:
            attempted += 1
            if not wl.run_fault(case):
                failed += 1
                failing.add(case[0])

    median = statistics.median(times)
    items_per_s = wl.items / median
    if tracer is not None:
        tracer.uninstall()
        for name, value in tracer.layer_metrics(len(times)).items():
            metrics[name] = value
        metrics["traced.items_per_s"] = (items_per_s, "items/s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload_name}-seed{seed}.jsonl")
    else:
        metrics["items_per_s"] = (items_per_s, "items/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    print(f"# workload {workload_name} seed {seed}: {len(times)} timed operations of "
          f"{wl.items} items (item: {wl.item}), median {median:.6f} s"
          + (", traced" if traced else ""))
    for name in sorted(failing):
        print(f"# failed operation (known fault): {name}")
    for problem in problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "maxstable" / "__init__.py").is_file():
        print(f"error: no maxstable sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # BLAS pools are sized when numpy loads, so pin them before any import of it
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
