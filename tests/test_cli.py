import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from maxstable import cli

LN2 = math.log(2.0)


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def spec_dir(tmp_path):
    def write(obj, name):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def test_eval_independence(spec_dir):
    path = spec_dir({"b": 1}, "indep.json")
    code, out = run_cli(["eval", "--spec", path, "--t", "2,3"])
    assert code == 0
    assert out == "5.000000000000\n"


def test_eval_logistic(spec_dir):
    path = spec_dir(
        {"b": 0, "mu": [{"weight": 1.0, "family": "frechet", "alpha": 0.5}]},
        "logistic.json",
    )
    code, out = run_cli(["eval", "--spec", path, "--t", "1,1"])
    assert code == 0
    assert out.startswith("1.41421356237")


def test_eval_levy(spec_dir):
    path = spec_dir(
        {"levy": {"b_L": 0, "atoms": [[LN2, 2.0]]}}, "levy.json"
    )
    code, out = run_cli(["eval", "--spec", path, "--t", "1,2"])
    assert code == 0
    assert out == "2.500000000000\n"


def test_eval_with_transforms(spec_dir):
    path = spec_dir(
        {"b": 1, "transform": [{"kind": "stable", "alpha": 0.5}]}, "st.json"
    )
    code, out = run_cli(["eval", "--spec", path, "--t", "1,1"])
    assert code == 0
    assert float(out) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # composing two stable transforms multiplies the exponents
    path2 = spec_dir(
        {
            "b": 1,
            "transform": [
                {"kind": "stable", "alpha": 0.5},
                {"kind": "stable", "alpha": 0.5},
            ],
        },
        "st2.json",
    )
    code, out = run_cli(["eval", "--spec", path2, "--t", "1,1"])
    assert float(out) == pytest.approx(2.0**0.25, abs=1e-12)


def test_parse_errors_name_field_and_exit_2(spec_dir, capsys):
    bad_b = spec_dir({"b": 2}, "bad_b.json")
    code, _ = run_cli(["eval", "--spec", bad_b, "--t", "1"])
    assert code == 2
    assert "'b'" in capsys.readouterr().err

    bad_alpha = spec_dir(
        {"b": 0, "mu": [{"family": "frechet", "alpha": 1.5}]}, "bad_alpha.json"
    )
    code, _ = run_cli(["eval", "--spec", bad_alpha, "--t", "1"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err

    both = spec_dir({"b": 1, "levy": {"b_L": 1}}, "both.json")
    code, _ = run_cli(["eval", "--spec", both, "--t", "1"])
    assert code == 2

    missing = str(spec_dir({}, "empty.json")) + ".does-not-exist"
    code, _ = run_cli(["eval", "--spec", missing, "--t", "1"])
    assert code == 2

    indep = spec_dir({"b": 1}, "indep.json")
    for command in ("sample", "pickands"):
        for size in (["--n", "-5"], ["--d", "0", "--n", "0"],
                     ["--d", "0", "--n", "3"]):
            argv = [command, "--spec", indep, "--d", "2", *size]
            code, out = run_cli(argv)
            assert code == 2, argv
            assert out == "", argv


def test_sample_deterministic_with_header(spec_dir):
    path = spec_dir({"b": 1}, "indep.json")
    code, a = run_cli(["sample", "--spec", path, "--d", "2", "--n", "3",
                       "--seed", "7"])
    assert code == 0
    code, b = run_cli(["sample", "--spec", path, "--d", "2", "--n", "3",
                       "--seed", "7"])
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "y1,y2"
    assert len(lines) == 4
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 2 and all(v > 0 for v in row)


def test_sample_comonotone_rows(spec_dir):
    path = spec_dir({"b": 0, "mu": [{"family": "dirac1"}]}, "dirac.json")
    code, out = run_cli(["sample", "--spec", path, "--d", "3", "--n", "4",
                         "--seed", "1"])
    assert code == 0
    for line in out.splitlines()[1:]:
        v = line.split(",")
        assert v[0] == v[1] == v[2]


def test_sample_workers_invariant(spec_dir):
    path = spec_dir(
        {"b": 0.5, "mu": [{"weight": 1.0, "family": "two_point", "theta": LN2}]},
        "tp.json",
    )
    outs = []
    for w in ("1", "4"):
        code, out = run_cli(["sample", "--spec", path, "--d", "2",
                             "--n", "9000", "--seed", "5", "--workers", w])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_sample_from_levy_spec(spec_dir):
    path = spec_dir({"levy": {"b_L": 0, "atoms": [[LN2, 2.0]]}}, "levy.json")
    code, out = run_cli(["sample", "--spec", path, "--d", "2", "--n", "5",
                         "--seed", "3"])
    assert code == 0
    assert len(out.splitlines()) == 6

    unnorm = spec_dir({"levy": {"b_L": 0, "atoms": [[LN2, 1.0]]}}, "un.json")
    code, _ = run_cli(["sample", "--spec", unnorm, "--d", "2", "--n", "5"])
    assert code == 2


def test_sample_rejects_transform(spec_dir):
    path = spec_dir(
        {"b": 1, "transform": [{"kind": "stable", "alpha": 0.5}]}, "st.json"
    )
    code, _ = run_cli(["sample", "--spec", path, "--d", "2", "--n", "5"])
    assert code == 2


def test_pickands_rows(spec_dir):
    dirac = spec_dir({"b": 0, "mu": [{"family": "dirac1"}]}, "dirac.json")
    code, out = run_cli(["pickands", "--spec", dirac, "--d", "2", "--n", "3",
                         "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2"
    assert lines[1:] == ["0.5,0.5"] * 3

    indep = spec_dir({"b": 1}, "indep.json")
    code, out = run_cli(["pickands", "--spec", indep, "--d", "3", "--n", "50",
                         "--seed", "9"])
    for line in out.splitlines()[1:]:
        vals = sorted(float(v) for v in line.split(","))
        assert vals == [0.0, 0.0, 1.0]


def test_pickands_rows_sum_to_one(spec_dir):
    path = spec_dir(
        {"b": 0.3, "mu": [{"weight": 1.0, "family": "unit_exponential"}]},
        "ue.json",
    )
    code, out = run_cli(["pickands", "--spec", path, "--d", "4", "--n", "200",
                         "--seed", "2"])
    assert code == 0
    for line in out.splitlines()[1:]:
        total = sum(float(v) for v in line.split(","))
        assert abs(total - 1.0) <= 1e-12


def test_verify_passes_and_fails_by_threshold(spec_dir):
    path = spec_dir(
        {"b": 0.5, "mu": [{"weight": 1.0, "family": "two_point", "theta": LN2}]},
        "tp.json",
    )
    code, out = run_cli(["verify", "--spec", path, "--t", "1,1", "--n", "5000",
                         "--seed", "0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,empirical,exact,std_error,z_score,n,passed"
    assert len(lines) == 4
    assert all(line.endswith("true") for line in lines[1:])

    # an absurd z threshold forces a verification failure (exit 5)
    code, out = run_cli(["verify", "--spec", path, "--t", "1,1", "--n", "5000",
                         "--seed", "0", "--z-threshold", "1e-9"])
    assert code == 5


def test_verify_workers_invariant(spec_dir):
    path = spec_dir(
        {"b": 0, "mu": [{"weight": 1.0, "family": "frechet", "alpha": 0.5}]},
        "fr.json",
    )
    outs = []
    for w in ("1", "4"):
        code, out = run_cli(["verify", "--spec", path, "--t", "1,2",
                             "--n", "20000", "--seed", "1", "--workers", w])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_closed_minimum_workers_invariant():
    # the Frechet part and the two-point part of the heavy mixture are drawn
    # in closed form, chunk by chunk from the chunks' own generators
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "specs",
                        "heavy_mixture.json")
    outs = []
    for w in ("1", "4"):
        code, out = run_cli(["verify", "--spec", path, "--t", "1,1,1",
                             "--n", "20000", "--seed", "1", "--workers", w])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_path_exact_grid(spec_dir):
    path = spec_dir(
        {"b": 0.5, "c": 0.5, "mu": [{"family": "two_point", "theta": LN2}]},
        "trip.json",
    )
    code, out = run_cli(["path", "--spec", path, "--horizon", "1.0",
                         "--grid", "2", "--seed", "4"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "0.0,0.0"

    code, out = run_cli(["path", "--spec", path, "--horizon", "4.0",
                         "--grid", "101", "--seed", "4"])
    vals = [float(line.split(",")[1]) for line in out.splitlines()]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_path_point_mass_prints_inf(spec_dir):
    path = spec_dir({"b": 0, "c": 1, "mu": [{"family": "dirac1"}]}, "dt.json")
    for seed in range(12):
        code, out = run_cli(["path", "--spec", path, "--horizon", "4.0",
                             "--grid", "17", "--seed", str(seed)])
        assert code == 0
        tail = [line.split(",")[1] for line in out.splitlines()]
        if "inf" in tail:
            idx = tail.index("inf")
            assert all(v == "inf" for v in tail[idx:])
            assert all(v == "0.0" for v in tail[:idx])
            break
    else:
        pytest.fail("no seed produced a jump inside the horizon")


def test_path_determinism(spec_dir):
    path = spec_dir(
        {"b": 0.2, "c": 0.8, "mu": [{"weight": 0.5, "family": "two_point",
                                     "theta": LN2},
                                    {"weight": 0.5, "family": "unit_exponential"}]},
        "mixed.json",
    )
    runs = [run_cli(["path", "--spec", path, "--horizon", "2.0", "--grid",
                     "33", "--seed", "6"])[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_dump_spec_roundtrip(spec_dir, tmp_path):
    original = spec_dir(
        {
            "b": 0.25,
            "mu": [
                {"weight": 0.5, "family": "discrete",
                 "atoms": [[0.0, 0.5], [2.0, 0.5]]},
                {"weight": 0.5, "family": "tilted", "z": 2.0,
                 "base": {"family": "unit_exponential"}},
            ],
            "transform": {"kind": "stable", "alpha": 0.5},
        },
        "full.json",
    )
    code, dumped = run_cli(["eval", "--spec", original, "--dump-spec"])
    assert code == 0
    redumped_path = tmp_path / "redump.json"
    redumped_path.write_text(dumped)
    code, dumped2 = run_cli(["eval", "--spec", str(redumped_path),
                             "--dump-spec"])
    assert dumped == dumped2
    # and both evaluate identically
    _, v1 = run_cli(["eval", "--spec", original, "--t", "1,2"])
    _, v2 = run_cli(["eval", "--spec", str(redumped_path), "--t", "1,2"])
    assert v1 == v2


def test_levy_dump_roundtrip(spec_dir, tmp_path):
    original = spec_dir(
        {"levy": {"b_L": 0.25, "atoms": [[LN2, 1.5], [math.inf, 0.1]]}},
        "levy.json",
    )
    code, dumped = run_cli(["eval", "--spec", original, "--dump-spec"])
    assert code == 0
    p = tmp_path / "re.json"
    p.write_text(dumped)
    code, dumped2 = run_cli(["eval", "--spec", str(p), "--dump-spec"])
    assert dumped == dumped2


def test_default_seed_is_zero(spec_dir):
    path = spec_dir({"b": 1}, "indep.json")
    _, with_default = run_cli(["sample", "--spec", path, "--d", "2", "--n", "4"])
    _, with_zero = run_cli(["sample", "--spec", path, "--d", "2", "--n", "4",
                            "--seed", "0"])
    assert with_default == with_zero


def test_numeric_and_resource_exit_codes(spec_dir, monkeypatch):
    from maxstable.errors import NumericError, ResourceError

    path = spec_dir({"b": 1}, "indep.json")

    def numeric_boom(text):
        raise NumericError("tolerance not reached", achieved=1e-6)

    monkeypatch.setattr(cli, "parse_model", numeric_boom)
    code, _ = run_cli(["eval", "--spec", path, "--t", "1"])
    assert code == 3

    def resource_boom(text):
        raise ResourceError("arrival budget exhausted", achieved_bound=0.5)

    monkeypatch.setattr(cli, "parse_model", resource_boom)
    code, _ = run_cli(["sample", "--spec", path, "--d", "1", "--n", "1"])
    assert code == 4


def test_path_dump_spec_roundtrip(spec_dir, tmp_path):
    original = spec_dir(
        {"b": 0.5, "c": 0.5, "mu": [{"family": "two_point", "theta": LN2}]},
        "trip.json",
    )
    code, dumped = run_cli(["path", "--spec", original, "--dump-spec"])
    assert code == 0
    p = tmp_path / "re.json"
    p.write_text(dumped)
    code, dumped2 = run_cli(["path", "--spec", str(p), "--dump-spec"])
    assert dumped == dumped2


_STARTUP_SCRIPT = r"""
import io, sys

import maxstable.cli as cli

frechet, mixture, heavy, tilted = sys.argv[1:]
for path in (frechet, mixture, heavy, tilted):
    with open(path, encoding="utf-8") as fh:
        cli.parse_model(fh.read())
for path in (frechet, mixture):
    assert cli.run(["sample", "--spec", path, "--d", "5", "--n", "200",
                    "--seed", "1"], io.StringIO()) == 0
assert cli.run(["verify", "--spec", heavy, "--t", "1,1,1", "--n", "2000",
                "--seed", "1", "--workers", "2"], io.StringIO()) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_start_up_leaves_scipy_unloaded(spec_dir):
    # the specs of the sample_light and verify_heavy benchmark workloads and a
    # tilted spec, run in a fresh interpreter since this process has loaded
    # scipy already
    paths = [
        spec_dir({"b": 0.0, "mu": [{"weight": 1.0, "family": "frechet",
                                    "alpha": 0.5}]}, "frechet.json"),
        spec_dir({"b": 0.25, "mu": [
            {"weight": 0.5, "family": "two_point", "theta": 0.7},
            {"weight": 0.5, "family": "unit_exponential"}]}, "mixture.json"),
        spec_dir({"b": 0.0, "mu": [
            {"weight": 0.5, "family": "frechet", "alpha": 0.5},
            {"weight": 0.5, "family": "two_point", "theta": 2.0}]}, "heavy.json"),
        spec_dir({"b": 0.0, "mu": [{"weight": 1.0, "family": "tilted", "z": 2.0,
                                    "base": {"family": "unit_exponential"}}]},
                 "tilted.json"),
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, *paths], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_NO_SCIPY_SCRIPT = r"""
import io, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())

import numpy as np

import maxstable.cli as cli
from maxstable import (Frechet, Rescaled, Exponential, Tilted, UnitExponential,
                       pairwise_l2_identity, stdf_extremal, tilt)

tilted, frechet, triplet = sys.argv[1:]
runs = [
    ["eval", "--spec", tilted, "--t", "1,2,0.5"],
    ["eval", "--spec", frechet, "--t", "1,2,0.5"],
    ["sample", "--spec", tilted, "--d", "3", "--n", "50", "--seed", "1"],
    ["sample", "--spec", frechet, "--d", "3", "--n", "50", "--seed", "1"],
    ["verify", "--spec", tilted, "--t", "1,1", "--n", "2000", "--seed", "1"],
    ["path", "--spec", triplet, "--horizon", "2", "--grid", "5", "--seed", "1"],
]
for argv in runs:
    out = io.StringIO()
    assert cli.run(argv, out) == 0, argv
    assert out.getvalue(), argv
t = np.array([1.0, 2.0, 0.5])
for F in (tilt(UnitExponential(), 2.0), Frechet(0.9), Tilted(Frechet(0.9), 2.0),
          Rescaled(Exponential(2.0))):
    assert t.max() <= stdf_extremal(F, t, method="quadrature") <= t.sum()
    assert 1.0 < pairwise_l2_identity(F) < 2.0
assert 0.0 < Frechet(0.5).tail_integral(2.0) < 1.0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_needs_no_scipy(spec_dir):
    # every subcommand and the quadrature routes, with any import of scipy
    # raising ImportError
    paths = [
        spec_dir({"b": 0.0, "mu": [{"weight": 1.0, "family": "tilted", "z": 2.0,
                                    "base": {"family": "unit_exponential"}}]},
                 "tilted.json"),
        spec_dir({"b": 0.2, "mu": [{"weight": 1.0, "family": "frechet",
                                    "alpha": 0.7}]}, "frechet.json"),
        spec_dir({"b": 0.0, "c": 1.0, "mu": [
            {"weight": 0.5, "family": "frechet", "alpha": 0.5},
            {"weight": 0.5, "family": "tilted", "z": 2.0,
             "base": {"family": "unit_exponential"}}]}, "triplet.json"),
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, *paths], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
