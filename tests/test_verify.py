import math

import numpy as np
import pytest

from maxstable import (
    CSV_HEADER,
    CanonicalModel,
    Dirac1,
    Frechet,
    MixingMeasure,
    TwoPoint,
    UnitExponential,
    exchangeability_check,
    mc_margin_check,
    mc_pickands_check,
    mc_survival_check,
    reports_to_csv,
)
from maxstable import verify
from maxstable.samplers import _pickands_raw

LN2 = math.log(2.0)


def point_model(F, b=0.0):
    return CanonicalModel(b, MixingMeasure.point(F))


def test_survival_check_examples():
    rng = np.random.default_rng(1)
    r = mc_survival_check(CanonicalModel(1.0), [1.0, 1.0], 20_000, rng)
    assert r.exact == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert r.passed and abs(r.z_score) <= 4.0

    rng = np.random.default_rng(2)
    r = mc_survival_check(point_model(Dirac1()), [1.0, 1.0], 20_000, rng)
    assert r.exact == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert r.passed

    rng = np.random.default_rng(3)
    r = mc_survival_check(point_model(Frechet(0.5)), [1.0, 1.0], 20_000, rng)
    assert r.exact == pytest.approx(math.exp(-math.sqrt(2.0)), rel=1e-12)
    assert r.passed
    assert r.std_error == pytest.approx(
        math.sqrt(r.exact * (1.0 - r.exact) / 20_000)
    )


def test_survival_check_validates_n():
    with pytest.raises(ValueError):
        mc_survival_check(CanonicalModel(1.0), [1.0], 100, np.random.default_rng(0))


def test_pickands_check_zero_variance_case():
    rng = np.random.default_rng(5)
    r = mc_pickands_check(point_model(Dirac1()), [2.0, 1.0], 5_000, rng)
    assert r.exact == 2.0
    assert r.empirical == 2.0
    assert r.std_error == 0.0
    assert r.z_score == 0.0
    assert r.passed


def test_pickands_check_mixed_model():
    rng = np.random.default_rng(6)
    model = CanonicalModel(0.5, MixingMeasure.point(TwoPoint(LN2)))
    r = mc_pickands_check(model, [1.0, 2.0, 3.0], 50_000, rng)
    assert r.passed and abs(r.z_score) <= 4.0


def test_margin_check_reports_ks_in_name():
    rng = np.random.default_rng(7)
    r = mc_margin_check(point_model(TwoPoint(LN2)), 20_000, rng)
    assert r.exact == 1.0
    assert r.name.startswith("margin[ks=")
    ks = float(r.name.split("=")[1].rstrip("]"))
    assert 0.0 < ks <= 1.63 / math.sqrt(20_000) * 2.0
    assert r.passed


def _minimum_without_rejection(model, d, n, rng):
    # extremal functions with the rejection step left out: every candidate
    # lowers the minimum, so the margins come out too small
    minima = np.full((n, d), np.inf)
    for k in range(d):
        gamma = rng.exponential(size=n)
        rows = np.nonzero(gamma < minima[:, k])[0]
        while rows.size:
            x = _pickands_raw(model.mu, d, rows.size, np.full(rows.size, k), rng)
            g = gamma[rows]
            with np.errstate(divide="ignore"):
                candidate = (g * x[:, k])[:, None] / x
            candidate[:, k] = g
            minima[rows] = np.minimum(minima[rows], candidate)
            gamma[rows] = g + rng.exponential(size=rows.size)
            rows = rows[gamma[rows] < minima[rows, k]]
    return minima


def test_margin_check_rejects_sampler_without_rejection_step(monkeypatch):
    model = CanonicalModel(0.0, MixingMeasure([(0.5, TwoPoint(0.7)),
                                               (0.5, UnitExponential())]))
    assert mc_margin_check(model, 20_000, np.random.default_rng(19)).passed
    monkeypatch.setattr(verify, "sample_minstable_batch",
                        _minimum_without_rejection)
    r = mc_margin_check(model, 20_000, np.random.default_rng(19))
    assert not r.passed and r.z_score < -10.0


def test_reports_deterministic_and_worker_invariant():
    model = CanonicalModel(0.5, MixingMeasure.point(Frechet(0.5)))
    runs = []
    for workers in (1, 4):
        rng = np.random.default_rng(11)
        runs.append(mc_survival_check(model, [1.0, 1.0], 30_000, rng,
                                      workers=workers))
    assert runs[0] == runs[1]
    again = mc_survival_check(model, [1.0, 1.0], 30_000,
                              np.random.default_rng(11))
    assert again == runs[0]


def test_run_chunks_shards_jobs_in_order_with_spawned_children():
    ns = [0, 1, 8192, 20_001]

    def job(k):
        def chunk(child, size):
            return k, size, child.bit_generator.seed_seq.spawn_key, child.random()
        return chunk

    expected = [[], [1], [8192], [8192, 8192, 3617]]
    ref = np.random.default_rng(23)
    keys = [[c.bit_generator.seed_seq.spawn_key for c in ref.spawn(len(sizes))]
            for sizes in expected]
    runs = []
    for workers in (1, 4):
        per_job = verify._run_chunks(np.random.default_rng(23),
                                     [(n, job(k)) for k, n in enumerate(ns)], workers)
        assert len(per_job) == len(ns)
        for k, parts in enumerate(per_job):
            assert [p[0] for p in parts] == [k] * len(expected[k])
            assert [p[1] for p in parts] == expected[k]
            assert [p[2] for p in parts] == keys[k]
        runs.append(per_job)
    assert runs[0] == runs[1]


def test_checks_validate_before_drawing(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(verify, "sample_minstable_batch", counted)
    monkeypatch.setattr(verify, "sample_pickands_batch", counted)
    model = CanonicalModel(0.5, MixingMeasure.point(TwoPoint(LN2)))
    rng = np.random.default_rng(0)
    cases = [
        (lambda: mc_survival_check(model, [1.0, 1.0], 999, rng),
         "n must be at least 1000, got 999"),
        (lambda: mc_pickands_check(model, [1.0, 1.0], 1, rng),
         "n must be at least 2, got 1"),
        (lambda: mc_pickands_check(model, [0.0, 0.0, 0.0], 2_000_000, rng),
         "t must have at least one positive entry"),
        (lambda: mc_margin_check(model, 999, rng),
         "n must be at least 1000, got 999"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    assert calls == []


def test_csv_output_format():
    rng = np.random.default_rng(13)
    r = mc_survival_check(CanonicalModel(1.0), [1.0], 5_000, rng)
    csv = reports_to_csv([r])
    lines = csv.splitlines()
    assert lines[0] == CSV_HEADER == "name,empirical,exact,std_error,z_score,n,passed"
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert fields[-1] in ("true", "false")
    assert float(fields[2]) == pytest.approx(math.exp(-1.0))


def test_exchangeability_check():
    model = CanonicalModel(0.3, MixingMeasure.point(TwoPoint(LN2)))
    assert exchangeability_check(model, [1.0, 2.0, 3.0], [2, 0, 1])
    assert exchangeability_check(model, [5.0, 5.0], [1, 0])
    # zeros permuted into the interior must not change anything
    assert exchangeability_check(model, [0.1, 7.0, 0.0, 2.0], [2, 1, 3, 0])
    with pytest.raises(ValueError):
        exchangeability_check(model, [1.0, 2.0], [0, 0])


def test_margin_battery_at_full_scale():
    # margin leg of the reference battery: all margins are unit exponential
    rng = np.random.default_rng(17)
    families = [Dirac1(), Frechet(0.5), TwoPoint(LN2)]
    for b in (0.0, 0.5, 1.0):
        for F in families:
            model = CanonicalModel(b, MixingMeasure.point(F))
            r = mc_margin_check(model, 100_000, rng)
            assert r.passed, (b, F, r)
