"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from dualnorm import cli, inequalities  # noqa: E402
from dualnorm.dualmodel import preset_dual  # noqa: E402
from dualnorm.norms import ExponentP  # noqa: E402


def test_self_times_on_nested_tree():
    # 0 [0, 10]
    # +- 1 [1, 4]
    # |  +- 2 [2, 3]
    # +- 3 [5, 9]
    #    +- 4 [5.5, 6]
    #    +- 5 [7, 8.5]
    # 6 [11, 12]      (a second root)
    parent = np.array([-1, 0, 1, 0, 3, 3, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.5, 7.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.5, 12.0])
    got = tracing.self_times(parent, start, end)
    np.testing.assert_allclose(got, [10 - 3 - 4, 3 - 1, 1, 4 - 0.5 - 1.5, 0.5, 1.5, 1])
    # self times partition the roots' durations
    assert got.sum() == pytest.approx(10 + 1)


def test_span_metrics_layer_self_time_and_boundary_calls():
    tracer = tracing.Tracer()
    outer = tracer.wrap(lambda f: f() + f(), "cli.main")
    mid = tracer.wrap(lambda: inner(), "norms.field_norm")
    inner = tracer.wrap(lambda: 1, "matcore.cmatrix")
    same_layer = tracer.wrap(lambda: inner(), "matcore.svd")
    assert outer(mid) == 2
    assert same_layer() == 1
    m = tracing.span_metrics(tracer, 0, len(tracer), 1.0, {})
    assert m["cli.calls"] == 1 and m["norms.calls"] == 2
    # matcore is entered three times from outside; svd -> cmatrix stays inside
    assert m["matcore.calls"] == 3
    assert m["matcore.cmatrix.calls"] == 3 and m["matcore.svd.calls"] == 1
    arr = tracer.arrays()
    total = float(np.sum(arr["end"][arr["parent"] < 0] - arr["start"][arr["parent"] < 0]))
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self == pytest.approx(total, rel=1e-12)


def test_span_records_errors_crossing_the_boundary():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "report.digest_inputs")
    with pytest.raises(ValueError):
        wrapped()
    m = tracing.span_metrics(tracer, 0, len(tracer), 1.0, {})
    assert m["report.errors"] == 1 and m["report.calls"] == 1


def test_install_and_uninstall_leave_no_wrappers():
    import dualnorm.interpolation as interp

    original = interp.lp_sch_norm
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    assert interp.lp_sch_norm is not original  # bound through `from .norms import`
    assert tracing.leftover_wrappers()
    tracer.uninstall()
    assert interp.lp_sch_norm is original
    assert tracing.leftover_wrappers() == []


@pytest.mark.parametrize("family", ["both", "sch"])
@pytest.mark.parametrize("suite", wl.SUITES)
def test_expected_report_count_matches_run_suite(suite, family):
    p_list = (1.0, 1.5, 2.0, 3.0, math.inf)
    config = cli.SuiteConfig(
        suite=suite, dual=preset_dual("s3"), p_list=tuple(ExponentP(p) for p in p_list),
        family=family, trials=2, seed=7,
    )
    reports = [r.as_dict() for r in cli.run_suite(config)]
    families = ("sch", "hs") if family == "both" else ("sch",)
    assert wl.expected_report_count(suite, p_list, families, 2, reports) == len(reports)


def test_cli_jobs_cover_every_suite_of_the_package():
    assert set(wl.SUITES) == set(cli.SUITES)
    jobs = wl.cli_jobs("small_blocks_all", 3, "out")
    assert len(jobs) == len(wl.SUITES) * len(wl.P_VALUES)
    assert jobs == wl.cli_jobs("small_blocks_all", 3, "out")
    assert jobs != wl.cli_jobs("small_blocks_all", 4, "out")


def test_moduli_rules_flag_an_empty_bin():
    model = preset_dual("s3")
    conv = inequalities.modulus_convexity_sample(model, 2.0, "sch", samples=3, seed=1)
    smooth = inequalities.modulus_smoothness_sample(model, 2.0, "sch", samples=3, seed=1)
    checks = wl.Checks()
    wl.check_moduli(checks, "m", 2.0, conv, smooth)
    assert checks.failed >= 16  # three pairs fill at most three of the 19 bins


def test_moduli_closed_forms_match_the_library():
    for eps in (0.1, 1.0, 1.9):
        expected = inequalities.hilbert_convexity_modulus(eps)
        conv = [inequalities.ModulusEstimate(eps, expected, 0.0, "convexity_lower", 1)]
        smooth = [
            inequalities.ModulusEstimate(t, inequalities.hilbert_smoothness_modulus(t), 1.0,
                                         "smoothness_upper", 1)
            for t in wl.MODULI_T_GRID
        ]
        checks = wl.Checks()
        wl.check_moduli(checks, "m", 2.0, conv * 19, smooth)
        assert checks.failed == 0, checks.failures


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (11, 15, 24, 30, 99, 100, 270, 1000):
        q = run.tail_percentile(n)
        assert n - (n + 1) * q / 100 >= 10
        assert q == 90 or n - (n + 1) * (q + 1) / 100 < 10
    assert run.tail_percentile(10) == 100
    assert run.job_percentile([3.0, 1.0, 2.0], 100) == 3.0


def test_harrell_davis_quantiles():
    assert run.harrell_davis([5.0] * 30, 0.9) == pytest.approx(5.0, rel=1e-12)
    values = [float(v) for v in range(1, 102)]
    assert run.harrell_davis(values, 0.5) == pytest.approx(51.0, rel=1e-9)  # symmetric
    lo, hi = run.harrell_davis(values, 0.3), run.harrell_davis(values, 0.9)
    assert lo < 51.0 < hi < 101.0
    assert hi == pytest.approx(0.9 * 102, rel=0.02)


def test_harrell_davis_matches_scipy():
    mstats = pytest.importorskip("scipy.stats.mstats")
    rng = np.random.default_rng(3)
    for n, q in ((15, 0.31), (30, 0.5), (270, 0.9)):
        values = rng.lognormal(size=n)
        expected = float(mstats.hdquantiles(values, prob=[q])[0])
        # Simpson's rule against scipy's exact Beta CDF
        assert run.harrell_davis(values, q) == pytest.approx(expected, rel=1e-7)


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    tracer = tracing.Tracer()
    tracer.wrap(lambda: None, "cli.main")()
    layers = tracing.span_metrics(tracer, 0, len(tracer), 1.0, {})
    assert set(layers) | {"trace_overhead"} == set(run.per_layer_units())
