"""Homogeneity: scaling the fields by c scales every norm and sign average by c.

matcore divides each l^p sum by its largest term and forms each sum of
squares in units of an exact power of two, so no reduction depends on the
magnitude of its input.  These tests pin that from the bottom of the normal
range (and below it) to 1e300, with every RuntimeWarning raised as an error
(pyproject's ``filterwarnings``), so nothing may overflow or return 0, inf or
nan on the way.
"""

import math

import pytest

from dualnorm import cli
from dualnorm.cli import SuiteConfig, run_suite
from dualnorm.dualmodel import _stack, parse_dual_arg, random_field
from dualnorm.inequalities import rademacher_average, two_point_critical_constant, two_point_norms
from dualnorm.norms import field_norm

SCALES = (2.0**-990, 1e-300, 1e-305, 1e-308, 1e150, 1e300)


@pytest.fixture(scope="module", params=["s3", "su2_trunc(4)", "custom(16,32)", "torus(5)"])
def fields(request):
    model = parse_dual_arg(request.param)
    return [random_field(model, seed) for seed in range(3)]


def _rotations(fields):
    """Three 3-row batches: row 0 of batch j is fields[j], so row 0 of a sum is the single sum."""
    return [_stack(fields[j:] + fields[:j]) for j in range(len(fields))]


@pytest.mark.parametrize("family", ["sch", "hs"])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 7, math.inf])
def test_field_norms_scale_with_the_field(fields, p, family):
    base = [field_norm(f, p, family) for f in fields]
    for c in SCALES:
        singles = [field_norm(c * f, p, family) for f in fields]
        assert list(field_norm(c * _stack(fields), p, family)) == singles  # bit for bit
        assert [v / c for v in singles] == pytest.approx(base, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("family", ["sch", "hs"])
@pytest.mark.parametrize("p", [1.5, 2, 3, 7])
def test_sign_averages_and_critical_constants_scale_with_the_fields(fields, p, family):
    average = rademacher_average(fields, p, family)
    critical = two_point_critical_constant(two_point_norms(*fields[:2])(p, family))
    for c in SCALES:
        scaled = [c * f for f in fields]
        single = rademacher_average(scaled, p, family)
        assert rademacher_average([c * b for b in _rotations(fields)], p, family)[0] == single
        assert single / c == pytest.approx(average, rel=1e-14, abs=0.0)
        norms = two_point_norms(*scaled[:2])(p, family)
        assert two_point_critical_constant(norms) == pytest.approx(critical, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("c", [1e8, 1e150, 1e300])
def test_every_suite_passes_on_scaled_trials(monkeypatch, c):
    # every trial of the suites is c times its usual draw; the Holder products of
    # fields of size 1e300 overflow, which field_product reports as a ValueError
    draw = cli.random_stacks
    monkeypatch.setattr(cli, "random_stacks", lambda *args: c * draw(*args))
    for suite in cli.SUITES:
        cfg = SuiteConfig(suite=suite, dual=parse_dual_arg("su2_trunc(3)"),
                          p_list=("1", "1.5", "2", "3", "inf"), family="both", trials=4, seed=3)
        if suite == "holder" and c > 1e154:
            with pytest.raises(ValueError, match="overflows"):
                run_suite(cfg)
            continue
        assert [r.case_id for r in run_suite(cfg) if not r.passed] == []
