"""power_sum and the norms built on it, against a 50-digit mpmath oracle.

The oracle sums the same float64 inputs (block entries, LAPACK singular
values) in 50-digit arithmetic, so it measures the reductions alone, at
exponents from 1 to 1e6 and inf and at scales where a raw v^p would
overflow or underflow binary64.
"""

import math

import mpmath
import numpy as np
import pytest

from dualnorm import matcore
from dualnorm.dualmodel import Field, parse_dual_arg, random_field, random_stacks
from dualnorm.norms import DirectSumSpec, direct_sum_norm, lp_hs_norm, lp_sch_norm

EXPONENTS = [1.0, 1.0001, 1.5, 3.0, 200.0, 1100.0, 1e6, math.inf]
DUALS = ["s3", "su2_trunc(4)", "custom(16,32)"]
SCALES = [1.0, 1e150, 1e-150]
REL = 1e-13


def mp_power_sum(values, r):
    values = [mpmath.mpf(float(v)) for v in values]
    if math.isinf(r):
        return max(values, default=mpmath.mpf(0))
    return mpmath.fsum(v**r for v in values) ** (1 / mpmath.mpf(r))


def mp_sch_norm(h, p):
    """(sum d sum_i sigma_i^p)^(1/p) over LAPACK's singular values; max sigma at inf."""
    power = 0 if math.isinf(p) else 1 / mpmath.mpf(p)
    terms = []
    for (_, dim), block in zip(h.model.entries, h.blocks):
        sigma = np.linalg.svd(block, compute_uv=False)
        terms += [mpmath.mpf(dim) ** power * mpmath.mpf(float(s)) for s in sigma]
    return mp_power_sum(terms, p)


def mp_hs_norm(h, p):
    """(sum d^(2 - p/2) ||block||_HS^p)^(1/p); max d^(-1/2) ||block||_HS at inf."""
    terms = []
    for (_, dim), block in zip(h.model.entries, h.blocks):
        x = np.ascontiguousarray(block).view(np.float64).ravel()
        hs = mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(v)) ** 2 for v in x))
        power = -mpmath.mpf(1) / 2 if math.isinf(p) else 2 / mpmath.mpf(p) - mpmath.mpf(1) / 2
        terms.append(mpmath.mpf(dim) ** power * hs)
    return mp_power_sum(terms, p)


MP_NORMS = {"sch": mp_sch_norm, "hs": mp_hs_norm}
NORMS = {"sch": lp_sch_norm, "hs": lp_hs_norm}


def close(got, want, rel=REL):
    want = mpmath.mpf(want)
    return abs(mpmath.mpf(float(got)) - want) <= rel * abs(want)


def fields(dual):
    """A draw of the model at each scale, and a draw with its largest entry zeroed."""
    model = parse_dual_arg(dual)
    h = random_field(model, 23)
    blocks = list(h.blocks)
    blocks[-1] = np.zeros_like(blocks[-1])
    return [(f"x{s:g}", s * h) for s in SCALES] + [("zero_entry", Field(model, tuple(blocks)))]


@pytest.mark.parametrize("dual", DUALS)
@pytest.mark.parametrize("p", EXPONENTS, ids=str)
def test_field_norms_match_mpmath(dual, p):
    with mpmath.workdps(50):
        for name, h in fields(dual):
            for family in ("sch", "hs"):
                got = NORMS[family](h, p)
                assert type(got) is float and math.isfinite(got), (name, family)
                assert close(got, MP_NORMS[family](h, p)), (name, family, got)


@pytest.mark.parametrize("dual", DUALS)
@pytest.mark.parametrize("r", [1.0001, 1.5, 1100.0, 1e6, math.inf], ids=str)
def test_direct_sum_norm_matches_mpmath(dual, r):
    model = parse_dual_arg(dual)
    x, y = random_field(model, 5), random_field(model, 6)
    spec = DirectSumSpec(r, 3.0)
    with mpmath.workdps(50):
        for p in (1.0001, 3.0, 1e6):
            for sx, sy in ((1.0, 1.0), (1e150, 1e150), (1e-150, 1e-150), (1e150, 1e-150)):
                for family in ("sch", "hs"):
                    nx, ny = MP_NORMS[family](sx * x, p), MP_NORMS[family](sy * y, p)
                    if math.isinf(r):
                        want = max(nx, 3 * ny)
                    else:
                        want = mp_power_sum([nx, mpmath.mpf(3) ** (1 / mpmath.mpf(r)) * ny], r)
                    got = direct_sum_norm(sx * x, sy * y, p, spec, family)
                    assert close(got, want), (p, sx, sy, family)


@pytest.mark.parametrize("r", EXPONENTS, ids=str)
def test_power_sum_matches_mpmath(r):
    rng = np.random.default_rng(4)
    with mpmath.workdps(50):
        for exponent_range in ((-1, 1), (250, 300), (-300, -250), (-300, 300)):
            values = 10.0 ** rng.uniform(*exponent_range, size=9)
            got = matcore.power_sum(values.tolist(), r)
            assert type(got) is float and close(got, mp_power_sum(values, r))
            # unsorted rows, reduced over the first axis or as a sequence of columns
            rows = 10.0 ** rng.uniform(*exponent_range, size=(5, 7))
            rows[1] = 0.0
            for got in (matcore.power_sum(rows.T, r), matcore.power_sum(list(rows.T), r)):
                assert got.shape == (5,) and got[1] == 0.0
                assert all(close(g, mp_power_sum(row, r)) for g, row in zip(got, rows))
            # singular values: sorted non-increasing along the last axis
            rows = np.sort(rows)[:, ::-1]
            got = matcore._power_sum_sorted(rows, r)
            assert got.shape == (5,) and got[1] == 0.0
            assert all(close(g, mp_power_sum(row, r)) for g, row in zip(got, rows))
            single = matcore._power_sum_sorted(rows[0], r)
            assert type(single) is np.float64 and close(single, mp_power_sum(rows[0], r))


@pytest.mark.parametrize("r", [2.0, 1100.0, 1e6, math.inf], ids=str)
def test_power_sum_takes_its_terms_in_any_order(r):
    for values in ([1.0, 3.0], [3.0, 1.0], [1e300, 3e300], [np.array([1.0, 3.0]), np.array([3.0, 1.0])]):
        got = np.asarray(matcore.power_sum(values, r))
        assert np.all(np.isfinite(got)) and np.all(got >= np.max(values, axis=0))
        assert np.array_equal(got, matcore.power_sum(values[::-1], r))
    assert matcore.power_sum(np.array([[1.0], [3.0]]), math.inf).tolist() == [3.0]
    assert matcore.power_sum(np.array([[1.0, 3.0]]), math.inf).tolist() == [1.0, 3.0]


def test_power_sum_of_nothing_and_of_zeros_is_zero():
    for r in EXPONENTS:
        assert matcore.power_sum([], r) == 0.0
        assert matcore.power_sum([0.0, 0.0], r) == 0.0
        assert matcore.power_sum(np.zeros((3, 4)), r).tolist() == [0.0] * 4
        assert matcore._power_sum_sorted(np.zeros((3, 4)), r).tolist() == [0.0] * 3


@pytest.mark.parametrize("r", EXPONENTS, ids=str)
def test_a_single_term_is_its_own_power_sum(r):
    for v in (0.0, 1e-290, 0.7, 3.0, 1e300):  # exact from 2^-968 up
        assert matcore.power_sum([v], r) == v
        assert matcore._power_sum_sorted(np.array([v]), r) == v
        assert matcore._power_sum_sorted(np.array([[v]]), r).tolist() == [v]


def test_batch_norms_match_mpmath_row_by_row():
    model = parse_dual_arg("su2_trunc(4)")
    batch = 1e150 * random_stacks(model, 9, rows=4)
    rows = [Field(model, tuple(b[k] for b in batch.blocks)) for k in range(4)]
    with mpmath.workdps(50):
        for p in (1.0001, 3.0, 1100.0, math.inf):
            for family in ("sch", "hs"):
                got = NORMS[family](batch, p)
                assert all(close(g, MP_NORMS[family](h, p)) for g, h in zip(got, rows)), (p, family)
