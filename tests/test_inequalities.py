import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import field_moduli
import numpy as np
import pytest

from dualnorm import cli, inequalities, norms
from dualnorm.cli import SuiteConfig, run_suite
from dualnorm.dualmodel import (
    Field,
    mix_seed,
    parse_dual_arg,
    preset_dual,
    random_field,
    random_stacks,
    random_uniforms,
    zero_field,
)
from dualnorm.inequalities import (
    CONVEXITY_EDGES,
    ModulusEstimate,
    clarkson_check,
    convexity_lower_bound,
    hilbert_convexity_modulus,
    hilbert_smoothness_modulus,
    kadec_klee_gap,
    modulus_convexity_sample,
    modulus_smoothness_sample,
    rademacher_average,
    smoothness_upper_bound,
    two_point_check,
    two_point_critical_constant,
    two_point_equality_check,
    two_point_lower_constant,
    two_point_norms,
    two_point_upper_constant,
    type_cotype_check,
    unconditional_sum_bound,
)
from dualnorm.norms import _finite_interior, field_norm, field_norms, lp_sch_norm
from dualnorm.report import inequality_report

S3 = preset_dual("s3")


def enumerate_sign_average(fields, p, family, r):
    """From-scratch exhaustive enumerator over sign patterns (oracle path).

    Rebuilds each signed sum from scratch with itertools; no Gray-code state.
    """
    n = len(fields)
    total = 0.0
    count = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        acc = zero_field(fields[0].model)
        for s, f in zip(signs, fields):
            acc = acc + s * f
        total += field_norm(acc, p, family) ** r
        count += 1
    assert count == 2**n
    return (total / count) ** (1.0 / r)


def gray_code_sums(fields):
    """Every signed sum over the 2^n sign patterns, in Gray-code order (oracle path).

    Each step updates the running sum by a single +-2 H_j flip.
    """
    current = fields[0]
    for f in fields[1:]:
        current = current + f
    signs = [1] * len(fields)
    yield current
    for k in range(1, 2 ** len(fields)):
        j = (k & -k).bit_length() - 1  # flip the lowest set bit
        current = current + (-2.0 * signs[j]) * fields[j]
        signs[j] = -signs[j]
        yield current


# -- Clarkson -----------------------------------------------------------------

CLARKSON_IDS = ["clarkson_sch_check", "clarkson_hs_check"]


@pytest.mark.parametrize(
    "family", ["sch", "hs"], ids=["clarkson_sch_check-sch", "clarkson_hs_check-hs"]
)
@pytest.mark.parametrize("p", [1.3, 2.0, 2.4])
def test_clarkson_zero_second_argument_is_equality(family, p):
    h1 = random_field(S3, 1)
    rep = clarkson_check(h1, zero_field(S3))(p, family)
    assert rep.passed
    assert abs(rep.slack) <= 1e-12 * max(1.0, rep.rhs)
    q = p / (p - 1.0)
    expected = field_norm(h1, p, family) / 2.0 ** (1.0 / (p if p <= 2 else q))
    assert rep.lhs == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("family", ["sch", "hs"], ids=CLARKSON_IDS)
def test_clarkson_parallelogram_equality_at_p2(family):
    for k in range(100):
        h1 = random_field(S3, mix_seed("cl2", k, 0))
        h2 = random_field(S3, mix_seed("cl2", k, 1))
        rep = clarkson_check(h1, h2)(2.0, family)
        assert rep.passed
        assert abs(rep.slack) <= 1e-11 * max(1.0, rep.rhs)


@pytest.mark.parametrize("family", ["sch", "hs"], ids=CLARKSON_IDS)
@pytest.mark.parametrize("p", [1.3, 1.7, 2.4, 4.0])
def test_clarkson_random_pairs(family, p):
    for k in range(300):
        h1 = random_field(S3, mix_seed("cl", p, k, 0))
        h2 = random_field(S3, mix_seed("cl", p, k, 1))
        rep = clarkson_check(h1, h2)(p, family)
        assert rep.passed, f"Clarkson violated at p={p}, draw {k}: {rep}"


def test_clarkson_case_ii_agrees_with_case_i_for_conjugate():
    # the p >= 2 inequality is the dual of the p <= 2 one; verify both hold
    # on identical pairs with conjugate exponents
    p = 3.0
    q = 1.5
    for k in range(200):
        h1 = random_field(S3, mix_seed("cldual", k, 0))
        h2 = random_field(S3, mix_seed("cldual", k, 1))
        assert clarkson_check(h1, h2)(p, "sch").passed
        assert clarkson_check(h1, h2)(q, "sch").passed


def test_clarkson_rejects_endpoints():
    h = random_field(S3, 1)
    for bad in (1.0, math.inf):
        with pytest.raises(ValueError):
            clarkson_check(h, h)(bad, "sch")


def test_clarkson_pass_is_scale_invariant():
    h1 = random_field(S3, 51)
    h2 = random_field(S3, 52)
    for p in (1.3, 2.4):
        base = clarkson_check(h1, h2)(p, "sch")
        scaled = clarkson_check(17.0 * h1, 17.0 * h2)(p, "sch")
        assert base.passed == scaled.passed
        # slack scales like the norms themselves (first-power report)
        assert scaled.slack == pytest.approx(17.0 * base.slack, rel=1e-9, abs=1e-12)


# -- two-point inequalities ----------------------------------------------------


def test_two_point_constants():
    assert two_point_upper_constant(4.0) == 7.0
    assert two_point_lower_constant(1.2) == pytest.approx(1.0 / 11.0)
    assert two_point_upper_constant(2.0) == 3.0
    assert two_point_lower_constant(2.0) == pytest.approx(1.0 / 3.0)


def test_two_point_zero_second_argument():
    h1 = random_field(S3, 2)
    for p in (1.5, 3.0):
        h2 = zero_field(S3)
        rep = two_point_check(h1, h2, p, "sch", two_point_norms(h1, h2)(p, "sch"))
        assert rep.passed
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


def test_two_point_equality_at_p2_with_constant_one():
    for k in range(100):
        h1 = random_field(S3, mix_seed("tp2", k, 0))
        h2 = random_field(S3, mix_seed("tp2", k, 1))
        rep = two_point_equality_check(h1, h2, "sch", two_point_norms(h1, h2)(2.0, "sch"))
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) <= 1e-11 * max(1.0, rep.rhs)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0, 6.0])
def test_two_point_random_pairs(p):
    crits = []
    for k in range(300):
        h1 = random_field(S3, mix_seed("tp", p, k, 0))
        h2 = random_field(S3, mix_seed("tp", p, k, 1))
        norms = two_point_norms(h1, h2)(p, "sch")
        rep = two_point_check(h1, h2, p, "sch", norms)
        assert rep.passed, f"two-point violated at p={p}, draw {k}: {rep}"
        crit = two_point_critical_constant(norms)
        if not math.isnan(crit):
            crits.append(crit)
    if p >= 2.0:
        assert max(crits) <= two_point_upper_constant(p) + 1e-10
    else:
        assert min(crits) >= two_point_lower_constant(p) - 1e-10


def test_two_point_critical_constant_nan_for_zero():
    h = random_field(S3, 3)
    assert math.isnan(two_point_critical_constant(two_point_norms(h, zero_field(S3))(3.0, "sch")))


def test_two_point_critical_constant_of_a_batch_holds_each_rows_constant():
    model = preset_dual("su2_trunc", 3)
    h1 = random_stacks(model, mix_seed("crit", 1), rows=4)
    h2 = np.array([1.0, 2.0, 0.0, 0.5]) * random_stacks(model, mix_seed("crit", 2), rows=4)
    for p in (1.5, 2.0, 3.0):
        for family in ("sch", "hs"):
            crits = two_point_critical_constant(two_point_norms(h1, h2)(p, family))
            assert crits.shape == (4,)
            for k in range(4):
                one = two_point_critical_constant(two_point_norms(h1[k], h2[k])(p, family))
                assert type(one) is float
                if k == 2:  # h2 is zero in row 2
                    assert math.isnan(one) and math.isnan(crits[k])
                else:
                    assert one == crits[k], (p, family, k)


# -- moduli bounds ---------------------------------------------------------------


def test_bound_functions_at_p2_match_quadratic():
    assert convexity_lower_bound(2.0, 1.0) == pytest.approx(1.0 / 8.0)
    assert smoothness_upper_bound(2.0, 0.5) == pytest.approx(0.125)


def test_convexity_bound_uses_max_of_quadratic_and_power():
    # for p <= 2 the quadratic term dominates at small eps, the q-power at
    # large eps; the bound must take the max of the two
    p = 1.5
    q = 3.0
    c = two_point_lower_constant(p)
    for eps in (0.05, 0.1, 0.2):
        assert convexity_lower_bound(p, eps) == pytest.approx(c * eps**2 / 8.0)
    for eps in (1.5, 1.9):
        assert convexity_lower_bound(p, eps) == pytest.approx(eps**q / (q * 2.0**q))


def test_hilbert_closed_forms():
    assert hilbert_convexity_modulus(2.0) == pytest.approx(1.0)
    assert hilbert_convexity_modulus(0.0) == 0.0
    assert hilbert_smoothness_modulus(0.0) == 0.0
    assert hilbert_smoothness_modulus(1.0) == pytest.approx(math.sqrt(2.0) - 1.0)
    # paper-level sanity: closed forms dominate the generic bounds at p = 2
    for eps in (0.3, 1.0, 1.7):
        assert hilbert_convexity_modulus(eps) >= convexity_lower_bound(2.0, eps) - 1e-15
    for t in (0.1, 0.5, 1.0):
        assert hilbert_smoothness_modulus(t) <= smoothness_upper_bound(2.0, t) + 1e-15


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_closed_forms_and_bounds_are_nan_at_nan(p):
    # max(0.0, nan) is 0.0, so the convexity closed form once read 1.0 at nan
    for value in (hilbert_convexity_modulus(math.nan), hilbert_smoothness_modulus(math.nan),
                  convexity_lower_bound(p, math.nan), smoothness_upper_bound(p, math.nan)):
        assert math.isnan(value)


def test_modulus_convexity_hilbert_case_matches_closed_form():
    ests = modulus_convexity_sample(S3, 2.0, "sch", samples=4000, seed=11)
    for est in ests:
        if est.skipped:
            continue
        closed = hilbert_convexity_modulus(est.epsilon_or_t)
        assert est.estimate >= closed - 1e-9  # exact identity in Hilbert space
        assert est.estimate <= closed + 0.05
        assert est.passed()


def test_modulus_convexity_small_eps_estimates_vanish():
    ests = modulus_convexity_sample(S3, 1.5, "sch", samples=4000, seed=3)
    est = ests[0]
    assert est.epsilon_or_t == 0.1 and not est.skipped
    assert 0.0 <= est.estimate <= 0.01


@pytest.mark.parametrize("family", ["sch", "hs"])
def test_modulus_convexity_bounds_p15(family):
    ests = modulus_convexity_sample(S3, 1.5, family, samples=3000, seed=7)
    for est in ests:
        assert est.passed(), f"convexity bound violated: {est}"
    assert not any(est.skipped for est in ests if est.epsilon_or_t in (0.5, 1.0, 1.5))


def test_modulus_smoothness_zero_t():
    ests = modulus_smoothness_sample(S3, 3.0, "sch", t_grid=(0.0,), samples=50, seed=1)
    assert ests[0].estimate == pytest.approx(0.0, abs=1e-12)


def test_modulus_smoothness_hilbert_case():
    ests = modulus_smoothness_sample(
        S3, 2.0, "sch", t_grid=(0.1, 0.5, 1.0), samples=4000, seed=13
    )
    for est in ests:
        closed = hilbert_smoothness_modulus(est.epsilon_or_t)
        assert est.estimate <= closed + 1e-9
        assert est.estimate >= closed - 0.05
        assert est.passed()


@pytest.mark.parametrize("family", ["sch", "hs"])
def test_modulus_smoothness_bounds_p3(family):
    ests = modulus_smoothness_sample(
        S3, 3.0, family, t_grid=(0.1, 0.5, 1.0), samples=3000, seed=17
    )
    for est in ests:
        assert est.passed(), f"smoothness bound violated: {est}"


def test_modulus_estimate_sides_state_its_inequality():
    low = ModulusEstimate(0.5, 0.3, 0.2, "convexity_lower", 4)
    high = ModulusEstimate(0.5, 0.3, 0.2, "smoothness_upper", 4)
    assert low.sides == (0.2, 0.3) and low.passed()
    assert high.sides == (0.3, 0.2) and not high.passed()
    with pytest.raises(ValueError, match="unknown modulus kind"):
        ModulusEstimate(0.5, 0.3, 0.2, "other", 4).sides


def test_moduli_records_are_the_reports_of_the_estimates_sides():
    cfg = SuiteConfig("moduli", S3, (1.5, 2.0, 3.0), "both", trials=300, seed=4)
    records = {r.case_id: r for r in run_suite(cfg)}
    for p in cfg.p_list:
        for family in cfg.families:
            convexity, smoothness = inequalities._moduli_pass(
                S3, p, family, True, inequalities._SMOOTHNESS_T_GRID, cfg.trials,
                mix_seed(cfg.seed, "moduli", p, family),
            )
            for est in [e for e in convexity if not e.skipped] + smoothness:
                x = est.epsilon_or_t
                if est.kind == "convexity_lower":
                    case_id = f"convexity.{family}[p={p}][eps={x:.1f}]"
                else:
                    case_id = f"smoothness.{family}[p={p}][t={x:.2f}]"
                inputs = (p, family, x, cfg.seed, cfg.trials)
                want = inequality_report("moduli", case_id, p, *est.sides, inputs, est.kind)
                assert records.pop(case_id) == want
                assert want.passed == est.passed()
    assert {r.anchor for r in records.values()} == {"bin_occupancy"}


def test_modulus_empty_bin_flagged():
    ests = modulus_convexity_sample(S3, 1.5, "sch", samples=0, seed=0)
    assert all(est.skipped and est.passed() for est in ests)
    smooth = modulus_smoothness_sample(S3, 1.5, "sch", samples=0, seed=0)
    assert all(math.isnan(est.estimate) and est.skipped for est in smooth)


# Per-pair loop over Fields: the reference the batched samplers are checked
# against (same draws, scalar norms, one pair at a time).


def unit_row(model, p, family, key, row):
    h = Field(model, tuple(s[0] for s in random_stacks(model, key, start=row, rows=1).blocks))
    return (1.0 / field_norm(h, p, family)) * h


def loop_unit_pair(model, p, family, seed, draw):
    # pair k mixes row k of stream a with its neighbour, row k + 1
    h1 = unit_row(model, p, family, mix_seed(seed, "a"), draw)
    g = unit_row(model, p, family, mix_seed(seed, "a"), draw + 1)
    t = math.pi * random_uniforms(mix_seed(seed, "t"), start=draw, rows=1)[0]
    mixed = math.cos(t) * h1 + math.sin(t) * g
    norm = field_norm(mixed, p, family)
    if norm == 0.0:
        mixed, norm = g, 1.0
    return h1, (1.0 / norm) * mixed


def loop_convexity_sample(model, p, family, samples, seed):
    """(counts, best) per lower edge; a pair lands in the bin [lower, upper) that holds it."""
    edges = CONVEXITY_EDGES
    best = {e: math.inf for e in edges[:-1]}
    counts = {e: 0 for e in edges[:-1]}
    for k in range(samples):
        h1, h2 = loop_unit_pair(model, p, family, seed, k)
        eps = min(field_norm(h1 - h2, p, family), math.nextafter(2.0, 0.0))  # unit pairs: <= 2
        midgap = 1.0 - field_norm(0.5 * (h1 + h2), p, family)
        for lower, upper in zip(edges, edges[1:]):
            if lower <= eps < upper:
                counts[lower] += 1
                best[lower] = min(best[lower], midgap)
    return counts, best


def loop_smoothness_sample(model, p, family, t_grid, samples, seed):
    best = [-math.inf] * len(t_grid)
    for k in range(samples):
        h1, h2 = loop_unit_pair(model, p, family, seed, k)
        for i, t in enumerate(t_grid):
            val = (field_norm(h1 + t * h2, p, family) + field_norm(h1 - t * h2, p, family)) / 2.0
            best[i] = max(best[i], val - 1.0)
    return best


def assert_matches_loop(model, p, family, samples, seed):
    counts, best = loop_convexity_sample(model, p, family, samples, seed)
    ests = modulus_convexity_sample(model, p, family, samples=samples, seed=seed)
    for est in ests:
        assert est.samples == counts[est.epsilon_or_t], est
        if est.samples:
            ref = best[est.epsilon_or_t]
            assert est.estimate == pytest.approx(ref, rel=1e-12, abs=0.0), est
    t_grid = (0.1, 0.5, 1.0)
    smooth = modulus_smoothness_sample(model, p, family, t_grid=t_grid, samples=samples, seed=seed)
    for est, ref in zip(smooth, loop_smoothness_sample(model, p, family, t_grid, samples, seed)):
        assert est.estimate == pytest.approx(ref, rel=1e-12, abs=0.0), est
    return ests


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)", "custom(1,3)"])
@pytest.mark.parametrize("family", ["sch", "hs"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_moduli_samplers_match_loop_oracle(dual, family, p):
    assert_matches_loop(parse_dual_arg(dual), p, family, 120, mix_seed("oracle", dual, family, p))


# Both samplers' exact estimates on s3 at the benchmark's 500 samples, hashed
# per (p, family): (kind, epsilon_or_t, estimate, bound, samples) as hex floats.
SAMPLER_GOLDEN = [
    (1.5, "sch", "4a9ad00490a55a0f"),
    (1.5, "hs", "e040959c1c8b15ba"),
    (2.0, "sch", "60b88d796b0e1b91"),
    (2.0, "hs", "fb71dc7529060f0a"),
    (3.0, "sch", "67a4422a844a00b7"),
    (3.0, "hs", "9d344bd5d2e493db"),
]


@pytest.mark.parametrize("p,family,sha", SAMPLER_GOLDEN)
def test_sampler_golden_bytes(p, family, sha):
    seed = mix_seed("sampler_golden", p, family)
    conv = modulus_convexity_sample(S3, p, family, samples=500, seed=seed)
    smooth = modulus_smoothness_sample(S3, p, family, samples=500, seed=seed)
    rows = [(e.kind, e.epsilon_or_t.hex(), float(e.estimate).hex(), e.bound.hex(), e.samples)
            for e in conv + smooth]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == sha


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)"])
@pytest.mark.parametrize("family", ["sch", "hs"])
def test_moduli_samplers_independent_of_chunk_size(monkeypatch, dual, family):
    model = parse_dual_arg(dual)

    def run():
        conv = modulus_convexity_sample(model, 1.5, family, samples=150, seed=21)
        smooth = modulus_smoothness_sample(model, 3.0, family, samples=150, seed=21)
        return repr(conv + smooth)

    whole = run()
    per_field = sum(d * d for d in model.dims)
    for budget in (1, 7 * per_field):  # one pair per chunk; 7 per chunk with a ragged tail
        monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", budget)
        assert run() == whole


def test_moduli_samplers_build_no_field(monkeypatch):
    built = []
    post_init = Field.__post_init__
    monkeypatch.setattr(Field, "__post_init__", lambda self: built.append(1) or post_init(self))
    modulus_convexity_sample(S3, 1.5, "sch", samples=20, seed=1)
    modulus_smoothness_sample(S3, 1.5, "hs", samples=20, seed=1)
    assert built == []


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)", "custom(3,5)", "torus(3)", "custom(1,2)"])
def test_moduli_samplers_match_the_field_arithmetic_pass(monkeypatch, dual):
    model = parse_dual_arg(dual)
    t_grid = (0, 0.1, 0.5, 1, 3)
    cells = [(None, samples) for samples in (0, 1, 37, 300)]
    cells += [(7 * model.size, samples) for samples in (0, 1, 37)]  # ragged chunks
    for budget, samples in cells:
        if budget is not None:
            monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", budget)
        for p, family in itertools.product((1.01, 1.5, 2, 3, 7, 1e6), ("sch", "hs")):
            seed = samples + 3
            for convexity, ts in ((True, ()), (False, t_grid), (True, t_grid)):
                got = inequalities._moduli_pairs(model, _finite_interior(p), family, convexity,
                                                 [float(t) for t in ts], samples, seed)
                want = field_moduli.moduli_pairs(model, p, family, convexity, ts, samples, seed)
                for chunk, oracle in zip(got, want, strict=True):
                    for x, y in zip(chunk, oracle, strict=True):
                        assert x is y is None or np.array_equal(x, y), (p, family, convexity)


@pytest.mark.parametrize("sampler", [modulus_convexity_sample, modulus_smoothness_sample])
@pytest.mark.parametrize("family", ["sch", "hs"])
def test_a_moduli_chunk_makes_no_field_arithmetic(monkeypatch, sampler, family):
    calls = []
    for name in ("__add__", "__sub__", "__rmul__"):
        method = getattr(Field, name)
        monkeypatch.setattr(Field, name,
                            lambda *a, _m=method, _n=name: calls.append(_n) or _m(*a))
    for module in (norms, inequalities):
        stack = module._stack
        monkeypatch.setattr(module, "_stack",
                            lambda fields, _s=stack: calls.append("_stack") or _s(fields))
    draws = inequalities._draws
    monkeypatch.setattr(inequalities, "_draws", lambda *a: calls.append("_draws") or draws(*a))
    sampler(S3, 1.5, family, samples=500, seed=1)
    assert calls == ["_draws"]  # one chunk: its draws, whose norms take one field_norm, no stack


def test_smoothness_sampler_on_an_empty_grid_draws_nothing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew pairs with nothing to estimate")

    monkeypatch.setattr(inequalities, "_draws", no_draws)
    assert modulus_smoothness_sample(S3, 1.5, "sch", t_grid=(), samples=200000, seed=1) == []
    assert inequalities._moduli_pass(S3, 1.5, "hs", False, (), 10, 1) == ([], [])
    with pytest.raises(ValueError):
        modulus_smoothness_sample(S3, 1.5, "sch", t_grid=(), samples=-1, seed=1)


def _antipodal_draws(model, keys, start, rows):
    # row k + 1 = -row k and cos t = sin t: the mixed field is exactly 0, so h2
    # falls back to the normalized row k + 1, which is -h1 (separation 2, midpoint 0)
    draw = random_stacks(model, keys[0], 0, 1)
    signs = (-1.0) ** np.arange(start, start + rows + 1)
    a = Field(model, tuple(signs[:, None, None] * b for b in draw.blocks))
    half = np.full(rows, math.sqrt(0.5))
    return a, half, half


def test_moduli_degenerate_mix_falls_back_to_raw_draw(monkeypatch):
    monkeypatch.setattr(inequalities, "_draws", _antipodal_draws)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by the zero norm
        # a separation of 2 counts just below 2, however it rounds, so no pair is dropped
        conv = modulus_convexity_sample(S3, 1.5, "sch", samples=30, seed=3)
        smooth = modulus_smoothness_sample(S3, 1.5, "sch", samples=30, seed=3)
    assert sum(est.samples for est in conv) == 30
    assert all(est.estimate == 1.0 for est in conv if est.samples)
    for est in smooth:  # (|1 - t| + |1 + t|)/2 - 1 = 0 for t <= 1
        assert est.estimate == pytest.approx(0.0, abs=1e-15)


def test_moduli_separation_rounded_to_2_lands_in_the_last_default_bin(monkeypatch):
    # an antipodal pair may measure a separation of 2.0 or above
    monkeypatch.setattr(inequalities, "_draws", _antipodal_draws)
    conv = modulus_convexity_sample(S3, 1.5, "sch", samples=30, seed=3)
    assert [est.samples for est in conv] == [0] * 18 + [30]
    assert conv[-1].estimate == 1.0


def test_moduli_pass_reduces_the_pairs_of_every_chunk(monkeypatch):
    # separations on the edges 0.1 and 1.9, below 0.1 (in no bin), and of 2.0 and above
    # (in the last bin); each chunk holds some of the largest quotients and least gaps
    chunks = [(np.array([[0.5, 0.25, 0.0], [1.0, -0.5, 0.0]]), np.array([0.1, 0.05, 0.35]),
               np.array([0.3, 0.01, 0.2])),
              (np.array([[0.75, 0.0, 0.1, 0.0], [0.2, 0.3, 0.9, 0.0]]),
               np.array([1.9, 2.0, 2.5, 0.15]), np.array([0.6, 0.9, 0.7, 0.25]))]
    calls = []
    monkeypatch.setattr(inequalities, "_moduli_pairs",
                        lambda *a: calls.append(a[1:]) or iter(chunks if a[5] else []))
    conv, smooth = inequalities._moduli_pass(S3, 1.5, "sch", True, (0.5, 1), 7, 3)
    assert calls == [(1.5, "sch", True, [0.5, 1.0], 7, 3)]
    assert [e.epsilon_or_t for e in conv] == list(CONVEXITY_EDGES[:-1])
    assert [(e.epsilon_or_t, e.estimate, e.samples) for e in conv if e.samples] == [
        (0.1, 0.25, 2), (0.3, 0.2, 1), (1.9, 0.6, 3)]
    assert all(math.isnan(e.estimate) for e in conv if not e.samples)
    assert [(e.epsilon_or_t, e.estimate, e.samples) for e in smooth] == [(0.5, 0.75, 7),
                                                                        (1.0, 1.0, 7)]
    conv, smooth = inequalities._moduli_pass(S3, 1.5, "sch", True, (0.5,), 0, 3)
    assert all(e.samples == 0 and math.isnan(e.estimate) for e in conv + smooth)


def test_moduli_zero_norm_draw_raises(monkeypatch):
    def zero_a(model, keys, start, rows):
        a = Field(model, tuple(np.zeros((rows + 1, d, d)) for d in model.dims))
        return a, np.ones(rows), np.zeros(rows)

    monkeypatch.setattr(inequalities, "_draws", zero_a)
    with pytest.raises(ZeroDivisionError):
        modulus_convexity_sample(S3, 1.5, "sch", samples=3, seed=0)


def test_moduli_samplers_reject_negative_sample_counts():
    with pytest.raises(ValueError):
        modulus_convexity_sample(S3, 1.5, "sch", samples=-5, seed=0)
    with pytest.raises(ValueError):
        modulus_smoothness_sample(S3, 1.5, "sch", samples=-5, seed=0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5, "0.5", True, None, 0.5 + 0j])
def test_smoothness_sampler_rejects_grid_points_that_are_not_finite_and_non_negative(t):
    # nan and inf once gave an estimate of -inf, and at inf a passing one; the text
    # "0.5" and True were read as the grid points 0.5 and 1.0
    with pytest.raises(ValueError):
        modulus_smoothness_sample(S3, 1.5, "sch", t_grid=(0.5, t), samples=5, seed=1)


@pytest.mark.parametrize("dual", ["s3", "torus(1)"])
@pytest.mark.parametrize("family", ["sch", "hs"])
@pytest.mark.parametrize("t", [1e300, 1.5e308])
def test_smoothness_sampler_raises_value_error_where_a_bound_overflows(monkeypatch, dual, family,
                                                                      t):
    # t**p in the bound raised OverflowError, and at 1.5e308 the mean of the norms
    # overflowed first with a RuntimeWarning, an error in this suite
    def no_draws(*args):
        raise AssertionError("drew pairs before computing the bounds")

    monkeypatch.setattr(inequalities, "_draws", no_draws)
    with pytest.raises(ValueError, match="smoothness bound"):
        smoothness_upper_bound(1.5, t)
    with pytest.raises(ValueError, match="smoothness bound"):
        modulus_smoothness_sample(parse_dual_arg(dual), 1.5, family, t_grid=(t,), samples=50,
                                  seed=1)


@pytest.mark.parametrize("family", ["sch", "hs"])
@pytest.mark.parametrize("p", [1.0001, 1e6])
def test_smoothness_sampler_raises_value_error_where_an_estimate_overflows(family, p):
    # at exponents this close to 1 and to inf the bound at 1.5e308 is finite, while
    # a norm of h1 +- t h2, or the mean of two, overflows
    assert math.isfinite(smoothness_upper_bound(p, 1.5e308))
    with pytest.raises(ValueError, match="overflows"):
        modulus_smoothness_sample(S3, p, family, t_grid=(0.5, 1.5e308), samples=50, seed=1)
    assert modulus_smoothness_sample(S3, p, family, t_grid=(0.5, 1e300), samples=50, seed=1)


@pytest.mark.parametrize("arg", ["samples", "seed"])
@pytest.mark.parametrize("bad", [True, 2.5, 2.0, "1"])
@pytest.mark.parametrize("sampler", [modulus_convexity_sample, modulus_smoothness_sample])
def test_moduli_samplers_take_integer_samples_and_seeds_only(sampler, bad, arg):
    # samples=True sampled one pair, and a float or text seed keyed the streams by its text
    kwargs = {"samples": 5, "seed": 1, arg: bad}
    with pytest.raises(ValueError):
        sampler(S3, 1.5, "sch", **kwargs)


def test_moduli_samplers_take_numpy_integer_samples_and_seeds():
    for sampler in (modulus_convexity_sample, modulus_smoothness_sample):
        ests = sampler(S3, 1.5, "sch", samples=np.int64(40), seed=np.uint32(3))
        assert ests == sampler(S3, 1.5, "sch", samples=40, seed=3)


@pytest.mark.parametrize("budget", [None, 1])  # default chunks; one pair per chunk
def test_moduli_samplers_mix_two_keys_per_call(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", budget)
    calls = []
    mix = inequalities.mix_seed
    monkeypatch.setattr(inequalities, "mix_seed", lambda *parts: calls.append(parts) or mix(*parts))
    modulus_convexity_sample(S3, 1.5, "sch", samples=500, seed=8)
    assert calls == [(8, "a"), (8, "t")]
    modulus_smoothness_sample(S3, 3.0, "hs", samples=500, seed=8)
    assert len(calls) == 4


@pytest.mark.parametrize("budget", [None, 1])  # default chunks; one pair per chunk
def test_moduli_suite_draws_each_pair_once(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", budget)
    draws, keys = [], []
    draw, mix = inequalities._draws, inequalities.mix_seed

    def counted(model, keys, start, rows):  # a chunk of n pairs draws n + 1 rows
        a, cos_t, sin_t = draw(model, keys, start, rows)
        draws.append((rows, a.batch, cos_t.shape, sin_t.shape))
        return a, cos_t, sin_t

    monkeypatch.setattr(inequalities, "_draws", counted)
    monkeypatch.setattr(inequalities, "mix_seed", lambda *parts: keys.append(parts) or mix(*parts))
    cfg = SuiteConfig(suite="moduli", dual=parse_dual_arg("su2_trunc(3)"), p_list=("1.5", "3"),
                      family="both", trials=40, seed=2)
    assert run_suite(cfg)
    runs = 2 * 2  # (p, family)
    assert len(draws) == runs * len(list(inequalities._chunks(cfg.dual, cfg.trials)))
    assert all(batch == (n + 1,) and cos == sin == (n,) for n, batch, cos, sin in draws)
    assert sum(n for n, *_ in draws) == runs * cfg.trials
    assert len(keys) == runs * 2 and [k[1] for k in keys] == ["a", "t"] * runs


@pytest.mark.parametrize("family", ["sch", "hs"])
def test_moduli_pairs_mix_each_draw_with_its_neighbour(monkeypatch, family):
    # pair k is row k of stream a, mixed with row k + 1 at row k's angle; there is no stream b
    n, seed, p = 40, 6, 1.5
    keys = []
    mix = inequalities.mix_seed
    monkeypatch.setattr(inequalities, "mix_seed", lambda *parts: keys.append(parts) or mix(*parts))
    [(_, separations, _)] = inequalities._moduli_pairs(S3, _finite_interior(p), family, True, [],
                                                       n, seed)  # one chunk
    assert keys == [(seed, "a"), (seed, "t")]
    a = random_stacks(S3, mix_seed(seed, "a"), 0, n + 1)
    units = [b / field_norm(a, p, family)[:, None, None] for b in a.blocks]
    h1, g = Field(S3, [u[:-1] for u in units]), Field(S3, [u[1:] for u in units])
    t = math.pi * random_uniforms(mix_seed(seed, "t"), 0, n)
    mixed = np.cos(t) * h1 + np.sin(t) * g
    h2 = (1.0 / field_norm(mixed, p, family)) * mixed
    np.testing.assert_allclose(separations, field_norm(h1 - h2, p, family), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "t_grid", [(0.1, 0.5, 1.0), (0.0, 0.3, 2.0)], ids=["default", "custom"]
)
@pytest.mark.parametrize("family", ["sch", "hs"])
def test_moduli_pass_returns_both_views(t_grid, family):
    model = parse_dual_arg("su2_trunc(3)")
    both = inequalities._moduli_pass(model, 1.5, family, True, t_grid, 60, 9)
    conv = modulus_convexity_sample(model, 1.5, family, 60, 9)
    smooth = modulus_smoothness_sample(model, 1.5, family, t_grid, 60, 9)
    assert both == (conv, smooth) and any(est.samples for est in conv)


def count_reduced_rows(monkeypatch):
    """The batch rows of every field_norm call, direct or through field_norms, appended to a list."""
    rows = []
    norm = norms.field_norm
    for module in (inequalities, norms):
        monkeypatch.setattr(
            module, "field_norm", lambda h, *a: rows.append(math.prod(h.batch)) or norm(h, *a)
        )
    return rows


def test_moduli_views_form_only_their_own_norms(monkeypatch):
    monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", 1)  # one pair per chunk
    rows = count_reduced_rows(monkeypatch)

    def norms_per_pair(run, *args, **kwargs):
        rows.clear()
        run(S3, 1.5, "sch", *args, **kwargs)
        return sum(rows) / 10

    t_grid = (0.1, 0.5, 1.0, 2.0)
    unit = 3  # a one-pair chunk's two rows, k and k + 1, and their mix, to normalize
    assert norms_per_pair(modulus_convexity_sample, samples=10) == unit + 2
    assert norms_per_pair(modulus_smoothness_sample, t_grid, samples=10) == unit + 2 * len(t_grid)
    both = norms_per_pair(inequalities._moduli_pass, True, t_grid, 10, 0)
    assert both == unit + 2 + 2 * len(t_grid)


@pytest.mark.parametrize(
    "suite,per_chunk,per_p",
    [("two_point", 1, 0), ("clarkson", 1, 0), ("adjoint", 1, 0), ("kadec_klee", 1, 1),
     ("moduli", 3, 0)],  # moduli: the unit pairs take two, their draws and then the mix
)
def test_a_check_reduces_its_norms_at_one_exponent_in_one_call(monkeypatch, suite, per_chunk,
                                                               per_p):
    monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", 1)  # one trial per chunk
    rows = count_reduced_rows(monkeypatch)
    cfg = SuiteConfig(suite=suite, dual=parse_dual_arg("s3"), p_list=("1.5", "3"),
                      family="both", trials=3, seed=5)
    assert all(r.passed for r in run_suite(cfg))
    families = 1 if suite == "kadec_klee" else 2  # the Kadec-Klee suite is Schatten only
    assert len(rows) == len(cfg.p_list) * families * (cfg.trials * per_chunk + per_p)


def test_type_cotype_at_p2_reduces_its_summands_once(monkeypatch):
    # the type/cotype bounds and the Hilbert equality read one field_norms list per chunk
    calls = []
    stacked = norms.field_norms
    for module in (cli, inequalities):
        monkeypatch.setattr(module, "field_norms", lambda *a: calls.append(a[1:]) or stacked(*a))
    cfg = SuiteConfig(suite="type_cotype", dual=parse_dual_arg("su2_trunc(4)"), p_list=("2",),
                      family="sch", trials=10, seed=0)
    reports = run_suite(cfg)
    assert len(reports) == 2 * cfg.trials and all(r.passed for r in reports)
    chunks = len(list(inequalities._chunks(cfg.dual, cfg.trials, 5)))
    assert calls == [(2.0, "sch")] * chunks


def test_moduli_sampler_memory_bounded_by_chunk():
    # unchunked, one 2000-pair stack of custom(64) fields alone would take 131 MB
    model = preset_dual("custom", [64])
    tracemalloc.start()
    try:
        modulus_convexity_sample(model, 1.5, "hs", samples=2000, seed=4)
        modulus_smoothness_sample(model, 3.0, "hs", samples=2000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_bytes = 16 * inequalities._SIGN_TABLE_ENTRIES  # one complex128 run of the table
    assert peak <= 16 * chunk_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_default_bins_cover_unit_interval():
    edges = CONVEXITY_EDGES
    assert edges[0] == pytest.approx(0.1) and edges[-2] == pytest.approx(1.9)
    assert edges[-1] == 2.0 and len(edges) == 20 and list(edges) == sorted(set(edges))


def test_each_separation_lands_in_the_bin_that_holds_it(monkeypatch):
    # every edge, both float neighbours of each edge, and 0.7 + 0.1 in floating point
    seps = [0.7 + 0.1] + [x for e in CONVEXITY_EDGES
                          for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 3.0))]
    gaps = [(i + 1) * 2.0**-12 for i in range(len(seps))]  # pair i's midgap, exact in binary
    norm = inequalities.field_norm
    calls = []

    def separations(h, *args):  # the draws, the pairs' mix, then the stack of their
        calls.append(h.batch)  # separations and midpoints
        return norm(h, *args) if len(calls) < 3 else np.array([seps, 1.0 - np.array(gaps)])

    monkeypatch.setattr(inequalities, "field_norm", separations)
    ests = modulus_convexity_sample(S3, 1.5, "sch", samples=len(seps), seed=0)
    assert calls == [(len(seps) + 1,), (len(seps),), (2, len(seps))]  # one chunk
    edges = CONVEXITY_EDGES
    counts, lowest = [0] * len(ests), [math.inf] * len(ests)
    for sep, gap in zip(seps, gaps):
        eps = min(sep, math.nextafter(2.0, 0.0))
        holding = [k for k in range(len(ests)) if edges[k] <= eps < edges[k + 1]]
        assert len(holding) == (1 if eps >= 0.1 else 0)
        for k in holding:
            counts[k] += 1
            lowest[k] = min(lowest[k], gap)
    assert [est.samples for est in ests] == counts
    assert [est.estimate for est in ests] == lowest
    assert [est.epsilon_or_t for est in ests] == list(edges[:-1])


# -- Rademacher averages ---------------------------------------------------------


def test_rademacher_single_field():
    h = random_field(S3, 4)
    assert rademacher_average([h], 2.0, "sch") == pytest.approx(lp_sch_norm(h, 2.0), rel=1e-12)


def test_rademacher_two_fields_parallelogram():
    h1 = random_field(S3, 5)
    h2 = random_field(S3, 6)
    avg = rademacher_average([h1, h2], 2.0, "sch")
    oracle = math.sqrt(lp_sch_norm(h1, 2.0) ** 2 + lp_sch_norm(h2, 2.0) ** 2)
    assert avg == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("n,p", [(3, 2.0), (3, 1.5), (4, 3.0), (5, 2.5)])
def test_rademacher_matches_independent_enumerator(n, p):
    fields = [random_field(S3, mix_seed("rad", n, j)) for j in range(n)]
    fast = rademacher_average(fields, p, "sch")
    oracle = enumerate_sign_average(fields, p, "sch", 2.0)
    assert fast == pytest.approx(oracle, rel=1e-11)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("family", ["sch", "hs"])
@pytest.mark.parametrize("dual", ["s3", "su2_trunc(3)"])
def test_rademacher_matches_gray_code_walk(dual, family, n):
    model = parse_dual_arg(dual)
    fields = [random_field(model, mix_seed("gray", dual, n, j)) for j in range(n)]
    sums = list(gray_code_sums(fields))
    for p in (1.5, 2.0, 3.0):
        norms = np.array([field_norm(s, p, family) for s in sums])
        oracle = np.mean(norms**2) ** 0.5
        assert rademacher_average(fields, p, family) == pytest.approx(oracle, rel=1e-12)


def test_rademacher_twenty_summands_hilbert_identity():
    # at p = 2 the norm is a Hilbert norm: the L2 average is the quadratic sum
    model = parse_dual_arg("su2_trunc(3)")
    fields = [random_field(model, mix_seed("rad20", j)) for j in range(20)]
    l2 = math.sqrt(sum(field_norm(f, 2.0, "hs") ** 2 for f in fields))
    assert rademacher_average(fields, 2.0, "hs") == pytest.approx(l2, rel=1e-12)


@pytest.mark.parametrize("table", [None, 6 * 4])  # every low bit in the table; 2 of 8 in it
def test_rademacher_independent_of_chunk_size(monkeypatch, table):
    if table is not None:
        monkeypatch.setattr(inequalities, "_SIGN_TABLE_ENTRIES", table)
    fields = [random_field(S3, mix_seed("radchunk", j)) for j in range(9)]
    calls = []
    norm = inequalities.field_norm
    monkeypatch.setattr(inequalities, "field_norm", lambda *a, **kw: calls.append(1) or norm(*a, **kw))
    whole = rademacher_average(fields, 3.0, "sch")
    runs = len(calls)  # one norm call per run of the table: 2^8 patterns, 2^8 or 2^2 a run
    assert runs == (1 if table is None else 64)
    for budget in (1, 7 * 6):  # the trial chunk budget plays no part
        monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", budget)
        calls.clear()
        assert rademacher_average(fields, 3.0, "sch") == whole and len(calls) == runs


def test_rademacher_builds_no_field(monkeypatch):
    fields = [random_field(S3, mix_seed("radfield", j)) for j in range(10)]
    built = []
    post_init = Field.__post_init__
    monkeypatch.setattr(Field, "__post_init__", lambda self: built.append(1) or post_init(self))
    rademacher_average(fields, 1.5, "sch")
    rademacher_average(fields, 3.0, "hs")
    assert built == []


def test_rademacher_memory_bounded_by_chunk():
    # unchunked, the 2^15 signed sums of 16 custom(64) fields alone would take 2 GiB
    model = preset_dual("custom", [64])
    fields = [random_field(model, mix_seed("radmem", j)) for j in range(16)]
    tracemalloc.start()
    try:
        rademacher_average(fields, 3.0, "hs")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_bytes = 16 * inequalities._CHUNK_ENTRIES  # one complex128 batch of fields
    assert peak <= 16 * chunk_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_rademacher_rejects_oversized_input():
    h = random_field(S3, 1)
    with pytest.raises(ValueError):
        rademacher_average([h] * 21, 2.0)


def test_rademacher_rejects_fields_over_different_models():
    h = random_field(S3, 1)
    g = random_field(preset_dual("custom", [1, 1, 2]), 1)  # same dims, another model
    with pytest.raises(ValueError, match="different dual models"):
        rademacher_average([h, g], 2.0)


@pytest.mark.parametrize("reduce", [field_norms, rademacher_average])
def test_fields_of_different_batch_shapes_are_rejected(reduce):
    batch = random_stacks(S3, 1, rows=2)
    with pytest.raises(ValueError, match="different batch shapes"):
        reduce([batch, batch[0]], 1.5, "sch")


def test_rademacher_empty():
    assert rademacher_average([], 2.0) == 0.0


# -- type / cotype ----------------------------------------------------------------


def test_type_cotype_single_field():
    h = random_field(S3, 7)
    for p in (1.4, 2.0, 3.0):
        norms, avg2 = field_norms([h], p, "sch"), rademacher_average([h], p, "sch")
        rep = type_cotype_check([h], p, "sch", norms, avg2)
        assert rep.passed


def test_type_cotype_equalities_at_p2():
    fields = [random_field(S3, mix_seed("tc2", j)) for j in range(5)]
    avg2 = rademacher_average(fields, 2.0, "sch")
    rep = type_cotype_check(fields, 2.0, "sch", field_norms(fields, 2.0, "sch"), avg2)
    assert rep.passed
    # with constant 1 the sign average equals the quadratic sum exactly
    l2 = math.sqrt(sum(lp_sch_norm(f, 2.0) ** 2 for f in fields))
    assert avg2 == pytest.approx(l2, rel=1e-10)


@pytest.mark.parametrize("p", [1.4, 3.0])
def test_type_cotype_random_draws(p):
    for k in range(100):
        fields = [random_field(S3, mix_seed("tc", p, k, j)) for j in range(5)]
        norms, avg2 = field_norms(fields, p, "sch"), rademacher_average(fields, p, "sch")
        rep = type_cotype_check(fields, p, "sch", norms, avg2)
        assert rep.passed, f"type/cotype violated at p={p}, draw {k}: {rep}"


@pytest.mark.parametrize("p", [1.4, 2.0, 3.0])
def test_type_cotype_matches_exhaustive_enumerator(p):
    fields = [random_field(S3, mix_seed("tcx", p, j)) for j in range(4)]
    avg = rademacher_average(fields, p, "sch")
    oracle = enumerate_sign_average(fields, p, "sch", 2.0)
    assert avg == pytest.approx(oracle, rel=1e-11)
    norms = [lp_sch_norm(f, p) for f in fields]
    l2 = math.sqrt(sum(v**2 for v in norms))
    lp = sum(v**p for v in norms) ** (1.0 / p)
    if p <= 2.0:
        assert math.sqrt(two_point_lower_constant(p)) * l2 <= oracle + 1e-10
        assert oracle <= lp + 1e-10 * max(1.0, lp)
    else:
        assert lp <= oracle + 1e-10 * max(1.0, oracle)
        assert oracle <= math.sqrt(two_point_upper_constant(p)) * l2 + 1e-10


@pytest.mark.parametrize("p", [4 / 3, 1.5, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("family", ["sch", "hs"])
def test_scaled_check_sides_match_the_inline_forms_at_moderate_p(p, family):
    # the unscaled (a^r + b^r)^(1/r) forms are the oracle where they cannot overflow
    model = preset_dual("su2_trunc", 4)
    h1, h2 = random_field(model, 40), random_field(model, 41)
    fields = [random_field(S3, mix_seed("inline", j)) for j in range(5)]
    q = p / (p - 1.0)
    e, f = (q, p) if p <= 2.0 else (p, q)
    n = lambda x: field_norm(x, p, family)  # noqa: E731
    rel = dict(rel=1e-14, abs=0.0)

    rep = clarkson_check(h1, h2)(p, family)
    mid_plus, mid_minus = n(0.5 * (h1 + h2)), n(0.5 * (h1 - h2))
    assert rep.lhs == pytest.approx((mid_plus**e + mid_minus**e) ** (1 / e), **rel)
    assert rep.rhs == pytest.approx((0.5 * (n(h1) ** f + n(h2) ** f)) ** (1 / f), **rel)

    mean_p = (0.5 * (n(h1 + h2) ** p + n(h1 - h2) ** p)) ** (1 / p)
    constant = two_point_upper_constant(p) if p >= 2.0 else two_point_lower_constant(p)
    root = math.sqrt(n(h1) ** 2 + constant * n(h2) ** 2)
    rep = two_point_check(h1, h2, p, family, two_point_norms(h1, h2)(p, family))
    sides = (mean_p, root) if p >= 2.0 else (root, mean_p)
    assert (rep.lhs, rep.rhs) == pytest.approx(sides, **rel)

    m = (0.5 * (n(h1) ** f + n(h2) ** f)) ** (1 / f)
    rep = kadec_klee_gap(h1, h2)(p, family)
    assert rep.lhs == pytest.approx(mid_minus**e / m**e, **rel)
    assert rep.rhs == pytest.approx(1.0 - mid_plus**e / m**e, **rel)

    norms = [field_norm(x, p, family) for x in fields]
    l2, lp = math.sqrt(sum(v * v for v in norms)), sum(v**p for v in norms) ** (1 / p)
    avg2 = rademacher_average(fields, p, family)
    rep = type_cotype_check(fields, p, family, field_norms(fields, p, family), avg2)
    if p <= 2.0:
        sides = (math.sqrt(two_point_lower_constant(p)) * l2, lp)
    else:
        sides = (lp, math.sqrt(two_point_upper_constant(p)) * l2)
    assert (rep.lhs, rep.rhs) == pytest.approx(sides, **rel)


# -- Kadec-Klee gap ----------------------------------------------------------------


def test_kadec_klee_identical_fields():
    h = random_field(S3, 8)
    rep = kadec_klee_gap(h, h)(1.5)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_kadec_klee_antipodal_equality(p):
    h = random_field(S3, 9)
    rep = kadec_klee_gap(-1.0 * h, h)(p)
    # in units of the power mean m = ||h||: ||(-h - h)/2|| / m = 1 and (-h + h)/2 = 0
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, rel=1e-11)
    assert rep.rhs == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_kadec_klee_sequence_gap_decreases(p):
    h = random_field(S3, 10)
    d = random_field(S3, 11)
    gaps = []
    for n in range(1, 11):
        hn = h + (1.0 / n) * d
        rep = kadec_klee_gap(hn, h)(p)
        assert rep.passed
        gaps.append(rep.rhs)
    tol = 1e-10 * max(1.0, gaps[0])
    assert all(a >= b - tol for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


# -- unconditional sum comparison ----------------------------------------------------


def test_unconditional_single_unit_field():
    h = random_field(S3, 12)
    h = (1.0 / lp_sch_norm(h, 1.5)) * h
    rep = unconditional_sum_bound([h], 1.5)
    assert rep.passed
    # scalar identity: c_p/8 <= max-bound at eps = 1
    c = two_point_lower_constant(1.5)
    assert c / 8.0 <= convexity_lower_bound(1.5, 1.0) + 1e-15


def test_unconditional_empty_sequence():
    rep = unconditional_sum_bound([], 1.5)
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_unconditional_geometric_norms():
    h = random_field(S3, 13)
    base = (1.0 / lp_sch_norm(h, 3.0)) * h
    fields = [(2.0**-j) * base for j in range(10)]
    rep = unconditional_sum_bound(fields, 3.0)
    assert rep.passed
    # p > 2: the comparison constant is exactly p 2^p, so both sides agree
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    partial = 0.0
    for j in range(10):
        partial += (2.0**-j) ** 3.0
    assert rep.lhs == pytest.approx(partial / 2.0**3, rel=1e-12)  # in units of 2^p


@pytest.mark.parametrize("p", [1.5, 3.0, 1100.0, 1e6])
def test_unconditional_norms_near_2_at_any_exponent(p):
    h = random_field(S3, 15)
    fields = [(c / lp_sch_norm(h, p)) * h for c in (1.999, 1.99, 1.0, 0.5)]
    rep = unconditional_sum_bound(fields, p)
    assert rep.passed and math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    assert 0.0 < rep.lhs <= 4.0
    if p > 2.0:
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


def test_unconditional_rejects_oversized_norms():
    h = random_field(S3, 14)
    big = (3.0 / lp_sch_norm(h, 1.5)) * h
    with pytest.raises(ValueError):
        unconditional_sum_bound([big], 1.5)
