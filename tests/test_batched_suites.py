"""The batched verify suites against per-field oracles.

A batched suite draws trial k as row k of one keyed stream per (suite,
role), the same at every exponent and family, and runs each check once on
the batch (kadec_klee draws row 0 of each role once and checks its sequence
of gaps as batches).  Every report it makes is compared here with the same check
applied to that row's fields one at a time: the public per-field check where
there is one, and the check restated from per-field norms otherwise.  A
single field is reduced by the code that reduces a row of a batch, so the
two reports are equal bit for bit, except where an oracle restates a value
by another formula (``RESTATED``).
"""

import math
import tracemalloc

import numpy as np
import pytest

from dualnorm import cli, duality, inequalities, matcore
from dualnorm.cli import SUITES, SuiteConfig, _interp_spec_for, main, run_suite
from dualnorm.dualmodel import (
    Field,
    field_product,
    mix_seed,
    parse_dual_arg,
    random_field,
    random_stacks,
    zero_field,
)
from dualnorm.duality import (
    direct_sum_dual_pair_check,
    dual_extremizer,
    dual_norm_via_search,
    pairing,
)
from dualnorm.inequalities import (
    clarkson_check,
    kadec_klee_gap,
    rademacher_average,
    two_point_check,
    two_point_critical_constant,
    two_point_equality_check,
    two_point_lower_constant,
    two_point_norms,
    two_point_upper_constant,
    type_cotype_check,
    unconditional_sum_bound,
)
from dualnorm.interpolation import (
    _edges,
    boundary_witness,
    boundary_witness_check,
    interp_norm_consistency,
    three_lines_check,
    witness_f,
    witness_g,
)
from dualnorm.norms import (
    DirectSumSpec,
    ExponentP,
    adjoint_norm_check,
    direct_sum_norm,
    embedding_check,
    field_norm,
    field_norms,
    holder_check,
    lp_hs_norm,
    lp_sch_norm,
)
from dualnorm.report import equality_report, inequality_report, reports_to_json

DUALS = ["s3", "su2_trunc(4)", "custom(1,3)"]
P_LIST = (ExponentP(1.5), ExponentP(2.0), ExponentP(3.0))
TRIALS = 3
SEED = 17
INF = ExponentP(math.inf)
BATCHED = [
    "norms", "holder", "adjoint", "clarkson", "two_point", "type_cotype", "duality",
    "interpolation", "kadec_klee",
]


def config(suite, dual, trials=TRIALS, seed=SEED, **kw):
    return SuiteConfig(
        suite=suite, dual=parse_dual_arg(dual), p_list=P_LIST, family="both",
        trials=trials, seed=seed, **kw,
    )


def row(cfg, k, *parts):
    """Trial k's field of the stream keyed by (seed, suite, *parts), drawn on its own."""
    return random_stacks(cfg.dual, mix_seed(cfg.seed, cfg.suite, *parts), start=k)[0]


def ids(name, p, trials=TRIALS):
    return [(f"{name}[p={p}][{k:04d}]", k) for k in range(trials)]


def oracle_norms(cfg):
    for p in cfg.p_list:
        for case_id, k in ids("embedding", p):
            yield embedding_check(row(cfg, k, "a"), p, case_id=case_id)
        for family in cfg.families:
            for k in range(cfg.trials):
                h1, h2 = row(cfg, k, "a"), row(cfg, k, "b")
                alpha = 0.5 + ((k % 7) + 1) * 0.25
                n1, n2 = field_norm(h1, p, family), field_norm(h2, p, family)
                yield inequality_report(
                    cfg.suite, f"triangle.{family}[p={p}][{k:04d}]", p,
                    field_norm(h1 + h2, p, family), n1 + n2, (h1, h2, p, family), "triangle",
                )
                yield equality_report(
                    cfg.suite, f"homogeneity.{family}[p={p}][{k:04d}]", p,
                    field_norm(alpha * h1, p, family), alpha * n1, (h1, p, family, alpha),
                    "homogeneity",
                )
    for k in range(cfg.trials):
        h = row(cfg, k, "a")
        yield equality_report(
            cfg.suite, f"p2_coincidence[{k:04d}]", 2.0, sch2_from_lapack(h), lp_hs_norm(h, 2.0),
            (h,), "p2_coincidence", rel=1e-12,
        )


def sch2_from_lapack(h):
    """||h||_sch,2 from LAPACK's singular values, entry by entry."""
    sigma = [np.linalg.svd(b, compute_uv=False) for b in h.blocks]
    return math.sqrt(sum(d * float(np.sum(s**2)) for d, s in zip(h.model.dims, sigma)))


def oracle_holder(cfg):
    for p in cfg.p_list:
        for k in range(cfg.trials):
            h1, h2 = row(cfg, k, "a"), row(cfg, k, "b")
            cases = [
                (p, p.conjugate(), f"conjugate[p={p}][{k:04d}]"),
                (INF, INF, f"inf_both[{k:04d}][p={p}]"),
            ]
            if not p.is_inf:
                cases.append((INF, p, f"inf_left[r={p}][{k:04d}]"))
            for a, b, case_id in cases:
                yield holder_check(h1, h2, a, b, field_product(h1, h2), case_id=case_id)


def oracle_adjoint(cfg):
    for p in cfg.p_list:
        for family in cfg.families:
            for case_id, k in ids(family, p):
                h = row(cfg, k, "a")
                yield adjoint_norm_check(h)(p, family, case_id=case_id)


def oracle_clarkson(cfg):
    for p in cfg.p_list:
        for family in cfg.families:
            for case_id, k in ids(family, p):
                h1, h2 = row(cfg, k, "a"), row(cfg, k, "b")
                yield clarkson_check(h1, h2)(p, family, case_id=case_id)


def oracle_two_point(cfg):
    for p in cfg.p_list:
        for family in cfg.families:
            crits = []
            for case_id, k in ids(family, p):
                h1, h2 = row(cfg, k, "a"), row(cfg, k, "b")
                norms = two_point_norms(h1, h2)(p, family)
                yield two_point_check(h1, h2, p, family, norms, case_id=case_id)
                crits.append(two_point_critical_constant(norms))
                if p == 2.0:
                    yield two_point_equality_check(
                        h1, h2, family, two_point_norms(h1, h2)(2.0, family),
                        case_id=f"parallelogram.{family}[{k:04d}]",
                    )
            if p >= 2.0:
                lhs, rhs = max(crits), two_point_upper_constant(p)
            else:
                lhs, rhs = two_point_lower_constant(p), min(crits)
            yield inequality_report(
                cfg.suite, f"critical_aggregate.{family}[p={p}]", p, lhs, rhs,
                (p, family, cfg.seed, cfg.trials), "critical_constant",
            )


def oracle_type_cotype(cfg):
    for p in cfg.p_list:
        for family in cfg.families:
            for case_id, k in ids(family, p):
                fields = [row(cfg, k, j) for j in range(5)]
                norms = field_norms(fields, p, family)
                avg2 = rademacher_average(fields, p, family)
                yield type_cotype_check(fields, p, family, norms, avg2, case_id=case_id)
                if p == 2.0:
                    yield equality_report(
                        cfg.suite, f"hilbert_equality.{family}[{k:04d}]", 2.0,
                        rademacher_average(fields, 2.0, family),
                        math.sqrt(sum(field_norm(f, 2.0, family) ** 2 for f in fields)),
                        (fields, family), "sign_average_identity",
                    )


def oracle_duality(cfg):
    spec = DirectSumSpec(ExponentP(1.5), 3.0)
    for p in cfg.p_list:
        seed = mix_seed(cfg.seed, cfg.suite, "probe")
        for k in range(cfg.trials):
            h, other = row(cfg, k, "a"), row(cfg, k, "b")
            norm, f, inputs = lp_sch_norm(h, p), dual_extremizer(h, p), (h, p)
            yield equality_report(
                cfg.suite, f"extremizer_unit[p={p}][{k:04d}]", p,
                lp_sch_norm(f, p.conjugate()), 1.0, inputs, "extremizer", rel=1e-9,
            )
            yield equality_report(
                cfg.suite, f"extremizer_pairing[p={p}][{k:04d}]", p,
                abs(pairing(h, f)), norm, inputs, "extremizer", rel=1e-9,
            )
            # probe j of trial k is row 5k + j of the case's search stream, at unit q-norm
            probes = random_stacks(cfg.dual, mix_seed(seed, "dual_search"), 5 * k, 5)
            units = [(1.0 / lp_sch_norm(probes[j], p.conjugate())) * probes[j] for j in range(5)]
            yield inequality_report(
                cfg.suite, f"search_bound[p={p}][{k:04d}]", p,
                max(abs(pairing(h, u)) for u in units), norm, inputs, "dual_supremum",
            )
            # the report digests the extremizers it is given: its digest
            # equals the suite's only if they are the batch's rows, bit for bit
            yield direct_sum_dual_pair_check(
                h, other, f, dual_extremizer(other, p), p, spec,
                case_id=f"direct_sum[p={p}][{k:04d}]",
            )


def oracle_interpolation(cfg):
    for p in cfg.p_list:
        spec = _interp_spec_for(p)
        for k in range(cfg.trials):
            h, f = row(cfg, k, "a"), row(cfg, k, "b")
            lines = boundary_witness(h, spec)
            line_norms = lp_sch_norm(lines[0], spec.p0), lp_sch_norm(lines[1], spec.p1)
            norms = line_norms[0].tolist() + line_norms[1].tolist()
            yield equality_report(
                cfg.suite, f"boundary_norms[p={p}][{k:04d}]", p,
                max(norms, key=lambda v: abs(v - 1.0)), 1.0,
                (h, spec.p0, spec.p1, spec.theta), "boundary_witness", rel=1e-9,
            )
            yield three_lines_check(h, f, spec, lines, case_id=f"three_lines[p={p}][{k:04d}]")
            yield interp_norm_consistency(
                h, spec, line_norms, case_id=f"consistency[p={p}][{k:04d}]"
            )


def oracle_kadec_klee(cfg):
    for p in cfg.p_list:
        # one h, d and sum base for every exponent: row 0 of each role's stream
        h, d, base = (row(cfg, 0, role) for role in ("a", "b", "sum"))
        for n in range(1, cfg.trials + 1):
            yield kadec_klee_gap(h + (1.0 / n) * d, h)(p, case_id=f"gap[p={p}][n={n:04d}]")
        scaled = [(2.0**-j / lp_sch_norm(base, p)) * base for j in range(5)]
        yield unconditional_sum_bound(scaled, p, case_id=f"sum_bound[p={p}]")


ORACLES = {
    "norms": oracle_norms,
    "holder": oracle_holder,
    "adjoint": oracle_adjoint,
    "clarkson": oracle_clarkson,
    "two_point": oracle_two_point,
    "type_cotype": oracle_type_cotype,
    "duality": oracle_duality,
    "interpolation": oracle_interpolation,
    "kadec_klee": oracle_kadec_klee,
}


# oracles that restate a value by another formula: LAPACK's singular values,
# math.sqrt of a plain sum, and one probe at a time
RESTATED = ("p2_coincidence", "hilbert_equality", "search_bound")


def assert_same_report(got, want, rel=1e-12):
    if not want.case_id.startswith(RESTATED):
        assert got == want, want.case_id
        return
    for name in ("suite", "case_id", "anchor", "p"):
        assert getattr(got, name) == getattr(want, name)
    assert got.inputs_digest == want.inputs_digest, got.case_id
    assert got.passed == want.passed, got.case_id
    assert got.lhs == pytest.approx(want.lhs, rel=rel, abs=0.0), got.case_id
    assert got.rhs == pytest.approx(want.rhs, rel=rel, abs=0.0), got.case_id
    assert got.tol == pytest.approx(want.tol, rel=rel, abs=0.0), got.case_id
    # the slack is a difference of the two sides: its rounding is relative to their size
    assert abs(got.slack - want.slack) <= rel * max(1.0, abs(want.lhs), abs(want.rhs)), got.case_id


@pytest.mark.parametrize("suite", BATCHED)
@pytest.mark.parametrize("dual", DUALS)
def test_batched_reports_match_per_field_checks(dual, suite):
    cfg = config(suite, dual)
    got = {r.case_id: r for r in run_suite(cfg)}
    want = list(ORACLES[suite](cfg))
    assert sorted(got) == sorted(r.case_id for r in want)
    for w in want:
        assert_same_report(got[w.case_id], w)
    assert all(r.passed for r in got.values())


# -- batch forms of the sign average and the dual-norm search ------------------


def gray_code_norms(fields, p, family):
    """The norms of all 2^n signed sums, each sum updated by one +-2 H_j flip (oracle path)."""
    current = fields[0]
    for f in fields[1:]:
        current = current + f
    signs = [1] * len(fields)
    norms = [field_norm(current, p, family)]
    for k in range(1, 2 ** len(fields)):
        j = (k & -k).bit_length() - 1
        current = current + (-2.0 * signs[j]) * fields[j]
        signs[j] = -signs[j]
        norms.append(field_norm(current, p, family))
    return np.array(norms)


@pytest.mark.parametrize("dual", DUALS)
@pytest.mark.parametrize("family", ["sch", "hs"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_rademacher_average_of_a_batch_is_its_rows_averages(dual, family, n):
    model = parse_dual_arg(dual)
    batches = [random_stacks(model, mix_seed("radbatch", dual, n, j), rows=4) for j in range(n)]
    for p in (1.5, 2.0, 3.0):
        got = rademacher_average(batches, p, family)
        assert got.shape == (4,)
        for k in range(4):
            rows = [b[k] for b in batches]
            assert got[k] == rademacher_average(rows, p, family)
            oracle = np.mean(gray_code_norms(rows, p, family) ** 2) ** 0.5
            assert got[k] == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("table", [1, 4 * 6 * 3])  # no low bit in the table; two of them
def test_rademacher_average_splits_its_sums_at_any_table_size(monkeypatch, table):
    monkeypatch.setattr(inequalities, "_SIGN_TABLE_ENTRIES", table)
    model = parse_dual_arg("s3")
    batches = [random_stacks(model, mix_seed("radsplit", j), rows=3) for j in range(6)]
    got = rademacher_average(batches, 3.0, "sch")
    for k in range(3):
        norms = gray_code_norms([b[k] for b in batches], 3.0, "sch")
        assert got[k] == pytest.approx(np.mean(norms**2) ** 0.5, rel=1e-12)


@pytest.mark.parametrize("p, family", [(1.5, "sch"), (3.0, "hs")])
def test_a_row_of_a_large_batch_averages_as_the_row_alone(p, family):
    # the sign table was once sized by the whole batch, so a row's sums were grouped
    # by how many rows shared it
    model = parse_dual_arg("su2_trunc(4)")
    batches = [random_stacks(model, mix_seed("radrows", j), rows=600) for j in range(5)]
    got = rademacher_average(batches, p, family)
    for k in range(0, 600, 7):
        assert got[k] == rademacher_average([b[k] for b in batches], p, family), k


def test_rademacher_average_keeps_the_batch_shape_and_rejects_mixed_batches():
    model = parse_dual_arg("s3")
    grid = [random_stacks(model, j, rows=6).map_blocks(lambda b: b.reshape(2, 3, *b.shape[1:]))
            for j in range(3)]
    got = rademacher_average(grid, 3.0, "sch")
    assert got.shape == (2, 3)
    assert got[1, 2] == rademacher_average([g[1, 2] for g in grid], 3.0, "sch")
    assert rademacher_average([g[:0] for g in grid], 3.0, "sch").shape == (0, 3)
    with pytest.raises(ValueError, match="batch"):
        rademacher_average([grid[0], grid[1][0]], 3.0, "sch")


@pytest.mark.parametrize("dual", DUALS)
def test_dual_norm_search_of_a_batch_reads_each_rows_probes(dual):
    model = parse_dual_arg(dual)
    batch = random_stacks(model, 31, start=2, rows=3)
    for p in (1.5, 3.0, math.inf):
        got = dual_norm_via_search(batch, trials=4, seed=9, start=2)(p)
        assert got.shape == (3,)
        for k in range(3):
            want = dual_norm_via_search(batch[k], trials=4, seed=9, start=2 + k)(p)
            assert got[k] == want


def test_dual_norm_search_of_a_single_field_reads_rows_zero_to_trials():
    model = parse_dual_arg("su2_trunc(4)")
    h = random_field(model, 4)
    probes = random_stacks(model, mix_seed(6, "dual_search"), rows=5)
    want = max(abs(pairing(h, (1.0 / lp_sch_norm(probes[j], 3.0)) * probes[j])) for j in range(5))
    got = dual_norm_via_search(h, trials=5, seed=6)(1.5)
    assert type(got) is float and got == pytest.approx(want, rel=1e-12)


def test_dual_norm_search_pairs_a_zero_row_to_zero():
    model = parse_dual_arg("s3")
    h = random_field(model, 2)
    batch = Field(model, tuple(np.stack([b, 0 * b, b]) for b in h.blocks))
    got = dual_norm_via_search(batch, trials=3, seed=1)(1.5)
    assert got[1] == 0.0
    for k in (0, 2):  # row k reads the probes of row k of a batch, however many rows are zero
        want = dual_norm_via_search(h, trials=3, seed=1, start=k)(1.5)
        assert 0.0 < want and got[k] == want
    assert dual_norm_via_search(zero_field(model), trials=3, seed=1)(1.5) == 0.0


# -- one reduction path: a single field is the one-row case of a batch -----------

ROW_DUALS = ["s3", "torus(3)", "su2_trunc(4)", "custom(1,3)", "custom(2)", "custom(16,32)"]
ROW_EXPONENTS = [1.0, 1.5, 2.0, 3.0, 1100.0, math.inf]


@pytest.mark.parametrize("dual", ROW_DUALS)
def test_a_single_field_reduces_bit_for_bit_as_its_row_of_a_batch(dual):
    model = parse_dual_arg(dual)
    h, g, e = (random_stacks(model, mix_seed("one_path", dual, role), rows=3) for role in "hge")
    for norm in (lp_sch_norm, lp_hs_norm):
        for p in ROW_EXPONENTS:
            rows = norm(h, p)
            for k in range(3):
                one = norm(h[k], p)
                assert type(one) is float and one == rows[k], (norm.__name__, p, k)
    spec = DirectSumSpec(ExponentP(1.5), 3.0)
    for p in (1.5, 3.0):
        interp = _interp_spec_for(ExponentP(p))
        for witness, x in ((witness_f, h), (witness_g, g)):
            batch = witness(x, interp)(_edges())
            assert all(witness(x[k], interp)(_edges()) == batch[k] for k in range(3)), p
        for family in ("sch", "hs"):
            sums = direct_sum_norm(h, g, p, spec, family)
            averages = rademacher_average([h, g, e], p, family)
            for k in range(3):
                assert direct_sum_norm(h[k], g[k], p, spec, family) == sums[k], (p, family, k)
                assert rademacher_average([h[k], g[k], e[k]], p, family) == averages[k]
    for p in (1.0, 1.5, 3.0):
        extremizers = dual_extremizer(h, p)
        assert all(dual_extremizer(h[k], p) == extremizers[k] for k in range(3)), p
    for p in (1.5, 3.0, math.inf):
        found = dual_norm_via_search(h, trials=3, seed=5)(p)
        assert all(dual_norm_via_search(h[k], 3, 5, start=k)(p) == found[k] for k in range(3)), p
    pairs = pairing(h, g)
    assert all(pairing(h[k], g[k]) == pairs[k] for k in range(3))


INTERP = _interp_spec_for(ExponentP(3.0))
def interp_line_norms(h):
    """The norms of the two boundary lines of h's witness under INTERP, each at its exponent."""
    lines = boundary_witness(h, INTERP)
    return lp_sch_norm(lines[0], INTERP.p0), lp_sch_norm(lines[1], INTERP.p1)


# each check on fields h, g, e: one function for single fields and for batches
MERGED_CHECKS = {
    "embedding": lambda h, g, e, **kw: embedding_check(h, 1.5, **kw),
    "holder": lambda h, g, e, **kw: holder_check(h, g, 3.0, 1.5, field_product(h, g), **kw),
    "adjoint": lambda h, g, e, **kw: adjoint_norm_check(h)(3.0, "hs", **kw),
    "clarkson": lambda h, g, e, **kw: clarkson_check(h, g)(1.5, "sch", **kw),
    "kadec_klee": lambda h, g, e, **kw: kadec_klee_gap(h, g)(3.0, **kw),
    "direct_sum": lambda h, g, e, **kw: direct_sum_dual_pair_check(
        h, g, e, h, 3.0, DirectSumSpec(ExponentP(1.5), 3.0), **kw
    ),
    "three_lines": lambda h, g, e, **kw: three_lines_check(
        h, g, INTERP, boundary_witness(h, INTERP), **kw
    ),
    "consistency": lambda h, g, e, **kw: interp_norm_consistency(
        h, INTERP, interp_line_norms(h), **kw
    ),
    "boundary_witness": lambda h, g, e, **kw: boundary_witness_check(
        h, INTERP, interp_line_norms(h), **kw
    ),
}


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(3)"])
@pytest.mark.parametrize("check", list(MERGED_CHECKS))
def test_a_check_of_a_batch_takes_one_case_id_per_row(check, dual):
    model = parse_dual_arg(dual)
    run = MERGED_CHECKS[check]
    ids = ["r0", "r1", "r2"]
    for seed in range(20):  # a single field reports its batch row's bits, on every draw
        fields = [random_stacks(model, mix_seed("merged", role, seed), rows=3) for role in "hge"]
        with pytest.raises(ValueError, match="batch"):  # the default case id names one report
            run(*fields)
        with pytest.raises(ValueError, match="rows"):
            run(*fields, case_id=["r0", "r1"])
        reports = run(*fields, case_id=ids)
        assert reports == [run(*(x[k] for x in fields), case_id=ids[k]) for k in range(3)], seed


# numpy adds 8 or more terms pairwise, not in order, so a single field reduces as its row
# only if both take one summation order: torus(64) pairs 64 entries, custom(16,32) sums runs
# of 256 and 1024 coordinates, and custom(1,2,1,3,3) has dims out of order
@pytest.mark.parametrize("dual", ["s3", "su2_trunc(3)", "torus(64)", "custom(16,32)",
                                  "custom(1,2,1,3,3)"])
def test_a_single_field_pairs_bit_for_bit_as_its_row_of_a_batch(dual):
    model = parse_dual_arg(dual)
    ids = ["r0", "r1", "r2"]
    for seed in range(10):
        h, g = (random_stacks(model, mix_seed("pair_rows", role, seed), rows=3) for role in "hg")
        pairs = pairing(h, g)
        pairs_extremal = {p: pairing(h, dual_extremizer(h, p)) for p in (1.0, 1.5, 3.0)}
        consistency = interp_norm_consistency(h, INTERP, interp_line_norms(h), case_id=ids)
        for k in range(3):
            one = pairing(h[k], g[k])
            # a numpy complex; reports take np.abs, since the builtin abs (C hypot) can
            # differ from it in the last bit
            assert type(one) is np.complex128 and one.tobytes() == pairs[k].tobytes(), (seed, k)
            assert np.abs(one) == np.abs(pairs)[k]
            for p, row in pairs_extremal.items():
                assert pairing(h[k], dual_extremizer(h[k], p)).tobytes() == row[k].tobytes(), p
            report = interp_norm_consistency(h[k], INTERP, interp_line_norms(h[k]), case_id=ids[k])
            assert report == consistency[k], (seed, k)


# -- layout: rows of keyed streams, in chunks -----------------------------------


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)"])
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, dual):
    cfg = config("all", dual, trials=5)
    whole = reports_to_json(run_suite(cfg))
    per_field = sum(d * d for d in cfg.dual.dims)
    for budget in (1, 2 * per_field):  # one trial per chunk; two per chunk with a ragged tail
        monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", budget)
        assert reports_to_json(run_suite(cfg)) == whole


# type_cotype on custom(16,32): from 4 trials the batch once set the size of the sign table
TRIAL_COUNTS = [("all", dual, 3, 5, SEED) for dual in DUALS] + [
    ("type_cotype", "custom(16,32)", 2, 12, 11)
]


@pytest.mark.parametrize("suite, dual, few, many, seed", TRIAL_COUNTS,
                         ids=[*DUALS, "type_cotype-custom(16,32)"])
def test_trial_reports_do_not_depend_on_the_trial_count(suite, dual, few, many, seed):
    reports = run_suite(config(suite, dual, trials=few, seed=seed))
    more = {(r.suite, r.case_id): r for r in run_suite(config(suite, dual, trials=many, seed=seed))}
    # critical_aggregate aggregates over all trials, and the moduli suite's
    # trial count is its sample count
    kept = [r for r in reports if r.suite != "moduli" and "critical_aggregate" not in r.case_id]
    assert {r.suite for r in kept} == {r.suite for r in reports} - {"moduli"}
    for r in kept:
        assert more[r.suite, r.case_id] == r, (r.suite, r.case_id)


@pytest.mark.parametrize("suite", BATCHED)
def test_many_trials_stay_within_chunk_memory(suite, capsys):
    chunk_bytes = 16 * inequalities._CHUNK_ENTRIES  # one complex128 batch of fields
    # 400 trials on custom(16,32): unchunked, each batch of draws alone would take 8 MB.
    # 120 trials span at least three chunks of every suite, and the fields and memos
    # that a chunk shares between four exponents and both families stay in its budget
    for p, family, trials in (("3", "sch", 400), ("1.5,2,3,6", "both", 120)):
        argv = ["verify", suite, "--dual", "custom(16,32)", "--p", p, "--family", family,
                "--trials", str(trials), "--seed", "2"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.endswith("checks passed\n")
        assert peak <= 16 * chunk_bytes, f"--p {p}: peak {peak / 2**20:.1f} MiB"


# -- every exponent and family on the same draws ------------------------------------


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)"])
def test_a_report_does_not_depend_on_the_other_exponents_and_families(dual):
    def run(p_list, family):
        return run_suite(SuiteConfig("all", parse_dual_arg(dual), p_list, family=family,
                                     trials=TRIALS, seed=SEED))

    few = run(("2",), "hs")
    many = {(r.suite, r.case_id): r for r in run(("1.5", "2", "3"), "both")}
    assert {r.suite for r in few} == set(SUITES)
    for r in few:
        assert many[r.suite, r.case_id] == r, (r.suite, r.case_id)


def test_each_role_stream_is_drawn_once_per_chunk(monkeypatch):
    model = parse_dual_arg("su2_trunc(4)")
    draws = []

    def counted(model, key, start=0, rows=1):
        draws.append((key, start, rows))
        return random_stacks(model, key, start, rows)

    for module in (cli, duality):  # moduli draws through inequalities, and is exempt
        monkeypatch.setattr(module, "random_stacks", counted)
    # a chunk of 1 to 10 trials, by suite: every suite but holder walks several chunks
    monkeypatch.setattr(inequalities, "_CHUNK_ENTRIES", 10 * model.size)

    def run(p_list, family):
        draws.clear()
        run_suite(SuiteConfig("all", model, p_list, family=family, trials=5, seed=SEED))
        return sorted(draws)

    once = run((1.5,), "sch")
    assert len(once) > len({key for key, _, _ in once})  # several chunks of one stream
    many = run((1.5, 2, 3), "both")
    assert len(set(many)) == len(many)  # no rows drawn twice
    assert many == once


# each staged check, built on fields h and g: called at every exponent and family
STAGED = {
    "adjoint": lambda h, g: adjoint_norm_check(h),
    "clarkson": clarkson_check,
    "two_point": two_point_norms,
    "kadec_klee": kadec_klee_gap,
}


@pytest.mark.parametrize("name", list(STAGED))
def test_a_staged_check_factors_its_stack_once(monkeypatch, name):
    model = parse_dual_arg("custom(3,5)")  # blocks of 3x3 and up take LAPACK
    h, g = (random_field(model, mix_seed("staged", role)) for role in "ab")
    calls = []
    kernel = matcore.singular_values
    monkeypatch.setattr(matcore, "singular_values", lambda a: calls.append(a.shape) or kernel(a))
    check = STAGED[name](h, g)
    counts = []
    for p in (1.5, 3.0):
        for family in ("sch", "hs"):
            check(p, family)
            counts.append(len(calls))
    assert counts == [len(model.dims)] * 4  # one stacked factorization per entry


def test_the_dual_search_draws_its_probes_once(monkeypatch):
    model = parse_dual_arg("custom(3,5)")
    h = random_stacks(model, mix_seed("staged", "a"), rows=3)
    exponents = (1.5, 2.0, 3.0, 6.0)
    fresh = [dual_norm_via_search(h, 4, 7, start=2)(p) for p in exponents]
    draws = []
    monkeypatch.setattr(duality, "random_stacks",
                        lambda *args: draws.append(args) or random_stacks(*args))
    search = dual_norm_via_search(h, 4, 7, start=2)
    for p, want in zip(exponents, fresh):
        assert np.array_equal(search(p), want), p
    assert len(draws) == 1
