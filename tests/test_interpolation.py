import cmath
import math

import amplified
import mpmath
import numpy as np
import pytest

from dualnorm import interpolation, matcore
from dualnorm.dualmodel import (
    Field,
    mix_seed,
    parse_dual_arg,
    preset_dual,
    random_field,
    random_stacks,
)
from dualnorm.duality import dual_extremizer, pairing
from dualnorm.interpolation import (
    DEFAULT_T_GRID,
    InterpSpec,
    boundary_witness,
    boundary_witness_check,
    interp_norm_consistency,
    three_lines_check,
    witness_f,
    witness_g,
)
from dualnorm.cli import _interp_spec_for
from dualnorm.norms import ExponentP, lp_sch_norm
from dualnorm.report import equality_report
from test_duality import EXTREME_P
from test_power_sum import mp_sch_norm

SPEC_1_2 = InterpSpec.for_target(1.0, 2.0, 1.5)
SPEC_2_4 = InterpSpec.for_target(2.0, 4.0, 3.0)


def scalar_witness_oracle(values, weights, p0, p1, theta, z):
    """Classical scalar witness for a field of positive 1x1 blocks.

    Each normalized value u = v/||h|| maps to u^(p/p(z)), evaluated with
    plain complex arithmetic; the matrix route must coincide on scalar data.
    """
    inv = (1 - theta) / p0 + theta / p1
    p = 1.0 / inv
    norm = sum(w * v**p for w, v in zip(weights, values)) ** (1.0 / p)
    exponent = p * ((1 - z) / p0 + z / p1)
    return [cmath.exp(exponent * cmath.log(v / norm)) for v in values], p


def max_block_diff(f1: Field, f2: Field) -> float:
    return max(float(np.max(np.abs(a - b))) for a, b in zip(f1.blocks, f2.blocks))


# -- spec arithmetic -----------------------------------------------------------


def test_spec_derived_exponent():
    assert float(SPEC_1_2.p) == pytest.approx(1.5, abs=1e-14)
    assert SPEC_1_2.theta == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert float(SPEC_2_4.p) == pytest.approx(3.0, abs=1e-14)
    assert SPEC_2_4.theta == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError):
        InterpSpec(ExponentP(math.inf), ExponentP(2.0), 0.5)
    with pytest.raises(ValueError):
        InterpSpec(ExponentP(1.0), ExponentP(2.0), 1.0)
    with pytest.raises(ValueError):
        InterpSpec.for_target(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="equal endpoints"):
        InterpSpec.for_target(2.0, 2.0, 3.0)
    one = ExponentP(1.0)
    with pytest.raises(ValueError, match="derived exponent > 1"):  # its conjugate is inf
        witness_g(random_field(preset_dual("s3"), 1), InterpSpec(one, one, 0.5))


@pytest.mark.parametrize("theta", [0.0, 1.0, math.nan, True, "0.5"])
def test_spec_rejects_theta_outside_the_open_unit_interval(theta):
    with pytest.raises(ValueError, match=r"theta must be a real number in \(0, 1\)"):
        InterpSpec(ExponentP(1.0), ExponentP(2.0), theta)


def test_exponent_path_boundary_real_parts():
    # Re(p/p(z)) must equal p/p0 on the left edge and p/p1 on the right edge
    for spec in (SPEC_1_2, SPEC_2_4):
        p = float(spec.p)
        for t in np.arange(-2.0, 2.01, 0.25):
            w0 = p * ((1 - 1j * t) / spec.p0 + 1j * t / spec.p1)
            w1 = p * ((1 - (1 + 1j * t)) / spec.p0 + (1 + 1j * t) / spec.p1)
            assert abs(w0.real - p / spec.p0) <= 1e-14
            assert abs(w1.real - p / spec.p1) <= 1e-14


# -- witness functions ----------------------------------------------------------


@pytest.mark.parametrize("spec", [SPEC_1_2, SPEC_2_4])
def test_witness_recovers_field_at_theta(spec):
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, 11)
    h_unit = (1.0 / lp_sch_norm(h, spec.p)) * h
    w = witness_f(h, spec)(spec.theta)
    assert max_block_diff(w, h_unit) <= 1e-10


def test_witness_diagonal_block_at_left_edge():
    # single dim-2 entry with positive diagonal: each diagonal value v maps
    # to (v/norm)^(p/p0) at z = 0
    m = preset_dual("custom", [2])
    h = Field(m, (np.diag([1.0, 2.0]),))
    spec = SPEC_1_2
    p = float(spec.p)
    norm = lp_sch_norm(h, p)
    w = witness_f(h, spec)(0.0)
    expected = np.diag([(v / norm) ** (p / spec.p0) for v in (1.0, 2.0)])
    assert np.allclose(w.blocks[0], expected, atol=1e-12)


def test_witness_scalar_entries_match_classical_formula():
    m = preset_dual("torus", 3)
    values = [0.5, 1.25, 2.0]
    weights = [1, 1, 1]
    h = Field(m, tuple(np.array([[v]]) for v in values))
    spec = SPEC_1_2
    for z in (0.3 + 0.4j, 0.8 - 1.0j, 0.0 + 2.0j):
        w = witness_f(h, spec)(z)
        oracle, _ = scalar_witness_oracle(
            values, weights, spec.p0, spec.p1, spec.theta, z
        )
        for blk, val in zip(w.blocks, oracle):
            assert abs(complex(blk[0, 0]) - val) <= 1e-12


@pytest.mark.parametrize("spec", [SPEC_1_2, SPEC_2_4])
@pytest.mark.parametrize("seed", range(10))
def test_witness_boundary_norms_are_one(spec, seed):
    h = random_field(preset_dual("s3"), mix_seed("bnorm", seed))
    left, right = boundary_witness(h, spec)
    n0, n1 = lp_sch_norm(left, spec.p0).tolist(), lp_sch_norm(right, spec.p1).tolist()
    for v in n0 + n1:
        assert v == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("spec", [SPEC_1_2, SPEC_2_4])
def test_dual_witness_recovers_field_and_boundary_norms(spec):
    m = preset_dual("s3")
    f = random_field(m, 13)
    q = spec.p.conjugate()
    f_unit = (1.0 / lp_sch_norm(f, q)) * f
    g = witness_g(f, spec)
    assert max_block_diff(g(spec.theta), f_unit) <= 1e-10
    q0 = spec.p0.conjugate()
    q1 = spec.p1.conjugate()
    for t in (-2.0, -0.5, 0.0, 0.5, 2.0):
        assert lp_sch_norm(g(1j * t), q0) == pytest.approx(1.0, abs=1e-9)
        assert lp_sch_norm(g(1 + 1j * t), q1) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("spec", [SPEC_1_2, SPEC_2_4])
@pytest.mark.parametrize("dual", ["s3", "su2_trunc(3)"])
@pytest.mark.parametrize("dual_side", [False, True])
def test_witness_matches_eigh_oracle(spec, dual, dual_side):
    # |A*|^w A = (A A*)^(w/2) A, computed through eigh rather than the SVD
    if dual_side:
        witness, r = witness_g, spec.p.conjugate()
        inv0, inv1 = 1.0 / spec.p0.conjugate(), 1.0 / spec.p1.conjugate()
    else:
        witness, r = witness_f, spec.p
        inv0, inv1 = 1.0 / spec.p0, 1.0 / spec.p1
    for k in range(3):
        h = random_field(parse_dual_arg(dual), mix_seed("oracle", dual, k))
        h_unit = (1.0 / lp_sch_norm(h, r)) * h
        at = witness(h, spec)
        for z in (0.0, 1.0, -1.5j, 0.5j, 1 + 0.75j, 1 - 2j):
            w = r * ((1 - z) * inv0 + z * inv1) - 1.0
            for a, got in zip(h_unit.blocks, at(z).blocks):
                expected = amplified.psd_power(a @ a.conj().T, w / 2) @ a
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_three_lines_factors_each_block_once(monkeypatch):
    calls = []
    svd = matcore.svd
    monkeypatch.setattr(matcore, "svd", lambda a: calls.append(a.shape) or svd(a))
    m = preset_dual("s3")
    h = random_field(m, 1)
    three_lines_check(h, random_field(m, 2), SPEC_1_2, boundary_witness(h, SPEC_1_2))
    assert len(calls) == 2 * len(m.entries)  # one factorization per block per witness


@pytest.mark.parametrize("dual_side", [False, True])
def test_witness_at_an_array_of_points_is_a_batch(dual_side):
    h = random_field(preset_dual("s3"), 7)
    at = (witness_g if dual_side else witness_f)(h, SPEC_2_4)
    zs = np.array([0.0, 1.0, -1.5j, 0.5j, 1 + 0.75j, 0.3 - 2j])
    batch = at(zs)
    assert batch.batch == (6,)
    for k, z in enumerate(zs):
        one = at(z)
        assert one.batch == ()
        assert all(np.array_equal(b[k], a) for b, a in zip(batch.blocks, one.blocks))
    assert at(zs.reshape(2, 3)).batch == (2, 3)


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(3)"])
def test_witness_of_a_batch_holds_each_rows_witness(dual):
    hs = random_stacks(parse_dual_arg(dual), 3, rows=3)
    for witness in (witness_f, witness_g):
        batch = witness(hs, SPEC_1_2)(interpolation._edges())
        assert batch.batch == (3, 2, len(DEFAULT_T_GRID))
        for k in range(3):
            # a single field is reduced by the code that reduces a row of a batch
            assert batch[k] == witness(hs[k], SPEC_1_2)(interpolation._edges())


def test_boundary_norms_and_three_lines_evaluate_the_grid_as_one_batch(monkeypatch):
    m = preset_dual("s3")
    h, f = random_field(m, 1), random_field(m, 2)
    kernels, pairs = [], []
    for name in ("singular_values", "hs_norm"):  # the two reduction kernels
        kernel = getattr(matcore, name)
        monkeypatch.setattr(matcore, name, lambda a, k=kernel, n=name: kernels.append(n) or k(a))
    pair = interpolation.pairing
    monkeypatch.setattr(interpolation, "pairing", lambda a, b: pairs.append(a.batch) or pair(a, b))
    lines = boundary_witness(h, SPEC_1_2)
    n0, n1 = lp_sch_norm(lines[0], SPEC_1_2.p0), lp_sch_norm(lines[1], SPEC_1_2.p1)
    # the normalization reads the SVD memo only, then one norm per strip edge: one
    # kernel call per entry each (singular values at p0, Frobenius sums at p1 = 2)
    assert len(kernels) == 2 * len(m.entries) and kernels.count("hs_norm") == len(m.entries)
    assert len(n0) == len(n1) == len(DEFAULT_T_GRID)
    three_lines_check(h, f, SPEC_1_2, lines)
    # each strip edge's grid as one batch, then the center
    assert pairs == [(len(DEFAULT_T_GRID),)] * 2 + [()]


def test_witness_rejects_points_off_strip():
    h = random_field(preset_dual("s3"), 1)
    w = witness_f(h, SPEC_1_2)
    with pytest.raises(ValueError):
        w(-0.5)
    with pytest.raises(ValueError):
        w(1.5 + 1j)
    with pytest.raises(ValueError):
        w(np.array([0.5, 1.5]))


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)", "custom(16,32)"])
@pytest.mark.parametrize("p", EXTREME_P, ids=repr)
def test_boundary_norms_are_one_at_extreme_exponents(dual, p):
    # the suite's strips: witness exponents up to 2p, where a rounded norm raised
    # to them would lose every digit
    spec = _interp_spec_for(ExponentP(p))
    hs = random_stacks(parse_dual_arg(dual), mix_seed("extreme p witness", dual), rows=2)
    q0, q1 = spec.p0.conjugate(), spec.p1.conjugate()
    edges = interpolation._edges()
    with mpmath.workdps(50):
        for at, exponents in ((witness_f(hs, spec), (spec.p0, spec.p1)),
                              (witness_g(hs, spec), (q0, q1))):
            for z, r in zip(edges, exponents):
                line = at(z)
                for k in range(2):
                    for j in range(len(z)):
                        assert abs(mp_sch_norm(line[k, j], r) - 1) <= 1e-12


# -- three lines ----------------------------------------------------------------


@pytest.mark.parametrize("spec", [SPEC_1_2, SPEC_2_4])
def test_three_lines_extremizer_saturates_center(spec):
    m = preset_dual("s3")
    h = random_field(m, 5)
    h_unit = (1.0 / lp_sch_norm(h, spec.p)) * h
    f = dual_extremizer(h_unit, spec.p)
    rep = three_lines_check(h, f, spec, boundary_witness(h, spec))
    assert rep.passed
    assert abs(pairing(h_unit, f)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("spec", [SPEC_1_2, SPEC_2_4])
def test_three_lines_random_pairs_bounded(spec):
    m = preset_dual("s3")
    for k in range(200):
        h = random_field(m, mix_seed("tl", float(spec.p), k, 0))
        f = random_field(m, mix_seed("tl", float(spec.p), k, 1))
        rep = three_lines_check(h, f, spec, boundary_witness(h, spec))
        assert rep.lhs <= 1.0 + 1e-9, f"strip value above 1 at draw {k}: {rep.lhs}"
        assert rep.passed


def test_three_lines_scalar_instance_constant_along_vertical_lines():
    # one scalar entry: the normalized witnesses are identically 1, so the
    # strip function is the constant 1 (modulus lambda^a with lambda = 1)
    m = preset_dual("torus", 1)
    h = Field(m, (np.array([[2.0]]),))
    f = Field(m, (np.array([[0.7]]),))
    wf, wg = witness_f(h, SPEC_1_2), witness_g(f, SPEC_1_2)
    for t in (-2.0, 0.0, 1.0):
        z = 0.5 + 1j * t
        assert abs(pairing(wf(z), wg(z))) == pytest.approx(1.0, abs=1e-12)


# -- norm consistency ------------------------------------------------------------


def test_suite_strip_specs_below_at_and_above_2():
    assert _interp_spec_for(ExponentP(1.5)) == InterpSpec.for_target(1.0, 2.0, 1.5)
    assert _interp_spec_for(ExponentP(2.0)) == InterpSpec(ExponentP(2.0), ExponentP(2.0), 0.5)
    assert _interp_spec_for(ExponentP(3.0)) == InterpSpec.for_target(2.0, 6.0, 3.0)


@pytest.mark.parametrize("spec", [SPEC_1_2, SPEC_2_4, InterpSpec.for_target(2.0, 2.0, 2.0)])
def test_boundary_witness_check_reports_the_norm_farthest_from_one(spec):
    h = random_field(preset_dual("su2_trunc", 3), mix_seed("bw", spec.p))
    lines = boundary_witness(h, spec)
    n0, n1 = lp_sch_norm(lines[0], spec.p0), lp_sch_norm(lines[1], spec.p1)
    rep = boundary_witness_check(h, spec, (n0, n1))
    norms = n0.tolist() + n1.tolist()
    worst = max(norms, key=lambda v: abs(v - 1.0))
    inputs = (h, spec.p0, spec.p1, spec.theta)
    assert rep == equality_report(
        "interpolation", "boundary_witness", spec.p, worst, 1.0, inputs, "boundary_witness",
        rel=1e-9,
    )
    assert rep.passed


def line_norms(h, spec):
    """||f(it)||_p0 and ||f(1+it)||_p1 over the grid, for the witness f of h."""
    lines = boundary_witness(h, spec)
    return lp_sch_norm(lines[0], spec.p0), lp_sch_norm(lines[1], spec.p1)


def test_consistency_random_fields():
    m = preset_dual("s3")
    for k in range(50):
        h = random_field(m, mix_seed("cons", k))
        rep = interp_norm_consistency(h, SPEC_1_2, line_norms(h, SPEC_1_2))
        assert rep.passed, f"consistency failed at draw {k}: {rep}"


def test_consistency_equal_endpoints_exact():
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, 3)
    spec = InterpSpec(ExponentP(2.0), ExponentP(2.0), 0.5)
    w = witness_f(h, spec)(0.25 + 0.5j)
    h_unit = (1.0 / lp_sch_norm(h, 2.0)) * h
    assert max_block_diff(w, h_unit) <= 1e-12  # witness constant in z
    rep = interp_norm_consistency(h, spec, line_norms(h, spec))
    assert rep.passed and abs(rep.rhs - rep.lhs) <= 1e-10 * max(1.0, rep.lhs)


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(3)"])
def test_consistency_at_p_1_computes_the_center(dual, monkeypatch):
    # p0 = p1 = 1: the lower side pairs h / ||h||_1 with its extremizer, the
    # adjoint of its partial isometry, rather than taking the center as 1
    spec = InterpSpec(1.0, 1.0, 0.5)
    for k in range(20):
        h = random_field(parse_dual_arg(dual), mix_seed("cons p1", dual, k))
        norms = line_norms(h, spec)
        rep = interp_norm_consistency(h, spec, norms)
        center = np.abs(pairing((1.0 / lp_sch_norm(h, 1.0)) * h, dual_extremizer(h, 1.0)))
        widest = max(norms[0].max(), norms[1].max())  # both slacks in units of ||h||_1
        assert rep.passed and rep.slack == min(widest - 1.0, center - 1.0), k
    # so an extremizer that misses the norm fails the report at p = 1 as well
    monkeypatch.setattr(interpolation, "dual_extremizer", lambda h, p: 0.99 * dual_extremizer(h, p))
    assert not interp_norm_consistency(h, spec, norms).passed


def test_consistency_scalar_model_matches_classical_interpolation():
    # all dims 1: the Schatten-family norm is the classical weighted p-norm,
    # so the consistency check exercises scalar interpolation
    m = preset_dual("torus", 4)
    for k in range(25):
        h = random_field(m, mix_seed("scons", k))
        rep = interp_norm_consistency(h, SPEC_2_4, line_norms(h, SPEC_2_4))
        assert rep.passed


# -- analyticity surrogate --------------------------------------------------------


def test_discrete_cauchy_riemann_residual_small():
    # interior 5 x 5 grid with spacing 0.1; derivatives by central differences
    # with a much smaller step so the residual isolates non-analyticity
    m = preset_dual("s3")
    h = random_field(m, 41)
    f = random_field(m, 42)
    spec = SPEC_1_2
    fd = 1e-4

    wf, wg = witness_f(h, spec), witness_g(f, spec)

    for x in np.linspace(0.3, 0.7, 5):
        for y in np.linspace(-0.2, 0.2, 5):
            z = complex(x, y) + np.array([fd, -fd, 1j * fd, -1j * fd])
            val = pairing(wf(z), wg(z))
            dx = (val[0] - val[1]) / (2 * fd)
            dy = (val[2] - val[3]) / (2 * fd)
            assert abs(dx + 1j * dy) <= 1e-6
