import math

import amplified
import mpmath
import numpy as np
import pytest

from dualnorm import duality, matcore
from dualnorm.duality import (
    dual_extremizer,
    dual_norm_via_search,
    direct_sum_dual_pair_check,
    pairing,
)
from dualnorm.dualmodel import (
    Field,
    identity_field,
    mix_seed,
    parse_dual_arg,
    preset_dual,
    random_field,
    random_stacks,
    zero_field,
)
from dualnorm.norms import DirectSumSpec, ExponentP, lp_sch_norm
from test_norms import zero_extended
from test_power_sum import mp_sch_norm

CBRT18 = 18.0 ** (1.0 / 3.0)  # 2.6207413942088964


def diagonal_extremizer_oracle(diag, dim_weight, p):
    """Scalar evaluation of norm / extremizer / pairing for one diagonal block.

    Everything reduces to weighted scalar p-sums, independent of any matrix
    factorization code.
    """
    diag = [float(v) for v in diag]
    norm = (dim_weight * sum(v**p for v in diag)) ** (1.0 / p)
    f_diag = [v ** (p - 1.0) / norm ** (p - 1.0) for v in diag]
    q = p / (p - 1.0)
    f_norm = (dim_weight * sum(v**q for v in f_diag)) ** (1.0 / q)
    pair = dim_weight * sum(h * f for h, f in zip(diag, f_diag))
    return norm, f_diag, f_norm, pair


# -- pairing ------------------------------------------------------------------


def test_pairing_identity_fields():
    m = preset_dual("custom", [1, 2])
    e = identity_field(m)
    assert pairing(e, e) == pytest.approx(5.0)


def test_pairing_with_zero_field():
    m = preset_dual("s3")
    h = random_field(m, 1)
    assert pairing(h, zero_field(m)) == 0j


def test_pairing_model_mismatch():
    with pytest.raises(ValueError):
        pairing(random_field(preset_dual("s3"), 1), random_field(preset_dual("torus", 3), 1))


def test_pairing_bounded_by_holder_products():
    m = preset_dual("su2_trunc", 3)
    p, q = 1.4, 3.5
    for k in range(1000):
        h = random_field(m, mix_seed("pair", k, 0))
        f = random_field(m, mix_seed("pair", k, 1))
        bound = lp_sch_norm(h, p) * lp_sch_norm(f, q)
        assert abs(pairing(h, f)) <= bound + 1e-10 * max(1.0, bound)


def test_pairing_bilinear():
    m = preset_dual("su2_trunc", 3)
    h1 = random_field(m, 21)
    h2 = random_field(m, 22)
    f = random_field(m, 23)
    alpha = 0.7 - 1.1j
    lhs = pairing(alpha * h1 + h2, f)
    rhs = alpha * pairing(h1, f) + pairing(h2, f)
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


# Models whose blocks range from 1 x 1 to 32 x 32, in and out of dimension order
PAIRING_DUALS = ["s3", "su2_trunc(4)", "custom(1,2,1,3,3)", "custom(16,32)", "torus(64)"]


def _moduli(h):
    """The field of h's coordinates' moduli: pairing two of them bounds a pairing's rounding."""
    return Field(h.model, [np.abs(b) for b in h.blocks])


@pytest.mark.parametrize("seed", range(10))
def test_pairing_is_symmetric(seed):
    # trace cyclicity, Tr(H F) = Tr(F H): the same products, added in transposed order
    eps = np.finfo(float).eps
    for dual in PAIRING_DUALS:
        m = parse_dual_arg(dual)
        h, f = (random_field(m, mix_seed("symmetric", seed, role)) for role in "hf")
        scale = pairing(_moduli(h), _moduli(f)).real
        assert abs(pairing(h, f) - pairing(f, h)) <= 4 * eps * scale, dual


def test_pairing_with_the_identity_is_the_weighted_trace():
    eps = np.finfo(float).eps
    for dual in PAIRING_DUALS:
        m = parse_dual_arg(dual)
        for k in range(10):
            h = random_field(m, mix_seed("identity_pairing", k))
            trace = sum(d * np.trace(b) for d, b in zip(m.dims, h.blocks))
            scale = sum(d * np.abs(np.diagonal(b)).sum() for d, b in zip(m.dims, h.blocks))
            assert abs(pairing(h, identity_field(m)) - trace) <= 4 * eps * scale, (dual, k)


# numpy adds 8 or more terms pairwise, so a sum over the entries would regroup its terms
# when zero entries take it past 8; the pairing adds its entries in order
@pytest.mark.parametrize("small, big", [("torus(7)", "torus(9)"), ("s3", "custom(1,1,2,3,1,1,2,3)"),
                                        ("custom(1,2,1,3,3)", "custom(1,2,1,3,3,2,1,3,3,2)")])
def test_pairing_does_not_depend_on_empty_entries(small, big):
    m, larger = parse_dual_arg(small), parse_dual_arg(big)
    h, f = (random_stacks(m, mix_seed("empty_entries", role), rows=20) for role in "hf")
    x, y = zero_extended(h, larger), zero_extended(f, larger)
    assert pairing(x, y).tobytes() == pairing(h, f).tobytes()
    assert pairing(x[3], y[3]) == pairing(h[3], f[3])


def test_trace_unitarily_invariant():
    m = preset_dual("su2_trunc", 4)
    for k in range(50):
        x = random_field(m, mix_seed("uinv", k, 0))
        g = random_field(m, mix_seed("uinv", k, 1))
        for xb, gb in zip(x.blocks, g.blocks):
            w, _, vstar = np.linalg.svd(gb)
            u = w @ vstar
            lhs = np.trace(u @ xb @ matcore.adjoint(u))
            rhs = np.trace(xb)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


# -- extremizer ---------------------------------------------------------------


def test_extremizer_scalar_entry():
    m = preset_dual("custom", [1])
    h = Field(m, (np.array([[2.0]]),))
    f = dual_extremizer(h, 2.0)
    assert np.allclose(f.blocks[0], np.array([[1.0]]))
    assert pairing(h, f) == pytest.approx(2.0)


def test_extremizer_diagonal_frozen_values():
    m = preset_dual("custom", [2])
    h = Field(m, (np.diag([1.0, 2.0]),))
    norm, f_diag, f_norm, pair = diagonal_extremizer_oracle([1.0, 2.0], 2, 3.0)
    assert norm == pytest.approx(CBRT18, rel=1e-14)
    assert f_norm == pytest.approx(1.0, rel=1e-14)
    assert pair == pytest.approx(CBRT18, rel=1e-14)

    assert lp_sch_norm(h, 3.0) == pytest.approx(norm, rel=1e-13)
    f = dual_extremizer(h, 3.0)
    assert np.allclose(np.sort(np.diag(f.blocks[0]).real), np.sort(f_diag), rtol=1e-12)
    assert lp_sch_norm(f, 1.5) == pytest.approx(1.0, rel=1e-12)
    assert abs(pairing(h, f)) == pytest.approx(pair, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0, 5.0])
def test_extremizer_saturation_property(p):
    m = preset_dual("s3")
    q = ExponentP(p).conjugate()
    for k in range(200):
        h = random_field(m, mix_seed("ext", p, k))
        norm = lp_sch_norm(h, p)
        f = dual_extremizer(h, p)
        assert lp_sch_norm(f, q) == pytest.approx(1.0, abs=1e-9)
        assert abs(pairing(h, f)) == pytest.approx(norm, rel=1e-9)


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_extremizer_is_invariant_under_positive_scaling(dual, p):
    # interpolation pairs h / ||h|| with the extremizer of h itself
    for k in range(5):
        h = random_field(parse_dual_arg(dual), mix_seed("scale", p, k))
        f = dual_extremizer(h, p)
        for c in (1e-3, 1.0 / lp_sch_norm(h, p), 7.5):
            for a, b in zip(dual_extremizer(c * h, p).blocks, f.blocks):
                assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(b))


def test_extremizer_trace_norm_endpoint_unitary():
    # at p = 1 the construction degenerates to the adjoint of the polar
    # unitary: sup-norm one, pairing equal to the trace norm
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, 99)
    f = dual_extremizer(h, 1.0)
    for b in f.blocks:
        assert np.allclose(matcore.adjoint(b) @ b, np.eye(b.shape[0]), atol=1e-12)
    assert lp_sch_norm(f, math.inf) == pytest.approx(1.0, abs=1e-12)
    assert abs(pairing(h, f)) == pytest.approx(lp_sch_norm(h, 1.0), rel=1e-11)


def test_extremizer_rank_deficient_block():
    m = preset_dual("custom", [2])
    h = Field(m, (np.diag([3.0, 0.0]),))
    for p in (1.0, 1.5, 2.5):
        f = dual_extremizer(h, p)
        q = ExponentP(p).conjugate()
        assert lp_sch_norm(f, q) == pytest.approx(1.0, abs=1e-12)
        assert abs(pairing(h, f)) == pytest.approx(lp_sch_norm(h, p), rel=1e-12)


def test_extremizer_rejects_zero_and_inf():
    m = preset_dual("s3")
    with pytest.raises(ValueError):
        dual_extremizer(zero_field(m), 2.0)
    with pytest.raises(ValueError):
        dual_extremizer(random_field(m, 1), math.inf)


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(3)"])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_extremizer_of_a_batch_normalizes_each_row_by_its_own_norm(dual, p):
    m = parse_dual_arg(dual)
    hs = random_stacks(m, mix_seed("extremizer batch", dual), rows=4)
    hs = np.array([0.5, 1.0, 3.0, 10.0]) * hs  # rows of different norms
    batch = dual_extremizer(hs, p)
    assert batch.batch == (4,)
    for k in range(4):
        one = dual_extremizer(Field(m, tuple(b[k] for b in hs.blocks)), p)
        for got, want in zip(batch.blocks, one.blocks):
            assert np.max(np.abs(got[k] - want)) <= 1e-15 * np.max(np.abs(want))


def test_extremizer_of_a_batch_rejects_a_zero_row():
    m = preset_dual("s3")
    hs = np.array([1.0, 0.0, 2.0]) * random_stacks(m, 5, rows=3)
    with pytest.raises(ValueError, match="zero field"):
        dual_extremizer(hs, 2.0)


# Exponents at which a rounded norm raised to the power p - 1 (or its conjugate's)
# would lose every digit: the extremizer must stay at rounding
EXTREME_P = [1e3, 1e6, 1e9, 2.0**52, 1.0 + 2.0**-52]


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)", "custom(16,32)"])
@pytest.mark.parametrize("p", EXTREME_P, ids=repr)
def test_extremizer_is_exact_at_extreme_exponents(dual, p):
    p = ExponentP(p)
    hs = random_stacks(parse_dual_arg(dual), mix_seed("extreme p", dual), rows=3)
    f = dual_extremizer(hs, p)
    with mpmath.workdps(50):
        for k in range(3):
            norm = mp_sch_norm(hs[k], p)
            assert abs(mp_sch_norm(f[k], p.conjugate()) - 1) <= 1e-12
            assert abs(abs(pairing(hs[k], f[k])) / norm - 1) <= 1e-12


# -- supremum search ----------------------------------------------------------


def test_search_zero_field():
    m = preset_dual("s3")
    assert dual_norm_via_search(zero_field(m), trials=5, seed=0)(2.0) == 0.0


def test_search_random_trials_never_exceed_norm():
    m = preset_dual("s3")
    p = 2.2
    for k in range(100):
        h = random_field(m, mix_seed("search", k))
        norm = lp_sch_norm(h, p)
        val = dual_norm_via_search(h, trials=10, seed=k)(p)
        assert val <= norm + 1e-10 * max(1.0, norm)


@pytest.mark.parametrize(
    "bad", [{"seed": 1.5}, {"seed": "1"}, {"seed": True}, {"start": True}, {"trials": True},
            {"trials": 2.0}, {"start": 0.0}],
)
def test_search_takes_only_integer_stream_arguments(bad):
    h = random_field(preset_dual("s3"), 3)
    with pytest.raises(ValueError, match="trials, seed and start must be integers"):
        dual_norm_via_search(h, **({"trials": 3, "seed": 1, "start": 0} | bad))(1.5)
    numpy_ints = dual_norm_via_search(h, np.int64(3), np.uint8(1), np.int32(0))(1.5)
    assert numpy_ints == dual_norm_via_search(h, 3, 1)(1.5)


def test_search_probes_are_rows_of_one_stream(monkeypatch):
    # the batched search against a per-probe loop: probe k is row k of one keyed stream
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, mix_seed("rows"))
    q = ExponentP(1.5).conjugate()
    key = mix_seed(5, "dual_search")
    expected = 0.0
    for k in range(8):
        f = Field(m, tuple(s[0] for s in random_stacks(m, key, start=k, rows=1).blocks))
        expected = max(expected, abs(pairing(h, (1.0 / lp_sch_norm(f, q)) * f)))
    calls = []
    mix = duality.mix_seed
    monkeypatch.setattr(duality, "mix_seed", lambda *parts: calls.append(parts) or mix(*parts))
    got = dual_norm_via_search(h, trials=8, seed=5)(1.5)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert calls == [(5, "dual_search")]


# -- direct-sum duality -------------------------------------------------------


def test_direct_sum_pair_zero_functionals():
    m = preset_dual("s3")
    h1, h2 = random_field(m, 1), random_field(m, 2)
    z = zero_field(m)
    rep = direct_sum_dual_pair_check(h1, h2, z, z, 2.0, DirectSumSpec(ExponentP(2.0), 1.0))
    assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-15)


def test_direct_sum_pair_saturates_with_scaled_extremizers():
    # w = 1, r = s = 2, p = q = 2: scaling each slot's norming functional by
    # ||h_i|| / sqrt(sum ||h_j||^2) turns the bound into an equality
    m = preset_dual("su2_trunc", 3)
    h1 = random_field(m, 31)
    h2 = random_field(m, 32)
    n1, n2 = lp_sch_norm(h1, 2.0), lp_sch_norm(h2, 2.0)
    denom = math.hypot(n1, n2)
    f1 = (n1 / denom) * dual_extremizer(h1, 2.0)
    f2 = (n2 / denom) * dual_extremizer(h2, 2.0)
    rep = direct_sum_dual_pair_check(h1, h2, f1, f2, 2.0, DirectSumSpec(ExponentP(2.0), 1.0))
    assert rep.passed
    assert abs(rep.slack) <= 1e-8 * max(1.0, rep.rhs)


def test_direct_sum_pair_random_property():
    m = preset_dual("s3")
    spec = DirectSumSpec(ExponentP(1.5), 3.0)
    for k in range(500):
        h1 = random_field(m, mix_seed("dsp", k, 0))
        h2 = random_field(m, mix_seed("dsp", k, 1))
        f1 = random_field(m, mix_seed("dsp", k, 2))
        f2 = random_field(m, mix_seed("dsp", k, 3))
        rep = direct_sum_dual_pair_check(h1, h2, f1, f2, 2.5, spec)
        assert rep.passed, f"direct-sum pairing bound violated at draw {k}: {rep}"


def test_direct_sum_pair_rejects_endpoints():
    m = preset_dual("s3")
    h = random_field(m, 1)
    with pytest.raises(ValueError):
        direct_sum_dual_pair_check(h, h, h, h, 1.0, DirectSumSpec(ExponentP(2.0), 1.0))
    with pytest.raises(ValueError):
        direct_sum_dual_pair_check(h, h, h, h, 2.0, DirectSumSpec(ExponentP(1.0), 1.0))


# -- trace cyclicity under functional calculus --------------------------------


@pytest.mark.parametrize("qexp", [1.5, 3.0])
def test_cyclicity_fractional_power_psd_pairs(qexp):
    m = preset_dual("custom", [4, 6])
    for k in range(100):
        a_field = random_field(m, mix_seed("factA", qexp, k, 0), "psd")
        b_field = random_field(m, mix_seed("factA", qexp, k, 1), "psd")
        for a, b in zip(a_field.blocks, b_field.blocks):
            ra = amplified.psd_power(a, 0.5)
            rb = amplified.psd_power(b, 0.5)
            lhs = np.sum(np.maximum(np.linalg.eigvalsh(ra @ b @ ra), 0.0) ** (qexp / 2))
            rhs = np.sum(np.maximum(np.linalg.eigvalsh(rb @ a @ rb), 0.0) ** (qexp / 2))
            assert lhs == pytest.approx(rhs, rel=1e-9)
