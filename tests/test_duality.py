import math

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
    preset_dual,
    random_field,
    random_stacks,
    zero_field,
)
from dualnorm.norms import DirectSumSpec, ExponentP, lp_sch_norm

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


def test_trace_unitarily_invariant():
    m = preset_dual("su2_trunc", 4)
    for k in range(50):
        x = random_field(m, mix_seed("uinv", k, 0))
        g = random_field(m, mix_seed("uinv", k, 1))
        for xb, gb in zip(x.blocks, g.blocks):
            u = matcore.polar(gb).u
            lhs = matcore.trace(u @ xb @ matcore.adjoint(u))
            rhs = matcore.trace(xb)
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


# -- supremum search ----------------------------------------------------------


def test_search_zero_field():
    m = preset_dual("s3")
    assert dual_norm_via_search(zero_field(m), 2.0, trials=5, seed=0) == 0.0


def test_search_extremizer_only_recovers_norm():
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, 17)
    val = dual_norm_via_search(h, 1.5, trials=0, seed=0)
    assert val == pytest.approx(lp_sch_norm(h, 1.5), rel=1e-9)


def test_search_random_trials_never_exceed_norm():
    m = preset_dual("s3")
    p = 2.2
    for k in range(100):
        h = random_field(m, mix_seed("search", k))
        norm = lp_sch_norm(h, p)
        val = dual_norm_via_search(h, p, trials=10, seed=k, include_extremizer=False)
        assert val <= norm + 1e-10 * max(1.0, norm)


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
    got = dual_norm_via_search(h, 1.5, trials=8, seed=5, include_extremizer=False)
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
            ra = matcore.psd_power(a, 0.5)
            rb = matcore.psd_power(b, 0.5)
            lhs = np.sum(np.maximum(np.linalg.eigvalsh(ra @ b @ ra), 0.0) ** (qexp / 2))
            rhs = np.sum(np.maximum(np.linalg.eigvalsh(rb @ a @ rb), 0.0) ** (qexp / 2))
            assert lhs == pytest.approx(rhs, rel=1e-9)
