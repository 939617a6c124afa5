import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from digest_oracle import digest_inputs

from dualnorm import matcore, norms
from dualnorm.cli import SuiteConfig
from dualnorm.duality import dual_extremizer, pairing
from dualnorm.dualmodel import (
    Field,
    field_product,
    identity_field,
    mix_seed,
    parse_dual_arg,
    preset_dual,
    random_field,
    random_stacks,
    zero_field,
)
from dualnorm.inequalities import rademacher_average
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

CBRT5 = 5.0 ** (1.0 / 3.0)  # 1.7099759466766968


def sch_norm_oracle(h, p):
    """Scalar re-derivation from explicit per-block singular values."""
    total = 0.0
    for (_, dim), block in zip(h.model.entries, h.blocks):
        sv = np.linalg.svd(block, compute_uv=False)
        total += dim * float(np.sum(sv**p))
    return total ** (1.0 / p)


def hs_norm_oracle(h, p):
    total = 0.0
    for (_, dim), block in zip(h.model.entries, h.blocks):
        total += dim ** (2.0 - p / 2.0) * float(
            np.sqrt(np.sum(np.abs(block) ** 2))
        ) ** p
    return total ** (1.0 / p)


# Per-block loops through matcore, one matrix at a time: the oracle for the
# norms, which reduce each entry's whole stack of blocks at once.


def block_sch_norm(a, p):
    """One matrix's Schatten p-norm: its Frobenius sum at p = 2, else its singular values'."""
    if p == 2.0:
        return matcore.hs_norm(a)
    return matcore._power_sum_sorted(matcore.singular_values(a), p)


def loop_sch_norm(h, p):
    if math.isinf(p):
        return max(block_sch_norm(b, math.inf) for b in h.blocks)
    total = 0.0
    for (_, dim), block in zip(h.model.entries, h.blocks):
        total += dim * block_sch_norm(block, p) ** p
    return total ** (1.0 / p)


def loop_hs_norm(h, p):
    if math.isinf(p):
        return max(
            matcore.hs_norm(b) / math.sqrt(dim) for (_, dim), b in zip(h.model.entries, h.blocks)
        )
    total = 0.0
    for (_, dim), block in zip(h.model.entries, h.blocks):
        weight = math.exp((2.0 - p / 2.0) * math.log(dim)) if dim > 1 else 1.0
        total += weight * matcore.hs_norm(block) ** p
    return total ** (1.0 / p)


LOOP_NORMS = {"sch": loop_sch_norm, "hs": loop_hs_norm}


def two_entry_field():
    m = preset_dual("custom", [1, 2])
    return m, Field(m, (np.eye(1), np.eye(2)))


# -- ExponentP ----------------------------------------------------------------


def test_exponent_conjugates():
    assert ExponentP(1.0).conjugate().is_inf
    assert ExponentP(math.inf).conjugate() == 1.0
    assert ExponentP(2.0).conjugate() == 2.0
    assert ExponentP(3.0).conjugate() == pytest.approx(1.5)
    p = ExponentP(1.4)
    assert p.conjugate().conjugate() == pytest.approx(p, rel=1e-15)
    assert isinstance(p.conjugate(), ExponentP)


def test_exponents_above_2_pow_53_have_no_conjugate():
    # 2^53 + 2 - 1 rounds to 2^53 + 2: the quotient would be exactly 1
    assert ExponentP(2.0**53).conjugate() == 2.0**53 / (2.0**53 - 1.0)
    for p in (2.0**53 + 2, 1e17, 1e300):
        with pytest.raises(ValueError, match="inf"):
            ExponentP(p).conjugate()
    with pytest.raises(ValueError, match="malformed exponent"):  # neither a large p nor inf
        ExponentP.parse("1e400")


def test_exponent_parse():
    assert ExponentP.parse("inf").is_inf
    assert ExponentP.parse(" Infinity ").is_inf and ExponentP.parse(math.inf).is_inf
    for text in ("-1E999", "+inf"):  # only inf, infinity and oo spell infinity
        with pytest.raises(ValueError, match="malformed exponent"):
            ExponentP.parse(text)
    assert ExponentP.parse("2.5") == 2.5
    assert ExponentP.parse(2) == 2.0
    with pytest.raises(ValueError):
        ExponentP(0.5)
    with pytest.raises(ValueError):
        ExponentP(float("nan"))


def test_exponent_is_no_bool():
    with pytest.raises(TypeError):
        ExponentP(True)
    with pytest.raises(ValueError, match="bool"):
        ExponentP.parse(True)


@pytest.mark.parametrize(
    "text,value",
    [("2", 2.0), ("+2", 2.0), (" 2 ", 2.0), ("2.", 2.0), ("2.50", 2.5), ("1e1", 10.0),
     ("1E1", 10.0), ("3/2", 1.5), ("inf", math.inf), ("INF", math.inf),
     ("Infinity", math.inf), ("oo", math.inf)],
)
def test_exponent_parse_keeps_ascii_spellings(text, value):
    assert ExponentP.parse(text) == value


# float() and Fraction() would read these as 15, 3, 1.5, 1.5 and 1.5
@pytest.mark.parametrize("text", ["1_5", "\u0663", "\uff11.\uff15", "30/2_0", "3/\u0662", "1e400"])
def test_exponent_parse_takes_only_ascii_digits_without_underscores(text):
    with pytest.raises(ValueError):
        ExponentP.parse(text)


def test_exponent_inv_endpoint():
    assert 1.0 / ExponentP(math.inf) == 0.0
    assert 1.0 / ExponentP(4.0) == 0.25


def test_exponent_is_a_float():
    p = ExponentP.parse("3/2")
    assert isinstance(p, float) and type(p) is ExponentP and p == 1.5
    assert not {"value", "inv", "__float__", "__str__"} & set(vars(ExponentP))


def test_exponent_prints_as_its_float():
    assert f"{ExponentP(2.0)}" == "2.0"
    assert f"{ExponentP(math.inf)}" == "inf"
    assert str(ExponentP(1e16)) == "1e+16"


def test_exponent_digests_as_its_float():
    assert digest_inputs(ExponentP(1.5)) == digest_inputs(1.5)
    assert digest_inputs([ExponentP(math.inf)]) == digest_inputs([math.inf])


def test_exponent_pickles():
    for p in (ExponentP(1.5), ExponentP(math.inf)):
        back = pickle.loads(pickle.dumps(p))
        assert back == p and type(back) is ExponentP and isinstance(back, float)


# text has one grammar, ExponentP.parse; float() would read "1_5" as 15 and "٣" as 3
@pytest.mark.parametrize("text", ["2", "1_5", "\u0663", "inf", "3/2"])
def test_exponent_constructor_takes_numbers_only(text):
    with pytest.raises(TypeError, match="ExponentP.parse"):
        ExponentP(text)


def test_exponent_keeps_the_value_of_a_number():
    x = np.float32(1.1)
    assert ExponentP.parse(x) == float(x) == ExponentP(x)  # 1.100000023841858, not 1.1
    assert ExponentP.parse(np.int64(3)) == 3.0
    assert ExponentP.parse(Fraction(3, 2)) == 1.5
    h = random_field(preset_dual("s3"), 1)
    assert lp_sch_norm(h, x) == lp_sch_norm(h, float(x))


def test_suite_config_keeps_one_exponent_per_value():
    cfg = SuiteConfig(suite="norms", dual=parse_dual_arg("s3"), p_list=("2", "2.0", 2))
    assert cfg.p_list == (2.0,) and type(cfg.p_list[0]) is ExponentP


# -- norm formulas ------------------------------------------------------------


def test_lp_sch_norm_frozen_example():
    _, h = two_entry_field()
    assert lp_sch_norm(h, 3.0) == pytest.approx(CBRT5, abs=1e-14)


def test_lp_sch_norm_inf_example():
    _, h = two_entry_field()
    assert lp_sch_norm(h, math.inf) == pytest.approx(1.0, abs=1e-14)


def test_lp_hs_norm_frozen_example():
    _, h = two_entry_field()
    # weight 2^(2 - 3/2) times ||I_2||_HS^3 = sqrt(2) * 2^(3/2) = 4
    assert lp_hs_norm(h, 3.0) == pytest.approx(CBRT5, abs=1e-14)


def test_lp_hs_norm_inf_example():
    _, h = two_entry_field()
    assert lp_hs_norm(h, math.inf) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_lp_sch_norm_matches_oracle(seed):
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, seed)
    assert lp_sch_norm(h, 2.5) == pytest.approx(sch_norm_oracle(h, 2.5), rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_lp_hs_norm_matches_oracle(seed):
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, seed)
    assert lp_hs_norm(h, 2.5) == pytest.approx(hs_norm_oracle(h, 2.5), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 5.0, math.inf])
@pytest.mark.parametrize("family", ["sch", "hs"])
def test_stacked_norm_matches_field_norm(p, family):
    # the norm of a batch Field against the per-block loop, row by row
    m = preset_dual("custom", [1, 2, 3, 1])
    batch = random_stacks(m, mix_seed("stacked"), rows=12)
    norms = field_norm(batch, p, family)
    rows = [Field(m, tuple(b[k] for b in batch.blocks)) for k in range(12)]
    assert batch.batch == (12,) and norms.shape == (12,)
    assert norms == pytest.approx([LOOP_NORMS[family](h, p) for h in rows], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("family", ["sch", "hs"])
def test_single_field_norm_is_a_float_matching_the_loop(family):
    h = random_field(preset_dual("custom", [1, 2, 3, 1]), 11)
    for p in (1.0, 1.5, 2.0, 3.0, 5.0, math.inf):
        value = field_norm(h, p, family)
        assert type(value) is float
        assert value == pytest.approx(LOOP_NORMS[family](h, p), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)", "custom(16,32)"])
def test_scaled_power_sums_match_the_inline_loops_at_moderate_p(dual):
    # where (sum w v^p)^(1/p) cannot overflow, the unscaled per-block loop is the oracle
    h = random_field(parse_dual_arg(dual), 31)
    for p in (1.0, 4 / 3, 1.5, 2.0, 3.0, 5.0, 8.0, math.inf):
        for family in ("sch", "hs"):
            want = LOOP_NORMS[family](h, p)
            assert field_norm(h, p, family) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)", "custom(16,32)", "torus(3)"])
@pytest.mark.parametrize("family", ["sch", "hs"])
def test_field_norms_are_each_fields_norm_bit_for_bit(dual, family):
    model = parse_dual_arg(dual)
    draws = random_stacks(model, mix_seed("field_norms", dual), rows=3)
    # rows of entries near 1, 1e-200 and 1e200: hs_norm rescales the last two,
    # and _sigma2 scales each 2 x 2 block by its own power of two
    extreme = np.array([1.0, 1e-200, 1e200]) * draws
    single = [draws[0], 1e-200 * draws[1], 1e200 * draws[2], draws[1]]
    lp_sch_norm(single[3], 3.0)  # a field with memoized singular values
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        for fields in (single, single[:1], [draws, extreme, draws - extreme], [extreme]):
            got = field_norms(fields, p, family)
            want = [field_norm(f, p, family) for f in fields]
            assert [type(g) for g in got] == [type(w) for w in want]
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (p, len(fields))


@pytest.mark.parametrize(
    "model, rows",
    [
        (preset_dual("su2_trunc", 4), 68),  # 30 complex entries a row
        (preset_dual("su2_trunc", 4), 69),
        (preset_dual("s3"), 500),  # 6 entries a row
        (preset_dual("custom", [16, 32]), 4),  # 1280 entries a row
    ],
    ids=["su2_trunc4-68", "su2_trunc4-69", "s3-500", "custom16_32-4"],
)
def test_field_norms_reduce_one_stack_at_every_size(monkeypatch, model, rows):
    calls = []
    norm = norms.field_norm
    monkeypatch.setattr(norms, "field_norm", lambda h, *a: calls.append(h.batch) or norm(h, *a))
    fields = [random_stacks(model, mix_seed("stack", k), rows=rows) for k in range(3)]
    norms.field_norms(fields, 1.5, "sch")
    assert calls == [(3, rows)]


def test_field_norms_reject_mixed_models_and_batch_shapes():
    h = random_stacks(preset_dual("s3"), 1, rows=2)
    with pytest.raises(ValueError, match="different dual models"):
        field_norms([h, random_stacks(preset_dual("custom", [1, 1, 2]), 1, rows=2)], 2.0, "sch")
    with pytest.raises(ValueError, match="batch shapes"):
        field_norms([h, h[0]], 2.0, "sch")
    assert field_norms([], 2.0, "sch") == []


def test_stacked_norm_rejects_unknown_family():
    with pytest.raises(ValueError):
        field_norm(random_stacks(preset_dual("s3"), 1, rows=3), 2.0, "op")


@pytest.mark.parametrize("seed", range(20))
def test_p2_families_coincide(seed):
    h = random_field(preset_dual("su2_trunc", 4), seed)
    sch = lp_sch_norm(h, 2.0)
    assert abs(sch - lp_hs_norm(h, 2.0)) <= 1e-12 * max(1.0, sch)


@pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 2.7, 4.0, math.inf])
@pytest.mark.parametrize("family", ["sch", "hs"])
def test_triangle_inequality(p, family):
    m = preset_dual("s3")
    for k in range(1000):
        h1 = random_field(m, mix_seed("tri", k, 0))
        h2 = random_field(m, mix_seed("tri", k, 1))
        lhs = field_norm(h1 + h2, p, family)
        rhs = field_norm(h1, p, family) + field_norm(h2, p, family)
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)


@pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 2.7, 4.0, math.inf])
@pytest.mark.parametrize("family", ["sch", "hs"])
def test_homogeneity(p, family):
    m = preset_dual("su2_trunc", 3)
    for k in range(50):
        h = random_field(m, mix_seed("hom", k))
        alpha = 0.25 + 3.0 * ((k % 11) / 10.0)
        lhs = field_norm(alpha * h, p, family)
        rhs = alpha * field_norm(h, p, family)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# -- embedding ----------------------------------------------------------------


def test_embedding_equality_at_p2():
    h = random_field(preset_dual("su2_trunc", 3), 5)
    rep = embedding_check(h, 2.0)
    assert rep.passed and abs(rep.slack) <= 1e-12 * max(1.0, rep.rhs)


@pytest.mark.parametrize("p", [1.0, 4.0])
def test_embedding_property(p):
    m = preset_dual("su2_trunc", 3)
    for k in range(1000):
        rep = embedding_check(random_field(m, mix_seed("emb", p, k)), p)
        assert rep.passed, f"embedding violated at p={p}, draw {k}: {rep}"


# -- Holder -------------------------------------------------------------------


def test_holder_identity_second_factor():
    m = preset_dual("torus", 2)
    h = random_field(m, 3)
    rep = holder_check(h, identity_field(m), 2.0, 2.0, field_product(h, identity_field(m)))
    assert rep.passed


def test_holder_operator_norm_submultiplicative():
    m = preset_dual("su2_trunc", 3)
    for k in range(200):
        h1 = random_field(m, mix_seed("hol-inf", k, 0))
        h2 = random_field(m, mix_seed("hol-inf", k, 1))
        rep = holder_check(h1, h2, math.inf, math.inf, field_product(h1, h2))
        assert rep.passed
        # blockwise oracle: every block obeys operator-norm submultiplicativity
        for a, b in zip(h1.blocks, h2.blocks):
            na = block_sch_norm(a, math.inf)
            nb = block_sch_norm(b, math.inf)
            nab = block_sch_norm(a @ b, math.inf)
            assert nab <= na * nb + 1e-10 * max(1.0, na * nb)


def test_holder_three_finite_exponents_property():
    m = preset_dual("s3")
    for k in range(1000):
        h1 = random_field(m, mix_seed("hol", k, 0))
        h2 = random_field(m, mix_seed("hol", k, 1))
        rep = holder_check(h1, h2, 3.0, 1.5, field_product(h1, h2))
        assert rep.passed, f"Holder violated at draw {k}: {rep}"


def test_holder_non_conjugate_triple_allowed():
    m = preset_dual("s3")
    h = random_field(m, 1)
    assert holder_check(h, h, 3.0, 4.0, field_product(h, h)).passed  # r = 12/7


def test_holder_at_conjugate_exponents_whose_reciprocals_round_above_one():
    # 1/10.8 + 1/q rounds to 1 + 2^-52 at q = 10.8's conjugate, so 1/inv_r falls below 1
    p = ExponentP(10.8)
    q = p.conjugate()
    assert 1.0 / p + 1.0 / q > 1.0
    m = preset_dual("s3")
    h1, h2 = random_field(m, 1), random_field(m, 2)
    rep = holder_check(h1, h2, p, q, field_product(h1, h2))
    assert rep.passed and rep.p == p


def test_holder_rejects_subunit_r():
    m = preset_dual("s3")
    h = random_field(m, 1)
    with pytest.raises(ValueError):
        holder_check(h, h, 1.0, 2.0, field_product(h, h))  # 1/r = 1.5 > 1


# -- adjoint norm equality ----------------------------------------------------


def test_adjoint_check_hermitian_field():
    h = random_field(preset_dual("su2_trunc", 3), 4, "hermitian")
    rep = adjoint_norm_check(h)(2.0, "sch")
    assert rep.passed


@pytest.mark.parametrize("family,p", [("sch", 1.7), ("hs", math.inf), ("sch", 1.0)])
def test_adjoint_check_random(family, p):
    m = preset_dual("su2_trunc", 4)
    for k in range(100):
        rep = adjoint_norm_check(random_field(m, mix_seed("adj", family, k)))(p, family)
        assert rep.passed


# -- direct sums --------------------------------------------------------------


def test_direct_sum_unit_diagonal():
    m = preset_dual("s3")
    h = random_field(m, 9)
    x = (1.0 / lp_sch_norm(h, 2.0)) * h
    spec = DirectSumSpec(ExponentP(2.0), 1.0)
    assert direct_sum_norm(x, x, 2.0, spec) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_direct_sum_zero_second_slot():
    m = preset_dual("s3")
    x = random_field(m, 10)
    z = zero_field(m)
    for spec in [DirectSumSpec(ExponentP(1.0), 2.0), DirectSumSpec(ExponentP(math.inf), 0.5)]:
        assert direct_sum_norm(x, z, 1.5, spec) == pytest.approx(
            lp_sch_norm(x, 1.5), rel=1e-12
        )


@pytest.mark.parametrize("seed", range(10))
def test_direct_sum_weighted_l1(seed):
    m = preset_dual("s3")
    x = random_field(m, mix_seed("ds", seed, 0))
    y = random_field(m, mix_seed("ds", seed, 1))
    spec = DirectSumSpec(ExponentP(1.0), 3.0)
    oracle = lp_sch_norm(x, 2.0) + 3.0 * lp_sch_norm(y, 2.0)
    assert direct_sum_norm(x, y, 2.0, spec) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize(
    "w", [0.0, -1.0, math.nan, math.inf, True, "3", 10**400, Fraction(1, 10**400)]
)
def test_direct_sum_rejects_bad_weight(w):
    with pytest.raises(ValueError, match="weight must be a finite real > 0"):
        DirectSumSpec(ExponentP(2.0), w)


# -- misc norm-vs-product sanity ---------------------------------------------


def test_product_of_unitary_fields_keeps_inf_norm():
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, 77)
    svds = [np.linalg.svd(b) for b in h.blocks]
    u = Field(m, tuple(w @ vstar for w, _, vstar in svds))  # unitary factors W V*
    assert lp_sch_norm(u, math.inf) == pytest.approx(1.0, abs=1e-12)
    prod = field_product(u, u)
    assert lp_sch_norm(prod, math.inf) == pytest.approx(1.0, abs=1e-11)


def test_norms_of_one_field_at_several_exponents_share_one_factorization(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    h = random_field(preset_dual("custom", [1, 2, 3]), 8)
    first = lp_sch_norm(h, 1.5)
    assert len(calls) == 1  # one values-only SVD per entry of dim >= 3 (2 x 2: closed form)
    others = [lp_sch_norm(h, p) for p in (1.0, 3.0, math.inf, "4/3", 1.5)]
    assert len(calls) == 1 and others[-1] == first
    lp_sch_norm(h, 2.0)  # Frobenius sums: no factorization at all
    lp_sch_norm(random_field(h.model, 8), 2.0)
    assert len(calls) == 1


@pytest.mark.parametrize("dual", ["s3", "torus(5)", "su2_trunc(4)", "custom(1,2,1,3,3)"])
def test_schatten_2_is_the_hilbert_schmidt_norm_bit_for_bit(dual):
    # S_2 is the Hilbert-Schmidt class, and the two families' weights agree at p = 2:
    # one space, so one value, 1 x 1 blocks included
    h = random_stacks(parse_dual_arg(dual), mix_seed("s2_is_hs", dual), rows=1000)
    assert np.array_equal(lp_sch_norm(h, 2.0), lp_hs_norm(h, 2.0))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_sch_norm_from_the_memo_matches_the_kernel_bitwise(p):
    for h in (random_field(preset_dual("su2_trunc", 4), 3), random_stacks(preset_dual("s3"), 3, rows=5)):
        values = [block_sch_norm(b, p) for b in h.blocks]
        terms = [d ** (1.0 / p) * v for d, v in zip(h.model.dims, values)]
        want = matcore.power_sum(terms, p)
        assert np.array_equal(lp_sch_norm(h, p), want)


# A truncation is an isometric, 1-complemented subspace of a larger one, so a
# field extended by zero blocks keeps its values.  Norms keep every bit.  Two
# values may move within 4 ulp (4 * 2^-52 relative) where the extension
# regroups their additions, and keep every bit (0 ulp) elsewhere:
# - a sign average sums each pattern from a table of partial sums of at most
#   2^16 complex entries, so the table's size follows model.size;
#   custom(16,32,128) holds 2 partial sums where custom(16,32) holds 16;
# - the extremizer sums d (S/s)^r over every singular value of a row in one
#   numpy reduction, which adds 8 or more terms in another order than fewer:
#   su2_trunc(3) has 6 singular values, su2_trunc(6) has 21.
ZERO_EXTENSIONS = [  # model, its extension, ulps of the sign averages, of the pairings
    ("su2_trunc(3)", "su2_trunc(6)", 0, 4),
    ("custom(16,32)", "custom(16,32,128)", 4, 0),
    ("s3", "custom(1,1,2,3)", 0, 0),
]


def zero_extended(h, model):
    """h over ``model``, whose first entries are h's, with zero blocks on the others."""
    zeros = [np.zeros(h.batch + (d, d), dtype=complex) for d in model.dims[len(h.blocks):]]
    return Field(model, [*h.blocks, *zeros])


def within_ulps(got, want, ulps):
    return np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * np.abs(want))


@pytest.mark.parametrize("small,big,sign_ulps,pairing_ulps", ZERO_EXTENSIONS)
def test_values_do_not_depend_on_empty_entries(small, big, sign_ulps, pairing_ulps):
    model, larger = parse_dual_arg(small), parse_dual_arg(big)
    batches = [random_stacks(model, mix_seed(12, small, j), 0, 40) for j in range(5)]
    h, x = batches[0], zero_extended(batches[0], larger)
    # sign averages and extremizers cost most per row: they take the first 4
    summands = [f[:4] for f in batches]
    extended = [zero_extended(f, larger) for f in summands]
    f, y = summands[0], extended[0]
    for p in (1.0, 1.5, 2.0, 3.0, 7.0, math.inf):
        for family in ("sch", "hs"):
            assert np.array_equal(field_norm(x, p, family), field_norm(h, p, family))
            signs = [rademacher_average(s, p, family) for s in (extended, summands)]
            assert within_ulps(*signs, sign_ulps), (p, family)
        if p < math.inf:
            pairings = [abs(pairing(g, dual_extremizer(g, p))) for g in (y, f)]
            assert within_ulps(*pairings, pairing_ulps), p
