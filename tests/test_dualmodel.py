import copy
import hashlib
import json
import math
import pickle

import amplified
import numpy as np
import pytest
from digest_oracle import digest_inputs
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnorm import matcore
from dualnorm.dualmodel import (
    MAX_ENTRIES,
    DualModel,
    Field,
    _stack,
    _trusted,
    decode_field,
    decode_model,
    encode_field,
    encode_model,
    field_abs,
    field_adjoint,
    field_product,
    identity_field,
    mix_seed,
    parse_dual_arg,
    preset_dual,
    random_field,
    random_stacks,
    random_uniforms,
    zero_field,
)
from dualnorm.duality import dual_extremizer
from dualnorm.norms import ExponentP


def test_preset_torus_dims():
    assert preset_dual("torus", 3).dims == (1, 1, 1)


def test_preset_su2_dims():
    assert preset_dual("su2_trunc", 4).dims == (1, 2, 3, 4)


def test_preset_s3_dims():
    assert preset_dual("s3").dims == (1, 1, 2)


@pytest.mark.parametrize("text", ["s3(1)", "s3()"])
def test_preset_s3_takes_no_argument(text):
    with pytest.raises(ValueError, match="no argument"):
        parse_dual_arg(text)
    with pytest.raises(ValueError, match="no argument"):
        preset_dual("s3", 1)
    assert parse_dual_arg(" s3 ") == preset_dual("s3")


def test_preset_custom_and_parse():
    assert preset_dual("custom", [2, 3]).dims == (2, 3)
    assert parse_dual_arg("torus(5)").dims == (1,) * 5
    assert parse_dual_arg("custom(1,2,2)").dims == (1, 2, 2)
    with pytest.raises(ValueError):
        preset_dual("custom", [])
    with pytest.raises(ValueError):
        parse_dual_arg("nosuch(3)")


# counts and dims are integers, as in DualModel: no int() of floats, bools or text
@pytest.mark.parametrize(
    "kind,arg",
    [("torus", 2.7), ("su2_trunc", 3.9), ("torus", True), ("torus", "\u0663"), ("torus", "3"),
     ("custom", [1.5, 2]), ("custom", [True, 2]), ("custom", "12"), ("custom", 3)],
)
def test_preset_takes_integers_only(kind, arg):
    with pytest.raises(ValueError):
        preset_dual(kind, arg)


def test_preset_takes_any_integral_counts_and_dims():
    assert preset_dual("torus", np.int64(3)) == preset_dual("torus", 3)
    assert preset_dual("su2_trunc", np.int32(2)).name == "su2_trunc(2)"
    assert preset_dual("custom", (d for d in (np.int64(1), 2))) == preset_dual("custom", [1, 2])


@pytest.mark.parametrize(
    "text",
    ["custom(1,,2)", "custom(1,2,)", "custom(,1)", "custom()", "custom(1,\u0662)", "torus(1_0)",
     "torus(\u0663)", "torus(+3)", "torus()", "su2_trunc(0_3)", "su2_trunc(3.0)"],
)
def test_preset_list_items_are_ascii_decimals(text):
    with pytest.raises(ValueError, match="decimal"):
        parse_dual_arg(text)


def test_preset_list_items_may_have_spaces_around_them():
    assert parse_dual_arg("torus( 3 )") == preset_dual("torus", 3)
    assert parse_dual_arg("su2_trunc(04)") == preset_dual("su2_trunc", 4)
    assert parse_dual_arg(" custom(1, 2 ,2) ") == preset_dual("custom", [1, 2, 2])


@pytest.mark.parametrize("text", ["s3", "torus(3)", "su2_trunc(4)", "custom(1,3,2)"])
def test_decode_model_inverts_encode_model(text):
    m = parse_dual_arg(text)
    assert decode_model(encode_model(m)) == m


@pytest.mark.parametrize(
    "doc",
    [
        {"name": "x", "entries": [{"label": 1, "dim": 1}, {"label": "1", "dim": 2}]},
        {"name": None, "entries": [{"label": "a", "dim": 1}]},
        {"name": ["x"], "entries": [{"label": "a", "dim": 1}]},
        {"name": "x", "entries": [{"label": None, "dim": 1}]},
    ],
    ids=["int_label", "null_name", "list_name", "null_label"],
)
def test_decode_model_takes_string_names_and_labels(doc):
    with pytest.raises(ValueError, match="not a JSON string"):
        decode_model(doc)


def test_model_labels_are_unique_as_stored_and_dims_are_integers():
    with pytest.raises(ValueError, match="unique"):
        DualModel("x", ((1, 1), ("1", 2)))
    for dim in (1.7, 2.0, True):
        with pytest.raises(ValueError, match="not an integer"):
            DualModel("x", (("a", dim),))
    assert DualModel("x", ((1, np.int64(2)),)).entries == (("1", 2),)


@pytest.mark.parametrize("name", [None, 3, b"s3", ("s3",)])
def test_model_names_are_strings(name):
    # a None name once built a model whose encoding decode_model rejected
    with pytest.raises(ValueError, match="name"):
        DualModel(name, (("a", 1),))


def test_model_validation():
    with pytest.raises(ValueError):
        DualModel("bad", ())
    with pytest.raises(ValueError):
        DualModel("bad", (("a", 1), ("a", 2)))
    with pytest.raises(ValueError):
        DualModel("bad", (("a", 0),))
    with pytest.raises(ValueError):
        DualModel("big", (("a", 257),))
    with pytest.raises(ValueError):
        parse_dual_arg("su2_trunc(300)")
    with pytest.raises(ValueError):
        parse_dual_arg("torus")
    with pytest.raises(ValueError):
        DualModel("long", tuple((f"k{i}", 1) for i in range(MAX_ENTRIES + 1)))
    with pytest.raises(ValueError):
        parse_dual_arg(f"torus({MAX_ENTRIES + 1})")
    assert preset_dual("custom", [256]).dims == (256,)
    assert len(preset_dual("torus", MAX_ENTRIES)) == MAX_ENTRIES


def test_random_field_deterministic():
    m = preset_dual("su2_trunc", 3)
    f1 = random_field(m, 42, "ginibre")
    f2 = random_field(m, 42, "ginibre")
    assert all(np.array_equal(a, b) for a, b in zip(f1.blocks, f2.blocks))
    f3 = random_field(m, 43, "ginibre")
    assert any(not np.array_equal(a, b) for a, b in zip(f1.blocks, f3.blocks))


def keyed_normals(key, width, row):
    """Row ``row`` of the keyed layout from raw Philox words: Box-Muller over word pairs."""
    stride = -(-width // 4) * 4
    words = np.random.Philox(key=key).random_raw((row + 1) * stride)[row * stride :][:width]
    u = [int(w >> 11) * 2.0**-53 for w in words]
    out = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        radius = math.sqrt(-2.0 * math.log(1.0 - u1))
        out += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
    return out


def test_random_stacks_follow_keyed_layout():
    m = preset_dual("custom", [1, 3, 2])
    width = 2 * m.size  # 28 normals: a stride of exactly 7 Philox blocks
    key = mix_seed("layout")
    data = random_stacks(m, key, start=0, rows=3).data
    for row in range(3):
        normals = np.array(keyed_normals(key, width, row))
        z = (normals[0::2] + 1j * normals[1::2]) / np.sqrt(2)  # word pair j is coordinate j
        assert np.allclose(data[row], z, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("dims, count", [([2], 4), ([1, 1, 1], 3)])
def test_random_stacks_do_not_read_the_entry_layout(dims, count):
    # one buffer size, one draw: the dims only cut the buffer into blocks
    key = mix_seed("layout-free")
    cut = random_stacks(preset_dual("custom", dims), key, start=2, rows=5)
    torus = random_stacks(preset_dual("torus", count), key, start=2, rows=5)
    assert cut.data.tobytes() == torus.data.tobytes()


def test_random_stacks_coordinates_are_standard_complex_normals():
    # each coordinate is CN(0, 1): E|z|^2 = 1, E z^2 = 0 and E Re z Im z = 0
    z = random_stacks(preset_dual("custom", [2, 3, 4]), mix_seed("law"), rows=2000).data.ravel()
    n = z.size  # 58000 coordinates, with Var |z|^2 = Var Re z^2 = Var Im z^2 = 1
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 5 / math.sqrt(n)
    square = np.mean(z**2)
    assert abs(square.real) < 5 / math.sqrt(n) and abs(square.imag) < 5 / math.sqrt(n)
    assert abs(np.mean(z.real * z.imag)) < 5 * 0.5 / math.sqrt(n)  # Var Re z Im z = 1/4


@pytest.mark.parametrize("dims", [[1, 3, 2], [1, 1, 2], [1]])  # strides 28, 12 and 4 words
def test_random_stacks_rows_independent_of_split(dims):
    m = preset_dual("custom", dims)
    key = mix_seed("split")
    whole = random_stacks(m, key, start=0, rows=23).blocks
    assert [s.shape for s in whole] == [(23, d, d) for d in m.dims]
    for chunk in (1, 4, 7):  # 23 rows in chunks of 7 leave a ragged tail of 2
        parts = [random_stacks(m, key, start, min(chunk, 23 - start)).blocks for start in range(0, 23, chunk)]
        for i, stack in enumerate(whole):
            assert np.concatenate([p[i] for p in parts]).tobytes() == stack.tobytes()
    shifted = random_stacks(m, key, start=5, rows=3).blocks
    assert all(a.tobytes() == b[5:8].tobytes() for a, b in zip(shifted, whole))
    uniforms = random_uniforms(key, start=0, rows=23)
    assert random_uniforms(key, start=9, rows=5).tobytes() == uniforms[9:14].tobytes()
    assert ((0.0 <= uniforms) & (uniforms < 1.0)).all()


@pytest.mark.parametrize("dist", ["ginibre", "hermitian", "psd"])
def test_random_field_is_row_zero_of_its_key(dist):
    m = preset_dual("custom", [1, 1, 2, 3])
    for k in range(20):
        seed = mix_seed("row0", k)
        blocks = [s[0] for s in random_stacks(m, seed, start=0, rows=2).blocks]
        if dist == "hermitian":
            blocks = [(a + a.conj().T) / 2 for a in blocks]
        elif dist == "psd":
            blocks = [a.conj().T @ a for a in blocks]
        got = random_field(m, seed, dist).blocks
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, blocks))


def test_random_stacks_normals_are_standard():
    # 4096 rows x 32 complex entries = 262144 real normals (real and imaginary parts)
    stacks = random_stacks(preset_dual("custom", [4, 4]), mix_seed("dist"), rows=4096).blocks
    z = np.sqrt(2) * np.concatenate([s.ravel() for s in stacks])
    x = np.sort(np.concatenate([z.real, z.imag]))
    n = x.size
    assert abs(x.mean()) < 5 / math.sqrt(n)
    assert abs(x.var() - 1.0) < 5 * math.sqrt(2 / n)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2))) for v in x])
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.95 / math.sqrt(n)  # the KS critical value at level 0.001


def test_random_stacks_reject_negative_rows():
    m = preset_dual("s3")
    with pytest.raises(ValueError):
        random_stacks(m, 1, start=-1)
    with pytest.raises(ValueError):
        random_stacks(m, 1, rows=-1)
    with pytest.raises(ValueError):
        random_uniforms(1, start=-2, rows=3)
    assert [s.shape for s in random_stacks(m, 1, start=4, rows=0).blocks] == [(0, 1, 1), (0, 1, 1), (0, 2, 2)]


@pytest.mark.parametrize("bad", [1.5, 1.9, 2.0, True, False, "3", None])
def test_draws_take_integer_keys_and_rows_only(bad):
    # no bool, float or text is coerced: 1.9 and True used to draw key 1, "3" key 3
    m = preset_dual("s3")
    for call in (lambda: random_field(m, bad), lambda: random_stacks(m, bad),
                 lambda: random_stacks(m, 1, start=bad), lambda: random_stacks(m, 1, rows=bad),
                 lambda: random_uniforms(bad), lambda: random_uniforms(2, start=bad),
                 lambda: random_uniforms(2, 0, bad)):
        with pytest.raises(ValueError):
            call()


def test_draws_take_numpy_integer_keys_and_rows():
    m = preset_dual("s3")
    drawn = random_stacks(m, np.uint64(7), np.int64(2), np.int32(3))
    assert drawn == random_stacks(m, 7, 2, 3)
    assert random_uniforms(np.int64(2), 0, 2).tobytes() == random_uniforms(2, 0, 2).tobytes()


def test_random_field_hermitian():
    m = preset_dual("su2_trunc", 4)
    h = random_field(m, 42, "hermitian")
    for b in h.blocks:
        assert np.allclose(b, matcore.adjoint(b))


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_random_field_psd(seed):
    m = preset_dual("su2_trunc", 4)
    h = random_field(m, seed, "psd")
    for b in h.blocks:
        assert np.min(np.linalg.eigvalsh((b + matcore.adjoint(b)) / 2)) >= -1e-10


def test_field_adjoint_of_identity():
    m = preset_dual("s3")
    e = identity_field(m)
    assert field_adjoint(e) == e


# every preset kind, and a model whose dims are out of order and repeat
TRANSPOSE_DUALS = ["torus(5)", "su2_trunc(6)", "s3", "custom(16,32)", "custom(1,2,1,3,3)"]


@pytest.mark.parametrize("dual", TRANSPOSE_DUALS)
def test_model_transpose_is_the_block_transpose(dual):
    m = parse_dual_arg(dual)
    t = m.transpose
    assert t is m.transpose and t.shape == (m.size,) and t.dtype == np.intp
    with pytest.raises(ValueError):
        t.flags.writeable = True
    for o, d in zip(m.offsets, m.dims):  # entry i's coordinate (r, c) maps to its (c, r)
        run = np.arange(o, o + d * d).reshape(d, d)
        assert np.array_equal(t[run], run.T)
    assert np.array_equal(t[t], np.arange(m.size))  # an involution
    diagonal = np.concatenate([o + (d + 1) * np.arange(d) for o, d in zip(m.offsets, m.dims)])
    assert len(diagonal) == sum(m.dims)
    assert np.array_equal(np.flatnonzero(t == np.arange(m.size)), diagonal)
    # outside equality and repr; copies derive it again, read-only
    assert "transpose" not in repr(m) and DualModel(m.name, m.entries) == m
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert copied == m and np.array_equal(copied.transpose, t)
        assert not copied.transpose.flags.writeable


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
@pytest.mark.parametrize("dual", ["s3", "custom(1,2,1,3,3)", "custom(16,32)"])
def test_field_adjoint_is_each_entrys_adjoint_bit_for_bit(dual, shape):
    m = parse_dual_arg(dual)
    rows = random_stacks(m, mix_seed("adjoint", dual), rows=math.prod(shape))
    h = _trusted(m, rows.data.reshape(*shape, m.size))
    star = field_adjoint(h)
    assert star.batch == shape
    for got, block in zip(star.blocks, h.blocks, strict=True):
        assert got.tobytes() == np.ascontiguousarray(matcore.adjoint(block)).tobytes()


def test_field_lincomb_cancellation():
    m = preset_dual("s3")
    h = random_field(m, 1)
    z = 1.0 * h + -1.0 * h
    assert z == zero_field(m)


def test_field_abs_blockwise():
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, 3)
    absf = field_abs(h)
    for raw, blk in zip(h.blocks, absf.blocks):
        assert np.allclose(blk, amplified.psd_power(matcore.adjoint(raw) @ raw, 0.5))


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(3)"])
def test_field_abs_of_a_batch_matches_row_by_row(dual):
    m = parse_dual_arg(dual)
    hs = random_stacks(m, mix_seed("abs batch", dual), rows=4)
    batch = field_abs(hs)
    assert batch.batch == (4,)
    for k in range(4):
        one = field_abs(Field(m, tuple(b[k] for b in hs.blocks)))
        for got, want in zip(batch.blocks, one.blocks):
            assert np.max(np.abs(got[k] - want)) <= 1e-15 * np.max(np.abs(want))


def test_field_abs_reads_the_svd_memo(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    h = random_field(preset_dual("custom", [1, 2, 3]), 8)
    dual_extremizer(h, 1.5)
    factorized = len(calls)
    absf = field_abs(h)
    assert len(calls) == factorized and factorized > 0
    for f, blk in zip(h.svd_factors, absf.blocks):  # |H| = V S V*, made Hermitian
        a = matcore.svd_compose(matcore.adjoint(f.vstar), f.sigma, f.vstar)
        assert np.array_equal(blk, (a + matcore.adjoint(a)) / 2)


@pytest.mark.parametrize("seed", range(5))
def test_field_product_associative(seed):
    m = preset_dual("su2_trunc", 3)
    a = random_field(m, mix_seed(seed, 0))
    b = random_field(m, mix_seed(seed, 1))
    c = random_field(m, mix_seed(seed, 2))
    left = field_product(field_product(a, b), c)
    right = field_product(a, field_product(b, c))
    for x, y in zip(left.blocks, right.blocks):
        assert matcore.hs_norm(x - y) <= 1e-12 * max(1.0, matcore.hs_norm(x))


def test_field_model_mismatch():
    h1 = random_field(preset_dual("s3"), 1)
    h2 = random_field(preset_dual("torus", 3), 1)
    with pytest.raises(ValueError):
        field_product(h1, h2)


def test_field_block_shape_validation():
    m = preset_dual("s3")
    with pytest.raises(ValueError):
        Field(m, (np.eye(1), np.eye(1), np.eye(3)))
    with pytest.raises(ValueError):
        Field(m, (np.eye(1), np.eye(1)))


def test_field_blocks_immutable():
    h = random_field(preset_dual("s3"), 2)
    with pytest.raises(ValueError):
        h.blocks[0][0, 0] = 1.0


# -- validation where data enters --------------------------------------------------


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_field_rejects_non_finite_blocks(bad):
    m = preset_dual("s3")
    std = np.eye(2, dtype=complex)
    std[1, 0] = complex(0.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        Field(m, (np.eye(1), np.eye(1), std))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -np.inf, complex(0.0, math.inf)], ids=repr)
def test_field_rejects_a_non_finite_factor(bad):
    # a factor is data entering the field, checked like its blocks
    h = random_field(preset_dual("su2_trunc", 3), 1)
    with pytest.raises(ValueError, match="finite"):
        bad * h
    with pytest.raises(ValueError, match="finite"):
        np.array([1.0, bad, 2.0]) * random_stacks(h.model, 1, rows=3)


@pytest.mark.parametrize(
    "block", [[[10**400]], {"a": 1}, [[object()]]], ids=["too_large", "dict", "object"]
)
def test_field_raises_value_error_for_blocks_that_are_not_complex128(block):
    with pytest.raises(ValueError, match="block for 'e0d1' cannot be held as complex128"):
        Field(preset_dual("custom", [1]), (block,))


@pytest.mark.parametrize("blocks", [5, None, iter([])], ids=["int", "none", "iterator"])
def test_field_raises_value_error_for_blocks_that_are_not_a_sequence(blocks):
    with pytest.raises(ValueError, match="blocks must be a sequence"):
        Field(preset_dual("s3"), blocks)


# each takes a field whose largest real or imaginary part is 1 to a result that overflows
OVERFLOWING = {
    "add": lambda h: 1e308 * h + 1e308 * h,
    "sub": lambda h: 1e308 * h - (-1e308) * h,
    "rmul": lambda h: 1e308 * (1e10 * h),
    "rmul_by_rows": lambda h: np.array([1.0, 1e308]) * (1e10 * _stack([h, h])),
    "field_product": lambda h: field_product(1e200 * h, 1e200 * h),
}


@pytest.mark.parametrize("op", OVERFLOWING)
def test_field_arithmetic_that_overflows_raises(op):
    # finite blocks make no inf or nan entry: an overflowing result raises, not a RuntimeWarning
    h = random_field(preset_dual("su2_trunc", 3), 1)
    h = (1.0 / max(np.abs(b.view(np.float64)).max() for b in h.blocks)) * h
    with pytest.raises(ValueError, match="overflows"):
        OVERFLOWING[op](h)


def test_field_rejects_entries_with_different_batch_shapes():
    m = preset_dual("s3")
    with pytest.raises(ValueError, match="batch shapes"):
        Field(m, (np.zeros((3, 1, 1)), np.zeros((3, 1, 1)), np.zeros((4, 2, 2))))
    with pytest.raises(ValueError, match="batch shapes"):
        Field(m, (np.eye(1), np.zeros((2, 1, 1)), np.zeros((2, 2, 2))))
    batch = Field(m, (np.zeros((3, 1, 1)), np.ones((3, 1, 1)), np.zeros((3, 2, 2))))
    assert batch.batch == (3,) and random_field(m, 1).batch == ()


def test_field_copies_the_callers_arrays():
    m = preset_dual("s3")
    std = np.arange(4, dtype=complex).reshape(2, 2)
    h = Field(m, (np.eye(1), np.eye(1), std))
    std[0, 0] = 99.0
    assert h.blocks[2][0, 0] == 0.0
    assert std.flags.writeable  # the caller's array stays writable


def test_computed_fields_are_read_only():
    m = preset_dual("s3")
    h = random_field(m, 4)
    rows_scaled = np.arange(1.0, 5.0) * random_stacks(m, 3, rows=4)  # as the moduli pass scales
    computed = [h + h, h - h, -h, 2.5 * h, field_product(h, h), field_adjoint(h),
                random_stacks(m, 3, rows=4), rows_scaled]
    for f in computed:
        for b in f.blocks:
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[..., 0, 0] = 1.0


def test_block_locks_cannot_be_lifted():
    m = preset_dual("s3")
    h = random_field(m, 4)
    fields = {
        "user": Field(m, (np.eye(1), 2 * np.eye(1), np.arange(4.0).reshape(2, 2))),
        "scaled": 2.0 * h, "sum": h + h, "mapped": h.map_blocks(lambda b: b),
        "adjoint": field_adjoint(h), "drawn": h, "hermitian": random_field(m, 4, "hermitian"),
        "batch": random_stacks(m, 3, rows=4),
        "rows_scaled": np.arange(1.0, 5.0) * random_stacks(m, 3, rows=4),
        "row": random_stacks(m, 3, rows=4)[1],
        "rows": random_stacks(m, 3, rows=4)[np.array([True, False, True, False])],
        "decoded": decode_field(encode_field(h), m), "zero": zero_field(m),
        # a complex view of a writable float buffer, as rademacher_average builds its sums
        "view": _trusted(m, np.zeros(2 * m.size).view(np.complex128)),
    }
    copies = {"pickled": pickle.loads(pickle.dumps(h)), "deep": copy.deepcopy(h), "copy": copy.copy(h)}
    for g in copies.values():  # copies lock their blocks again
        assert g == h
    fields.update(copies)
    for name, f in fields.items():
        for b in f.blocks:
            with pytest.raises(ValueError):
                b.flags.writeable = True
            assert not b.flags.writeable, name


@pytest.mark.parametrize("dual", ["torus(3)", "custom(1,3)", "s3", "su2_trunc(4)", "custom(16,32)"])
def test_field_file_reproduces_the_digest(dual):
    m = parse_dual_arg(dual)
    h = random_field(m, 11)
    for scale in (1.0, -1.0, -0.0, 0.0, 1e-300, 1e16, 1e300):
        f = scale * h
        assert digest_inputs(decode_field(encode_field(f), m)) == digest_inputs(f)
        # through the file text as `field random` writes it
        doc = json.loads(json.dumps(encode_field(f), indent=2))
        assert digest_inputs(decode_field(doc, m)) == digest_inputs(f)
    assert digest_inputs(-0.0 * h) != digest_inputs(0.0 * h)


def test_array_scalars_scale_each_field_of_a_batch():
    m = preset_dual("s3")
    batch = random_stacks(m, 8, rows=3)
    alpha = np.array([1.0, -2.0, 0.5j])
    scaled = alpha * batch
    for k in range(3):
        for a, b in zip(scaled.blocks, batch.blocks):
            assert np.array_equal(a[k], alpha[k] * b[k])


def test_rows_of_a_batch_are_fields():
    m = preset_dual("s3")
    batch = random_stacks(m, 8, rows=4)
    for k in range(4):
        assert batch[k] == random_stacks(m, 8, start=k)[0]
        assert batch[k].batch == () and digest_inputs(batch[k]) == digest_inputs(batch[k:k + 1][0])
    assert batch[1:3].batch == (2,) and batch[np.array([True, False, False, True])][1] == batch[3]
    grid = batch.map_blocks(lambda b: b.reshape(2, 2, *b.shape[1:]))
    assert grid[1].batch == (2,) and grid[1, 0] == batch[2] and grid[:, 1][0] == batch[1]
    for bad in (4, (0, 0, 0), (Ellipsis, 0)):  # past the rows, or into the matrix axes
        with pytest.raises(IndexError):
            grid[bad] if isinstance(bad, tuple) else batch[bad]
    with pytest.raises(IndexError):
        random_field(m, 1)[0]


@pytest.mark.parametrize("dual", ["s3", "custom(3,1,2)"])
def test_a_field_is_one_locked_buffer_with_a_block_view_per_entry(dual):
    m = parse_dual_arg(dual)
    h, batch = random_field(m, 4), random_stacks(m, 3, rows=6)
    user = Field(m, tuple(np.arange(3 * d * d).reshape(3, d, d) for d in m.dims))
    fields = {  # every way the package builds a field
        "user": user, "drawn": h, "batch": batch, "stacked": _stack([h, 2.0 * h]),
        "row": batch[2], "strided": batch[::2], "sum": batch + batch, "difference": user - user,
        "scaled": 2.5 * h, "rows_scaled": np.arange(6.0) * batch, "negated": -batch,
        "mapped": batch.map_blocks(lambda b: b.reshape(2, 3, *b.shape[1:])),
        "product": field_product(batch, batch), "copy": copy.copy(batch[::2]),
        "pickled": pickle.loads(pickle.dumps(batch[1::2])),
    }
    for name, f in fields.items():
        assert f.data.dtype == np.complex128 and f.data.shape == (*f.batch, m.size), name
        for b, o, d in zip(f.blocks, m.offsets, m.dims, strict=True):
            run = f.data[..., o : o + d * d]
            assert np.array_equal(b, run.reshape(*f.batch, d, d)) and np.shares_memory(b, run), name
        for a in (f.data, *f.blocks):
            with pytest.raises(ValueError):
                a.flags.writeable = True
            assert not a.flags.writeable, name
        rows = f.data.reshape(-1, m.size)
        want = [hashlib.sha256(r.astype("<c16").tobytes()).hexdigest() for r in rows]
        assert list(f.block_sha256) == want, name


def test_an_index_never_reaches_the_entry_axis():
    batch = random_stacks(preset_dual("s3"), 3, rows=3)
    for bad in ((0, 0), (Ellipsis, 0), (slice(None), 0), (0, Ellipsis)):
        with pytest.raises(IndexError):
            batch[bad]
    with pytest.raises(IndexError):
        batch[0][0]


def test_encode_field_rejects_a_batch():
    batch = random_stacks(preset_dual("s3"), 1, rows=2)
    with pytest.raises(ValueError, match="batch"):
        encode_field(batch)


@pytest.mark.parametrize("dim", [2.5, "3", True, None])
def test_decode_model_requires_integer_dims(dim):
    doc = {"name": "m", "entries": [{"label": "a", "dim": dim}]}
    with pytest.raises(ValueError, match="malformed dual-model document"):
        decode_model(doc)


@pytest.mark.parametrize("entry", [[True, 0.0], [1.0, False], ["1", 0.0], [1.0], None])
def test_decode_field_requires_numeric_entry_pairs(entry):
    doc = {"model": "torus(1)", "blocks": [[[entry]]]}
    with pytest.raises(ValueError, match="malformed field document"):
        decode_field(doc, preset_dual("torus", 1))


def test_model_serialization_roundtrip():
    m = preset_dual("su2_trunc", 3)
    doc = json.loads(json.dumps(encode_model(m)))
    assert decode_model(doc) == m


@pytest.mark.parametrize("dist", ["ginibre", "hermitian", "psd"])
def test_field_serialization_roundtrip_bit_exact(dist):
    m = preset_dual("su2_trunc", 3)
    h = random_field(m, 42, dist)
    doc = json.loads(json.dumps(encode_field(h)))
    back = decode_field(doc, m)
    for a, b in zip(h.blocks, back.blocks):
        assert np.array_equal(a, b)


def test_decode_field_checks_model_name():
    m = preset_dual("s3")
    doc = encode_field(random_field(m, 1))
    with pytest.raises(ValueError):
        decode_field(doc, preset_dual("torus", 3))


def test_mix_seed_is_stable():
    # pinned values guard against accidental changes to the mixing scheme,
    # which would silently re-randomize every suite
    assert mix_seed(0, "clarkson", 0) == mix_seed(0, "clarkson", 0)
    assert mix_seed(0, "clarkson", 0) != mix_seed(0, "clarkson", 1)
    assert mix_seed(1, "a") != mix_seed("1", "a")
    assert isinstance(mix_seed(123), int)
    assert 0 <= mix_seed("anything", 7) < 2**64


# -- fuzz of the input decoders -----------------------------------------------
#
# Documents and preset strings come from outside the program, so a decoder may
# only raise ValueError.  Integers stay small and lists short, so no case
# builds a large model.

_WIRE_KEYS = ["name", "entries", "label", "dim", "model", "blocks"]
_KEYS = st.sampled_from(_WIRE_KEYS) | st.text(max_size=4)
_SCALARS = st.none() | st.booleans() | st.integers(-64, 64) | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=16,
)
MODEL_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"name": JSON_VALUES, "entries": st.lists(st.dictionaries(_KEYS, JSON_VALUES), max_size=3)}
)
FIELD_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"model": st.just("s3") | JSON_VALUES, "blocks": JSON_VALUES}
)
PRESET_ARGS = st.lists(st.integers(-64, 64).map(str) | st.text(" ,()x-", max_size=3), max_size=4)
PRESETS = st.text("torus2_ckm3(),0- ", max_size=12) | st.builds(
    "{}({})".format,
    st.sampled_from(["torus", "su2_trunc", "s3", "custom", "nosuch", ""]),
    PRESET_ARGS.map(",".join),
) | st.sampled_from(["torus", "su2_trunc", "custom", "s3("])


def _raises_only_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        pass


@settings(deadline=None, max_examples=300)
@given(MODEL_DOCS)
def test_decode_model_raises_only_value_error(doc):
    _raises_only_value_error(decode_model, doc)


@settings(deadline=None, max_examples=300)
@given(FIELD_DOCS)
def test_decode_field_raises_only_value_error(doc):
    _raises_only_value_error(decode_field, doc, preset_dual("s3"))


@settings(deadline=None, max_examples=300)
@given(PRESETS)
def test_parse_dual_arg_raises_only_value_error(text):
    _raises_only_value_error(parse_dual_arg, text)


EXPONENTS = (
    st.text("0123456789/.-+e inf", max_size=12)
    | st.builds("{}/{}".format, st.integers(0, 10**400), st.integers(0, 3))
    | st.integers(-(10**400), 10**400)
    | st.floats()
)


@settings(deadline=None, max_examples=300)
@given(EXPONENTS)
def test_exponent_parse_raises_only_value_error(text):
    _raises_only_value_error(ExponentP.parse, text)


# -- per-field factorization memo ------------------------------------------


@pytest.mark.parametrize("dual", ["torus(3)", "s3", "su2_trunc(4)", "custom(16,32)"])
@pytest.mark.parametrize("rows", [None, 3])
def test_memoized_factorizations_equal_fresh_kernel_calls(dual, rows):
    m = parse_dual_arg(dual)
    h = random_field(m, 5) if rows is None else random_stacks(m, 5, rows=rows)
    assert h.singular_values is h.singular_values and h.svd_factors is h.svd_factors
    for b, s, f in zip(h.blocks, h.singular_values, h.svd_factors):
        fresh = matcore.svd(b)
        assert np.array_equal(s, matcore.singular_values(b))
        for got, want in ((f.u, fresh.u), (f.sigma, fresh.sigma), (f.vstar, fresh.vstar)):
            assert np.array_equal(got, want)
        for a in (s, f.u, f.sigma, f.vstar):
            with pytest.raises(ValueError):
                a.flags.writeable = True


def test_copies_carry_no_memo():
    h = random_field(preset_dual("s3"), 4)
    h.singular_values, h.svd_factors  # fill both memos
    copies = [pickle.loads(pickle.dumps(h)), copy.deepcopy(h), copy.copy(h)]
    for g in copies:
        assert g == h and not {"singular_values", "svd_factors"} & set(vars(g))
        assert np.array_equal(g.singular_values[2], h.singular_values[2])


def test_memo_stays_out_of_equality_and_repr():
    m = preset_dual("s3")
    h, g = random_field(m, 4), random_field(m, 4)
    h.singular_values  # fill h's memo only
    assert h == g and "singular_values" not in repr(h)


@pytest.mark.parametrize(
    "name, value", [("dims", (1, 2, 3, 4)), ("size", 30), ("offsets", (0, 1, 5, 14))]
)
def test_model_dims_is_computed_once_and_outside_equality_and_repr(name, value):
    m = preset_dual("su2_trunc", 4)
    assert getattr(m, name) is getattr(m, name) and getattr(m, name) == value
    assert name not in repr(m)
    same = DualModel(m.name, m.entries)
    assert same == m and hash(same) == hash(m)
    assert getattr(pickle.loads(pickle.dumps(m)), name) == value
    with pytest.raises(TypeError):
        DualModel(m.name, m.entries, **{name: value})
