"""Finite truncations of a unitary dual, and matrix fields over them.

A :class:`DualModel` is an ordered list of ``(label, dim)`` entries standing
for the first few irreducible-representation classes of a compact group; a
:class:`Field` assigns a square ``dim x dim`` complex block to each entry.
Presets cover the torus (all dims 1), truncated SU(2) (dims 1..N) and the
symmetric group S3 (dims 1, 1, 2).

A field is one vector of ``DualModel.size`` complex coordinates, as in the
direct sum of the matrix algebras M_d: its buffer ``Field.data`` holds the
blocks in entry order, rows concatenated, entry i's run starting at
``DualModel.offsets[i]``, ``Field.blocks`` are those runs as ``(*batch, dim,
dim)`` views, and ``DualModel.transpose`` maps each run's (r, c) to its (c, r).
A Field is also a batch of fields: ``data`` has shape ``(*batch, size)``
(``()`` for a single field), and ``h[k]`` is row k.  Arithmetic, equality,
indexing, stacking (``_stack``, of fields that share a model and a batch
shape), adjoints and digests run on ``data``; per-entry kernels read
``blocks``.  :func:`random_stacks` draws ``data`` from the size alone.

Both types are immutable; field arithmetic returns new fields, and raises
ValueError where a result overflows.  Data is validated where it enters:
``Field(...)`` checks its arrays and copies them into a fresh buffer, while
fields the package computes go through :func:`_trusted` (a buffer) or
:func:`_from_blocks` (an array per entry).  A buffer can never be made
writable again, so a field memoizes what it costs a factorization to learn:
each entry's singular values (``Field.singular_values``) and each entry's SVD
(``Field.svd_factors``), computed on first use by :mod:`matcore` and then
shared by every norm, extremizer and witness of that field, and by its
absolute value |H| (:func:`field_abs`).  The two memos never feed each other,
so a value never depends on the order of calls; copies and unpickled fields
start with none.  Reports digest a field as its model, its dims and a hash of
each row of its buffer (``Field.block_sha256``), so every report of a batch
shares one hash per row; the JSON wire format below is for field files.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import matcore

__all__ = [
    "DualModel",
    "Field",
    "preset_dual",
    "parse_dual_arg",
    "zero_field",
    "identity_field",
    "random_field",
    "random_stacks",
    "random_uniforms",
    "field_adjoint",
    "field_abs",
    "field_product",
    "encode_model",
    "decode_model",
    "encode_field",
    "decode_field",
    "mix_seed",
]

DISTRIBUTIONS = ("ginibre", "hermitian", "psd")
MAX_DIM = 256  # blocks beyond 256 x 256 are out of scope
MAX_ENTRIES = 4096  # models beyond 4096 entries are out of scope
MAX_FIELD_ENTRIES = 2**23  # complex entries of one field (128 MiB); su2_trunc(256) has 5,625,216


@dataclass(frozen=True)
class DualModel:
    """Ordered, labeled truncation of a unitary dual: ``(label, dim)`` pairs."""

    name: str
    entries: tuple[tuple[str, int], ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)  # entry dims, in order
    size: int = field(init=False, repr=False, compare=False)  # complex entries of one field
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)  # each block's start

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"a dual model's name must be a string, got {self.name!r}")
        if not 1 <= len(self.entries) <= MAX_ENTRIES:
            raise ValueError(f"a dual model needs between 1 and {MAX_ENTRIES} entries")
        for lab, dim in self.entries:
            if not (_is_integer(dim) and 1 <= dim <= MAX_DIM):
                raise ValueError(f"entry {lab!r} has dim {dim!r}, not an integer in [1, {MAX_DIM}]")
        entries = tuple((str(lab), int(dim)) for lab, dim in self.entries)
        if len({lab for lab, _ in entries}) != len(entries):
            raise ValueError("entry labels must be unique")
        *offsets, size = itertools.accumulate((dim**2 for _, dim in entries), initial=0)
        if size > MAX_FIELD_ENTRIES:
            raise ValueError(f"a field would hold {size} entries, more than {MAX_FIELD_ENTRIES}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dims", tuple(d for _, d in entries))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "offsets", tuple(offsets))

    def __len__(self) -> int:
        return len(self.entries)

    def __reduce__(self):  # copies and unpickled models carry no transpose
        return (DualModel, (self.name, self.entries))

    @functools.cached_property
    def transpose(self) -> np.ndarray:  # read-only, over the buffer: (r, c) to (c, r)
        dim, start = (np.repeat(x, np.square(self.dims)) for x in (self.dims, self.offsets))
        row, col = np.divmod(np.arange(self.size) - start, dim)
        return _locked(start + col * dim + row)


def _is_integer(x) -> bool:
    """Whether ``x`` is an integer (``numbers.Integral``) other than a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """Whether ``x`` is a real number (``numbers.Real``) other than a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def preset_dual(kind: str, arg=None) -> DualModel:
    """Build a preset dual model.

    kind: "torus" (arg = number of 1-dim entries), "su2_trunc" (arg = max
    dim, entries of dims 1..arg), "s3" (dims 1, 1, 2; no arg), or "custom"
    (arg = non-string iterable of dims).  Counts and dims are integers
    (``numbers.Integral``, not bool), as in ``DualModel``.
    """
    if arg is None and kind in ("torus", "su2_trunc", "custom"):
        raise ValueError(f"the {kind} preset needs an argument, as in {kind}(3)")
    if kind == "torus":
        if not (_is_integer(arg) and 1 <= arg <= MAX_ENTRIES):
            raise ValueError(f"torus preset needs an entry count in [1, {MAX_ENTRIES}], got {arg!r}")
        return DualModel("torus(%d)" % arg, tuple((f"k{i}", 1) for i in range(arg)))
    if kind == "su2_trunc":
        if not (_is_integer(arg) and 1 <= arg <= MAX_DIM):
            raise ValueError(f"su2_trunc preset needs max dim in [1, {MAX_DIM}], got {arg!r}")
        return DualModel("su2_trunc(%d)" % arg, tuple((f"d{d}", d) for d in range(1, arg + 1)))
    if kind == "s3":
        if arg is not None:
            raise ValueError(f"the s3 preset takes no argument, got {arg!r}")
        return DualModel("s3", (("triv", 1), ("sgn", 1), ("std", 2)))
    if kind == "custom":
        if isinstance(arg, (str, bytes)) or not hasattr(arg, "__iter__"):
            raise ValueError(f"custom preset needs an iterable of dims, got {arg!r}")
        dims = list(arg)  # DualModel checks each dim
        if not dims:
            raise ValueError("custom preset needs a non-empty dim list")
        name = "custom(%s)" % ",".join(str(d) for d in dims)
        return DualModel(name, tuple((f"e{i}d{d}", d) for i, d in enumerate(dims)))
    raise ValueError(f"unknown dual preset kind {kind!r}")


def _ascii_int(text: str) -> int:
    """int(text), for ASCII text with no underscore: "-1" or " 2 ", but not "1_0" or "٣"."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a decimal integer in ASCII digits")
    return int(text)


def _ascii_float(text: str) -> float:
    """float(text), for ASCII text with no underscore: "2." or "1e-10", but not "1_5" or "１.５"."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a decimal number in ASCII digits")
    return float(text)


def parse_dual_arg(text: str) -> DualModel:
    """Parse a preset string like "torus(4)", "su2_trunc(3)", "s3", "custom(1,2,2)"."""
    text = text.strip()
    try:
        if "(" in text:
            if not text.endswith(")"):
                raise ValueError("missing closing parenthesis")
            kind, _, inner = text[:-1].partition("(")
            items = [s.strip() for s in inner.split(",")]
            if kind != "s3" and not all(s.isdigit() for s in items):  # no sign, no empty item
                raise ValueError(f"the items in parentheses must be decimal integers, got {inner!r}")
            if kind == "custom":
                return preset_dual("custom", [_ascii_int(s) for s in items])
            return preset_dual(kind, inner if kind == "s3" else _ascii_int(inner))
        return preset_dual(text)
    except ValueError as exc:
        raise ValueError(f"malformed dual preset {text!r}: {exc}") from exc


@dataclass(frozen=True)
class Field:
    """A field or batch: one complex128 buffer ``data`` of shape ``(*batch, model.size)``.

    Entry i's block, rows concatenated, is the run ``data[..., o:o + d*d]`` at
    o = ``model.offsets[i]``, and ``blocks[i]`` is that run as a ``(*batch, d, d)`` view.
    """

    model: DualModel
    blocks: tuple[np.ndarray, ...]
    data: np.ndarray = field(init=False, repr=False, compare=False)

    __array_ufunc__ = None  # array * field defers to __rmul__

    def __post_init__(self):
        try:
            count = len(self.blocks)
        except TypeError:  # an int, None or an iterator: no sequence of blocks
            raise ValueError(f"a field's blocks must be a sequence, got {self.blocks!r}") from None
        if count != len(self.model):
            raise ValueError(f"field has {count} blocks for {len(self.model)} entries")
        blocks = []
        for (lab, dim), b in zip(self.model.entries, self.blocks):
            try:
                b = np.asarray(b, dtype=np.complex128)  # copied into the buffer below
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"block for {lab!r} cannot be held as complex128: {exc}") from exc
            if b.shape[-2:] != (dim, dim):
                raise ValueError(f"block for {lab!r} has shape {b.shape}, not (..., {dim}, {dim})")
            if not np.isfinite(b).all():
                raise ValueError(f"block for {lab!r} has non-finite entries")
            blocks.append(b)
        batches = {b.shape[:-2] for b in blocks}
        if len(batches) > 1:
            raise ValueError(f"entries have different batch shapes: {sorted(batches)}")
        self.__dict__.update(vars(_from_blocks(self.model, blocks)))  # buffer and views, fresh

    @property
    def batch(self) -> tuple[int, ...]:
        return self.data.shape[:-1]

    def __reduce__(self):
        """Copies and unpickled fields lock their buffer again (and carry no memo)."""
        return (_trusted, (self.model, self.data))

    @functools.cached_property
    def singular_values(self) -> tuple[np.ndarray, ...]:
        """Each entry's ``matcore.singular_values``, computed once per field (read-only)."""
        return tuple(_locked(matcore.singular_values(b)) for b in self.blocks)

    @functools.cached_property
    def svd_factors(self) -> tuple[matcore.SvdResult, ...]:
        """Each entry's ``matcore.svd``, computed once per field (read-only arrays)."""
        return tuple(
            matcore.SvdResult(*map(_locked, (f.u, f.sigma, f.vstar)))
            for f in map(matcore.svd, self.blocks)
        )

    @functools.cached_property
    def block_sha256(self) -> tuple[str, ...]:
        """Each row's sha256 (hex) of its ``<c16`` buffer bytes, in C order of the batch axes."""
        rows = np.ascontiguousarray(self.data.reshape(-1, self.model.size), dtype="<c16")
        return tuple(hashlib.sha256(r).hexdigest() for r in rows)

    def __getitem__(self, index) -> "Field":
        """Rows of a batch: ``h[k]`` is row k of a batch of shape ``(n,)``, a view of its buffer."""
        index = index if isinstance(index, tuple) else (index,)
        if any(i is Ellipsis for i in index):
            raise IndexError("an Ellipsis would reach the entry axis of a field")
        np.empty(self.batch, dtype=bool)[index]  # IndexError unless it fits the batch axes
        return _trusted(self.model, self.data[index])

    def map_blocks(self, fn) -> "Field":
        """Apply ``fn`` to each entry's block (stack); it must keep shapes and finiteness."""
        return _from_blocks(self.model, [fn(b) for b in self.blocks])

    def __add__(self, other: "Field") -> "Field":
        _check_same_model(self, other)
        return _trusted(self.model, _guarded(np.add, self.data, other.data))

    def __sub__(self, other: "Field") -> "Field":
        _check_same_model(self, other)
        return _trusted(self.model, _guarded(np.subtract, self.data, other.data))

    def __neg__(self) -> "Field":
        return _trusted(self.model, -self.data)

    def __rmul__(self, alpha) -> "Field":
        """alpha * field.  An array alpha broadcasts against the batch, a scalar for each row;
        it need not have the batch shape (a single field times shape ``(k,)`` is a ``(k,)``
        batch).  A non-finite factor is data entering a field: it raises ValueError."""
        if not (np.isfinite(alpha).all() if np.ndim(alpha) else cmath.isfinite(alpha)):
            raise ValueError(f"a field's factor must be finite, got {alpha!r}")
        if np.ndim(alpha):
            alpha = np.asarray(alpha)[..., None]
        return _trusted(self.model, _guarded(np.multiply, alpha, self.data))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.model == other.model and np.array_equal(self.data, other.data)


def _trusted(model: DualModel, data: np.ndarray) -> Field:
    """A Field over a ``(*batch, model.size)`` buffer the package computed: locked read-only,
    neither copied nor checked."""
    data = _locked(data)
    batch = data.shape[:-1]
    blocks = tuple([data[..., o : o + d * d].reshape(batch + (d, d))
                    for o, d in zip(model.offsets, model.dims)])
    field = object.__new__(Field)
    field.__dict__.update(model=model, data=data, blocks=blocks)
    return field


def _from_blocks(model: DualModel, blocks) -> Field:
    """The trusted Field of a fresh buffer that holds ``blocks``, a ``(*batch, d, d)`` per entry."""
    batch = blocks[0].shape[:-2]
    data = np.empty(batch + (model.size,), dtype=np.complex128)
    for b, o, d in zip(blocks, model.offsets, model.dims):
        data[..., o : o + d * d].reshape(batch + (d, d))[...] = b  # a view of the fresh buffer
    return _trusted(model, data)


def _guarded(op, *operands):
    """``op(*operands)``, raising ValueError where a result overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return op(*operands)
    except FloatingPointError as exc:
        raise ValueError(f"field arithmetic overflows: {exc}") from exc


def _locked(b: np.ndarray) -> np.ndarray:
    """A read-only view of ``b`` that cannot be made writable: ``b`` and its base are locked."""
    b.setflags(write=False)  # about half the cost of setting b.flags.writeable
    if isinstance(b.base, np.ndarray) and b.base.flags.writeable:
        b.base.setflags(write=False)
    return b.view()


def _check_same_model(a: Field, b: Field) -> None:
    if a.model != b.model:
        raise ValueError("fields live over different dual models")


def _stack(fields) -> Field:
    """The batch Field of shape ``(k, *batch)`` whose row j is ``fields[j]``; ValueError unless
    the (non-empty) fields share a model and a batch shape."""
    for f in fields:
        _check_same_model(fields[0], f)
        if f.batch != fields[0].batch:
            raise ValueError("fields have different batch shapes")
    return _trusted(fields[0].model, np.stack([f.data for f in fields]))


def zero_field(model: DualModel) -> Field:
    return _trusted(model, np.zeros(model.size, dtype=np.complex128))


def identity_field(model: DualModel) -> Field:
    return _from_blocks(model, [np.eye(d, dtype=np.complex128) for d in model.dims])


def random_field(model: DualModel, seed: int, dist: str = "ginibre") -> Field:
    """Deterministic random field: row 0 of the stream keyed by ``seed``.

    ginibre: i.i.d. standard complex normal entries (unit E|z|^2), row 0
    of random_stacks(model, seed);
    hermitian: Hermitian part (A + A*)/2 of a ginibre draw;
    psd: A* A of a ginibre draw.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    a = random_stacks(model, seed)[0]
    if dist == "hermitian":
        return 0.5 * (a + field_adjoint(a))
    if dist == "psd":
        return a.map_blocks(lambda b: matcore.adjoint(b) @ b)
    return a


# -- keyed counter-based draws ---------------------------------------------
#
# Every draw is a fixed slice of one Philox stream, addressed by (key, row):
# row r of a draw of `stride` words per row reads the stream's words
# [r * stride, (r + 1) * stride).  A row's bits depend on its key and its
# index only, never on which rows are read with it or in what order.

_PHILOX_BLOCK = 4  # 64-bit words per Philox counter value


def _check_rows(key, start: int, rows: int) -> None:
    """Raise ValueError unless key, start and rows are integers (not bools), start and rows >= 0."""
    if not all(_is_integer(x) for x in (key, start, rows)) or start < 0 or rows < 0:
        raise ValueError(f"key, start and rows must be integers >= 0: {key!r}, {start!r}, {rows!r}")


def random_uniforms(key: int, start: int = 0, rows: int = 1) -> np.ndarray:
    """Uniforms on [0, 1) of rows start .. start + rows - 1: row r is word r of the stream.

    A word's top 53 bits make its uniform.
    """
    _check_rows(key, start, rows)
    skip = start % _PHILOX_BLOCK
    # a bit generator per call: no state is shared between calls or threads
    bits = np.random.Philox(key=key, counter=start // _PHILOX_BLOCK)
    words = bits.random_raw(skip + rows)[skip:]
    return (words >> np.uint64(11)) * 2.0**-53


def random_stacks(model: DualModel, key: int, start: int = 0, rows: int = 1) -> Field:
    """Ginibre fields of rows start .. start + rows - 1, as a batch Field of shape (rows,).

    Row r reads the words [r * stride, (r + 1) * stride) of the stream keyed
    by ``key``, where stride is 2 * ``model.size`` rounded up to a Philox
    block.  Word pair (2j, 2j + 1) of a row is coordinate j of its buffer, by
    Box-Muller: sqrt(-log u1) * exp(2 pi i u2) with u1 = 1 - U (which keeps
    the log finite), one standard complex normal (unit E|z|^2).
    """
    _check_rows(key, start, rows)
    width = 2 * model.size
    stride = -(-width // _PHILOX_BLOCK) * _PHILOX_BLOCK
    u = random_uniforms(key, start * stride, rows * stride).reshape(rows, stride)
    radius = np.sqrt(-np.log(1.0 - u[:, 0:width:2]))  # sqrt(-2 log u1) / sqrt(2)
    angle = (2.0 * np.pi) * u[:, 1:width:2]
    data = np.empty((rows, model.size), dtype=np.complex128)
    np.multiply(radius, np.cos(angle), out=data.real)
    np.multiply(radius, np.sin(angle), out=data.imag)
    return _trusted(model, data)


def field_adjoint(h: Field) -> Field:
    data = np.take(h.data, h.model.transpose, axis=-1)
    return _trusted(h.model, np.conjugate(data, out=data))


def field_abs(h: Field) -> Field:
    """|H| = (H* H)^(1/2) blockwise: V S V* from the memoized SVD H = W S V*, made Hermitian."""
    vsv = [matcore.svd_compose(matcore.adjoint(f.vstar), f.sigma, f.vstar) for f in h.svd_factors]
    return _from_blocks(h.model, [(a + matcore.adjoint(a)) / 2 for a in vsv])  # against roundoff


def field_product(h1: Field, h2: Field) -> Field:
    _check_same_model(h1, h2)
    return _from_blocks(h1.model, [_guarded(np.matmul, a, b) for a, b in zip(h1.blocks, h2.blocks)])


# -- JSON wire formats ------------------------------------------------------
#
# DualModel: {"name": str, "entries": [{"label": str, "dim": int}, ...]}
# Field:     {"model": str, "blocks": [[[[re, im], ...] ...] ...]}
#            (blocks > rows > complex entries as [re, im] pairs)


def encode_model(model: DualModel) -> dict:
    return {
        "name": model.name,
        "entries": [{"label": lab, "dim": dim} for lab, dim in model.entries],
    }


def decode_model(data: dict) -> DualModel:
    try:
        entries = tuple(
            (_json_string(e["label"]), _json_number(e["dim"], int)) for e in data["entries"]
        )
        return DualModel(_json_string(data["name"]), entries)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed dual-model document: {exc}") from exc


def _json_number(x, kind=(int, float)):
    """``x`` if it is a JSON number of the given kind; a JSON true or false is not one."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise ValueError(f"{x!r} is not a JSON {'integer' if kind is int else 'number'}")
    return x


def _json_string(x) -> str:
    """``x`` if it is a JSON string."""
    if not isinstance(x, str):
        raise ValueError(f"{x!r} is not a JSON string")
    return x


def encode_field(field: Field) -> dict:
    """The wire format of a single field (a batch has none)."""
    if field.batch:
        raise ValueError(f"cannot encode a batch of fields (batch shape {field.batch})")
    blocks = [
        [[[z.real, z.imag] for z in row] for row in block.tolist()]
        for block in field.blocks
    ]
    return {"model": field.model.name, "blocks": blocks}


def decode_field(data: dict, model: DualModel) -> Field:
    if not isinstance(data, dict):
        raise ValueError(f"a field document must be a JSON object, got {type(data).__name__}")
    if data.get("model") != model.name:
        raise ValueError(
            f"field document is for model {data.get('model')!r}, expected {model.name!r}"
        )
    blocks = []
    try:
        for raw in data["blocks"]:
            rows = [[complex(_json_number(re), _json_number(im)) for re, im in r] for r in raw]
            blocks.append(np.array(rows))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed field document: {exc}") from exc
    return Field(model, tuple(blocks))


def mix_seed(*parts) -> int:
    """Mix strings/ints into a 64-bit seed, stable across runs and platforms."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
        else:
            h.update(b"s" + str(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")
