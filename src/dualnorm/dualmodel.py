"""Finite truncations of a unitary dual, and matrix fields over them.

A :class:`DualModel` is an ordered list of ``(label, dim)`` entries standing
for the first few irreducible-representation classes of a compact group; a
:class:`Field` assigns a square ``dim x dim`` complex block to each entry.
Presets cover the torus (all dims 1), truncated SU(2) (dims 1..N) and the
symmetric group S3 (dims 1, 1, 2).

A Field is also a batch of fields: every entry's block is a ``(*batch, dim,
dim)`` array with the same batch shape (``()`` for a single field).

Both types are immutable; field arithmetic returns new fields.  Data is
validated where it enters: ``Field(...)`` checks and copies its arrays,
while fields the package computes go through :func:`_trusted`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

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
    "field_lincomb",
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


@dataclass(frozen=True)
class DualModel:
    """Ordered, labeled truncation of a unitary dual: ``(label, dim)`` pairs."""

    name: str
    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not 1 <= len(self.entries) <= MAX_ENTRIES:
            raise ValueError(f"a dual model needs between 1 and {MAX_ENTRIES} entries")
        labels = [lab for lab, _ in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("entry labels must be unique")
        for lab, dim in self.entries:
            if not 1 <= dim <= MAX_DIM:
                raise ValueError(f"entry {lab!r} has dim {dim}, outside [1, {MAX_DIM}]")
        object.__setattr__(self, "entries", tuple((str(l), int(d)) for l, d in self.entries))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def preset_dual(kind: str, arg=None) -> DualModel:
    """Build a preset dual model.

    kind: "torus" (arg = number of 1-dim entries), "su2_trunc" (arg = max
    dim, entries of dims 1..arg), "s3" (dims 1, 1, 2), or "custom"
    (arg = iterable of dims).
    """
    if arg is None and kind in ("torus", "su2_trunc", "custom"):
        raise ValueError(f"the {kind} preset needs an argument, as in {kind}(3)")
    if kind == "torus":
        n = int(arg)
        if not 1 <= n <= MAX_ENTRIES:
            raise ValueError(f"torus preset needs an entry count in [1, {MAX_ENTRIES}]")
        return DualModel("torus(%d)" % n, tuple((f"k{i}", 1) for i in range(n)))
    if kind == "su2_trunc":
        n = int(arg)
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"su2_trunc preset needs max dim in [1, {MAX_DIM}]")
        return DualModel("su2_trunc(%d)" % n, tuple((f"d{d}", d) for d in range(1, n + 1)))
    if kind == "s3":
        return DualModel("s3", (("triv", 1), ("sgn", 1), ("std", 2)))
    if kind == "custom":
        dims = [int(d) for d in arg]
        if not dims:
            raise ValueError("custom preset needs a non-empty dim list")
        name = "custom(%s)" % ",".join(str(d) for d in dims)
        return DualModel(name, tuple((f"e{i}d{d}", d) for i, d in enumerate(dims)))
    raise ValueError(f"unknown dual preset kind {kind!r}")


def parse_dual_arg(text: str) -> DualModel:
    """Parse a preset string like "torus(4)", "su2_trunc(3)", "s3", "custom(1,2,2)"."""
    text = text.strip()
    try:
        if "(" in text:
            if not text.endswith(")"):
                raise ValueError("missing closing parenthesis")
            kind, _, inner = text[:-1].partition("(")
            if kind == "custom":
                return preset_dual("custom", [s for s in inner.split(",") if s])
            return preset_dual(kind, inner)
        return preset_dual(text)
    except ValueError as exc:
        raise ValueError(f"malformed dual preset {text!r}: {exc}") from exc


@dataclass(frozen=True)
class Field:
    """One square complex block per dual-model entry: ``blocks[i]`` is ``(*batch, d_i, d_i)``."""

    model: DualModel
    blocks: tuple[np.ndarray, ...]

    __array_ufunc__ = None  # array * field defers to __rmul__

    def __post_init__(self):
        if len(self.blocks) != len(self.model):
            raise ValueError(
                f"field has {len(self.blocks)} blocks for {len(self.model)} entries"
            )
        blocks = []
        for (lab, dim), b in zip(self.model.entries, self.blocks):
            b = np.array(b, dtype=np.complex128)  # private copy: callers keep their arrays
            if b.shape[-2:] != (dim, dim):
                raise ValueError(f"block for {lab!r} has shape {b.shape}, not (..., {dim}, {dim})")
            if not np.isfinite(b).all():
                raise ValueError(f"block for {lab!r} has non-finite entries")
            b.flags.writeable = False
            blocks.append(b)
        batches = {b.shape[:-2] for b in blocks}
        if len(batches) > 1:
            raise ValueError(f"entries have different batch shapes: {sorted(batches)}")
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def batch(self) -> tuple[int, ...]:
        return self.blocks[0].shape[:-2]

    def map_blocks(self, fn) -> "Field":
        """Apply ``fn`` to each entry's block (stack); it must keep shapes and finiteness."""
        return _trusted(self.model, [fn(b) for b in self.blocks])

    def __add__(self, other: "Field") -> "Field":
        _check_same_model(self, other)
        return _trusted(self.model, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "Field") -> "Field":
        _check_same_model(self, other)
        return _trusted(self.model, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "Field":
        return self.map_blocks(lambda b: -b)

    def __rmul__(self, alpha) -> "Field":
        """alpha * field; an array alpha of the batch shape scales each field by its own scalar."""
        if np.ndim(alpha):
            alpha = np.asarray(alpha)[..., None, None]
        return self.map_blocks(lambda b: alpha * b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.model == other.model and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )


def _trusted(model: DualModel, blocks) -> Field:
    """A Field over arrays the package computed: marked read-only, neither copied nor checked."""
    for b in blocks:
        b.flags.writeable = False
    field = object.__new__(Field)
    object.__setattr__(field, "model", model)
    object.__setattr__(field, "blocks", tuple(blocks))
    return field


def _check_same_model(a: Field, b: Field) -> None:
    if a.model != b.model:
        raise ValueError("fields live over different dual models")


def zero_field(model: DualModel) -> Field:
    return _trusted(model, [np.zeros((d, d), dtype=np.complex128) for d in model.dims])


def identity_field(model: DualModel) -> Field:
    return _trusted(model, [np.eye(d, dtype=np.complex128) for d in model.dims])


def random_field(model: DualModel, seed: int, dist: str = "ginibre") -> Field:
    """Deterministic random field: row 0 of the stream keyed by ``seed``.

    ginibre: i.i.d. standard complex normal entries (unit E|z|^2), row 0
    of random_stacks(model, seed);
    hermitian: Hermitian part (A + A*)/2 of a ginibre draw;
    psd: A* A of a ginibre draw.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    blocks = [s[0] for s in random_stacks(model, seed).blocks]
    if dist == "hermitian":
        blocks = [(a + a.conj().T) / 2 for a in blocks]
    elif dist == "psd":
        blocks = [a.conj().T @ a for a in blocks]
    return _trusted(model, blocks)


# -- keyed counter-based draws ---------------------------------------------
#
# Every draw is a fixed slice of one Philox stream, addressed by (key, row):
# row r of a draw of `stride` words per row reads the stream's words
# [r * stride, (r + 1) * stride).  A row's bits depend on its key and its
# index only, never on which rows are read with it or in what order.

_PHILOX_BLOCK = 4  # 64-bit words per Philox counter value


def random_uniforms(key: int, start: int = 0, rows: int = 1) -> np.ndarray:
    """Uniforms on [0, 1) of rows start .. start + rows - 1: row r is word r of the stream.

    A word's top 53 bits make its uniform.
    """
    if start < 0 or rows < 0:
        raise ValueError(f"start and rows must be non-negative, got {start} and {rows}")
    skip = start % _PHILOX_BLOCK
    # a bit generator per call: no state is shared between calls or threads
    bits = np.random.Philox(key=key, counter=start // _PHILOX_BLOCK)
    words = bits.random_raw(skip + rows)[skip:]
    return (words >> np.uint64(11)) * 2.0**-53


def random_stacks(model: DualModel, key: int, start: int = 0, rows: int = 1) -> Field:
    """Ginibre fields of rows start .. start + rows - 1, as a batch Field of shape (rows,).

    Row r reads the words [r * stride, (r + 1) * stride) of the stream keyed
    by ``key``, where stride is 2 sum d^2 rounded up to a Philox block.  Word
    pairs become standard normals by Box-Muller (u1 = 1 - U keeps the log
    finite), read in entry order: a block's d^2 real parts, then its d^2
    imaginary parts, each scaled by 1/sqrt(2) for unit E|z|^2.
    """
    sizes = [d * d for d in model.dims]
    width = 2 * sum(sizes)
    stride = -(-width // _PHILOX_BLOCK) * _PHILOX_BLOCK
    u = random_uniforms(key, start * stride, rows * stride).reshape(rows, stride)
    radius = np.sqrt(-np.log(1.0 - u[:, 0:width:2]))  # sqrt(-2 log u1) / sqrt(2)
    angle = (2.0 * np.pi) * u[:, 1:width:2]
    scaled = np.empty((rows, width))
    np.multiply(radius, np.cos(angle), out=scaled[:, 0::2])
    np.multiply(radius, np.sin(angle), out=scaled[:, 1::2])
    stacks, offset = [], 0
    for d, size in zip(model.dims, sizes):
        z = np.empty((rows, d, d), dtype=np.complex128)
        z.real = scaled[:, offset : offset + size].reshape(rows, d, d)
        z.imag = scaled[:, offset + size : offset + 2 * size].reshape(rows, d, d)
        stacks.append(z)
        offset += 2 * size
    return _trusted(model, stacks)


def field_adjoint(h: Field) -> Field:
    return h.map_blocks(matcore.adjoint)


def field_abs(h: Field) -> Field:
    return h.map_blocks(matcore.matabs)


def field_lincomb(alpha: complex, h1: Field, beta: complex, h2: Field) -> Field:
    _check_same_model(h1, h2)
    return _trusted(h1.model, [alpha * a + beta * b for a, b in zip(h1.blocks, h2.blocks)])


def field_product(h1: Field, h2: Field) -> Field:
    _check_same_model(h1, h2)
    return _trusted(h1.model, [a @ b for a, b in zip(h1.blocks, h2.blocks)])


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
        entries = tuple((e["label"], _json_number(e["dim"], int)) for e in data["entries"])
        return DualModel(str(data["name"]), entries)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed dual-model document: {exc}") from exc


def _json_number(x, kind=(int, float)):
    """``x`` if it is a JSON number of the given kind; a JSON true or false is not one."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise ValueError(f"{x!r} is not a JSON {'integer' if kind is int else 'number'}")
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
