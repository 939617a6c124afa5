"""An independent encoder of the digest that names each report's inputs.

``report.check_report`` writes each input part's JSON text itself, row by row
of a batch, with every shared part encoded once.  This module encodes the
same document the plain way, one ``json.dumps`` per part with a default hook
for a Field, and shares no code with that encoder (it keeps its own
``_digest``), so tests hold every report's ``inputs_digest`` to
``digest_inputs`` of the inputs that made it.
"""

import hashlib
import json

from dualnorm.dualmodel import Field


def _encode(obj):
    if isinstance(obj, Field):
        if obj.batch:
            raise ValueError(f"cannot digest a batch of fields (batch shape {obj.batch})")
        return {"model": obj.model.name, "dims": list(obj.model.dims),
                "blocks_sha256": obj.block_sha256[0]}
    raise TypeError(f"cannot digest an object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Sorted-key JSON without spaces; a Field becomes its model, dims and block hash."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode)


def digest_inputs(*parts) -> str:
    """Short deterministic digest of the (serialized) inputs of a check.

    Parts are JSON values, :class:`Field` objects (their model, dims and the
    sha256 of their little-endian complex128 block bytes) or lists of them.
    """
    return _digest(map(canonical_json, parts))


def _digest(texts) -> str:
    """The sha256 of the texts, each followed by a NUL byte, cut to 16 hex digits."""
    return hashlib.sha256("".join(t + "\x00" for t in texts).encode("utf-8")).hexdigest()[:16]
