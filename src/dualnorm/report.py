"""Outcome records for inequality/identity checks, and their serialization.

Every verification routine returns a :class:`CheckReport`.  The sign
convention is uniform: ``slack >= -tol`` means the check passed.  For an
inequality ``lhs <= rhs`` the slack is ``rhs - lhs``; for an equality
``lhs = rhs`` the slack is ``-(|lhs - rhs|)``, so the same predicate covers
both.

Reports serialize to JSON (stable key order) and RFC-4180 CSV; parsing the
JSON back, each field by its type, yields equal reports.  The constructors
derive each report's tolerance and input digest here, so a check states only
its ``lhs``, ``rhs``, anchor and inputs.  The digest of the inputs is the
sha256, cut to 16 hex digits, of each part's sorted-key JSON without spaces,
each followed by a NUL byte; a field is written as the document of its model,
its dims and the sha256 of its little-endian complex128 block bytes.

A float for a field, an array for a batch: a constructor given one case id
returns one report, and given a list of n case ids returns one report per
row of a batch check.  ``check_report``'s encoder is the package's one
encoder, and it digests both: it encodes each shared input once and takes
each batch row's block hash from the Field's memo (``Field.block_sha256``),
so every report of the chunk that names the row shares it.
``tests/digest_oracle.py`` is a separate encoder of the same document, the
oracle that tests hold this one to.  JSON is written from a fixed
per-report template with the bytes ``json.dumps(..., indent=2)`` would
write.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import typing
from dataclasses import dataclass, fields

import numpy as np

from .dualmodel import Field

__all__ = [
    "TOL_REL",
    "CheckReport",
    "tolerance",
    "check_report",
    "inequality_report",
    "equality_report",
    "reports_to_json",
    "reports_from_json",
    "reports_to_csv",
]

# Default relative tolerance: inequalities are exact in exact arithmetic,
# slack only has to absorb binary64 rounding.
TOL_REL = 1e-10


@dataclass(frozen=True)
class CheckReport:
    suite: str
    case_id: str
    p: float
    lhs: float
    rhs: float
    slack: float
    tol: float
    passed: bool
    inputs_digest: str
    anchor: str

    def as_dict(self) -> dict:
        d = {name: getattr(self, name) for name in _FIELDS}
        if math.isinf(self.p):
            d["p"] = "inf"
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        """Each field converted by its type: ``float("inf")`` reads the p ``"inf"``."""
        return cls(**{name: _TYPES[name](d[name]) for name in _FIELDS})


_FIELDS = tuple(f.name for f in fields(CheckReport))
_TYPES = typing.get_type_hints(CheckReport)


def tolerance(scale, rel=TOL_REL) -> float:
    """Absolute tolerance ``rel * max(1, |scale|)`` of a check whose values have size ``scale``."""
    return rel * max(1.0, abs(scale))


def check_report(
    suite, case_id, p, lhs, rhs, slack, inputs, anchor, rel=TOL_REL, scale=None
) -> CheckReport | list[CheckReport]:
    """Report with an explicit slack; ``passed`` is exactly ``slack >= -tol``.

    ``tol`` is ``tolerance(scale, rel)``, where ``scale`` defaults to ``rhs``,
    and ``inputs_digest`` is the digest of ``inputs`` (module docstring).

    One case id gives one report.  A list of n case ids gives a list of n
    reports, one per row of a batch check: row i takes element i of each
    array among ``lhs``, ``rhs``, ``slack`` and ``scale``, and row i of each
    batch Field in ``inputs``, lists of fields included.  Scalars and single
    fields serve every row.  Each row's digest is the digest of its inputs,
    with every shared part encoded once and every batch row hashed once per
    Field.  One case id takes no batch.
    """
    one = isinstance(case_id, str)
    ids = [case_id] if one else case_id
    n = len(ids)
    parts = [_row_texts(x, None if one else n) for x in inputs]
    digests = [_digest(_at(t, i) for t in parts) for i in range(n)]
    tols = [tolerance(x, rel) for x in _rows(rhs if scale is None else scale, n)]
    reports = [
        CheckReport(
            suite=suite,
            case_id=id_,
            p=float(p),
            lhs=float(lhs_i),
            rhs=float(rhs_i),
            slack=float(slack_i),
            tol=float(tol),
            passed=bool(slack_i >= -tol),
            inputs_digest=digest,
            anchor=anchor,
        )
        for id_, lhs_i, rhs_i, slack_i, tol, digest
        in zip(ids, _rows(lhs, n), _rows(rhs, n), _rows(slack, n), tols, digests)
    ]
    return reports[0] if one else reports


def inequality_report(
    suite, case_id, p, lhs, rhs, inputs, anchor, *, rel=TOL_REL, scale=None
) -> CheckReport | list[CheckReport]:
    """Report for an assertion lhs <= rhs (slack = rhs - lhs)."""
    return check_report(suite, case_id, p, lhs, rhs, rhs - lhs, inputs, anchor, rel, scale)


def equality_report(
    suite, case_id, p, lhs, rhs, inputs, anchor, *, rel=TOL_REL, scale=None
) -> CheckReport | list[CheckReport]:
    """Report for an assertion lhs = rhs (slack = -|lhs - rhs|)."""
    return check_report(suite, case_id, p, lhs, rhs, -abs(rhs - lhs), inputs, anchor, rel, scale)


def _rows(x, n) -> list:
    """Element i of an array ``x`` for each row i < n, as Python numbers; a scalar serves all."""
    if not np.ndim(x):
        return [x] * n
    if np.shape(x) != (n,):
        raise ValueError(f"an array of shape {np.shape(x)} for {n} case id(s)")
    return np.asarray(x).tolist()


# A part's sorted-key JSON without spaces, for every part but a Field
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _row_texts(x, n):
    """The JSON text of row i < n of input part ``x``, one text if shared (n None: one case id)."""
    if isinstance(x, Field):
        if x.batch not in ((), (n,)):
            ids = "one" if n is None else n
            raise ValueError(f"a batch Field of {x.batch} rows for {ids} case id(s)")
        # a Field's document, keys sorted: blocks_sha256 comes first
        tail = _compact({"dims": list(x.model.dims), "model": x.model.name})[1:]
        texts = [f'{{"blocks_sha256":"{sha}",{tail}' for sha in x.block_sha256]
        return texts if x.batch else texts[0]
    if isinstance(x, (list, tuple)):
        items = [_row_texts(y, n) for y in x]
        if all(isinstance(t, str) for t in items):
            return "[" + ",".join(items) + "]"
        return ["[" + ",".join(_at(t, i) for t in items) + "]" for i in range(n)]
    if n is not None and np.ndim(x):
        return [_compact(v) for v in _rows(x, n)]
    return _compact(x)


def _at(texts, i):
    """Row i's text of a part: its one shared text, or element i of its per-row texts."""
    return texts if isinstance(texts, str) else texts[i]


def _digest(texts) -> str:
    """The sha256 of the texts, each followed by a NUL byte, cut to 16 hex digits."""
    return hashlib.sha256("".join(t + "\x00" for t in texts).encode("utf-8")).hexdigest()[:16]


# One report of the JSON array: the bytes json.dumps(..., indent=2) writes for it.
_JSON_ROW = "  {\n" + ",\n".join(f'    "{name}": %s' for name in _FIELDS) + "\n  }"
_JSON_BOOL = {True: "true", False: "false"}
_json_str = json.encoder.encode_basestring_ascii


def _json_float(x) -> str:
    """A float as json.dumps writes it: its repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def reports_to_json(reports) -> str:
    """``json.dumps([r.as_dict() for r in reports], indent=2) + "\\n"``, filled in per report."""
    rows = [
        _JSON_ROW % (
            _json_str(r.suite), _json_str(r.case_id),
            '"inf"' if math.isinf(r.p) else _json_float(r.p),
            _json_float(r.lhs), _json_float(r.rhs), _json_float(r.slack), _json_float(r.tol),
            _JSON_BOOL[r.passed], _json_str(r.inputs_digest), _json_str(r.anchor),
        )
        for r in reports
    ]
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def reports_from_json(text: str) -> list[CheckReport]:
    return [CheckReport.from_dict(d) for d in json.loads(text)]


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(_FIELDS)
    for r in reports:
        writer.writerow(r.as_dict().values())
    return buf.getvalue()
