"""Outcome records for inequality/identity checks, and their serialization.

Every verification routine returns a :class:`CheckReport`.  The sign
convention is uniform: ``slack >= -tol`` means the check passed.  For an
inequality ``lhs <= rhs`` the slack is ``rhs - lhs``; for an equality
``lhs = rhs`` the slack is ``-(|lhs - rhs|)``, so the same predicate covers
both.

Reports serialize to JSON (stable key order) and RFC-4180 CSV; parsing the
JSON back yields equal reports.  The constructors derive each report's
tolerance and input digest here, so a check states only its ``lhs``, ``rhs``,
anchor and inputs; a field is digested as its model, its dims and a hash of its
block bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
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
    "row_reports",
    "canonical_json",
    "digest_inputs",
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
        d = {}
        for name in _FIELDS:
            value = getattr(self, name)
            if name == "p" and math.isinf(value):
                value = "inf"
            d[name] = value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        p = d["p"]
        p = math.inf if p == "inf" else float(p)
        return cls(
            suite=str(d["suite"]),
            case_id=str(d["case_id"]),
            p=p,
            lhs=float(d["lhs"]),
            rhs=float(d["rhs"]),
            slack=float(d["slack"]),
            tol=float(d["tol"]),
            passed=bool(d["passed"]),
            inputs_digest=str(d["inputs_digest"]),
            anchor=str(d["anchor"]),
        )


_FIELDS = tuple(f.name for f in fields(CheckReport))


def tolerance(scale, rel=TOL_REL) -> float:
    """Absolute tolerance ``rel * max(1, |scale|)`` of a check whose values have size ``scale``."""
    return rel * max(1.0, abs(scale))


def check_report(
    suite, case_id, p, lhs, rhs, slack, inputs, anchor, rel=TOL_REL, scale=None
) -> CheckReport:
    """Report with an explicit slack; ``passed`` is exactly ``slack >= -tol``.

    ``tol`` is ``tolerance(scale, rel)``, where ``scale`` defaults to ``rhs``,
    and ``inputs_digest`` is ``digest_inputs(*inputs)``.
    """
    tol = tolerance(rhs if scale is None else scale, rel)
    return CheckReport(
        suite=suite,
        case_id=case_id,
        p=float(p),
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        tol=float(tol),
        passed=bool(slack >= -tol),
        inputs_digest=digest_inputs(*inputs),
        anchor=anchor,
    )


def inequality_report(
    suite, case_id, p, lhs, rhs, inputs, anchor, *, rel=TOL_REL, scale=None
) -> CheckReport:
    """Report for an assertion lhs <= rhs (slack = rhs - lhs)."""
    return check_report(suite, case_id, p, lhs, rhs, rhs - lhs, inputs, anchor, rel, scale)


def equality_report(
    suite, case_id, p, lhs, rhs, inputs, anchor, *, rel=TOL_REL, scale=None
) -> CheckReport:
    """Report for an assertion lhs = rhs (slack = -|lhs - rhs|)."""
    return check_report(suite, case_id, p, lhs, rhs, -abs(rhs - lhs), inputs, anchor, rel, scale)


def row_reports(build, suite, case_ids, p, lhs, rhs, inputs, anchor, **kw) -> list[CheckReport]:
    """``build``'s report (one of the constructors above) for each row of a batch check.

    Row i is case ``case_ids[i]``: it takes element i of ``lhs``, ``rhs`` and
    of each array keyword (``slack``, ``scale``), and row i of each batch
    Field in ``inputs``, lists of fields included.  Scalars and single
    fields serve every row, so a check on single fields is one row.
    """

    if len(case_ids) == 1 and np.ndim(lhs) == 0:  # one check on single fields
        return [build(suite, case_ids[0], p, lhs, rhs, inputs=inputs, anchor=anchor, **kw)]

    def row(x, i):
        if isinstance(x, Field):
            return x[i] if x.batch else x
        if isinstance(x, (list, tuple)):
            return type(x)(row(y, i) for y in x)
        return x[i] if np.ndim(x) else x

    return [
        build(suite, case_id, p, row(lhs, i), row(rhs, i), inputs=row(inputs, i), anchor=anchor,
              **{name: row(value, i) for name, value in kw.items()})
        for i, case_id in enumerate(case_ids)
    ]


def _encode(obj):
    if isinstance(obj, Field):
        if obj.batch:
            raise ValueError(f"cannot digest a batch of fields (batch shape {obj.batch})")
        h = hashlib.sha256()
        for b in obj.blocks:
            h.update(np.ascontiguousarray(b, dtype="<c16").tobytes())
        return {"model": obj.model.name, "dims": list(obj.model.dims),
                "blocks_sha256": h.hexdigest()}
    raise TypeError(f"cannot digest an object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Sorted-key JSON without spaces; a Field becomes its model, dims and block hash."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode)


def digest_inputs(*parts) -> str:
    """Short deterministic digest of the (serialized) inputs of a check.

    Parts are JSON values, :class:`Field` objects (their model, dims and the
    sha256 of their little-endian complex128 block bytes) or lists of them.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(canonical_json(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def reports_to_json(reports) -> str:
    rows = [r.as_dict() for r in reports]
    return json.dumps(rows, indent=2, sort_keys=False) + "\n"


def reports_from_json(text: str) -> list[CheckReport]:
    return [CheckReport.from_dict(d) for d in json.loads(text)]


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(_FIELDS)
    for r in reports:
        d = r.as_dict()
        writer.writerow([d[name] for name in _FIELDS])
    return buf.getvalue()
