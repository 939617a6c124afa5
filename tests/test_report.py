"""The report layer's batch paths against their one-row oracles.

A constructor given a list of case ids digests a batch check's rows from
each batch Field's memoized row hashes; the oracle is the same constructor
given one case id and row ``k`` of every input, built from ``h[k]`` views.
``reports_to_json`` fills a fixed template per report; the oracle is
``json.dumps(..., indent=2)``.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from digest_oracle import digest_inputs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualnorm.dualmodel import Field, parse_dual_arg, random_field, random_stacks
from dualnorm.report import (
    CheckReport,
    check_report,
    equality_report,
    inequality_report,
    reports_to_json,
)

ROWS = 4


def _row(x, k):
    """Row ``k`` of an input part, as a one-row check states it."""
    if isinstance(x, Field):
        return x[k] if x.batch else x
    if isinstance(x, (list, tuple)):
        return type(x)(_row(y, k) for y in x)
    return x[k] if np.ndim(x) else x


def _input_mixes(model):
    h1, h2 = random_stacks(model, 1, rows=ROWS), random_stacks(model, 2, rows=ROWS)
    single = random_field(model, 3)
    alpha = 0.5 + np.arange(ROWS) * 0.25
    signs = np.array([-0.0, 0.0, -0.0, 0.0])  # rows 0 and 1 differ only in the signs of zeros
    return {
        "batches": (h1, h2, 1.5, "sch"),
        "single_beside_batch": (h1, single, 2.0, "hs"),
        "lists_of_batches": ([h1, h2, single], [h2], 3.0, "sch"),
        "per_row_array": (h1, 2.0, "hs", alpha),
        "scalars": (1.5, "sch", [0.1, 0.5, 1.0], {"w": 3.0}),
        "signed_zeros": (signs * h1[[0] * ROWS], signs),
        "nothing": (),
    }


@pytest.mark.parametrize("dual", ["s3", "su2_trunc(4)", "custom(16,32)"])
@pytest.mark.parametrize("mix", list(_input_mixes(parse_dual_arg("s3"))))
def test_a_list_of_case_ids_matches_the_one_row_constructors(dual, mix):
    inputs = _input_mixes(parse_dual_arg(dual))[mix]
    ids = [f"c[{k:04d}]" for k in range(ROWS)]
    lhs = np.linspace(0.5, 2.0, ROWS)
    rhs = np.array([1.0, 1.0 + 1e-12, 0.75, 3.0])
    slack = np.array([-1e-11, 0.0, 0.5, -1.0])
    scale = np.array([2.0, -4.0, 0.5, 1e9])
    cases = [
        (inequality_report, dict()),
        (equality_report, dict(rel=1e-9, scale=scale)),
        (check_report, dict(slack=slack, scale=1.0)),
    ]
    for build, kw in cases:
        reports = build("s", ids, 2.0, lhs, rhs, inputs=inputs, anchor="a", **kw)
        for k, r in enumerate(reports):
            assert r.inputs_digest == digest_inputs(*_row(inputs, k))
            assert r == build("s", ids[k], 2.0, lhs[k], rhs[k], inputs=_row(inputs, k), anchor="a",
                              **{name: _row(v, k) for name, v in kw.items()})
    if mix == "signed_zeros":
        assert reports[0].inputs_digest == reports[2].inputs_digest != reports[1].inputs_digest


def test_a_batch_hashes_each_row_once_across_reports(monkeypatch):
    h = random_stacks(parse_dual_arg("su2_trunc(4)"), 5, rows=ROWS)
    made = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *data: made.append(data) or sha256(*data))
    ids = [f"c[{k:04d}]" for k in range(ROWS)]
    lhs = np.zeros(ROWS)
    first = inequality_report("s", ids, 2.0, lhs, 1.0, (h, 2.0), "a")
    second = equality_report("s", ids, 2.0, lhs, 0.0, ([h, h], "sch"), "a")
    # each row's blocks once, then one digest per report
    assert len(made) == ROWS + len(first) + len(second)
    monkeypatch.undo()
    want = [digest_inputs([h[k], h[k]], "sch") for k in range(ROWS)]
    assert [r.inputs_digest for r in second] == want


def test_row_of_a_batch_of_batches_raises():
    h = random_stacks(parse_dual_arg("s3"), 1, rows=6)
    deep = h.map_blocks(lambda b: b.reshape(2, 3, *b.shape[-2:]))
    with pytest.raises(ValueError, match="batch"):
        inequality_report("s", ["a", "b"], 2.0, np.zeros(2), 1.0, (deep,), "x")


def test_rows_that_do_not_match_the_case_ids_raise():
    h = random_stacks(parse_dual_arg("s3"), 1, rows=3)
    ids = ["a", "b", "c"]
    with pytest.raises(ValueError, match="batch"):  # a batch under one case id
        inequality_report("s", "a", 2.0, 0.0, 1.0, (h,), "x")
    with pytest.raises(ValueError, match="rows"):  # a batch of 3 rows for 2 ids
        inequality_report("s", ids[:2], 2.0, 0.0, 1.0, (h,), "x")
    with pytest.raises(ValueError, match="shape"):  # values of 3 rows for 2 ids
        inequality_report("s", ids[:2], 2.0, np.zeros(3), 1.0, (2.0,), "x")
    with pytest.raises(ValueError, match="shape"):  # a per-row input of 2 rows for 3 ids
        inequality_report("s", ids, 2.0, 0.0, 1.0, (h, np.ones(2)), "x")
    with pytest.raises(ValueError, match="shape"):
        check_report("s", ids, 2.0, 0.0, 1.0, np.zeros(4), (h,), "x")


# -- the JSON writer -----------------------------------------------------------

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
TEXTS = st.text() | st.sampled_from(["", "é€𝄞", '"', "\\", "\x00\x1f\n\t\x7f", 'a"b\\c'])
REPORTS = st.builds(
    CheckReport,
    suite=TEXTS,
    case_id=TEXTS,
    p=st.floats(min_value=1.0) | st.sampled_from([math.inf, 1.5]),
    lhs=FLOATS,
    rhs=FLOATS,
    slack=FLOATS,
    tol=FLOATS,
    passed=st.booleans(),
    inputs_digest=st.text("0123456789abcdef", min_size=16, max_size=16),
    anchor=TEXTS,
)


@settings(deadline=None, max_examples=300)
@given(st.lists(REPORTS, max_size=4))
@example([])
@example([CheckReport("s", "c", math.inf, *EDGE_FLOATS[:4], True, "0" * 16, "a"),
          CheckReport("é", '"\\\x01', 2.0, *EDGE_FLOATS[3:7], False, "f" * 16, " ")])
def test_reports_to_json_writes_the_bytes_of_json_dumps(reports):
    assert reports_to_json(reports) == json.dumps([r.as_dict() for r in reports], indent=2) + "\n"
