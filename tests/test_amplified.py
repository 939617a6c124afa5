"""The batched suites against the amplified-matrix oracle.

``amplified`` restates each norm family at a fixed p as the Schatten p-norm
of one big matrix, linear in the field, the pairing as the plain trace of a
product and every power through eigh; it shares no code with the package.
Here the lhs and rhs of every report of the nine batched suites are computed
again from the case that the per-field walk (``test_batched_suites.ORACLES``)
yields for it: ``KINDS`` restates each kind of case from the case's fields,
exponent, family and other arguments alone, and also the slack of the two
kinds whose slack is not a difference of their sides.  Each fault of
``test_fault_injection`` moves some report away from the oracle.  The moduli
suite's pairs (``inequalities._moduli_pairs``) are held to pairs rebuilt from
the same draws, one pair at a time; their reduction to estimates is tested
once, in ``test_inequalities``.
"""

import functools
import itertools
import math

from types import SimpleNamespace

import amplified as amp
import numpy as np
import pytest
from test_batched_suites import BATCHED, ORACLES, WALK_P, config
from test_fault_injection import FAULTS, _bind_everywhere

from dualnorm import inequalities
from dualnorm.cli import run_suite
from dualnorm.dualmodel import Field, mix_seed, parse_dual_arg, random_stacks, random_uniforms
from dualnorm.interpolation import DEFAULT_T_GRID
from dualnorm.norms import _finite_interior

DUALS = ["s3", "su2_trunc(4)", "custom(3,5)"]
SEED = 17
REL = 1e-12  # relative to the oracle's value, and absolute below 1
INF = math.inf


def conj(p):
    return INF if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


def lp(values, r):
    return max(values) if math.isinf(r) else sum(v**r for v in values) ** (1.0 / r)


def mean(a, b, r):
    return ((a**r + b**r) / 2.0) ** (1.0 / r)


def embedding(c):
    sch, hs = (amp.norm(c.fields[0], c.p, family) for family in ("sch", "hs"))
    return (sch, hs) if c.p <= 2 else (hs, sch)


def triangle(c):
    e1, e2 = (amp.embed(h, c.p, c.family) for h in c.fields)
    return amp.schatten(e1 + e2, c.p), amp.schatten(e1, c.p) + amp.schatten(e2, c.p)


def homogeneity(c):
    e, alpha = amp.embed(c.fields[0], c.p, c.family), c.extra["alpha"]
    return amp.schatten(alpha * e, c.p), alpha * amp.schatten(e, c.p)


def holder(c):
    (m1, m2), a, b = map(amp.amplify, c.fields), c.extra["a"], c.extra["b"]
    inv_r = 1.0 / a + 1.0 / b
    r = INF if inv_r == 0.0 else max(1.0, 1.0 / inv_r)
    return amp.schatten(m1 @ m2, r), amp.schatten(m1, a) * amp.schatten(m2, b)


def adjoint(c):
    h = c.fields[0]
    adjoint = Field(h.model, tuple(b.conj().T for b in h.blocks))
    modulus = Field(h.model, tuple(amp.psd_power(b.conj().T @ b, 0.5) for b in h.blocks))
    values = [amp.norm(x, c.p, c.family) for x in (h, adjoint, modulus)]
    return max(values), min(values)


def clarkson(c):
    p = c.p
    e, f = (conj(p), p) if p <= 2.0 else (p, conj(p))
    m1, m2 = (amp.embed(h, p, c.family) for h in c.fields)
    mids = amp.schatten(0.5 * (m1 + m2), p), amp.schatten(0.5 * (m1 - m2), p)
    return lp(mids, e), mean(amp.schatten(m1, p), amp.schatten(m2, p), f)


def two_point_norms(fields, p, family):
    """||H1||_p, ||H2||_p and the p-mean of ||H1 + H2||_p and ||H1 - H2||_p."""
    m1, m2 = (amp.embed(h, p, family) for h in fields)
    plus, minus = amp.schatten(m1 + m2, p), amp.schatten(m1 - m2, p)
    return amp.schatten(m1, p), amp.schatten(m2, p), mean(plus, minus, p)


def two_point(c):
    (n1, n2, mean_p), p = two_point_norms(c.fields, c.p, c.family), c.p
    if p >= 2.0:
        return mean_p, math.sqrt(n1**2 + (2 * p - 1) * n2**2)
    return math.sqrt(n1**2 + (p - 1) / (p + 1) * n2**2), mean_p


def parallelogram(c):
    n1, n2, mean_p = two_point_norms(c.fields, c.p, c.family)
    return mean_p, math.hypot(n1, n2)


def critical_aggregate(c):  # the case's fields are every trial's pair
    crits = [(m**2 - n1**2) / n2**2
             for n1, n2, m in (two_point_norms(pair, c.p, c.family) for pair in c.fields)]
    return (max(crits), 2 * c.p - 1) if c.p >= 2.0 else ((c.p - 1) / (c.p + 1), min(crits))


def sign_average(matrices, p):
    """(mean over the sign patterns of ||sum theta_j M_j||_p^2)^(1/2), theta_0 = +1."""
    first, rest = matrices[0], matrices[1:]
    squares = [
        amp.schatten(first + sum(s * m for s, m in zip(signs, rest)), p) ** 2
        for signs in itertools.product((1.0, -1.0), repeat=len(rest))
    ]
    return math.sqrt(sum(squares) / len(squares))


def type_cotype_norms(c):
    """The summands' sign average, the l2 and the list of their norms."""
    ms = [amp.embed(h, c.p, c.family) for h in c.fields]
    norms = [amp.schatten(m, c.p) for m in ms]
    return sign_average(ms, c.p), lp(norms, 2.0), norms


def type_cotype(c):
    (avg, l2, norms), p = type_cotype_norms(c), c.p
    if p <= 2.0:
        lower, upper = math.sqrt((p - 1) / (p + 1)) * l2, lp(norms, p)
    else:
        lower, upper = lp(norms, p), math.sqrt(2 * p - 1) * l2
    return lower, upper, min(avg - lower, upper - avg)


def extremizer_pairing(c):
    m = amp.amplify(c.fields[0])
    return abs(amp.pairing(m, amp.extremizer(m, c.p))), amp.schatten(m, c.p)


def search_bound(c):
    m, q = amp.amplify(c.fields[0]), conj(c.p)
    probes = [amp.amplify(c.extra["probes"][j]) for j in range(5)]
    return max(abs(amp.pairing(m, u)) / amp.schatten(u, q) for u in probes), amp.schatten(m, c.p)


def direct_sum(c):
    (m, other), p, r, w = map(amp.amplify, c.fields), c.p, c.extra["spec"].r, c.extra["spec"].w
    s, q = conj(r), conj(p)
    f, f_other = amp.extremizer(m, p), amp.extremizer(other, p)
    lhs = abs(amp.pairing(m, f) + w ** (1 / r - 1 / s) * amp.pairing(other, f_other))
    f_side = amp.schatten(f, q) ** s + amp.schatten(f_other, q) ** s / w
    h_side = amp.schatten(m, p) ** r + w * amp.schatten(other, p) ** r
    return lhs, f_side ** (1 / s) * h_side ** (1 / r)


EDGES = [1j * t for t in DEFAULT_T_GRID] + [1.0 + 1j * t for t in DEFAULT_T_GRID]


def strip(x, p, p0, p1):
    """The witness of field x at p on the edges of the strip of endpoints p0 and p1."""
    m = amp.amplify(x)
    return [amp.witness(m, p, p * ((1 - z) / p0 + z / p1) - 1) for z in EDGES]


def line_norms(c):
    """The norms of h's witness on the strip's edges, each at its line's exponent."""
    p0, p1 = float(c.extra["spec"].p0), float(c.extra["spec"].p1)
    lines = strip(c.fields[0], c.p, p0, p1)
    return [amp.schatten(f, p0 if z.real == 0 else p1) for f, z in zip(lines, EDGES)]


def three_lines(c):
    (h, g), spec, p, q = c.fields, c.extra["spec"], c.p, conj(c.p)
    p0, p1 = float(spec.p0), float(spec.p1)
    pairs = zip(strip(h, p, p0, p1), strip(g, q, conj(p0), conj(p1)))
    boundary = max(abs(amp.pairing(f, g_at)) for f, g_at in pairs)
    m, n = amp.amplify(h), amp.amplify(g)
    center = abs(amp.pairing(m / amp.schatten(m, p), n / amp.schatten(n, q)))
    return max(boundary, center), 1.0


def consistency(c):
    m, norms = amp.amplify(c.fields[0]), line_norms(c)
    norm = amp.schatten(m, c.p)
    upper = norm * max(norms)
    saturation = abs(amp.pairing(m / norm, amp.extremizer(m, c.p)))
    return norm, upper, min(upper - norm, saturation - 1)


def gap(c):
    p = c.p
    e, f = (conj(p), p) if p <= 2.0 else (p, conj(p))
    h, d = map(amp.amplify, c.fields)
    hn = h + (1.0 / c.extra["n"]) * d
    m = mean(amp.schatten(hn, p), amp.schatten(h, p), f)
    diff, mid = amp.schatten(0.5 * (hn - h), p), amp.schatten(0.5 * (hn + h), p)
    return (diff / m) ** e, 1 - (mid / m) ** e


def sum_bound(c):
    base, p, q = amp.amplify(c.fields[0]), c.p, conj(c.p)
    norms = [amp.schatten(2.0**-j / amp.schatten(base, p) * base, p) for j in range(5)]
    ratio = (p - 1) / (p + 1)
    if p <= 2.0:
        bounds, constant = [max((v / 2) ** q / q, ratio * v**2 / 8) for v in norms], 2 / ratio
    else:
        bounds, constant = [(v / 2) ** p / p for v in norms], p
    return sum((v / 2) ** max(2.0, p) for v in norms), constant * sum(bounds)


KINDS = {  # kind -> the case's lhs, rhs and, where it is not their difference, slack
    "embedding": embedding, "triangle": triangle, "homogeneity": homogeneity,
    "p2_coincidence": lambda c: tuple(amp.norm(c.fields[0], 2.0, f) for f in ("sch", "hs")),
    "holder": holder, "adjoint": adjoint, "clarkson": clarkson, "two_point": two_point,
    "parallelogram": parallelogram, "critical_aggregate": critical_aggregate,
    "type_cotype": type_cotype, "hilbert_equality": lambda c: type_cotype_norms(c)[:2],
    "extremizer_unit": lambda c: (
        amp.schatten(amp.extremizer(amp.amplify(c.fields[0]), c.p), conj(c.p)), 1.0
    ),
    "extremizer_pairing": extremizer_pairing, "search_bound": search_bound,
    "direct_sum": direct_sum,
    "boundary_norms": lambda c: (max(line_norms(c), key=lambda v: abs(v - 1)), 1.0),
    "three_lines": three_lines, "consistency": consistency, "gap": gap, "sum_bound": sum_bound,
}


@functools.cache
def oracle_values(suite, dual):
    """Case id -> the oracle's lhs, rhs and, where it states one, slack."""
    cases = ORACLES[suite](config(suite, dual, p_list=WALK_P))
    return {c.report.case_id: KINDS[c.kind](c) for c in cases}


def straying(suite, dual):
    """The case ids of the suite's reports whose values stray from the oracle's."""
    got = {r.case_id: r for r in run_suite(config(suite, dual, p_list=WALK_P))}
    want = oracle_values(suite, dual)
    assert sorted(got) == sorted(want)
    out = []
    for case_id, (lhs, rhs, *slack) in want.items():
        r = got[case_id]
        scale = max(1.0, abs(lhs), abs(rhs))
        pairs = [(r.lhs, lhs, max(1.0, abs(lhs))), (r.rhs, rhs, max(1.0, abs(rhs)))]
        pairs += [(r.slack, s, scale) for s in slack]
        if any(not abs(a - b) <= REL * bound for a, b, bound in pairs):
            out.append(case_id)
    return out


@pytest.mark.parametrize("suite", BATCHED)
@pytest.mark.parametrize("dual", DUALS)
def test_every_report_matches_the_amplified_oracle(dual, suite):
    assert straying(suite, dual) == []


def test_the_amplified_table_restates_each_kind_of_case_the_walk_yields():
    # on s3 at every exponent of WALK_P, the walk yields every kind at least once
    cfgs = [config(suite, "s3", p_list=WALK_P) for suite in BATCHED]
    assert {c.kind for cfg in cfgs for c in ORACLES[cfg.suite](cfg)} == set(KINDS)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_the_amplified_oracle_catches_each_fault(monkeypatch, fault):
    _bind_everywhere(monkeypatch, *FAULTS[fault])
    assert any(straying(suite, "s3") for suite in BATCHED)


# The moduli pass, pair by pair: pair k is the unit row k of stream a and its
# mix with the unit row k + 1 at row k's angle (inequalities._draws).
MODULI_P = (1.5, 2.0, 3.0)
MODULI_PAIRS = 110
MODULI_T_GRID = (0.1, 0.5, 1.0)


def oracle_moduli(model, p, family, n, seed):
    """Each pair's quotient per t (one row per t), separation and gap, as lists."""

    def norm(blocks):
        return amp.norm(SimpleNamespace(model=model, blocks=blocks), p, family)

    def lin(x, y, s, t):  # s x + t y, blockwise
        return [s * a + t * b for a, b in zip(x, y)]

    def unit(x):
        size = norm(x)
        return [b / size for b in x]

    a = random_stacks(model, mix_seed(seed, "a"), 0, n + 1).blocks
    angles = math.pi * random_uniforms(mix_seed(seed, "t"), 0, n)
    units = [unit([b[k] for b in a]) for k in range(n + 1)]
    quotients, separations, gaps = [[] for _ in MODULI_T_GRID], [], []
    for k, t in enumerate(angles):
        h1, g = units[k], units[k + 1]
        mixed = lin(h1, g, math.cos(t), math.sin(t))
        h2 = g if norm(mixed) == 0.0 else unit(mixed)
        separations.append(norm(lin(h1, h2, 1.0, -1.0)))
        gaps.append(1.0 - norm(lin(h1, h2, 0.5, 0.5)))
        for row, s in zip(quotients, MODULI_T_GRID):
            row.append((norm(lin(h1, h2, 1.0, s)) + norm(lin(h1, h2, 1.0, -s))) / 2.0 - 1.0)
    return quotients, separations, gaps


def close(got, want):
    # a quotient or gap is a norm near 1 minus 1, so its rounding error is absolute
    return abs(got - want) <= REL * max(1.0, abs(want))


@pytest.mark.parametrize("dual", DUALS)
def test_moduli_samplers_match_the_pairs_of_the_amplified_oracle(dual):
    model = parse_dual_arg(dual)
    for p, family in itertools.product(MODULI_P, ("sch", "hs")):
        chunks = inequalities._moduli_pairs(model, _finite_interior(p), family, True,
                                            list(MODULI_T_GRID), MODULI_PAIRS, SEED)
        got = [np.concatenate(part, axis=-1) for part in zip(*chunks)]
        want = oracle_moduli(model, p, family, MODULI_PAIRS, SEED)
        for name, values, oracle in zip(("quotients", "separations", "gaps"), got, want):
            assert values.shape == np.shape(oracle), name
            assert all(map(close, values.flat, np.ravel(oracle))), (p, family, name)
