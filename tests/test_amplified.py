"""The batched suites against the amplified-matrix oracle.

``amplified`` restates each norm family at a fixed p as the Schatten p-norm
of one big matrix, linear in the field, the pairing as the plain trace of a
product and every power through eigh; it shares no code with the package.
Here the lhs and rhs of every report of the nine batched suites are computed
again from the fields that each trial draws (``test_batched_suites.row``),
and so is the slack of the two checks whose slack is not a difference of
their sides.  Each fault of ``test_fault_injection`` moves some report away
from the oracle.  The moduli suite's pairs (``inequalities._moduli_pairs``)
are held to pairs rebuilt from the same draws, one pair at a time; their
reduction to estimates is tested once, in ``test_inequalities``.
"""

import functools
import itertools
import math

from types import SimpleNamespace

import amplified as amp
import numpy as np
import pytest
from test_batched_suites import BATCHED, row
from test_fault_injection import FAULTS, _bind_everywhere

from dualnorm import inequalities
from dualnorm.cli import SuiteConfig, _interp_spec_for, run_suite
from dualnorm.dualmodel import Field, mix_seed, parse_dual_arg, random_stacks, random_uniforms
from dualnorm.interpolation import DEFAULT_T_GRID
from dualnorm.norms import _finite_interior

DUALS = ["s3", "su2_trunc(4)", "custom(3,5)"]
P_LIST = (1.0, 1.5, 2.0, 3.0, math.inf)
TRIALS = 3
SEED = 17
REL = 1e-12  # relative to the oracle's value, and absolute below 1
INF = math.inf


def config(suite, dual):
    return SuiteConfig(
        suite=suite, dual=parse_dual_arg(dual), p_list=P_LIST, family="both",
        trials=TRIALS, seed=SEED,
    )


def conj(p):
    return INF if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


def lp(values, r):
    return max(values) if math.isinf(r) else sum(v**r for v in values) ** (1.0 / r)


def mean(a, b, r):
    return ((a**r + b**r) / 2.0) ** (1.0 / r)


def interior(cfg):
    return [p for p in cfg.p_list if 1.0 < p < INF]


def blockwise(h, fn):
    return Field(h.model, tuple(fn(b) for b in h.blocks))


# Each oracle yields (case id, lhs, rhs) per report, and the slack after them
# where it is not a difference of the two sides.


def oracle_norms(cfg):
    for p in cfg.p_list:
        for k in range(cfg.trials):
            h1, h2 = row(cfg, k, "a"), row(cfg, k, "b")
            sch, hs = amp.norm(h1, p, "sch"), amp.norm(h1, p, "hs")
            yield (f"embedding[p={p}][{k:04d}]", *((sch, hs) if p <= 2 else (hs, sch)))
            alpha = 0.5 + ((k % 7) + 1) * 0.25
            for family in cfg.families:
                e1, e2 = amp.embed(h1, p, family), amp.embed(h2, p, family)
                n1, n2 = amp.schatten(e1, p), amp.schatten(e2, p)
                yield f"triangle.{family}[p={p}][{k:04d}]", amp.schatten(e1 + e2, p), n1 + n2
                scaled = amp.schatten(alpha * e1, p)
                yield f"homogeneity.{family}[p={p}][{k:04d}]", scaled, alpha * n1
    for k in range(cfg.trials):
        h = row(cfg, k, "a")
        yield f"p2_coincidence[{k:04d}]", amp.norm(h, 2.0, "sch"), amp.norm(h, 2.0, "hs")


def oracle_holder(cfg):
    for p in cfg.p_list:
        for k in range(cfg.trials):
            m1, m2 = amp.amplify(row(cfg, k, "a")), amp.amplify(row(cfg, k, "b"))
            cases = [
                (p, conj(p), f"conjugate[p={p}][{k:04d}]"),
                (INF, INF, f"inf_both[{k:04d}][p={p}]"),
            ]
            if not math.isinf(p):
                cases.append((INF, p, f"inf_left[r={p}][{k:04d}]"))
            for a, b, case_id in cases:
                inv_r = 1.0 / a + 1.0 / b
                r = INF if inv_r == 0.0 else max(1.0, 1.0 / inv_r)
                yield case_id, amp.schatten(m1 @ m2, r), amp.schatten(m1, a) * amp.schatten(m2, b)


def oracle_adjoint(cfg):
    for p in cfg.p_list:
        for family in cfg.families:
            for k in range(cfg.trials):
                h = row(cfg, k, "a")
                adjoint = blockwise(h, lambda b: b.conj().T)
                modulus = blockwise(h, lambda b: amp.psd_power(b.conj().T @ b, 0.5))
                values = [amp.norm(x, p, family) for x in (h, adjoint, modulus)]
                yield f"{family}[p={p}][{k:04d}]", max(values), min(values)


def oracle_clarkson(cfg):
    for p in interior(cfg):
        e, f = (conj(p), p) if p <= 2.0 else (p, conj(p))
        for k in range(cfg.trials):
            h1, h2 = row(cfg, k, "a"), row(cfg, k, "b")
            for family in cfg.families:
                m1, m2 = amp.embed(h1, p, family), amp.embed(h2, p, family)
                mids = amp.schatten(0.5 * (m1 + m2), p), amp.schatten(0.5 * (m1 - m2), p)
                rhs = mean(amp.schatten(m1, p), amp.schatten(m2, p), f)
                yield f"{family}[p={p}][{k:04d}]", lp(mids, e), rhs


def oracle_two_point(cfg):
    for p in interior(cfg):
        for family in cfg.families:
            crits = []
            for k in range(cfg.trials):
                m1, m2 = (amp.embed(row(cfg, k, role), p, family) for role in "ab")
                n1, n2 = amp.schatten(m1, p), amp.schatten(m2, p)
                plus, minus = amp.schatten(m1 + m2, p), amp.schatten(m1 - m2, p)
                mean_p = mean(plus, minus, p)
                if p >= 2.0:
                    upper = math.sqrt(n1**2 + (2 * p - 1) * n2**2)
                    yield f"{family}[p={p}][{k:04d}]", mean_p, upper
                else:
                    lower = math.sqrt(n1**2 + (p - 1) / (p + 1) * n2**2)
                    yield f"{family}[p={p}][{k:04d}]", lower, mean_p
                crits.append((mean_p**2 - n1**2) / n2**2)
                if p == 2.0:
                    yield f"parallelogram.{family}[{k:04d}]", mean_p, math.hypot(n1, n2)
            if p >= 2.0:
                yield f"critical_aggregate.{family}[p={p}]", max(crits), 2 * p - 1
            else:
                yield f"critical_aggregate.{family}[p={p}]", (p - 1) / (p + 1), min(crits)


def sign_average(matrices, p):
    """(mean over the sign patterns of ||sum theta_j M_j||_p^2)^(1/2), theta_0 = +1."""
    first, rest = matrices[0], matrices[1:]
    squares = [
        amp.schatten(first + sum(s * m for s, m in zip(signs, rest)), p) ** 2
        for signs in itertools.product((1.0, -1.0), repeat=len(rest))
    ]
    return math.sqrt(sum(squares) / len(squares))


def oracle_type_cotype(cfg):
    for p in interior(cfg):
        for family in cfg.families:
            for k in range(cfg.trials):
                ms = [amp.embed(row(cfg, k, j), p, family) for j in range(5)]
                norms = [amp.schatten(m, p) for m in ms]
                l2, avg = lp(norms, 2.0), sign_average(ms, p)
                if p <= 2.0:
                    lower, upper = math.sqrt((p - 1) / (p + 1)) * l2, lp(norms, p)
                else:
                    lower, upper = lp(norms, p), math.sqrt(2 * p - 1) * l2
                yield f"{family}[p={p}][{k:04d}]", lower, upper, min(avg - lower, upper - avg)
                if p == 2.0:
                    yield f"hilbert_equality.{family}[{k:04d}]", avg, l2


def oracle_duality(cfg):
    r, w = 1.5, 3.0  # the suite's direct sum
    s = conj(r)
    for p in cfg.p_list:
        if math.isinf(p):
            continue
        q, probe_seed = conj(p), mix_seed(cfg.seed, cfg.suite, "probe")
        for k in range(cfg.trials):
            m, other = amp.amplify(row(cfg, k, "a")), amp.amplify(row(cfg, k, "b"))
            f, norm = amp.extremizer(m, p), amp.schatten(m, p)
            yield f"extremizer_unit[p={p}][{k:04d}]", amp.schatten(f, q), 1.0
            yield f"extremizer_pairing[p={p}][{k:04d}]", abs(amp.pairing(m, f)), norm
            # probe j of trial k is row 5k + j of the case's search stream
            rows = random_stacks(cfg.dual, mix_seed(probe_seed, "dual_search"), 5 * k, 5)
            probes = [amp.amplify(rows[j]) for j in range(5)]
            found = max(abs(amp.pairing(m, u)) / amp.schatten(u, q) for u in probes)
            yield f"search_bound[p={p}][{k:04d}]", found, norm
            if p > 1.0:
                f_other = amp.extremizer(other, p)
                lhs = abs(amp.pairing(m, f) + w ** (1 / r - 1 / s) * amp.pairing(other, f_other))
                f_side = amp.schatten(f, q) ** s + amp.schatten(f_other, q) ** s / w
                h_side = norm**r + w * amp.schatten(other, p) ** r
                yield f"direct_sum[p={p}][{k:04d}]", lhs, f_side ** (1 / s) * h_side ** (1 / r)


def oracle_interpolation(cfg):
    edges = [1j * t for t in DEFAULT_T_GRID] + [1.0 + 1j * t for t in DEFAULT_T_GRID]
    for p in interior(cfg):
        spec = _interp_spec_for(p)
        q, p0, p1 = conj(p), float(spec.p0), float(spec.p1)
        for k in range(cfg.trials):
            m, g = amp.amplify(row(cfg, k, "a")), amp.amplify(row(cfg, k, "b"))

            def f_at(z):
                return amp.witness(m, p, p * ((1 - z) / p0 + z / p1) - 1)

            def g_at(z):
                return amp.witness(g, q, q * ((1 - z) / conj(p0) + z / conj(p1)) - 1)

            line_norms = [amp.schatten(f_at(z), p0 if z.real == 0 else p1) for z in edges]
            yield f"boundary_norms[p={p}][{k:04d}]", max(line_norms, key=lambda v: abs(v - 1)), 1.0
            norm = amp.schatten(m, p)
            center = abs(amp.pairing(m / norm, g / amp.schatten(g, q)))
            boundary = max(abs(amp.pairing(f_at(z), g_at(z))) for z in edges)
            yield f"three_lines[p={p}][{k:04d}]", max(boundary, center), 1.0
            upper = norm * max(line_norms)
            saturation = abs(amp.pairing(m / norm, amp.extremizer(m, p)))
            yield f"consistency[p={p}][{k:04d}]", norm, upper, min(upper - norm, saturation - 1)


def oracle_kadec_klee(cfg):
    for p in interior(cfg):
        q = conj(p)
        e, f = (q, p) if p <= 2.0 else (p, q)
        h, d, base = (amp.amplify(row(cfg, 0, role)) for role in ("a", "b", "sum"))
        for n in range(1, cfg.trials + 1):
            hn = h + (1.0 / n) * d
            m = mean(amp.schatten(hn, p), amp.schatten(h, p), f)
            diff, mid = amp.schatten(0.5 * (hn - h), p), amp.schatten(0.5 * (hn + h), p)
            yield f"gap[p={p}][n={n:04d}]", (diff / m) ** e, 1 - (mid / m) ** e
        norms = [amp.schatten(2.0**-j / amp.schatten(base, p) * base, p) for j in range(5)]
        c = (p - 1) / (p + 1)
        if p <= 2.0:
            bounds = [max((v / 2) ** q / q, c * v**2 / 8) for v in norms]
            constant = 2 / c
        else:
            bounds, constant = [(v / 2) ** p / p for v in norms], p
        lhs = sum((v / 2) ** max(2.0, p) for v in norms)
        yield f"sum_bound[p={p}]", lhs, constant * sum(bounds)


ORACLES = {
    "norms": oracle_norms,
    "holder": oracle_holder,
    "adjoint": oracle_adjoint,
    "clarkson": oracle_clarkson,
    "two_point": oracle_two_point,
    "type_cotype": oracle_type_cotype,
    "duality": oracle_duality,
    "interpolation": oracle_interpolation,
    "kadec_klee": oracle_kadec_klee,
}


@functools.cache
def oracle_values(suite, dual):
    """Case id -> the oracle's lhs, rhs and, where it states one, slack."""
    return {case_id: values for case_id, *values in ORACLES[suite](config(suite, dual))}


def straying(suite, dual):
    """The case ids of the suite's reports whose values stray from the oracle's."""
    got = {r.case_id: r for r in run_suite(config(suite, dual))}
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
