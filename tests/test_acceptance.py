"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import time

import amplified
import numpy as np
import pytest

from dualnorm.cli import SuiteConfig, emit_report, run_suite
from dualnorm.duality import dual_extremizer, pairing
from dualnorm.dualmodel import Field, field_product, mix_seed, preset_dual, random_field
from dualnorm.inequalities import (
    clarkson_check,
    hilbert_convexity_modulus,
    hilbert_smoothness_modulus,
    kadec_klee_gap,
    modulus_convexity_sample,
    modulus_smoothness_sample,
    rademacher_average,
    two_point_check,
    two_point_equality_check,
    two_point_lower_constant,
    two_point_norms,
    two_point_upper_constant,
    type_cotype_check,
)
from dualnorm.interpolation import InterpSpec, boundary_witness, three_lines_check
from dualnorm.norms import (
    ExponentP,
    field_norm,
    field_norms,
    holder_check,
    lp_sch_norm,
)

S3 = preset_dual("s3")


def unit_field(p, seed):
    """A draw on S3 scaled to unit Schatten p-norm, the norm taken by the amplified oracle."""
    h = random_field(S3, seed)
    return (1.0 / amplified.norm(h, p)) * h


def outcome(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num:2d} {name:<22} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_criterion_01_holder_suite():
    duals = [preset_dual("torus", 4), S3, preset_dual("su2_trunc", 4)]
    inf = math.inf
    triples = [  # (p, q) pairs; r is implied by 1/r = 1/p + 1/q
        (2.0, 2.0),        # r = 1
        (3.0, 1.5),        # r = 1
        (4.0, 4.0),        # r = 2
        (inf, 1.5),        # r = 1.5
        (inf, inf),        # r = inf
    ]
    t0 = time.perf_counter()
    violations = 0
    for dual in duals:
        for k in range(1000):
            h1 = random_field(dual, mix_seed("acc1", dual.name, k, 0))
            h2 = random_field(dual, mix_seed("acc1", dual.name, k, 1))
            for p, q in triples:
                if not holder_check(h1, h2, p, q, field_product(h1, h2)).passed:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 30.0
    outcome(1, "holder", ok, f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed <= 30.0


def test_criterion_02_duality_saturation():
    violations = []
    for p in (1.0, 1.2, 1.5, 2.0, 3.0, 5.0):
        q = ExponentP(p).conjugate()
        for k in range(200):
            h = random_field(S3, mix_seed("acc2", p, k))
            norm = lp_sch_norm(h, p)
            f = dual_extremizer(h, p)
            unit = lp_sch_norm(f, q)
            pair = abs(pairing(h, f))
            if abs(unit - 1.0) > 1e-9:
                violations.append((p, k, "unit", unit))
            if abs(pair - norm) > 1e-9 * max(1.0, norm):
                violations.append((p, k, "pairing", pair))
            for t in range(5):
                g = unit_field(q, mix_seed("acc2", p, k, "probe", t))
                if abs(pairing(h, g)) > norm + 1e-10 * max(1.0, norm):
                    violations.append((p, k, "probe", t))
    ok = not violations
    outcome(2, "duality saturation", ok, f"{len(violations)} violations")
    assert not violations, violations[:5]


def test_criterion_03_clarkson_both_families():
    violations = []
    for p in (1.3, 1.7, 2.0, 2.4, 4.0):
        for k in range(1000):
            h1 = random_field(S3, mix_seed("acc3", p, k, 0))
            h2 = random_field(S3, mix_seed("acc3", p, k, 1))
            for name in ("sch", "hs"):
                rep = clarkson_check(h1, h2)(p, name)
                if not rep.passed:
                    violations.append((p, k, name, "inequality"))
                if p == 2.0 and abs(rep.slack) > 1e-11 * max(1.0, rep.rhs):
                    violations.append((p, k, name, "parallelogram"))
    ok = not violations
    outcome(3, "clarkson", ok, f"{len(violations)} violations")
    assert not violations, violations[:5]


def test_criterion_04_two_point_constants():
    violations = []
    assert two_point_upper_constant(3.0) == 5.0
    assert two_point_lower_constant(1.5) == pytest.approx(0.2)
    for p in (1.2, 1.5, 3.0, 6.0):
        for k in range(1000):
            h1 = random_field(S3, mix_seed("acc4", p, k, 0))
            h2 = random_field(S3, mix_seed("acc4", p, k, 1))
            if not two_point_check(h1, h2, p, "sch", two_point_norms(h1, h2)(p, "sch")).passed:
                violations.append((p, k))
    for k in range(200):
        h1 = random_field(S3, mix_seed("acc4", 2.0, k, 0))
        h2 = random_field(S3, mix_seed("acc4", 2.0, k, 1))
        rep = two_point_equality_check(h1, h2, "sch", two_point_norms(h1, h2)(2.0, "sch"))
        if abs(rep.lhs - rep.rhs) > 1e-10 * max(1.0, rep.rhs):
            violations.append((2.0, k))
    ok = not violations
    outcome(4, "two-point constants", ok, f"{len(violations)} violations")
    assert not violations, violations[:5]


def test_criterion_05_moduli_bounds():
    t0 = time.perf_counter()
    violations = []
    t_grid = (0.1, 0.5, 1.0)
    for p in (1.5, 2.0, 3.0):
        for family in ("sch", "hs"):
            seed = mix_seed("acc5", p, family)
            conv = modulus_convexity_sample(S3, p, family, samples=20000, seed=seed)
            if any(est.skipped for est in conv):
                violations.append((p, family, "empty bin"))
            for est in conv:
                if est.skipped:
                    continue
                if not est.passed():
                    violations.append((p, family, "convexity", est.epsilon_or_t))
                if p == 2.0:
                    closed = hilbert_convexity_modulus(est.epsilon_or_t)
                    if not (closed - 1e-9 <= est.estimate <= closed + 0.05):
                        violations.append((p, family, "convexity closed form", est))
            smooth = modulus_smoothness_sample(
                S3, p, family, t_grid=t_grid, samples=20000, seed=seed
            )
            for est in smooth:
                if not est.passed():
                    violations.append((p, family, "smoothness", est.epsilon_or_t))
                if p == 2.0:
                    closed = hilbert_smoothness_modulus(est.epsilon_or_t)
                    if not (closed - 0.05 <= est.estimate <= closed + 1e-9):
                        violations.append((p, family, "smoothness closed form", est))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed <= 300.0
    outcome(5, "moduli bounds", ok, f"{len(violations)} violations, {elapsed:.0f}s")
    assert not violations, violations[:5]
    assert elapsed <= 300.0


def test_criterion_06_type_cotype():
    violations = []
    for p in (1.4, 2.0, 3.0):
        for k in range(200):
            fields = [random_field(S3, mix_seed("acc6", p, k, j)) for j in range(5)]
            norms, avg2 = field_norms(fields, p, "sch"), rademacher_average(fields, p, "sch")
            rep = type_cotype_check(fields, p, "sch", norms, avg2)
            if not rep.passed:
                violations.append((p, k, "two-sided"))
            if p == 2.0:
                avg2 = rademacher_average(fields, 2.0, "sch")
                norms = [lp_sch_norm(f, 2.0) for f in fields]
                l2 = math.sqrt(sum(v * v for v in norms))
                if abs(avg2 - l2) > 1e-10 * max(1.0, l2):
                    violations.append((p, k, "equality"))
    ok = not violations
    outcome(6, "type/cotype", ok, f"{len(violations)} violations")
    assert not violations, violations[:5]


def test_criterion_07_interpolation():
    violations = []
    for p0, p1, p in ((1.0, 2.0, 1.5), (2.0, 4.0, 3.0)):
        spec = InterpSpec.for_target(p0, p1, p)
        assert float(spec.p) == pytest.approx(p, abs=1e-14)
        for k in range(200):
            h = random_field(S3, mix_seed("acc7", p, k, 0))
            f = random_field(S3, mix_seed("acc7", p, k, 1))
            left, right = lines = boundary_witness(h, spec)
            n0, n1 = lp_sch_norm(left, spec.p0).tolist(), lp_sch_norm(right, spec.p1).tolist()
            if any(abs(v - 1.0) > 1e-9 for v in n0 + n1):
                violations.append((p, k, "boundary"))
            rep = three_lines_check(h, f, spec, lines)
            if rep.lhs > 1.0 + 1e-9:
                violations.append((p, k, "three lines"))
            h_unit = (1.0 / lp_sch_norm(h, p)) * h
            center = abs(pairing(h_unit, dual_extremizer(h_unit, p)))
            if abs(center - 1.0) > 1e-8:
                violations.append((p, k, "saturation"))
    ok = not violations
    outcome(7, "interpolation", ok, f"{len(violations)} violations")
    assert not violations, violations[:5]


def test_criterion_08_kadec_klee_gap():
    violations = []
    finals = {}
    for p in (1.5, 3.0):
        h = unit_field(p, mix_seed("acc8", p, 0))
        d = unit_field(p, mix_seed("acc8", p, 1))
        gap_at_50 = None
        for n in range(1, 51):
            rep = kadec_klee_gap(h + (1.0 / n) * d, h)(p)
            if not rep.passed or rep.rhs < -rep.tol:
                violations.append((p, n, "bound"))
            gap_at_50 = rep.rhs
        finals[p] = gap_at_50
        if not gap_at_50 < 1e-3:
            violations.append((p, 50, "gap too large", gap_at_50))
    ok = not violations
    detail = ", ".join(f"gap(50;p={p})={g:.1e}" for p, g in finals.items())
    outcome(8, "kadec-klee gap", ok, detail)
    assert not violations, violations[:5]


def test_criterion_09_determinism(tmp_path):
    configs = [
        SuiteConfig(
            suite="two_point", dual=S3, p_list=(ExponentP(1.5), ExponentP(3.0)),
            family="both", trials=20, seed=1234,
        ),
        SuiteConfig(
            suite="all", dual=preset_dual("su2_trunc", 3),
            p_list=(ExponentP(1.5), ExponentP(2.0)), family="sch", trials=2, seed=99,
        ),
    ]
    ok = True
    for i, cfg in enumerate(configs):
        p1 = tmp_path / f"run{i}_a.json"
        p2 = tmp_path / f"run{i}_b.json"
        emit_report(run_suite(cfg), "json", str(p1))
        emit_report(run_suite(cfg), "json", str(p2))
        if p1.read_bytes() != p2.read_bytes():
            ok = False
    outcome(9, "determinism", ok)
    assert ok


def test_criterion_10_oracle_equivalences():
    rng_violations = []

    # (a) Schatten norms against direct trace powers of the Gram matrix, as the
    # norm of the one-entry field over custom(n): (n Tr |a|^p)^(1/p)
    for k in range(500):
        rng = np.random.default_rng(mix_seed("acc10a", k))
        n = int(rng.integers(1, 7))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        gram = a.conj().T @ a
        power = {2.0: gram, 4.0: gram @ gram, 6.0: gram @ gram @ gram}
        p = (2.0, 4.0, 6.0)[k % 3]
        oracle = float(n * np.trace(power[p]).real) ** (1.0 / p)
        val = lp_sch_norm(Field(preset_dual("custom", [n]), (a,)), p)
        if abs(val - oracle) > 1e-9 * max(1.0, oracle):
            rng_violations.append(("schatten", k))

    # (b) the chunked Rademacher average against a from-scratch enumerator
    for n in (1, 2, 3, 4, 5):
        fields = [random_field(S3, mix_seed("acc10b", n, j)) for j in range(n)]
        patterns = list(itertools.product((1.0, -1.0), repeat=n))
        if len(patterns) != 2**n:
            rng_violations.append(("pattern count", n))
        total = 0.0
        for signs in patterns:
            acc = signs[0] * fields[0]
            for s, f in zip(signs[1:], fields[1:]):
                acc = acc + s * f
            total += lp_sch_norm(acc, 2.5) ** 2
        oracle = math.sqrt(total / len(patterns))
        val = rademacher_average(fields, 2.5, "sch")
        if abs(val - oracle) > 1e-11 * max(1.0, oracle):
            rng_violations.append(("rademacher", n))

    # (c) trace cyclicity under the fractional functional calculus
    for k in range(500):
        rng = np.random.default_rng(mix_seed("acc10c", k))
        n = int(rng.integers(1, 7))
        x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        y = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        a = x.conj().T @ x
        b = y.conj().T @ y
        qexp = (1.5, 3.0)[k % 2]
        ra = amplified.psd_power(a, 0.5)
        rb = amplified.psd_power(b, 0.5)
        lhs = float(np.sum(np.maximum(np.linalg.eigvalsh(ra @ b @ ra), 0.0) ** (qexp / 2)))
        rhs = float(np.sum(np.maximum(np.linalg.eigvalsh(rb @ a @ rb), 0.0) ** (qexp / 2)))
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            rng_violations.append(("cyclicity", k))

    ok = not rng_violations
    outcome(10, "oracle equivalences", ok, f"{len(rng_violations)} violations")
    assert not rng_violations, rng_violations[:5]
