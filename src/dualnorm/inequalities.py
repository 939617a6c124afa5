"""Two-point norm inequalities, convexity/smoothness moduli, sign averages.

Everything here quantifies how far the p-norm families are from the
parallelogram identity:

* Clarkson inequalities (midpoint vs endpoints, conjugate exponents),
* two-point inequalities with explicit constants 2p - 1 and (p-1)/(p+1),
* sampled lower bounds on the modulus of convexity and upper bounds on the modulus
  of smoothness, from one pass over the same unit pairs (the two samplers are its views);
  the convexity bins are one fixed tiling of [0.1, 2) by ``CONVEXITY_EDGES``, and an estimate
  passes, as its report does, when its ``sides`` lhs, rhs have rhs - lhs >= -tolerance(rhs),
* exhaustive Rademacher sign averages and the type/cotype comparisons,
* the rearranged-Clarkson gap behind the Kadec-Klee property (in units of
  its power mean), and the finite comparison behind summability.

Each l^p sum or power mean of norms is ``matcore.power_sum``, the sign
average and critical constant square norms in units of an exact power of two
(``matcore._scale_exponent``), and the Kadec-Klee gap and the bounds raise
values at most 1, so no exponent in (1, inf) overflows.  All sampling is
seeded and deterministic; sampled infima over-estimate the true modulus of
convexity and sampled suprema under-estimate the modulus of smoothness, so
every assertion against the proved bounds is sound regardless of how the
samples land.

Each check is one function for fields and batches: one case id gives the
report of single fields, and a list of case ids gives one report per row of
batch fields.  A check takes its norms at one exponent from one
``field_norms`` call, and where a suite shares norms between anchors the
check takes them as an argument: ``two_point_norms`` for the two-point
checks, and the summands' norms and sign average for ``type_cotype_check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualmodel import DualModel, Field, _check_layout, _stack, _trusted, mix_seed, random_stacks
from .dualmodel import _is_integer, _is_real, random_uniforms
from .matcore import _scale_exponent, power_sum
from .norms import ExponentP, _finite_interior, field_norm, field_norms
from .report import (
    CheckReport,
    check_report,
    equality_report,
    inequality_report,
    tolerance,
)

__all__ = [
    "ModulusEstimate",
    "two_point_upper_constant",
    "two_point_lower_constant",
    "clarkson_check",
    "two_point_norms",
    "two_point_check",
    "two_point_equality_check",
    "two_point_critical_constant",
    "convexity_lower_bound",
    "smoothness_upper_bound",
    "hilbert_convexity_modulus",
    "hilbert_smoothness_modulus",
    "CONVEXITY_EDGES",
    "modulus_convexity_sample",
    "modulus_smoothness_sample",
    "rademacher_average",
    "type_cotype_check",
    "kadec_klee_gap",
    "unconditional_sum_bound",
]

RADEMACHER_MAX_TERMS = 20
# The 20 edges 0.1 .. 2.0 of the 19 convexity bins, which tile [0.1, 2): bin k is
# [CONVEXITY_EDGES[k], CONVEXITY_EDGES[k + 1]), and its estimate carries the lower edge.
CONVEXITY_EDGES = tuple(round(0.1 * k, 10) for k in range(1, 21))
_SMOOTHNESS_T_GRID = (0.1, 0.5, 1.0)  # modulus_smoothness_sample's default t-grid


def two_point_upper_constant(p) -> float:
    """2p - 1: valid coefficient of ||H2||^2 in the upper two-point bound, p >= 2."""
    return 2.0 * ExponentP.parse(p) - 1.0


def two_point_lower_constant(p) -> float:
    """(p-1)/(p+1): valid coefficient in the lower two-point bound, 1 < p <= 2."""
    p = ExponentP.parse(p)
    return (p - 1.0) / (p + 1.0)


def _mean(a, b, r: float):
    """The power mean ((a^r + b^r) / 2)^(1/r), elementwise for arrays."""
    return 0.5 ** (1.0 / r) * power_sum((a, b), r)


# -- Clarkson inequalities ---------------------------------------------------


def clarkson_check(h1: Field, h2: Field, p, family: str, *, case_id="clarkson"):
    """Clarkson inequality in the given family (case i for p <= 2, case ii above)."""
    p = _finite_interior(p)
    mid_plus, mid_minus, n1, n2 = field_norms((0.5 * (h1 + h2), 0.5 * (h1 - h2), h1, h2), p, family)
    e, f = (p.conjugate(), p) if p <= 2.0 else (p, p.conjugate())
    lhs = power_sum((mid_plus, mid_minus), e)
    rhs = _mean(n1, n2, f)
    case = "i" if p <= 2.0 else "ii"
    return inequality_report(
        "clarkson", case_id, p, lhs, rhs, (h1, h2, p, family), f"clarkson.{family}.case_{case}"
    )


# -- Two-point inequalities with explicit constants --------------------------


def two_point_norms(h1: Field, h2: Field, p, family: str):
    """||H1||, ||H2|| and (mean of ||H1 +- H2||^p)^(1/p): the norms the two-point checks share."""
    p = _finite_interior(p)
    n1, n2, plus, minus = field_norms((h1, h2, h1 + h2, h1 - h2), p, family)
    return n1, n2, _mean(plus, minus, p)


def two_point_check(h1: Field, h2: Field, p, family: str, norms, *, case_id="two_point"):
    """Two-point inequality with the proved constant substituted.

    p >= 2: (avg of ||H1 +- H2||^p)^(1/p) <= (||H1||^2 + (2p-1) ||H2||^2)^(1/2);
    p <= 2: reversed form with (p-1)/(p+1) on the left.  At p = 2 the upper
    form applies, with 2p - 1 = 3; the parallelogram identity, with constant
    1, is ``two_point_equality_check``.  ``norms`` is
    ``two_point_norms(h1, h2, p, family)``.
    """
    p = _finite_interior(p)
    n1, n2, mean_p = norms
    if p >= 2.0:
        lhs = mean_p
        rhs = power_sum((n1, math.sqrt(two_point_upper_constant(p)) * n2), 2.0)
    else:
        lhs = power_sum((n1, math.sqrt(two_point_lower_constant(p)) * n2), 2.0)
        rhs = mean_p
    side = "upper" if p >= 2.0 else "lower"
    inputs = (h1, h2, p, family)
    return inequality_report("two_point", case_id, p, lhs, rhs, inputs, f"two_point.{side}")


def two_point_equality_check(h1: Field, h2: Field, family: str, norms, *, case_id="parallelogram"):
    """p = 2: both two-point sides agree with constant 1; ``norms`` are ``two_point_norms`` at 2."""
    n1, n2, mean2 = norms
    rhs = power_sum((n1, n2), 2.0)
    return equality_report("two_point", case_id, 2.0, mean2, rhs, (h1, h2, family), "parallelogram")


def two_point_critical_constant(norms):
    """The constant that makes the two-point inequality tight, from a pair's ``two_point_norms``.

    nan when ||H2|| = 0 (any constant works there).  A float for single
    fields, an array of the batch shape for batches.  A pair's constant is
    within the proved one exactly when its ``two_point_check`` row holds, so
    the suite's ``critical_aggregate`` record of them restates those rows and
    cannot fail; it stays while ``benchmarks/workloads.expected_report_count``
    pins the report set.
    """
    scale = np.ldexp(1.0, -_scale_exponent(norms[1]))  # no square overflows
    n1, n2, mean_p = (np.multiply(v, scale) for v in norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(n2 == 0.0, math.nan, (np.square(mean_p) - np.square(n1)) / np.square(n2))
    return c if np.ndim(c) else float(c)


# -- Moduli of convexity and smoothness --------------------------------------


def hilbert_convexity_modulus(eps: float) -> float:
    """Closed form 1 - (1 - eps^2/4)^(1/2) of the Hilbert modulus of convexity."""
    return 1.0 - math.sqrt(max(0.0, 1.0 - eps * eps / 4.0))


def hilbert_smoothness_modulus(t: float) -> float:
    """Closed form (1 + t^2)^(1/2) - 1 of the Hilbert modulus of smoothness."""
    return math.sqrt(1.0 + t * t) - 1.0


def convexity_lower_bound(p, eps: float) -> float:
    """Proved lower bound for the modulus of convexity at eps.

    1 < p <= 2: max((eps/2)^q / q, c_p eps^2 / 8) with q conjugate to p;
    p > 2:      (eps/2)^p / p.
    eps <= 2, so (eps/2)^q underflows to 0 at extreme exponents and never overflows.
    """
    p = _finite_interior(p)
    if eps <= 0.0:
        return 0.0
    if p <= 2.0:
        q = p.conjugate()
        return max((eps / 2.0) ** q / q, two_point_lower_constant(p) * eps**2 / 8.0)
    return (eps / 2.0) ** p / p


def smoothness_upper_bound(p, t: float) -> float:
    """Proved upper bound for the modulus of smoothness at t.

    1 < p <= 2: t^p / p;  p > 2: min(t^q / q, C_p t^2 / 2), q conjugate to p.
    """
    p = _finite_interior(p)
    if t <= 0.0:
        return 0.0
    if p <= 2.0:
        return t**p / p
    q = p.conjugate()
    return min(t**q / q, two_point_upper_constant(p) * t * t / 2.0)


@dataclass(frozen=True)
class ModulusEstimate:
    """Sampled per-bin (or per-t) modulus value vs the proved bound.

    kind "convexity_lower": estimate is a sampled infimum, sound when
    >= bound.  kind "smoothness_upper": estimate is a sampled supremum,
    sound when <= bound.  samples == 0 flags a skipped (empty) bin.
    """

    epsilon_or_t: float
    estimate: float
    bound: float
    kind: str
    samples: int

    @property
    def skipped(self) -> bool:
        return self.samples == 0

    @property
    def sides(self) -> tuple[float, float]:
        """(lhs, rhs) of the inequality lhs <= rhs that the estimate asserts."""
        if self.kind == "convexity_lower":
            return self.bound, self.estimate
        if self.kind == "smoothness_upper":
            return self.estimate, self.bound
        raise ValueError(f"unknown modulus kind {self.kind!r}")

    def passed(self) -> bool:
        if self.skipped:
            return True
        lhs, rhs = self.sides
        return rhs - lhs >= -tolerance(rhs)


# Complex entries held per stacked batch of fields (every entry's stack of
# one chunk of draws or of trials; see _chunks): bounds the memory of the
# suites and samplers whatever the model size.
_CHUNK_ENTRIES = 1 << 16
# Complex entries of one field's table of partial signed sums in rademacher_average.
# It sets how each sum's additions are grouped, so a change to it moves sign
# averages in the last bits; _CHUNK_ENTRIES only sets how many rows share a run.
_SIGN_TABLE_ENTRIES = 1 << 16


def _chunks(model: DualModel, rows: int, fields_per_row: int = 1):
    """Rows 0 .. rows - 1 as ranges, in order: each of at least one row, and of at most
    _CHUNK_ENTRIES complex entries at ``fields_per_row`` fields of ``model`` a row."""
    step = max(1, _CHUNK_ENTRIES // (fields_per_row * model.size))
    return (range(start, min(start + step, rows)) for start in range(0, rows, step))


def _draws(model: DualModel, keys, start: int, rows: int):
    """Pairs start .. start + rows - 1: ginibre batches a and b, and cos t, sin t.

    t is each pair's mixing angle, uniform on [0, pi].  ``keys`` are the
    three stream keys of the moduli pass (a, b, t), and pair k reads row k
    of each stream, so a pair's values never depend on the chunk it is
    drawn in.
    """
    key_a, key_b, key_t = keys
    a = random_stacks(model, key_a, start, rows)
    b = random_stacks(model, key_b, start, rows)
    t = math.pi * random_uniforms(key_t, start, rows)
    return a, b, np.cos(t), np.sin(t)


def _moduli_pass(model, p, family, convexity, t_grid, samples, seed):
    """Both samplers' estimates, (convexity, smoothness), from one walk over the same unit pairs.

    h1 is a normalized ginibre draw; h2 mixes it with an independent draw
    at a uniformly random angle, so near-equal and near-antipodal pairs both
    occur.  Only unit-norm membership matters for soundness of the modulus
    estimates.  Each ``_chunks`` range of pairs is held as two batch Fields
    and reduced in one stack of norms; with ``convexity`` false, or an empty
    ``t_grid``, the pass forms none of that estimate's norms.
    """
    p = _finite_interior(p)
    ts = [float(t) if _is_real(t) else math.nan for t in t_grid]  # nan fails the check below
    if not all(0.0 <= t < math.inf for t in ts):
        raise ValueError(f"smoothness grid points must be finite non-negative reals: {t_grid!r}")
    if not (_is_integer(samples) and _is_integer(seed) and samples >= 0):
        raise ValueError(f"samples and seed must be integers, samples >= 0: {samples!r}, {seed!r}")
    keys = [mix_seed(seed, stream) for stream in ("a", "b", "t")]
    bins = len(CONVEXITY_EDGES) - 1
    lowest, counts = np.full(bins, math.inf), np.zeros(bins, dtype=int)
    highest = [-math.inf] * len(ts)
    stacked = 2 * len(ts) + (2 if convexity else 0)  # fields per pair in the stack of its norms
    for chunk in _chunks(model, samples, max(1, stacked)):
        a, b, cos_t, sin_t = _draws(model, keys, chunk.start, len(chunk))
        norm_a, norm_b = field_norms((a, b), p, family)
        if not (norm_a.all() and norm_b.all()):
            raise ZeroDivisionError("a ginibre draw has zero norm")
        h1, g = (1.0 / norm_a) * a, (1.0 / norm_b) * b
        mixed = cos_t * h1 + sin_t * g
        norm = field_norm(mixed, p, family)
        flat = norm == 0.0  # measure-zero degenerate mix; fall back to the raw draw
        if flat.any():
            mixed, norm = mixed + flat * g, np.where(flat, 1.0, norm)
        h2 = (1.0 / norm) * mixed
        fields = [x for t in ts for x in (h1 + t * h2, h1 - t * h2)]
        if convexity:
            fields += [h1 - h2, 0.5 * (h1 + h2)]
        norms = field_norms(fields, p, family)
        for i in range(len(ts)):
            plus, minus = norms[2 * i], norms[2 * i + 1]
            highest[i] = max(highest[i], float(((plus + minus) / 2.0 - 1.0).max()))
        if convexity:
            # unit pairs lie at most 2 apart: a separation rounded up to 2 counts just below it
            eps = np.minimum(norms[-2], np.nextafter(2.0, 0.0))
            k = np.searchsorted(CONVEXITY_EDGES, eps, side="right") - 1
            hit = k >= 0  # -1: below the first edge, in no bin
            counts += np.bincount(k[hit], minlength=bins)
            np.minimum.at(lowest, k[hit], 1.0 - norms[-1][hit])
    edges = CONVEXITY_EDGES[:-1] if convexity else ()
    return (
        [ModulusEstimate(e, float(lowest[k]) if counts[k] else math.nan,
                         convexity_lower_bound(p, e), "convexity_lower", int(counts[k]))
         for k, e in enumerate(edges)],
        [ModulusEstimate(t, highest[i] if samples else math.nan, smoothness_upper_bound(p, t),
                         "smoothness_upper", samples) for i, t in enumerate(ts)],
    )


def modulus_convexity_sample(
    model: DualModel,
    p,
    family: str,
    samples: int = 1000,
    seed: int = 0,
) -> list[ModulusEstimate]:
    """Per-bin sampled infimum of 1 - ||(H1+H2)/2|| over unit pairs.

    Pairs are binned by ||H1 - H2||: bin k is [CONVEXITY_EDGES[k],
    CONVEXITY_EDGES[k + 1]), and the 19 bins tile [0.1, 2).  A separation
    below 0.1 lands in no bin, and one measured at 2 or above counts as just
    below 2 (unit pairs lie at most 2 apart).  Each bin's estimate is
    compared against the proved lower bound at the bin's lower edge (the
    bound is increasing, so that comparison is sound for every pair landing
    in the bin).
    """
    return _moduli_pass(model, p, family, True, (), samples, seed)[0]


def modulus_smoothness_sample(
    model: DualModel,
    p,
    family: str,
    t_grid=_SMOOTHNESS_T_GRID,
    samples: int = 1000,
    seed: int = 0,
) -> list[ModulusEstimate]:
    """Per-t sampled supremum of (||H1 + t H2|| + ||H1 - t H2||)/2 - 1."""
    return _moduli_pass(model, p, family, False, t_grid, samples, seed)[1]


# -- Rademacher averages, type and cotype ------------------------------------


def rademacher_average(fields, p, family: str = "sch"):
    """(mean over all sign patterns of ||sum theta_j H_j||^2)^(1/2), exact: the L2 sign average.

    A float for single fields; for batches of one batch shape, an array of
    that shape whose row k averages row k of every summand.  The norm is
    even, so the mean runs over the 2^(n-1) patterns with theta_0 = +1 only;
    pattern k sets theta_j = -1 for each set bit j - 1 of k.

    Pattern k's sum is low[k mod 2^L] + high[k >> L]: ``low`` is the table
    of the 2^L sums H_0 +- H_1 ... +- H_L, built by doubling, and high[h]
    adds +- H_(L+1) ... +- H_(n-1) in that order, once per run of patterns
    that share h.  L is the largest that keeps a field's table within
    _SIGN_TABLE_ENTRIES complex entries (0 if one summand exceeds it), so it
    depends only on n and the model, and a batch is walked in ``_chunks`` of
    rows: each run is a batch Field of shape (2^L, rows) whose norms take one
    batched reduction, and the running total adds them in pattern order, so
    a row's average is that of the row alone, bit for bit.  A row's summands
    are taken in units of 2^e, e the ``matcore._scale_exponent`` of their
    largest |re| or |im|, so no square overflows.
    """
    fields = list(fields)
    n = len(fields)
    if n == 0:
        return 0.0
    if n > RADEMACHER_MAX_TERMS:
        raise ValueError(f"at most {RADEMACHER_MAX_TERMS} summands (got {n})")
    model, batch = _check_layout(fields)
    rows = math.prod(batch)
    blocks = [b.reshape(n, rows, *b.shape[-2:]) for b in _stack(fields).blocks]
    bits = min(n - 1, max(0, (_SIGN_TABLE_ENTRIES // model.size).bit_length() - 1))
    half = 2 ** (n - 1)
    averages = []
    for chunk in _chunks(model, rows, 2**bits):
        # (n, rows, d, 2d) real views: real signs sum (re, im) pairs alike
        stacks = [b[:, chunk.start:chunk.stop].view(np.float64) for b in blocks]
        e = _scale_exponent(np.max([np.abs(s).max(axis=(0, 2, 3)) for s in stacks], axis=0))
        stacks = [s * np.ldexp(1.0, -e)[:, None, None] for s in stacks]
        low = [s[:1] for s in stacks]
        for j in range(1, bits + 1):  # entry i + 2^(j-1) takes -H_j where entry i takes +H_j
            low = [np.concatenate([t + s[j], t - s[j]]) for t, s in zip(low, stacks)]
        total = np.zeros((1, len(chunk)))
        for h in range(half >> bits):  # each run of patterns with equal high bits h
            sums = []
            for t, s in zip(low, stacks):
                high = np.zeros(s.shape[1:])
                for j in range(bits + 1, n):
                    if (h >> (j - 1 - bits)) & 1:
                        high -= s[j]
                    else:
                        high += s[j]
                sums.append((t + high).view(np.complex128))
            terms = np.square(field_norm(_trusted(model, sums), p, family))
            total = np.add.accumulate(np.concatenate([total, terms]))[-1:]
        averages.append(np.ldexp(np.power(total[0] / half, 1.0 / 2.0), e))
    average = np.concatenate([np.zeros(0), *averages]).reshape(batch)  # no chunk: no rows
    return average if batch else float(average)


def type_cotype_check(fields, p, family: str, norms, avg2, *, case_id="type_cotype"):
    """Two-sided comparison of the L2 sign average with power sums of norms.

    1 < p <= 2: sqrt(c_p) (sum ||H_j||^2)^(1/2) <= avg <= (sum ||H_j||^p)^(1/p);
    2 <= p:     (sum ||H_j||^p)^(1/p) <= avg <= sqrt(C_p) (sum ||H_j||^2)^(1/2).
    The reported slack is the smaller of the two one-sided slacks.  ``norms``
    is ``field_norms(fields, p, family)`` and ``avg2`` is
    ``rademacher_average(fields, p, family)``.
    """
    fields = list(fields)
    p = _finite_interior(p)
    l2_sum = power_sum(norms, 2.0)
    lp_sum = power_sum(norms, p)
    if p <= 2.0:
        lower = math.sqrt(two_point_lower_constant(p)) * l2_sum
        upper = lp_sum
    else:
        lower = lp_sum
        upper = math.sqrt(two_point_upper_constant(p)) * l2_sum
    slack = np.minimum(avg2 - lower, upper - avg2)
    inputs = (fields, p, family)
    return check_report("type_cotype", case_id, p, lower, upper, slack, inputs, "type_cotype")


# -- Kadec-Klee gap and unconditional-sum comparison --------------------------


def kadec_klee_gap(hn: Field, h: Field, p, family: str = "sch", *, case_id="gap"):
    """Rearranged Clarkson bound forcing norm convergence.

    With e = q for p <= 2 and e = p for p >= 2 (q conjugate, f the other one)
    and m = ((||Hn||^f + ||H||^f) / 2)^(1/f), the midpoint difference obeys

        ||(Hn - H)/2||^e <= m^e - ||(Hn + H)/2||^e.

    Both sides are homogeneous of degree e, so the report gives them in units
    of m^e: lhs = (||(Hn - H)/2|| / m)^e and rhs = 1 - (||(Hn + H)/2|| / m)^e,
    both in [0, 1].  The rhs tends to 0 whenever ||Hn|| -> ||H|| and
    ||(Hn + H)/2|| -> ||H||.
    """
    p = _finite_interior(p)
    e, f = (p.conjugate(), p) if p <= 2.0 else (p, p.conjugate())
    batch = np.broadcast_shapes(hn.batch, h.batch)  # a single limit h serves every row of hn
    fields = [0.5 * (hn - h), 0.5 * (hn + h)] + [
        x.map_blocks(lambda b: np.broadcast_to(b, batch + b.shape[-2:])) for x in (hn, h)
    ]
    diff, mid, n_hn, n_h = field_norms(fields, p, family)
    m = _mean(n_hn, n_h, f)
    m = np.where(m == 0.0, 1.0, m)  # 0: both are 0
    lhs, rhs = np.power(diff / m, e), 1.0 - np.power(mid / m, e)
    inputs = (hn, h, p, family)
    return inequality_report("kadec_klee", case_id, p, lhs, rhs, inputs, "kadec_klee_gap")


def unconditional_sum_bound(fields, p, family: str = "sch", *, case_id="sum_bound") -> CheckReport:
    """Finite comparison behind summability of unconditionally convergent series.

    sum ||H_j||^e <= K * sum (convexity lower bound at ||H_j||), e = max(2, p),
    K = 8/c_p for p <= 2 and p 2^p for p > 2, reported in units of 2^e (no
    term exceeds 1, so no exponent overflows).  This is an arithmetic
    consistency check on the bound functions; norms above 2 are rejected
    because the modulus is only defined up to separation 2.

    It restates its own inputs and cannot fail: at p > 2 each rhs term
    (v/2)^p equals its lhs term, and at p <= 2 each rhs term is at least
    (2/c_p) c_p v^2/8 = (v/2)^2, its lhs term, for any norm v <= 2.  It stays
    while ``benchmarks/workloads.expected_report_count`` pins the kadec_klee
    suite's report set.
    """
    p = _finite_interior(p)
    norms = field_norms(fields, p, family)
    over = [v for v in norms if v > 2.0]
    if over:
        raise ValueError(f"{len(over)} summand norm(s) exceed 2; rescale the inputs")
    lhs = sum((v / 2.0) ** max(2.0, p) for v in norms)
    constant = 2.0 / two_point_lower_constant(p) if p <= 2.0 else p  # K / 2^e
    rhs = constant * sum(convexity_lower_bound(p, v) for v in norms if v > 0.0)
    inputs = (fields, p, family)
    return inequality_report("kadec_klee", case_id, p, lhs, rhs, inputs, "unconditional_sum")
