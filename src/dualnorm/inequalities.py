"""Two-point norm inequalities, convexity/smoothness moduli, sign averages.

Everything here quantifies how far the p-norm families are from the
parallelogram identity:

* Clarkson inequalities (midpoint vs endpoints, conjugate exponents),
* two-point inequalities with explicit constants 2p - 1 and (p-1)/(p+1),
* sampled lower bounds on the modulus of convexity and upper bounds on the
  modulus of smoothness,
* exhaustive Rademacher sign averages and the type/cotype comparisons,
* the rearranged-Clarkson gap behind the Kadec-Klee property (in units of
  its power mean), and the finite comparison behind summability.

Each sum or mean of powers of norms is ``matcore.power_sum``, and the bounds
raise eps/2 <= 1, so no exponent in (1, inf) overflows.  All sampling is
seeded and deterministic; sampled infima over-estimate the true modulus of
convexity and sampled suprema under-estimate the modulus of smoothness, so
every assertion against the proved bounds is sound regardless of how the
samples land.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualmodel import DualModel, Field, _trusted, mix_seed, random_stacks, random_uniforms
from .matcore import power_sum
from .norms import ExponentP, field_norm
from .report import CheckReport, check_report, equality_report, inequality_report, tolerance

__all__ = [
    "ModulusEstimate",
    "two_point_upper_constant",
    "two_point_lower_constant",
    "clarkson_check",
    "two_point_check",
    "two_point_equality_check",
    "two_point_critical_constant",
    "convexity_lower_bound",
    "smoothness_upper_bound",
    "hilbert_convexity_modulus",
    "hilbert_smoothness_modulus",
    "default_eps_bins",
    "modulus_convexity_sample",
    "modulus_smoothness_sample",
    "rademacher_average",
    "type_cotype_check",
    "kadec_klee_gap",
    "unconditional_sum_bound",
]

RADEMACHER_MAX_TERMS = 20
DEFAULT_BIN_WIDTH = 0.1


def two_point_upper_constant(p) -> float:
    """2p - 1: valid coefficient of ||H2||^2 in the upper two-point bound, p >= 2."""
    return 2.0 * float(ExponentP.parse(p)) - 1.0


def two_point_lower_constant(p) -> float:
    """(p-1)/(p+1): valid coefficient in the lower two-point bound, 1 < p <= 2."""
    pv = float(ExponentP.parse(p))
    return (pv - 1.0) / (pv + 1.0)


def _finite_interior(p) -> float:
    pv = float(ExponentP.parse(p))
    if not (1.0 < pv < math.inf):
        raise ValueError(f"exponent must lie strictly inside (1, inf), got {pv}")
    return pv


def _mean(a: float, b: float, r: float) -> float:
    """The power mean ((a^r + b^r) / 2)^(1/r)."""
    return 0.5 ** (1.0 / r) * power_sum((a, b), r)


# -- Clarkson inequalities ---------------------------------------------------


def clarkson_check(
    h1: Field, h2: Field, p, family: str, *, suite="clarkson", case_id="clarkson"
) -> CheckReport:
    """Clarkson inequality in the given family (case i for p <= 2, case ii above)."""
    p = _finite_interior(p)
    q = p / (p - 1.0)
    mid_plus = field_norm(0.5 * (h1 + h2), p, family)
    mid_minus = field_norm(0.5 * (h1 - h2), p, family)
    n1 = field_norm(h1, p, family)
    n2 = field_norm(h2, p, family)
    e, f = (q, p) if p <= 2.0 else (p, q)
    lhs = power_sum((mid_plus, mid_minus), e)
    rhs = _mean(n1, n2, f)
    case = "i" if p <= 2.0 else "ii"
    return inequality_report(
        suite, case_id, p, lhs, rhs, (h1, h2, p, family), f"clarkson.{family}.case_{case}"
    )


# -- Two-point inequalities with explicit constants --------------------------


def _mean_p(h1: Field, h2: Field, p: float, family: str) -> float:
    """(average of ||H1 + H2||^p and ||H1 - H2||^p)^(1/p)."""
    return _mean(field_norm(h1 + h2, p, family), field_norm(h1 - h2, p, family), p)


def two_point_check(
    h1: Field, h2: Field, p, family: str = "sch", *, suite="two_point", case_id="two_point"
) -> CheckReport:
    """Two-point inequality with the proved constant substituted.

    p >= 2: (avg of ||H1 +- H2||^p)^(1/p) <= (||H1||^2 + (2p-1) ||H2||^2)^(1/2);
    p <= 2: reversed form with (p-1)/(p+1) on the left.  At p = 2 both reduce
    to the parallelogram identity with constant 1.
    """
    p = _finite_interior(p)
    n1 = field_norm(h1, p, family)
    n2 = field_norm(h2, p, family)
    mean_p = _mean_p(h1, h2, p, family)
    if p >= 2.0:
        lhs = mean_p
        rhs = power_sum((n1, math.sqrt(two_point_upper_constant(p)) * n2), 2.0)
    else:
        lhs = power_sum((n1, math.sqrt(two_point_lower_constant(p)) * n2), 2.0)
        rhs = mean_p
    side = "upper" if p >= 2.0 else "lower"
    return inequality_report(suite, case_id, p, lhs, rhs, (h1, h2, p, family), f"two_point.{side}")


def two_point_equality_check(
    h1: Field, h2: Field, family: str = "sch", *, suite="two_point", case_id="parallelogram"
) -> CheckReport:
    """p = 2: both two-point sides agree with constant exactly 1."""
    n1 = field_norm(h1, 2.0, family)
    n2 = field_norm(h2, 2.0, family)
    mean2 = _mean_p(h1, h2, 2.0, family)
    rhs = power_sum((n1, n2), 2.0)
    return equality_report(suite, case_id, 2.0, mean2, rhs, (h1, h2, family), "parallelogram")


def two_point_critical_constant(h1: Field, h2: Field, p, family: str = "sch") -> float:
    """The constant that makes the two-point inequality tight for this pair.

    nan when ||H2|| = 0 (any constant works there).
    """
    pv = _finite_interior(p)
    n1 = field_norm(h1, pv, family)
    n2 = field_norm(h2, pv, family)
    if n2 == 0.0:
        return math.nan
    return (_mean_p(h1, h2, pv, family) ** 2 - n1**2) / n2**2


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
    pv = _finite_interior(p)
    if eps <= 0.0:
        return 0.0
    if pv <= 2.0:
        q = pv / (pv - 1.0)
        return max((eps / 2.0) ** q / q, two_point_lower_constant(pv) * eps**2 / 8.0)
    return (eps / 2.0) ** pv / pv


def smoothness_upper_bound(p, t: float) -> float:
    """Proved upper bound for the modulus of smoothness at t.

    1 < p <= 2: t^p / p;  p > 2: min(t^q / q, C_p t^2 / 2), q conjugate to p.
    """
    pv = _finite_interior(p)
    if t <= 0.0:
        return 0.0
    if pv <= 2.0:
        return t**pv / pv
    q = pv / (pv - 1.0)
    return min(t**q / q, two_point_upper_constant(pv) * t * t / 2.0)


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

    def passed(self) -> bool:
        if self.skipped:
            return True
        margin = tolerance(self.bound)
        if self.kind == "convexity_lower":
            return self.estimate >= self.bound - margin
        if self.kind == "smoothness_upper":
            return self.estimate <= self.bound + margin
        raise ValueError(f"unknown modulus kind {self.kind!r}")


def default_eps_bins() -> tuple[float, ...]:
    """Bin lower edges 0.1 .. 1.9 (width 0.1) covering separations in (0, 2)."""
    return tuple(round(0.1 * k, 10) for k in range(1, 20))


# Complex entries held per stacked batch of fields (every entry's stack of
# one chunk of draws, or of one chunk of signed sums): bounds the memory of
# the samplers and of the sign averages whatever the model size.
_CHUNK_ENTRIES = 1 << 16


def _draws(model: DualModel, keys, start: int, rows: int):
    """Pairs start .. start + rows - 1: ginibre batches a and b, and cos t, sin t.

    t is each pair's mixing angle, uniform on [0, pi].  ``keys`` are the
    three stream keys of the sampler call (a, b, t), and pair k reads row k
    of each stream, so a pair's values never depend on the chunk it is
    drawn in.
    """
    key_a, key_b, key_t = keys
    a = random_stacks(model, key_a, start, rows)
    b = random_stacks(model, key_b, start, rows)
    t = math.pi * random_uniforms(key_t, start, rows)
    return a, b, np.cos(t), np.sin(t)


def _unit_pairs(model: DualModel, p: float, family: str, seed: int, samples: int):
    """Yield chunks (h1, h2) of unit-norm pairs whose separation sweeps the whole of (0, 2).

    h1 is a normalized ginibre draw; h2 mixes it with an independent draw
    at a uniformly random angle, so near-equal and near-antipodal pairs both
    occur.  Only unit-norm membership matters for soundness of the modulus
    estimates.  Each chunk holds its pairs as two batch Fields.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    keys = [mix_seed(seed, stream) for stream in ("a", "b", "t")]
    step = max(1, _CHUNK_ENTRIES // sum(d * d for d in model.dims))
    for start in range(0, samples, step):
        a, b, cos_t, sin_t = _draws(model, keys, start, min(step, samples - start))
        norm_a, norm_b = field_norm(a, p, family), field_norm(b, p, family)
        if not (norm_a.all() and norm_b.all()):
            raise ZeroDivisionError("a ginibre draw has zero norm")
        h1, g = (1.0 / norm_a) * a, (1.0 / norm_b) * b
        mixed = cos_t * h1 + sin_t * g
        norm = field_norm(mixed, p, family)
        flat = norm == 0.0  # measure-zero degenerate mix; fall back to the raw draw
        if flat.any():
            mixed, norm = mixed + flat * g, np.where(flat, 1.0, norm)
        yield h1, (1.0 / norm) * mixed


def modulus_convexity_sample(
    model: DualModel,
    p,
    family: str,
    eps_bins=None,
    samples: int = 1000,
    seed: int = 0,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> list[ModulusEstimate]:
    """Per-bin sampled infimum of 1 - ||(H1+H2)/2|| over unit pairs.

    Pairs are binned by ||H1 - H2||, each in the first bin whose range
    [e, e + bin_width) holds it; each bin's estimate is compared against the
    proved lower bound at the bin's lower edge (the bound is increasing, so
    that comparison is sound for every pair landing in the bin).
    """
    pv = _finite_interior(p)
    edges = tuple(float(e) for e in (default_eps_bins() if eps_bins is None else eps_bins))
    if any(not (0.0 <= e <= 2.0) for e in edges):
        raise ValueError("bin edges must lie in [0, 2]")
    best = {e: math.inf for e in edges}
    counts = {e: 0 for e in edges}
    for h1, h2 in _unit_pairs(model, pv, family, seed, samples):
        eps = field_norm(h1 - h2, pv, family)
        midgap = 1.0 - field_norm(0.5 * (h1 + h2), pv, family)
        free = np.ones(eps.shape, dtype=bool)
        for e in edges:
            hit = free & (e <= eps) & (eps < e + bin_width)
            if hit.any():
                counts[e] += int(hit.sum())
                best[e] = min(best[e], float(midgap[hit].min()))
                free &= ~hit
    out = []
    for e in edges:
        n = counts[e]
        est = best[e] if n else math.nan
        out.append(
            ModulusEstimate(
                epsilon_or_t=e,
                estimate=est,
                bound=convexity_lower_bound(pv, e),
                kind="convexity_lower",
                samples=n,
            )
        )
    return out


def modulus_smoothness_sample(
    model: DualModel,
    p,
    family: str,
    t_grid=(0.1, 0.5, 1.0),
    samples: int = 1000,
    seed: int = 0,
) -> list[ModulusEstimate]:
    """Per-t sampled supremum of (||H1 + t H2|| + ||H1 - t H2||)/2 - 1."""
    pv = _finite_interior(p)
    ts = [float(t) for t in t_grid]
    if any(t < 0.0 for t in ts):
        raise ValueError("smoothness grid points must be non-negative")
    best = [-math.inf] * len(ts)
    for h1, h2 in _unit_pairs(model, pv, family, seed, samples):
        for i, t in enumerate(ts):
            plus, minus = field_norm(h1 + t * h2, pv, family), field_norm(h1 - t * h2, pv, family)
            best[i] = max(best[i], float(((plus + minus) / 2.0 - 1.0).max()))
    return [
        ModulusEstimate(
            epsilon_or_t=t,
            estimate=(best[i] if samples else math.nan),
            bound=smoothness_upper_bound(pv, t),
            kind="smoothness_upper",
            samples=samples,
        )
        for i, t in enumerate(ts)
    ]


# -- Rademacher averages, type and cotype ------------------------------------


def rademacher_average(fields, p, family: str = "sch", r: float = 2.0) -> float:
    """(mean over all sign patterns of ||sum theta_j H_j||^r)^(1/r), exact.

    The norm is even, so the mean runs over the 2^(n-1) patterns with
    theta_0 = +1 only; pattern k sets theta_j = -1 for each set bit j - 1 of
    k.  A chunk of patterns is one (c, n) sign matrix, contracted with each
    entry's (n, d, d) stack of summands into a batch Field of c signed sums
    whose norms take one batched reduction.  A chunk's sign matrix and
    signed sums together hold at most _CHUNK_ENTRIES entries, whatever n.
    """
    fields = list(fields)
    n = len(fields)
    if n == 0:
        return 0.0
    if n > RADEMACHER_MAX_TERMS:
        raise ValueError(f"at most {RADEMACHER_MAX_TERMS} summands (got {n})")
    if not 0.0 < r < math.inf:
        raise ValueError(f"average order r must be positive and finite, got {r}")
    model = fields[0].model
    if any(f.model != model for f in fields):
        raise ValueError("fields live over different dual models")
    stacks = [np.stack(blocks).view(np.float64) for blocks in zip(*(f.blocks for f in fields))]
    half = 2 ** (n - 1)
    step = max(1, _CHUNK_ENTRIES // (n + sum(d * d for d in model.dims)))
    total = 0.0
    for start in range(0, half, step):
        k = np.arange(start, min(start + step, half))
        signs = np.ones((k.size, n))
        signs[:, 1:] -= 2.0 * ((k[:, None] >> np.arange(n - 1)) & 1)
        # real signs times the real view of each stack: (re, im) pairs sum alike
        sums = _trusted(model, [np.tensordot(signs, s, axes=1).view(np.complex128) for s in stacks])
        total += float(np.sum(field_norm(sums, p, family) ** r))
    return (total / half) ** (1.0 / r)


def type_cotype_check(
    fields, p, family: str = "sch", *, suite="type_cotype", case_id="type_cotype"
) -> CheckReport:
    """Two-sided comparison of the L2 sign average with power sums of norms.

    1 < p <= 2: sqrt(c_p) (sum ||H_j||^2)^(1/2) <= avg <= (sum ||H_j||^p)^(1/p);
    2 <= p:     (sum ||H_j||^p)^(1/p) <= avg <= sqrt(C_p) (sum ||H_j||^2)^(1/2).
    The reported slack is the smaller of the two one-sided slacks.
    """
    fields = list(fields)
    pv = _finite_interior(p)
    avg2 = rademacher_average(fields, pv, family, r=2.0)
    return _type_cotype_report(fields, pv, family, avg2, suite, case_id)


def _type_cotype_report(fields, pv: float, family: str, avg2: float, suite, case_id) -> CheckReport:
    """type_cotype_check's report for the L2 sign average ``avg2`` of ``fields``."""
    norms = [field_norm(f, pv, family) for f in fields]
    l2_sum = power_sum(norms, 2.0)
    lp_sum = power_sum(norms, pv)
    if pv <= 2.0:
        lower = math.sqrt(two_point_lower_constant(pv)) * l2_sum
        upper = lp_sum
    else:
        lower = lp_sum
        upper = math.sqrt(two_point_upper_constant(pv)) * l2_sum
    slack = min(avg2 - lower, upper - avg2)
    inputs = (fields, pv, family)
    return check_report(suite, case_id, pv, lower, upper, slack, inputs, "type_cotype")


# -- Kadec-Klee gap and unconditional-sum comparison --------------------------


def kadec_klee_gap(
    hn: Field, h: Field, p, family: str = "sch", *, suite="kadec_klee", case_id="gap"
) -> CheckReport:
    """Rearranged Clarkson bound forcing norm convergence.

    With e = q for p <= 2 and e = p for p >= 2 (q conjugate, f the other one)
    and m = ((||Hn||^f + ||H||^f) / 2)^(1/f), the midpoint difference obeys

        ||(Hn - H)/2||^e <= m^e - ||(Hn + H)/2||^e.

    Both sides are homogeneous of degree e, so the report gives them in units
    of m^e: lhs = (||(Hn - H)/2|| / m)^e and rhs = 1 - (||(Hn + H)/2|| / m)^e,
    both in [0, 1].  The rhs tends to 0 whenever ||Hn|| -> ||H|| and
    ||(Hn + H)/2|| -> ||H||.
    """
    pv = _finite_interior(p)
    q = pv / (pv - 1.0)
    e, f = (q, pv) if pv <= 2.0 else (pv, q)
    diff = field_norm(0.5 * (hn - h), pv, family)
    mid = field_norm(0.5 * (hn + h), pv, family)
    m = _mean(field_norm(hn, pv, family), field_norm(h, pv, family), f) or 1.0  # 0: both are 0
    lhs, rhs = (diff / m) ** e, 1.0 - (mid / m) ** e
    return inequality_report(suite, case_id, pv, lhs, rhs, (hn, h, pv, family), "kadec_klee_gap")


def unconditional_sum_bound(
    fields, p, family: str = "sch", *, suite="kadec_klee", case_id="sum_bound"
) -> CheckReport:
    """Finite comparison behind summability of unconditionally convergent series.

    sum ||H_j||^e <= K * sum (convexity lower bound at ||H_j||), e = max(2, p),
    K = 8/c_p for p <= 2 and p 2^p for p > 2, reported in units of 2^e (no
    term exceeds 1, so no exponent overflows).  This is an arithmetic
    consistency check on the bound functions; norms above 2 are rejected
    because the modulus is only defined up to separation 2.
    """
    pv = _finite_interior(p)
    norms = [field_norm(f, pv, family) for f in fields]
    over = [v for v in norms if v > 2.0]
    if over:
        raise ValueError(f"{len(over)} summand norm(s) exceed 2; rescale the inputs")
    lhs = sum((v / 2.0) ** max(2.0, pv) for v in norms)
    constant = 2.0 / two_point_lower_constant(pv) if pv <= 2.0 else pv  # K / 2^e
    rhs = constant * sum(convexity_lower_bound(pv, v) for v in norms if v > 0.0)
    inputs = (fields, pv, family)
    return inequality_report(suite, case_id, pv, lhs, rhs, inputs, "unconditional_sum")
