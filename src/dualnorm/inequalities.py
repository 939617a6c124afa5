"""Two-point norm inequalities, convexity/smoothness moduli, sign averages.

Everything here quantifies how far the p-norm families are from the
parallelogram identity:

* Clarkson inequalities (midpoint vs endpoints, conjugate exponents),
* two-point inequalities with explicit constants 2p - 1 and (p-1)/(p+1),
* sampled lower bounds on the modulus of convexity and upper bounds on that of smoothness,
  from one walk over unit pairs (``_moduli_pairs``) and one reduction (``_moduli_pass``; the
  samplers are its views); the convexity bins tile [0.1, 2) by ``CONVEXITY_EDGES``, and an
  estimate passes, as its report does, when its ``sides`` have rhs - lhs >= -tolerance(rhs),
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
``clarkson_check(h1, h2)``, ``two_point_norms(h1, h2)`` and
``kadec_klee_gap(hn, h)`` are staged: each stacks the fields derived from its
arguments once and returns, in that order, ``check(p, family, *, case_id)``,
``at(p, family)`` and ``check(p, family="sch", *, case_id)``, whose calls all
reduce that stack, so its memo serves every exponent and family.
``_rademacher_averages`` takes every sign average from one walk over the sign
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualmodel import DualModel, Field, _stack, _trusted, mix_seed, random_stacks
from .dualmodel import _guarded, _is_integer, _is_real, random_uniforms
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


def clarkson_check(h1: Field, h2: Field):
    """Clarkson inequality in the check's family (case i for p <= 2, case ii above).

    The check reduces the stack of H1, H2, H1 + H2 and H1 - H2, built once, and
    halves the last two norms: scaling by 1/2 is exact for normal floats, so
    this is ||(H1 +- H2)/2|| to the bit.
    """
    stack = _stack((h1, h2, h1 + h2, h1 - h2))

    def check(p, family: str, *, case_id="clarkson"):
        p = _finite_interior(p)
        n1, n2, plus, minus = field_norms(stack, p, family)
        e, f = (p.conjugate(), p) if p <= 2.0 else (p, p.conjugate())
        lhs = power_sum((0.5 * plus, 0.5 * minus), e)
        rhs = _mean(n1, n2, f)
        case = "i" if p <= 2.0 else "ii"
        inputs = (h1, h2, p, family)
        return inequality_report(
            "clarkson", case_id, p, lhs, rhs, inputs, f"clarkson.{family}.case_{case}"
        )

    return check


# -- Two-point inequalities with explicit constants --------------------------


def two_point_norms(h1: Field, h2: Field):
    """||H1||, ||H2|| and (mean of ||H1 +- H2||^p)^(1/p): the norms the two-point checks share.

    ``at(p, family)`` reduces the stack of H1, H2, H1 + H2 and H1 - H2, built once.
    """
    stack = _stack((h1, h2, h1 + h2, h1 - h2))

    def at(p, family: str):
        p = _finite_interior(p)
        n1, n2, plus, minus = field_norms(stack, p, family)
        return n1, n2, _mean(plus, minus, p)

    return at


def two_point_check(h1: Field, h2: Field, p, family: str, norms, *, case_id="two_point"):
    """Two-point inequality with the proved constant substituted.

    p >= 2: (avg of ||H1 +- H2||^p)^(1/p) <= (||H1||^2 + (2p-1) ||H2||^2)^(1/2);
    p <= 2: reversed form with (p-1)/(p+1) on the left.  At p = 2 the upper
    form applies, with 2p - 1 = 3; the parallelogram identity, with constant
    1, is ``two_point_equality_check``.  ``norms`` is
    ``two_point_norms(h1, h2)(p, family)``.
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
    return 1.0 - math.sqrt(max(1.0 - eps * eps / 4.0, 0.0))  # max(nan, 0.0) is nan


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
    ValueError where t^p or t^q overflows.
    """
    p = _finite_interior(p)
    if t <= 0.0:
        return 0.0
    try:
        if p <= 2.0:
            return t**p / p
        q = p.conjugate()
        return min(t**q / q, two_point_upper_constant(p) * t * t / 2.0)
    except OverflowError as exc:
        raise ValueError(f"the smoothness bound at t = {t!r} overflows") from exc


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


# Complex entries held per stacked batch of fields (every entry's stack of one chunk
# of draws or of trials; see _chunks, and cli._CHUNK_FIELDS for a suite's trials):
# bounds the memory of the suites and samplers whatever the model size.
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
    """Pairs start .. start + rows - 1: ginibre rows start .. start + rows, and cos t, sin t.

    ``keys`` are the two stream keys of the moduli pass (a, t).  Pair k
    reads rows k and k + 1 of the ginibre stream a, its own draw and its
    neighbour's, and row k of t, its mixing angle, uniform on [0, pi]; so a
    pair's values never depend on the chunk it is drawn in, and the row at a
    chunk boundary is drawn by both chunks with the same bits.
    """
    key_a, key_t = keys
    a = random_stacks(model, key_a, start, rows + 1)
    t = math.pi * random_uniforms(key_t, start, rows)
    return a, np.cos(t), np.sin(t)


def _moduli_pairs(model, p, family, convexity, ts, samples, seed):
    """Each ``_chunks`` range of n unit pairs, in order, as (quotients, separations, gaps).

    ``quotients`` has shape (len(ts), n), row i (||h1 + t_i h2|| + ||h1 - t_i h2||)/2 - 1;
    ``separations`` is ||h1 - h2|| and ``gaps`` 1 - ||(h1 + h2)/2||, both None unless
    ``convexity``.  ``p`` comes from ``_finite_interior``, ``ts`` is a list of floats.  Pair
    k is h1, the normalized row k of one ginibre stream, and h2, which mixes h1 with the
    normalized row k + 1, its neighbour's draw, at a uniformly random angle, so near-equal
    and near-antipodal pairs both occur.  Row k + 1 is independent of row k, so each pair
    has the law of a draw mixed with a fresh one; only neighbouring pairs share a draw, and
    the soundness of the modulus estimates needs unit norms only.  A chunk of n pairs draws
    n + 1 rows, normalizes them with one ``field_norm`` and mixes them as arrays, and its
    norms at the exponent are one ``field_norm`` of one batch of shape (stacked, n): rows 2i
    and 2i + 1 are h1 + t_i h2 and h1 - t_i h2 for each grid point, and under ``convexity``
    the last two are h1 - h2 and (h1 + h2) / 2.  An overflow raises ValueError.
    """
    keys = [mix_seed(seed, stream) for stream in ("a", "t")]
    stacked = 2 * len(ts) + (2 if convexity else 0)  # fields per pair in the stack of its norms
    for chunk in _chunks(model, samples, stacked):
        a, cos_t, sin_t = _draws(model, keys, chunk.start, len(chunk))
        norm_a = field_norm(a, p, family)
        if not norm_a.all():
            raise ZeroDivisionError("a ginibre draw has zero norm")
        # rows 0 .. n of the unit draws; pair k's h1 is row k and its g row k + 1
        units = _guarded(np.multiply, (1.0 / norm_a)[:, None], a.data)
        h1, g = units[:-1], units[1:]
        mix = _guarded(np.add, cos_t[:, None] * h1, sin_t[:, None] * g)
        norm = field_norm(_trusted(model, mix), p, family)
        stack = _trusted(model, _guarded(_pair_stack, h1, g, mix, norm, ts, convexity))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
            norms = field_norm(stack, p, family)
            quotients = (norms[0 : 2 * len(ts) : 2] + norms[1 : 2 * len(ts) : 2]) / 2.0 - 1.0
        if not (np.isfinite(norms).all() and np.isfinite(quotients).all()):
            raise ValueError(f"a norm or smoothness estimate overflows on the grid {ts!r}")
        yield quotients, *((norms[-2], 1.0 - norms[-1]) if convexity else (None, None))


def _pair_stack(h1, g, mix, norm, ts, convexity):
    """The ``(stacked, n, size)`` buffer of ``_moduli_pairs``: h2 is ``mix`` at unit ``norm``."""
    flat = norm == 0.0
    if flat.any():  # measure-zero degenerate mix; fall back to the raw draw
        mix = mix + flat[:, None] * g
    h2 = (1.0 / np.where(flat, 1.0, norm))[:, None] * mix
    out = np.empty((2 * len(ts) + 2 * convexity, *h1.shape), dtype=np.complex128)
    for i, t in enumerate(ts):
        th2 = t * h2
        np.add(h1, th2, out=out[2 * i])
        np.subtract(h1, th2, out=out[2 * i + 1])
    if convexity:
        np.subtract(h1, h2, out=out[-2])
        np.multiply(0.5, h1 + h2, out=out[-1])
    return out


def _moduli_pass(model, p, family, convexity, t_grid, samples, seed):
    """Both samplers' estimates, (convexity, smoothness), from one walk over the same unit pairs.

    The reduction of ``_moduli_pairs``: each grid point's estimate is its largest
    quotient, and each convexity bin's the least gap of the pairs whose separation
    it holds.  With ``convexity`` false, or an empty ``t_grid``, the walk forms none
    of that estimate's norms, and with neither it draws nothing.
    """
    p = _finite_interior(p)
    ts = [float(t) if _is_real(t) else math.nan for t in t_grid]  # nan fails the check below
    if not all(0.0 <= t < math.inf for t in ts):
        raise ValueError(f"smoothness grid points must be finite non-negative reals: {t_grid!r}")
    if not (_is_integer(samples) and _is_integer(seed) and samples >= 0):
        raise ValueError(f"samples and seed must be integers, samples >= 0: {samples!r}, {seed!r}")
    if not (convexity or ts):
        return [], []
    bounds = [smoothness_upper_bound(p, t) for t in ts]  # before drawing: a bound may overflow
    bins = len(CONVEXITY_EDGES) - 1
    lowest, counts = np.full(bins, math.inf), np.zeros(bins, dtype=int)
    highest = np.full(len(ts), -math.inf)
    for quotients, eps, gaps in _moduli_pairs(model, p, family, convexity, ts, samples, seed):
        highest = np.maximum(highest, quotients.max(axis=1))
        if convexity:
            # unit pairs lie at most 2 apart: a separation rounded up to 2 counts just below it
            eps = np.minimum(eps, np.nextafter(2.0, 0.0))
            k = np.searchsorted(CONVEXITY_EDGES, eps, side="right") - 1
            hit = k >= 0  # -1: below the first edge, in no bin
            counts += np.bincount(k[hit], minlength=bins)
            np.minimum.at(lowest, k[hit], gaps[hit])
    edges = CONVEXITY_EDGES[:-1] if convexity else ()
    return (
        [ModulusEstimate(e, float(lowest[k]) if counts[k] else math.nan,
                         convexity_lower_bound(p, e), "convexity_lower", int(counts[k]))
         for k, e in enumerate(edges)],
        [ModulusEstimate(t, float(highest[i]) if samples else math.nan, bounds[i],
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
    if not fields:
        return 0.0
    if len(fields) > RADEMACHER_MAX_TERMS:
        raise ValueError(f"at most {RADEMACHER_MAX_TERMS} summands (got {len(fields)})")
    return _rademacher_averages(_stack(fields), [(p, family)])[0]


def _rademacher_averages(summands: Field, pairs):
    """``rademacher_average`` of the rows of ``summands`` (the ``_stack`` of at most
    RADEMACHER_MAX_TERMS summands) at each (p, family) of ``pairs``, in order.

    Each run's sums are formed once and reduced at every pair, so the Schatten
    norms at every exponent but 2 share one factorization of each run; each
    pair's total adds its run norms in pattern order, so its average is that of
    ``rademacher_average`` at that pair alone, bit for bit.
    """
    model, (n, *batch) = summands.model, summands.batch
    rows = math.prod(batch)
    data = summands.data.reshape(n, rows, model.size)
    bits = min(n - 1, max(0, (_SIGN_TABLE_ENTRIES // model.size).bit_length() - 1))
    half = 2 ** (n - 1)
    averages = [[] for _ in pairs]
    for chunk in _chunks(model, rows, 2**bits):
        # an (n, rows, 2 size) real view: real signs sum (re, im) pairs alike
        stack = data[:, chunk.start:chunk.stop].view(np.float64)
        e = _scale_exponent(np.abs(stack).max(axis=(0, 2)))
        stack = stack * np.ldexp(1.0, -e)[:, None]
        low = stack[:1]
        for j in range(1, bits + 1):  # entry i + 2^(j-1) takes -H_j where entry i takes +H_j
            low = np.concatenate([low + stack[j], low - stack[j]])
        totals = [np.zeros((1, len(chunk))) for _ in pairs]
        for h in range(half >> bits):  # each run of patterns with equal high bits h
            high = np.zeros(stack.shape[1:])
            for j in range(bits + 1, n):
                if (h >> (j - 1 - bits)) & 1:
                    high -= stack[j]
                else:
                    high += stack[j]
            sums = _trusted(model, (low + high).view(np.complex128))
            for i, (p, family) in enumerate(pairs):
                terms = np.square(field_norm(sums, p, family))
                totals[i] = np.add.accumulate(np.concatenate([totals[i], terms]))[-1:]
        for found, total in zip(averages, totals):
            found.append(np.ldexp(np.power(total[0] / half, 1.0 / 2.0), e))
    # np.zeros(0): with no rows there is no chunk
    shaped = [np.concatenate([np.zeros(0), *found]).reshape(batch) for found in averages]
    return [average if batch else float(average) for average in shaped]


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


def kadec_klee_gap(hn: Field, h: Field):
    """Rearranged Clarkson bound forcing norm convergence.

    With e = q for p <= 2 and e = p for p >= 2 (q conjugate, f the other one)
    and m = ((||Hn||^f + ||H||^f) / 2)^(1/f), the midpoint difference obeys

        ||(Hn - H)/2||^e <= m^e - ||(Hn + H)/2||^e.

    Both sides are homogeneous of degree e, so the report gives them in units
    of m^e: lhs = (||(Hn - H)/2|| / m)^e and rhs = 1 - (||(Hn + H)/2|| / m)^e,
    both in [0, 1].  The rhs tends to 0 whenever ||Hn|| -> ||H|| and
    ||(Hn + H)/2|| -> ||H||.  The check reduces the stack of Hn - H, Hn + H, Hn and H,
    built once, with h broadcast to the rows of hn, and halves the first two norms (exactly).
    """
    batch = np.broadcast_shapes(hn.batch, h.batch)  # a single limit h serves every row of hn
    stack = _stack([hn - h, hn + h] + [
        _trusted(x.model, np.broadcast_to(x.data, (*batch, x.model.size))) for x in (hn, h)
    ])

    def check(p, family: str = "sch", *, case_id="gap"):
        p = _finite_interior(p)
        e, f = (p.conjugate(), p) if p <= 2.0 else (p, p.conjugate())
        diff, total, n_hn, n_h = field_norms(stack, p, family)
        m = _mean(n_hn, n_h, f)
        m = np.where(m == 0.0, 1.0, m)  # 0: both are 0
        lhs, rhs = np.power(0.5 * diff / m, e), 1.0 - np.power(0.5 * total / m, e)
        inputs = (hn, h, p, family)
        return inequality_report("kadec_klee", case_id, p, lhs, rhs, inputs, "kadec_klee_gap")

    return check


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
