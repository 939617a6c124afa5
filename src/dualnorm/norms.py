"""The two p-norm families over a dual model, and their basic inequalities.

For a field H over entries of dimensions d(xi):

* Schatten family:        ||H||_sch,p = (sum d(xi) ||H(xi)||_Sp^p)^(1/p),
  with the sup of operator norms at p = inf.
* Hilbert-Schmidt family: ||H||_hs,p  = (sum d(xi)^(2-p/2) ||H(xi)||_HS^p)^(1/p),
  with sup of d(xi)^(-1/2) ||H(xi)||_HS at p = inf.

Each norm is a float for a field and an array for a batch of fields, and
a field's norm is its row's in a batch, bit for bit.  The Schatten family
reduces the field's memoized singular values (``Field.singular_values``), so
one field's norms at several exponents cost one factorization per entry; at
p = 2 it takes the Frobenius norm of each block instead (S_2 is the
Hilbert-Schmidt class), with no factorization.
The Hilbert-Schmidt family takes one Frobenius norm per entry.  Both sum
the entries' norms through ``matcore.power_sum``, each entry's weight folded
into its norm as a factor, so no p in [1, inf] overflows.

The two coincide at p = 2.  For p <= 2 the Schatten norm is dominated by the
Hilbert-Schmidt one, for p >= 2 the domination reverses; products obey the
Holder inequality in the Schatten family.  The check functions here verify
those facts numerically and return CheckReports.  Each check's math is one
private ``_<check>_reports`` helper that takes batches of any shape and
returns a report per row; the public check is its one-row case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matcore
from .dualmodel import (
    DualModel,
    Field,
    field_abs,
    field_adjoint,
    field_product,
    random_field,
)
from .report import CheckReport, equality_report, inequality_report, row_reports

__all__ = [
    "ExponentP",
    "DirectSumSpec",
    "FAMILIES",
    "lp_sch_norm",
    "lp_hs_norm",
    "field_norm",
    "random_unit_field",
    "embedding_check",
    "holder_check",
    "adjoint_norm_check",
    "direct_sum_norm",
]

FAMILIES = ("sch", "hs")


@dataclass(frozen=True)
class ExponentP:
    """An exponent in [1, inf], with conjugate-exponent arithmetic (1/inf = 0)."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v < 1:
            raise ValueError(f"exponent must lie in [1, inf], got {self.value}")
        object.__setattr__(self, "value", v)

    @classmethod
    def parse(cls, text) -> "ExponentP":
        """Accept "inf", finite decimals like "2.5" (not "1e400"), and fractions like "3/2"."""
        if isinstance(text, ExponentP):
            return text
        try:
            if isinstance(text, (int, float)):
                return cls(float(text))
            s = str(text).strip().lower()
            if s in ("inf", "infinity", "oo"):
                return cls(math.inf)
            v = float(Fraction(s)) if "/" in s else float(s)
            if math.isinf(v):
                raise OverflowError("not a finite float; write inf for infinity")
            return cls(v)
        except (ZeroDivisionError, OverflowError) as exc:  # 1/0, or too large for a float
            raise ValueError(f"malformed exponent {text!r}: {exc}") from exc

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    def conjugate(self) -> "ExponentP":
        """q with 1/p + 1/q = 1; a finite p above 2^53, where p - 1 rounds to p, has none."""
        if self.is_inf:
            return ExponentP(1.0)
        if self.value == 1.0:
            return ExponentP(math.inf)
        if self.value > 2**53:
            raise ValueError(f"exponent {self} exceeds 2^53, too large for a conjugate; use inf")
        return ExponentP(self.value / (self.value - 1.0))

    def inv(self) -> float:
        return 0.0 if self.is_inf else 1.0 / self.value

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return "inf" if self.is_inf else repr(self.value)


def _pval(p) -> float:
    return float(ExponentP.parse(p).value)


@dataclass(frozen=True)
class DirectSumSpec:
    """Exponent and weight of a weighted two-slot direct sum."""

    r: ExponentP
    w: float

    def __post_init__(self):
        object.__setattr__(self, "r", ExponentP.parse(self.r))
        if not (self.w > 0):
            raise ValueError(f"direct-sum weight must be positive, got {self.w}")


def _lp(h: Field, values, power: float, p: float):
    """power_sum at p of the entries' norms v_i, each scaled by d_i^power.

    The scale d^power carries the family's weight d^(p power) into the sum:
    1/p for sch and 2/p - 1/2 for hs, which at p = inf give 1 and d^(-1/2).
    A float for a single field, an array of the batch shape for a batch.
    """
    return matcore.power_sum([d**power * v for d, v in zip(h.model.dims, values)], p)


def lp_sch_norm(h: Field, p):
    """Schatten-family norm (sum d ||block||_Sp^p)^(1/p); sup of op norms at inf.

    Frobenius norms at p = 2, and a reduction of ``h.singular_values`` at every other p.
    """
    p = _pval(p)
    if p == 2.0:
        return _lp(h, [matcore.schatten_norm(b, p) for b in h.blocks], 1.0 / p, p)
    return _sch_norm_from_sigma(h, p)


def _sch_norm_from_sigma(h: Field, p: float):
    """The Schatten-family norm reduced from ``h.singular_values``, at any p (2 included)."""
    return _lp(h, [matcore._power_sum_sorted(s, p) for s in h.singular_values], 1.0 / p, p)


def lp_hs_norm(h: Field, p):
    """Hilbert-Schmidt-family norm with dim^(2 - p/2) weights; see module doc."""
    p = _pval(p)
    return _lp(h, [matcore.hs_norm(b) for b in h.blocks], 2.0 / p - 0.5, p)


def field_norm(h: Field, p, family: str):
    if family == "sch":
        return lp_sch_norm(h, p)
    if family == "hs":
        return lp_hs_norm(h, p)
    raise ValueError(f"unknown norm family {family!r}")


def random_unit_field(model: DualModel, p, seed: int, family: str = "sch") -> Field:
    """Ginibre draw normalized to unit family-p norm."""
    h = random_field(model, seed, "ginibre")
    return (1.0 / field_norm(h, p, family)) * h


def embedding_check(h: Field, p, *, suite="norms", case_id="embedding") -> CheckReport:
    """One-sided domination between the two families, direction set by p vs 2."""
    return _embedding_reports(h, p, suite, [case_id])[0]


def _embedding_reports(h: Field, p, suite, case_ids) -> list[CheckReport]:
    """embedding_check's report for each row of the batch ``h`` (one for a single field)."""
    pv = _pval(p)
    sch = lp_sch_norm(h, pv)
    hs = lp_hs_norm(h, pv)
    lhs, rhs = (sch, hs) if pv <= 2 else (hs, sch)
    return row_reports(inequality_report, suite, case_ids, pv, lhs, rhs, (h, pv), "embedding")


def holder_check(
    h1: Field, h2: Field, p, q, *, suite="holder", case_id="holder"
) -> CheckReport:
    """||H1 H2||_r <= ||H1||_p ||H2||_q in the Schatten family, 1/r = 1/p + 1/q."""
    return _holder_reports(h1, h2, p, q, suite, [case_id])[0]


def _holder_reports(h1: Field, h2: Field, p, q, suite, case_ids) -> list[CheckReport]:
    """holder_check's report for each row of the batches ``h1``, ``h2``."""
    p = ExponentP.parse(p)
    q = ExponentP.parse(q)
    inv_r = p.inv() + q.inv()
    if inv_r > 1.0 + 1e-15:
        raise ValueError(f"incompatible exponents: 1/{p} + 1/{q} exceeds 1")
    r = math.inf if inv_r == 0.0 else 1.0 / inv_r
    lhs = lp_sch_norm(field_product(h1, h2), r)
    rhs = lp_sch_norm(h1, p) * lp_sch_norm(h2, q)
    inputs = (h1, h2, p.value, q.value)
    return row_reports(inequality_report, suite, case_ids, float(p), lhs, rhs, inputs, "holder")


def adjoint_norm_check(
    h: Field, p, family: str = "sch", *, suite="adjoint", case_id="adjoint"
) -> CheckReport:
    """||H|| = ||H*|| = || |H| || in the chosen family."""
    return _adjoint_reports(h, p, family, suite, [case_id])[0]


def _adjoint_reports(h: Field, p, family: str, suite, case_ids) -> list[CheckReport]:
    """adjoint_norm_check's report for each row of the batch ``h``."""
    pv = _pval(p)
    values = (
        field_norm(h, pv, family),
        field_norm(field_adjoint(h), pv, family),
        field_norm(field_abs(h), pv, family),
    )
    lo, hi = functools.reduce(np.minimum, values), functools.reduce(np.maximum, values)
    return row_reports(
        equality_report, suite, case_ids, pv, hi, lo, (h, pv, family),
        f"adjoint_invariance.{family}", scale=hi,
    )


def direct_sum_norm(x: Field, y: Field, p, spec: DirectSumSpec, family: str = "sch"):
    """(||x||^r + w ||y||^r)^(1/r) on the family-p norms; max(||x||, w ||y||) at r = inf.

    A float for single fields, an array of the batch shape for batches.
    """
    nx = field_norm(x, p, family)
    ny = field_norm(y, p, family)
    weight = spec.w if spec.r.is_inf else spec.w ** (1.0 / spec.r.value)
    return matcore.power_sum([nx, weight * ny], spec.r.value)
