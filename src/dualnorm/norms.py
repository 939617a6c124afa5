"""The two p-norm families over a dual model, and their basic inequalities.

For a field H over entries of dimensions d(xi):

* Schatten family:        ||H||_sch,p = (sum d(xi) ||H(xi)||_Sp^p)^(1/p),
  with the sup of operator norms at p = inf.
* Hilbert-Schmidt family: ||H||_hs,p  = (sum d(xi)^(2-p/2) ||H(xi)||_HS^p)^(1/p),
  with sup of d(xi)^(-1/2) ||H(xi)||_HS at p = inf.

At a fixed p, each family is a subspace of the Schatten class S_p, so every
S_p inequality holds in both.  The Schatten family is the noncommutative L^p
of the direct sum of the M_d with the trace sum d Tr: H maps to the block
diagonal of kron(H(xi), I_d), whose singular values are those of each H(xi)
repeated d times.  The Hilbert-Schmidt family maps H to the block diagonal of
the columns d^((2 - p/2)/p) vec H(xi) (d^(-1/2) at p = inf), whose singular
values are the weighted entry norms.  Both maps are linear isometries, and the
trace pairing of ``duality`` is the plain trace of the product of two
Schatten-family matrices.  ``tests/amplified.py`` computes every norm, pairing
and power this way, with no code of this package, and the tests hold each
report of the batched suites to it.

Each norm is a float for a field and an array for a batch of fields, and
a field's norm is its row's in a batch, bit for bit.  The Schatten family
reduces the field's memoized singular values (``Field.singular_values``), so
one field's norms at several exponents cost one factorization per entry; at
p = 2 it takes the Frobenius norm of each block instead (S_2 is the
Hilbert-Schmidt class), with no factorization.
The Hilbert-Schmidt family takes one Frobenius norm per entry.  Both sum
the entries' norms through ``matcore.power_sum``, each entry's weight folded
into its norm as a factor, so no p in [1, inf] overflows.  ``field_norms``
takes several fields' norms at one exponent from one reduction of their
stack, at every size, row k bit for bit ``field_norm`` of field k, so a check
pays the fixed cost of a reduction once per exponent, not once per field.  The
stack does not read its fields' memos; a stack built once and passed in place
of the fields keeps its own, so it serves every exponent and family.

The two coincide at p = 2.  For p <= 2 the Schatten norm is dominated by the
Hilbert-Schmidt one, for p >= 2 the domination reverses; products obey the
Holder inequality in the Schatten family.  The check functions here verify
those facts numerically and return CheckReports.  Each check is one
function for fields and batches: with one case id it returns the report of
single fields, and with a list of case ids, one per row, the report of each
row of batch fields.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matcore
from .dualmodel import (
    Field,
    _ascii_float,
    _ascii_int,
    _is_real,
    _stack,
    field_abs,
    field_adjoint,
)
from .report import equality_report, inequality_report

__all__ = [
    "ExponentP",
    "DirectSumSpec",
    "FAMILIES",
    "lp_sch_norm",
    "lp_hs_norm",
    "field_norm",
    "field_norms",
    "embedding_check",
    "holder_check",
    "adjoint_norm_check",
    "direct_sum_norm",
]

FAMILIES = ("sch", "hs")


class ExponentP(float):
    """An exponent p in [1, inf]: a float, checked when made from a number or by ``parse``."""

    __slots__ = ()

    def __new__(cls, value):
        if not _is_real(value):
            raise TypeError(f"ExponentP takes a number, got {value!r}; use ExponentP.parse on text")
        p = super().__new__(cls, value)
        if math.isnan(p) or p < 1:
            raise ValueError(f"exponent must lie in [1, inf], got {value}")
        return p

    @classmethod
    def parse(cls, text) -> "ExponentP":
        """Accept a number, "inf" (or "infinity", "oo"), finite decimals like "2.", "2.50" or
        "1e1" (not "1e400") and fractions like "3/2", in ASCII digits: "1_5" and "٣" are
        malformed, as is a bool.  A number keeps its value: np.float32(1.1) is
        float(np.float32(1.1)).
        """
        if isinstance(text, ExponentP):
            return text
        if isinstance(text, bool):
            raise ValueError(f"malformed exponent {text!r}: a bool is not a number")
        try:
            if isinstance(text, numbers.Real):
                return cls(text)
            s = str(text).strip().lower()
            if s in ("inf", "infinity", "oo"):
                return cls(math.inf)
            num, slash, den = s.partition("/")
            v = float(Fraction(_ascii_int(num), _ascii_int(den))) if slash else _ascii_float(s)
            if math.isinf(v):
                raise OverflowError("not a finite float; write inf for infinity")
            return cls(v)
        except (ZeroDivisionError, OverflowError) as exc:  # 1/0, or too large for a float
            raise ValueError(f"malformed exponent {text!r}: {exc}") from exc

    @property
    def is_inf(self) -> bool:
        return math.isinf(self)

    def conjugate(self) -> "ExponentP":
        """The Hölder conjugate q, 1/p + 1/q = 1, not float's complex conjugate (the identity);
        a finite p above 2^53, where p - 1 rounds to p, has none."""
        if self.is_inf:
            return ExponentP(1.0)
        if self == 1.0:
            return ExponentP(math.inf)
        if self > 2**53:
            raise ValueError(f"exponent {self} exceeds 2^53, too large for a conjugate; use inf")
        return ExponentP(self / (self - 1.0))


def _finite_interior(p) -> ExponentP:
    p = ExponentP.parse(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"exponent must lie strictly inside (1, inf), got {p}")
    return p


@dataclass(frozen=True)
class DirectSumSpec:
    """Exponent and weight of a weighted two-slot direct sum."""

    r: ExponentP
    w: float

    def __post_init__(self):
        object.__setattr__(self, "r", ExponentP.parse(self.r))
        try:  # w computes as a float: 10**400 overflows one, Fraction(1, 10**400) rounds to 0
            w = float(self.w) if _is_real(self.w) else math.nan
        except OverflowError:
            w = math.nan
        if not 0.0 < w < math.inf:
            raise ValueError(f"direct-sum weight must be a finite real > 0, got {self.w!r}")


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
    p = ExponentP.parse(p)
    if p == 2.0:
        return _lp(h, [matcore.schatten_norm(b, p) for b in h.blocks], 1.0 / p, p)
    return _sch_norm_from_sigma(h, p)


def _sch_norm_from_sigma(h: Field, p: float):
    """The Schatten-family norm reduced from ``h.singular_values``, at any p (2 included)."""
    return _lp(h, [matcore._power_sum_sorted(s, p) for s in h.singular_values], 1.0 / p, p)


def lp_hs_norm(h: Field, p):
    """Hilbert-Schmidt-family norm with dim^(2 - p/2) weights; see module doc."""
    p = ExponentP.parse(p)
    return _lp(h, [matcore.hs_norm(b) for b in h.blocks], 2.0 / p - 0.5, p)


def field_norm(h: Field, p, family: str):
    if family == "sch":
        return lp_sch_norm(h, p)
    if family == "hs":
        return lp_hs_norm(h, p)
    raise ValueError(f"unknown norm family {family!r}")


def field_norms(fields, p, family: str) -> list:
    """``[field_norm(f, p, family) for f in fields]``, from one reduction of their stack.

    The fields share a model and a batch shape, and row k of their stack reduces
    bit for bit like ``fields[k]``.  The stack is a new field, so it does not read
    the fields' singular-value memos.  ``fields`` may also be that stack itself, a
    batch Field whose rows along its first axis are the fields (``_stack``): built
    once, its own memo then serves every exponent and family it is reduced at.
    """
    if not isinstance(fields, Field):
        fields = list(fields)
        if not fields:
            return []
        fields = _stack(fields)
    elif not fields.batch:
        raise ValueError("a stack of fields needs a batch axis, the axis of its fields")
    norms = field_norm(fields, p, family)
    return list(norms) if fields.batch[1:] else [float(n) for n in norms]


def embedding_check(h: Field, p, *, case_id="embedding"):
    """One-sided domination between the two families, direction set by p vs 2."""
    p = ExponentP.parse(p)
    sch = lp_sch_norm(h, p)
    hs = lp_hs_norm(h, p)
    lhs, rhs = (sch, hs) if p <= 2 else (hs, sch)
    return inequality_report("norms", case_id, p, lhs, rhs, (h, p), "embedding")


def holder_check(h1: Field, h2: Field, p, q, product: Field, *, case_id="holder"):
    """||H1 H2||_r <= ||H1||_p ||H2||_q in the Schatten family, 1/r = 1/p + 1/q.

    ``product`` is ``field_product(h1, h2)``; r is at least 1, as 1/p + 1/q can round above 1.
    """
    p = ExponentP.parse(p)
    q = ExponentP.parse(q)
    inv_r = 1.0 / p + 1.0 / q
    if inv_r > 1.0 + 1e-15:
        raise ValueError(f"incompatible exponents: 1/{p} + 1/{q} exceeds 1")
    r = math.inf if inv_r == 0.0 else max(1.0, 1.0 / inv_r)
    lhs = lp_sch_norm(product, r)
    rhs = lp_sch_norm(h1, p) * lp_sch_norm(h2, q)
    return inequality_report("holder", case_id, p, lhs, rhs, (h1, h2, p, q), "holder")


def _adjoint_stack(h: Field) -> Field:
    """The stack of H, H* and |H| whose norms ``adjoint_norm_check`` compares."""
    return _stack((h, field_adjoint(h), field_abs(h)))


def adjoint_norm_check(h: Field, p, family: str = "sch", *, case_id="adjoint", stack=None):
    """||H|| = ||H*|| = || |H| || in the chosen family.

    ``stack`` is ``_adjoint_stack(h)``, passed where h is checked at several
    exponents or families, so that one stack and its memo serve them all.
    """
    p = ExponentP.parse(p)
    values = field_norms(_adjoint_stack(h) if stack is None else stack, p, family)
    lo, hi = functools.reduce(np.minimum, values), functools.reduce(np.maximum, values)
    return equality_report(
        "adjoint", case_id, p, hi, lo, (h, p, family), f"adjoint_invariance.{family}", scale=hi
    )


def direct_sum_norm(x: Field, y: Field, p, spec: DirectSumSpec, family: str = "sch"):
    """(||x||^r + w ||y||^r)^(1/r) on the family-p norms; max(||x||, w ||y||) at r = inf.

    A float for single fields, an array of the batch shape for batches.
    """
    nx, ny = field_norms((x, y), p, family)
    weight = spec.w if spec.r.is_inf else spec.w ** (1.0 / spec.r)
    return matcore.power_sum([nx, weight * ny], spec.r)
