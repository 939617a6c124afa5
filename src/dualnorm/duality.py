"""Trace pairing and the explicit dual-norm extremizer.

The bilinear pairing <H, F> = sum d(xi) Tr(H(xi) F(xi)) realizes the dual of
the Schatten-family p-norm: ||H||_p equals the supremum of |<H, F>| over
unit-q-norm F (1/p + 1/q = 1), and the supremum is attained by the explicit
field built from the polar decomposition of each block,

    F(xi) = (|H(xi)| / ||H||_p)^(p-1) U*(xi),   H(xi) = U(xi) |H(xi)|.

At p = 1 the same formula degenerates to F = U* (so ||F||_inf = 1 and the
pairing still returns ||H||_1); that endpoint is supported here.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .dualmodel import Field, _trusted, mix_seed, random_stacks
from .norms import DirectSumSpec, ExponentP, direct_sum_norm, lp_sch_norm
from .report import CheckReport, inequality_report

__all__ = [
    "pairing",
    "dual_extremizer",
    "dual_norm_via_search",
    "direct_sum_dual_pair_check",
]


def pairing(h: Field, f: Field):
    """Bilinear trace pairing sum d(xi) Tr(H(xi) F(xi)) (no conjugation); an array for batches."""
    if h.model != f.model:
        raise ValueError("fields live over different dual models")
    total = 0.0 + 0.0j
    for (_, dim), a, b in zip(h.model.entries, h.blocks, f.blocks):
        total = total + dim * matcore.trace(a @ b)
    return total


def dual_extremizer(h: Field, p) -> Field:
    """Unit-q-norm field F with <H, F> = ||H||_sch,p; row by row for a batch.

    Blockwise, with H(xi) = W S V* a singular value decomposition (the
    field's memoized ``svd_factors``), |H|^(p-1) U* = V S^(p-1) W*; the zero
    singular values contribute 0 for p > 1 and 1 for p = 1 (unitary
    completion of the partial isometry).  F does not change when H is scaled
    by a positive number.
    """
    p = ExponentP.parse(p)
    if p.is_inf:
        raise ValueError("the extremizer needs a finite exponent")
    norm = lp_sch_norm(h, p)
    if np.any(norm == 0.0):
        raise ValueError("the zero field has no norming functional")
    norm = np.asarray(norm)[..., None]
    blocks = []
    for f in h.svd_factors:
        powered = (f.sigma / norm) ** (p.value - 1.0)  # at most 1; 0**0 = 1 at p = 1
        v, wstar = matcore.adjoint(f.vstar), matcore.adjoint(f.u)
        blocks.append(matcore.svd_compose(v, powered, wstar))
    return _trusted(h.model, blocks)


def dual_norm_via_search(
    h: Field, p, trials: int, seed: int, include_extremizer: bool = True
) -> float:
    """Max of |<H, F>| over random unit-q-norm fields F.

    With the extremizer included as trial 0 this returns ||H||_sch,p (up to
    rounding); random trials alone give a lower bound that never exceeds it.
    """
    p = ExponentP.parse(p)
    if trials < 0:
        raise ValueError("trials must be non-negative")
    q = p.conjugate()
    best = 0.0
    if include_extremizer and not p.is_inf and lp_sch_norm(h, p) > 0.0:
        best = abs(pairing(h, dual_extremizer(h, p)))
    if trials:  # probe k is row k of the search's stream, at unit q-norm
        probes = random_stacks(h.model, mix_seed(seed, "dual_search"), rows=trials)
        units = (1.0 / lp_sch_norm(probes, q)) * probes
        best = max(best, float(np.abs(pairing(h, units)).max()))
    return best


def direct_sum_dual_pair_check(
    h1: Field,
    h2: Field,
    f1: Field,
    f2: Field,
    p,
    spec: DirectSumSpec,
    *,
    suite="duality",
    case_id="direct_sum_pair",
) -> CheckReport:
    """Boundedness of the weighted dual pairing on a two-slot direct sum.

    |<h1,f1> + w^(1/r - 1/s) <h2,f2>| is at most the product of the
    (q, s, 1/w)-norm of (f1, f2) and the (p, r, w)-norm of (h1, h2),
    where q, s are the conjugates of p, r.
    """
    p = ExponentP.parse(p)
    r = spec.r
    if p.is_inf or p.value == 1.0 or r.is_inf or r.value == 1.0:
        raise ValueError("direct-sum duality needs all exponents strictly inside (1, inf)")
    q = p.conjugate()
    s = r.conjugate()
    w = spec.w
    lhs = abs(
        pairing(h1, f1) + w ** (r.inv() - s.inv()) * pairing(h2, f2)
    )
    rhs = direct_sum_norm(f1, f2, q, DirectSumSpec(s, 1.0 / w)) * direct_sum_norm(
        h1, h2, p, spec
    )
    inputs = (h1, h2, f1, f2, p.value, r.value, w)
    return inequality_report(suite, case_id, float(p), lhs, rhs, inputs, "direct_sum_duality")
