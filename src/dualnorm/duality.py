"""Trace pairing and the explicit dual-norm extremizer.

The bilinear pairing <H, F> = sum d(xi) Tr(H(xi) F(xi)) realizes the dual of
the Schatten-family p-norm: ||H||_p equals the supremum of |<H, F>| over
unit-q-norm F (1/p + 1/q = 1), and the supremum is attained by the explicit
field built from the polar decomposition of each block,

    F(xi) = (|H(xi)| / ||H||_p)^(p-1) U*(xi),   H(xi) = U(xi) |H(xi)|.

At p = 1 the same formula degenerates to the adjoint of the partial isometry
of H, zero singular values contributing 0 (so ||F||_inf = 1 and the pairing
still returns ||H||_1); that endpoint is supported here.

Each function takes a field or a batch of fields: a value is a float for a
field and an array for a batch, and the direct-sum check gives one report
under one case id and one report per row under a list of case ids.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from . import matcore
from .dualmodel import (
    Field,
    _check_same_model,
    _from_blocks,
    _is_integer,
    _trusted,
    field_adjoint,
    mix_seed,
    random_stacks,
)
from .norms import DirectSumSpec, ExponentP, _finite_interior, direct_sum_norm, lp_sch_norm
from .report import inequality_report

__all__ = [
    "pairing",
    "dual_extremizer",
    "dual_norm_via_search",
    "direct_sum_dual_pair_check",
]


def pairing(h: Field, f: Field):
    """Bilinear trace pairing sum d(xi) Tr(H(xi) F(xi)) (no conjugation); an array for batches."""
    _check_same_model(h, f)
    total = 0.0 + 0.0j
    for (_, dim), a, b in zip(h.model.entries, h.blocks, f.blocks):
        total = total + dim * matcore.trace(a @ b)
    return total


def _power(h: Field, r, missing: str) -> Callable[..., Field]:
    """e -> U (S / ||h||_sch,r)^e V* blockwise for h = U S V* (the SVD memo), 0 where S = 0.

    Formed as exp(e (log(S / s) - log(T) / r)): s is the row's largest singular
    value over all entries, and T = sum d (S / s)^r, in [1, h.model.size], sums
    the same exponentials, so no rounded norm is raised to the power e.  At
    exponents e it is a batch Field of batch shape h.batch + np.shape(e).
    """
    sigma = np.concatenate([f.sigma for f in h.svd_factors], axis=-1)  # every entry's, in order
    top = sigma.max(axis=-1, keepdims=True)
    if np.any(top == 0.0):
        raise ValueError(f"the zero field has no {missing}")
    ratio = sigma / top
    support = ratio > 0
    log = np.log(np.where(support, ratio, 1.0))
    weights = np.where(support, np.repeat(h.model.dims, h.model.dims), 0)  # d per singular value
    x = log - np.log((weights * np.exp(r * log)).sum(axis=-1, keepdims=True)) / r
    ends = np.cumsum(h.model.dims)[:-1]

    def power(e) -> Field:
        e = np.asarray(e)
        axes = h.batch + (1,) * e.ndim  # h's batch axes, then one axis per axis of e
        shape = axes + x.shape[-1:]
        powered = np.where(support.reshape(shape), np.exp(e[..., None] * x.reshape(shape)), 0.0)
        blocks = []
        for f, values in zip(h.svd_factors, np.split(powered, ends, axis=-1)):
            u, vstar = (m.reshape(axes + m.shape[-2:]) for m in (f.u, f.vstar))
            blocks.append(matcore.svd_compose(u, values, vstar))
        return _from_blocks(h.model, blocks)

    return power


def dual_extremizer(h: Field, p) -> Field:
    """Unit-q-norm field F with <H, F> = ||H||_sch,p; row by row for a batch.

    Blockwise, with H(xi) = W S V* a singular value decomposition (the
    field's memoized ``svd_factors``), |H|^(p-1) U* = V S^(p-1) W*, the
    adjoint of ``_power(h, p)(p - 1)``; zero singular values contribute 0,
    so at p = 1 F is the adjoint of H's partial isometry.  F does not change
    when H is scaled by a positive number.
    """
    p = ExponentP.parse(p)
    if p.is_inf:
        raise ValueError("the extremizer needs a finite exponent")
    return field_adjoint(_power(h, p, "norming functional")(p - 1.0))


def dual_norm_via_search(h: Field, p, trials: int, seed: int, start: int = 0):
    """Max of |<H, F>| over random unit-q-norm fields F; an array for a batch ``h``.

    The random probes alone give a lower bound on ||H||_sch,p that never
    exceeds it (``dual_extremizer`` attains the norm); with no trials, and
    for a zero field, it is 0.  Probe j of row k of ``h`` is row
    (start + k) * trials + j of the search's stream, so a single field reads
    rows 0 .. trials - 1, and a batch that is rows ``start ..`` of a larger
    one reads the probes of those rows.
    """
    p = ExponentP.parse(p)
    if not (all(map(_is_integer, (trials, seed, start))) and min(trials, start) >= 0):
        raise ValueError("trials, seed and start must be integers, trials and start non-negative: "
                         f"{trials!r}, {seed!r}, {start!r}")
    if not trials:
        return np.zeros(h.batch) if h.batch else 0.0
    return _search(h, p, _probes(h.model, trials, seed, start, math.prod(h.batch)))


def _probes(model, trials: int, seed: int, start: int, rows: int) -> Field:
    """The probes of rows start .. start + rows - 1 of a search: a batch of shape (rows, trials)."""
    probes = random_stacks(model, mix_seed(seed, "dual_search"), start * trials, rows * trials)
    return _trusted(model, probes.data.reshape(rows, trials, model.size))


def _search(h: Field, p: ExponentP, probes: Field):
    """``dual_norm_via_search`` of h over ``probes``, ``_probes`` of h's rows.

    The probes are scaled to unit q-norm at each call, so probes drawn once serve
    every exponent, their singular values factored once.
    """
    units = (1.0 / lp_sch_norm(probes, p.conjugate())) * probes
    per_row = _trusted(h.model, units.data.reshape(*h.batch, probes.batch[-1], h.model.size))
    h_rows = _trusted(h.model, h.data[..., None, :])
    best = np.abs(pairing(h_rows, per_row)).max(axis=-1)
    return best if h.batch else float(best)


def direct_sum_dual_pair_check(
    h1: Field,
    h2: Field,
    f1: Field,
    f2: Field,
    p,
    spec: DirectSumSpec,
    *,
    case_id="direct_sum_pair",
):
    """Boundedness of the weighted dual pairing on a two-slot direct sum.

    |<h1,f1> + w^(1/r - 1/s) <h2,f2>| is at most the product of the
    (q, s, 1/w)-norm of (f1, f2) and the (p, r, w)-norm of (h1, h2),
    where q, s are the conjugates of p, r.
    """
    p, r, w = _finite_interior(p), _finite_interior(spec.r), spec.w
    q, s = p.conjugate(), r.conjugate()
    lhs = abs(pairing(h1, f1) + w ** (1.0 / r - 1.0 / s) * pairing(h2, f2))
    rhs = direct_sum_norm(f1, f2, q, DirectSumSpec(s, 1.0 / w)) * direct_sum_norm(
        h1, h2, p, spec
    )
    inputs = (h1, h2, f1, f2, p, r, w)
    return inequality_report("duality", case_id, p, lhs, rhs, inputs, "direct_sum_duality")
