"""Dense complex-matrix kernel.

Everything downstream (norms, extremizers, witnesses) reduces to a handful of
operations on small dense complex matrices: adjoints, singular values and
singular value decompositions; |a| and every power of a matrix are composed
from an SVD (``dualmodel.field_abs``, the extremizer and the witnesses).

Every kernel takes a square matrix or a ``(*batch, d, d)`` stack of them
and works over the last two axes.  The kernels check shapes only (through
``_square``): finiteness is checked where data enters the package, and there
is no validating constructor here.
:func:`singular_values` is the one source of singular values: ``|a|`` for
1 x 1 blocks, a closed form for 2 x 2 matrices (``_sigma2``; a single matrix
is the one-row stack), and LAPACK, values only, otherwise.
:func:`schatten_norm` reduces them, except at p = 2, where S_2 is the
Hilbert-Schmidt class and the norm is the Frobenius sum :func:`hs_norm`, with
no factorization.  No reduction depends on its input's magnitude: every l^p
sum (:func:`power_sum`, the sorted sums of singular values) divides its
terms by the largest (``_largest_term``), so no exponent in [1, inf]
overflows, and every sum of squares (``_sigma2``, :func:`hs_norm`, the sign
average and critical constant of ``inequalities``) is formed in units of the
power of two that brings the largest value into [1/2, 1) (``_scale_exponent``).
A single matrix must reduce to the bits of its row in a stack: no reduction
forks on the number of rows, and every power is ``np.power``, since ``**`` on
a float scalar calls C ``pow``, which may differ from the array loop.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FactorizationError",
    "SvdResult",
    "adjoint",
    "svd",
    "svd_compose",
    "singular_values",
    "power_sum",
    "schatten_norm",
    "hs_norm",
]

class FactorizationError(RuntimeError):
    """A singular value decomposition failed to converge."""


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return np.swapaxes(np.asarray(a), -1, -2).conj()


def svd_compose(u: np.ndarray, values: np.ndarray, vstar: np.ndarray) -> np.ndarray:
    """u @ diag(values) @ vstar, broadcast over stacks (``values`` along its last axis)."""
    return (u * values[..., None, :]) @ vstar


@dataclass(frozen=True)
class SvdResult:
    """Factorization a = u @ diag(sigma) @ vstar with unitary u, vstar (stacked for a stack)."""

    u: np.ndarray
    sigma: np.ndarray
    vstar: np.ndarray


def svd(a: np.ndarray) -> SvdResult:
    """Singular value decomposition of a square matrix or stack, sigma non-increasing."""
    a = _square(a)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge for shape {a.shape}") from exc
    return SvdResult(u=u, sigma=s, vstar=vh)


def _square(a) -> np.ndarray:
    """``a`` as a complex128 matrix or stack of matrices, square over its last two axes."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected non-empty square matrices, got shape {a.shape}")
    return a


def _largest_term(top):
    """``top``, the divisor of a sum scaled by its largest term; 5e-324 for an all-zero sum."""
    return np.maximum(top, math.ulp(0.0))


def _scale_exponent(m):
    """e with m / 2^e in [1/2, 1) (0 at m = 0), at least -1022 so that 2^-e is finite."""
    return np.maximum(np.frexp(m)[1], -1022)


def power_sum(values, r: float):
    """(sum_i v_i^r)^(1/r) of non-negative values v_i, and their maximum at r = inf.

    ``values`` is a sequence of floats or of same-shape arrays, reduced
    elementwise (so an array is reduced over its first axis), in any order;
    a result of shape () is a float (0 if ``values`` is empty).  Each term
    is divided by the largest (``_largest_term``) before it is raised to r
    (E. Anderson, "Algorithm 978: Safe Scaling in the Level 1 BLAS", TOMS 2017).
    """
    if not len(values):
        return 0.0
    top = functools.reduce(np.maximum, values)
    if not math.isinf(r):
        c = _largest_term(top)
        top = np.power(sum(np.power(v / c, r) for v in values), 1.0 / r) * c
    return top if np.ndim(top) else float(top)


def _power_sum_sorted(s: np.ndarray, r: float):
    """:func:`power_sum` over the last axis of ``s``, sorted non-increasing along it (sigma)."""
    top = s[..., 0][()]  # a numpy scalar for one matrix's values
    if math.isinf(r) or s.shape[-1] == 1:
        return top
    rest = s[..., 1:] / _largest_term(top)[..., None]
    return np.power(1.0 + np.power(rest, r).sum(axis=-1), 1.0 / r) * top


def _sigma2(a: np.ndarray) -> np.ndarray:
    """Singular values of a stack of 2 x 2 matrices, non-increasing along the last axis.

    A closed form in place of LAPACK (the idea of LAPACK's dlas2; Demmel &
    Kahan 1990).  The unit vector u = a[:, 0] / f, f = |a[:, 0]|, triangularizes
    a up to phases as [[f, g], [0, h]], with g = |u* a[:, 1]| and
    h = |u0 a11 - u1 a01|, whose singular values are
    s0 = (hypot(f + h, g) + hypot(f - h, g)) / 2 and s1 = (f / s0) h.
    Each matrix is first scaled by 2^-e, e the ``_scale_exponent`` of its
    largest entry, so neither huge nor subnormal entries overflow or lose
    digits.  A first column below the normal range (f < tiny, zero included)
    takes u = (1, 0), at an error of order f, far below the rounding of s0
    (which is at least the largest entry).
    """
    r = np.abs(a)
    m = np.maximum(np.maximum(r[..., 0, 0], r[..., 0, 1]), np.maximum(r[..., 1, 0], r[..., 1, 1]))
    e = _scale_exponent(m)
    a = a * np.ldexp(1.0, -e)[..., None, None]
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    f = np.hypot(np.abs(a00), np.abs(a10))
    pad = f < np.finfo(np.float64).tiny  # u = (1, 0), up to a negligible u1
    inv = 1.0 / (f + pad)
    u0, u1 = (a00 + pad) * inv, a10 * inv
    g = np.abs(u0.conj() * a01 + u1.conj() * a11)
    h = np.abs(u0 * a11 - u1 * a01)
    s0 = (np.hypot(f + h, g) + np.hypot(f - h, g)) / 2
    s1 = np.minimum(np.divide(f, s0, out=np.zeros_like(f), where=s0 > 0) * h, s0)
    return np.ldexp(np.stack([s0, s1], axis=-1), e[..., None])


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a square matrix or stack, non-increasing along the last axis.

    ``|a_00|`` for 1 x 1 matrices, the closed form ``_sigma2`` for 2 x 2
    matrices, and one (stacked) LAPACK SVD, values only, otherwise.
    """
    a = _square(a)
    if a.shape[-1] == 1:
        return np.abs(a[..., 0, :])
    if a.shape[-1] == 2:
        return _sigma2(a) if a.ndim > 2 else _sigma2(a[None])[0]
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("SVD did not converge") from exc


def schatten_norm(a: np.ndarray, p: float):
    """Schatten p-norm (sum sigma_i^p)^(1/p) of a matrix, or of every matrix of a stack.

    p = inf gives the operator norm.  A 1 x 1 matrix's norm is |a_00| for
    every p; otherwise p = 2 gives the Frobenius norm :func:`hs_norm`, with
    no factorization, and every other p reduces :func:`singular_values`.
    """
    a = _square(a)
    p = float(p)
    if not p >= 1:  # nan included
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    if p == 2.0 and a.shape[-1] > 1:
        return hs_norm(a)
    return _power_sum_sorted(singular_values(a), p)


# hs_norm recomputes, rescaled, a result below this (its squares near underflow).
# Kept as a fork: rescaling every matrix took about a third more CPU in the moduli samplers.
_HS_RESCALE_BELOW = 1e-150


def hs_norm(a: np.ndarray):
    """Hilbert-Schmidt (Frobenius) norm of a matrix, or of every matrix of a stack.

    A sum of squares over the float64 view (no conjugate copy), which needs a
    contiguous last axis.  A matrix whose sum overflows, or whose result lies
    below _HS_RESCALE_BELOW, where squares lose digits to underflow, is summed
    again from its entries scaled by 2^-e (``_scale_exponent``).
    """
    a = _square(a)
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    x = a.view(np.float64)
    norms = np.sqrt(np.einsum("...ij,...ij->...", x, x))
    low = high = norms
    if norms.ndim:
        low, high = norms.min(initial=math.inf), norms.max(initial=0.0)
    if _HS_RESCALE_BELOW <= low and high < math.inf:
        return norms
    redo = ~(norms >= _HS_RESCALE_BELOW) | (norms == math.inf)
    x = x[redo]
    e = _scale_exponent(np.abs(x).max(axis=(-2, -1)))
    x = x * np.ldexp(1.0, -e)[:, None, None]
    norms = np.array(norms)
    norms[redo] = np.ldexp(np.sqrt(np.einsum("...ij,...ij->...", x, x)), e)
    return norms[()]

