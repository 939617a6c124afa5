"""Dense complex-matrix kernel.

Everything downstream (norms, pairings, witnesses) reduces to a handful of
operations on small dense complex matrices: adjoints, traces, singular
values, polar decomposition, absolute values and fractional powers of
positive semidefinite matrices.

Every kernel except :func:`psd_power` takes a square matrix or a
``(*batch, d, d)`` stack of them and works over the last two axes.  The
kernels check shapes only (through ``_square``): finiteness is checked where
data enters the package, and there is no validating constructor here.
:func:`singular_values` is the one source of singular values: ``|a|`` for
1 x 1 blocks, a closed form for 2 x 2 matrices (``_sigma2``; a single matrix
is the one-row stack), and LAPACK, values only, otherwise.
:func:`schatten_norm` reduces them, except at p = 2, where S_2 is the
Hilbert-Schmidt class and the norm is the Frobenius sum :func:`hs_norm`, with
no factorization, rescaled for the matrices whose plain sum of squares would
overflow or underflow.  :func:`power_sum` forms every l^p sum of the package,
scaled by its largest term so that no exponent in [1, inf] overflows.
A single matrix must reduce to the bits of its row in a stack: no reduction
forks on the number of rows, and every power is ``np.power``, since ``**`` on
a float scalar calls C ``pow``, which may differ from the array loop.
:func:`psd_power` is the eigh-based reference the tests compare the SVD
route against; it takes one matrix and rejects non-finite, non-Hermitian
and non-PSD input.

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
    "PolarResult",
    "adjoint",
    "svd",
    "svd_compose",
    "polar",
    "matabs",
    "psd_power",
    "singular_values",
    "power_sum",
    "schatten_norm",
    "hs_norm",
    "trace",
]

# Relative cutoff below which an eigenvalue of a PSD matrix is treated as
# exactly zero (so that 0 raised to any power is 0, not exp(w*log 0)).
EIG_ZERO_RTOL = 1e-12


class FactorizationError(RuntimeError):
    """A matrix factorization (SVD / eigendecomposition) failed to converge."""


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

    def reconstruct(self) -> np.ndarray:
        return svd_compose(self.u, self.sigma, self.vstar)


def svd(a: np.ndarray) -> SvdResult:
    """Singular value decomposition of a square matrix or stack, sigma non-increasing."""
    a = _square(a)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge for shape {a.shape}") from exc
    return SvdResult(u=u, sigma=s, vstar=vh)


@dataclass(frozen=True)
class PolarResult:
    """Factorization a = u @ absval with u unitary and absval Hermitian PSD.

    For rank-deficient input, u is the unitary completion w @ vstar of the
    partial isometry from the SVD a = w @ diag(sigma) @ vstar.
    """

    u: np.ndarray
    absval: np.ndarray


def polar(a: np.ndarray) -> PolarResult:
    """Polar decomposition a = u |a| of a square matrix, or of every matrix of a stack."""
    f = svd(a)
    absval = svd_compose(adjoint(f.vstar), f.sigma, f.vstar)
    # symmetrize against roundoff; |a| is Hermitian by construction
    absval = (absval + adjoint(absval)) / 2
    return PolarResult(u=f.u @ f.vstar, absval=absval)


def matabs(a: np.ndarray) -> np.ndarray:
    """Absolute value (a* a)^(1/2): the positive factor of the polar decomposition."""
    return polar(a).absval


def _eigh_psd(a: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix, with PSD validation.

    Eigenvalues within rtol * max(eig) of zero are clipped to exactly 0.
    """
    a = _square(a)
    if a.ndim != 2 or not np.isfinite(a).all():
        raise ValueError(f"expected one finite matrix, got shape {a.shape}")
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.linalg.norm(a - a.conj().T) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        w, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("eigendecomposition did not converge") from exc
    top = float(w[-1]) if w.size else 0.0
    cutoff = rtol * max(top, 0.0)
    if w.size and float(w[0]) < -1e-10 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.where(w <= cutoff, 0.0, w)
    return w, vecs


def psd_power(a: np.ndarray, w: complex) -> np.ndarray:
    """Power a^w of a Hermitian PSD matrix via its eigendecomposition.

    Each eigenvalue lam maps to exp(w * log(lam)); eigenvalues at (or
    numerically indistinguishable from) zero map to zero for every w,
    including w = 0, so a^0 is the projection onto the support of a.
    """
    lam, vecs = _eigh_psd(a, EIG_ZERO_RTOL)
    powered = np.zeros(lam.shape, dtype=np.complex128)
    pos = lam > 0
    powered[pos] = np.exp(complex(w) * np.log(lam[pos]))
    out = (vecs * powered) @ vecs.conj().T
    if abs(complex(w).imag) == 0.0:
        out = (out + out.conj().T) / 2
    return out


def _square(a) -> np.ndarray:
    """``a`` as a complex128 matrix or stack of matrices, square over its last two axes."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected non-empty square matrices, got shape {a.shape}")
    return a


# Added to power_sum's largest term: a positive scale with no zero guard.
_TINY = float(np.finfo(np.float64).tiny)


def power_sum(values, r: float):
    """(sum_i v_i^r)^(1/r) of non-negative values v_i, and their maximum at r = inf.

    ``values`` is a sequence of floats or of same-shape arrays, reduced
    elementwise (so an array is reduced over its first axis), in any order;
    a result of shape () is a float (0 if ``values`` is empty).  Each term
    is divided by the largest (+ _TINY) before it is raised to r, so no
    power overflows for any r in [1, inf] and a term that underflows is
    below rounding (E. Anderson, "Algorithm 978: Safe Scaling in the Level 1
    BLAS", TOMS 2017).
    """
    if not len(values):
        return 0.0
    top = functools.reduce(np.maximum, values)
    if not math.isinf(r):
        c = top + _TINY
        top = np.power(sum(np.power(v / c, r) for v in values), 1.0 / r) * c
    return top if np.ndim(top) else float(top)


def _power_sum_sorted(s: np.ndarray, r: float):
    """:func:`power_sum` over the last axis of ``s``, sorted non-increasing along it (sigma)."""
    top = s[..., 0][()]  # a numpy scalar for one matrix's values
    if math.isinf(r) or s.shape[-1] == 1:
        return top
    rest = s[..., 1:] / (top + _TINY)[..., None]
    return np.power(1.0 + np.power(rest, r).sum(axis=-1), 1.0 / r) * top


def _sigma2(a: np.ndarray) -> np.ndarray:
    """Singular values of a stack of 2 x 2 matrices, non-increasing along the last axis.

    A closed form in place of LAPACK (the idea of LAPACK's dlas2; Demmel &
    Kahan 1990).  The unit vector u = a[:, 0] / f, f = |a[:, 0]|, triangularizes
    a up to phases as [[f, g], [0, h]], with g = |u* a[:, 1]| and
    h = |u0 a11 - u1 a01|, whose singular values are
    s0 = (hypot(f + h, g) + hypot(f - h, g)) / 2 and s1 = (f / s0) h.
    Each matrix is first scaled by the power of two that brings its largest
    entry into [1/2, 1): that is exact, so neither huge nor subnormal entries
    overflow or lose digits.  A first column below the normal range (f < tiny,
    zero included) takes u = (1, 0), at an error of order f, far below the
    rounding of s0 (which is at least the largest entry).
    """
    r = np.abs(a)
    m = np.maximum(np.maximum(r[..., 0, 0], r[..., 0, 1]), np.maximum(r[..., 1, 0], r[..., 1, 1]))
    e = np.maximum(np.frexp(m)[1], -1022)  # 2^-e stays finite
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
    if p < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    if p == 2.0 and a.shape[-1] > 1:
        return hs_norm(a)
    return _power_sum_sorted(singular_values(a), p)


# hs_norm recomputes, rescaled, a result below this (its squares near underflow).
_HS_RESCALE_BELOW = 1e-150


def hs_norm(a: np.ndarray):
    """Hilbert-Schmidt (Frobenius) norm of a matrix, or of every matrix of a stack.

    A sum of squares over the float64 view (no conjugate copy), which needs a
    contiguous last axis.  A matrix whose sum overflows, or whose result lies
    below _HS_RESCALE_BELOW, where squares lose digits to underflow, is summed
    again after the exact power-of-two scaling of ``_sigma2``.
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
    e = np.maximum(np.frexp(np.abs(x).max(axis=(-2, -1)))[1], -1022)  # 2^-e stays finite
    x = x * np.ldexp(1.0, -e)[:, None, None]
    norms = np.array(norms)
    norms[redo] = np.ldexp(np.sqrt(np.einsum("...ij,...ij->...", x, x)), e)
    return norms[()]


def trace(a: np.ndarray):
    """Sum of diagonal entries: a complex for a matrix, an array for a stack."""
    t = np.trace(_square(a), axis1=-2, axis2=-1)
    return complex(t) if t.ndim == 0 else t
