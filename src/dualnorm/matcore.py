"""Dense complex-matrix kernel.

Everything downstream (norms, pairings, witnesses) reduces to a handful of
operations on small dense complex matrices: adjoints, traces, singular
values, polar decomposition, absolute values and fractional powers of
positive semidefinite matrices.  Matrices are plain 2-D ``complex128``
numpy arrays; :func:`cmatrix` is the validating constructor.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FactorizationError",
    "SvdResult",
    "PolarResult",
    "cmatrix",
    "adjoint",
    "svd",
    "polar",
    "matabs",
    "psd_power",
    "schatten_norm",
    "stacked_schatten_norm",
    "hs_norm",
    "trace",
]

# Relative cutoff below which an eigenvalue of a PSD matrix is treated as
# exactly zero (so that 0 raised to any power is 0, not exp(w*log 0)).
EIG_ZERO_RTOL = 1e-12


class FactorizationError(RuntimeError):
    """A matrix factorization (SVD / eigendecomposition) failed to converge."""


def cmatrix(data) -> np.ndarray:
    """Validate and coerce ``data`` to a 2-D complex128 array.

    Raises ValueError for non-2-D input or non-finite entries.
    """
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T.copy()


@dataclass(frozen=True)
class SvdResult:
    """Factorization a = u @ diag(sigma) @ vstar with unitary u, vstar."""

    u: np.ndarray
    sigma: np.ndarray
    vstar: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.vstar


def svd(a: np.ndarray) -> SvdResult:
    """Singular value decomposition with sigma sorted non-increasing."""
    a = cmatrix(a)
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
    """Polar decomposition a = u |a| of a square matrix."""
    a = _require_square(cmatrix(a))
    f = svd(a)
    u = f.u @ f.vstar
    v = f.vstar.conj().T
    absval = (v * f.sigma) @ f.vstar
    # symmetrize against roundoff; |a| is Hermitian by construction
    absval = (absval + absval.conj().T) / 2
    return PolarResult(u=u, absval=absval)


def matabs(a: np.ndarray) -> np.ndarray:
    """Absolute value (a* a)^(1/2), computed through the SVD of a."""
    a = _require_square(cmatrix(a))
    f = svd(a)
    v = f.vstar.conj().T
    out = (v * f.sigma) @ f.vstar
    return (out + out.conj().T) / 2


def _eigh_psd(a: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix, with PSD validation.

    Eigenvalues within rtol * max(eig) of zero are clipped to exactly 0.
    """
    a = _require_square(cmatrix(a))
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


def _singular_values(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("SVD did not converge") from exc


def _schatten_from_sigma(s: np.ndarray, p: float):
    """Schatten p-norm from singular values sorted non-increasing along the last axis."""
    if math.isinf(p):
        return s[..., 0]
    if p == 1.0:
        return s.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((s * s).sum(axis=-1))
    return (s**p).sum(axis=-1) ** (1.0 / p)


def schatten_norm(a: np.ndarray, p: float) -> float:
    """Schatten p-norm: (sum sigma_i^p)^(1/p); p = inf gives the operator norm."""
    a = _require_square(cmatrix(a))
    p = float(p)
    if p < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    if a.shape[0] == 1:
        return abs(complex(a[0, 0]))
    s = _singular_values(a)
    if not s.size:  # the 0 x 0 matrix
        return 0.0
    return float(_schatten_from_sigma(s, p))


def stacked_schatten_norm(stack: np.ndarray, p: float) -> np.ndarray:
    """schatten_norm of every matrix of an (n, d, d) stack, from one stacked SVD.

    The stack is trusted internal data (finite, complex128, d >= 1): nothing
    is validated.
    """
    if stack.shape[-1] == 1:
        return np.abs(stack.reshape(stack.shape[:-2]))
    return _schatten_from_sigma(_singular_values(stack), float(p))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a)))


def trace(a: np.ndarray) -> complex:
    """Sum of diagonal entries."""
    a = _require_square(cmatrix(a))
    return complex(np.trace(a))
