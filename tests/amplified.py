"""An independent oracle: each norm, pairing and power of a field through one big matrix.

At a fixed p, both norm families of a field H over entries of dimensions
d(xi) are Schatten p-norms of one matrix that is linear in H:

* Schatten family: the block diagonal of kron(H(xi), I_d) over the entries,
  in which each singular value of H(xi) appears d times, so its trace is
  sum d Tr (the noncommutative L^p of the direct sum of the M_d; G. Pisier
  and Q. Xu, "Non-commutative L^p-spaces", 2003).
* Hilbert-Schmidt family: the block diagonal of the columns
  d^((2 - p/2)/p) vec H(xi), whose singular values are the weighted
  Hilbert-Schmidt norms (the weight is d^(-1/2) at p = inf).

The trace pairing sum d Tr(H(xi) F(xi)) is the plain trace of the product of
two Schatten-family matrices, the functional calculus commutes with both the
block diagonal and the Kronecker product, and every power is taken through
eigh of one Hermitian matrix, not through an SVD.  This module imports only
numpy and math and reads a field only through ``.blocks`` and
``.model.dims``, so it shares no code with the package it checks.
"""

import math

import numpy as np


def _block_diag(blocks):
    out = np.zeros(np.sum([b.shape for b in blocks], axis=0), dtype=np.complex128)
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out


def amplify(h):
    """The Schatten-family matrix of a field: the block diagonal of kron(H(xi), I_d)."""
    return _block_diag([np.kron(b, np.eye(d)) for d, b in zip(h.model.dims, h.blocks)])


def hs_columns(h, p):
    """The Hilbert-Schmidt-family matrix of a field at p: the columns d^((2 - p/2)/p) vec H(xi)."""
    power = -0.5 if math.isinf(p) else (2.0 - p / 2.0) / p
    return _block_diag([d**power * np.reshape(b, (-1, 1)) for d, b in zip(h.model.dims, h.blocks)])


def embed(h, p, family="sch"):
    """The matrix whose Schatten p-norm is the family-p norm of h."""
    if family == "sch":
        return amplify(h)
    if family == "hs":
        return hs_columns(h, p)
    raise ValueError(f"unknown norm family {family!r}")


def schatten(m, p):
    """Schatten p-norm of any matrix from LAPACK's singular values; the largest at p = inf."""
    s = np.linalg.svd(m, compute_uv=False)
    return float(s.max() if math.isinf(p) else np.sum(s**p) ** (1.0 / p))


def norm(h, p, family="sch"):
    """The family-p norm of a field."""
    return schatten(embed(h, p, family), p)


def pairing(a, b):
    """The trace pairing of two Schatten-family matrices: the trace of their product."""
    return complex(np.trace(a @ b))


def psd_power(a, w):
    """a^w of a Hermitian PSD matrix through eigh, for complex w.

    Eigenvalues at most 1e-12 times the largest map to 0 for every w, so a^0
    is the projection onto the support of a.
    """
    lam, vecs = np.linalg.eigh(a)
    keep = lam > 1e-12 * lam[-1]
    powered = np.exp(complex(w) * np.log(np.where(keep, lam, 1.0))) * keep
    return (vecs * powered) @ vecs.conj().T


def extremizer(m, p):
    """(M*M)^((p-2)/2) M* / ||M||_p^(p-1), of unit q-norm, whose pairing with M is ||M||_p."""
    m_star = m.conj().T
    return psd_power(m_star @ m, (p - 2.0) / 2.0) @ m_star / schatten(m, p) ** (p - 1.0)


def witness(m, r, w):
    """(A A*)^(w/2) A, that is |A*|^w A, for A = M / ||M||_r."""
    a = m / schatten(m, r)
    return psd_power(a @ a.conj().T, w / 2.0) @ a
