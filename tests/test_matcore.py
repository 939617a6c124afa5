import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnorm import matcore

RNG_CAP = 10**6


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def char_poly_coeffs(m: np.ndarray) -> list[complex]:
    """Characteristic polynomial by the Faddeev-LeVerrier trace recursion.

    Independent of any eigenvalue or SVD routine; used as the oracle for
    singular values via the spectrum of A* A.
    """
    n = m.shape[0]
    coeffs = [1.0 + 0.0j]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(mk) / k)
    return coeffs


# -- adjoint ------------------------------------------------------------------


def test_adjoint_identity():
    assert np.array_equal(matcore.adjoint(np.eye(2)), np.eye(2))


def test_adjoint_shift_matrix():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.array_equal(matcore.adjoint(a), np.array([[0, 0], [1, 0]], dtype=complex))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, RNG_CAP))
def test_adjoint_involution(seed):
    a = random_complex(np.random.default_rng(seed), 3)
    assert np.array_equal(matcore.adjoint(matcore.adjoint(a)), a)


# -- svd ----------------------------------------------------------------------


def test_svd_diagonal_sorted():
    f = matcore.svd(np.diag([3.0, 4.0]))
    assert np.allclose(f.sigma, [4.0, 3.0])


def test_svd_zero_matrix():
    f = matcore.svd(np.zeros((2, 2)))
    assert np.allclose(f.sigma, [0.0, 0.0])


@pytest.mark.parametrize("seed", range(20))
def test_svd_sigma_squared_matches_charpoly_roots(seed):
    a = random_complex(np.random.default_rng(seed), 4)
    gram = matcore.adjoint(a) @ a
    roots = np.roots(char_poly_coeffs(gram))
    oracle = np.sort(np.abs(roots))[::-1]  # PSD spectrum, tiny imaginary noise
    sigma2 = matcore.svd(a).sigma ** 2
    scale = max(1.0, float(oracle[0]))
    assert np.allclose(sigma2, oracle, rtol=1e-8, atol=1e-10 * scale)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_svd_contract(seed, n):
    a = random_complex(np.random.default_rng(1000 * n + seed), n)
    f = matcore.svd(a)
    scale = max(1.0, matcore.hs_norm(a))
    assert matcore.hs_norm(f.reconstruct() - a) <= 1e-12 * scale
    assert matcore.hs_norm(matcore.adjoint(f.u) @ f.u - np.eye(n)) <= 1e-12
    assert matcore.hs_norm(f.vstar @ matcore.adjoint(f.vstar) - np.eye(n)) <= 1e-12
    assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)


# -- polar --------------------------------------------------------------------


def test_polar_psd_input():
    res = matcore.polar(np.diag([2.0, 3.0]))
    assert np.allclose(res.u, np.eye(2), atol=1e-14)
    assert np.allclose(res.absval, np.diag([2.0, 3.0]), atol=1e-14)


def test_polar_negative_identity():
    res = matcore.polar(-np.eye(2))
    assert np.allclose(res.u, -np.eye(2), atol=1e-14)
    assert np.allclose(res.absval, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("seed", range(25))
def test_polar_reconstruct_and_unitary(seed):
    a = random_complex(np.random.default_rng(seed), 3)
    res = matcore.polar(a)
    scale = max(1.0, matcore.hs_norm(a))
    assert matcore.hs_norm(res.u @ res.absval - a) <= 1e-10 * scale
    assert matcore.hs_norm(matcore.adjoint(res.u) @ res.u - np.eye(3)) <= 1e-12
    herm_defect = matcore.hs_norm(res.absval - matcore.adjoint(res.absval))
    assert herm_defect <= 1e-12 * scale
    assert np.min(np.linalg.eigvalsh(res.absval)) >= -1e-12 * scale


def test_polar_rank_deficient_still_unitary():
    a = np.diag([1.0, 0.0])
    res = matcore.polar(a)
    assert matcore.hs_norm(matcore.adjoint(res.u) @ res.u - np.eye(2)) <= 1e-12
    assert matcore.hs_norm(res.u @ res.absval - a) <= 1e-12


# -- matabs -------------------------------------------------------------------


def test_matabs_diagonal():
    assert np.allclose(matcore.matabs(np.diag([-1.0, 2.0])), np.diag([1.0, 2.0]))


def test_matabs_unitary_is_identity():
    rng = np.random.default_rng(5)
    u = matcore.polar(random_complex(rng, 3)).u
    assert np.allclose(matcore.matabs(u), np.eye(3), atol=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_matabs_eigenvalues_are_singular_values(seed):
    a = random_complex(np.random.default_rng(seed), 4)
    eigs = np.sort(np.linalg.eigvalsh(matcore.matabs(a)))[::-1]
    assert np.allclose(eigs, matcore.svd(a).sigma, rtol=1e-10, atol=1e-12)


# -- psd_power ----------------------------------------------------------------


def test_psd_power_square_root():
    assert np.allclose(matcore.psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))


def test_psd_power_complex_exponent_with_zero_eigenvalue():
    out = matcore.psd_power(np.diag([1.0, 0.0]), 1 + 1j)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_psd_power_square_matches_product(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 3)
    p = matcore.adjoint(a) @ a
    assert np.allclose(matcore.psd_power(p, 2.0), p @ p, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("seed", range(10))
def test_psd_power_additivity(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 4)
    p = matcore.adjoint(a) @ a
    w1, w2 = 0.7, 1.6
    lhs = matcore.psd_power(p, w1 + w2)
    rhs = matcore.psd_power(p, w1) @ matcore.psd_power(p, w2)
    assert matcore.hs_norm(lhs - rhs) <= 1e-9 * max(1.0, matcore.hs_norm(lhs))


def test_psd_power_support_projection_at_zero():
    p = np.diag([2.0, 0.0])
    assert np.allclose(matcore.psd_power(p, 0.0), np.diag([1.0, 0.0]))


def test_psd_power_rejects_non_psd():
    with pytest.raises(ValueError):
        matcore.psd_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        matcore.psd_power(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


# -- schatten / hs norms ------------------------------------------------------


def test_schatten_trace_norm_identity():
    assert matcore.schatten_norm(np.eye(2), 1.0) == pytest.approx(2.0, abs=1e-14)


def test_schatten_pythagorean():
    assert matcore.schatten_norm(np.diag([3.0, 4.0]), 2.0) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_schatten_4_matches_trace_power_oracle(seed):
    a = random_complex(np.random.default_rng(seed), 3)
    gram = matcore.adjoint(a) @ a
    oracle = float(np.trace(gram @ gram).real) ** 0.25
    assert matcore.schatten_norm(a, 4.0) == pytest.approx(oracle, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, RNG_CAP))
def test_schatten_monotone_in_p(seed):
    a = random_complex(np.random.default_rng(seed), 4)
    ps = [1.0, 1.5, 2.0, 3.0, 7.0, math.inf]
    norms = [matcore.schatten_norm(a, p) for p in ps]
    for lo, hi in zip(norms, norms[1:]):
        assert lo >= hi - 1e-12 * max(1.0, lo)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 3.5, math.inf])
def test_schatten_adjoint_and_abs_invariance(seed, p):
    a = random_complex(np.random.default_rng(seed), 4)
    base = matcore.schatten_norm(a, p)
    tol = 1e-10 * max(1.0, base)
    assert abs(matcore.schatten_norm(matcore.adjoint(a), p) - base) <= tol
    assert abs(matcore.schatten_norm(matcore.matabs(a), p) - base) <= tol


def test_hs_norm_values():
    assert matcore.hs_norm(np.eye(3)) == pytest.approx(math.sqrt(3), abs=1e-14)
    assert matcore.hs_norm(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_hs_norm_equals_schatten_2(seed):
    a = random_complex(np.random.default_rng(seed), 4)
    hs = matcore.hs_norm(a)
    assert abs(hs - matcore.schatten_norm(a, 2.0)) <= 1e-12 * max(1.0, hs)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_norm_kernels_reduce_stacks_matrix_by_matrix(d):
    rng = np.random.default_rng(d)
    stack = np.stack([random_complex(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
    for p in (1.0, 2.5, math.inf):
        got = matcore.schatten_norm(stack, p)
        assert got.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert got[idx] == pytest.approx(matcore.schatten_norm(stack[idx], p), rel=1e-14)
    hs = matcore.hs_norm(stack)
    for idx in np.ndindex(2, 3):
        assert hs[idx] == pytest.approx(np.linalg.norm(stack[idx]), rel=1e-14)
    # a last axis that is not contiguous (the adjoint of a stack is a strided view)
    star = matcore.adjoint(stack)
    assert star.strides[-1] != star.itemsize or d == 1
    assert matcore.hs_norm(star) == pytest.approx(hs, rel=1e-14)


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 0)), np.zeros((4, 2, 1))])
def test_norm_kernels_reject_non_square_input(bad):
    with pytest.raises(ValueError):
        matcore.schatten_norm(bad, 2.0)
    with pytest.raises(ValueError):
        matcore.hs_norm(bad)


# -- trace --------------------------------------------------------------------


def test_trace_identity():
    assert matcore.trace(np.eye(5)) == pytest.approx(5.0)


@pytest.mark.parametrize("seed", range(10))
def test_trace_cyclicity(seed):
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, 3), random_complex(rng, 3)
    assert matcore.trace(a @ b) == pytest.approx(matcore.trace(b @ a), abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_trace_cyclicity_under_fractional_power(seed):
    # Tr f(AB) = Tr f(BA) for PSD A, B and f(t) = t^(3/2); the two sides are
    # evaluated through the PSD conjugations A^(1/2) B A^(1/2) and
    # B^(1/2) A B^(1/2), whose spectra must agree.
    rng = np.random.default_rng(seed)
    a = matcore.adjoint(x := random_complex(rng, 4)) @ x
    b = matcore.adjoint(y := random_complex(rng, 4)) @ y
    ra = matcore.psd_power(a, 0.5)
    rb = matcore.psd_power(b, 0.5)
    lhs = np.sum(np.maximum(np.linalg.eigvalsh(ra @ b @ ra), 0.0) ** 1.5)
    rhs = np.sum(np.maximum(np.linalg.eigvalsh(rb @ a @ rb), 0.0) ** 1.5)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_cmatrix_rejects_bad_input():
    with pytest.raises(ValueError):
        matcore.cmatrix([1.0, 2.0])
    with pytest.raises(ValueError):
        matcore.cmatrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        matcore.trace(np.ones((2, 3)))
