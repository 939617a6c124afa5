import math

import amplified
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnorm import matcore
from dualnorm.dualmodel import Field, field_abs, parse_dual_arg, preset_dual, random_stacks
from dualnorm.inequalities import modulus_convexity_sample
from dualnorm.norms import lp_sch_norm

RNG_CAP = 10**6


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def matabs(a):
    """|a| of a square matrix or stack, through field_abs on a one-entry model."""
    a = np.asarray(a, dtype=np.complex128)
    return field_abs(Field(preset_dual("custom", [a.shape[-1]]), (a,))).blocks[0]


def unitary_factor(a):
    """The unitary factor W V* of the polar decomposition, from the SVD a = W S V*."""
    w, _, vstar = np.linalg.svd(a)
    return w @ vstar


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
    assert matcore.hs_norm((f.u * f.sigma[..., None, :]) @ f.vstar - a) <= 1e-12 * scale
    assert matcore.hs_norm(matcore.adjoint(f.u) @ f.u - np.eye(n)) <= 1e-12
    assert matcore.hs_norm(f.vstar @ matcore.adjoint(f.vstar) - np.eye(n)) <= 1e-12
    assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)


# -- |a|, the positive factor of the polar decomposition a = u |a| ------------


def test_polar_psd_input():
    assert np.allclose(matabs(np.diag([2.0, 3.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_polar_negative_identity():
    assert np.allclose(matabs(-np.eye(2)), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("seed", range(25))
def test_polar_reconstruct_and_unitary(seed):
    a = random_complex(np.random.default_rng(seed), 3)
    absval = matabs(a)
    scale = max(1.0, matcore.hs_norm(a))
    assert matcore.hs_norm(unitary_factor(a) @ absval - a) <= 1e-10 * scale
    herm_defect = matcore.hs_norm(absval - matcore.adjoint(absval))
    assert herm_defect <= 1e-12 * scale
    assert np.min(np.linalg.eigvalsh(absval)) >= -1e-12 * scale


def test_polar_rank_deficient_reconstructs():
    a = np.diag([1.0, 0.0])
    assert matcore.hs_norm(unitary_factor(a) @ matabs(a) - a) <= 1e-12


def test_matabs_diagonal():
    assert np.allclose(matabs(np.diag([-1.0, 2.0])), np.diag([1.0, 2.0]))


def test_matabs_unitary_is_identity():
    rng = np.random.default_rng(5)
    u = unitary_factor(random_complex(rng, 3))
    assert np.allclose(matabs(u), np.eye(3), atol=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_matabs_eigenvalues_are_singular_values(seed):
    a = random_complex(np.random.default_rng(seed), 4)
    eigs = np.sort(np.linalg.eigvalsh(matabs(a)))[::-1]
    assert np.allclose(eigs, matcore.svd(a).sigma, rtol=1e-10, atol=1e-12)


# -- the oracle's eigh power (amplified.psd_power) ----------------------------


def test_psd_power_square_root():
    assert np.allclose(amplified.psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))


def test_psd_power_complex_exponent_with_zero_eigenvalue():
    out = amplified.psd_power(np.diag([1.0, 0.0]), 1 + 1j)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_psd_power_square_matches_product(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 3)
    p = matcore.adjoint(a) @ a
    assert np.allclose(amplified.psd_power(p, 2.0), p @ p, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("seed", range(10))
def test_psd_power_additivity(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 4)
    p = matcore.adjoint(a) @ a
    w1, w2 = 0.7, 1.6
    lhs = amplified.psd_power(p, w1 + w2)
    rhs = amplified.psd_power(p, w1) @ amplified.psd_power(p, w2)
    assert matcore.hs_norm(lhs - rhs) <= 1e-9 * max(1.0, matcore.hs_norm(lhs))


def test_psd_power_support_projection_at_zero():
    p = np.diag([2.0, 0.0])
    assert np.allclose(amplified.psd_power(p, 0.0), np.diag([1.0, 0.0]))


# -- schatten / hs norms ------------------------------------------------------
#
# A matrix's Schatten norm is the Schatten-family norm of the one-entry field
# over custom(d), whose norm is d^(1/p) times the matrix's, or the sorted sum
# of its singular values.


def one_entry(a):
    """A d x d matrix, or a stack of them, as a field over the one-entry model custom(d)."""
    return Field(preset_dual("custom", [a.shape[-1]]), (a,))


@pytest.mark.parametrize("p", [0.5, math.nan, -math.inf])
def test_schatten_norm_rejects_exponents_below_one_and_nan(p):
    for a in (np.eye(1), np.eye(3)):
        with pytest.raises(ValueError, match=r"must lie in \[1, inf\]"):
            lp_sch_norm(one_entry(a), p)


def test_schatten_trace_norm_identity():
    assert lp_sch_norm(one_entry(np.eye(2)), 1.0) == pytest.approx(2 * 2.0, abs=1e-14)


def test_schatten_pythagorean():
    got = lp_sch_norm(one_entry(np.diag([3.0, 4.0])), 2.0)
    assert got == pytest.approx(math.sqrt(2) * 5.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_schatten_4_matches_trace_power_oracle(seed):
    a = random_complex(np.random.default_rng(seed), 3)
    gram = matcore.adjoint(a) @ a
    oracle = float(np.trace(gram @ gram).real) ** 0.25
    got = matcore._power_sum_sorted(matcore.singular_values(a), 4.0)
    assert got == pytest.approx(oracle, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, RNG_CAP))
def test_schatten_monotone_in_p(seed):
    # d^(1/p) falls with p as well, so the one-entry field's norm is monotone too
    h = one_entry(random_complex(np.random.default_rng(seed), 4))
    ps = [1.0, 1.5, 2.0, 3.0, 7.0, math.inf]
    norms = [lp_sch_norm(h, p) for p in ps]
    for lo, hi in zip(norms, norms[1:]):
        assert lo >= hi - 1e-12 * max(1.0, lo)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 3.5, math.inf])
def test_schatten_adjoint_and_abs_invariance(seed, p):
    a = random_complex(np.random.default_rng(seed), 4)
    base = lp_sch_norm(one_entry(a), p)
    tol = 1e-10 * max(1.0, base)
    assert abs(lp_sch_norm(one_entry(matcore.adjoint(a)), p) - base) <= tol
    assert abs(lp_sch_norm(one_entry(matabs(a)), p) - base) <= tol


def test_hs_norm_values():
    assert matcore.hs_norm(np.eye(3)) == pytest.approx(math.sqrt(3), abs=1e-14)
    assert matcore.hs_norm(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_hs_norm_equals_schatten_2(seed):
    a = random_complex(np.random.default_rng(seed), 4)
    hs = matcore.hs_norm(a)
    s2 = matcore._power_sum_sorted(matcore.singular_values(a), 2.0)
    assert abs(hs - s2) <= 1e-12 * max(1.0, hs)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_norm_kernels_reduce_stacks_matrix_by_matrix(d):
    rng = np.random.default_rng(d)
    stack = np.stack([random_complex(rng, d) for _ in range(6)]).reshape(2, 3, d, d)

    def schatten(a, p):
        return matcore._power_sum_sorted(matcore.singular_values(a), p)

    for p in (1.0, 2.5, math.inf):
        got = schatten(stack, p)
        assert got.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert got[idx] == pytest.approx(schatten(stack[idx], p), rel=1e-14)
    hs = matcore.hs_norm(stack)
    for idx in np.ndindex(2, 3):
        assert hs[idx] == pytest.approx(np.linalg.norm(stack[idx]), rel=1e-14)
    # a last axis that is not contiguous (the adjoint of a stack is a strided view)
    star = matcore.adjoint(stack)
    assert star.strides[-1] != star.itemsize or d == 1
    assert matcore.hs_norm(star) == pytest.approx(hs, rel=1e-14)
    # the factorizations work matrix by matrix as well
    f, ab = matcore.svd(stack), matabs(stack)
    assert f.sigma.shape == (2, 3, d)

    def close(x, y):
        return np.max(np.abs(x - y)) <= 1e-14 * max(1.0, np.max(np.abs(y)))

    for idx in np.ndindex(2, 3):
        one = matcore.svd(stack[idx])
        whole = ((f.u * f.sigma[..., None, :]) @ f.vstar)[idx]
        assert close(f.sigma[idx], one.sigma)
        assert close(whole, (one.u * one.sigma[..., None, :]) @ one.vstar)
        assert close(ab[idx], matabs(stack[idx]))


def _stacks_2x2(n=400):
    """Adversarial (n, 2, 2) stacks, and single matrices, for the closed-form singular values."""
    rng = np.random.default_rng(2)

    def ginibre():
        return rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))

    g, u = ginibre(), np.linalg.qr(ginibre())[0]
    rank1 = np.einsum("ni,nj->nij", ginibre()[:, 0], ginibre()[:, 1])
    return {
        "ginibre": g,
        "unitary": u,
        "unitary_noise": u * (1 + 1e-12 * ginibre()),
        "rank1": rank1,
        "near_rank1": rank1 + 1e-13 * ginibre(),
        "zero_first_column": g * np.array([0.0, 1.0]),
        "zero_row": g * np.array([[1.0], [0.0]]),
        "zero": np.zeros((n, 2, 2), dtype=complex),
        "diagonal": g * np.eye(2),
        "graded": g * np.array([[1e8, 1.0], [1.0, 1e-8]]),
        "graded_reversed": g * np.array([[1e-8, 1.0], [1.0, 1e8]]),
        "subnormal_first_column": g * np.array([1e-315, 1.0]),
        "scaled_1e300": 1e300 * g,
        "scaled_1e-300": 1e-300 * g,
        "scaled_1e-310": 1e-310 * g,
        "single": g[0],
        "single_scaled_1e160": 1e160 * g[1],
        "single_scaled_1e-160": 1e-160 * g[2],
        "single_zero_first_column": g[3] * np.array([0.0, 1.0]),
    }


@pytest.mark.parametrize("family", list(_stacks_2x2()))
def test_sigma2_matches_lapack_singular_values(family):
    a = _stacks_2x2()[family]
    ref = np.linalg.svd(a, compute_uv=False)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        s = matcore._sigma2(a) if a.ndim > 2 else matcore.singular_values(a)
    assert s.shape == ref.shape and np.all(s[..., 0] >= s[..., 1])
    # the one extra term is the subnormal spacing: the 1e-310 stack's singular values
    # lie below the normal range, where any two correctly rounded results may differ
    # by one step of 4.9e-324 (2.5e-14 of s0 there)
    bound = 1e-14 * ref[..., :1] + np.finfo(np.float64).smallest_subnormal
    assert np.all(np.abs(s - ref) <= bound)


def test_stacked_2x2_schatten_norms_never_call_lapack(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    rng = np.random.default_rng(3)

    def count(a):  # a fresh field per exponent: no memo is shared between them
        calls.clear()
        for p in (1.0, 1.5, 2.0, math.inf):
            lp_sch_norm(one_entry(a), p)
        return len(calls)

    stack2 = np.stack([random_complex(rng, 2) for _ in range(5)])
    stack3 = np.stack([random_complex(rng, 3) for _ in range(5)])
    # a single 2 x 2 matrix is the one-row stack
    assert count(stack2) == 0 and count(stack2[:1]) == 0 and count(stack2[0]) == 0
    assert count(stack3) == 3
    calls.clear()
    modulus_convexity_sample(preset_dual("s3"), 2.0, "sch", samples=200, seed=5)
    assert calls == []


def _p2_cases():
    """Blocks and stacks for the Frobenius route at p = 2: model draws, rank 1, huge, tiny."""
    cases = {}
    for dual in ("s3", "su2_trunc(4)", "custom(16,32)"):
        for b in random_stacks(parse_dual_arg(dual), 5, rows=4).blocks:
            d = b.shape[-1]
            cases[f"{dual}:{d}:batch"], cases[f"{dual}:{d}:single"] = b, b[0]
    rng = np.random.default_rng(8)
    for d in (2, 3, 16):
        rank1 = np.stack([random_complex(rng, d, 1) @ random_complex(rng, 1, d) for _ in range(4)])
        cases[f"rank1:{d}:batch"], cases[f"rank1:{d}:single"] = rank1, rank1[0]
    for name, a in list(cases.items()):
        for scale in (1e150, 1e-150):
            cases[f"{name}*{scale:g}"] = scale * a
    return cases


@pytest.mark.parametrize("name", list(_p2_cases()))
def test_schatten_2_is_the_frobenius_norm_of_the_singular_values(name):
    a = _p2_cases()[name]
    d = a.shape[-1]
    ref = math.sqrt(d) * matcore._power_sum_sorted(np.linalg.svd(a, compute_uv=False), 2.0)
    got = lp_sch_norm(one_entry(a), 2.0)
    assert np.shape(got) == np.shape(ref)
    if d == 1:  # S_2 is the Hilbert-Schmidt class at every size
        assert np.array_equal(got, matcore.hs_norm(a))
    else:
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("batch", [(), (7,), (2, 3)])
def test_one_by_one_blocks_are_their_modulus_at_every_p(batch):
    rng = np.random.default_rng(2)
    a = rng.standard_normal(batch + (1, 1)) + 1j * rng.standard_normal(batch + (1, 1))
    exact = np.abs(a[..., 0, 0])
    assert np.array_equal(matcore.singular_values(a), exact[..., None])
    for p in (1.0, 4 / 3, 1.5, 2.0, 3.0, math.inf):
        got = matcore._power_sum_sorted(matcore.singular_values(a), p)
        assert np.array_equal(got, exact) and type(got) is type(exact), p


@pytest.mark.parametrize("shape", [(1, 1), (4, 1, 1), (2, 2), (5, 2, 2), (3, 3), (2, 4, 4)])
def test_singular_values_is_the_one_source_of_schatten_norms(shape):
    rng = np.random.default_rng(6)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = matcore.singular_values(a)
    assert s.shape == shape[:-1] and np.all(s[..., :-1] >= s[..., 1:])
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.all(np.abs(s - ref) <= 1e-14 * ref[..., :1])
    d = shape[-1]
    for p in (1.0, 1.5, 3.0, math.inf):
        want = matcore.power_sum([d ** (1.0 / p) * matcore._power_sum_sorted(s, p)], p)
        assert np.array_equal(lp_sch_norm(one_entry(a), p), want)


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 0)), np.zeros((4, 2, 1))])
def test_norm_kernels_reject_non_square_input(bad):
    kernels = [
        matcore.singular_values,
        matcore.hs_norm,
        matcore.svd,
    ]
    for kernel in kernels:
        with pytest.raises(ValueError):
            kernel(bad)


# -- trace --------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_trace_cyclicity_under_fractional_power(seed):
    # Tr f(AB) = Tr f(BA) for PSD A, B and f(t) = t^(3/2); the two sides are
    # evaluated through the PSD conjugations A^(1/2) B A^(1/2) and
    # B^(1/2) A B^(1/2), whose spectra must agree.
    rng = np.random.default_rng(seed)
    a = matcore.adjoint(x := random_complex(rng, 4)) @ x
    b = matcore.adjoint(y := random_complex(rng, 4)) @ y
    ra = amplified.psd_power(a, 0.5)
    rb = amplified.psd_power(b, 0.5)
    lhs = np.sum(np.maximum(np.linalg.eigvalsh(ra @ b @ ra), 0.0) ** 1.5)
    rhs = np.sum(np.maximum(np.linalg.eigvalsh(rb @ a @ rb), 0.0) ** 1.5)
    assert lhs == pytest.approx(rhs, rel=1e-9)

