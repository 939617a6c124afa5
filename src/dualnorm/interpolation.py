"""Analytic witness families on the unit strip for the Schatten-family norms.

For exponents p0, p1 and theta in (0, 1), define p by
1/p = (1 - theta)/p0 + theta/p1.  A unit-norm field H extends to the strip
0 <= Re z <= 1 through the witness

    f(z)(xi) = |H*(xi)|^(p/p(z) - 1) H(xi),
    p/p(z)   = p (1 - z)/p0 + p z/p1,

which recovers H at z = theta and has constant boundary norms:
||f(it)||_p0 = ||f(1+it)||_p1 = ||H||_p = 1.  The dual witness g applies the
same construction to a unit-q-norm field with the conjugate exponents.  The
scalar function z -> <f(z), g(z)> is then bounded by 1 on both boundary
lines, and the maximum principle pushes the bound to the interior; the
checks here verify the computable pieces of that picture on finite grids.

Because the boundary norms are constant, the witnesses do not decay as
|Im z| grows; nothing is lost by sampling the boundary on a bounded t-grid,
and no check below depends on behaviour at infinity.

witness_f and witness_g factor each block once and return the witness as a
function of z.  Zero singular values are mapped to zero for every exponent
(including 0), so the powers act on the support only.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import matcore
from .dualmodel import Field, _trusted
from .duality import dual_extremizer, pairing
from .norms import ExponentP, lp_sch_norm
from .report import CheckReport, check_report, inequality_report

__all__ = [
    "InterpSpec",
    "DEFAULT_T_GRID",
    "witness_f",
    "witness_g",
    "strip_function",
    "three_lines_check",
    "interp_norm_consistency",
]

DEFAULT_T_GRID = tuple(k / 2 for k in range(-4, 5))


@dataclass(frozen=True)
class InterpSpec:
    """Endpoint exponents p0, p1 (finite) and the interior point theta."""

    p0: ExponentP
    p1: ExponentP
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "p0", ExponentP.parse(self.p0))
        object.__setattr__(self, "p1", ExponentP.parse(self.p1))
        if self.p0.is_inf or self.p1.is_inf:
            raise ValueError("endpoint exponents must be finite")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")

    @property
    def p(self) -> ExponentP:
        inv = (1.0 - self.theta) / self.p0.value + self.theta / self.p1.value
        return ExponentP(1.0 / inv)

    @classmethod
    def for_target(cls, p0, p1, p) -> "InterpSpec":
        """Endpoint pair with theta chosen so the derived exponent equals p."""
        p0 = ExponentP.parse(p0)
        p1 = ExponentP.parse(p1)
        p = ExponentP.parse(p)
        if p0.value == p1.value:
            if p.value != p0.value:
                raise ValueError("equal endpoints only interpolate to themselves")
            return cls(p0, p1, 0.5)
        theta = (1.0 / p0.value - 1.0 / p.value) / (1.0 / p0.value - 1.0 / p1.value)
        if not (0.0 < theta < 1.0):
            raise ValueError(f"target exponent {p} is not between {p0} and {p1}")
        return cls(p0, p1, theta)


def _witness(h: Field, r: ExponentP, inv0: float, inv1: float) -> Callable[[complex], Field]:
    """z -> |A*|^w(z) A blockwise for h at unit r-norm, w(z) = r((1 - z) inv0 + z inv1) - 1.

    Each block of the normalized field is factored once, A = U S V*; the
    witness at z is U S^(w(z)+1) V*, with zero singular values mapped to 0.
    """
    norm = lp_sch_norm(h, r)
    if norm == 0.0:
        raise ValueError("the zero field has no witness normalization")
    factors = [matcore.svd(block) for block in ((1.0 / norm) * h).blocks]

    def at(z: complex) -> Field:
        z = complex(z)
        if not (-1e-12 <= z.real <= 1 + 1e-12):
            raise ValueError(f"z = {z} lies outside the closed unit strip")
        w = r.value * ((1 - z) * inv0 + z * inv1) - 1.0
        blocks = []
        for f in factors:
            powered = np.zeros(f.sigma.shape, dtype=np.complex128)
            pos = f.sigma > 0
            powered[pos] = np.exp((w + 1.0) * np.log(f.sigma[pos]))
            blocks.append((f.u * powered) @ f.vstar)
        return _trusted(h.model, blocks)

    return at


def witness_f(h: Field, spec: InterpSpec) -> Callable[[complex], Field]:
    """z -> witness of h at z (h normalized internally to unit derived-p norm)."""
    return _witness(h, spec.p, spec.p0.inv(), spec.p1.inv())


def witness_g(f: Field, spec: InterpSpec) -> Callable[[complex], Field]:
    """z -> dual witness of f at z: the same construction with the conjugate exponents.

    f is normalized internally to unit q-norm, q conjugate to the derived
    exponent; q0, q1 are the conjugates of p0, p1 (1/inf = 0 at endpoints).
    """
    if spec.p.value == 1.0:
        raise ValueError("dual witness needs derived exponent > 1")
    return _witness(f, spec.p.conjugate(), spec.p0.conjugate().inv(), spec.p1.conjugate().inv())


def strip_function(h: Field, f_dual: Field, spec: InterpSpec) -> Callable[[complex], complex]:
    """z -> <witness of h, dual witness of f_dual> at a strip point."""
    wf, wg = witness_f(h, spec), witness_g(f_dual, spec)
    return lambda z: pairing(wf(z), wg(z))


def three_lines_check(
    h: Field,
    f_dual: Field,
    spec: InterpSpec,
    t_grid=DEFAULT_T_GRID,
    *,
    suite="interpolation",
    case_id="three_lines",
) -> CheckReport:
    """Boundary and interior values of the strip function stay below 1.

    Samples |<f(z), g(z)>| at z = it and z = 1 + it over the grid and at
    z = theta (where the pairing is just <h, f_dual> after normalization).
    """
    strip = strip_function(h, f_dual, spec)
    values = []
    for t in t_grid:
        values.append(abs(strip(1j * t)))
        values.append(abs(strip(1.0 + 1j * t)))
    h_unit = (1.0 / lp_sch_norm(h, spec.p)) * h
    f_unit = (1.0 / lp_sch_norm(f_dual, spec.p.conjugate())) * f_dual
    values.append(abs(pairing(h_unit, f_unit)))
    lhs = max(values)
    inputs = (h, f_dual, spec.p0.value, spec.p1.value, spec.theta, list(t_grid))
    return inequality_report(
        suite, case_id, float(spec.p), lhs, 1.0, inputs, "strip_maximum", rel=1e-9
    )


def boundary_witness_norms(h: Field, spec: InterpSpec, t_grid=DEFAULT_T_GRID):
    """(||f(it)||_p0, ||f(1+it)||_p1) over the grid, for unit-normalized h."""
    wf = witness_f(h, spec)
    return (
        [lp_sch_norm(wf(1j * t), spec.p0) for t in t_grid],
        [lp_sch_norm(wf(1.0 + 1j * t), spec.p1) for t in t_grid],
    )


def interp_norm_consistency(
    h: Field,
    spec: InterpSpec,
    boundary_norms,
    t_grid=DEFAULT_T_GRID,
    *,
    suite="interpolation",
    case_id="norm_consistency",
) -> CheckReport:
    """Two-sided finite-scale consistency of the derived-exponent norm.

    ``boundary_norms`` is ``boundary_witness_norms(h, spec, t_grid)``, which
    the caller has already taken (and which raises for the zero field).
    Upper: ||h||_p is at most the largest boundary norm of the witness
    scaled back by ||h||_p.  Lower: the norming functional realizes
    |<h/||h||, F>| = 1, so the strip value at theta reaches the norm.
    """
    p = spec.p
    bounds0, bounds1 = boundary_norms
    norm = lp_sch_norm(h, p)
    boundary_max = norm * max(max(bounds0), max(bounds1))
    upper_slack = boundary_max - norm          # norm <= max boundary witness norm
    h_unit = (1.0 / norm) * h
    if p.value > 1.0:
        center = abs(pairing(h_unit, dual_extremizer(h_unit, p)))
    else:
        center = 1.0  # p0 = p1 = 1: witness is constant, nothing to saturate
    lower_slack = center - 1.0                 # norming functional reaches the norm
    slack = min(upper_slack, lower_slack)
    inputs = (h, spec.p0.value, spec.p1.value, spec.theta, list(t_grid))
    return check_report(
        suite, case_id, p, norm, boundary_max, slack, inputs, "equal_norms", rel=1e-8, scale=1.0
    )
