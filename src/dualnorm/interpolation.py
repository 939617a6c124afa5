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

InterpSpec derives p from theta once; InterpSpec.for_target keeps the p it
is given, so its witnesses and reports carry exactly the exponent asked for
(the theta computed from it may move the derived p by an ulp or two).

Because the boundary norms are constant, the witnesses do not decay as
|Im z| grows; nothing is lost by sampling the boundary on a bounded t-grid,
and no check below depends on behaviour at infinity.

witness_f and witness_g read each block's factors from the field's memo (one
SVD per block, shared with the dual extremizer) and return the witness as a
function of z.  The witness of a field, or of a batch Field h, at strip
points z is a batch Field of batch shape h.batch + np.shape(z) (a single
Field for a single field at one point).  boundary_witness(h, spec) is the
witness of h on the two boundary lines, one batch Field per line over the
t-grid, built once: the boundary-norm and consistency checks take its
norms ||f(it)||_p0 and ||f(1+it)||_p1, reduced once by the suite, and the
three-lines check pairs each line with the dual witness at the same points.
Every anchor of the suite has a public check, and each is one function for
fields and batches: one case id gives the report of single fields, and a
list of case ids gives one report per row of batch fields.  Zero singular
values map to zero for every exponent, as in the dual extremizer: both take
their powers from ``duality._power``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dualmodel import Field, _is_real
from .duality import _power, dual_extremizer, pairing
from .norms import ExponentP, lp_sch_norm
from .report import check_report, equality_report, inequality_report

__all__ = [
    "InterpSpec",
    "DEFAULT_T_GRID",
    "witness_f",
    "witness_g",
    "boundary_witness",
    "three_lines_check",
    "boundary_witness_check",
    "interp_norm_consistency",
]

DEFAULT_T_GRID = tuple(k / 2 for k in range(-4, 5))


@dataclass(frozen=True)
class InterpSpec:
    """Endpoint exponents p0, p1 (finite), the interior point theta and the exponent p there."""

    p0: ExponentP
    p1: ExponentP
    theta: float
    p: ExponentP = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p0", ExponentP.parse(self.p0))
        object.__setattr__(self, "p1", ExponentP.parse(self.p1))
        if self.p0.is_inf or self.p1.is_inf:
            raise ValueError("endpoint exponents must be finite")
        if not (_is_real(self.theta) and 0.0 < self.theta < 1.0):
            raise ValueError(f"theta must be a real number in (0, 1), got {self.theta!r}")
        inv = (1.0 - self.theta) / self.p0 + self.theta / self.p1
        object.__setattr__(self, "p", ExponentP(1.0 / inv))

    @classmethod
    def for_target(cls, p0, p1, p) -> "InterpSpec":
        """Endpoint pair with theta chosen for p; the spec's exponent is p itself."""
        p0 = ExponentP.parse(p0)
        p1 = ExponentP.parse(p1)
        p = ExponentP.parse(p)
        if p0 == p1:
            if p != p0:
                raise ValueError("equal endpoints only interpolate to themselves")
            return cls(p0, p1, 0.5)
        theta = (1.0 / p0 - 1.0 / p) / (1.0 / p0 - 1.0 / p1)
        if not (0.0 < theta < 1.0):
            raise ValueError(f"target exponent {p} is not between {p0} and {p1}")
        spec = cls(p0, p1, theta)
        object.__setattr__(spec, "p", p)
        return spec


def _witness(h: Field, r: ExponentP, inv0: float, inv1: float) -> Callable[..., Field]:
    """z -> |A*|^w(z) A blockwise for A = h / ||h||_r, w(z) = r((1 - z) inv0 + z inv1) - 1.

    With h = U S V* blockwise, the witness at z is U (S / ||h||_r)^(w(z)+1) V*,
    the power ``duality._power`` forms.  For strip points z it is a batch
    Field of batch shape h.batch + np.shape(z): row k of a batch h at z is
    the witness of h[k] at z.
    """
    power = _power(h, r, "witness normalization")

    def at(z) -> Field:
        z = np.asarray(z, dtype=np.complex128)
        if not np.all((-1e-12 <= z.real) & (z.real <= 1 + 1e-12)):
            raise ValueError(f"z = {z} lies outside the closed unit strip")
        return power(r * ((1 - z) * inv0 + z * inv1))

    return at


def witness_f(h: Field, spec: InterpSpec) -> Callable[..., Field]:
    """z -> witness of h at z (h normalized internally to unit derived-p norm)."""
    return _witness(h, spec.p, 1.0 / spec.p0, 1.0 / spec.p1)


def witness_g(f: Field, spec: InterpSpec) -> Callable[..., Field]:
    """z -> dual witness of f at z: the same construction with the conjugate exponents.

    f is normalized internally to unit q-norm, q conjugate to the derived
    exponent; q0, q1 are the conjugates of p0, p1 (1/inf = 0 at endpoints).
    """
    if spec.p == 1.0:
        raise ValueError("dual witness needs derived exponent > 1")
    return _witness(f, spec.p.conjugate(), 1.0 / spec.p0.conjugate(), 1.0 / spec.p1.conjugate())


def _edges() -> np.ndarray:
    """The boundary grid as a (2, n) array: row 0 is z = it, row 1 is z = 1 + it."""
    t = np.asarray(DEFAULT_T_GRID)
    return np.stack([1j * t, 1.0 + 1j * t])


def boundary_witness(h: Field, spec: InterpSpec) -> tuple[Field, Field]:
    """(f(it), f(1 + it)) over DEFAULT_T_GRID, the witness of h on the two boundary lines.

    Each line is a batch Field of batch shape h.batch + (len(DEFAULT_T_GRID),).
    """
    at = witness_f(h, spec)
    return tuple(at(z) for z in _edges())


def three_lines_check(h: Field, f_dual: Field, spec: InterpSpec, lines, *, case_id="three_lines"):
    """Boundary and interior values of the strip function stay below 1.

    Samples |<f(z), g(z)>| on ``lines = boundary_witness(h, spec)``, where the
    dual witness g of f_dual is evaluated at the same points, and at z = theta
    (where the pairing is just <h, f_dual> after normalization).
    """
    at = witness_g(f_dual, spec)
    boundary = [np.abs(pairing(line, at(z))).max(axis=-1) for line, z in zip(lines, _edges())]
    h_unit = (1.0 / lp_sch_norm(h, spec.p)) * h
    f_unit = (1.0 / lp_sch_norm(f_dual, spec.p.conjugate())) * f_dual
    lhs = np.maximum(np.maximum(*boundary), np.abs(pairing(h_unit, f_unit)))
    inputs = (h, f_dual, spec.p0, spec.p1, spec.theta, list(DEFAULT_T_GRID))
    return inequality_report(
        "interpolation", case_id, spec.p, lhs, 1.0, inputs, "strip_maximum", rel=1e-9
    )


def boundary_witness_check(h: Field, spec: InterpSpec, line_norms, *, case_id="boundary_witness"):
    """The boundary norm farthest from 1 equals 1.

    ``line_norms`` are ||f(it)||_p0 and ||f(1+it)||_p1 over the t-grid: each
    line of ``boundary_witness(h, spec)`` reduced by ``lp_sch_norm`` at its exponent.
    """
    norms = np.concatenate(line_norms, -1)
    farthest = np.abs(norms - 1.0).argmax(axis=-1, keepdims=True)
    worst = np.take_along_axis(norms, farthest, axis=-1)[..., 0]
    inputs = (h, spec.p0, spec.p1, spec.theta)
    return equality_report(
        "interpolation", case_id, spec.p, worst, 1.0, inputs, "boundary_witness", rel=1e-9
    )


def interp_norm_consistency(h: Field, spec: InterpSpec, line_norms, *, case_id="norm_consistency"):
    """Two-sided finite-scale consistency of the derived-exponent norm.

    ``line_norms`` are the boundary norms that ``boundary_witness_check``
    takes (the witness raises for the zero field).
    Upper: the witness's largest boundary norm is at least 1 (both slacks are
    in units of ||h||_p).  Lower: the norming functional realizes
    |<h/||h||, F>| = 1, so the strip value at theta reaches the norm.
    """
    p = spec.p
    bounds0, bounds1 = line_norms
    norm = lp_sch_norm(h, p)
    widest = np.maximum(bounds0.max(axis=-1), bounds1.max(axis=-1))
    upper_slack = widest - 1.0                 # norm <= max boundary witness norm
    # the extremizer of h is that of h / ||h|| (scale-invariant), defined at p = 1 too
    center = np.abs(pairing((1.0 / norm) * h, dual_extremizer(h, p)))
    lower_slack = center - 1.0                 # norming functional reaches the norm
    slack = np.minimum(upper_slack, lower_slack)
    inputs = (h, spec.p0, spec.p1, spec.theta, list(DEFAULT_T_GRID))
    return check_report(
        "interpolation", case_id, p, norm, norm * widest, slack, inputs,
        "equal_norms", rel=1e-8, scale=1.0,
    )
