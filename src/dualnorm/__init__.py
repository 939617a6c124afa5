"""Computable p-norm families over truncated unitary duals, with verifiers."""

from .dualmodel import (
    DualModel,
    Field,
    field_abs,
    field_adjoint,
    field_product,
    identity_field,
    preset_dual,
    random_field,
    zero_field,
)
from .duality import dual_extremizer, dual_norm_via_search, pairing
from .interpolation import InterpSpec, witness_f, witness_g
from .norms import (
    DirectSumSpec,
    ExponentP,
    direct_sum_norm,
    field_norm,
    lp_hs_norm,
    lp_sch_norm,
)
from .report import CheckReport

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DirectSumSpec",
    "DualModel",
    "ExponentP",
    "Field",
    "InterpSpec",
    "direct_sum_norm",
    "dual_extremizer",
    "dual_norm_via_search",
    "field_abs",
    "field_adjoint",
    "field_norm",
    "field_product",
    "identity_field",
    "lp_hs_norm",
    "lp_sch_norm",
    "pairing",
    "preset_dual",
    "random_field",
    "witness_f",
    "witness_g",
    "zero_field",
]
