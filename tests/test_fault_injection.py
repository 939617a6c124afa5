"""Which anchors catch which injected faults.

Each fault replaces one function of the package with a wrong one, bound
under every name that a ``dualnorm`` module holds it by (``cli`` binds
``lp_hs_norm`` and ``dual_extremizer`` by name), runs every suite on two
models and counts the failing reports per anchor.  The table pins what the
anchors can see: a new anchor shows here which fault it adds, and an anchor
that stops catching a fault changes a count.
"""

import collections
import sys

import numpy as np
import pytest

from dualnorm import duality, inequalities, matcore, norms
from dualnorm.cli import SuiteConfig, run_suite
from dualnorm.dualmodel import Field, parse_dual_arg

MODELS = ("s3", "su2_trunc(4)")
REPORTS = 886  # every suite on both models at p 1.5, 2, 3, both families, 5 trials


def _failing_per_anchor():
    """Anchor -> failing reports of ``verify all`` on MODELS, and anchor -> all its reports."""
    failing, made = collections.Counter(), collections.Counter()
    for dual in MODELS:
        cfg = SuiteConfig("all", parse_dual_arg(dual), (1.5, 2, 3), family="both", trials=5, seed=0)
        reports = run_suite(cfg)
        made.update(r.anchor for r in reports)
        failing.update(r.anchor for r in reports if not r.passed)
    return dict(failing), made


def _scaled(fn):
    return lambda *args, **kw: fn(*args, **kw) * (1 + 1e-6)


def _each_scaled(fn):
    return lambda *args, **kw: [v * (1 + 1e-6) for v in fn(*args, **kw)]


def _hs_weight_d_1_minus_half_p(fn):
    def lp_hs_norm(h, p):  # the weight d^(1 - p/2) in place of d^(2 - p/2)
        p = norms.ExponentP.parse(p)
        return norms._lp(h, [matcore.hs_norm(b) for b in h.blocks], 1.0 / p - 0.5, p)

    return lp_hs_norm


def _unweighted(fn):
    return lambda h, values, power, p: fn(h, values, 0.0, p)


def _last_block_phase(fn):
    def dual_extremizer(h, p):
        f = fn(h, p)
        return Field(f.model, f.blocks[:-1] + (np.exp(0.1j) * f.blocks[-1],))

    return dual_extremizer


# fault: (module, function name, wrong version of the function)
FAULTS = {
    "singular_values_scaled": (matcore, "singular_values", _scaled),
    "hs_norm_scaled": (matcore, "hs_norm", _scaled),
    "hs_weight_d_1_minus_half_p": (norms, "lp_hs_norm", _hs_weight_d_1_minus_half_p),
    "no_weights": (norms, "_lp", _unweighted),
    # every sign average, of the suite and of rademacher_average, comes from this helper
    "rademacher_average_scaled": (inequalities, "_rademacher_averages", _each_scaled),
    "extremizer_last_block_phase": (duality, "dual_extremizer", _last_block_phase),
}

# fault -> anchor -> failing reports
CAUGHT = {
    "singular_values_scaled": {
        "boundary_witness": 30, "embedding": 10, "equal_norms": 26, "extremizer": 58,
        "p2_coincidence": 10,
    },
    "hs_norm_scaled": {
        "boundary_witness": 30, "equal_norms": 10, "extremizer": 20, "p2_coincidence": 10,
    },
    "hs_weight_d_1_minus_half_p": {"embedding": 20, "p2_coincidence": 10},
    "no_weights": {
        "boundary_witness": 30, "direct_sum_duality": 30, "dual_supremum": 15, "embedding": 20,
        "equal_norms": 30, "extremizer": 60, "strip_maximum": 6,
    },
    "rademacher_average_scaled": {"sign_average_identity": 20, "type_cotype": 20},
    "extremizer_last_block_phase": {"equal_norms": 30, "extremizer": 30},
}

# anchors that no fault above makes fail
UNCAUGHT = {
    "adjoint_invariance.hs", "adjoint_invariance.sch", "bin_occupancy",
    "clarkson.hs.case_i", "clarkson.hs.case_ii", "clarkson.sch.case_i", "clarkson.sch.case_ii",
    "convexity_lower", "critical_constant", "holder", "homogeneity", "kadec_klee_gap",
    "parallelogram", "smoothness_upper", "triangle", "two_point.lower", "two_point.upper",
    "unconditional_sum",
}


def _bind_everywhere(monkeypatch, module, name, make):
    """Bind ``make(original)`` under every name a dualnorm module holds the original by."""
    original = getattr(module, name)
    wrong = make(original)
    bound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dualnorm" or mod_name.startswith("dualnorm."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrong)
                    bound += 1
    assert bound >= 1


def test_without_a_fault_every_report_passes():
    failing, made = _failing_per_anchor()
    assert failing == {} and sum(made.values()) == REPORTS
    caught = set().union(*CAUGHT.values())
    assert set(made) - caught == UNCAUGHT and caught <= set(made)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_each_fault_fails_the_pinned_anchors(monkeypatch, fault):
    _bind_everywhere(monkeypatch, *FAULTS[fault])
    failing, _ = _failing_per_anchor()
    monkeypatch.undo()
    assert failing == CAUGHT[fault]
