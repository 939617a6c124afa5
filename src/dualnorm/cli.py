"""Batch verification harness and command-line front end.

``dualnorm verify <suite>`` builds a dual model, draws seeded random fields,
runs one of the named check suites and emits machine-readable reports.
Report content is a pure function of the configuration: trial k reads row
k of the suite's keyed streams, one per (base seed, suite, role), and each
check runs once per chunk of trials on their batch Field.  A suite walks its
chunks once and runs every exponent and family inside each chunk, so the
fields a chunk builds that do not depend on p (sums, products, adjoints,
|H|, the stacks its norms reduce, the runs of its sign tables) are built
once, and their memos serve every exponent and family: a staged check is
built once on a chunk's fields and called at each (p, family), as
``adjoint_norm_check(h)``, ``clarkson_check(h1, h2)``,
``two_point_norms(h1, h2)``, ``kadec_klee_gap(hn, h)`` and
``dual_norm_via_search(h, trials, seed, start)`` are.  So suites are
independent, and a trial's reports depend neither on execution order, nor
on how many trials run or how they are chunked, nor on the other exponents
and families of the run.  kadec_klee draws its fields once, as row 0 of its
role streams, and runs its sequence of trials in the same chunks.  Only the
moduli suite keys its pairs by exponent and family too: it normalizes them
in the p-norm.

Exit status: 0 all checks passed, 1 at least one verification failure,
2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import inequalities as ineq
from . import matcore
from .dualmodel import (
    DISTRIBUTIONS,
    DualModel,
    _ascii_float,
    _ascii_int,
    _is_integer,
    _stack,
    decode_field,
    decode_model,
    encode_field,
    encode_model,
    field_product,
    mix_seed,
    parse_dual_arg,
    random_field,
    random_stacks,
)
from .duality import direct_sum_dual_pair_check, dual_extremizer, dual_norm_via_search, pairing
from .interpolation import (
    DEFAULT_T_GRID,
    InterpSpec,
    boundary_witness,
    boundary_witness_check,
    interp_norm_consistency,
    three_lines_check,
)
from .norms import (
    FAMILIES,
    DirectSumSpec,
    ExponentP,
    _sch_norm_from_sigma,
    adjoint_norm_check,
    embedding_check,
    field_norms,
    holder_check,
    lp_hs_norm,
    lp_sch_norm,
)
from .report import (
    TOL_REL,
    CheckReport,
    equality_report,
    inequality_report,
    reports_to_csv,
    reports_to_json,
)

__all__ = ["ConfigError", "SuiteConfig", "SUITES", "run_suite", "emit_report", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(Exception):
    """Bad configuration or malformed input file."""


@dataclass(frozen=True)
class SuiteConfig:
    """One suite run: the model, exponents, family, trial count, seed and tolerance.

    ``trials`` and ``seed`` are integers (``numbers.Integral``, not ``bool``),
    ``dual`` is a ``DualModel``, ``p_list`` a non-empty collection of
    exponents that is not text, and ``tol_override`` is ``None`` or a
    ``numbers.Real`` that is not a ``bool``; anything else raises
    ``ConfigError``.  An exponent equal in value to an earlier one runs
    once, and a finite exponent above ``2^52`` is a configuration error.
    """

    suite: str
    dual: DualModel
    p_list: tuple[ExponentP, ...]
    family: str = "sch"
    trials: int = 10
    seed: int = 0
    tol_override: float | None = None

    def __post_init__(self):
        if not isinstance(self.dual, DualModel):
            raise ConfigError(f"dual must be a DualModel, got {self.dual!r}")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if isinstance(self.p_list, (str, bytes)) or not isinstance(self.p_list, Iterable):
            raise ConfigError(f"p_list must be a collection of exponents, got {self.p_list!r}")
        p_list = tuple(self.p_list)
        if not p_list:
            raise ConfigError("p_list must be non-empty")
        if self.family not in (*FAMILIES, "both"):
            raise ConfigError(f"unknown family {self.family!r}")
        if not -(2**127) <= self.seed < 2**127:  # mix_seed's 16-byte signed encoding
            raise ConfigError(f"seed must lie in [-2^127, 2^127), got {self.seed}")
        tol = self.tol_override
        if tol is not None:
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
                raise ConfigError(f"tol_override must be a real number or None, got {tol!r}")
            # --tol scales every tolerance by tol_override / TOL_REL; an infinite
            # factor would turn an exact check's tol (0) into nan
            if not (tol >= 0.0 and math.isfinite(tol / TOL_REL)):
                raise ConfigError(
                    f"tolerance TOL must be >= 0 with TOL / {TOL_REL:g} finite, got {tol}"
                )
        # an exponent equal in value to an earlier one would repeat its case ids
        try:
            p_list = tuple(dict.fromkeys(ExponentP.parse(p) for p in p_list))
        except ValueError as exc:
            raise ConfigError(f"bad exponent: {exc}") from exc
        for p in p_list:  # p and 2p (an interpolation endpoint) need conjugates: 2p <= 2^53
            if 2**52 < p < math.inf:
                raise ConfigError(f"exponent {p} exceeds 2^52, too large for a conjugate; use inf")
        object.__setattr__(self, "p_list", p_list)

    @property
    def families(self) -> tuple[str, ...]:
        return FAMILIES if self.family == "both" else (self.family,)


def _trials(cfg: SuiteConfig, roles=("a", "b"), fields_per_trial=1):
    """Yield each chunk of the suite's trials: their indices, and a batch Field of draws per role.

    Trial k reads row k of the stream keyed by (base seed, suite, role), so its
    fields depend neither on the chunk, nor on the trial count, nor on the
    exponents and families of the run: a suite walks its chunks once and checks
    every exponent and family on them.  The chunks are ``inequalities._chunks``
    of ``fields_per_trial`` fields a trial.
    """
    keys = [mix_seed(cfg.seed, cfg.suite, role) for role in roles]
    for ks in ineq._chunks(cfg.dual, cfg.trials, fields_per_trial):
        yield ks, [random_stacks(cfg.dual, key, ks.start, len(ks)) for key in keys]


def _case_ids(prefix: str, ks) -> list[str]:
    """The case ids ``prefix[kkkk]`` of trials ``ks``."""
    return [f"{prefix}[{k:04d}]" for k in ks]


def _interior(cfg: SuiteConfig) -> list[ExponentP]:
    """The exponents of the run in the open interval (1, inf)."""
    return [p for p in cfg.p_list if 1.0 < p < math.inf]


def _suite_norms(cfg: SuiteConfig):
    for ks, (h1, h2) in _trials(cfg, fields_per_trial=6):  # h1, h2 and a stack of 4
        alpha = 0.5 + (np.array(ks) % 7 + 1) * 0.25
        stack = _stack((h1, h2, h1 + h2, alpha * h1))  # one stack for every exponent and family
        for p in cfg.p_list:
            ids = _case_ids(f"embedding[p={p}]", ks)
            yield from embedding_check(h1, p, case_id=ids)
            for family in cfg.families:
                n1, n2, n_sum, n_scaled = field_norms(stack, p, family)
                yield from inequality_report(
                    cfg.suite, _case_ids(f"triangle.{family}[p={p}]", ks), p,
                    n_sum, n1 + n2, (h1, h2, p, family), "triangle",
                )
                yield from equality_report(
                    cfg.suite, _case_ids(f"homogeneity.{family}[p={p}]", ks), p,
                    n_scaled, alpha * n1, (h1, p, family, alpha), "homogeneity",
                )
        # S_2 = HS, from singular values on one side and Frobenius sums on the
        # other: the HS family shares its kernel with the Schatten norm at p = 2
        yield from equality_report(
            cfg.suite, _case_ids("p2_coincidence", ks), 2.0,
            _sch_norm_from_sigma(h1, 2.0), lp_hs_norm(h1, 2.0), (h1,), "p2_coincidence", rel=1e-12,
        )


def _suite_holder(cfg: SuiteConfig):
    inf = ExponentP(math.inf)
    for ks, (h1, h2) in _trials(cfg, fields_per_trial=3):  # h1, h2 and their product
        product = field_product(h1, h2)  # its singular values serve every exponent and case
        for p in cfg.p_list:
            cases = [
                (p, p.conjugate(), "conjugate[p={p}][{k:04d}]"),
                (inf, inf, "inf_both[{k:04d}][p={p}]"),
            ]
            if not p.is_inf:
                cases.append((inf, p, "inf_left[r={p}][{k:04d}]"))
            for a, b, case_id in cases:
                ids = [case_id.format(p=p, k=k) for k in ks]
                yield from holder_check(h1, h2, a, b, product, case_id=ids)


def _suite_adjoint(cfg: SuiteConfig):
    for ks, (h,) in _trials(cfg, roles=("a",), fields_per_trial=7):  # h, U, V*, |h|, 3 stacked
        check = adjoint_norm_check(h)  # one SVD of h forms |h|, and one stack serves every case
        for p in cfg.p_list:
            for family in cfg.families:
                yield from check(p, family, case_id=_case_ids(f"{family}[p={p}]", ks))


_PROBES = 5  # random unit fields per duality trial in the dual-norm search


def _suite_duality(cfg: SuiteConfig):
    spec = DirectSumSpec(ExponentP(1.5), 3.0)
    exponents = [p for p in cfg.p_list if not p.is_inf]
    if not exponents:
        return
    probe_seed = mix_seed(cfg.seed, cfg.suite, "probe")
    # h, other, their extremizers and SVD factors at one exponent, and the probes (13 of 14)
    for ks, (h, other) in _trials(cfg, fields_per_trial=4 + 2 * _PROBES):
        search = dual_norm_via_search(h, _PROBES, probe_seed, ks.start)
        for p in exponents:
            norm = lp_sch_norm(h, p)
            f = dual_extremizer(h, p)
            inputs = (h, p)
            # re-reduces F's own singular values: checks the composition, not the formula
            yield from equality_report(
                cfg.suite, _case_ids(f"extremizer_unit[p={p}]", ks), p,
                lp_sch_norm(f, p.conjugate()), 1.0, inputs, "extremizer", rel=1e-9,
            )
            yield from equality_report(
                cfg.suite, _case_ids(f"extremizer_pairing[p={p}]", ks), p,
                np.abs(pairing(h, f)), norm, inputs, "extremizer", rel=1e-9,
            )
            yield from inequality_report(
                cfg.suite, _case_ids(f"search_bound[p={p}]", ks), p,
                search(p), norm, inputs, "dual_supremum",
            )
            if p > 1.0:
                ids = _case_ids(f"direct_sum[p={p}]", ks)
                f_other = dual_extremizer(other, p)
                yield from direct_sum_dual_pair_check(h, other, f, f_other, p, spec, case_id=ids)


def _interp_spec_for(p: ExponentP) -> InterpSpec:
    """The strip of endpoints 1 and 2 below p = 2, and of 2 and 2p above it (both 2 at p = 2)."""
    if p < 2.0:
        return InterpSpec.for_target(1.0, 2.0, p)
    return InterpSpec.for_target(2.0, 2.0 * p if p > 2.0 else 2.0, p)


def _suite_interpolation(cfg: SuiteConfig):
    exponents = _interior(cfg)
    if not exponents:
        return
    # a chunk's witnesses are batches of its trials at every boundary point
    for ks, (h, f) in _trials(cfg, fields_per_trial=2 * len(DEFAULT_T_GRID)):
        for p in exponents:  # h's and f's SVD memos serve every exponent
            spec = _interp_spec_for(p)
            lines = boundary_witness(h, spec)
            line_norms = lp_sch_norm(lines[0], spec.p0), lp_sch_norm(lines[1], spec.p1)
            ids = _case_ids(f"boundary_norms[p={p}]", ks)
            yield from boundary_witness_check(h, spec, line_norms, case_id=ids)
            ids = _case_ids(f"three_lines[p={p}]", ks)
            yield from three_lines_check(h, f, spec, lines, case_id=ids)
            ids = _case_ids(f"consistency[p={p}]", ks)
            yield from interp_norm_consistency(h, spec, line_norms, case_id=ids)


def _suite_clarkson(cfg: SuiteConfig):
    exponents = _interior(cfg)
    if not exponents:
        return
    for ks, (h1, h2) in _trials(cfg, fields_per_trial=6):  # h1, h2 and a stack of 4
        check = ineq.clarkson_check(h1, h2)
        for p in exponents:
            for family in cfg.families:
                yield from check(p, family, case_id=_case_ids(f"{family}[p={p}]", ks))


def _suite_two_point(cfg: SuiteConfig):
    crits = {(p, family): [] for p in _interior(cfg) for family in cfg.families}
    if not crits:
        return
    for ks, (h1, h2) in _trials(cfg, fields_per_trial=6):  # h1, h2 and a stack of 4
        norms_at = ineq.two_point_norms(h1, h2)
        for (p, family), found in crits.items():
            norms = norms_at(p, family)
            ids = _case_ids(f"{family}[p={p}]", ks)
            yield from ineq.two_point_check(h1, h2, p, family, norms, case_id=ids)
            found.append(ineq.two_point_critical_constant(norms))
            if p == 2.0:
                ids = _case_ids(f"parallelogram.{family}", ks)
                yield from ineq.two_point_equality_check(h1, h2, family, norms, case_id=ids)
    for (p, family), found in crits.items():
        found = np.concatenate(found)
        found = found[~np.isnan(found)]
        if found.size:
            # restates the two_point rows and cannot fail on its own; it stays while
            # benchmarks/workloads.expected_report_count pins the report set
            if p >= 2.0:
                lhs, rhs = found.max(), ineq.two_point_upper_constant(p)
            else:
                lhs, rhs = ineq.two_point_lower_constant(p), found.min()
            yield inequality_report(
                cfg.suite, f"critical_aggregate.{family}[p={p}]", p, lhs, rhs,
                (p, family, cfg.seed, cfg.trials), "critical_constant",
            )


def _suite_moduli(cfg: SuiteConfig):
    for p in _interior(cfg):
        for family in cfg.families:
            convexity, smoothness = ineq._moduli_pass(
                cfg.dual, p, family, True, ineq._SMOOTHNESS_T_GRID, cfg.trials,
                mix_seed(cfg.seed, cfg.suite, p, family),
            )
            occupied = [est for est in convexity if not est.skipped]
            for est in occupied + smoothness:
                x = est.epsilon_or_t
                case_id = (f"convexity.{family}[p={p}][eps={x:.1f}]"
                           if est.kind == "convexity_lower"
                           else f"smoothness.{family}[p={p}][t={x:.2f}]")
                inputs = (p, family, x, cfg.seed, cfg.trials)
                yield inequality_report(cfg.suite, case_id, p, *est.sides, inputs, est.kind)
            # occupied bins against all bins cannot fail; the record stays while
            # benchmarks/workloads.expected_report_count pins the report set
            yield inequality_report(
                cfg.suite, f"convexity_bins.{family}[p={p}]", p,
                float(len(occupied)), float(len(convexity)),
                (p, family, cfg.seed, cfg.trials), "bin_occupancy", rel=0.0,
            )


def _suite_type_cotype(cfg: SuiteConfig):
    pairs = [(p, family) for p in _interior(cfg) for family in cfg.families]
    if not pairs:
        return
    for ks, fields in _trials(cfg, roles=range(5), fields_per_trial=10):  # 5 draws and their stack
        # the five summands of each trial, stacked once: their norms and every sign average
        stack = _stack(fields)
        averages = ineq._rademacher_averages(stack, pairs)
        for (p, family), avg2 in zip(pairs, averages):
            norms = field_norms(stack, p, family)
            ids = _case_ids(f"{family}[p={p}]", ks)
            yield from ineq.type_cotype_check(fields, p, family, norms, avg2, case_id=ids)
            if p == 2.0:  # the same sign average against the quadratic sum of norms
                l2 = matcore.power_sum(norms, 2.0)
                yield from equality_report(
                    cfg.suite, _case_ids(f"hilbert_equality.{family}", ks),
                    2.0, avg2, l2, (fields, family), "sign_average_identity",
                )


def _suite_kadec_klee(cfg: SuiteConfig):
    exponents = _interior(cfg)
    if not exponents:
        return
    h, d, base = (
        random_stacks(cfg.dual, mix_seed(cfg.seed, cfg.suite, role))[0]
        for role in ("a", "b", "sum")
    )
    # trial k: the gap of h + d / (k + 1); a chunk holds hn and a stack of 4
    for ks in ineq._chunks(cfg.dual, cfg.trials, 5):
        n = np.arange(ks.start + 1, ks.stop + 1)
        hn = h + (1.0 / n) * d
        gap = ineq.kadec_klee_gap(hn, h)
        for p in exponents:
            yield from gap(p, case_id=[f"gap[p={p}][n={m:04d}]" for m in n])
    for p in exponents:
        base_norm = lp_sch_norm(base, p)
        scaled = [(2.0**-j / base_norm) * base for j in range(5)]
        yield ineq.unconditional_sum_bound(scaled, p, case_id=f"sum_bound[p={p}]")


SUITES = {
    "norms": _suite_norms,
    "holder": _suite_holder,
    "adjoint": _suite_adjoint,
    "duality": _suite_duality,
    "interpolation": _suite_interpolation,
    "clarkson": _suite_clarkson,
    "two_point": _suite_two_point,
    "moduli": _suite_moduli,
    "type_cotype": _suite_type_cotype,
    "kadec_klee": _suite_kadec_klee,
}


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    """Run one named suite (or "all") and return reports sorted by case."""
    if config.suite != "all" and config.suite not in SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}")
    names = SUITES if config.suite == "all" else [config.suite]
    reports = [r for name in names for r in SUITES[name](replace(config, suite=name))]
    if config.tol_override is not None:
        reports = [_retolerate(r, config.tol_override) for r in reports]
    reports.sort(key=lambda r: (r.suite, r.case_id))
    return reports


def _retolerate(r: CheckReport, tol_rel: float) -> CheckReport:
    """``r`` with its own tolerance rule (``rel``, ``scale``) rescaled from TOL_REL to ``tol_rel``."""
    tol = r.tol * (tol_rel / TOL_REL)
    return replace(r, tol=tol, passed=r.slack >= -tol)


def emit_report(reports, format: str, path: str) -> None:
    """Write reports as a JSON array or RFC-4180 CSV."""
    if format == "json":
        text = reports_to_json(reports)
    elif format == "csv":
        text = reports_to_csv(reports)
    else:
        raise ConfigError(f"unknown report format {format!r}")
    _write_text(path, text, "report")


def _read_json(path: str, what: str):
    """The JSON document in ``path``; failing to read or parse it is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} from {path}: {exc}") from exc


def _write_text(path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path`` as is; failing to write it is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} to {path}: {exc}") from exc


def _load_dual(text: str) -> DualModel:
    if text.endswith(".json") or os.path.sep in text:
        doc = _read_json(text, "a dual model")
        try:
            return decode_model(doc)
        except ValueError as exc:
            raise ConfigError(f"cannot load dual model from {text}: {exc}") from exc
    try:
        return parse_dual_arg(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _typed(parse, name: str):
    """``parse`` as an argparse ``type=``, called ``name`` in usage errors: "invalid int value"."""

    def typed(text):
        return parse(text)

    typed.__name__ = name
    return typed


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualnorm",
        description="Verify norm identities and inequalities over truncated unitary duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ascii_int = _typed(_ascii_int, "int")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    verify.add_argument("--dual", default="s3", help="preset like s3, torus(4), su2_trunc(3), custom(1,2,2), or a .json file")
    verify.add_argument("--p", default="1.5,2,3", help="comma-separated exponents; inf and fractions like 3/2 allowed")
    verify.add_argument("--family", choices=[*FAMILIES, "both"], default="both")
    verify.add_argument("--trials", type=ascii_int, default=10)
    verify.add_argument("--seed", type=ascii_int, default=None)
    verify.add_argument("--tol", type=_typed(_ascii_float, "float"), default=None, help="scale every check's own tolerance by TOL / 1e-10")
    verify.add_argument("--out", default=None, help="report file path")
    verify.add_argument("--format", choices=["json", "csv"], default="json")

    field = sub.add_parser("field", help="field utilities")
    field_sub = field.add_subparsers(dest="field_command", required=True)
    rand = field_sub.add_parser("random", help="draw a seeded random field as JSON")
    rand.add_argument("--dual", default="s3")
    rand.add_argument("--seed", type=ascii_int, default=None)
    rand.add_argument("--dist", choices=DISTRIBUTIONS, default="ginibre")
    rand.add_argument("--out", default=None)
    show = field_sub.add_parser("show", help="summarize a field JSON file")
    show.add_argument("path")
    show.add_argument("--dual", default=None, help="dual model (defaults to presets by name)")
    return parser


def _default_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("DUALNORM_SEED")
    try:
        return _ascii_int(env) if env else 0
    except ValueError as exc:
        raise ConfigError(f"DUALNORM_SEED must be an integer, got {env!r}") from exc


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        suite=args.suite,
        dual=_load_dual(args.dual),
        p_list=tuple(args.p.split(",")),
        family=args.family,
        trials=args.trials,
        seed=_default_seed(args.seed),
        tol_override=args.tol,
    )
    reports = run_suite(config)
    if args.out:
        emit_report(reports, args.format, args.out)
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print(
            f"FAIL {r.suite}/{r.case_id}: lhs={r.lhs:.12g} rhs={r.rhs:.12g} "
            f"slack={r.slack:.3e} tol={r.tol:.3e}"
        )
    print(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _cmd_field(args) -> int:
    if args.field_command == "random":
        model = _load_dual(args.dual)
        try:
            field = random_field(model, _default_seed(args.seed), args.dist)
        except ValueError as exc:  # a seed outside the stream keys [0, 2^128)
            raise ConfigError(f"cannot draw a field: {exc}") from exc
        doc = {"dual": encode_model(model), "field": encode_field(field)}
        text = json.dumps(doc, indent=2) + "\n"
        if args.out:
            _write_text(args.out, text, "a field")
        else:
            print(text, end="")
        return EXIT_OK
    if args.field_command == "show":
        doc = _read_json(args.path, "a field")
        if not isinstance(doc, dict):
            raise ConfigError(f"field file {args.path} does not hold a JSON object")
        try:
            if "dual" in doc:
                model, payload = decode_model(doc["dual"]), doc.get("field", doc)
            elif args.dual:
                model, payload = _load_dual(args.dual), doc
            else:
                raise ConfigError("field file has no embedded dual; pass --dual")
            field = decode_field(payload, model)
        except ValueError as exc:
            raise ConfigError(f"malformed field file {args.path}: {exc}") from exc
        print(f"model {model.name}: {len(model)} entries, dims {list(model.dims)}")
        for (lab, dim), block in zip(model.entries, field.blocks):
            print(f"  {lab}: dim {dim}, hs-norm {matcore.hs_norm(block):.6g}")
        print(f"sch-2 norm: {lp_sch_norm(field, 2.0):.12g}")
        return EXIT_OK
    raise ConfigError(f"unknown field command {args.field_command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "field":
            return _cmd_field(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
