import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from dualnorm import duality, inequalities, interpolation, norms
from dualnorm.cli import EXIT_OK, SUITES, main
from dualnorm.dualmodel import field_product, mix_seed, preset_dual, random_field
from dualnorm.report import CheckReport
from test_fault_injection import CAUGHT, UNCAUGHT

MODULES = ["cli", "dualmodel", "duality", "inequalities", "interpolation", "matcore", "norms", "report"]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(f"dualnorm.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and not attr.startswith("_")
        and obj.__module__ == module.__name__
    }
    listed = set(module.__all__)
    assert len(listed) == len(module.__all__), "a name is listed twice"
    assert defined <= listed, f"public but not in __all__: {sorted(defined - listed)}"
    # the rest of __all__ may only be constants defined here
    for attr in listed - defined:
        obj = getattr(module, attr)
        assert not (inspect.isfunction(obj) or inspect.isclass(obj) or inspect.ismodule(obj)), attr


# The report builders take a suite name; every check names its own
REPORT_BUILDERS = {("report", "check_report"), ("report", "equality_report"),
                   ("report", "inequality_report")}


# The public checks, one function each: the only functions of the library
# modules that build a report
CHECKS = {
    ("norms", "embedding_check"), ("norms", "holder_check"), ("norms", "adjoint_norm_check"),
    ("duality", "direct_sum_dual_pair_check"),
    ("interpolation", "three_lines_check"), ("interpolation", "boundary_witness_check"),
    ("interpolation", "interp_norm_consistency"),
    ("inequalities", "clarkson_check"), ("inequalities", "two_point_check"),
    ("inequalities", "two_point_equality_check"), ("inequalities", "type_cotype_check"),
    ("inequalities", "kadec_klee_gap"), ("inequalities", "unconditional_sum_bound"),
}


def test_only_the_report_builders_take_a_suite():
    taking = set()
    for name in MODULES:
        module = importlib.import_module(f"dualnorm.{name}")
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") and getattr(obj, "__module__", "") == module.__name__
            if public and inspect.isfunction(obj) and "suite" in inspect.signature(obj).parameters:
                taking.add((name, attr))
    assert taking == REPORT_BUILDERS


def test_each_check_reports_under_the_suite_that_runs_it():
    h1, h2, f1, f2, f3 = fields = [random_field(preset_dual("s3"), mix_seed("api", j))
                                   for j in range(5)]
    spec = interpolation.InterpSpec.for_target(1.0, 2.0, 1.5)
    witness = interpolation.boundary_witness(h1, spec)
    line_norms = [norms.lp_sch_norm(line, q) for line, q in zip(witness, (spec.p0, spec.p1))]
    small = [(2.0**-j / norms.lp_sch_norm(h1, 1.5)) * h1 for j in range(3)]
    reports = {  # the SUITES key of a suite -> the reports of the public checks it runs
        "norms": [norms.embedding_check(h1, 1.5)],
        "holder": [norms.holder_check(h1, h2, 1.5, 3.0, field_product(h1, h2))],
        "adjoint": [norms.adjoint_norm_check(h1)(1.5)],
        "duality": [
            duality.direct_sum_dual_pair_check(h1, h2, f1, f2, 1.5, norms.DirectSumSpec(1.5, 3.0))
        ],
        "interpolation": [
            interpolation.three_lines_check(h1, f3, spec, witness),
            interpolation.boundary_witness_check(h1, spec, line_norms),
            interpolation.interp_norm_consistency(h1, spec, line_norms),
        ],
        "clarkson": [inequalities.clarkson_check(h1, h2)(1.5, "sch")],
        "two_point": [
            inequalities.two_point_check(
                h1, h2, 1.5, "sch", inequalities.two_point_norms(h1, h2)(1.5, "sch")
            ),
            inequalities.two_point_equality_check(
                h1, h2, "sch", inequalities.two_point_norms(h1, h2)(2.0, "sch")
            ),
        ],
        "type_cotype": [
            inequalities.type_cotype_check(
                fields, 1.5, "sch", norms.field_norms(fields, 1.5, "sch"),
                inequalities.rademacher_average(fields, 1.5, "sch"),
            )
        ],
        "kadec_klee": [
            inequalities.kadec_klee_gap(h2, h1)(1.5),
            inequalities.unconditional_sum_bound(small, 1.5),
        ],
    }
    assert set(reports) == set(SUITES) - {"moduli"}  # the moduli suite runs no public check
    assert sum(map(len, reports.values())) == len(CHECKS)
    for suite, made in reports.items():
        for report in made:
            assert isinstance(report, CheckReport) and report.suite == suite, report.anchor


def outermost_functions(node):
    """The functions under ``node`` that no other function encloses."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from outermost_functions(child)


def test_only_the_checks_build_reports():
    # a report is built in its check, never in a helper that takes the check's norms;
    # a report built in a nested function, such as a staged check, is its enclosing check's
    building = set()
    for name in ("norms", "inequalities", "interpolation", "duality"):
        module = importlib.import_module(f"dualnorm.{name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in outermost_functions(tree):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if ("report", called) in REPORT_BUILDERS:
                        building.add((name, node.name))
    assert building == CHECKS


def test_layout_rules_and_modulus_sides_are_stated_once():
    sources = {name: Path(importlib.import_module(f"dualnorm.{name}").__file__).read_text(
        encoding="utf-8") for name in MODULES}
    texts = ("fields live over different dual models", "fields have different batch shapes",
             "sum(d * d", "p / (p - 1.0)", "strictly inside (1, inf)", "the zero field has no",
             "col * dim + row")  # the block transpose: coordinate (r, c) to (c, r)
    found = {t: {name: s.count(t) for name, s in sources.items() if t in s} for t in texts}
    assert found == {texts[0]: {"dualmodel": 1}, texts[1]: {"dualmodel": 1}, texts[2]: {},
                     texts[3]: {}, texts[4]: {"norms": 1}, texts[5]: {"duality": 1},
                     texts[6]: {"dualmodel": 1}}
    # every other module reads the transpose from the model, and none transposes a block
    assert not [name for name, s in sources.items() if name != "dualmodel" and "np.divmod(" in s]
    # the moduli suite reports each estimate's own sides, never its fields
    cli_tree = ast.parse(sources["cli"])
    cli_attrs = {n.attr for n in ast.walk(cli_tree) if isinstance(n, ast.Attribute)}
    assert "sides" in cli_attrs and not cli_attrs & {"bound", "estimate"}



def test_the_two_scaling_rules_are_stated_once():
    sources = {name: Path(importlib.import_module(f"dualnorm.{name}").__file__).read_text(
        encoding="utf-8") for name in MODULES}
    # every exact power-of-two scaling takes its exponent from matcore._scale_exponent
    assert {name: s.count("np.frexp(") for name, s in sources.items() if "np.frexp(" in s} == {
        "matcore": 1}
    tree = ast.parse(sources["matcore"])
    helper = next(n for n in tree.body if getattr(n, "name", "") == "_scale_exponent")
    assert "np.frexp(" in ast.get_source_segment(sources["matcore"], helper)
    # every l^p sum divides by its largest term itself (matcore._largest_term)
    assert not [name for name, s in sources.items() if "_TINY" in s]
    # a norm squared outside matcore is a sum of squares that no rule scales
    assert not [name for name, s in sources.items()
                if name != "matcore" and re.search(r"\*\* ?2\.0", s)]

# Every private name cli takes from a library module: a new one shows up here
CLI_PRIVATE_NAMES = {
    ("dualmodel", "_ascii_float"),
    ("dualmodel", "_ascii_int"),
    ("dualmodel", "_is_integer"),
    ("dualmodel", "_stack"),
    ("inequalities", "_SMOOTHNESS_T_GRID"),
    ("inequalities", "_chunks"),
    ("inequalities", "_moduli_pass"),
    ("inequalities", "_rademacher_averages"),
    ("norms", "_sch_norm_from_sigma"),
}


def test_cli_takes_only_the_listed_private_names():
    cli = importlib.import_module("dualnorm.cli")
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    own = [n for n in imports if n.level == 1 or (n.module or "").split(".")[0] == "dualnorm"]
    modules, taken = {}, set()  # modules: local name -> dualnorm module
    for node in own:
        module = (node.module or "").removeprefix("dualnorm").lstrip(".")
        for alias in node.names:
            if not module:  # from . import inequalities as ineq
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_"):
                taken.add((module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                taken.add((modules[node.value.id], node.attr))
    assert modules and taken == CLI_PRIVATE_NAMES


# The matcore names no other module of the package uses: the error type its kernels raise
MATCORE_UNUSED_NAMES = {"FactorizationError"}


def test_matcore_keeps_only_the_kernels_the_package_runs():
    matcore = importlib.import_module("dualnorm.matcore")
    used = set()
    for path in Path(matcore.__file__).parent.glob("*.py"):
        if path.name == "matcore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "matcore":  # matcore.svd
                    used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "matcore":
                used.update(alias.name for alias in node.names)  # from .matcore import power_sum
    assert set(matcore.__all__) - used == MATCORE_UNUSED_NAMES


def test_the_amplified_oracle_imports_only_numpy_and_math():
    # so it can share no code with the package it checks
    tree = ast.parse((Path(__file__).parent / "amplified.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy"}


def readme_commands():
    """The `dualnorm ...` lines of the README's example block, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    (examples,) = [b for b in blocks if "dualnorm field show" in b]
    lines = examples.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dualnorm ")]


def test_readme_anchor_table_names_every_anchor():
    # the anchors a `verify all` run emits: a new anchor fails here until the README names it
    section = README.read_text(encoding="utf-8").split("## Anchors\n")[1].split("\n## ")[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    named = [a for row in rows for a in re.findall(r"`([^`]+)`", row[1])]
    assert len(named) == len(set(named))
    assert set(named) == set().union(*CAUGHT.values()) | UNCAUGHT


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert [c[:2] for c in commands] == [["verify", "clarkson"], ["field", "random"], ["field", "show"]]
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args) == EXIT_OK, args
    assert (tmp_path / "clarkson.json").is_file() and (tmp_path / "field.json").is_file()
