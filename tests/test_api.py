import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from dualnorm.cli import EXIT_OK, main

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


# Every private name cli takes from a library module: a new one shows up here
CLI_PRIVATE_NAMES = {
    ("dualmodel", "_ascii_float"),
    ("dualmodel", "_ascii_int"),
    ("inequalities", "_SMOOTHNESS_T_GRID"),
    ("inequalities", "_chunks"),
    ("inequalities", "_critical_constants"),
    ("inequalities", "_moduli_pass"),
    ("inequalities", "_parallelogram_reports"),
    ("inequalities", "_two_point_norms"),
    ("inequalities", "_two_point_reports"),
    ("inequalities", "_type_cotype_reports"),
    ("norms", "_holder_reports"),
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


def readme_commands():
    """The `dualnorm ...` lines of the README's example block, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    (examples,) = [b for b in blocks if "dualnorm field show" in b]
    lines = examples.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dualnorm ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert [c[:2] for c in commands] == [["verify", "clarkson"], ["field", "random"], ["field", "show"]]
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args) == EXIT_OK, args
    assert (tmp_path / "clarkson.json").is_file() and (tmp_path / "field.json").is_file()
