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
