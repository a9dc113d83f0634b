"""The package as a whole: no check that ``python -O`` strips, a public
surface that matches what the modules define, one import path for each
name, modules that load only the layers below them, and an import that
stays cheap for a CLI request."""

import ast
import importlib
import pathlib
import subprocess
import sys
import types

import pytest

import nagaolab

SRC = pathlib.Path(nagaolab.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")

# The package modules that importing each module loads besides itself.
LAYERS = {
    "ring": [],
    "gl2": ["ring"],
    "amalgam": ["gl2", "ring"],
    "homology": ["ring"],
    "nagao": ["amalgam", "gl2", "ring"],
    "witnesses": ["amalgam", "gl2", "nagao", "ring"],
    "cli": ["amalgam", "gl2", "homology", "nagao", "ring", "witnesses"],
}


def test_no_assert_in_the_library():
    """A correctness check in the library must raise: ``python -O`` drops
    every assert statement."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_name_in_all_exists():
    assert MODULES == sorted(LAYERS)
    missing = []
    for name in MODULES:
        mod = importlib.import_module(f"nagaolab.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_package_reexports_are_pinned():
    """Each public name has one import path, its module: ``import nagaolab``
    offers nothing besides its submodules, ``__version__`` and dunders."""
    names = sorted(
        name for name, value in vars(nagaolab).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    )
    assert names == []
    assert isinstance(nagaolab.__version__, str)


def _loaded_by(module: str) -> list[str]:
    """The modules that importing ``nagaolab.<module>`` adds to
    ``sys.modules`` of a bare interpreter (``python -S``)."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        f"import nagaolab.{module}; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    return subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent)], capture_output=True, text=True, check=True
    ).stdout.split()


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_each_module_loads_only_the_layers_below_it(module):
    loaded = [name for name in _loaded_by(module) if name.startswith("nagaolab")]
    assert loaded == ["nagaolab", *(f"nagaolab.{name}" for name in sorted([module, *LAYERS[module]]))]


# The modules that ``dataclasses`` pulls in; a CLI process pays for every
# module that ``import nagaolab.cli`` loads.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_no_code_generator_in_the_library():
    """No module of the package imports ``dataclasses`` or ``typing``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            found += [f"{path.name}:{name}" for name in names if name.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_cli_import_loads_no_heavy_module():
    """In a bare interpreter (``python -S``), importing the CLI adds none of
    the modules behind ``dataclasses`` to ``sys.modules``."""
    out = _loaded_by("cli")
    assert "nagaolab.cli" in out
    assert HEAVY.isdisjoint(out), sorted(HEAVY.intersection(out))
