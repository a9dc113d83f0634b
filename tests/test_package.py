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
    "limits": [],
    "ring": ["limits"],
    "gl2": ["limits", "ring"],
    "amalgam": ["gl2", "limits", "ring"],
    "homology": ["limits"],
    "nagao": ["amalgam", "gl2", "limits", "ring"],
    "witnesses": ["amalgam", "gl2", "limits", "nagao", "ring"],
    "cli": ["homology", "limits"],
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


# Words of the messages of limits._fields and limits._int_arg, which no
# other module writes out.
_RULE_TEXTS = ("unknown field", "lacks the field", "must be an integer")


def test_input_rules_live_in_limits():
    """The rules for outside input are written out once, in ``limits``: no
    other module names the integer pattern or the digit cap (it converts
    integer text with ``limits._int_of``), defines a quoting function of its
    own besides ``limits._shown``, raises on an ``is_prime`` test of its own
    (the prime rule is ``limits._prime``), or writes a message of the
    object-field or integer-argument rules (``limits._fields`` and
    ``limits._int_arg``)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "limits":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ("_INT_RE", "MAX_INT_DIGITS") or (isinstance(node, ast.FunctionDef) and name == "_shown"):
                found.append(f"{path.name}:{node.lineno}:{name}")
            elif isinstance(node, ast.If) and any(
                getattr(n, "id", None) == "is_prime" for n in ast.walk(node.test)
            ) and any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}:is_prime")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found += [f"{path.name}:{node.lineno}:{text}" for text in _RULE_TEXTS if text in node.value]
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


def _loaded_by(statement: str, *argv: str) -> tuple[int, list[str]]:
    """Run ``statement`` in a bare interpreter (``python -S``), with ``argv``
    as ``sys.argv[2:]``: its exit code, which the statement sets as
    ``code``, and the modules that it adds to ``sys.modules``."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); code = 0; "
        f"{statement}; print(*sorted(set(sys.modules) - before)); sys.exit(code)"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", script, str(SRC.parent), *argv], capture_output=True, text=True
    )
    assert run.stdout.endswith("\n"), run.stderr
    return run.returncode, run.stdout.splitlines()[-1].split()


def _package_modules(loaded: list[str]) -> list[str]:
    return [name for name in loaded if name.startswith("nagaolab")]


def _with_package(*modules: str) -> list[str]:
    return ["nagaolab", *(f"nagaolab.{name}" for name in sorted(modules))]


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_each_module_loads_only_the_layers_below_it(module):
    _, loaded = _loaded_by(f"import nagaolab.{module}")
    assert _package_modules(loaded) == _with_package(module, *LAYERS[module])


# The CLI run of one request per subcommand and one refusal of each: the
# argv, its exit code, and the package modules it loads besides ``cli``.
# Each handler imports what it runs, so ``hdim`` never compiles ``ring``.
RUN_MAIN = "from nagaolab.cli import main; code = main(sys.argv[2:])"
_NF_LAYERS = ["amalgam", "gl2", "homology", "limits", "nagao", "ring"]
_HDIM_LAYERS = ["homology", "limits"]
_ALL_LAYERS = [name for name in sorted(LAYERS) if name != "cli"]
REQUESTS = [
    (["nf", "--mod", "3", "[[1,t],[0,1]]"], 0, _NF_LAYERS),
    (["nf", "--ring", "e2zt", "[[1,t],[0,1]]"], 3, _NF_LAYERS),
    (["hdim", "--group", "e2zt", "--mod", "3"], 0, _HDIM_LAYERS),
    (["hdim", "--group", "e2zt", "--mod", "3", "--max-deg", "10001"], 2, _HDIM_LAYERS),
    (["verify", "--sn", "3", "2"], 0, _ALL_LAYERS),
    (["verify", "--sn", "7", "9"], 2, _ALL_LAYERS),
]


@pytest.mark.parametrize("argv, code, layers", REQUESTS, ids=[f"{argv[0]}-exit{code}" for argv, code, _ in REQUESTS])
def test_each_request_loads_only_what_its_handler_runs(argv, code, layers):
    got, loaded = _loaded_by(RUN_MAIN, *argv)
    assert (got, _package_modules(loaded)) == (code, _with_package("cli", *layers))


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
    """In a bare interpreter (``python -S``), importing the CLI, or running
    any of ``REQUESTS`` through it, adds none of the modules behind
    ``dataclasses`` to ``sys.modules``."""
    runs = [("import nagaolab.cli",)] + [(RUN_MAIN, *argv) for argv, _, _ in REQUESTS]
    for run in runs:
        _, loaded = _loaded_by(*run)
        assert "nagaolab.cli" in loaded
        assert HEAVY.isdisjoint(loaded), (run, sorted(HEAVY.intersection(loaded)))
