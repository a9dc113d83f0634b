"""The package as a whole: no check that ``python -O`` strips, a public
surface that matches what the modules define, and an import that stays
cheap for a CLI request."""

import ast
import importlib
import pathlib
import subprocess
import sys
import types

import nagaolab

SRC = pathlib.Path(nagaolab.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")

# The names that ``import nagaolab`` offers besides its submodules.
PUBLIC = [
    "AmalgamStructure",
    "CrossValidationError",
    "Gen",
    "Letter",
    "Mat2",
    "NormalForm",
    "Poly",
    "PolyParseError",
    "SearchCapExceeded",
    "UnsupportedGroupError",
    "class_order_lower_bound",
    "coinvariant_dims",
    "diag",
    "dim_divided_power",
    "dim_exterior",
    "dim_table",
    "e12",
    "e21",
    "e2zt_normal_form",
    "h_dims",
    "identity",
    "is_prime",
    "letters_from_gens",
    "make_witness",
    "mv_ledger_check",
    "nagao_normal_form",
    "parse_gen",
    "parse_matrix",
    "phi_p",
    "sl2fpt_elementary_factor",
    "sn_witness_search",
    "verify_witness_suite",
    "w",
]


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
    assert MODULES == ["amalgam", "cli", "gl2", "homology", "nagao", "ring", "witnesses"]
    missing = []
    for name in MODULES:
        mod = importlib.import_module(f"nagaolab.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_package_reexports_are_pinned():
    names = sorted(
        name for name, value in vars(nagaolab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


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
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import nagaolab.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent)], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "nagaolab.cli" in out
    assert HEAVY.isdisjoint(out), sorted(HEAVY.intersection(out))
