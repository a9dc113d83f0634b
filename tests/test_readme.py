"""README.md stays true: its CLI examples run and the names it cites exist."""

import contextlib
import importlib
import io
import pathlib
import re
import shlex

from nagaolab.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _cli_examples():
    """Every ``nagaolab ...`` line of the README's ``sh`` blocks, as argv."""
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "nagaolab":
                yield argv[1:]


def test_readme_cli_examples_exit_0():
    examples = list(_cli_examples())
    assert len(examples) >= 10
    for argv in examples:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert (code, err.getvalue()) == (0, ""), argv


def test_readme_names_exist():
    names = set(re.findall(r"nagaolab\.(\w+)\.(\w+)", README))
    assert names
    missing = [f"nagaolab.{mod}.{name}" for mod, name in sorted(names)
               if not hasattr(importlib.import_module(f"nagaolab.{mod}"), name)]
    assert missing == []
