"""The committed mutants of ``helpers.MUTANTS``: the table check, which
applies none of them, and the kill test of the "oracle" group, each of whose
entries names a Tier-1 test that must fail under the mutant."""

import importlib
import inspect
import itertools
import pathlib
import re

import pytest

from helpers import MUTANTS, mutant_source, mutants, mutate


def _test_of(mutant):
    """The Tier-1 test an "oracle" entry names as "module.name"."""
    module, name = mutant.test.split(".")
    return getattr(importlib.import_module(module), name)


def _cases(test):
    """The keyword arguments of each call pytest makes of the test, one per
    combination of its parametrize marks; a test that asks for a fixture
    cannot be called here, and fails to bind."""
    axes = []
    for mark in getattr(test, "pytestmark", ()):
        if mark.name == "parametrize":
            names, values = mark.args[:2]
            names = [n.strip() for n in names.split(",")]
            axes.append([dict(zip(names, v if len(names) > 1 else (v,))) for v in values])
    cases = [{k: v for axis in combo for k, v in axis.items()} for combo in itertools.product(*axes)]
    for case in cases:
        inspect.signature(test).bind(**case)
    return cases


def test_every_mutant_entry_is_current():
    """Each entry's text occurs exactly once in its function, only the
    "oracle" entries name a test, and each test they name can be called
    with its parameters; every group is run by some kill test."""
    for name, mutant in MUTANTS.items():
        mutant_source(name)
        assert (mutant.group == "oracle") == (mutant.test is not None), name
        if mutant.test is not None:
            _cases(_test_of(mutant))
    sources = "".join(path.read_text() for path in pathlib.Path(__file__).parent.glob("test_*.py"))
    assert {mutant.group for mutant in MUTANTS.values()} <= set(re.findall(r'mutants\("(\w+)"\)', sources))


@pytest.mark.parametrize("mutant", mutants("oracle"))
def test_an_oracle_mutant_fails_its_test(monkeypatch, mutant):
    """Under the mutant, the Tier-1 test its entry names fails, for at least
    one of its parameter sets."""
    test = _test_of(MUTANTS[mutant])
    cases = _cases(test)
    mutate(monkeypatch, mutant)
    failed = 0
    for case in cases:
        try:
            test(**case)
        except NameError:  # a replacement that names what its function lacks
            raise
        except Exception:
            failed += 1
    assert failed, f"{MUTANTS[mutant].test} passes under {mutant!r}"
