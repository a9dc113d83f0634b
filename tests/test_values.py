"""The contract of the package's value types: Poly, Mat2, Gen, Letter,
NormalForm, CheckResult and WitnessReport.  Each one survives copy,
deepcopy and pickle as an equal value with an equal hash, refuses
assignment to its fields, and keeps its repr."""

import copy
import pickle
import re

import pytest

from nagaolab.amalgam import Letter, NormalForm
from nagaolab.gl2 import Gen, Mat2, e12, w
from nagaolab.nagao import nagao_normal_form
from nagaolab.ring import Poly
from nagaolab.witnesses import CheckResult, WitnessReport, verify_witness_suite

from helpers import const_mat


def _values():
    """(value, one of its fields, its repr) for an instance of each type."""
    f = Poly([1, 2, 0, 4], 5)
    m = e12(Poly.parse("t^2 + 1", 5)) * w(5)
    nf = nagao_normal_form(5, m)
    check = verify_witness_suite((2,), (1,)).checks[0]
    mat_t2 = "Mat2(coeffs=((1,), (0, 0, 1), (), (1,)), mod=5)"
    check_repr = "CheckResult(id='det_h(2,1)', statement='det h(p,k) == 1', status='pass', lhs='1', rhs='1')"
    return [
        (f, "coeffs", "Poly([1, 2, 0, 4], mod=5)"),
        (Poly.parse("-3*t"), "mod", "Poly([0, -3], mod=None)"),
        (m, "coeffs", "Mat2(coeffs=((1, 0, 1), (4,), (1,), ()), mod=5)"),
        (e12(Poly.parse("-3*t")), "mod", "Mat2(coeffs=((1,), (0, -3), (), (1,)), mod=None)"),
        (Gen("E12", f, 5), "arg", "Gen(kind='E12', arg=Poly([1, 2, 0, 4], mod=5), mod=5)"),
        (Gen("D", -1, None), "kind", "Gen(kind='D', arg=-1, mod=None)"),
        (Gen("W", None, 3), "mod", "Gen(kind='W', arg=None, mod=3)"),
        (nf.tail[0], "factor", f"Letter(factor=2, mat={mat_t2})"),
        (nf, "head",
         "NormalForm(head=Mat2(coeffs=((1,), (1,), (), (1,)), mod=5), "
         f"tail=(Letter(factor=2, mat={mat_t2}), "
         "Letter(factor=1, mat=Mat2(coeffs=((), (4,), (1,), ()), mod=5))))"),
        (check, "status", check_repr),
        (WitnessReport((check,)), "checks", f"WitnessReport(checks=({check_repr},))"),
    ]


VALUES = _values()
IDS = [type(v).__name__ for v, _, _ in VALUES]


def test_every_value_type_is_covered():
    assert {type(v) for v, _, _ in VALUES} == {Poly, Mat2, Gen, Letter, NormalForm, CheckResult, WitnessReport}


@pytest.mark.parametrize("value, field, text", VALUES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_value(value, field, text):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


@pytest.mark.parametrize("value, field, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(value, field, text):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.note = "no instance dict"
    assert getattr(value, field) is before and repr(value) == text


def test_values_of_different_types_differ():
    f = Poly([1], 5)
    m = Mat2(f, Poly([], 5), Poly([], 5), f)
    assert f != m and m != f and m != (m.coeffs, m.mod) and f != (f.coeffs, f.mod)


def test_gen_checks_every_construction():
    with pytest.raises(ValueError, match="unknown generator kind 'E13'"):
        Gen("E13", Poly.parse("t", 5), 5)
    with pytest.raises(ValueError, match="E12 needs a Poly over the same ring"):
        Gen("E12", Poly.parse("t", 3), 5)
    with pytest.raises(ValueError, match="E21 needs a Poly over the same ring"):
        Gen("E21", 1, 5)
    with pytest.raises(ValueError, match="not a unit mod 5"):
        Gen("D", 10, 5)
    with pytest.raises(ValueError, match="not a unit of Z"):
        Gen("D", 2, None)
    # only an int is a D argument: not a float, even an integral one, nor a bool
    for arg, mod in ((1.0, None), (True, None), (2.0, 5)):
        with pytest.raises(ValueError, match=re.escape(f"D needs an int, got {arg!r}")):
            Gen("D", arg, mod)
    with pytest.raises(ValueError, match="W takes no argument"):
        Gen("W", 1, 5)
    # a valid letter passes the checks again when pickle rebuilds it
    gen = Gen("D", 2, 5)
    assert pickle.loads(pickle.dumps(gen)) == gen and gen.matrix() == const_mat(2, 0, 0, 3, 5)
