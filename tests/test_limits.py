"""The argument rules of ``limits`` hold at every public entry point that
takes a prime, an integer argument or a JSON object: a value of the wrong
type or out of range is refused with one short ValueError line, never a
TypeError, and no call hands back a value over a modulus that is not an
int."""

import json

import pytest

from nagaolab import limits
from nagaolab.amalgam import AmalgamStructure
from nagaolab.cli import main
from nagaolab.gl2 import Gen, diag, e12, e21, identity, mat_from_json, parse_gen, parse_matrix, w
from nagaolab.homology import (
    class_order_lower_bound,
    coinvariant_dims,
    dim_divided_power,
    dim_exterior,
    dim_table,
    h_dims,
    mv_ledger_check,
)
from nagaolab.limits import SearchCapExceeded, is_prime
from nagaolab.nagao import letters_from_gens, nagao_normal_form, phi_p
from nagaolab.ring import Poly
from nagaolab.witnesses import make_witness, sn_witness_search, verify_witness_suite

# a 20 000-bit int: too long for CPython to convert to text
HUGE = (1 << 19_999) | 1
BAD = [3.0, True, "3", None, 2**64 + 13, HUGE]
BAD_IDS = ["float", "bool", "str", "None", "2**64+13", "20000-bit"]

# The kinds of argument: a prime (None refused too), a modulus (None means
# Z), and an integer argument, which may take a large int.
PRIME, MODULUS, INTEGER = "prime", "modulus", "integer"

_X = e12(Poly([0, 1], 3))
_Z_WORD = letters_from_gens([Gen("E12", Poly([0, 1]), None)])

ENTRY_POINTS = {
    "Poly": (MODULUS, lambda v: Poly([1, 2, 5], v)),
    "Poly.zero": (MODULUS, Poly.zero),
    "Poly.one": (MODULUS, Poly.one),
    "Poly.constant": (MODULUS, lambda v: Poly.constant(2, v)),
    "Poly.monomial-exp": (INTEGER, Poly.monomial),
    "Poly.monomial-mod": (MODULUS, lambda v: Poly.monomial(2, 1, v)),
    "Poly.parse": (MODULUS, lambda v: Poly.parse("1 + t", v)),
    "Poly.from_json-mod": (MODULUS, lambda v: Poly.from_json([1, 2], v)),
    "Poly.from_json-field": (PRIME, lambda v: Poly.from_json({"coeffs": [1], "mod": v})),
    "Poly.reduce_mod_p": (PRIME, Poly([1, 2]).reduce_mod_p),
    "Mat2.reduce_mod_p": (PRIME, e12(Poly([0, 1])).reduce_mod_p),
    "Gen-W": (MODULUS, lambda v: Gen("W", None, v)),
    "Gen-E12": (MODULUS, lambda v: Gen("E12", Poly([1], 3), v)),
    "Gen-D": (MODULUS, lambda v: Gen("D", 2, v)),
    "identity": (MODULUS, identity),
    "e12": (MODULUS, lambda v: e12(1, v)),
    "e21": (MODULUS, lambda v: e21(1, v)),
    "diag": (MODULUS, lambda v: diag(1, v)),
    "w": (MODULUS, w),
    "parse_gen": (MODULUS, lambda v: parse_gen("D(2)", v)),
    "parse_matrix": (MODULUS, lambda v: parse_matrix("[[1, t], [0, 1]]", v)),
    "mat_from_json": (MODULUS, lambda v: mat_from_json([[1, 0], [0, 1]], v)),
    "AmalgamStructure": (MODULUS, AmalgamStructure),
    "letters_from_gens": (MODULUS, lambda v: letters_from_gens([Gen("W", None, 3)], v)),
    "nagao_normal_form": (PRIME, lambda v: nagao_normal_form(v, _X)),
    "phi_p": (PRIME, lambda v: phi_p(_Z_WORD, v)),
    "make_witness-p": (PRIME, lambda v: make_witness("g", v, 1)),
    "make_witness-k": (INTEGER, lambda v: make_witness("x", None, v)),
    "verify_witness_suite-p": (PRIME, lambda v: verify_witness_suite([v], [1])),
    "verify_witness_suite-k": (INTEGER, lambda v: verify_witness_suite([2], [v])),
    "sn_witness_search-p": (PRIME, lambda v: sn_witness_search(v, 2)),
    "sn_witness_search-n": (INTEGER, lambda v: sn_witness_search(5, v)),
    "h_dims-p": (PRIME, lambda v: h_dims("e2zt", v, 2, 2)),
    "h_dims-i": (INTEGER, lambda v: h_dims("e2zt", 2, v, 2)),
    "h_dims-d": (INTEGER, lambda v: h_dims("tfpt", 3, 2, v)),
    "dim_table-p": (PRIME, lambda v: dim_table("e2zt", v, 2, 2)),
    "dim_table-d": (INTEGER, lambda v: dim_table("bzt", 2, 2, v)),
    "coinvariant_dims-p": (PRIME, lambda v: coinvariant_dims(v, 2, 2)),
    "coinvariant_dims-i": (INTEGER, lambda v: coinvariant_dims(5, v, 2)),
    "coinvariant_dims-d": (INTEGER, lambda v: coinvariant_dims(5, 2, v)),
    "mv_ledger_check-p": (PRIME, lambda v: mv_ledger_check(v, 2, 2)),
    "mv_ledger_check-i": (INTEGER, lambda v: mv_ledger_check(2, v, 2)),
    "mv_ledger_check-d": (INTEGER, lambda v: mv_ledger_check(3, 2, v)),
    "dim_exterior-n": (INTEGER, lambda v: dim_exterior(v, 2)),
    "dim_exterior-i": (INTEGER, lambda v: dim_exterior(4, v)),
    "dim_divided_power-n": (INTEGER, lambda v: dim_divided_power(v, 2)),
    "dim_divided_power-i": (INTEGER, lambda v: dim_divided_power(4, v)),
    "class_order_lower_bound-i": (INTEGER, class_order_lower_bound),
    "class_order_lower_bound-prime_bound": (INTEGER, lambda v: class_order_lower_bound(6, v)),
}


def _mods(value):
    """The moduli of every value with a ``mod`` in a result, through tuples and lists."""
    if hasattr(value, "mod"):
        yield value.mod
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _mods(item)


def _one_short_line(exc: Exception) -> None:
    text = str(exc)
    assert "\n" not in text and len(text.encode()) < 200, text


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{value_id}")
    for name, (kind, _) in sorted(ENTRY_POINTS.items())
    for value, value_id in zip(BAD, BAD_IDS)
    if not (kind == MODULUS and value is None)  # None is the modulus of Z
])
def test_every_entry_point_refuses_a_bad_argument_in_one_line(name, value):
    kind, call = ENTRY_POINTS[name]
    must_refuse = kind != INTEGER or type(value) is not int
    try:
        result = call(value)
    except (ValueError, SearchCapExceeded) as exc:  # the one-line refusals; never TypeError
        _one_short_line(exc)
    else:
        assert not must_refuse, result
        assert all(mod is None or type(mod) is int for mod in _mods(result))


def test_dim_table_refuses_a_top_degree_that_is_no_int():
    """``dim_table``'s max_i is checked for its type; a large one is the
    caller's request for that many rows, capped only by the CLI."""
    for value in BAD[:4]:
        with pytest.raises(ValueError, match="^homological degree must be an integer, got ") as info:
            dim_table("e2zt", 3, value, 2)
        _one_short_line(info.value)


def _json_text(value) -> str:
    """JSON text for a value; the 20 000-bit int, which CPython does not
    print, as an integer literal of its length."""
    return "1" * 6_021 if value is HUGE else json.dumps(value)


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("template", [
    '[{"factor": %s, "matrix": "W"}]',
    '[[{"coeffs": [1], "mod": %s}, 0], [0, 1]]',
], ids=["word-item-factor", "polynomial-mod"])
def test_cli_json_objects_refuse_a_bad_field_in_one_line(capsys, template, value):
    assert main(["nf", "--mod", "3", template % _json_text(value)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) < 200, err


def test_is_prime_reads_no_cached_answer_for_another_type():
    """The type test stands in front of the cache: 3.0, True and "3" are no
    primes, whether or not the int 3 was asked first."""
    limits._is_prime.cache_clear()
    for _ in range(2):
        assert [is_prime(n) for n in (3.0, True, "3", None, [3])] == [False] * 5
        assert is_prime(3) and is_prime(2)
