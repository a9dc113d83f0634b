import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import nagaolab
from nagaolab import ring
from nagaolab.cli import main
from nagaolab.gl2 import Mat2, e12, e21, identity
from nagaolab.homology import GROUP_IDS
from nagaolab.limits import CrossValidationError
from nagaolab.ring import Poly
from nagaolab.witnesses import CheckResult, WitnessReport


def _alternating_json(p, pairs):
    """Matrix JSON of (E12(t) E21(t))^pairs over F_p, by repeated squaring."""
    t = Poly.monomial(1, 1, p)
    m, base = identity(p), e12(t) * e21(t)
    while pairs:
        if pairs & 1:
            m = m * base
        base, pairs = base * base, pairs >> 1
    return json.dumps(m.to_json())


# Inputs above the work budget, with their exact refusals: over Z, two
# letters E12(f) with f of 3 000 coefficients of 1 960 bits around W (within
# the 4 000-bit size cap), as a word and as a normal form, whose evaluation
# multiplies f by f, a product priced at about 8.9e9 (it runs about 6 s), and
# the (E12(t) E21(t))^1200 matrix over F_3 (about 9.8e9 in all).  Each is
# refused at the first charge past the budget.
_WIDE_E12 = [[1, [0] + [2**1959 + k for k in range(1, 3000)]], [0, 1]]
WORD_WORK_CASE = (
    ["--ring", "e2zt", json.dumps([{"factor": 2, "matrix": _WIDE_E12}, "W", {"factor": 2, "matrix": _WIDE_E12}])],
    "error: word passed the work budget of 4500000000 digit products",
)
NF_WORK_CASE = (
    ["--ring", "e2zt", json.dumps({"head": [[1, 0], [0, 1]], "tags": [2, 1, 2],
                                   "tail": [_WIDE_E12, [[0, -1], [1, 0]], _WIDE_E12]})],
    "error: normal form passed the work budget of 4500000000 digit products",
)
EUCLID_WORK_ERROR = "error: matrix passed the work budget of 4500000000 digit products"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_matrix_mod2(capsys):
    code, out, _ = run(capsys, "nf", "--mod", "2", "[[1,0],[t,1]]")
    assert code == 0
    assert "length: 3" in out
    assert "matrix: [[1, 0], [t, 1]]" in out


def test_nf_single_letter(capsys):
    code, out, _ = run(capsys, "nf", "--mod", "3", "[[1,t],[0,1]]")
    assert code == 0
    assert "length: 1" in out


def test_nf_e2zt_word(capsys):
    code, out, _ = run(capsys, "nf", "--ring", "e2zt", '["W","W"]')
    assert code == 0
    assert "length: 0" in out
    assert "[[-1, 0], [0, -1]]" in out


def test_nf_word_with_explicit_factors(capsys):
    word = json.dumps(
        [
            {"factor": 1, "matrix": "W"},
            {"factor": 2, "matrix": [[["1"], ["0", "1"]], [["0"], ["1"]]]},
        ]
    )
    code, out, _ = run(capsys, "nf", "--mod", "5", word)
    assert code == 0


def test_nf_json_output_roundtrips(capsys):
    code, out, _ = run(capsys, "nf", "--mod", "2", "--format", "json", "[[1,0],[t,1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 3
    # feed the emitted normal form back in as a word
    code2, out2, _ = run(capsys, "nf", "--mod", "2", "--format", "json", out)
    assert code2 == 0
    assert json.loads(out2) == payload


def test_nf_matrix_over_e2zt_is_out_of_scope(capsys):
    code, _, err = run(capsys, "nf", "--ring", "e2zt", "[[1,0],[t,1]]")
    assert code == 3
    assert "word" in err


def test_nf_tags_tail_length_mismatch(capsys):
    obj = json.loads(NF_F3)
    obj["tags"], obj["tail"] = [1], obj["tail"][:2]
    code, out, err = run(capsys, "nf", "--mod", "3", json.dumps(obj))
    assert (code, out) == (2, "")
    assert err == "error: normal form has 1 tags but 2 tail matrices\n"


def test_nf_det_not_one(capsys):
    code, _, err = run(capsys, "nf", "--mod", "3", "[[1,0],[0,2]]")
    assert code == 2
    assert "determinant" in err
    assert err == "error: determinant must be 1, got 2\n"
    code, out, err = run(capsys, "nf", "--mod", "5", "[[1 + t, 0],[0, 1]]")
    assert (code, out, err) == (2, "", "error: determinant must be 1, got 1 + t\n")


# Matrices of det != 1, one for each way they are refused: det m is not 1 at
# t = 0 or at t = 1, before the loop; with det 1 at both, the loop finds no
# pivot (a = 0 with c nonconstant, a gcd that is no unit) or the word does
# not multiply back.
_DET_NOT_ONE = [
    ("3", "[[0,0],[0,1]]", "0"),
    ("3", "[[0,1],[t,0]]", "2*t"),
    ("3", "[[t,0],[0,t]]", "t^2"),
    ("3", "[[1,0],[0,2]]", "2"),
    ("5", "[[1 + t, 0], [0, 1]]", "1 + t"),
    ("3", "[[1, t], [t, 1]]", "1 + 2*t^2"),
    ("3", "[[0, 1], [2 + t + 2*t^2, 0]]", "1 + 2*t + t^2"),
    ("3", "[[1 + t + 2*t^2, 0], [0, 1]]", "1 + t + 2*t^2"),
    ("3", "[[1, t], [t, 1 + t]]", "1 + t + 2*t^2"),
]


@pytest.mark.parametrize("mod, text, det", _DET_NOT_ONE, ids=[text for _, text, _ in _DET_NOT_ONE])
def test_nf_det_not_one_takes_one_determinant(capsys, monkeypatch, mod, text, det):
    """The determinant is computed once the factorization has failed, once,
    for the test and the message: exit 2 and one stderr line."""
    real_det, calls = Mat2.det, []
    monkeypatch.setattr(Mat2, "det", lambda m: calls.append(m) or real_det(m))
    assert run(capsys, "nf", "--mod", mod, text) == (2, "", f"error: determinant must be 1, got {det}\n")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--mod", "3", "--ring", "e2zt", '["E12(5)"]'],
         "nf takes --mod p or --ring e2zt, not both (--ring e2zt works over Z)"),
        (["--mod", "3", "{}"], "error: normal form JSON lacks the field(s) 'head', 'tags', 'tail'"),
        (["--mod", "3", '{"head": [[1, 0], [0, 1]], "tail": []}'],
         "error: normal form JSON lacks the field(s) 'tags'"),
        (["--mod", "3", '{"head": [[1, 0], [0, 1]], "tags": ["x"], "tail": [[[0, 2], [1, 0]]]}'],
         "error: normal form field 'tags' must be a list of integers, got ['x']"),
        (["--mod", "3", '{"head": [[1, 0], [0, 1]], "tags": [1], "tail": 5}'],
         "error: normal form field 'tail' must be a list of matrices, got 5"),
        (["--mod", "3", '{"head": [1, 2], "tags": [], "tail": []}'],
         "error: normal form field 'head': matrix JSON must be a 2x2 nested array"),
        (["--mod", "3", '{"head": [[1, 0], [0, 1]], "tags": [1], "tail": [[["y", 2], [1, 0]]]}'],
         "error: normal form field 'tail': polynomial coefficient 'y' is not an integer or an integer string"),
        (["--mod", "3", '[[{"coeffs": 5}, {"coeffs": []}], [{"coeffs": []}, {"coeffs": ["1"]}]]'],
         "error: polynomial field 'coeffs' must be a list, got 5"),
        (["--mod", "3", '[[{"coeffs": "12"}, 0], [0, 1]]'],
         "error: polynomial field 'coeffs' must be a list, got '12'"),
        (["--mod", "3", "[[1.5, 0], [0, 1]]"],
         "error: polynomial coefficient 1.5 is not an integer or an integer string"),
        (["--mod", "3", "[[1, null], [0, 1]]"],
         "error: polynomial coefficient None is not an integer or an integer string"),
        (["--mod", "3", '[[{"coeffs": [1.7]}, 0], [0, 1]]'],
         "error: polynomial coefficient 1.7 is not an integer or an integer string"),
        (["--mod", "3", "[[true, 0], [0, 1]]"],
         "error: polynomial coefficient True is not an integer or an integer string"),
        # integer strings are [+-]?[0-9]+: int() would also take "1_0" and " 2 "
        (["--mod", "7", '[[1, {"coeffs": ["1_0", "2"]}], [0, 1]]'],
         "error: polynomial coefficient '1_0' is not an integer or an integer string"),
        (["--mod", "7", '[[1, {"coeffs": ["1", " 2 "]}], [0, 1]]'],
         "error: polynomial coefficient ' 2 ' is not an integer or an integer string"),
        (["--mod", "3", '[[1, "t"], [0, 1]]'],
         "error: polynomial coefficient 't' is not an integer or an integer string"),
        (["--mod", "3", '[[1, "-"], [0, 1]]'],
         "error: polynomial coefficient '-' is not an integer or an integer string"),
        # a polynomial object has "coeffs" and at most "mod" besides: a
        # misspelt or missing field would read as the zero polynomial
        (["--mod", "3", '[[1, {"coef": [1]}], [0, 1]]'],
         "error: polynomial JSON has the unknown field 'coef'"),
        (["--mod", "3", '[[1, {}], [0, 1]]'],
         "error: polynomial JSON lacks the field(s) 'coeffs'"),
        (["--mod", "3", '[[{"coeffs": ["1"], "mod": "x"}, 0], [0, 1]]'],
         "error: polynomial field 'mod' must be 3, got 'x'"),
        (["--mod", "3", '[[{"coeffs": ["1"], "mod": 5}, 0], [0, 1]]'],
         "error: polynomial field 'mod' must be 3, got 5"),
        (["--mod", "3", '[{"factor": "x", "matrix": "W"}]'],
         "error: word item 0 field 'factor' must be an integer, got 'x'"),
        (["--mod", "3", '["W", {"factor": true, "matrix": "W"}]'],
         "error: word item 1 field 'factor' must be an integer, got True"),
        # word items and normal forms have only their own fields (a normal
        # form may carry the "length" and "matrix" that --format json writes)
        (["--mod", "3", '[{"factor": 1, "matrix": "W", "extra": 1}]'],
         "error: word item 0 has the unknown field 'extra'"),
        (["--mod", "3", '{"head": [[1,0],[0,1]], "tags": [], "tail": [], "junk": 1}'],
         "error: normal form JSON has the unknown field 'junk'"),
        (["--mod", "3", "[[1, t^2000000], [0, 1]]"],
         "error: exponent 2000000 exceeds the degree cap 10000 (at position 7)"),
        (["--mod", "3", '[[{"coeffs": [%s]}, 0], [0, 1]]' % ", ".join(["0"] * 10002)],
         "error: polynomial has 10002 coefficients, above the degree cap 10000"),
        (["--mod", "3", "[" * 100_000 + "]" * 100_000],
         "error: JSON input is nested too deeply"),
        (["--mod", "3", json.dumps(["W"] * 2001)],
         "error: word has more than 2000 letters (the word length cap)"),
        (["--mod", "3", json.dumps(["E21(1)"] * 667)],
         "error: word has more than 2000 letters (the word length cap)"),
        (["--ring", "e2zt", json.dumps(["E12(t)", "W"] * 1000 + ["W"])],
         "error: word has more than 2000 letters (the word length cap)"),
        (["--mod", "3", json.dumps({"head": [[1, 0], [0, 1]], "tags": [1, 2] * 1000 + [1],
                                    "tail": [[[0, 2], [1, 0]], [[1, "t"], [0, 1]]] * 1000
                                    + [[[0, 2], [1, 0]]]})],
         "error: normal form has more than 2000 letters (the word length cap)"),
        # the work budget, and over F_3 a word whose product would reach
        # degree 10 000 000
        WORD_WORK_CASE,
        (["--mod", "3", json.dumps(["E12(t^10000)", "W"] * 1000)],
         "error: word passed the work budget of 4500000000 digit products"),
        NF_WORK_CASE,
        (["--ring", "e2zt", json.dumps(["E12(%d)" % 2**1998, "W", "E12(%d)" % 2**1998])],
         "error: word has summed coefficient bits above the product size cap 4000"),
        (["--ring", "e2zt", json.dumps(["E12(%s*t)" % ("9" * 2500), "W", "E12(%s*t)" % ("9" * 2500)])],
         "error: word has summed coefficient bits above the product size cap 4000"),
        # the alternating product of degree 2 400 needs about 2 400 Euclid steps
        (["--mod", "3", _alternating_json(3, 1200)], EUCLID_WORK_ERROR),
        (["--mod", "3", '["D(x)"]'], "error: D needs a signed decimal integer, got 'x' (at position 2)"),
        (["--mod", "3", '["D()"]'], "error: D needs a signed decimal integer, got '' (at position 2)"),
        (["--mod", "3", '["D(1_0)"]'], "error: D needs a signed decimal integer, got '1_0' (at position 2)"),
        (["--mod", "2", '["D(2)"]'], "error: 2 is not a unit mod 2"),
        # integers above CPython's str -> int limit of 4 300 digits
        (["--mod", "3", '["D(-%s)"]' % ("1" * 5000)],
         "error: D argument has 5000 digits, above the digit cap 4300 (at position 2)"),
        (["--mod", "3", '["E12(%s)"]' % ("1" * 5000)],
         "error: integer has 5000 digits, above the digit cap 4300 (at position 4)"),
        (["--mod", "3", "[[1, 2*t + %s*t^2], [0, 1]]" % ("1" * 5000)],
         "error: integer has 5000 digits, above the digit cap 4300 (at position 11)"),
        (["--mod", "3", '[[1, %s], [0, 1]]' % ("1" * 5000)],
         "error: JSON integer at position 5 has 5000 digits, above the digit cap 4300"),
        (["--mod", "3", '["E12(%s)", {"factor": 2, "matrix": [[1, -%s], [0, 1]]}]' % ("1" * 5000, "1" * 5000)],
         "error: JSON integer at position 5039 has 5000 digits, above the digit cap 4300"),
        (["--mod", "3", '[[1, {"coeffs": ["0", "%s"]}], [0, 1]]' % ("1" * 5000)],
         "error: polynomial coefficient 1 has 5000 digits, above the digit cap 4300"),
        # integer text is ASCII: int() would read the Arabic-Indic three as 3
        (["--mod", "5", '["E12(\u0663*t)"]'], "error: unexpected character '\u0663' (at position 4)"),
        (["--mod", "5", "[[1, \u0663*t], [0, 1]]"], "error: unexpected character '\u0663' (at position 5)"),
        (["--mod", "5", '{"head": [[1, 0], [0, 1]], "tags": [2], '
                        '"tail": [[[1, {"coeffs": ["0", "\u0663"]}], [0, 1]]]}'],
         "error: normal form field 'tail': polynomial coefficient '\u0663' is not an integer or an integer string"),
    ],
    ids=["mod-with-e2zt", "nf-json-empty", "nf-json-no-tags", "nf-json-bad-tag",
         "nf-json-tail-not-list", "nf-json-bad-head", "nf-json-bad-tail-entry",
         "poly-coeffs-not-list", "poly-coeffs-string", "poly-float-entry", "poly-null-entry",
         "poly-float-coeff", "poly-bool-entry",
         "poly-coeff-underscore", "poly-coeff-spaces", "poly-coeff-letter", "poly-coeff-sign-only",
         "poly-unknown-field", "poly-no-coeffs", "poly-mod-not-int", "poly-mod-mismatch",
         "word-factor-string", "word-factor-bool", "word-item-unknown-field", "nf-json-unknown-field", "parse-degree-cap", "json-degree-cap",
         "json-nested-too-deeply", "word-length-cap", "word-length-cap-expanded",
         "word-length-cap-e2zt", "nf-json-length-cap", "word-work-budget", "word-degree-cap-long",
         "nf-json-work-budget", "word-bits-cap-e2zt", "word-bits-cap-e2zt-nines",
         "euclid-work-cap", "gen-d-not-int", "gen-d-empty", "gen-d-underscore", "gen-d-not-unit",
         "digit-cap-gen-d", "digit-cap-gen-e12", "digit-cap-matrix-text", "digit-cap-json-int",
         "digit-cap-json-int-after-string", "digit-cap-coeff-string", "unicode-digit-gen",
         "unicode-digit-matrix-text", "unicode-digit-coeff-string"],
)
def test_nf_usage_errors(capsys, argv, err):
    assert run(capsys, "nf", *argv) == (2, "", err + "\n")


def test_nf_accepts_integers_at_the_digit_cap(capsys):
    ones = "1" * 4300
    for text in ('["D(-%s)"]' % ones, '[[1, %s], [0, 1]]' % ones, "[[1, %s*t], [0, 1]]" % ones,
                 '[[1, {"coeffs": ["%s"]}], [0, 1]]' % ones):
        assert run(capsys, "nf", "--mod", "3", text)[0] == 0, text


# JSON payloads for ``nf``: arbitrary JSON, and the shapes the CLI reads
# (matrices of polynomial entries, words, normal-form objects) filled with
# arbitrary JSON, so that random values reach every field.  Letters and
# polynomials of high degree and with large coefficients reach the caps.
_BIG = st.integers(10**20, 10**30) | st.integers(-(10**30), -(10**20))
_SCALARS = (
    st.none() | st.booleans() | st.integers() | _BIG | st.floats() | st.text(max_size=6)
    | st.sampled_from(["t", "1 + t^2", "W", "D(2)", "E12(t)", "E21(-t)", "[[1, 0], [t, 1]]",
                       "E12(t^999)", "E21(t^999)", "E12(t^4000)", "t^4000", "[[1, t^4000], [0, 1]]"])
    | _BIG.map("E12({}*t)".format) | _BIG.map("E21({} + t^2)".format) | _BIG.map("D({})".format)
)
_KEYS = st.sampled_from(["coeffs", "mod", "head", "tags", "tail", "factor", "matrix"])
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS | st.text(max_size=3), kids),
    max_leaves=8,
)
_HIGH = st.integers(0, 4000).map(lambda n: [0] * n + [1])  # coefficients of t^n
_POLY = _JSON | _HIGH | st.fixed_dictionaries(
    {"coeffs": _JSON | _HIGH | st.lists(_BIG, max_size=3)}, optional={"mod": _JSON}
)
_MATRIX = st.lists(st.lists(_POLY, min_size=2, max_size=2), min_size=2, max_size=2)
# entries of many terms, as polynomial text and as coefficient lists, in
# matrices of determinant 1 or not, and in letters of either factor
_TERMS = st.integers(100, 3000).map(lambda n: " + ".join(f"{k % 5 + 1}*t^{k}" for k in range(n)))
_LONG_ENTRY = _TERMS | st.integers(100, 3000).map(lambda n: [k % 7 + 1 for k in range(n)])
_LONG_MATRIX = st.tuples(_LONG_ENTRY, st.sampled_from([0, 1, 2])).map(lambda t: [[t[0], t[1]], [0, 1]]) | st.tuples(
    _LONG_ENTRY, st.sampled_from([0, 1])).map(lambda t: [[1, 0], [t[1], t[0]]])
_PAYLOAD = (
    _JSON
    | _MATRIX
    | _LONG_MATRIX
    | st.lists(st.fixed_dictionaries({"factor": st.sampled_from([1, 2]), "matrix": _LONG_MATRIX})
               | _TERMS.map("E12({})".format) | _TERMS.map("E21({})".format), min_size=1, max_size=3)
    | st.lists(_SCALARS | st.fixed_dictionaries({"factor": _JSON, "matrix": _MATRIX | _JSON}),
               max_size=4)
    | st.fixed_dictionaries({"head": _MATRIX | _JSON, "tags": _JSON,
                             "tail": st.lists(_MATRIX, max_size=3) | _JSON})
)


@settings(max_examples=150, deadline=None)
@given(payload=_PAYLOAD, p=st.sampled_from([2, 3, 5, 7]))
def test_nf_any_json_payload_exits_cleanly(payload, p):
    """Any JSON input to ``nf --mod p`` ends in a documented exit code, with
    at most a one-line message under 200 bytes and no exception escaping
    ``main``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["nf", "--mod", str(p), json.dumps(payload)])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") == (code != 0)
    assert len(err.getvalue().encode()) < 200


def _record_charges(monkeypatch) -> list[float]:
    """Every charge the kernels make, in order, each still charged."""
    charges, charge = [], ring._charge
    monkeypatch.setattr(ring, "_charge", lambda work: charges.append(work) or charge(work))
    return charges


# One request of each kind, small enough to run in well under a second.
_METERED = [
    (["--mod", "101", json.dumps(["E12(t^40 + 3*t + 1)", "W", "E21(2*t^30 + t)", "W"] * 5)], "word"),
    (["--mod", "101", json.dumps({"head": [[1, 0], [0, 1]], "tags": [2, 1] * 10,
                                  "tail": [[[1, [0, 4] + [0] * 48 + [1]], [0, 1]], [[0, 100], [1, 7]]] * 10})],
     "normal form"),
    (["--mod", "101", _alternating_json(101, 40)], "matrix"),
]


@pytest.mark.parametrize("argv, what", _METERED, ids=[what for _, what in _METERED])
def test_meter_refuses_the_first_charge_past_the_budget(capsys, monkeypatch, argv, what):
    """The request runs within a budget equal to its total, and with a lower
    one it is refused at the first charge that takes the total past the
    budget: exit 2, one stderr line naming the request kind and the budget,
    and nothing on stdout."""
    charges = _record_charges(monkeypatch)
    code, out, err = run(capsys, "nf", *argv)
    total = sum(charges)
    assert (code, err) == (0, "") and total > 0 and len(charges) > 10
    monkeypatch.setattr(ring, "MAX_WORK", math.ceil(total))
    assert run(capsys, "nf", *argv) == (0, out, "")
    budget = math.floor(total / 3)
    monkeypatch.setattr(ring, "MAX_WORK", budget)
    charges.clear()
    assert run(capsys, "nf", *argv) == (2, "", f"error: {what} passed the work budget of {budget} digit products\n")
    *before, last = itertools.accumulate(charges)
    assert all(running <= budget for running in before) and last > budget


@pytest.mark.parametrize("argv, what", [
    *_METERED,
    # the first charge is made while the word is parsed, by the E21 letter
    (["--mod", "5", json.dumps(["W", "E21(t^3 + 2*t)"])], "word"),
    (["--mod", "5", json.dumps([{"factor": 2, "matrix": [[1, [0, 1, 2]], [0, 1]]}, "W"])], "word"),
    (["--mod", "5", "[[1 + t, t], [t, 1 + t + t^2]]"], "matrix"),
], ids=["word", "normal-form", "matrix", "word-parse", "word-objects", "matrix-text"])
def test_meter_refusal_reaches_main_unchanged(capsys, monkeypatch, argv, what):
    """With a budget of 0 the first charge refuses, wherever it is made
    (parsing, normalizing, factoring, evaluating): the refusal reaches
    ``main`` as the meter raised it, rewrapped by no ``except ValueError``."""
    monkeypatch.setattr(ring, "MAX_WORK", 0)
    assert run(capsys, "nf", *argv) == (2, "", f"error: {what} passed the work budget of 0 digit products\n")
    assert ring._METER.get() is None


def test_requests_do_not_share_a_total(capsys, monkeypatch):
    """Each request opens its own meter: with a budget that one request
    just fits, it runs twice in a row, and again after a refused request."""
    small, _ = _METERED[0]
    charges = _record_charges(monkeypatch)
    code, out, _ = run(capsys, "nf", *small)
    assert code == 0
    monkeypatch.setattr(ring, "MAX_WORK", math.ceil(sum(charges)))
    for argv in (small, small, ["--mod", "101", _alternating_json(101, 200)], small):
        code, got, err = run(capsys, "nf", *argv)
        if argv is small:
            assert (code, got, err) == (0, out, "")
        else:  # the matrix needs more than the budget
            assert (code, got, err.count("\n")) == (2, "", 1)
        assert ring._METER.get() is None


def test_nf_word_at_length_cap(capsys):
    code, out, err = run(capsys, "nf", "--mod", "3", json.dumps(["W"] * 2000))  # W^4 = I
    assert (code, err) == (0, "") and "length: 0" in out


def test_nf_word_at_product_caps(capsys):
    # over Z the coefficient bound reaches its cap exactly:
    # 2 * (1 + bit length of 2**1998 - 1) + (1 + 1) for W = 4000 bits
    code, out, err = run(capsys, "nf", "--mod", "3", json.dumps(["E12(t^600)", "W", "E12(t^400)"]))
    assert (code, err) == (0, "") and "length: 3" in out
    big = 2**1998 - 1
    code, out, err = run(capsys, "nf", "--ring", "e2zt", json.dumps([f"E12({big}*t)", "W", f"E12({big}*t)"]))
    assert (code, err) == (0, "") and f"matrix: [[{big}*t, -1 + {big * big}*t^2], [1, {big}*t]]" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_nf_render_failure_prints_nothing(capsys, fmt):
    """A failure while the output is rendered leaves stdout empty: here the
    evaluated product has more digits than the interpreter converts."""
    nines = "9" * 600
    word = json.dumps([f"E12({nines}*t)", "W", f"E12({nines}*t)"])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "nf", "--ring", "e2zt", "--format", fmt, word)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert "integer string conversion" in err


# argv for every subcommand, built from its flags.  Integer arguments come
# from small values and from huge ones of either sign.
_INT = (st.integers(-3, 8) | st.integers(10**6, 10**30) | st.integers(-10**30, -10**6)).map(str)
_RANGE = _INT | st.tuples(_INT, _INT).map("..".join)
_MOD = st.sampled_from(["2", "3", "5", "7", str(2**61 - 1)]) | _INT


def _flag(name, values):
    return st.just([]) | values.map(lambda v: [name, v])


_NF_INPUTS = ['["E12({})", "W"]', '["E21({})", "W"]', '["D({})"]',
              "[[1, t^{}], [0, 1]]", "[[{}, 0], [0, 1]]"]
_ARGV = st.one_of(
    # matrices and letters with entries of many terms, of determinant 1 or not
    st.tuples(
        st.sampled_from(["[[{}, 0], [0, 1]]", "[[1, 0], [t, {}]]", "[[1, {}], [0, 1]]", '["E21({})", "W"]']),
        _TERMS, _flag("--mod", _MOD),
    ).map(lambda t: ["nf", t[0].format(t[1]), *t[2]]),
    st.tuples(
        st.sampled_from(_NF_INPUTS), _INT, st.sampled_from([[], ["--ring", "e2zt"]]),
        _flag("--mod", _MOD), _flag("--format", st.sampled_from(["text", "json"])),
    ).map(lambda t: ["nf", t[0].format(t[1]), *t[2], *t[3], *t[4]]),
    st.tuples(
        st.sampled_from(GROUP_IDS), _MOD, _flag("--max-i", _INT), _flag("--max-deg", _INT),
        st.sampled_from([[], ["--coinv"], ["--ledger"]]),
        _flag("--format", st.sampled_from(["text", "json", "csv"])),
    ).map(lambda t: ["hdim", "--group", t[0], "--mod", t[1], *t[2], *t[3], *t[4], *t[5]]),
    st.tuples(
        st.tuples(_RANGE, _RANGE).map(lambda r: ["--witness", *r])
        | st.tuples(_MOD, _INT).map(lambda r: ["--sn", *r]),
        _flag("--format", st.sampled_from(["text", "json"])),
    ).map(lambda t: ["verify", *t[0], *t[1]]),
)


@settings(max_examples=200, deadline=None)
@given(argv=_ARGV)
def test_any_argv_exits_cleanly(argv):
    """Any argv built from the flags of ``nf``, ``hdim`` and ``verify`` ends
    in a documented exit code, with exactly one stderr line on failure and
    no exception escaping ``main``; a message is under 200 bytes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") == (code != 0)
    assert len(err.getvalue().encode()) < 200


def test_nf_cross_validation_failure(capsys, monkeypatch):
    """Normal forms that disagree exit 1 with one stderr line and no stdout."""
    def disagree(mod, m):
        raise CrossValidationError("rewriting and degree reduction disagree")

    monkeypatch.setattr("nagaolab.nagao.nagao_normal_form", disagree)
    code, out, err = run(capsys, "nf", "--mod", "3", "[[1,0],[t,1]]")
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("verification failure: ")


def test_nf_parse_error(capsys):
    code, _, err = run(capsys, "nf", "--mod", "3", "[[1,0],[t)")
    assert code == 2


def test_nf_missing_mode(capsys):
    code, _, err = run(capsys, "nf", "[[1,0],[0,1]]")
    assert code == 2


def test_nf_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[[1,0],[t,1]]"))
    code, out, _ = run(capsys, "nf", "--mod", "2", "-")
    assert code == 0
    assert "length: 3" in out
    monkeypatch.setattr("sys.stdin", io.StringIO("[[1,t],[0,1]]\n"))
    assert run(capsys, "nf", "--mod", "2", "-")[:2] == (0, run(capsys, "nf", "--mod", "2", "[[1,t],[0,1]]")[1])


def test_nf_error_positions_count_from_the_start_of_the_argument(capsys):
    """Leading whitespace is part of the input that a position counts in."""
    assert run(capsys, "nf", "--mod", "5", "  [[1, t^], [0, 1]]") == (
        2, "", "error: expected exponent (at position 9)\n")
    assert run(capsys, "nf", "--mod", "5", "   [[1, %s], [0, 1]]" % ("7" * 4301)) == (
        2, "", "error: JSON integer at position 8 has 4301 digits, above the digit cap 4300\n")
    # whitespace around JSON that JSON itself does not allow is still ignored
    assert run(capsys, "nf", "--mod", "3", '\f["W"]\xa0')[:2] == run(capsys, "nf", "--mod", "3", '["W"]')[:2]


def test_hdim_table_values(capsys):
    code, out, _ = run(
        capsys, "hdim", "--group", "e2zt", "--mod", "3", "--max-i", "2",
        "--max-deg", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,p,d,i,dim,flags"
    assert "e2zt,3,4,1,5," in lines[2]


def test_hdim_p5_value(capsys):
    code, out, _ = run(
        capsys, "hdim", "--group", "e2zt", "--mod", "5", "--max-i", "2",
        "--max-deg", "4", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[2]["dim"] == 10


def test_hdim_coinv(capsys):
    code, out, _ = run(
        capsys, "hdim", "--group", "bfpt", "--mod", "5", "--coinv",
        "--max-i", "2", "--max-deg", "4", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["dim"] for r in rows] == [1, 0, 6]


def test_hdim_ledger(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "hdim", "--group", "e2zt", "--mod", "7", "--ledger",
        "--max-i", "4", "--max-deg", "5",
    )
    assert code == 0
    assert "MISMATCH" not in out
    # a ledger row that fails the identity is printed and fails the exit code
    monkeypatch.setattr(
        "nagaolab.cli.mv_ledger_check",
        lambda p, i, d: {"p": p, "i": i, "d": d, "e2zt": 2, "bzt": 1, "sl2z": 1, "bz": 1, "ok": False},
    )
    code, out, _ = run(
        capsys, "hdim", "--group", "e2zt", "--mod", "7", "--ledger", "--max-i", "0",
    )
    assert code == 1
    assert "ledger i=0: e2zt=2 vs 1 + 1 - 1 ... MISMATCH" in out


def test_hdim_out_of_scope(capsys):
    code, _, err = run(capsys, "hdim", "--group", "sl2fpt_bquot", "--mod", "5")
    assert code == 3
    assert "out of scope" in err


def test_hdim_degree_cap(capsys):
    """--max-deg is capped at the library-wide degree cap, MAX_DEGREE."""
    code, out, err = run(capsys, "hdim", "--group", "tzt", "--mod", "2", "--max-deg", "10000",
                         "--max-i", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert [(r["d"], r["dim"]) for r in json.loads(out)["rows"]] == [(10000, 1), (10000, 10000)]
    code, out, err = run(capsys, "hdim", "--group", "bz", "--mod", "2", "--max-deg", "10001")
    assert (code, out) == (2, "")
    assert err == "truncation degree 10001 exceeds the cap 10000\n"


def test_verify_witness(capsys):
    code, out, _ = run(capsys, "verify", "--witness", "2..3", "1..2")
    assert code == 0
    assert "failures: 0" in out


def test_verify_witness_failure(capsys, monkeypatch):
    """A failing check prints its FAIL line with both sides and exits 1."""
    checks = (
        CheckResult("det_h(2,1)", "det h(p,k) == 1", "pass", "1", "1"),
        CheckResult("det_g(2,1)", "det g(p,k) == 1", "fail", "1 + t", "1"),
    )
    monkeypatch.setattr("nagaolab.witnesses.verify_witness_suite", lambda ps, ks: WitnessReport(checks))
    code, out, err = run(capsys, "verify", "--witness", "2", "1")
    assert (code, err) == (1, "")
    assert out == _lines(
        "PASS  det_h(2,1): det h(p,k) == 1",
        "FAIL  det_g(2,1): det g(p,k) == 1",
        "      lhs = 1 + t",
        "      rhs = 1",
        "checks: 2, failures: 1",
    )


def test_verify_cross_validation_failure(capsys, monkeypatch):
    """Normal forms that disagree inside the witness suite exit 1 with one
    stderr line and no stdout, as they do for ``nf``."""
    def disagree(mod, m):
        raise CrossValidationError("rewriting and degree reduction disagree")

    monkeypatch.setattr("nagaolab.witnesses.nagao_normal_form", disagree)
    code, out, err = run(capsys, "verify", "--witness", "2", "1")
    assert (code, out) == (1, "")
    assert err == "verification failure: rewriting and degree reduction disagree\n"


def test_verify_witness_json(capsys):
    code, out, _ = run(capsys, "verify", "--witness", "2", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(item["status"] in ("pass", "info") for item in payload)


def test_verify_sn_witness(capsys):
    code, out, _ = run(capsys, "verify", "--sn", "3", "2")
    assert code == 0
    assert "(1, 1)" in out
    # the largest request, whose witness is checked like every other one
    assert run(capsys, "verify", "--sn", "31", "30")[:2] == (0, f"witness for p=31, n=30: {(1,) * 30}\n")


def test_verify_sn_none_exists(capsys):
    code, out, _ = run(capsys, "verify", "--sn", "3", "3")
    assert code == 0
    assert "none exists" in out


def test_verify_sn_cap(capsys):
    code, _, err = run(capsys, "verify", "--sn", "37", "2")
    assert code == 2
    assert "cap" in err


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--witness", "9..10", "1..2")
    assert code == 2
    assert run(capsys, "verify", "--witness", "3..2", "1..1") == (2, "", "error: empty range '3..2'\n")


def test_help_exits_zero(capsys):
    for argv, usage in ((["--help"], "usage: nagaolab "), (["nf", "--help"], "usage: nagaolab nf ")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)


def test_usage_error(capsys):
    assert run(capsys, "hdim", "--group", "nope", "--mod", "2")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    code, out, err = run(capsys, "hdim", "--group", "bz", "--mod", "2", "--max-i", "-3")
    assert (code, out) == (2, "")
    assert "must be >= 0" in err
    # input caps and argparse errors: exit 2 with one stderr line naming the
    # cap or the bad argument, before any work starts
    for argv, msg in [
        (["hdim", "--group", "bz", "--mod", "2", "--max-i", "65"], "at most the cap 64, got 65"),
        (["hdim", "--group", "bz", "--mod", "2", "--max-i", "100000000"], "at most the cap 64"),
        (["verify", "--witness", "2..10", "1"], "'2..10' has 9 values, above the cap 8"),
        (["verify", "--witness", "2..100000000000", "1"], "above the cap 8"),
        (["verify", "--witness", "2", "1..100000000000"], "above the cap 8"),
        (["verify", "--witness", "2", "3334"], "witness index 3334 is above the cap 3333"),
        (["verify", "--sn", "5", "0"], "error: arity must be >= 1, got 0"),
        (["verify", "--witness", "-3..5", "1"], "argument --witness: expected 2 arguments"),
        (["hdim", "--group", "bz", "--mod", "x"], "argument --mod: invalid int value: 'x'"),
        (["verify", "--witness", "5..", "1"], "--witness range '5..' is not an integer or LO..HI"),
        (["verify", "--witness", "2", "a..3"], "--witness range 'a..3' is not an integer or LO..HI"),
        # integer text is ASCII: int() would read the Arabic-Indic digits
        (["nf", "--mod", "\u0665", "[[1, t], [0, 1]]"], "argument --mod: invalid int value: '\u0665'"),
        (["hdim", "--group", "bz", "--mod", "2", "--max-deg", "\u0663"], "argument --max-deg: invalid int value: '\u0663'"),
        (["verify", "--sn", "\u0665", "2"], "argument --sn: invalid int value: '\u0665'"),
        (["verify", "--witness", "\u0662..\u0663", "1"], "--witness range '\u0662..\u0663' is not an integer or LO..HI"),
        # integer text is [+-]?[0-9]+: int() would read "1_1" as 11 and " 7 " as 7
        (["nf", "--mod", "1_1", "W"], "argument --mod: invalid int value: '1_1'"),
        (["nf", "--mod", " 7 ", "W"], "argument --mod: invalid int value: ' 7 '"),
        (["hdim", "--group", "bz", "--mod", "2", "--max-deg", "0_4"], "argument --max-deg: invalid int value: '0_4'"),
        (["verify", "--witness", "2..1_1", "1"], "--witness range '2..1_1' is not an integer or LO..HI"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv
        assert msg in err, argv
    assert run(capsys, "hdim", "--group", "bz", "--mod", "x") == (
        2, "", "nagaolab hdim: error: argument --mod: invalid int value: 'x'\n")
    # the largest accepted values still run
    assert run(capsys, "hdim", "--group", "bz", "--mod", "2", "--max-i", "64")[0] == 0
    assert run(capsys, "verify", "--witness", "2..9", "1..8")[0] == 0
    assert run(capsys, "verify", "--witness", "2", "3333")[0] == 0


def test_integer_options_over_the_digit_cap(capsys):
    """An integer option of more than 4 300 digits is refused with one short
    line that names the option and the cap, without echoing the digits."""
    big = "7" * 4301
    for argv, option in [
        (["nf", "--mod", big, "W"], "argument --mod"),
        (["hdim", "--group", "bz", "--mod", big], "argument --mod"),
        (["hdim", "--group", "bz", "--mod", "2", "--max-i", big], "argument --max-i"),
        (["hdim", "--group", "bz", "--mod", "2", "--max-deg", "-" + big], "argument --max-deg"),
        (["verify", "--sn", big, "2"], "argument --sn"),
        (["verify", "--sn", "5", big], "argument --sn"),
        (["verify", "--witness", big, "1"], "--witness range"),
        (["verify", "--witness", "2", "1.." + big], "--witness range"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv
        assert len(err) < 200 and option in err and "4301 digits" in err and "4300" in err, argv
    # 4 300 digits pass the digit cap and meet the option's own cap
    assert "at most the cap 64" in run(capsys, "hdim", "--group", "bz", "--mod", "2", "--max-i", big[1:])[2]
    # long text that is not an integer, or a range too wide to print, is
    # echoed as its first 40 characters and its length
    bad = "7" * 5000 + "x"
    for argv, message in [
        (["nf", "--mod", bad, "W"], "argument --mod: invalid int value: '" + "7" * 40 + "'... (5001 characters)"),
        (["hdim", "--group", "bz", "--mod", "2", "--max-i", bad], "argument --max-i: invalid int value"),
        (["verify", "--sn", "5", bad], "argument --sn: invalid int value"),
        (["verify", "--witness", bad, "1"], "--witness range '" + "7" * 40 + "'... (5001 characters) is not an integer"),
        (["verify", "--witness", "2", "1.." + bad], "--witness range '1..7"),
        (["verify", "--witness", "5.." + big[1:], "1"], "has over 10**40 values, above the cap 8"),
        (["verify", "--witness", big[1:] + "..5", "1"], "empty range '7"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1), argv
        assert len(err) < 200 and message in err and "characters)" in err, argv


_LONG = "x" * 5000  # a bad value of 5 000 characters
_DIGITS = "7" * 4300  # an integer at the digit cap


@pytest.mark.parametrize(
    "argv, names",
    [
        (["nf", "--mod", "3", json.dumps(["Q(" + _LONG + ")"])], "not a generator shorthand"),
        (["nf", "--mod", "3", json.dumps(["D(" + _LONG + ")"])], "D needs a signed decimal integer"),
        (["nf", "--ring", "e2zt", json.dumps(["D(" + _DIGITS + ")"])], "is not a unit of Z"),
        (["nf", "--mod", "3", '[[{"coeffs": ["%s"]}, 0], [0, 1]]' % _LONG], "polynomial coefficient"),
        (["nf", "--mod", "3", '[[{"coeffs": "%s"}, 0], [0, 1]]' % _LONG], "polynomial field 'coeffs'"),
        (["nf", "--mod", "3", '[[{"coeffs": [1], "mod": "%s"}, 0], [0, 1]]' % _LONG], "polynomial field 'mod'"),
        (["nf", "--mod", "3", '[[{"%s": 1}, 0], [0, 1]]' % _LONG], "polynomial JSON has the unknown field"),
        (["nf", "--mod", "3", json.dumps([{"factor": _LONG, "matrix": "W"}])], "word item 0 field 'factor'"),
        (["nf", "--mod", "3", json.dumps([{"factor": 1, "matrix": "W", _LONG: 0}])], "word item 0 has the unknown field"),
        (["nf", "--mod", "3", json.dumps([[_LONG]])], "word items must be"),
        (["nf", "--mod", "3", json.dumps({"head": 0, "tags": _LONG, "tail": []})], "normal form field 'tags'"),
        (["nf", "--mod", "3", json.dumps({"head": 0, "tags": [], "tail": _LONG})], "normal form field 'tail'"),
        (["nf", "--mod", "3", json.dumps({_LONG: 0})], "normal form JSON has the unknown field"),
        (["hdim", "--group", "bz", "--mod", "2", "--max-i", "-" + _DIGITS], "--max-i"),
        (["hdim", "--group", "bz", "--mod", "2", "--max-deg", _DIGITS], "truncation degree"),
        (["verify", "--witness", "2", _DIGITS], "witness index"),
        (["nf", "--mod", _DIGITS, "W"], "primality"),
        (["nf", "--mod", "3", '[{"factor": %s, "matrix": "W"}]' % _DIGITS], "factor tag"),
        (["verify", "--sn", "5", _DIGITS], "search cap exceeded: p=5, n="),
        (["verify", "--sn", "5", "-" + _DIGITS], "arity must be >= 1"),
        (["nf", "--mod", "3", "[[1, t^%s], [0, 1]]" % _DIGITS], "exponent"),
    ],
    ids=["gen-shorthand", "gen-d-pattern", "gen-d-unit", "coeff-pattern", "coeffs-not-list",
         "poly-mod", "poly-unknown-field", "word-factor", "word-unknown-field", "word-item",
         "nf-tags", "nf-tail", "nf-unknown-field", "max-i", "max-deg", "witness-index",
         "primality", "factor-tag", "sn-search-cap", "sn-arity", "exponent"],
)
def test_long_values_are_quoted_short(capsys, argv, names):
    """A message quotes a long outside value by its first 40 characters and
    its length: one stderr line under 200 bytes that names what is wrong."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert len(err.encode()) < 200 and names in err and "characters)" in err


# 2 000 terms with coefficients 1 and 2, for F_3
_TERMS_2000 = " + ".join(f"{k % 2 + 1}*t^{k}" for k in range(1, 2001))


@pytest.mark.parametrize(
    "argv, names",
    [
        (["nf", "--mod", "3", f"[[1 + {_TERMS_2000}, 0], [0, 1]]"], "error: determinant must be 1, got 1 + 2*t + t^2"),
        (["nf", "--mod", "3", json.dumps([{"factor": 1, "matrix": f"E12({_TERMS_2000})"}])],
         "error: letter [[1, 2*t + t^2"),
        (["nf", "--mod", "3", json.dumps({"head": [[1, 0], [0, 1]], "tags": [1],
                                          "tail": [[[1, [k % 2 + 1 for k in range(2001)]], [0, 1]]]})],
         "error: letter [[1, 1 + 2*t + t^2"),
    ],
    ids=["det", "letter", "normal-form-letter"],
)
def test_built_values_are_quoted_short(capsys, argv, names):
    """A value the program built from a long input (a determinant, a
    letter's matrix) is quoted as its first 40 characters and its length,
    in one stderr line under 200 bytes."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert len(err.encode()) < 200 and err.startswith(names) and "characters)" in err


def test_large_prime_modulus(capsys):
    """Primality of a modulus up to 2**64 is decided at once; larger ones
    are refused."""
    p = str(2**61 - 1)
    code, out, err = run(capsys, "nf", "--mod", p, "[[1,0],[0,1]]")
    assert (code, err) == (0, "") and "length: 0" in out
    assert run(capsys, "verify", "--sn", p, "2") == (
        2, "", f"error: search cap exceeded: p={p}, n=2 (caps: p <= 31, n <= p)\n")
    code, out, err = run(capsys, "hdim", "--group", "tzt", "--mod", p, "--max-i", "1")
    assert (code, err, len(out.splitlines())) == (0, "", 3)
    assert run(capsys, "nf", "--mod", str(2**64), "[[1,0],[0,1]]") == (
        2, "", f"error: primality is decided only below 2**64, got {2**64}\n")


def test_outputs_deterministic(capsys):
    args = [
        "hdim", "--group", "bfpt", "--mod", "3", "--max-i", "6",
        "--max-deg", "6", "--format", "json",
    ]
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    nf_args = ["nf", "--mod", "5", "--format", "json", "[[1 + t^2, t],[t, 1]]"]
    assert run(capsys, *nf_args) == run(capsys, *nf_args)


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


def _pretty(compact):
    return json.dumps(json.loads(compact), indent=2) + "\n"


# Normal forms in compact JSON: the emitted form of [[1, t], [t, 1 + t^2]]
# over F_3 and of the E2(Z[t]) word E12(2) W E12(t) E21(3).
NF_F3 = (
    '{"length": 4, "head": [[{"coeffs": ["2"], "mod": 3}, {"coeffs": [], "mod": 3}], '
    '[{"coeffs": [], "mod": 3}, {"coeffs": ["2"], "mod": 3}]], "tail": ['
    '[[{"coeffs": [], "mod": 3}, {"coeffs": ["2"], "mod": 3}], '
    '[{"coeffs": ["1"], "mod": 3}, {"coeffs": [], "mod": 3}]], '
    '[[{"coeffs": ["1"], "mod": 3}, {"coeffs": ["0", "2"], "mod": 3}], '
    '[{"coeffs": [], "mod": 3}, {"coeffs": ["1"], "mod": 3}]], '
    '[[{"coeffs": [], "mod": 3}, {"coeffs": ["2"], "mod": 3}], '
    '[{"coeffs": ["1"], "mod": 3}, {"coeffs": [], "mod": 3}]], '
    '[[{"coeffs": ["1"], "mod": 3}, {"coeffs": ["0", "1"], "mod": 3}], '
    '[{"coeffs": [], "mod": 3}, {"coeffs": ["1"], "mod": 3}]]], "tags": [1, 2, 1, 2], '
    '"matrix": [[{"coeffs": ["1"], "mod": 3}, {"coeffs": ["0", "1"], "mod": 3}], '
    '[{"coeffs": ["0", "1"], "mod": 3}, {"coeffs": ["1", "0", "1"], "mod": 3}]]}'
)
NF_Z = (
    '{"length": 3, "head": [[{"coeffs": ["1"]}, {"coeffs": ["2"]}], '
    '[{"coeffs": []}, {"coeffs": ["1"]}]], "tail": ['
    '[[{"coeffs": []}, {"coeffs": ["-1"]}], [{"coeffs": ["1"]}, {"coeffs": []}]], '
    '[[{"coeffs": ["1"]}, {"coeffs": ["0", "1"]}], [{"coeffs": []}, {"coeffs": ["1"]}]], '
    '[[{"coeffs": ["1"]}, {"coeffs": []}], [{"coeffs": ["3"]}, {"coeffs": ["1"]}]]], '
    '"tags": [1, 2, 1], "matrix": [[{"coeffs": ["-1", "6"]}, {"coeffs": ["-1", "2"]}], '
    '[{"coeffs": ["1", "3"]}, {"coeffs": ["0", "1"]}]]}'
)
# The emitted normal form of E12(t^2000) over F_3.
_T2000 = [[{"coeffs": ["1"], "mod": 3}, {"coeffs": ["0"] * 2000 + ["1"], "mod": 3}],
          [{"coeffs": [], "mod": 3}, {"coeffs": ["1"], "mod": 3}]]
NF_F3_HIGH = json.dumps({"length": 1, "head": [[{"coeffs": ["1"], "mod": 3}, {"coeffs": [], "mod": 3}],
                                               [{"coeffs": [], "mod": 3}, {"coeffs": ["1"], "mod": 3}]],
                         "tail": [_T2000], "tags": [2], "matrix": _T2000})
# Normal forms of summed letter degree 40 000 over F_3 and 1 001 over Z.
NF_F3_DEGREE_40000 = json.dumps({"head": [[1, 0], [0, 1]], "tags": [2, 1] * 4,
                                 "tail": [[[1, {"coeffs": [0] * 10000 + [1]}], [0, 1]], [[0, 2], [1, 0]]] * 4})
NF_Z_DEGREE_1001 = json.dumps({"head": [[1, 0], [0, 1]], "tags": [2, 1, 2],
                               "tail": [[[1, {"coeffs": [0] * 600 + [1]}], [0, 1]], [[0, -1], [1, 0]],
                                        [[1, {"coeffs": [0] * 401 + [1]}], [0, 1]]]})
HDIM_HEADER = "group           p   d   i     dim  flags"
COINV_FLAGS = "wedge-part coinvariants of t*F_p[t]"
BQUOT_FLAGS = "plus an opaque H_i(SL2(F_p)) summand (not computed)"

# The statements of the witness checks, and the checks that
# ``verify --witness 2..3 1..2`` reports, as (id, statement, status, lhs, rhs).
W_DET_H, W_DET_G, W_DET_X = "det h(p,k) == 1", "det g(p,k) == 1", "det x(k) == 1"
W_DET_N = "det n(p,k) == -p*t^k, so n is not in SL2"
W_NONUNI_G, W_UNI_X = "g(p,k) is not unipotent", "x(k) is unipotent"
W_RED_G = "g(p,k) mod p == x(k)^-1"
W_RED_H = (
    "h(p,k) mod p compared against x(k) and x(3k) mod p: "
    "equals x(k): False; equals x(3k): True"
)
W_COSET = "g(p,k)^-1 * g(p,l) == E12(t^k - t^l)"
WITNESS_2_3 = [
    ("det_h(2,1)", W_DET_H, "pass", "1", "1"),
    ("det_g(2,1)", W_DET_G, "pass", "1", "1"),
    ("det_x(1)", W_DET_X, "pass", "1", "1"),
    ("det_n(2,1)", W_DET_N, "pass", "-2*t", "-2*t"),
    ("nonunipotent_g(2,1)", W_NONUNI_G, "pass", "2 + 2*t", "trace != 2"),
    ("unipotent_x(1)", W_UNI_X, "pass", "2", "2"),
    ("reduce_g(2,1)", W_RED_G, "pass", "[[1, t], [0, 1]]", "[[1, t], [0, 1]]"),
    ("reduce_h(2,1)", W_RED_H, "info", "[[1, t^3], [0, 1]]",
     "x(k) mod p = [[1, t], [0, 1]]"
     ", x(3k) mod p = [[1, t^3], [0, 1]]"),
    ("det_h(2,2)", W_DET_H, "pass", "1", "1"),
    ("det_g(2,2)", W_DET_G, "pass", "1", "1"),
    ("det_x(2)", W_DET_X, "pass", "1", "1"),
    ("det_n(2,2)", W_DET_N, "pass", "-2*t^2", "-2*t^2"),
    ("nonunipotent_g(2,2)", W_NONUNI_G, "pass", "2 + 2*t^2", "trace != 2"),
    ("unipotent_x(2)", W_UNI_X, "pass", "2", "2"),
    ("reduce_g(2,2)", W_RED_G, "pass", "[[1, t^2], [0, 1]]", "[[1, t^2], [0, 1]]"),
    ("reduce_h(2,2)", W_RED_H, "info", "[[1, t^6], [0, 1]]",
     "x(k) mod p = [[1, t^2], [0, 1]]"
     ", x(3k) mod p = [[1, t^6], [0, 1]]"),
    ("coset_lemma(2,1,1)", W_COSET, "pass", "[[1, 0], [0, 1]]", "[[1, 0], [0, 1]]"),
    ("coset_lemma(2,1,2)", W_COSET, "pass", "[[1, t - t^2], [0, 1]]", "[[1, t - t^2], [0, 1]]"),
    ("coset_lemma(2,2,1)", W_COSET, "pass", "[[1, -t + t^2], [0, 1]]", "[[1, -t + t^2], [0, 1]]"),
    ("coset_lemma(2,2,2)", W_COSET, "pass", "[[1, 0], [0, 1]]", "[[1, 0], [0, 1]]"),
    ("det_h(3,1)", W_DET_H, "pass", "1", "1"),
    ("det_g(3,1)", W_DET_G, "pass", "1", "1"),
    ("det_x(1)", W_DET_X, "pass", "1", "1"),
    ("det_n(3,1)", W_DET_N, "pass", "-3*t", "-3*t"),
    ("nonunipotent_g(3,1)", W_NONUNI_G, "pass", "2 + 3*t", "trace != 2"),
    ("unipotent_x(1)", W_UNI_X, "pass", "2", "2"),
    ("reduce_g(3,1)", W_RED_G, "pass", "[[1, 2*t], [0, 1]]", "[[1, 2*t], [0, 1]]"),
    ("reduce_h(3,1)", W_RED_H, "info", "[[1, t^3], [0, 1]]",
     "x(k) mod p = [[1, t], [0, 1]]"
     ", x(3k) mod p = [[1, t^3], [0, 1]]"),
    ("det_h(3,2)", W_DET_H, "pass", "1", "1"),
    ("det_g(3,2)", W_DET_G, "pass", "1", "1"),
    ("det_x(2)", W_DET_X, "pass", "1", "1"),
    ("det_n(3,2)", W_DET_N, "pass", "-3*t^2", "-3*t^2"),
    ("nonunipotent_g(3,2)", W_NONUNI_G, "pass", "2 + 3*t^2", "trace != 2"),
    ("unipotent_x(2)", W_UNI_X, "pass", "2", "2"),
    ("reduce_g(3,2)", W_RED_G, "pass", "[[1, 2*t^2], [0, 1]]", "[[1, 2*t^2], [0, 1]]"),
    ("reduce_h(3,2)", W_RED_H, "info", "[[1, t^6], [0, 1]]",
     "x(k) mod p = [[1, t^2], [0, 1]]"
     ", x(3k) mod p = [[1, t^6], [0, 1]]"),
    ("coset_lemma(3,1,1)", W_COSET, "pass", "[[1, 0], [0, 1]]", "[[1, 0], [0, 1]]"),
    ("coset_lemma(3,1,2)", W_COSET, "pass", "[[1, t - t^2], [0, 1]]", "[[1, t - t^2], [0, 1]]"),
    ("coset_lemma(3,2,1)", W_COSET, "pass", "[[1, -t + t^2], [0, 1]]", "[[1, -t + t^2], [0, 1]]"),
    ("coset_lemma(3,2,2)", W_COSET, "pass", "[[1, 0], [0, 1]]", "[[1, 0], [0, 1]]"),
]

GOLDEN = [
    pytest.param(
        ["nf", "--mod", "2", "[[1,0],[t,1]]"], 0,
        _lines(
            "length: 3",
            "head:   [[1, 0], [0, 1]]",
            "tail 1: factor 1  [[0, 1], [1, 0]]",
            "tail 2: factor 2  [[1, t], [0, 1]]",
            "tail 3: factor 1  [[0, 1], [1, 0]]",
            "matrix: [[1, 0], [t, 1]]",
        ),
        id="nf-matrix-text",
    ),
    pytest.param(
        ["nf", "--mod", "3",
         '[[{"coeffs":["1"]},{"coeffs":["0","1"]}],[{"coeffs":[]},{"coeffs":["1"]}]]'], 0,
        _lines(
            "length: 1",
            "head:   [[1, 0], [0, 1]]",
            "tail 1: factor 2  [[1, t], [0, 1]]",
            "matrix: [[1, t], [0, 1]]",
        ),
        id="nf-matrix-json",
    ),
    pytest.param(
        ["nf", "--mod", "5", '["E21(t^2)", "D(2)"]'], 0,
        _lines(
            "length: 3",
            "head:   [[3, 0], [0, 2]]",
            "tail 1: factor 1  [[0, 4], [1, 0]]",
            "tail 2: factor 2  [[1, t^2], [0, 1]]",
            "tail 3: factor 1  [[0, 4], [1, 0]]",
            "matrix: [[2, 0], [2*t^2, 3]]",
        ),
        id="nf-shorthand-word",
    ),
    pytest.param(
        ["nf", "--ring", "e2zt", '["E12(3)", "W", "E12(t)", "E21(-2)", "E12(t^2)", "D(-1)"]'], 0,
        _lines(
            "length: 4",
            "head:   [[1, 3], [0, 1]]",
            "tail 1: factor 1  [[0, -1], [1, -1]]",
            "tail 2: factor 2  [[1, t], [0, 1]]",
            "tail 3: factor 1  [[1, -1], [2, -1]]",
            "tail 4: factor 2  [[1, t^2], [0, 1]]",
            "matrix: [[-5 + 6*t, 1 - 3*t - 5*t^2 + 6*t^3], [-1 + 2*t, -t - t^2 + 2*t^3]]",
        ),
        id="nf-e2zt-word",
    ),
    pytest.param(
        ["nf", "--mod", "3", "--format", "json", "[[1, t], [t, 1 + t^2]]"], 0,
        _pretty(NF_F3),
        id="nf-json-output",
    ),
    pytest.param(
        ["nf", "--mod", "3", NF_F3], 0,
        _lines(
            "length: 4",
            "head:   [[2, 0], [0, 2]]",
            "tail 1: factor 1  [[0, 2], [1, 0]]",
            "tail 2: factor 2  [[1, 2*t], [0, 1]]",
            "tail 3: factor 1  [[0, 2], [1, 0]]",
            "tail 4: factor 2  [[1, t], [0, 1]]",
            "matrix: [[1, t], [t, 1 + t^2]]",
        ),
        id="nf-json-normal-form-input",
    ),
    pytest.param(
        ["nf", "--mod", "3", "--format", "json", "[[1, t^2000], [0, 1]]"], 0,
        _pretty(NF_F3_HIGH),
        id="nf-json-output-above-degree-cap",
    ),
    pytest.param(
        ["nf", "--mod", "3", "--format", "json", NF_F3_HIGH], 0,
        _pretty(NF_F3_HIGH),
        id="nf-json-round-trip-above-degree-cap",
    ),
    pytest.param(
        ["nf", "--mod", "3", '["E12(t^600)", "W", "E12(t^401)"]'], 0,
        _lines(
            "length: 3",
            "head:   [[1, 0], [0, 1]]",
            "tail 1: factor 2  [[1, t^600], [0, 1]]",
            "tail 2: factor 1  [[0, 2], [1, 0]]",
            "tail 3: factor 2  [[1, t^401], [0, 1]]",
            "matrix: [[t^600, 2 + t^1001], [1, t^401]]",
        ),
        id="nf-word-degree-1001",
    ),
    pytest.param(
        ["nf", "--mod", "3", '["E12(t^5000)", "W", "E12(t^5000)"]'], 0,
        _lines(
            "length: 3",
            "head:   [[1, 0], [0, 1]]",
            "tail 1: factor 2  [[1, t^5000], [0, 1]]",
            "tail 2: factor 1  [[0, 2], [1, 0]]",
            "tail 3: factor 2  [[1, t^5000], [0, 1]]",
            "matrix: [[t^5000, 2 + t^10000], [1, t^5000]]",
        ),
        id="nf-word-degree-10000",
    ),
    pytest.param(
        ["nf", "--mod", "3", NF_F3_DEGREE_40000], 0,
        _lines(
            "length: 8",
            "head:   [[1, 0], [0, 1]]",
            *(f"tail {i}: factor 2  [[1, t^10000], [0, 1]]\ntail {i + 1}: factor 1  [[0, 2], [1, 0]]"
              for i in (1, 3, 5, 7)),
            "matrix: [[1 + t^40000, 2*t^10000 + 2*t^30000], [t^10000 + t^30000, 1 + 2*t^20000]]",
        ),
        id="nf-json-normal-form-degree-40000",
    ),
    pytest.param(
        ["nf", "--ring", "e2zt", NF_Z_DEGREE_1001], 0,
        _lines(
            "length: 3",
            "head:   [[1, 0], [0, 1]]",
            "tail 1: factor 2  [[1, t^600], [0, 1]]",
            "tail 2: factor 1  [[0, -1], [1, 0]]",
            "tail 3: factor 2  [[1, t^401], [0, 1]]",
            "matrix: [[t^600, -1 + t^1001], [1, t^401]]",
        ),
        id="nf-e2zt-json-normal-form-degree-1001",
    ),
    pytest.param(
        ["nf", "--ring", "e2zt", "--format", "json", '["E12(2)", "W", "E12(t)", "E21(3)"]'], 0,
        _pretty(NF_Z),
        id="nf-e2zt-json-output",
    ),
    pytest.param(
        ["nf", "--ring", "e2zt", NF_Z], 0,
        _lines(
            "length: 3",
            "head:   [[1, 2], [0, 1]]",
            "tail 1: factor 1  [[0, -1], [1, 0]]",
            "tail 2: factor 2  [[1, t], [0, 1]]",
            "tail 3: factor 1  [[1, 0], [3, 1]]",
            "matrix: [[-1 + 6*t, -1 + 2*t], [1 + 3*t, t]]",
        ),
        id="nf-e2zt-json-normal-form-input",
    ),
    pytest.param(
        ["nf", "--ring", "e2zt", "[[1,0],[t,1]]"], 3, "",
        id="nf-e2zt-bare-matrix-refused",
    ),
    pytest.param(
        ["nf", "--mod", "3", "--ring", "e2zt", '["E12(5)"]'], 2, "",
        id="nf-mod-with-e2zt-refused",
    ),
    pytest.param(
        ["hdim", "--group", "e2zt", "--mod", "3", "--max-i", "2", "--max-deg", "4"], 0,
        _lines(
            HDIM_HEADER,
            "e2zt            3   4   0       1  ",
            "e2zt            3   4   1       5  ",
            "e2zt            3   4   2      11  ",
        ),
        id="hdim-text",
    ),
    pytest.param(
        ["hdim", "--group", "e2zt", "--mod", "7", "--ledger", "--max-i", "3", "--max-deg", "4"], 0,
        _lines(
            HDIM_HEADER,
            "e2zt            7   4   0       1  ",
            "e2zt            7   4   1       4  ",
            "e2zt            7   4   2      10  ",
            "e2zt            7   4   3      10  ",
            "ledger i=0: e2zt=1 vs 1 + 1 - 1 ... OK",
            "ledger i=1: e2zt=4 vs 5 + 0 - 1 ... OK",
            "ledger i=2: e2zt=10 vs 10 + 0 - 0 ... OK",
            "ledger i=3: e2zt=10 vs 10 + 0 - 0 ... OK",
        ),
        id="hdim-ledger",
    ),
    pytest.param(
        ["hdim", "--group", "bfpt", "--mod", "5", "--coinv", "--max-i", "2", "--max-deg", "4"], 0,
        _lines(
            HDIM_HEADER,
            f"bfpt            5   4   0       1  {COINV_FLAGS}",
            f"bfpt            5   4   1       0  {COINV_FLAGS}",
            f"bfpt            5   4   2       6  {COINV_FLAGS}",
        ),
        id="hdim-coinv",
    ),
    pytest.param(
        ["hdim", "--group", "sl2fpt_bquot", "--mod", "2", "--max-i", "2", "--max-deg", "3",
         "--format", "csv"], 0,
        _lines(
            "group,p,d,i,dim,flags",
            f"sl2fpt_bquot,2,3,0,0,{BQUOT_FLAGS}",
            f"sl2fpt_bquot,2,3,1,3,{BQUOT_FLAGS}",
            f"sl2fpt_bquot,2,3,2,9,{BQUOT_FLAGS}",
        ),
        id="hdim-csv",
    ),
    pytest.param(
        ["hdim", "--group", "e2zt", "--mod", "7", "--ledger", "--max-i", "2", "--max-deg", "3",
         "--format", "csv"], 0,
        _lines(
            "group,p,d,i,dim,flags",
            "e2zt,7,3,0,1,",
            "e2zt,7,3,1,3,",
            "e2zt,7,3,2,6,",
            "ledger: p,i,d,e2zt,bzt,sl2z,bz,ok",
            "7,0,3,1,1,1,1,True",
            "7,1,3,3,4,0,1,True",
            "7,2,3,6,6,0,0,True",
        ),
        id="hdim-csv-ledger",
    ),
    pytest.param(
        # a dimension of eight digits keeps the space before it
        ["hdim", "--group", "tfpt", "--mod", "2", "--max-i", "12", "--max-deg", "16"], 0,
        _lines(
            HDIM_HEADER,
            "tfpt            2  16   0       1  ",
            "tfpt            2  16   1      16  ",
            "tfpt            2  16   2     136  ",
            "tfpt            2  16   3     816  ",
            "tfpt            2  16   4    3876  ",
            "tfpt            2  16   5   15504  ",
            "tfpt            2  16   6   54264  ",
            "tfpt            2  16   7  170544  ",
            "tfpt            2  16   8  490314  ",
            "tfpt            2  16   9 1307504  ",
            "tfpt            2  16  10 3268760  ",
            "tfpt            2  16  11 7726160  ",
            "tfpt            2  16  12 17383860  ",
        ),
        id="hdim-text-wide-dim",
    ),
    pytest.param(
        # a truncation degree of four digits stays apart from p
        ["hdim", "--group", "tzt", "--mod", "3", "--max-i", "1", "--max-deg", "1000"], 0,
        _lines(
            HDIM_HEADER,
            "tzt             3 1000   0       1  ",
            "tzt             3 1000   1    1000  ",
        ),
        id="hdim-text-wide-degree",
    ),
    pytest.param(
        ["hdim", "--group", "e2zt", "--mod", "7", "--ledger", "--max-i", "1", "--max-deg", "3",
         "--format", "json"], 0,
        _pretty(
            '{"rows": ['
            '{"group": "e2zt", "p": 7, "d": 3, "i": 0, "dim": 1, "flags": ""}, '
            '{"group": "e2zt", "p": 7, "d": 3, "i": 1, "dim": 3, "flags": ""}], '
            '"ledger": ['
            '{"p": 7, "i": 0, "d": 3, "e2zt": 1, "bzt": 1, "sl2z": 1, "bz": 1, "ok": true}, '
            '{"p": 7, "i": 1, "d": 3, "e2zt": 3, "bzt": 4, "sl2z": 0, "bz": 1, "ok": true}]}'
        ),
        id="hdim-json-ledger",
    ),
    pytest.param(
        ["hdim", "--group", "bfpt", "--mod", "5", "--coinv", "--max-i", "1", "--max-deg", "2",
         "--format", "json"], 0,
        _pretty(
            '{"rows": ['
            f'{{"group": "bfpt", "p": 5, "d": 2, "i": 0, "dim": 1, "flags": "{COINV_FLAGS}"}}, '
            f'{{"group": "bfpt", "p": 5, "d": 2, "i": 1, "dim": 0, "flags": "{COINV_FLAGS}"}}]}}'
        ),
        id="hdim-json-coinv",
    ),
    pytest.param(
        ["verify", "--witness", "2..3", "1..2"], 0,
        _lines(
            f"PASS  det_h(2,1): {W_DET_H}",
            f"PASS  det_g(2,1): {W_DET_G}",
            f"PASS  det_x(1): {W_DET_X}",
            f"PASS  det_n(2,1): {W_DET_N}",
            f"PASS  nonunipotent_g(2,1): {W_NONUNI_G}",
            f"PASS  unipotent_x(1): {W_UNI_X}",
            f"PASS  reduce_g(2,1): {W_RED_G}",
            f"INFO  reduce_h(2,1): {W_RED_H}",
            f"PASS  det_h(2,2): {W_DET_H}",
            f"PASS  det_g(2,2): {W_DET_G}",
            f"PASS  det_x(2): {W_DET_X}",
            f"PASS  det_n(2,2): {W_DET_N}",
            f"PASS  nonunipotent_g(2,2): {W_NONUNI_G}",
            f"PASS  unipotent_x(2): {W_UNI_X}",
            f"PASS  reduce_g(2,2): {W_RED_G}",
            f"INFO  reduce_h(2,2): {W_RED_H}",
            f"PASS  coset_lemma(2,1,1): {W_COSET}",
            f"PASS  coset_lemma(2,1,2): {W_COSET}",
            f"PASS  coset_lemma(2,2,1): {W_COSET}",
            f"PASS  coset_lemma(2,2,2): {W_COSET}",
            f"PASS  det_h(3,1): {W_DET_H}",
            f"PASS  det_g(3,1): {W_DET_G}",
            f"PASS  det_x(1): {W_DET_X}",
            f"PASS  det_n(3,1): {W_DET_N}",
            f"PASS  nonunipotent_g(3,1): {W_NONUNI_G}",
            f"PASS  unipotent_x(1): {W_UNI_X}",
            f"PASS  reduce_g(3,1): {W_RED_G}",
            f"INFO  reduce_h(3,1): {W_RED_H}",
            f"PASS  det_h(3,2): {W_DET_H}",
            f"PASS  det_g(3,2): {W_DET_G}",
            f"PASS  det_x(2): {W_DET_X}",
            f"PASS  det_n(3,2): {W_DET_N}",
            f"PASS  nonunipotent_g(3,2): {W_NONUNI_G}",
            f"PASS  unipotent_x(2): {W_UNI_X}",
            f"PASS  reduce_g(3,2): {W_RED_G}",
            f"INFO  reduce_h(3,2): {W_RED_H}",
            f"PASS  coset_lemma(3,1,1): {W_COSET}",
            f"PASS  coset_lemma(3,1,2): {W_COSET}",
            f"PASS  coset_lemma(3,2,1): {W_COSET}",
            f"PASS  coset_lemma(3,2,2): {W_COSET}",
            "checks: 40, failures: 0",
        ),
        id="verify-witness-text",
    ),
    pytest.param(
        ["verify", "--witness", "2..3", "1..2", "--format", "json"], 0,
        json.dumps(
            [dict(zip(("id", "statement", "status", "lhs", "rhs"), row)) for row in WITNESS_2_3],
            indent=2,
        ) + "\n",
        id="verify-witness-json",
    ),
    pytest.param(
        ["verify", "--sn", "3", "2"], 0, "witness for p=3, n=2: (1, 1)\n",
        id="verify-sn-witness",
    ),
    pytest.param(
        ["verify", "--sn", "3", "3"], 0,
        "none exists: no 3 nonzero residues mod 3 avoid a zero subset sum\n",
        id="verify-sn-none",
    ),
    pytest.param(
        ["verify", "--sn", "5", "4", "--format", "json"], 0,
        _pretty('{"p": 5, "n": 4, "witness": [1, 1, 1, 1]}'),
        id="verify-sn-json",
    ),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN)
def test_golden_outputs(capsys, argv, code, stdout):
    """Exact stdout and exit code of representative invocations."""
    assert run(capsys, *argv)[:2] == (code, stdout)


def test_closed_output_pipe_exits_cleanly():
    """A reader that stops early (``| head -1``) gets no traceback and a
    documented exit code."""
    src = os.path.dirname(os.path.dirname(nagaolab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # a normal form of 1000 letters prints about 400 kB of JSON, far more
    # than a pipe buffer holds
    word = json.dumps(["E12(t)", "W"] * 500)
    proc = subprocess.Popen(
        [sys.executable, "-m", "nagaolab.cli", "nf", "--mod", "3", "--format", "json", word],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
