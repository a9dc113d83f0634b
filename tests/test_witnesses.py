import itertools
import json
import re

import pytest

from nagaolab import witnesses
from nagaolab.gl2 import e12, parse_matrix
from nagaolab.limits import SearchCapExceeded
from nagaolab.ring import Poly
from nagaolab.witnesses import (
    make_witness,
    sn_witness_search,
    verify_witness_suite,
)


def test_make_witness_displays():
    assert make_witness("h", 2, 1) == parse_matrix("[[1 + 2*t, t^3],[8, 1 - 2*t + 4*t^2]]")
    assert make_witness("x", None, 3) == parse_matrix("[[1, t^3],[0, 1]]")
    assert make_witness("n", 2, 1) == parse_matrix("[[0, -t],[-2, 2*t]]")
    assert make_witness("g", 3, 2) == parse_matrix("[[1, -t^2],[-3, 1 + 3*t^2]]")


def test_witness_id_validation():
    """Each bad (kind, p, k) is refused by name.  Integers are not read from
    int-like values: k = 2.0 passed the old checks and then failed with a
    bare TypeError, and is_prime(2.0) holds."""
    for args, msg in [
        (("y", 2, 1), "kind must be one of ('h', 'g', 'x', 'n'), got 'y'"),
        (("x", 2, 1), "kind x takes no prime"),
        (("g", 4, 1), "kind g needs a prime, got 4"),
        (("h", None, 1), "kind h needs a prime, got None"),
        (("g", 2.0, 1), "kind g needs a prime, got 2.0"),
        (("h", True, 1), "kind h needs a prime, got True"),
        (("g", 2, 0), "index k must be >= 1, got 0"),
        (("x", None, 2.0), "index k must be an integer, got 2.0"),
        (("x", None, True), "index k must be an integer, got True"),
        (("n", 2, "1"), "index k must be an integer, got '1'"),
        (("h", 2, 3334), "exponent 10002 exceeds the degree cap 10000"),  # t^3k
    ]:
        with pytest.raises(ValueError, match=re.escape(msg)):
            make_witness(*args)


def test_suite_all_asserted_checks_pass():
    report = verify_witness_suite((2, 3, 5, 7), (1, 2, 3, 4))
    assert report.all_asserted_pass
    assert not report.failures()
    # every block is present for every (p, k)
    ids = {c.id for c in report.checks}
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3, 4):
            for stem in ("det_h", "det_g", "det_n", "nonunipotent_g", "reduce_g", "reduce_h"):
                assert f"{stem}({p},{k})" in ids
            for l in (1, 2, 3, 4):
                assert f"coset_lemma({p},{k},{l})" in ids


def test_suite_reports_h_reduction_as_informational():
    report = verify_witness_suite((2,), (1, 2))
    infos = [c for c in report.checks if c.id.startswith("reduce_h")]
    assert infos and all(c.status == "info" for c in infos)
    for c in infos:
        assert "equals x(3k): True" in c.statement
        assert "equals x(k): False" in c.statement


def test_coset_lemma_pinned_value():
    report = verify_witness_suite((2,), (1, 2))
    check = next(c for c in report.checks if c.id == "coset_lemma(2,1,2)")
    assert check.status == "pass"
    assert check.lhs == str(e12(Poly.parse("t - t^2")))


def test_suite_rejects_nonprime():
    with pytest.raises(ValueError):
        verify_witness_suite((4,), (1,))


def test_report_json_shape():
    report = verify_witness_suite((3,), (1,))
    payload = json.loads(report.to_json())
    assert isinstance(payload, list) and payload
    for item in payload:
        assert set(item) == {"id", "statement", "status", "lhs", "rhs"}
        assert item["status"] in ("pass", "fail", "info")


def test_equality_decisions_match_both_ways():
    # the suite itself raises if matrix and normal form equality ever split;
    # run a couple of blocks to exercise the path
    assert verify_witness_suite((2, 3), (1, 3)).all_asserted_pass


def test_equality_decisions_that_split_raise():
    m = e12(Poly.monomial(2, 1, 3))
    with pytest.raises(RuntimeError, match="^matrix and normal form equality disagree"):
        witnesses._nf_equal((m, object()), (m, object()))


# -- unit-subset-sum witnesses --------------------------------------------


def test_sn_witness_examples():
    assert sn_witness_search(3, 2) == (1, 1)
    assert sn_witness_search(3, 3) is None
    assert sn_witness_search(2, 1) == (1,)


def test_sn_witness_claim_small_primes():
    # a witness exists at arity p - 1 and never at arity p
    for p in (2, 3, 5, 7, 11):
        if p > 2:
            assert sn_witness_search(p, p - 1) is not None
        assert sn_witness_search(p, p) is None


def test_sn_witness_subset_sums_verified():
    w = sn_witness_search(7, 6)
    assert w is not None
    for r in range(1, 7):
        for combo in itertools.combinations(w, r):
            assert sum(combo) % 7 != 0


def test_sn_search_cap():
    with pytest.raises(SearchCapExceeded):
        sn_witness_search(37, 2)
    with pytest.raises(SearchCapExceeded):
        sn_witness_search(5, 6)
    with pytest.raises(ValueError):
        sn_witness_search(4, 2)


def test_sn_search_refuses_bad_arguments():
    for p, n, msg in [
        (5, 0, "arity must be >= 1, got 0"),
        (5, -2, "arity must be >= 1, got -2"),
        (5, True, "arity must be an integer, got True"),
        (5, 2.0, "arity must be an integer, got 2.0"),
        (5.0, 2, "p must be prime, got 5.0"),
        ("5", 2, "p must be prime, got '5'"),
        (True, 1, "p must be prime, got True"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            sn_witness_search(p, n)


def test_subset_sum_check_matches_enumeration():
    check = witnesses._subset_sums_nonzero
    assert check(31, (1,) * 30)
    assert not check(7, (1, 6))
    assert not check(5, (5,))  # a zero residue is a zero subset sum
    for p in (2, 3, 5):
        for n in range(1, 5):
            for residues in itertools.product(range(p), repeat=n):
                expected = all(
                    sum(combo) % p for r in range(1, n + 1) for combo in itertools.combinations(residues, r)
                )
                assert check(p, residues) == expected, (p, residues)


def test_sn_search_raises_when_the_check_refuses(monkeypatch):
    monkeypatch.setattr(witnesses, "_subset_sums_nonzero", lambda p, residues: False)
    with pytest.raises(RuntimeError, match="fails the subset-sum check"):
        sn_witness_search(5, 4)
    assert sn_witness_search(3, 3) is None  # "none exists" has nothing to check
