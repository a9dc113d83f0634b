"""Acceptance suite: one test per criterion, exact checks at desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.
"""

import random
import time
from math import comb

from nagaolab.amalgam import AmalgamStructure, Letter
from nagaolab.homology import (
    class_order_lower_bound,
    coinvariant_dims,
    h_dims,
    mv_ledger_check,
)
from nagaolab.nagao import nagao_normal_form, phi_p
from nagaolab.witnesses import sn_witness_search, verify_witness_suite

from helpers import evaluate_word, rand_fp_matrix, rand_letter, rand_word


def _report(name, elapsed, limit):
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit


def test_criterion_01_normal_form_soundness():
    start = time.monotonic()
    rng = random.Random(90001)
    for p in (2, 3, 5):
        struct = AmalgamStructure(p)
        for _ in range(1000):
            word = rand_word(rng, p, rng.randint(0, 8), 6)
            nf = struct.normalize(word)
            assert struct.nf_evaluate(nf) == evaluate_word(word, p)
    _report("1 normal-form soundness", time.monotonic() - start, 30)


def test_criterion_02_normal_form_uniqueness():
    start = time.monotonic()
    rng = random.Random(90002)
    seen = []
    for idx in range(500):
        p = (2, 3, 5)[idx % 3]
        struct = AmalgamStructure(p)
        word = rand_word(rng, p, rng.randint(0, 6), 5)
        nf = struct.normalize(word)
        g = rand_letter(rng, p, 5)
        pos = rng.randint(0, len(word))
        padded = word[:pos] + [g, Letter(g.factor, g.mat.inv())] + word[pos:]
        assert struct.normalize(padded) == nf
        seen.append((p, evaluate_word(word, p), nf))
    # words with distinct products never share a normal form (and equal
    # products always do)
    for i in range(0, len(seen) - 1, 2):
        (p1, m1, nf1), (p2, m2, nf2) = seen[i], seen[i + 1]
        if p1 == p2:
            assert (m1 == m2) == (nf1 == nf2)
    _report("2 normal-form uniqueness", time.monotonic() - start, 30)


def test_criterion_03_dual_algorithm_cross_validation():
    # nagao_normal_form runs the elementary-factorization route and the
    # degree-reduction route internally and raises on any disagreement
    start = time.monotonic()
    rng = random.Random(90003)
    for p in (2, 3, 5):
        struct = AmalgamStructure(p)
        for _ in range(1000):
            m = rand_fp_matrix(rng, p, 6, 6)
            nf = nagao_normal_form(p, m)
            assert struct.nf_evaluate(nf) == m
    _report("3 dual-algorithm cross-validation", time.monotonic() - start, 60)


def test_criterion_04_e2zt_dimension_formulas():
    start = time.monotonic()
    for d in range(9):
        assert h_dims("e2zt", 3, 1, d) == d + 1
        for i in range(2, 7):
            assert h_dims("e2zt", 5, i, d) == comb(d + 1, i)
    _report("4 dimension formulas", time.monotonic() - start, 30)


def test_criterion_05_dimension_ledger():
    start = time.monotonic()
    for p in (2, 3, 5, 7):
        for i in range(9):
            for d in range(9):
                row = mv_ledger_check(p, i, d)
                assert row["ok"], row
    _report("5 dimension ledger", time.monotonic() - start, 30)


def test_criterion_06_coinvariants():
    start = time.monotonic()
    for p in (5, 7):
        half = (p - 1) // 2
        for i in range(9):
            for d in range(9):
                dim = coinvariant_dims(p, i, d)
                if i % half == 0 and i <= d:
                    assert dim == comb(d, i) > 0
                else:
                    assert dim == 0
    for p in (2, 3):
        for i in range(9):
            for d in range(9):
                full = h_dims("tfpt", p, i, d + 1)
                assert h_dims("bfpt", p, i, d) == full
    _report("6 coinvariants", time.monotonic() - start, 30)


def test_criterion_07_witness_suite():
    start = time.monotonic()
    report = verify_witness_suite((2, 3, 5, 7), (1, 2, 3, 4))
    assert report.all_asserted_pass, report.failures()
    infos = [c for c in report.checks if c.id.startswith("reduce_h")]
    assert len(infos) == 16
    for c in infos:
        assert c.status == "info"
        assert "equals x(3k): True" in c.statement
    _report("7 witness suite", time.monotonic() - start, 5)


def test_criterion_08_unit_subset_sums():
    start = time.monotonic()
    for p in (3, 5, 7, 11):
        assert sn_witness_search(p, p - 1) is not None
        assert sn_witness_search(p, p) is None
    _report("8 unit subset sums", time.monotonic() - start, 10)


def test_criterion_09_phi_compatibility():
    start = time.monotonic()
    rng = random.Random(90009)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        word = rand_word(rng, None, rng.randint(0, 6), 4)
        mat_p, nf = phi_p(word, p)  # raises if the two routes disagree
        assert mat_p == evaluate_word(word, None).reduce_mod_p(p)
        assert AmalgamStructure(p).nf_evaluate(nf) == mat_p
    _report("9 phi compatibility", time.monotonic() - start, 30)


def test_criterion_10_order_bounds():
    start = time.monotonic()
    assert class_order_lower_bound(1, prime_bound=7) == 6
    assert class_order_lower_bound(2, prime_bound=7) == 30
    assert class_order_lower_bound(3, prime_bound=7) == 42
    _report("10 order bounds", time.monotonic() - start, 5)
