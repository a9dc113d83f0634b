import itertools
from math import comb

import pytest

from nagaolab.homology import (
    GROUP_IDS,
    UnsupportedGroupError,
    class_order_lower_bound,
    coinvariant_dims,
    dim_divided_power,
    dim_exterior,
    dim_table,
    h_dims,
    mv_ledger_check,
)

from helpers import WeightedMonomial, weighted_monomials


# -- enumeration oracles ---------------------------------------------------


def _enumerate_mod_p_basis(n, i, p, weight_filter):
    """Count monomials wedge(S) * prod_g gamma_{m_g}(g) of homological degree
    i over n generators, by direct enumeration."""
    count = 0
    for wedge_size in range(min(i, n) + 1):
        rest = i - wedge_size
        if rest % 2:
            continue
        j = rest // 2
        for subset in itertools.combinations(range(n), wedge_size):
            for multiset in itertools.combinations_with_replacement(range(n), j):
                weight = 2 * wedge_size + 2 * j
                if weight_filter and weight % (p - 1) != 0:
                    continue
                count += 1
    return count


def test_dim_exterior_examples():
    assert dim_exterior(3, 2) == 3
    assert dim_exterior(5, 0) == 1
    assert dim_exterior(5, 2) == len(list(itertools.combinations(range(5), 2)))


def test_dim_exterior_matches_enumeration():
    for n in range(7):
        for i in range(9):
            assert dim_exterior(n, i) == len(
                list(itertools.combinations(range(n), i))
            )


def test_dim_divided_power_examples():
    assert dim_divided_power(4, 1) == 0
    assert dim_divided_power(1, 4) == 1
    assert dim_divided_power(2, 4) == 3  # gamma_2(v), v*w, gamma_2(w)


def test_dim_divided_power_matches_enumeration():
    for n in range(7):
        for i in range(9):
            if i % 2:
                assert dim_divided_power(n, i) == 0
            else:
                expected = len(
                    list(itertools.combinations_with_replacement(range(n), i // 2))
                )
                assert dim_divided_power(n, i) == expected


def test_mod_p_homology_matches_enumeration():
    for p in (2, 3, 5, 7):
        for n in range(5):
            for i in range(8):
                assert h_dims("tfpt", p, i, n) == _enumerate_mod_p_basis(
                    n, i, p, False
                )
        for d in range(4):
            for i in range(7):
                assert h_dims("bfpt", p, i, d) == _enumerate_mod_p_basis(
                    d + 1, i, p, True
                )


# -- pinned table values ----------------------------------------------------


def test_e2zt_dimensions_pinned():
    assert h_dims("e2zt", 3, 1, 4) == 5  # d + 1 at p = 3
    assert h_dims("e2zt", 5, 2, 4) == 10  # C(5, 2)
    assert h_dims("e2zt", 5, 1, 4) == 4
    assert h_dims("e2zt", 7, 0, 3) == 1


def test_bzt_kunneth_pinned():
    # p = 2, i = 1, d = 4: H1(Z/2) x 1 + 1 x H1(Z) + 4 wedge classes
    assert h_dims("bzt", 2, 1, 4) == 6


def test_bz_table():
    assert [h_dims("bz", 2, i, 0) for i in range(5)] == [1, 2, 2, 2, 2]
    for p in (3, 5, 7):
        assert [h_dims("bz", p, i, 0) for i in range(5)] == [1, 1, 0, 0, 0]


def test_bfp_table_period_four_at_p5():
    # hand count: one wedge generator of weight 2, one divided generator of
    # weight 2 per multiplicity; weight = i + (i mod 2) must vanish mod 4
    assert [h_dims("bfp", 5, i, 0) for i in range(9)] == [1, 0, 0, 1, 1, 0, 0, 1, 1]


def test_bzt_kunneth_equals_truncated_exterior_for_odd_p():
    for p in (3, 5, 7):
        for d in range(9):
            for i in range(9):
                assert h_dims("bzt", p, i, d) == comb(d + 1, i)


def test_bfpt_kunneth_consistency_p23():
    # B(F_p[t]) splits as B(F_p) x tF_p[t] for p = 2, 3
    for p in (2, 3):
        for d in range(9):
            for i in range(9):
                conv = sum(
                    h_dims("bfp", p, l, d) * h_dims("tfpt", p, i - l, d)
                    for l in range(i + 1)
                )
                assert h_dims("bfpt", p, i, d) == conv


def test_e2zt_consistency_with_kunneth_sum_for_odd_p():
    for p in (3, 5, 7):
        for d in range(6):
            for i in range(8):
                total = (
                    h_dims("bzt", p, i, d)
                    + h_dims("sl2z", p, i, d)
                    - h_dims("bz", p, i, d)
                )
                assert h_dims("e2zt", p, i, d) == total


def test_sl2fpt_bquot_table():
    for p in (2, 3):
        for d in range(5):
            for i in range(6):
                expected = h_dims("bfpt", p, i, d) - h_dims("bfp", p, i, d)
                assert h_dims("sl2fpt_bquot", p, i, d) == expected
    with pytest.raises(UnsupportedGroupError):
        h_dims("sl2fpt_bquot", 5, 1, 4)


def test_dimension_at_zero_is_one():
    for group in GROUP_IDS:
        for p in (2, 3):
            expected = 0 if group == "sl2fpt_bquot" else 1
            assert h_dims(group, p, 0, 4) == expected


def test_unknown_group_rejected():
    with pytest.raises(UnsupportedGroupError, match="unknown group"):
        h_dims("sl3zt", 2, 1, 4)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        h_dims("bz", 4, 1, 4)
    with pytest.raises(ValueError):
        h_dims("bz", 3, -1, 4)
    with pytest.raises(ValueError, match="truncation degree"):
        h_dims("bz", 3, 1, -1)
    for dim in (dim_exterior, dim_divided_power):
        for n, i in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError, match="must be >= 0"):
                dim(n, i)


def test_weighted_monomial_parts():
    m = WeightedMonomial((1, 3), ((2, 2),))
    assert m.degree == 2 + 4
    assert m.weight == 4 + 4
    with pytest.raises(ValueError):
        WeightedMonomial((3, 1), ())
    with pytest.raises(ValueError):
        WeightedMonomial((), ((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        WeightedMonomial((), ((1, 0),))


def test_weighted_enumeration_matches_counters():
    for p in (2, 3, 5, 7):
        for d in range(4):
            exps = range(d + 1)
            for i in range(7):
                monos = list(weighted_monomials(exps, i))
                assert all(m.degree == i for m in monos)
                assert len(monos) == h_dims("tfpt", p, i, d + 1)
                fixed = sum(1 for m in monos if m.weight % (p - 1) == 0)
                assert fixed == h_dims("bfpt", p, i, d)
                # the wedge part of the t-part t^1..t^d
                fixed = sum(
                    1 for m in weighted_monomials(range(1, d + 1), i)
                    if not m.divided and m.weight % (p - 1) == 0
                )
                assert fixed == coinvariant_dims(p, i, d)


# -- coinvariants -----------------------------------------------------------


def test_coinvariants_trivial_action_p23():
    # full basis t^0..t^d has d + 1 generators, the same count as the
    # t-part of a degree-(d+1) truncation
    for p in (2, 3):
        for i in range(8):
            for d in range(6):
                full = h_dims("tfpt", p, i, d + 1)
                assert h_dims("bfpt", p, i, d) == full


def test_wedge_part_coinvariants_divisibility():
    for p in (5, 7):
        half = (p - 1) // 2
        for i in range(9):
            for d in range(9):
                dim = coinvariant_dims(p, i, d)
                expect_nonzero = (i % half == 0) and i <= d
                assert (dim > 0) == expect_nonzero
                if expect_nonzero:
                    assert dim == comb(d, i)


def test_wedge_part_pinned_values():
    assert coinvariant_dims(5, 1, 4) == 0
    assert coinvariant_dims(5, 2, 4) == 6


# -- dimension ledger --------------------------------------------------------


def test_ledger_holds_on_grid():
    for p in (2, 3, 5, 7):
        for i in range(9):
            for d in range(9):
                assert mv_ledger_check(p, i, d)["ok"]


def test_ledger_examples():
    for d in range(1, 8):
        row = mv_ledger_check(3, 1, d)
        assert (row["bzt"], row["sl2z"], row["bz"]) == (d + 1, 1, 1)
        assert row["e2zt"] == d + 1
        row = mv_ledger_check(5, 2, d)
        assert row["e2zt"] == comb(d + 1, 2)
        assert (row["sl2z"], row["bz"]) == (0, 0)
    assert mv_ledger_check(2, 0, 5) == {
        "p": 2, "i": 0, "d": 5, "e2zt": 1, "bzt": 1, "sl2z": 1, "bz": 1, "ok": True,
    }
    # the key order that the CSV and JSON ledger print
    assert list(mv_ledger_check(2, 0, 5)) == ["p", "i", "d", "e2zt", "bzt", "sl2z", "bz", "ok"]


def test_ledger_rejects_other_primes():
    with pytest.raises(ValueError, match=r"ledger is configured for p in \{2, 3, 5, 7\}, got 11"):
        mv_ledger_check(11, 1, 4)


# -- order bounds -------------------------------------------------------------


def test_class_order_lower_bounds():
    assert class_order_lower_bound(1) == 6
    assert class_order_lower_bound(2) == 30
    assert class_order_lower_bound(3) == 42
    assert class_order_lower_bound(6, prime_bound=13) == 6 * 5 * 7 * 13
    with pytest.raises(ValueError):
        class_order_lower_bound(0)
    # int() would read these as 3, 2 and 1
    for degree in ("3", 2.9, True):
        with pytest.raises(ValueError, match="must be an integer"):
            class_order_lower_bound(degree)
    for bound in (13.0, "13", True):
        with pytest.raises(ValueError, match="prime_bound must be an integer"):
            class_order_lower_bound(6, prime_bound=bound)
    # primes q > 2i + 1 are never tried, so a huge bound returns at once
    assert class_order_lower_bound(6, prime_bound=10**9) == 6 * 5 * 7 * 13
    assert class_order_lower_bound(1, prime_bound=10**9) == 6
    assert class_order_lower_bound(2, prime_bound=4) == 6


# -- tables --------------------------------------------------------------------


def test_dim_table_rows():
    rows = dim_table("e2zt", 3, 2, 4)
    assert rows == [{"group": "e2zt", "p": 3, "d": 4, "i": i, "dim": dim, "flags": ""}
                    for i, dim in enumerate([1, 5, 11])]
    assert list(rows[0]) == ["group", "p", "d", "i", "dim", "flags"]  # the CSV and JSON column order


def test_dim_table_flags_opaque_summand():
    rows = dim_table("sl2fpt_bquot", 2, 3, 4)
    assert len(rows) == 4 and all("opaque" in r["flags"] for r in rows)
