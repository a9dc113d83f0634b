import itertools
import math
import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from nagaolab import ring
from nagaolab.limits import MAX_DEGREE, is_prime
from nagaolab.ring import Poly, PolyParseError

from helpers import (
    dense_poly,
    rand_poly,
    record_charges,
    schoolbook_add,
    schoolbook_divmod,
    schoolbook_mul,
    trial_division_is_prime,
)

# 2**64 - 59 is the largest prime below 2**64, where products of residues
# are wider than a machine word.
PRIMES = (2, 3, 7, 101, 2**31 - 1, 2**64 - 59)


def test_mul_difference_of_squares():
    assert Poly.parse("1 + t") * Poly.parse("1 - t") == Poly.parse("1 - t^2")


def test_mul_zero_annihilates():
    z = Poly.zero()
    assert z * Poly.parse("3 + t^5") == z


def test_mul_mod2_example():
    # oracle: expand over Z, then reduce the coefficients mod 2
    expected = (Poly.parse("t + 1") * Poly.parse("t^2 + t + 1")).reduce_mod_p(2)
    got = Poly.parse("t + 1", 2) * Poly.parse("t^2 + t + 1", 2)
    assert got == expected
    assert got == Poly.parse("t^3 + 1", 2)


def test_mul_degree_adds():
    rng = random.Random(101)
    for _ in range(100):
        a = rand_poly(rng, None, 5, nonzero=True)
        b = rand_poly(rng, None, 5, nonzero=True)
        assert (a * b).degree == a.degree + b.degree


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        Poly.parse("t", 2) * Poly.parse("t", 3)
    with pytest.raises(ValueError, match="mismatch"):
        Poly.parse("t") + Poly.parse("t", 5)


def test_zero_degree_is_marker():
    assert Poly.zero().degree is None
    assert Poly.parse("7").degree == 0
    with pytest.raises(TypeError):
        Poly.zero().degree + 1
    assert not Poly.zero(3) and not Poly.parse("3", 3)
    assert Poly.parse("t") and Poly.constant(-1)


def test_poly_in_a_set_cannot_be_changed():
    """A Poly refuses assignment and deletion of its fields, so a set that
    holds it keeps finding it."""
    f = Poly([1, 2], 5)
    s = {f}
    with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
        f.coeffs = (3,)
    with pytest.raises(AttributeError, match="cannot assign to field 'mod'"):
        f.mod = 7
    with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
        del f.coeffs
    with pytest.raises(AttributeError):
        f.degree_cache = 1
    assert f in s and f == Poly([1, 2], 5) and f.coeffs == (1, 2) and f.mod == 5


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError, match="prime"):
        Poly((1,), 6)
    with pytest.raises(ValueError, match="prime"):
        Poly.parse("t").reduce_mod_p(9)


def test_divmod_cubic():
    a, b = Poly.parse("t^3 + 1", 2), Poly.parse("t + 1", 2)
    q, r = divmod(a, b)
    assert q == Poly.parse("t^2 + t + 1", 2)
    assert r.is_zero
    assert q * b + r == a


def test_divmod_low_degree_dividend():
    q, r = divmod(Poly.parse("t", 5), Poly.parse("t^2", 5))
    assert q.is_zero
    assert r == Poly.parse("t", 5)


def test_divmod_mod5():
    # t^2 + 1 = (t + 2)(t + 3) mod 5, checked by multiplying back
    q, r = divmod(Poly.parse("t^2 + 1", 5), Poly.parse("t + 2", 5))
    assert q == Poly.parse("t + 3", 5)
    assert r.is_zero
    assert q * Poly.parse("t + 2", 5) == Poly.parse("t^2 + 1", 5)


def test_divmod_random_property():
    rng = random.Random(202)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        a = rand_poly(rng, p, 8)
        b = rand_poly(rng, p, 5, nonzero=True)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_division_requires_field():
    with pytest.raises(ValueError, match="field"):
        divmod(Poly.parse("t^2"), Poly.parse("t"))


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.parse("t", 3), Poly.zero(3))


def test_reduce_mod_p_examples():
    assert Poly.parse("1 + 2*t").reduce_mod_p(2) == Poly.parse("1", 2)
    assert Poly.parse("8").reduce_mod_p(2) == Poly.zero(2)
    # the lower-right entry of h(2,1), reduced entrywise
    assert Poly.parse("1 - 2*t + 4*t^2").reduce_mod_p(2) == Poly.parse("1", 2)
    with pytest.raises(ValueError, match="integer coefficients"):
        Poly.parse("t", 3).reduce_mod_p(3)


def test_reduce_mod_p_is_ring_hom():
    rng = random.Random(303)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        a = rand_poly(rng, None, 6)
        b = rand_poly(rng, None, 6)
        assert (a + b).reduce_mod_p(p) == a.reduce_mod_p(p) + b.reduce_mod_p(p)
        assert (a * b).reduce_mod_p(p) == a.reduce_mod_p(p) * b.reduce_mod_p(p)


_SIGNED_COEFFS = st.lists(
    st.one_of(st.integers(-10, 10), st.integers(-(2**80), 2**80)), max_size=12
)


def _is_canonical(f: Poly, p: int) -> bool:
    cs = f.coeffs
    return f.mod == p and all(type(c) is int and 0 <= c < p for c in cs) and (not cs or cs[-1] != 0)


@settings(max_examples=150, deadline=None)
@given(_SIGNED_COEFFS, st.sampled_from([2, 3, 101]))
def test_reduce_mod_p_matches_constructor(coeffs, p):
    """The trusted reduction builds exactly what the validating constructor
    builds from the same coefficients."""
    f = Poly(coeffs).reduce_mod_p(p)
    assert f == Poly(coeffs, p)
    assert _is_canonical(f, p)


def test_reduce_mod_p_refuses_nonprime():
    for bad in (0, 1, 4, 9, 91, -3):
        with pytest.raises(ValueError, match="prime"):
            Poly.parse("1 + t").reduce_mod_p(bad)


def test_int_operands_act_as_constants():
    """An int operand is the constant polynomial it reduces to, on either side."""
    rng = random.Random(1414)
    for mod in (None,) + PRIMES:
        f = dense_poly(rng, mod, 5)
        for n in (0, 1, -1, 7, -(2**70), 2**70 + 3, mod or 5):
            c = Poly.constant(n, mod)
            assert f + n == n + f == f + c
            assert f - n == f - c and n - f == c - f
            assert f * n == n * f == f * c


@st.composite
def _operator_operands(draw):
    """Two operands of one ring, at least one a Poly: each is empty, (1,),
    one coefficient, a few, or from _KRONECKER_MIN_LEN coefficients up (the
    Kronecker path), or an int on either side."""
    mod = draw(st.sampled_from((None,) + PRIMES))
    coeff = st.integers(-(2**100), 2**100) | st.integers(-4, 4) if mod is None else st.integers(0, mod - 1)
    size = st.sampled_from((0, 1, 2, 3)) | st.integers(ring._KRONECKER_MIN_LEN, 3 * ring._KRONECKER_MIN_LEN)
    a, b = (Poly(draw(st.lists(coeff, min_size=n, max_size=n)), mod) for n in (draw(size), draw(size)))
    if draw(st.booleans()):
        a = Poly.one(mod)
    shape = draw(st.sampled_from(("polys", "int right", "int left")))
    n = draw(st.integers(-(2**70), 2**70) | st.integers(-2, 2))
    return (a, b) if shape == "polys" else (a, n) if shape == "int right" else (n, b)


@settings(max_examples=200, deadline=None)
@given(_operator_operands())
def test_operators_equal_schoolbook(case):
    a, b = case
    mod = (a if isinstance(a, Poly) else b).mod
    pa, pb = (x if isinstance(x, Poly) else Poly((x,), mod) for x in case)
    assert a + b == schoolbook_add(pa, pb)
    assert a - b == schoolbook_add(pa, pb, -1)
    assert a * b == schoolbook_mul(pa, pb)


def test_operators_make_one_dot_call(monkeypatch):
    """+, - and * are one ring._dot call each, on Poly or int operands."""
    calls = []
    dot = ring._dot
    monkeypatch.setattr(ring, "_dot", lambda *args: calls.append(args) or dot(*args))
    for mod in (None, 5):
        f, g = Poly([1, 2, 3], mod), Poly([4, 5], mod)
        for op in (operator.add, operator.sub, operator.mul):
            for x, y in ((f, g), (f, 7), (7, f), (f, Poly.zero(mod)), (Poly.one(mod), f), (3, Poly.one(mod))):
                calls.clear()
                op(x, y)
                assert len(calls) == 1, (op, x, y)


def test_ring_axioms_random():
    rng = random.Random(404)
    for _ in range(150):
        mod = rng.choice([None, 2, 3, 5])
        a = rand_poly(rng, mod, 4)
        b = rand_poly(rng, mod, 4)
        c = rand_poly(rng, mod, 4)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(mod) == a
        assert a * Poly.one(mod) == a
        assert a + (-a) == Poly.zero(mod)


def test_parse_examples():
    assert Poly.parse("1 - 2*t + t^2").coeffs == (1, -2, 1)
    assert Poly.parse("t^3").coeffs == (0, 0, 0, 1)
    assert Poly.parse("0").coeffs == ()
    assert Poly.parse("-t + t", 5) == Poly.zero(5)
    assert Poly.parse("  -t  +  4 ") == Poly([4, -1])
    assert Poly.parse("3*t^2 + t^2") == Poly([0, 0, 4])
    assert Poly.parse(f"t^{MAX_DEGREE}").degree == MAX_DEGREE


def test_parse_format_roundtrip():
    rng = random.Random(505)
    for _ in range(200):
        mod = rng.choice([None, 2, 7])
        a = rand_poly(rng, mod, 6)
        assert Poly.parse(str(a), mod) == a


def test_format_canonicalizes():
    assert str(Poly.parse("t + t - t")) == "t"
    assert str(Poly.zero(3)) == "0"
    assert str(Poly([1, -2, 1])) == "1 - 2*t + t^2"
    assert repr(Poly([1, -2, 1])) == "Poly([1, -2, 1], mod=None)"
    assert repr(Poly.monomial(2, 4, 3)) == "Poly([0, 0, 1], mod=3)"
    with pytest.raises(ValueError, match=re.escape("exponent must be >= 0, got -1")):
        Poly.monomial(-1)
    # the parser's degree cap, checked before the dense tuple is allocated
    assert Poly.monomial(MAX_DEGREE).degree == MAX_DEGREE
    with pytest.raises(ValueError, match=re.escape(f"exponent {MAX_DEGREE + 1} exceeds the degree cap {MAX_DEGREE}")):
        Poly.monomial(MAX_DEGREE + 1)


# every error branch of the parser, with its exact message and position
PARSE_ERRORS = [
    ("1 + & + t", "unexpected character '&'", 4),
    ("t\u0663", "unexpected character '\u0663'", 1),
    ("t + " + "1" * 4301, "integer has 4301 digits, above the digit cap 4300", 4),
    # the whole text is tokenized first, so a bad character wins over a
    # grammar error to its left
    ("2t + &", "unexpected character '&'", 5),
    ("", "empty polynomial", 0),
    ("-", "empty polynomial", 1),
    ("  + ", "empty polynomial", 4),
    ("1 + ", "expected a term", 4),
    ("+ + 1", "expected a term", 2),
    ("1 - *t", "expected a term", 4),
    ("^2", "expected a term", 0),
    ("3*+t", "expected 't', found '+'", 2),
    ("3*", "expected 't', found 'end'", 2),
    ("t + 3 * 4", "expected 't', found 'int'", 8),
    ("t^-1", "negative exponent", 2),
    ("t^", "expected exponent", 2),
    ("1 + 2*t^ t", "expected exponent", 9),
    (f"1 + t^{MAX_DEGREE + 1}", f"exponent {MAX_DEGREE + 1} exceeds the degree cap {MAX_DEGREE}", 6),
    (f"2*t^{10**30}", f"exponent {10**30} exceeds the degree cap {MAX_DEGREE}", 4),
    ("2t", "expected '+' or '-'", 1),
    ("3^2", "expected '+' or '-'", 1),
    ("1 2", "expected '+' or '-'", 2),
    ("t^2^3", "expected '+' or '-'", 3),
    ("1 + t t", "expected '+' or '-'", 6),
]


def test_parse_errors_carry_position():
    for text, message, position in PARSE_ERRORS:
        for mod in (None, 5):
            with pytest.raises(PolyParseError) as exc:
                Poly.parse(text, mod)
            assert str(exc.value) == f"{message} (at position {position})", text
            assert (exc.value.message, exc.value.position) == (message, position), text


@st.composite
def _spaced_text(draw):
    """A polynomial over Z or F_p and its text with random whitespace
    between the tokens."""
    mod = draw(st.sampled_from((None,) + PRIMES))
    coeff = st.integers(-(2**70), 2**70) | st.integers(-3, 3) if mod is None else st.integers(0, mod - 1)
    f = Poly(draw(st.lists(coeff, max_size=12)), mod)
    tokens = re.findall(r"[0-9]+|\S", str(f))
    gaps = draw(st.lists(st.text(" \t\n", max_size=3), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return f, "".join(gap + tok for gap, tok in zip(gaps, tokens + [""]))


@settings(max_examples=150, deadline=None)
@given(_spaced_text())
def test_parse_reads_spaced_format(case):
    f, text = case
    assert Poly.parse(text, f.mod) == f


def test_json_roundtrip():
    a = Poly([10**30, -1, 7])
    assert Poly.from_json(a.to_json()) == a
    b = Poly([1, 2], 3)
    assert Poly.from_json(b.to_json()) == b
    assert b.to_json()["mod"] == 3
    assert Poly.from_json(["1", "2"], 3) == b
    # still accepted: integers, integer strings, lists of both, a matching mod
    assert Poly.from_json([1, "2"], 3) == Poly.from_json({"coeffs": [1, 2], "mod": 3}, 3) == b
    assert Poly.from_json(-4) == Poly.from_json("-4") == Poly.constant(-4)
    top = Poly.monomial(MAX_DEGREE)
    assert Poly.from_json(top.to_json()) == top
    with pytest.raises(ValueError, match=f"degree cap {MAX_DEGREE}"):
        Poly.from_json([0] * (MAX_DEGREE + 1) + [1])


def test_big_coefficients_stay_exact():
    a = Poly([2**80, 1])
    b = Poly([2**80, -1])
    assert (a * b).coeffs[0] == 2**160


# -- multiply and divide kernels against the schoolbook oracles ----------


def test_mul_kernel_around_crossover():
    rng = random.Random(606)
    x = ring._KRONECKER_MIN_LEN
    for mod in (None,) + PRIMES:
        for n in (x - 1, x, x + 1):
            for m in (n, n + 1, 3 * n + 5, 200):
                for _ in range(3):
                    a, b = dense_poly(rng, mod, n), dense_poly(rng, mod, m)
                    assert a * b == schoolbook_mul(a, b)
                    assert b * a == schoolbook_mul(a, b)
                    assert len((a * b).coeffs) == n + m - 1


def test_mul_kernel_zero_and_constant_operands():
    rng = random.Random(707)
    for mod in (None,) + PRIMES:
        long = dense_poly(rng, mod, 3 * ring._KRONECKER_MIN_LEN)
        for short in (Poly.zero(mod), Poly.one(mod), Poly.constant(-1, mod), dense_poly(rng, mod, 1)):
            assert long * short == schoolbook_mul(long, short)
            assert short * long == schoolbook_mul(short, long)
        assert long * 0 == Poly.zero(mod)
        assert 5 * long == schoolbook_mul(Poly.constant(5, mod), long)


def test_mul_kernel_signed_and_huge_coefficients():
    rng = random.Random(808)
    n = 2 * ring._KRONECKER_MIN_LEN
    for big in (1, 4, 2**31, 2**64, 2**100):
        for _ in range(5):
            a, b = dense_poly(rng, None, n, big), dense_poly(rng, None, n + 7, big)
            assert a * b == schoolbook_mul(a, b)
    # all-negative operands, and a sign change in the leading coefficient
    a = Poly([-(2**100)] * n)
    b = Poly([-(2**100)] * n + [2**100 - 1])
    assert a * b == schoolbook_mul(a, b)
    assert (a * a).coeffs[n - 1] == n * 2**200


def test_mul_kernel_extreme_coefficients():
    # The middle coefficients of a*a reach min(len) * max|a|**2, the bound the
    # slot width is sized from.  Over Z that bound sits just below a power of
    # 2**8, where the sign needs one more bit than the magnitude.
    n = ring._KRONECKER_MIN_LEN
    for p in PRIMES:
        for length in (n, 2 * n + 1, 150):
            a = Poly([p - 1] * length, p)
            assert a * a == schoolbook_mul(a, a)
    for bits in (16, 32, 64, 104):
        c = math.isqrt((2**bits - 1) // n)
        a = Poly([c] * n)
        assert (n * c * c).bit_length() == bits
        for b in (a, -a, Poly([c, -c] * (n // 2))):
            assert a * b == schoolbook_mul(a, b)


def _dot_oracle(x, y, u, v):
    return schoolbook_add(schoolbook_mul(x, y), schoolbook_mul(u, v))


def _dot(x, y, u, v, n=None):
    return Poly._canon(ring._dot(x.coeffs, y.coeffs, u.coeffs, v.coeffs, x.mod, n), x.mod)


def test_dot_kernel_matches_poly_operators():
    rng = random.Random(1111)
    x = ring._KRONECKER_MIN_LEN
    for mod in (None,) + PRIMES:
        for big in ((4, 2**100) if mod is None else (None,)):
            # every operand zero, constant or linear: the integer fast path,
            # the scalar path and the schoolbook loop
            for lens in itertools.product((0, 1, 2), repeat=4):
                ops = [dense_poly(rng, mod, n, big) for n in lens]
                assert _dot(*ops) == _dot_oracle(*ops), (mod, lens)
            # lengths at the Kronecker crossover and either side, mixed
            # with constants, zeros and long operands
            for _ in range(40):
                lens = [rng.choice((0, 1, 3, x - 1, x, x + 1, 3 * x)) for _ in range(4)]
                ops = [dense_poly(rng, mod, n, big) for n in lens]
                assert _dot(*ops) == _dot_oracle(*ops), (mod, lens)
    # wide coefficients over Z, where the kernel is chosen by coefficient
    # width as well as length: the lopsided shape of a long E2(Z[t]) word
    # (1 000 coefficients of 3 000 bits times 21 of 72 bits), and x by x
    # coefficients on either side of the width where Kronecker stops paying
    for la, wa, lb, wb, kronecker in ((1000, 3000, 21, 72, False), (x, 170, x, 170, True),
                                      (x, 180, x, 180, False)):
        assert ring._mul_cost(la, lb, wa, wb)[1] is kronecker
        a, b = (Poly([rng.randint(1 - 2**w, 2**w - 1) for _ in range(n - 1)] + [2**w - 1])
                for n, w in ((la, wa), (lb, wb)))
        assert _dot(a, b, b, b) == _dot_oracle(a, b, b, b), (la, wa, lb, wb)


def test_raw_mul_picks_the_kernel_of_the_fitted_estimates(monkeypatch):
    """_raw_mul takes Kronecker exactly where 12 w (lb w)**0.585 is below
    lb (wa/30 + 8)(wb/30 + 8), with w = (wa + wb + bit length of lb) / 30,
    the estimates the kernel choice was fitted with; over the grid of
    lengths 16 to 1 000 and widths 1 to 3 000 bits, in both operand orders."""

    class Picked(Exception):
        pass

    def kronecker(*args):
        raise Picked

    monkeypatch.setattr(ring, "_kronecker", kronecker)
    lengths = (16, 17, 40, 100, 333, 1000)
    widths = (1, 2, 8, 30, 64, 100, 170, 180, 500, 1000, 3000)
    grid = itertools.product(lengths, lengths, widths, widths)
    # and every equal width up to 400 bits, across the crossover
    sweep = ((la, lb, w, w) for la, lb in itertools.product(lengths, lengths) for w in range(1, 401))
    for la, lb, wa, wb in itertools.chain(grid, sweep):
        if la < lb:
            continue
        w = (wa + wb + lb.bit_length()) / 30
        expected = 12 * w * (lb * w) ** 0.585 < lb * (wa / 30 + 8) * (wb / 30 + 8)
        # one nonzero coefficient each, so that the schoolbook loop is cheap
        a = [0] * (la - 1) + [2**wa - 1]
        b = [0] * (lb - 1) + [2**wb - 1]
        for x, y in ((a, b), (b, a)):
            try:  # residues of a modulus above them, so unsigned
                ring._raw_mul(x, y, 2**3001)
                picked = False
            except Picked:
                picked = True
            assert picked is expected, (la, lb, wa, wb)
        assert ring._mul_cost(la, lb, wa, wb)[1] is expected


def test_dot_kernel_cancellation():
    # sums whose top coefficients cancel need the strip, and sums that
    # vanish mod p but not over Z need the reduction
    rng = random.Random(1212)
    n = ring._KRONECKER_MIN_LEN
    for mod in (None,) + PRIMES:
        for la, lb in ((1, 1), (1, 5), (3, 4), (n, n), (n + 1, 2 * n), (n - 1, n + 1)):
            a, b = dense_poly(rng, mod, la), dense_poly(rng, mod, lb)
            assert _dot(a, b, -a, b).is_zero
            low = dense_poly(rng, mod, lb - 1) if lb > 1 else Poly.zero(mod)
            c = -b + low  # same leading coefficient as -b, lower terms differ
            assert _dot(a, b, a, c) == _dot_oracle(a, b, a, c) == a * low
            # a bound on the result's length cuts both products to it
            assert _dot(a, b, a, c, max(la + lb - 2, 1)) == a * low
    for p in PRIMES:
        one = Poly.one(p)
        assert _dot(one, Poly.constant(p - 1, p), one, one).is_zero
        a = Poly([p - 1] * n, p)
        assert _dot(a, a, a, a) == _dot_oracle(a, a, a, a)


def test_dot_kernel_one_product():
    """When one product has a zero operand only the other is taken: a factor
    1 gives the other factor as it is, and any result is canonical."""
    rng = random.Random(1313)
    x = ring._KRONECKER_MIN_LEN
    for mod in (None,) + PRIMES:
        zero, one = Poly.zero(mod), Poly.one(mod)
        for n in (1, 2, 5, x, 3 * x):
            big = 2**100 if mod is None and n == 5 else 4
            f, g = dense_poly(rng, mod, n, big), dense_poly(rng, mod, n + 1, big)
            for ops, unchanged in (((one, f, zero, g), f), ((f, one, g, zero), f),
                                   ((zero, g, one, g), g), ((g, zero, f, one), f),
                                   ((f, g, zero, zero), None), ((zero, zero, g, f), None),
                                   ((zero, f, g, zero), None)):
                got = ring._dot(*(e.coeffs for e in ops), mod)
                assert got == _dot_oracle(*ops).coeffs == Poly(got, mod).coeffs, (mod, n)
                if unchanged is not None and n > 1:  # constants take the int path
                    assert got is unchanged.coeffs
        if mod is not None:  # residues whose product is p - 1, not reduced to 0
            f = Poly([mod - 1] * 3, mod)
            assert ring._dot(f.coeffs, f.coeffs, (), f.coeffs, mod) == _dot_oracle(f, f, zero, f).coeffs


def test_dot_kernel_scalar_pairs():
    """scalar * f + scalar * g, with the scalar in any of the four operand
    positions, against the schoolbook oracle: negative and wide
    coefficients over Z, residues near 2**64, a zero scalar or an empty
    polynomial next to the one-pass branch, and sums whose top
    coefficients cancel."""
    rng = random.Random(1515)
    n = ring._KRONECKER_MIN_LEN
    for mod in (None,) + PRIMES:
        zero = Poly.zero(mod)
        minus_one = Poly.constant(-1, mod)
        for lf, lg in ((1, 1), (2, 1), (1, 5), (5, 5), (7, 3), (0, 4), (4, 0), (n + 1, 2 * n)):
            f, g = dense_poly(rng, mod, lf, 2**70), dense_poly(rng, mod, lg, 2**70)
            scalars = [dense_poly(rng, mod, 1, 2**70), dense_poly(rng, mod, 1), minus_one, zero]
            for s, r in itertools.product(scalars, repeat=2):
                for ops in ((s, f, r, g), (s, f, g, r), (f, s, r, g), (f, s, g, r)):
                    assert _dot(*ops) == _dot_oracle(*ops), (mod, lf, lg)
        for lf in (1, 2, 5, n + 1):
            f = dense_poly(rng, mod, lf, 2**70)
            low = dense_poly(rng, mod, lf - 1, 2**70)
            g = f + low  # f - g = -low: the top coefficients cancel
            one = Poly.one(mod)
            for ops in ((one, f, minus_one, g), (f, one, g, minus_one)):
                assert _dot(*ops) == _dot_oracle(*ops) == -low, (mod, lf)


def test_packed_dot_tight_width():
    """Over F_p, where each product alone fits a narrower slot than the sum
    of the two, the packed sum takes its width from both bounds: every
    coefficient p - 1, with and without a length bound n."""
    for p in (2, 3, 7, 2**31 - 1, 2**64 - 59):
        bound = (p - 1) ** 2
        length = next(n for n in itertools.count(ring._KRONECKER_MIN_LEN)
                      if ring._slot_width(2 * n * bound) > ring._slot_width(n * bound))
        assert length < 1000, p
        f, g = Poly([p - 1] * length, p), Poly([p - 1] * (length + 3), p)
        for ops in ((f, f, f, f), (f, g, g, f), (g, f, f, g)):
            full = _dot_oracle(*ops)
            assert _dot(*ops) == full, (p, length)
            for n in (len(full.coeffs), length, length - 1):
                assert _dot(*ops, n) == Poly(full.coeffs[:n], p), (p, length, n)


def test_packed_dot_factor_one_in_each_position():
    """x + u*v over F_p with the factor (1,) in each of the four operand
    positions, every coefficient p - 1, with and without a length bound n;
    at p = 2 and 255 coefficients the product alone fits one-byte slots and
    the sum does not.  The factor is recognized by value, not identity."""
    for p in PRIMES:
        x = ring._KRONECKER_MIN_LEN
        for lf, lg in ((x, x), (3 * x, x + 1), (x + 2, 5 * x)) + (((255, 255), (300, 255)) if p == 2 else ()):
            one = Poly([1], p)  # its (1,) is built anew, not ring's constant
            f, g, h = Poly([p - 1] * lf, p), Poly([p - 1] * lg, p), Poly([p - 1] * (lg + 1), p)
            for ops in ((one, f, g, h), (f, one, g, h), (g, h, one, f), (g, h, f, one)):
                full = _dot_oracle(*ops)
                assert _dot(*ops) == full, (p, lf, lg)
                for n in (len(full.coeffs), lg):
                    assert _dot(*ops, n) == Poly(full.coeffs[:n], p), (p, lf, lg, n)


def test_dot_takes_the_packed_sum_where_both_products_qualify(monkeypatch):
    """Over F_p, _dot sums packed exactly when each product has a shorter
    operand of at least _KRONECKER_MIN_LEN coefficients or the factor (1,),
    recognized by value; over Z, and with a short product, it does not."""
    calls = []
    packed = ring._packed_dot
    monkeypatch.setattr(ring, "_packed_dot", lambda *args: calls.append(args) or packed(*args))
    x, p = ring._KRONECKER_MIN_LEN, 101
    long, short, one = (1,) * x, (1,) * (x - 1), tuple([1])
    for ops, expected in (((long, long, long, long), True), ((one, long, long, long), True),
                          ((long, long, long, one), True), ((short, long, long, long), False),
                          ((long, long, long, short), False), ((one, short, long, short), False)):
        for mod in (p, None):
            calls.clear()
            ring._dot(*ops, mod)
            assert bool(calls) is (expected and mod is not None), (ops, mod)


@st.composite
def _dot_operands(draw):
    mod = draw(st.sampled_from((None,) + PRIMES))
    coeff = st.integers(-(2**100), 2**100) | st.integers(-4, 4) if mod is None else st.integers(0, mod - 1)
    size = st.integers(0, 2) | st.integers(ring._KRONECKER_MIN_LEN - 1, ring._KRONECKER_MIN_LEN + 1) | st.integers(0, 60)
    return [Poly(draw(st.lists(coeff, min_size=n, max_size=n)), mod) for n in draw(st.lists(size, min_size=4, max_size=4))]


@settings(max_examples=80, deadline=None)
@given(_dot_operands())
def test_dot_kernel_property(ops):
    full = _dot(*ops)
    assert full == _dot_oracle(*ops)
    assert _dot(*ops, max(len(full.coeffs), 1)) == full


@pytest.mark.parametrize("mod", (None, 2, 3, 101, 2**64 - 59))
def test_dot_kernel_on_constants(monkeypatch, mod):
    """``_dot`` on every assignment to x, y, u and v of (), (1,), a unit
    other than 1 and a constant that is neither, as far as the ring ``mod``
    has them (over Z -1 and 2**64 + 3, over F_p p - 1 and p // 2): the
    canonical tuple of the schoolbook x*y + u*v, and inside ``_metered`` a
    product of constants is free."""
    consts = (1, -1, 2**64 + 3) if mod is None else (1, mod - 1, mod // 2)
    values = list(dict.fromkeys([()] + [Poly([c], mod).coeffs for c in consts]))
    charges = record_charges(monkeypatch)
    for x, y, u, v in itertools.product(values, repeat=4):
        got, work = ring._metered("test", lambda: (ring._dot(x, y, u, v, mod), ring._METER.get()[0]))
        want = _dot_oracle(*(Poly(e, mod) for e in (x, y, u, v)))
        assert type(got) is tuple and got == want.coeffs, (x, y, u, v)
        assert work == 0 and not any(charges), (x, y, u, v)


@st.composite
def _accumulated_dots(draw):
    """Operands of _dot's last branch, where the second product is added
    into the first one's list: a factor (1,) in any of the four positions,
    a product on Kronecker beside one on the schoolbook loop, or two on the
    loop; either product the longer; and a bound n below, between or above
    the two product lengths, or none.  Over F_p a product beside a factor
    (1,) or a Kronecker product has a short operand, or the sum would be
    packed."""
    mod = draw(st.sampled_from((None,) + PRIMES))
    coeff = st.integers(-(2**100), 2**100) | st.integers(-4, 4) if mod is None else st.integers(0, mod - 1)

    def poly(lo, hi):
        length = draw(st.integers(lo, hi))
        cs = draw(st.lists(coeff, min_size=length - 1, max_size=length - 1))
        return Poly(cs + [draw(coeff.filter(bool))], mod).coeffs

    x = ring._KRONECKER_MIN_LEN
    shape = draw(st.sampled_from(("factor one", "kronecker", "schoolbook")))
    short = (poly(2, x - 1), poly(2, 3 * x))
    if shape == "factor one":
        first = ((1,), poly(1, 3 * x))
    elif shape == "kronecker":
        first = (poly(x, 3 * x), poly(x, 3 * x))
    else:
        first = (poly(2, x - 1), poly(2, x - 1))
    first, second = (pair[::-1] if draw(st.booleans()) else pair for pair in (first, short))
    ops = first + second if draw(st.booleans()) else second + first
    lengths = sorted(len(f) + len(g) - 1 for f, g in (ops[:2], ops[2:]))
    n = draw(st.none() | st.integers(1, lengths[0]) | st.integers(*lengths) | st.integers(lengths[1], lengths[1] + 3))
    return shape, [Poly._canon(e, mod) for e in ops], n


@settings(max_examples=200, deadline=None)
@given(_accumulated_dots())
def test_dot_accumulates_the_second_product_into_the_first(case):
    """x*y + u*v from one raw product added into the other's list, cut to
    n coefficients when n is given, equals the schoolbook oracle's low n
    coefficients, over Z and over F_p; the product with a factor (1,) is
    the copy that starts the sum.  _raw_mul itself accumulates in either
    order, also the one _dot does not use."""
    shape, ops, n = case
    calls = []
    raw_mul, kronecker = ring._raw_mul, ring._kronecker
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring, "_raw_mul", lambda *args: calls.append(args) or raw_mul(*args))
        patch.setattr(ring, "_kronecker", lambda *args: calls.append("kronecker") or kronecker(*args))
        got = _dot(*ops, n)
    full = _dot_oracle(*ops)
    low = full if n is None else Poly(full.coeffs[:n], full.mod)
    assert got == low
    first, second = (args for args in calls if args != "kronecker")
    assert len(first) == 4 and len(second) == 5  # the second gets an accumulator
    assert ((1,) in first[:2]) is (shape == "factor one")
    # a cut below _KRONECKER_MIN_LEN leaves the long product to the loop
    assert ("kronecker" in calls) is (shape == "kronecker" and (n is None or n >= ring._KRONECKER_MIN_LEN))
    x, y, u, v = (e.coeffs for e in ops)
    mod = full.mod
    for f, g, h, k in ((x, y, u, v), (u, v, x, y)):
        cs = raw_mul(h, k, mod, n, raw_mul(f, g, mod, n))
        assert Poly(cs, mod) == low


def test_divmod_kernel_both_sides_of_crossover():
    rng = random.Random(909)
    x = ring._NEWTON_MIN_LEN
    for p in PRIMES:
        # (divisor length, quotient length): long division below the
        # crossover in either length, Newton inversion at and above it
        for lb, lq in ((x - 1, x + 40), (x + 40, x - 1), (x, x), (x + 1, x + 1), (3 * x, 2 * x + 3), (x + 3, 4 * x)):
            for _ in range(2):
                b = dense_poly(rng, p, lb)
                a = dense_poly(rng, p, lb + lq - 1)
                if rng.random() < 0.5:
                    a = a + dense_poly(rng, p, rng.randrange(1, lb))  # nonzero remainder
                q, r = divmod(a, b)
                assert (q, r) == schoolbook_divmod(a, b)
                assert q * b + r == a
                assert r.is_zero or r.degree < b.degree
                assert q.degree == a.degree - b.degree


@st.composite
def _divmod_operands(draw):
    """A dividend and a nonzero divisor over F_p, with divisor and quotient
    lengths on both sides of the Newton crossover."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, p - 1)
    x = ring._NEWTON_MIN_LEN
    lb = draw(st.integers(1, 8) | st.integers(x - 2, x + 2))
    la = lb - 1 + draw(st.integers(0, 8) | st.integers(x - 2, x + 2))
    b = draw(st.lists(coeff, min_size=lb - 1, max_size=lb - 1)) + [draw(st.integers(1, p - 1))]
    return Poly(draw(st.lists(coeff, min_size=la, max_size=la)), p), Poly(b, p)


@settings(max_examples=80, deadline=None)
@given(_divmod_operands())
def test_divmod_kernel_property(pair):
    a, b = pair
    assert divmod(a, b) == schoolbook_divmod(a, b)


# One prime per slot width of the packed Newton division, whose width comes
# from max(k, db) * (p - 1)**2: 1-byte slots (p = 2, and p = 3 below 64
# coefficients), 2-byte (p = 3 from 64, p = 7), 4-byte (p = 101), 8-byte
# (p = 65537), and the to_bytes slots of 9 and 17 bytes (2**31 - 1, 2**64 - 59).
NEWTON_PRIMES = PRIMES + (65537,)


def _tight_divisor(p, lb):
    """A divisor of lb coefficients with rev(b) = -1 + t, so that rev(b)^-1
    = -(1 + t + t^2 + ...) has every coefficient p - 1: the quotient's
    packed product then sums k products (p - 1)**2 in its top slot."""
    return Poly([0] * (lb - 2) + [1, p - 1], p)


def _newton_shapes(rng, p, lb, lq):
    """Dividend and divisor pairs of lb + lq - 1 and lb coefficients: every
    coefficient p - 1 (top), the tight divisor under a top dividend, and
    random."""
    la = lb + lq - 1
    top = Poly([p - 1] * la, p)
    return ((top, Poly([p - 1] * lb, p)), (top, _tight_divisor(p, lb)),
            (dense_poly(rng, p, la), dense_poly(rng, p, lb)))


def test_newton_division_every_slot_width():
    """The packed Newton division against long division in every slot
    width it picks, with every coefficient p - 1 or the quotient's product
    at its bound, and the divisor longer, as long as, or shorter than the
    quotient."""
    rng = random.Random(919)
    x = ring._NEWTON_MIN_LEN
    widths = set()
    slot_width = ring._slot_width
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring, "_slot_width", lambda *args: widths.add(slot_width(*args)) or slot_width(*args))
        for p in NEWTON_PRIMES:
            for lb, lq in ((x, x), (x, 2 * x + 5), (2 * x + 5, x), (x + 1, 70), (70, x + 1)):
                for a, b in _newton_shapes(rng, p, lb, lq):
                    q, r = divmod(a, b)
                    assert (q, r) == schoolbook_divmod(a, b), (p, lb, lq)
    assert widths == {1, 2, 4, 8, 9, 17}


# Where the Newton division's precision chains (h = ceil(k/2), ceil(h/2),
# ...) change shape: a quotient or divisor length one below, at and one
# above 2**j.
CHAIN_EDGES = tuple(2**j + d for j in (6, 7, 8) for d in (-1, 0, 1))


def test_newton_division_at_the_chain_edges():
    """The Newton division against long division with the quotient or the
    divisor at a chain edge, against an odd quotient or divisor length, in
    every shape and every slot width."""
    rng = random.Random(929)
    x = ring._NEWTON_MIN_LEN
    for p in NEWTON_PRIMES:
        for edge in CHAIN_EDGES:
            for lb, lq in ((edge, edge), (x + 1, edge), (edge, x + 3)):
                for a, b in _newton_shapes(rng, p, lb, lq):
                    assert divmod(a, b) == schoolbook_divmod(a, b), (p, lb, lq)


@st.composite
def _newton_operands(draw):
    """A dividend and divisor over F_p of every slot width, with divisor and
    quotient lengths on both sides of _NEWTON_MIN_LEN, at the chain edges
    or odd, and either one the longer, and optionally every coefficient p -
    1 or the tight divisor."""
    p = draw(st.sampled_from(NEWTON_PRIMES))
    x = ring._NEWTON_MIN_LEN
    size = (st.integers(x - 2, x + 2) | st.integers(1, 3 * x) | st.sampled_from(CHAIN_EDGES)
            | st.integers(x // 2, 2 * x).map(lambda n: 2 * n + 1))
    lb, lq = draw(size.filter(lambda n: n >= 2)), draw(size)
    shape = draw(st.sampled_from(("random", "top", "tight")))
    if shape == "random":
        coeff = st.integers(0, p - 1)
        b = Poly(draw(st.lists(coeff, min_size=lb - 1, max_size=lb - 1)) + [draw(st.integers(1, p - 1))], p)
        a = Poly(draw(st.lists(coeff, min_size=lb + lq - 1, max_size=lb + lq - 1)), p)
    else:
        b = Poly([p - 1] * lb, p) if shape == "top" else _tight_divisor(p, lb)
        a = Poly([p - 1] * (lb + lq - 1), p)
    return a, b


@settings(max_examples=150, deadline=None)
@given(_newton_operands())
def test_newton_division_property(pair):
    a, b = pair
    assert divmod(a, b) == schoolbook_divmod(a, b)


def test_mul_and_divmod_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(1010)

    def as_sympy(f):
        return sympy.Poly(list(reversed(f.coeffs)) or [0], t, modulus=f.mod)

    def from_sympy(g, p):
        return Poly([int(c) for c in reversed(g.all_coeffs())], p)

    for p in (3, 7, 101, 2**31 - 1):
        for la, lb in ((20, 20), (150, 90), (300, 70)):
            a, b = dense_poly(rng, p, la), dense_poly(rng, p, lb)
            assert a * b == from_sympy(as_sympy(a) * as_sympy(b), p)
            q, r = divmod(a, b)
            sq, sr = sympy.div(as_sympy(a), as_sympy(b))
            assert (q, r) == (from_sympy(sq, p), from_sympy(sr, p))


@st.composite
def _poly_pairs(draw):
    mod = draw(st.sampled_from((None,) + PRIMES))
    if mod is None:
        coeff = st.integers(-(2**100), 2**100) | st.integers(-4, 4)
    else:
        coeff = st.integers(0, mod - 1)
    return tuple(Poly(draw(st.lists(coeff, max_size=300)), mod) for _ in range(2))


@settings(max_examples=60, deadline=None)
@given(_poly_pairs())
def test_mul_kernel_equals_schoolbook_property(pair):
    a, b = pair
    assert a * b == schoolbook_mul(a, b)


@st.composite
def _truncated_products(draw):
    """Two nonzero canonical operands of one ring, with lengths on both sides
    of _KRONECKER_MIN_LEN, optionally every coefficient at its largest (the
    slot bound), and a cut n from 0 to past the product's length."""
    mod = draw(st.sampled_from((None,) + PRIMES))
    coeff = st.integers(-(2**100), 2**100) | st.integers(-4, 4) if mod is None else st.integers(0, mod - 1)
    x = ring._KRONECKER_MIN_LEN
    size = st.integers(1, 4) | st.integers(x - 2, x + 2) | st.integers(1, 5 * x)
    ops = []
    for length in (draw(size), draw(size)):
        if mod is not None and draw(st.booleans()):
            cs = [mod - 1] * length
        else:
            cs = draw(st.lists(coeff, min_size=length - 1, max_size=length - 1))
            cs.append(draw(coeff.filter(bool)))
        ops.append(Poly(cs, mod))
    a, b = ops
    n = draw(st.integers(0, len(a.coeffs) + len(b.coeffs) + 2))
    return a, b, n


@settings(max_examples=200, deadline=None)
@given(_truncated_products())
def test_truncated_product_equals_schoolbook_slice(case):
    """The truncated raw product, reduced mod p over F_p, and over F_p the
    packed product of _packed_dot cut to n slots, are the low n
    coefficients of the schoolbook product."""
    a, b, n = case
    low = list(schoolbook_mul(a, b).coeffs[:n])
    if a.mod is None:
        assert ring._raw_mul(a.coeffs, b.coeffs, None, n) == low
    else:
        p = a.mod
        assert [c % p for c in ring._raw_mul(a.coeffs, b.coeffs, p, n)] == low
        assert [c % p for c in ring._raw_mul(list(b.coeffs), list(a.coeffs), p, n)] == low
        assert ring._packed_dot(a.coeffs, b.coeffs, (), (), p, n) == Poly(low, p).coeffs


def _slot_values(x, n, w):
    """The n low w-byte slots of x >= 0, read with shifts and masks."""
    return [x >> (8 * w * i) & (1 << 8 * w) - 1 for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(NEWTON_PRIMES),
    st.sampled_from((1, 2, 3, 5, 17, ring._NEWTON_MIN_LEN - 1, ring._NEWTON_MIN_LEN, ring._NEWTON_MIN_LEN + 1))
    | st.integers(1, 4 * ring._NEWTON_MIN_LEN),
    st.integers(1, 4 * ring._NEWTON_MIN_LEN),
    st.randoms(use_true_random=False),
)
def test_series_inverse_property(p, k, length, rnd):
    """_series_inverse(f, k, p, w) is k reduced coefficients in w-byte slots
    and times f is 1 mod t^k, also for f shorter than k, as when a divisor
    is shorter than its quotient."""
    f = [rnd.randrange(1, p)] + [rnd.randrange(p) for _ in range(length - 1)]
    w = ring._slot_width(k * (p - 1) ** 2)
    packed = ring._series_inverse(f, k, p, w)
    assert 0 <= packed < 2 ** (8 * w * k)
    g = _slot_values(packed, k, w)
    assert all(0 <= c < p for c in g)
    product = schoolbook_mul(Poly(f, p), Poly(g, p)).coeffs
    assert list(product[:k]) + [0] * (k - len(product)) == [1] + [0] * (k - 1)


def _schoolbook_inverse(f, k, p):
    """The k coefficients of f^-1 mod (p, t^k), one per step of the
    recurrence g_i = -g_0 * (f_1 g_(i-1) + ... + f_i g_0)."""
    g0 = pow(f[0], -1, p)
    g = [g0]
    for i in range(1, k):
        g.append(-g0 * sum(f[j] * g[i - j] for j in range(1, min(i, len(f) - 1) + 1)) % p)
    return g


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_series_inverse_every_precision(p):
    """_series_inverse(f, k, p, w) for every k from 1 to 300: the k
    coefficients of f^-1, the prefix of the schoolbook inverse, in the
    w-byte slots of k*(p - 1)**2."""
    rng = random.Random(p)
    f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(299)]
    inverse = _schoolbook_inverse(f, 300, p)
    for k in range(1, 301):
        w = ring._slot_width(k * (p - 1) ** 2)
        assert _slot_values(ring._series_inverse(f, k, p, w), k + 1, w) == inverse[:k] + [0], k


def test_division_by_a_constant_is_one_scale(monkeypatch):
    """A one-coefficient divisor scales the dividend by its inverse, in one
    ``_scale`` call charged once, as la products at p's width; a constant
    by a constant is free."""
    rng = random.Random(939)
    charges = record_charges(monkeypatch)
    scales, scale = [], ring._scale
    monkeypatch.setattr(ring, "_scale", lambda *args: scales.append(args) or scale(*args))
    for p in (2, 101, 2**64 - 59):
        bits = (p - 1).bit_length()
        for la in (1, 2, 17, 300, 2000):
            a, b = dense_poly(rng, p, la), Poly([rng.randrange(1, p)], p)
            assert divmod(a, b) == schoolbook_divmod(a, b)
            del charges[:], scales[:]
            assert ring._metered("test", lambda: divmod(a, b)) == schoolbook_divmod(a, b)
            assert len(scales) == 1
            assert charges == [ring._mul_cost(la, 1, bits, bits)[0] if la > 1 else 0]


@pytest.mark.parametrize("oracle", [
    test_mul_kernel_around_crossover,
    test_mul_kernel_extreme_coefficients,
    test_divmod_kernel_both_sides_of_crossover,
    test_newton_division_every_slot_width,
    test_newton_division_at_the_chain_edges,
    test_newton_division_property,
    test_dot_kernel_matches_poly_operators,
    test_dot_kernel_cancellation,
    test_packed_dot_tight_width,
    test_packed_dot_factor_one_in_each_position,
    test_dot_kernel_property,
], ids=lambda f: f.__name__)
def test_kernels_without_array_slots(monkeypatch, oracle):
    """With no array type codes, as on a big-endian host, every slot width
    packs and unpacks through int.to_bytes; the multiply, divide and _dot
    oracles hold there too."""
    monkeypatch.setattr(ring, "_ARRAY_SLOTS", {})
    oracle()


def _slot_range(w, signed):
    """The least and the largest int of one w-byte slot, unsigned or signed."""
    return (-(2 ** (8 * w - 1)), 2 ** (8 * w - 1) - 1) if signed else (0, 2 ** (8 * w) - 1)


def _slot_ints(w, signed):
    """Ints of one w-byte slot, often at its extremes."""
    lo, hi = _slot_range(w, signed)
    return st.sampled_from((lo, hi, 0, -1 if signed else 1)) | st.integers(lo, hi)


@st.composite
def _slot_lists(draw):
    """A slot width of every kernel path (array and to_bytes), signedness,
    a list of slot ints, and a slot count at most its length."""
    w, signed = draw(st.sampled_from((1, 2, 4, 8, 9, 17))), draw(st.booleans())
    cs = draw(st.lists(_slot_ints(w, signed), max_size=40))
    return w, signed, cs, draw(st.integers(0, len(cs)))


@settings(max_examples=300, deadline=None)
@given(_slot_lists())
def test_slot_codec_round_trip(case):
    """_pack writes cs into w-byte slots, sum(cs[i] * 2**(8*w*i)), and
    _unpack reads the n low slots back, with array types and without (as on
    a big-endian host)."""
    w, signed, cs, n = case
    for array_slots in (ring._ARRAY_SLOTS, {}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ring, "_ARRAY_SLOTS", array_slots)
            x = ring._pack(cs, w, signed)
            assert x == sum(c << 8 * w * i for i, c in enumerate(cs))
            assert list(ring._unpack(x, w, len(cs), signed)) == cs
            assert list(ring._unpack(x, w, n, signed)) == cs[:n]


def test_slot_codec_extremes():
    """Every slot width and signedness round-trips its extremes, alone and
    side by side, and the empty list, which packs to 0."""
    for w, signed, array_slots in itertools.product((1, 2, 4, 8, 9, 17), (False, True), (ring._ARRAY_SLOTS, {})):
        lo, hi = _slot_range(w, signed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ring, "_ARRAY_SLOTS", array_slots)
            assert ring._pack([], w, signed) == 0 and list(ring._unpack(0, w, 0, signed)) == []
            for cs in ([lo], [hi], [lo, hi, lo], [hi, lo, hi, 0]):
                x = ring._pack(cs, w, signed)
                for n in range(len(cs) + 1):
                    assert list(ring._unpack(x, w, n, signed)) == cs[:n], (w, signed, cs, n)


def test_is_prime():
    assert [n for n in range(2, 32) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(-3, 10**5))
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 .. 23
    for n in (3215031751, 3825123056546413051, 2**31 - 1):
        assert is_prime(n) == trial_division_is_prime(n)
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)


def test_is_prime_large():
    # 2**61 - 1 is a Mersenne prime (the Lucas-Lehmer test, as the oracle);
    # 2**64 - 59 is the largest prime below the bound
    m, s = 2**61 - 1, 4
    for _ in range(61 - 2):
        s = (s * s - 2) % m
    assert s == 0 and is_prime(m)
    assert is_prime(2**64 - 59) and not is_prime(2**64 - 1)
    with pytest.raises(ValueError, match=r"only below 2\*\*64"):
        is_prime(2**64)


# -- the work meter ------------------------------------------------------


def test_meter_total_is_the_sum_of_the_kernel_charges(monkeypatch):
    """Inside ``_metered`` each kernel charges its ``_mul_cost`` units: a
    loop product, a Kronecker product at the widths it reads, a long
    division, a scale at p's width, a one-pass sum whose factors are both 1,
    which is free, and one whose second factor is -1, at p's width; the
    meter's total is their sum."""
    p, bits = 101, 7  # (p - 1).bit_length()
    rng = random.Random(26)
    f, g = dense_poly(rng, p, 30), dense_poly(rng, p, 5)
    wf = max(f.coeffs).bit_length()
    charges = record_charges(monkeypatch)

    def work():
        f * g, f * f, divmod(f, g), -f, f + g, f - g
        return ring._METER.get()[0]

    total = ring._metered("test", work)
    assert charges == [
        ring._mul_cost(30, 5, bits, bits)[0],
        ring._mul_cost(30, 30, wf, wf)[0],
        ring._mul_cost(26 * 4, 1, bits, bits)[0],
        ring._mul_cost(1, 30, bits, bits)[0],
        0,
        ring._mul_cost(1, 5, bits, bits)[0],
    ]
    assert total == sum(charges) > 0
    assert ring._METER.get() is None


def test_library_calls_are_not_metered(monkeypatch):
    """With no meter open a kernel charges nothing, so a library call never
    refuses, whatever the budget."""
    monkeypatch.setattr(ring, "MAX_WORK", 0)
    monkeypatch.setattr(ring, "_charge", lambda work: pytest.fail("charged with no meter open"))
    rng = random.Random(27)
    for p in (None, 3, 2**64 - 59):
        f, g = rand_poly(rng, p, 300), rand_poly(rng, p, 40)
        assert f * g == schoolbook_mul(f, g) and f * f == schoolbook_mul(f, f)
        assert -f + f == Poly.zero(p)
        if p is not None and g:
            assert divmod(f, g) == schoolbook_divmod(f, g)
    assert ring._METER.get() is None


def test_meter_closes_when_the_request_raises():
    """The meter of a refused request is closed, and the next one starts
    from zero."""
    f = Poly(range(1, 100), 7)

    def request():
        f * f
        return ring._METER.get()[0]

    first = ring._metered("word", request)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring, "MAX_WORK", first - 1)
        with pytest.raises(ValueError, match="^word passed the work budget of"):
            ring._metered("word", request)
        assert ring._METER.get() is None
        patch.setattr(ring, "MAX_WORK", first)
        assert ring._metered("word", request) == first
