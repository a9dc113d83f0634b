import random

import pytest
from hypothesis import given, settings, strategies as st

from nagaolab.gl2 import (
    Gen,
    Mat2,
    _mat_mul,
    diag,
    e12,
    e21,
    identity,
    mat_from_json,
    parse_gen,
    parse_matrix,
    w,
)
from nagaolab import ring
from nagaolab.ring import Poly, PolyParseError
from nagaolab.witnesses import make_witness

from helpers import (
    const_mat,
    dense_poly,
    entrywise_det,
    entrywise_mat_mul,
    is_unipotent_up_to_sign,
    rand_poly,
    rand_sl2_const,
)

RINGS = (None, 2, 3, 101, 2**31 - 1)


def test_mul_example():
    assert e12(1) * e21(1) == const_mat(2, 1, 1, 1)


def test_w_squared():
    assert w() * w() == const_mat(-1, 0, 0, -1)


def test_identity_neutral():
    rng = random.Random(11)
    for _ in range(50):
        m = rand_sl2_const(rng, None)
        assert identity() * m == m
        assert m * identity() == m


def test_mixed_rings_rejected():
    with pytest.raises(ValueError):
        Mat2(Poly.one(), Poly.one(2), Poly.zero(), Poly.one())
    with pytest.raises(ValueError):
        identity(2) * identity(3)


def test_inverse_of_transvection():
    f = Poly.parse("3 + t^2")
    assert e12(f).inv() == e12(-f)
    assert e21(f).inv() == e21(-f)


def test_inverse_of_w():
    assert w().inv() == const_mat(0, 1, -1, 0)


def test_inverse_needs_det_one():
    with pytest.raises(ValueError, match="determinant"):
        const_mat(2, 0, 0, 2).inv()


def test_inverse_two_sided_random():
    rng = random.Random(22)
    for _ in range(100):
        mod = rng.choice([None, 2, 5])
        m = rand_sl2_const(rng, mod)
        assert m * m.inv() == identity(mod)
        assert m.inv() * m == identity(mod)


def test_coset_difference_of_witnesses():
    # g(2,1)^-1 g(2,2) collapses to a single transvection
    g1 = make_witness("g", 2, 1)
    g2 = make_witness("g", 2, 2)
    assert g1.inv() * g2 == e12(Poly.parse("t - t^2"))


def test_det_multiplicative():
    rng = random.Random(33)
    for _ in range(100):
        mod = rng.choice([None, 3])
        m = Mat2(*(rand_poly(rng, mod, 3) for _ in range(4)))
        n = Mat2(*(rand_poly(rng, mod, 3) for _ in range(4)))
        assert (m * n).det() == m.det() * n.det()


def test_det_of_witnesses():
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            assert make_witness("h", p, k).det() == Poly.one()
    assert make_witness("n", 2, 1).det() == Poly.parse("-2*t")
    assert identity().det() == Poly.one()


def test_unipotent_examples():
    assert e12(Poly.monomial(3)).is_unipotent()
    assert not make_witness("g", 2, 1).is_unipotent()
    assert not const_mat(-1, 0, 0, -1).is_unipotent()


def test_unipotent_criteria_agree_random():
    # the method itself raises if trace and square criteria ever disagree
    rng = random.Random(44)
    for _ in range(200):
        mod = rng.choice([None, 2, 3, 5])
        m = rand_sl2_const(rng, mod)
        m.is_unipotent()
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3, 4):
            assert not make_witness("g", p, k).is_unipotent()
            assert make_witness("x", None, k).is_unipotent()


def test_unipotent_criteria_disagreement_raises(monkeypatch):
    """A trace that disagrees with (m - I)^2 == 0 raises rather than guessing."""
    monkeypatch.setattr(Mat2, "trace", lambda self: Poly.zero(self.mod))
    with pytest.raises(RuntimeError, match="^unipotence criteria disagree"):
        e12(Poly.monomial(3)).is_unipotent()


def test_unipotent_needs_det_one():
    with pytest.raises(ValueError):
        make_witness("n", 2, 1).is_unipotent()


def test_unipotent_up_to_sign():
    minus_i = const_mat(-1, 0, 0, -1)
    assert not minus_i.is_unipotent()
    assert is_unipotent_up_to_sign(minus_i)
    assert is_unipotent_up_to_sign(-e12(Poly.monomial(2)))
    assert not is_unipotent_up_to_sign(make_witness("g", 3, 1))


def test_reduce_mod_p_examples():
    h = make_witness("h", 2, 1)
    assert h.reduce_mod_p(2) == Mat2(
        Poly.one(2), Poly.monomial(3, mod=2), Poly.zero(2), Poly.one(2)
    )
    for p in (2, 3, 5):
        g = make_witness("g", p, k := 2)
        x = make_witness("x", None, k)
        assert g.reduce_mod_p(p) == x.reduce_mod_p(p).inv()
    assert identity().reduce_mod_p(7) == identity(7)


def test_reduce_mod_p_is_group_hom():
    rng = random.Random(55)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        m = Mat2(*(rand_poly(rng, None, 3) for _ in range(4)))
        n = Mat2(*(rand_poly(rng, None, 3) for _ in range(4)))
        assert (m * n).reduce_mod_p(p) == m.reduce_mod_p(p) * n.reduce_mod_p(p)


def test_reduce_mod_p_rejects_reduced_input():
    with pytest.raises(ValueError):
        identity(2).reduce_mod_p(2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-(2**70), 2**70), max_size=6), min_size=4, max_size=4),
       st.sampled_from([2, 3, 101]))
def test_reduce_mod_p_matches_constructor(entries, p):
    """Entrywise trusted reduction equals the validating constructor."""
    m = Mat2(*(Poly(cs) for cs in entries)).reduce_mod_p(p)
    assert m == Mat2(*(Poly(cs, p) for cs in entries))
    assert all(e.mod == p and all(0 <= c < p for c in e.coeffs) for e in m.entries())
    assert all(not e.coeffs or e.coeffs[-1] for e in m.entries())


def test_reduce_mod_p_refuses_nonprime():
    for bad in (0, 1, 4, 91):
        with pytest.raises(ValueError, match="prime"):
            w().reduce_mod_p(bad)


@pytest.mark.parametrize("mod", RINGS)
def test_constructors_match_validating_build(mod):
    """identity, e12, e21, diag and w build their entries without the
    validating constructor; the results equal what it builds."""
    def full(a, b, c, d):
        return Mat2(*(x if isinstance(x, Poly) else Poly((x,), mod) for x in (a, b, c, d)))

    f = Poly.parse("2 - t + 5*t^3", mod)
    assert identity(mod) == full(1, 0, 0, 1)
    assert e12(f) == full(1, f, 0, 1)
    assert e21(f) == full(1, 0, f, 1)
    assert e12(7, mod) == full(1, 7, 0, 1)
    assert e21(-3, mod) == full(1, 0, -3, 1)
    assert diag(-1, mod) == full(-1, 0, 0, -1)
    assert w(mod) == full(0, -1, 1, 0)
    if mod is not None and mod > 2:
        assert diag(2, mod) == full(2, 0, 0, pow(2, -1, mod))


def test_constructors_refuse_nonprime():
    """Every standard matrix and every generator refuses a modulus that is
    not a prime with the same ValueError, before any arithmetic mod it."""
    for bad in (4, 0):
        for make in (identity, w, lambda mod: e12(1, mod), lambda mod: e21(1, mod),
                     lambda mod: diag(1, mod), lambda mod: diag(2, mod),
                     lambda mod: Gen("D", 1, mod), lambda mod: Gen("W", None, mod),
                     lambda mod: parse_gen("D(2)", mod)):
            with pytest.raises(ValueError, match=f"^modulus must be a prime, got {bad}$"):
                make(bad)


def test_upper_triangular_closed_under_product():
    rng = random.Random(66)
    for _ in range(100):
        mod = rng.choice([None, 3])
        ms = []
        for _ in range(2):
            u = rng.choice([1, -1]) if mod is None else rng.randrange(1, mod)
            uinv = u if mod is None else pow(u, -1, mod)
            ms.append(
                Mat2(
                    Poly.constant(u, mod),
                    rand_poly(rng, mod, 4),
                    Poly.zero(mod),
                    Poly.constant(uinv, mod),
                )
            )
        assert not (ms[0] * ms[1]).coeffs[2]


def test_diag_requires_unit():
    assert diag(-1) == const_mat(-1, 0, 0, -1)
    assert diag(3, 7) == const_mat(3, 0, 0, 5, 7)
    with pytest.raises(ValueError):
        diag(2)
    with pytest.raises(ValueError):
        diag(0, 5)
    # a unit is an int: not a float, even an integral one, nor a bool
    for u in (2.5, True, 2.0):
        with pytest.raises(ValueError, match=f"^D needs an int, got {u!r}$"):
            diag(u, 5)


def test_generators_have_det_one():
    rng = random.Random(77)
    for _ in range(50):
        mod = rng.choice([None, 2, 5])
        for gen in (
            Gen("E12", rand_poly(rng, mod, 4), mod),
            Gen("E21", rand_poly(rng, mod, 4), mod),
            Gen("W", None, mod),
        ):
            assert gen.matrix().det() == Poly.one(mod)


def test_parse_gen_shorthand():
    assert parse_gen("E12(t^2)").matrix() == e12(Poly.monomial(2))
    assert parse_gen("W", 3).matrix() == w(3)
    assert parse_gen("D(-1)").matrix() == diag(-1)
    assert str(parse_gen("E21( 1 + t )")) == "E21(1 + t)"
    with pytest.raises(PolyParseError):
        parse_gen("Q(t)")
    with pytest.raises(ValueError):
        parse_gen("D(2)")
    with pytest.raises(PolyParseError, match="W takes no argument") as exc:
        parse_gen("W(1)")
    assert exc.value.position == 1
    with pytest.raises(PolyParseError, match="E12 needs an argument") as exc:
        parse_gen("E12")
    assert exc.value.position == 3
    assert str(Gen("D", 2, 5)) == "D(2)"
    assert parse_gen("D( +2 )", 5).arg == 2 and parse_gen("D(-12)", 5).arg == -12
    for arg in ("x", "", "2.5", "1_0", "٣", "0x2"):
        with pytest.raises(PolyParseError, match="D needs a signed decimal integer") as exc:
            parse_gen(f"D({arg})", 5)
        assert exc.value.position == 2


def test_parse_errors_count_from_the_start_of_the_text():
    """A polynomial entry's error position counts in the whole matrix
    literal or shorthand item, not in the entry."""
    for text, message, position in (("  [[1, t], [0, 1 +]]", "expected a term", 18),
                                    ("[[1, 2*t + \u0663], [0, 1]]", "unexpected character '\u0663'", 11),
                                    ("[[1, t^], [0, 1]]", "expected exponent", 7),
                                    ("E12(t + x)", "unexpected character 'x'", 8),
                                    (" E21( 3*)", "expected 't', found 'end'", 8)):
        with pytest.raises(PolyParseError) as exc:
            parse_matrix(text, 5)
        assert str(exc.value) == f"{message} (at position {position})", text
        assert exc.value.position == position


def test_gen_validation():
    with pytest.raises(ValueError, match="E12 needs a Poly over the same ring"):
        Gen("E12", Poly.parse("t", 3), 5)
    with pytest.raises(ValueError, match="E21 needs a Poly"):
        Gen("E21", 1, None)
    with pytest.raises(ValueError, match="W takes no argument"):
        Gen("W", Poly.one(), None)
    with pytest.raises(ValueError, match="unknown generator kind 'E13'"):
        Gen("E13", None, None)


def test_parse_matrix_text():
    m = parse_matrix("[[1 + t^2, t],[t, 1]]", 5)
    assert m == Mat2(
        Poly.parse("1 + t^2", 5),
        Poly.parse("t", 5),
        Poly.parse("t", 5),
        Poly.one(5),
    )
    assert parse_matrix("W") == w()
    with pytest.raises(PolyParseError):
        parse_matrix("[[1, 2],[3]]")


def test_matrix_json_roundtrip():
    m = make_witness("h", 3, 2)
    assert mat_from_json(m.to_json()) == m
    mp = m.reduce_mod_p(3)
    assert mat_from_json(mp.to_json()) == mp


# -- the fused product kernel against the entrywise Poly formula ----------


def _shaped(rng, mod, shape, n, big):
    """A matrix of the given shape whose nonconstant entries have n
    coefficients."""
    const = [dense_poly(rng, mod, 1, big) for _ in range(4)]
    if shape == "constant":
        return Mat2(*const)
    if shape == "upper":
        return Mat2(const[0], dense_poly(rng, mod, n, big), Poly.zero(mod), const[3])
    if shape == "lower":
        return Mat2(const[0], Poly.zero(mod), dense_poly(rng, mod, n, big), const[3])
    if shape == "zeros":
        entries = [dense_poly(rng, mod, n, big), dense_poly(rng, mod, n, big), Poly.zero(mod), Poly.zero(mod)]
        rng.shuffle(entries)
        return Mat2(*entries)
    if shape == "exact":
        return Mat2(*(dense_poly(rng, mod, n, big) for _ in range(4)))
    return Mat2(*(dense_poly(rng, mod, rng.randint(0, n), big) for _ in range(4)))


SHAPES = ("constant", "upper", "lower", "zeros", "exact", "general")


def test_mat_mul_and_det_match_entrywise_oracle():
    rng = random.Random(88)
    x = ring._KRONECKER_MIN_LEN
    for mod in RINGS:
        for big in ((4, 2**100) if mod is None else (0,)):
            for n in (1, 2, x - 1, x, x + 1):
                for s1 in SHAPES:
                    for s2 in SHAPES:
                        m, k = _shaped(rng, mod, s1, n, big), _shaped(rng, mod, s2, n, big)
                        assert m * k == entrywise_mat_mul(m, k), (mod, big, n, s1, s2)
                    assert m.det() == entrywise_det(m), (mod, big, n, s1)


def test_quadruple_kernel_matches_entrywise_oracle():
    """gl2._mat_mul on coefficient quadruples returns the canonical tuples of
    the entrywise Poly product, over Z and at small and 64-bit primes, with
    entries on both sides of the Kronecker threshold."""
    rng = random.Random(89)
    x = ring._KRONECKER_MIN_LEN
    for mod in (None, 3, 101, 2**64 - 59):
        for big in ((4, 2**100) if mod is None else (0,)):
            for n in (1, 2, x - 1, x, x + 1, 3 * x):
                for s1 in SHAPES:
                    for s2 in SHAPES:
                        m, k = _shaped(rng, mod, s1, n, big), _shaped(rng, mod, s2, n, big)
                        got = _mat_mul(m.coeffs, k.coeffs, mod)
                        assert got == entrywise_mat_mul(m, k).coeffs, (mod, big, n, s1, s2)


@pytest.mark.parametrize("mod", (None, 5))
def test_gen_matrices_are_the_literal_matrices(mod):
    """Gen._coeffs spells out each generator's matrix; Gen.matrix() and the
    builders equal the literal matrix, read by the validating parser."""
    f = "2 - t + 3*t^4"
    u, literal_d = (-1, "[[-1, 0], [0, -1]]") if mod is None else (7, "[[2, 0], [0, 3]]")
    for gen, built, literal in [
        (Gen("E12", Poly.parse(f, mod), mod), e12(Poly.parse(f, mod)), f"[[1, {f}], [0, 1]]"),
        (Gen("E21", Poly.parse(f, mod), mod), e21(Poly.parse(f, mod)), f"[[1, 0], [{f}, 1]]"),
        (Gen("D", u, mod), diag(u, mod), literal_d),
        (Gen("W", None, mod), w(mod), "[[0, -1], [1, 0]]"),
    ]:
        want = parse_matrix(literal, mod)
        assert gen.matrix() == built == want, (gen, mod)
        assert gen._coeffs() == want.coeffs, (gen, mod)


def test_kernel_results_are_plain_matrices():
    rng = random.Random(99)
    for mod in RINGS:
        m, k = _shaped(rng, mod, "general", 20, 2**100), _shaped(rng, mod, "upper", 5, 4)
        for got, want in ((m * k, entrywise_mat_mul(m, k)), (-m, Mat2(*(-e for e in m.entries()))),
                          (m - k, Mat2(*(a - b for a, b in zip(m.entries(), k.entries()))))):
            assert got == want and hash(got) == hash(want)
            assert all(type(e) is Poly and e.mod == mod for e in got.entries())
            assert got.to_json() == want.to_json() and str(got) == str(want)
        assert m.det() == entrywise_det(m) and hash(m.det()) == hash(entrywise_det(m))
    # the public constructor still checks the ring of kernel results
    product = identity(3) * w(3)
    with pytest.raises(ValueError, match="mismatched coefficient rings"):
        Mat2(product.a, product.b, product.c, Poly.one(5))


@pytest.mark.parametrize("mod", (None, 2, 5))
def test_mat2_is_its_coefficient_quadruple(mod):
    """A Mat2 holds the coefficient tuples of its entries: the entry views
    give back the polynomials it was built from, == and hash agree with
    entrywise equality, _of_coeffs of a list builds what the tuple builds,
    and the fields cannot be assigned."""
    rng = random.Random(17)
    for _ in range(200):
        entries = [rand_poly(rng, mod, 1) for _ in range(4)]
        m = Mat2(*entries)
        assert m.coeffs == tuple(e.coeffs for e in entries) and m.mod == mod
        assert (m.a, m.b, m.c, m.d) == m.entries() == tuple(entries)
        other = list(entries)
        other[rng.randrange(4)] = rand_poly(rng, mod, 1)
        k = Mat2(*other)
        assert (m == k) == (m.entries() == k.entries())
        assert m != Mat2(*(Poly(e.coeffs, 3 if mod is None else None) for e in entries))
        if m == k:
            assert hash(m) == hash(k)
        listed, tupled = Mat2._of_coeffs(list(m.coeffs), mod), Mat2._of_coeffs(m.coeffs, mod)
        assert listed == tupled == m and hash(listed) == hash(tupled) == hash(m)
    with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
        m.coeffs = k.coeffs


def test_inverse_refuses_every_det_other_than_one():
    for m in (const_mat(0, 1, 1, 0), const_mat(1, 0, 0, 0), const_mat(2, 1, 1, 2),
              Mat2(Poly.one(), Poly.parse("t"), Poly.parse("-1"), Poly.one()),
              const_mat(1, 1, 0, 2, 3)):
        assert m.det().coeffs != (1,)
        with pytest.raises(ValueError, match="determinant"):
            m.inv()
    m = e12(Poly.parse("1 + 4*t^20", 5)) * e21(Poly.parse("3*t", 5))
    assert m.inv() == Mat2(m.d, -m.b, -m.c, m.a)


@st.composite
def _mat_pairs(draw):
    mod = draw(st.sampled_from(RINGS))
    coeff = st.integers(-(2**100), 2**100) | st.integers(-4, 4) if mod is None else st.integers(0, mod - 1)
    size = st.integers(0, 2) | st.integers(ring._KRONECKER_MIN_LEN - 1, ring._KRONECKER_MIN_LEN + 1) | st.integers(0, 40)

    def entry():
        n = draw(size)
        return Poly(draw(st.lists(coeff, min_size=n, max_size=n)), mod)

    return tuple(Mat2(entry(), entry(), entry(), entry()) for _ in range(2))


@settings(max_examples=80, deadline=None)
@given(_mat_pairs())
def test_mat_mul_and_det_property(pair):
    m, k = pair
    assert m * k == entrywise_mat_mul(m, k)
    assert m.det() == entrywise_det(m)


_HUGE = 10**5000  # 5 001 digits, more than CPython converts to text by default


@pytest.mark.parametrize("build, check", [
    (lambda: diag(_HUGE), "<an integer of 16610 bits> is not a unit of Z"),
    (lambda: diag(-3 * _HUGE, 3), "<an integer of 16612 bits> is not a unit mod 3"),
    (lambda: Gen("D", _HUGE, None), "<an integer of 16610 bits> is not a unit of Z"),
    (lambda: Poly.monomial(_HUGE), "exponent <an integer of 16610 bits> exceeds the degree cap 10000"),
    (lambda: Poly.from_json({"coeffs": {"a": _HUGE}}),
     "polynomial field 'coeffs' must be a list, got <a dict holding an integer of more than 4300 digits>"),
], ids=["diag-z", "diag-mod-3", "gen-d", "monomial", "json-container"])
def test_huge_ints_are_quoted_by_size(build, check):
    """An int with more digits than CPython converts to text is quoted by
    its bit length, and a container holding one by its type, so the message
    names the check."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == check
