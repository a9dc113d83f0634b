import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from nagaolab.gl2 import (
    _ONE,
    Gen,
    Mat2,
    _mat_mul,
    _mat_prod,
    diag,
    e12,
    e21,
    identity,
    mat_from_json,
    parse_gen,
    parse_matrix,
    w,
)
from nagaolab import gl2, ring
from nagaolab.cli import main
from nagaolab.ring import Poly, PolyParseError
from nagaolab.witnesses import make_witness

import test_ring
from helpers import (
    const_mat,
    dense_poly,
    entrywise_det,
    entrywise_mat_mul,
    is_unipotent_up_to_sign,
    mutants,
    mutate,
    one_off,
    rand_const_gen,
    rand_poly,
    rand_sl2_const,
    record_charges,
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


def test_word_product_is_exact_to_one_generator(monkeypatch):
    """gl2._mat_prod, the product of the factorization's round trip and of
    nf_evaluate, is the entrywise product of the word, and a word one
    generator off (E12(f + 1), E21(f + 1), D(-u) or a dropped W) never
    multiplies to the same matrix: over Z and over F_p, on both paths, the
    packed product (short entries, at p = 5 over F_p) and the fold (an entry
    of 16 coefficients, or p = 2**64 - 59)."""
    packed, packed_prod = [], gl2._packed_prod
    monkeypatch.setattr(gl2, "_packed_prod", lambda quads, p: packed.append(p) or packed_prod(quads, p))
    rng = random.Random(2010)
    words = [([rand_const_gen(rng, None) for _ in range(rng.randint(1, 4))], None) for _ in range(30)]
    long_f = " + ".join(f"t^{k}" for k in range(ring._KRONECKER_MIN_LEN))
    for mod, f in ((None, "t^2 + 1"), (None, long_f), (5, "t^2 + 1"), (5, long_f), (2**64 - 59, "t^2 + 1")):
        t = Poly.parse("t", mod)
        words.append(([Gen("E21", t, mod), Gen("D", -1, mod), Gen("E12", Poly.parse(f, mod), mod),
                       Gen("W", None, mod)], mod))
    altered = set()
    for gens, mod in words:
        del packed[:]
        x = _mat_prod([g._coeffs() for g in gens], mod)
        path = ("Z" if mod is None else "F_p", "packed" if packed else "fold")
        short = max(len(e) for g in gens for e in g._coeffs()) < ring._KRONECKER_MIN_LEN
        assert bool(packed) == (short and mod != 2**64 - 59)
        m = identity(mod)
        for g in gens:
            m = entrywise_mat_mul(m, g.matrix())
        assert x == m.coeffs
        for i, g in enumerate(gens):
            assert _mat_prod([h._coeffs() for h in gens[:i] + one_off(g) + gens[i + 1 :]], mod) != x
            altered.add((g.kind, *path))
    assert altered == {(kind, ring_, path) for kind in ("E12", "E21", "D", "W")
                       for ring_ in ("Z", "F_p") for path in ("packed", "fold")}


def _fold(quads, mod):
    """The left fold of _mat_mul, the path of _mat_prod for long entries or
    large primes, and over Z for the rest of a word whose coefficients pass
    2**63."""
    x = identity(mod).coeffs
    for y in quads:
        x = _mat_mul(x, y, mod)
    return x


def _entrywise_prod(quads, mod):
    m = identity(mod)
    for y in quads:
        m = entrywise_mat_mul(m, Mat2(*(Poly(e, mod) for e in y)))
    return m.coeffs


@st.composite
def _words(draw):
    """A prime p, a length n, whether _mat_prod packs such words, and a word
    over F_p of E12, E21, D, W and arbitrary letters ("M") whose entries
    have at most n coefficients, often all p - 1 (so that the slot bounds
    are reached).  (p, n) lies on both sides of the packed product's limits:
    15 and 16 coefficients; 2 and 3 at p = 2**31 - 1; and 1 at p = 2**32 -
    5, where (p - 1)**2 < 2**64 <= 2*(p - 1)**2.  The first letter is E12
    with an entry of exactly n coefficients.  The word may be empty, and a
    short one may be repeated 20 times, which forces reductions."""
    p, n, packed = draw(st.sampled_from([(p, n, n < 16) for p in (2, 3, 7, 101) for n in (1, 2, 4, 15, 16)]
                                        + [(2**31 - 1, 2, True), (2**31 - 1, 3, False), (2**32 - 5, 1, False)]))
    coeff = st.just(p - 1) | st.integers(0, p - 1)

    def entry():
        size = draw(st.integers(0, n))
        return Poly(draw(st.lists(coeff, min_size=size, max_size=size)), p)

    f = Poly(draw(st.lists(coeff, min_size=n - 1, max_size=n - 1)) + [draw(st.integers(1, p - 1))], p)
    word = [Gen("E12", f, p)._coeffs()]
    for kind in draw(st.lists(st.sampled_from(("E12", "E21", "D", "W", "M")), max_size=8)):
        if kind == "M":
            word.append(tuple(entry().coeffs for _ in range(4)))
        else:
            arg = {"D": lambda: draw(st.integers(1, p - 1)), "W": lambda: None}.get(kind, entry)()
            word.append(Gen(kind, arg, p)._coeffs())
    return p, n, packed, word * draw(st.sampled_from((0, 1, 2, 20 if n < 15 else 2)))


@st.composite
def _z_words(draw):
    """None, a length n, whether _mat_prod packs such words, and a word over
    Z of SL2(Z) letters (products of E12(c), E21(c), D(-1) and W), B(Z[t])
    letters [[u, f], [0, u]] with u = 1 or -1, and arbitrary letters ("M"),
    whose entries have at most n coefficients, of either sign: small, up to
    2**40, or near 2**63 (so that the slot bounds pass 2**63, and with a
    coefficient past it the rest of the word is folded).  n lies on both
    sides of _KRONECKER_MIN_LEN.  The first letter is B(Z[t]) with an entry
    of exactly n coefficients.  The word may be empty, and a short one may
    be repeated 20 times, which forces read-backs."""
    n = draw(st.sampled_from((1, 2, 4, 15, 16)))
    coeff = (st.integers(-4, 4) | st.integers(-(2**40), 2**40)
             | st.sampled_from((2**62, -(2**62), 2**63 - 1, -(2**63), 2**63)))

    def entry(size=None):
        size = draw(st.integers(0, n)) if size is None else size
        return Poly(draw(st.lists(coeff, min_size=size, max_size=size)))

    def b_letter(f):
        u = draw(st.sampled_from((1, -1)))
        return ((u,), f.coeffs, (), (u,))

    f = entry(n - 1) + Poly.monomial(n - 1, draw(st.sampled_from((1, -1, 5, -(2**40)))))
    word = [b_letter(f)]
    for kind in draw(st.lists(st.sampled_from(("SL2", "B", "M")), max_size=6)):
        if kind == "SL2":
            m = identity(None)
            for gen in draw(st.lists(st.sampled_from(("E12", "E21", "D", "W")), min_size=1, max_size=3)):
                c = Poly.constant(draw(st.integers(-3, 3)))
                m = m * {"E12": e12(c), "E21": e21(c), "D": diag(-1), "W": w()}[gen]
            word.append(m.coeffs)
        else:
            word.append(b_letter(entry()) if kind == "B" else tuple(entry().coeffs for _ in range(4)))
    return None, n, n < 16, word * draw(st.sampled_from((0, 1, 2, 20 if n < 4 else 2)))


@settings(max_examples=300, deadline=None)
@given(_words() | _z_words())
@example((2**32 - 5, 1, False, [((2**32 - 6,),) * 4] * 3))
@example((2**31 - 1, 3, False, [(_ONE, (1, 2, 3), (), _ONE)] * 3))
@example((101, 16, False, [(_ONE, tuple(range(1, 17)), (), _ONE)] * 3))
@example((None, 2, True, [(_ONE, (1, 1), (), _ONE), ((), (-1,), _ONE, ())] * 200))
@example((None, 1, True, [(_ONE, (2**63,), (), _ONE), ((), (-1,), _ONE, ())] * 3))
@example((None, 15, True, [((-1,), tuple(range(-7, 8)), (), (-1,))] * 3))
@example((None, 16, False, [(_ONE, tuple(range(-8, 8)), (), _ONE)] * 3))
@example((None, 2, True, [(_ONE, (0, 1), (), _ONE), ((),) * 4, ((), (0, 2**63), (), ())]))
def test_packed_word_product_matches_the_fold(p_n_word):
    """Over Z (p None) and F_p, _mat_prod takes the packed product exactly
    when every entry is shorter than _KRONECKER_MIN_LEN and, over F_p,
    2*n*(p - 1)**2 < 2**64, and gives the fold's product, and, on words of
    at most 30 letters, the entrywise one on the schoolbook oracles."""
    p, n, packed, word = p_n_word
    calls, packed_prod = [], gl2._packed_prod
    gl2._packed_prod = lambda quads, mod: calls.append(mod) or packed_prod(quads, mod)
    try:
        got = _mat_prod(word, p)
    finally:
        gl2._packed_prod = packed_prod
    if word:
        assert max(len(e) for y in word for e in y) == n
        assert bool(calls) == packed
    assert got == _fold(word, p)
    if len(word) <= 30:
        assert got == _entrywise_prod(word, p)


def _counted_reductions(monkeypatch):
    """A list that gains an item per read-back of _packed_prod's entries:
    four per read-back before a letter (over F_p a reduction), and four at
    the end unless the rest of the word is folded."""
    reads, unpack = [], gl2._unpack
    monkeypatch.setattr(gl2, "_unpack", lambda x, *args: reads.append(x) or unpack(x, *args))
    return reads


def _counted_folds(monkeypatch):
    """A list that gains an item per fold of a word's rest by _packed_prod,
    or of a whole word by _mat_prod."""
    folds, fold = [], gl2._fold
    monkeypatch.setattr(gl2, "_fold", lambda x, quads, mod: folds.append(x) or fold(x, quads, mod))
    return folds


def _tight_z_words():
    """Words over Z whose slot bounds pass 2**63: M = E12(c*t) E21(c*t) and
    M^-1 alternating, whose product stays small, so that the entries are
    read back and the word stays packed; (E12(1 + t) W)^200 and (E12(-1 +
    t) W)^200, whose coefficients pass 2**63, so that the rest is folded;
    and a first letter with a coefficient of 2**63, folded whole."""
    c = 2**12
    m = ((1, 0, c * c), (0, c), (0, c), _ONE)
    m_inv = (_ONE, (0, -c), (0, -c), (1, 0, c * c))
    grown = [[e12(Poly(f)).coeffs, w().coeffs] * k for f, k in (([1, 1], 200), ([-1, 1], 200), ([2**63], 3))]
    return [[m, m_inv] * 20] + grown


def test_z_word_product_reads_back_and_folds_the_rest(monkeypatch):
    """Over Z the packed product reads its entries back when a slot bound
    would pass 2**63, and keeps going packed when the letter then fits;
    when it does not, the rest of the word is folded from the entries read
    back.  Either way it gives the fold's product."""
    reads, folds = _counted_reductions(monkeypatch), _counted_folds(monkeypatch)
    for word, folded in zip(_tight_z_words(), (False, True, True, True)):
        del reads[:], folds[:]
        got = _mat_prod(word, None)
        assert len(folds) == folded and len(reads) % 4 == 0
        assert len(reads) // 4 >= 1 if folded else len(reads) // 4 - 1 >= 3
        assert got == _fold(word, None)
    assert _mat_prod(_tight_z_words()[0], None) == identity(None).coeffs


def _tight_words(p):
    """Words over F_p whose slot bounds are reached: alternating E12 and E21
    letters of constant p - 1, and of (p - 1)*(1 + t), long enough for at
    least three reductions."""
    letters = {}
    for f in ((p - 1,), (p - 1, p - 1)):
        x = (_ONE, f, (), _ONE), (_ONE, (), f, _ONE)
        letters[len(f)] = list(x) * 150
    return letters.values()


@pytest.mark.parametrize("p", (2, 3, 7, 101, 2**31 - 1))
def test_packed_word_product_through_reductions(monkeypatch, p):
    """Tight words reduce at least three times and multiply out as the fold does."""
    reads = _counted_reductions(monkeypatch)
    for word in _tight_words(p):
        del reads[:]
        assert _mat_prod(word, p) == _fold(word, p)
        assert len(reads) % 4 == 0 and len(reads) // 4 - 1 >= 3


def test_tight_word_products_without_array_slots(monkeypatch):
    """With no array type codes, as on a big-endian host, the packed word
    product packs and reads its slots through int.to_bytes; the tight words
    over F_p and over Z still read back and multiply out as the fold does."""
    monkeypatch.setattr(ring, "_ARRAY_SLOTS", {})
    reads = _counted_reductions(monkeypatch)
    for mod, words in [(p, _tight_words(p)) for p in (2, 3, 7, 101, 2**31 - 1)] + [(None, _tight_z_words())]:
        del reads[:]
        for word in words:
            assert _mat_prod(word, mod) == _fold(word, mod)
        assert reads


def _e2zt_shaped_words(rng):
    """Words over Z in the shape of the benchmark's ``e2zt_words``: 20 to 60
    letters, each at even odds an SL2(Z) letter, the product of one to
    three of E12(c), E21(c), W and D(±1) for |c| <= 3, or a B(Z[t]) letter
    [[u, f], [0, u]] with u = ±1 and one to four coefficients of f in [-4,
    4]; and a word of the single letters D(±1), W, and E12 and E21 of one
    and of two coefficients."""

    def sl2z_letter():
        m = identity(None)
        for _ in range(rng.randint(1, 3)):
            m = m * rng.choice((e12(rng.randint(-3, 3)), e21(rng.randint(-3, 3)), w(None), diag(rng.choice((1, -1)))))
        return m.coeffs

    def bzt_letter():
        u = (rng.choice((1, -1)),)
        return u, Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]).coeffs, (), u

    words = [[sl2z_letter() if rng.random() < 0.5 else bzt_letter() for _ in range(rng.randint(20, 60))]
             for _ in range(12)]
    singles = [diag(1), diag(-1), w(None), e12(-2), e21(3), e12(Poly([1, -2])), e21(Poly([0, 3]))]
    return words + [[rng.choice(singles).coeffs for _ in range(60)]]


@pytest.mark.parametrize("p", (None, 3, 101, 2**31 - 1))
def test_packed_word_product_charges_as_it_runs(monkeypatch, p):
    """Inside a request, the packed product charges ring._charge, before
    each letter, what the fold charges for the same products: over Z and
    over F_p on words of nonconstant E12 and E21 letters, and over Z also on
    words in the shape of ``e2zt_words``; a budget below that total refuses
    it.  Over F_p the other words are left out: between read-backs a packed
    entry holds unreduced coefficients, so it may have more slots than the
    fold's entry has coefficients (t + t at p = 2)."""
    rng = random.Random(p or 0)
    coeff = (lambda lo: rng.choice((-1, 1)) * rng.randrange(lo, 10)) if p is None else (lambda lo: rng.randrange(lo, p))
    words = [[Gen(("E12", "E21")[i % 2], Poly([coeff(0), coeff(1)], p), p)._coeffs() for i in range(60)]]
    if p is None:
        words += _e2zt_shaped_words(rng)
    charges = record_charges(monkeypatch)
    for word in words:
        totals = []
        for product in (_mat_prod, _fold):
            del charges[:]
            assert ring._metered("test", lambda: product(word, p)) == _fold(word, p)
            totals.append(sum(charges))
        assert totals[0] == pytest.approx(totals[1], rel=1e-12) and totals[0] > 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ring, "MAX_WORK", totals[0] // 2)
            with pytest.raises(ValueError, match="^test passed the work budget"):
                ring._metered("test", lambda: _mat_prod(word, p))


def _nf_outputs(capsys, argvs):
    """Each nf request, which must exit 0, with its output."""
    requests = []
    for argv in argvs:
        assert main(argv) == 0
        requests.append((argv, capsys.readouterr().out))
    return requests


def _count_wrong(words, mod):
    """How many words _mat_prod multiplies out otherwise than the fold, or
    not at all: a slot read one short may lose a coefficient, or ask for a
    negative slot count."""
    wrong = 0
    for word in words:
        try:
            wrong += _mat_prod(word, mod) != _fold(word, mod)
        except (OverflowError, ValueError):
            wrong += 1
    return wrong


def _check_nf_outputs(capsys, requests):
    """Each request fails or prints what it printed before the fault."""
    for argv, out in requests:
        try:
            code = main(argv)
        except Exception:  # a fault may end in any exception, so long as nothing is printed
            code = None
        assert (code, capsys.readouterr().out) in ((0, out), (1, ""), (None, ""))


@pytest.mark.parametrize("mutant", mutants("packed"))
def test_a_packed_product_mutant_is_caught(capsys, monkeypatch, mutant):
    """With one fault in _packed_prod, some tight word multiplies out wrong
    or raises; and ``nf`` on a matrix whose Euclid word is tight either
    fails or prints what it prints without the fault, so no wrong normal
    form or matrix line gets out."""
    ms = []
    for p in (3, 7, 101):
        m = identity(p)
        for i in range(40):
            m = entrywise_mat_mul(m, (e12 if i % 2 else e21)(Poly([0, p - 1], p)))
        ms.append(m)
    requests = _nf_outputs(capsys, [["nf", "--mod", str(m.mod), json.dumps(m.to_json())] for m in ms])
    for m, (_, out) in zip(ms, requests):
        assert f"matrix: {m}" in out
    mutate(monkeypatch, mutant)
    assert sum(_count_wrong(_tight_words(p), p) for p in (2, 3, 7, 101))
    _check_nf_outputs(capsys, requests)


# A 40-letter word over Z of short letters, whose product stays packed
_SHORT_Z_WORD = ["E12(1 - 2*t + t^3)", "E21(-2)", "W", "E12(3*t - t^2)", "D(-1)"] * 8


@pytest.mark.parametrize("mutant", mutants("packed_z"))
def test_a_z_packed_product_mutant_is_caught(capsys, monkeypatch, mutant):
    """With one fault in _packed_prod's signed slots, some word over Z whose
    slot bounds pass 2**63, or with negative coefficients, multiplies out
    wrong or raises; and ``nf --ring e2zt`` on a word of short letters,
    which stays packed, and on (E12(1 + t) W)^200, whose product is folded
    from where its coefficients pass 2**63, either fails or prints what it
    prints without the fault, so no wrong matrix line gets out."""
    words = (_SHORT_Z_WORD, ["E12(1 + t)", "W"] * 200)
    folds = _counted_folds(monkeypatch)
    requests = []
    for word, folded in zip(words, (0, 1)):
        del folds[:]
        requests += _nf_outputs(capsys, [["nf", "--ring", "e2zt", json.dumps(word)]])
        assert len(folds) == folded
    mutate(monkeypatch, mutant)
    assert _count_wrong(_tight_z_words(), None)
    _check_nf_outputs(capsys, requests)


@pytest.mark.parametrize("oracle", [
    test_ring.test_mul_kernel_signed_and_huge_coefficients,
    test_ring.test_mul_kernel_extreme_coefficients,
], ids=lambda f: f.__name__)
@pytest.mark.parametrize("mutant", mutants("codec"))
def test_a_codec_mutant_is_caught(monkeypatch, mutant, oracle):
    """With one fault in ring's slot codec, in ring and in gl2, some word
    over Z with negative coefficients multiplies out wrong or raises, and a
    Kronecker test of ring over Z fails."""
    mutate(monkeypatch, mutant)
    assert _count_wrong(_tight_z_words(), None)
    with pytest.raises(AssertionError):
        oracle()


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
