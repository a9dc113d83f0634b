import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nagaolab.amalgam import AmalgamStructure, Letter, NormalForm, _mat
from nagaolab.gl2 import Mat2, _mat_mul, diag, e12, e21, identity, w
from nagaolab.ring import Poly

from helpers import (
    const_mat,
    det_in_base,
    det_in_factor,
    evaluate_word,
    nf_invert,
    rand_b_letter,
    rand_letter,
    rand_sl2_const,
    rand_word,
    word_of,
)


def _nf_mul(s, x, y):
    """The normal form of x * y, by normalizing the concatenated words."""
    return s.normalize(word_of(x) + word_of(y))


def test_same_factor_letters_merge():
    s = AmalgamStructure(3)
    word = [
        Letter(2, e12(Poly.parse("t", 3))),
        Letter(2, e12(Poly.parse("t^2", 3))),
    ]
    nf = s.normalize(word)
    assert nf.head == identity(3)
    assert nf.tags == (2,)
    assert nf.tail[0].mat == e12(Poly.parse("t + t^2", 3))


def test_canceling_pair_collapses():
    s = AmalgamStructure(5)
    word = [Letter(1, w(5)), Letter(1, w(5).inv())]
    nf = s.normalize(word)
    assert nf == NormalForm(identity(5), ())


def test_lower_transvection_three_letters():
    # E21(t) expressed through the factors: W^-1 E12(-t) W
    s = AmalgamStructure(2)
    word = [
        Letter(1, w(2).inv()),
        Letter(2, e12(Poly.parse("-t", 2))),
        Letter(1, w(2)),
    ]
    nf = s.normalize(word)
    assert nf.length == 3
    assert nf.tags == (1, 2, 1)
    assert s.nf_evaluate(nf) == e21(Poly.parse("t", 2))


def test_nf_evaluate_refuses_mixed_moduli():
    s = AmalgamStructure(3)
    nf = NormalForm(identity(3), (Letter(2, e12(Poly.parse("t", 3))), Letter(1, w(5))))
    with pytest.raises(ValueError, match="modulus mismatch between matrix factors"):
        s.nf_evaluate(nf)


def test_empty_word_is_identity():
    for struct in (AmalgamStructure(3), AmalgamStructure()):
        nf = struct.normalize([])
        assert nf.length == 0
        assert nf.head == identity(struct.mod)


def test_soundness_random_words():
    rng = random.Random(1001)
    for p in (2, 3, 5):
        s = AmalgamStructure(p)
        for _ in range(100):
            word = rand_word(rng, p, rng.randint(0, 8), 6)
            nf = s.normalize(word)
            assert s.nf_evaluate(nf) == evaluate_word(word, p)


def test_soundness_e2zt_words():
    rng = random.Random(1002)
    s = AmalgamStructure()
    for _ in range(150):
        word = rand_word(rng, None, rng.randint(0, 6), 4)
        nf = s.normalize(word)
        assert s.nf_evaluate(nf) == evaluate_word(word, None)


def test_normalize_idempotent():
    rng = random.Random(1003)
    for p in (2, 5):
        s = AmalgamStructure(p)
        for _ in range(60):
            nf = s.normalize(rand_word(rng, p, 6, 5))
            assert s.normalize(word_of(nf)) == nf


def test_canceling_insertion_invariance():
    rng = random.Random(1004)
    for mod, struct in ((3, AmalgamStructure(3)), (None, AmalgamStructure())):
        for _ in range(60):
            word = rand_word(rng, mod, 5, 4)
            g = rand_letter(rng, mod, 4)
            pos = rng.randint(0, len(word))
            padded = word[:pos] + [g, Letter(g.factor, g.mat.inv())] + word[pos:]
            assert struct.normalize(padded) == struct.normalize(word)


def test_nf_multiply_identity_and_inverse():
    rng = random.Random(1005)
    s = AmalgamStructure(3)
    for _ in range(60):
        x = s.normalize(rand_word(rng, 3, 5, 4))
        one = NormalForm(identity(3), ())
        assert _nf_mul(s, x, one) == x
        assert _nf_mul(s, one, x) == x
        assert _nf_mul(s, x, nf_invert(s, x)) == one
        assert _nf_mul(s, nf_invert(s, x), x) == one


def test_nf_multiply_associative():
    rng = random.Random(1006)
    s = AmalgamStructure(2)
    for _ in range(40):
        x, y, z = (s.normalize(rand_word(rng, 2, 4, 4)) for _ in range(3))
        assert _nf_mul(s, _nf_mul(s, x, y), z) == _nf_mul(s, x, _nf_mul(s, y, z))


def test_nf_multiply_matches_concatenation():
    rng = random.Random(1007)
    s = AmalgamStructure(5)
    for _ in range(60):
        wx = rand_word(rng, 5, 4, 4)
        wy = rand_word(rng, 5, 4, 4)
        assert _nf_mul(s, s.normalize(wx), s.normalize(wy)) == s.normalize(wx + wy)


def test_invert_examples():
    s = AmalgamStructure(3)
    one = NormalForm(identity(3), ())
    assert nf_invert(s, one) == one
    one_letter = s.normalize([Letter(2, e12(Poly.parse("t", 3)))])
    assert nf_invert(s, one_letter) == s.normalize(
        [Letter(2, e12(Poly.parse("-t", 3)))]
    )


def test_nf_length():
    s = AmalgamStructure(2)
    assert NormalForm(identity(2), ()).length == 0
    assert s.normalize([Letter(2, e12(Poly.parse("t", 2)))]).length == 1
    word = [
        Letter(1, w(2).inv()),
        Letter(2, e12(Poly.parse("t", 2))),
        Letter(1, w(2)),
    ]
    assert s.normalize(word).length == 3


def test_tail_letters_alternate_and_avoid_base():
    rng = random.Random(1008)
    s = AmalgamStructure(3)
    for _ in range(80):
        nf = s.normalize(rand_word(rng, 3, 7, 5))
        assert s.factors(nf.head) == (1, 2)
        for a, b in zip(nf.tags, nf.tags[1:]):
            assert a != b
        for letter in nf.tail:
            assert s.factors(letter.mat) != (1, 2)


def test_invalid_letter_rejected():
    s = AmalgamStructure(3)
    with pytest.raises(ValueError, match="membership"):
        s.normalize([Letter(1, e12(Poly.parse("t", 3)))])  # nonconstant in factor 1
    with pytest.raises(ValueError, match="membership"):
        s.normalize([Letter(2, e21(Poly.parse("t", 3)))])  # lower triangular
    with pytest.raises(ValueError, match="factor tag"):
        s.normalize([Letter(3, identity(3))])
    with pytest.raises(ValueError, match="membership"):
        s.normalize([Letter(1, const_mat(2, 0, 0, 1, 3))])  # det != 1


def test_broken_transversal_fails_loudly():
    class Broken(AmalgamStructure):
        def transversal(self, factor, x):
            a, s = super().transversal(factor, x)
            if s is not None and factor == 1:
                return a, self._mul(s, s)  # exactness violated
            return a, s

    s = Broken(3)
    with pytest.raises(RuntimeError, match="exactness"):
        s.normalize([Letter(1, w(3))])


def test_broken_transversal_off_by_base_element_fails():
    class Broken(AmalgamStructure):
        def transversal(self, factor, x):
            a, s = super().transversal(factor, x)
            # a stays in A and s in its factor, but a * s != x
            return self._mul(a, self._form_of(const_mat(2, 1, 0, 2, 3))), s

    s = Broken(3)
    for factor, m in ((1, w(3)), (2, e12(Poly.parse("1 + t", 3)))):
        with pytest.raises(RuntimeError, match="exactness"):
            s.decompose(factor, s._form_of(m))


def test_broken_transversal_outside_factor_fails():
    class Broken(AmalgamStructure):
        def transversal(self, factor, x):
            return self._form_of(identity(3)), x  # a * s == x, but s need not be in the factor

    s = Broken(3)
    with pytest.raises(RuntimeError, match="exactness"):
        s.decompose(2, s._form_of(w(3)))
    with pytest.raises(RuntimeError, match="exactness"):
        s.decompose(1, s._form_of(e12(Poly.parse("t", 3))))

    class NoSplit(AmalgamStructure):
        def transversal(self, factor, x):
            return x, None  # claims every element lies in A

    s = NoSplit(3)
    with pytest.raises(RuntimeError, match="outside the base subgroup"):
        s.decompose(1, s._form_of(w(3)))


def test_coset_representative_of_wrong_determinant_fails(monkeypatch):
    """The factor-1 transversal re-checks that its representative has
    determinant 1; a membership test that says otherwise raises."""
    s = AmalgamStructure(3)
    monkeypatch.setattr(AmalgamStructure, "_factors", lambda self, x: ())
    with pytest.raises(RuntimeError, match="^coset representative has determinant other than 1"):
        s.transversal(1, s._form_of(w(3)))


def test_normal_form_invariants_checked():
    s = AmalgamStructure(3)
    one, t_shear = identity(3), e12(Poly.parse("t", 3))

    def check(head, tail):
        s._check_forms(s._form_of(head), [(letter.factor, s._form_of(letter.mat)) for letter in tail])

    check(one, (Letter(1, w(3)), Letter(2, t_shear)))
    bad = [
        (w(3), ()),  # head outside A
        (one, (Letter(1, one),)),  # tail letter in A
        (one, (Letter(2, w(3)),)),  # tail letter outside its factor
        (one, (Letter(2, t_shear), Letter(2, t_shear))),  # no alternation
    ]
    for head, tail in bad:
        with pytest.raises(RuntimeError, match="engine bug"):
            check(head, tail)


def test_normalize_checks_its_output(monkeypatch):
    """normalize checks the normal-form invariants of its result: a split
    that emits a tail letter lying in A, or leaves a head outside A, is
    refused as an engine bug."""
    decompose = AmalgamStructure.decompose
    s = AmalgamStructure(3)
    one = s._form_of(identity(3))

    def spurious_letter(self, factor, x):
        a, rep = decompose(self, factor, x)
        return a, one if rep is None else rep

    monkeypatch.setattr(AmalgamStructure, "decompose", spurious_letter)
    for word in ([Letter(1, diag(2, 3))], [Letter(2, e12(Poly.parse("t", 3))), Letter(1, diag(2, 3))]):
        with pytest.raises(RuntimeError, match=r"tail letter is not in its factor alone \(engine bug\)"):
            s.normalize(word)

    monkeypatch.setattr(AmalgamStructure, "decompose", lambda self, factor, x: (x, None))
    with pytest.raises(RuntimeError, match=r"head left the base subgroup \(engine bug\)"):
        s.normalize([Letter(1, w(3))])


def _oracle_factors(mod, m):
    return tuple(f for f in (1, 2) if det_in_factor(mod, f, m))


def test_factors_matches_det_oracle():
    rng = random.Random(1009)
    for mod in (None, 2, 3, 101):
        s = AmalgamStructure(mod)
        t = Poly.parse("t", mod)

        def mat(a, b, c, d):
            return Mat2(*(x if isinstance(x, Poly) else Poly.constant(x, mod) for x in (a, b, c, d)))

        def check(m, expected):
            assert det_in_base(mod, m) == (expected == (1, 2))
            assert _oracle_factors(mod, m) == expected
            assert s.factors(m) == expected

        for _ in range(40):
            u = rand_b_letter(rng, mod, 0).mat  # constant: an element of A
            check(u, (1, 2))
            g = rand_sl2_const(rng, mod)
            check(g, (1,) if g.coeffs[2] else (1, 2))
            b = rand_b_letter(rng, mod, 4).mat
            check(b, (2,) if len(b.coeffs[1]) > 1 else (1, 2))
        check(mat(1 + t, 0, 0, 1), ())  # upper triangular, nonconstant diagonal
        check(mat(1 + t, t, 0, 1), ())
        check(mat(t, 0, 0, t), ())
        check(mat(1, t, 0, 1 + t), ())
        check(mat(1, 1, 1, 1), ())  # constant, det 0
        check(mat(1, 0, 1, 1 + t), ())  # lower triangular, nonconstant
        check(mat(1, 0, t, 1), ())
        check(mat(1, t, 1, 1), ())  # nonconstant b with c != 0
        check(mat(1, t, 1, 1 + t), ())  # det 1, but d is nonconstant
        if mod is None:
            check(mat(-1, 0, 0, 1), ())  # det -1
            check(mat(2, 0, 0, 1), ())
            check(mat(0, 1, 1, 0), ())
        else:
            check(mat(mod - 1, 0, 0, 1), () if mod != 2 else (1, 2))
        for other in (None, 2, 5):  # the identity over another ring
            if other != mod:
                check(identity(other), ())
        # every matrix with entries in a small set, checked against the oracle
        entries = [Poly.constant(x, mod) for x in (0, 1, -1, 2)] + [t, 1 + t]
        for a, b, c, d in itertools.product(entries, repeat=4):
            m = Mat2(a, b, c, d)
            assert s.factors(m) == _oracle_factors(mod, m)


def test_structure_mismatch_rejected():
    s2, s3 = AmalgamStructure(2), AmalgamStructure(3)
    y = s3.normalize([Letter(2, e12(Poly.parse("t", 3)))])
    with pytest.raises(ValueError, match="fails membership"):
        s2.normalize(word_of(y))
    with pytest.raises(ValueError, match="prime"):
        AmalgamStructure(4)


# -- the engine on forms, against Mat2 arithmetic -------------------------

_COEFF = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40))


def _unit(mod, v):
    return (-1 if v < 0 else 1) if mod is None else 1 + v % (mod - 1)


@st.composite
def _factor_element(draw, mod, factor, max_len=6):
    """A Mat2 in factor 1 (a product of constant generators) or factor 2
    (an upper-triangular [[u, f], [0, u^-1]] with f of at most max_len
    coefficients), built with Mat2 arithmetic only."""
    if factor == 1:
        m = identity(mod)
        for kind, v in draw(st.lists(st.tuples(st.sampled_from("E12 E21 W D".split()), _COEFF), max_size=5)):
            if kind == "W":
                g = w(mod)
            elif kind == "D":
                g = diag(_unit(mod, v), mod)
            else:
                g = (e12 if kind == "E12" else e21)(v, mod)
            m = m * g
        return m
    u = _unit(mod, draw(_COEFF))
    f = Poly(draw(st.lists(_COEFF, max_size=max_len)), mod)
    return diag(u, mod) * e12(f)


def _expected_rep(mod, factor, m):
    """The coset representative by the conventions of the class docstring,
    computed on Mat2 and Poly."""
    if factor == 1:
        c, d = (e[0] if e else 0 for e in m.coeffs[2:])  # constant entries
        if mod is None:
            c, d = abs(c), d * (1 if c > 0 else -1)
            x = pow(d, -1, c)
            return const_mat(x, (x * d - 1) // c, c, d)
        return const_mat(0, -1, 1, d * pow(c, -1, mod), mod)
    u_inv = m.d  # det 1 and c = 0 make d the inverse of u = a
    return e12(u_inv * Poly((0,) + m.coeffs[1][1:], mod))  # b less its constant term


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_engine_matches_mat2(data):
    """_mul, _factors and decompose on forms agree with Mat2 products, with
    factors on the Mat2 and the determinant oracle, and with the coset
    conventions, for elements of each factor over Z and F_p."""
    mod = data.draw(st.sampled_from([None, 2, 3, 101]), label="mod")
    factor = data.draw(st.sampled_from([1, 2]), label="factor")
    s = AmalgamStructure(mod)
    x, y = (data.draw(_factor_element(mod, factor)) for _ in range(2))
    base = data.draw(_factor_element(mod, 2, max_len=1), label="base")  # in A
    for left, right in ((x, y), (base, x), (x, base)):
        product = s._mul(s._form_of(left), s._form_of(right))
        assert product == s._form_of(left * right)
        assert _mat(product, mod) == left * right
    for m in (x, y, base, x * y):
        assert s._factors(s._form_of(m)) == s.factors(m) == _oracle_factors(mod, m)
    a, rep = s.decompose(factor, s._form_of(x))
    assert s.factors(_mat(a, mod)) == (1, 2)
    if rep is None:
        assert s.factors(x) == (1, 2) and a == s._form_of(x)
    else:
        assert _mat(a, mod) * _mat(rep, mod) == x
        assert _mat(rep, mod) == _expected_rep(mod, factor, x)
        assert s.factors(_mat(rep, mod)) == (factor,)


@st.composite
def _split_inputs(draw):
    """(mod, factor, x): an engine form outside A in factor 1, or in factor
    2 over Z with a = d = +-1 and over F_p with a unit a != 1 and b(0) = 0
    or b(0) != 0."""
    mod = draw(st.sampled_from([None, 3, 7, 101, 2**64 - 59]))
    factor = draw(st.sampled_from([1, 2]))
    coeff = st.integers(-(2**70), 2**70) | st.integers(-9, 9) if mod is None else st.integers(0, mod - 1)
    nonzero = coeff.filter(bool)
    if factor == 2:
        a = draw(st.sampled_from([1, -1]) if mod is None else st.integers(2, mod - 1))
        d = a if mod is None else pow(a, -1, mod)
        b0 = draw(st.sampled_from([0]) | nonzero)
        b = Poly([b0] + draw(st.lists(coeff, max_size=6)) + [draw(nonzero)], mod).coeffs
        return mod, factor, (a, b, 0, d)
    c = draw(nonzero)
    if mod is None:  # a*d - b*c = 1 needs gcd(c, d) = 1
        d = draw(coeff.filter(lambda v: math.gcd(v, c) == 1))
        a = pow(d, -1, abs(c)) + draw(st.integers(-3, 3)) * c
        b = (a * d - 1) // c
    else:
        a, d = draw(coeff), draw(coeff)
        b = (a * d - 1) * pow(c, -1, mod) % mod
    return mod, factor, (a, (b,) if b else (), c, d)


@settings(max_examples=300, deadline=None)
@given(_split_inputs())
def test_closed_form_split_is_the_product_by_the_inverse(case):
    """The A-part that transversal builds in closed form equals x * s^-1,
    taken by gl2._mat_mul on x's quadruple and on s^-1's, both written out
    here without the engine: [[r, y], [c, d]]^-1 = [[d, -y], [-c, r]]
    under det 1.  decompose's re-check accepts the split."""
    mod, factor, x = case

    def quad(form):
        a, b, c, d = form
        return tuple(Poly(e, mod).coeffs for e in ((a,), b, (c,), (d,)))

    s = AmalgamStructure(mod)
    head, rep = s.transversal(factor, x)
    r, y, c, d = quad(rep)
    inverse = (d, (-Poly(y, mod)).coeffs, (-Poly(c, mod)).coeffs, r)
    a, b, c, d = _mat_mul(quad(x), inverse, mod)
    assert head == (a[0] if a else 0, b, c[0] if c else 0, d[0] if d else 0)
    assert s.decompose(factor, x) == (head, rep)


def test_engine_product_outside_one_factor_is_a_bug():
    s = AmalgamStructure(3)
    with pytest.raises(RuntimeError, match="engine bug"):
        s._mul(s._form_of(w(3)), s._form_of(e12(Poly.parse("t", 3))))
    with pytest.raises(RuntimeError, match="engine bug"):
        s._mul(s._form_of(e12(Poly.parse("t", 3))), s._form_of(w(3)))


def test_normalize_decomposes_once_per_letter():
    calls = []

    class Counting(AmalgamStructure):
        def decompose(self, factor, x):
            calls.append(factor)
            return super().decompose(factor, x)

    rng = random.Random(1010)
    for mod in (None, 3):
        s = Counting(mod)
        for n in (0, 1, 2, 7, 15):
            word = rand_word(rng, mod, n, 4)
            del calls[:]
            nf = s.normalize(word)
            assert calls == [letter.factor for letter in reversed(word)]
            assert nf == AmalgamStructure(mod).normalize(word)


def test_normalize_multiplies_no_mat2(monkeypatch):
    """The rewriter works on forms only: Mat2 products, inverses and
    determinants stay with the oracles."""
    rng = random.Random(1011)
    words = [(mod, rand_word(rng, mod, 10, 4)) for mod in (None, 2, 5) for _ in range(10)]
    expected = [AmalgamStructure(mod).normalize(word) for mod, word in words]

    def refuse(*args):
        raise AssertionError("Mat2 arithmetic inside the engine")

    for name in ("__mul__", "inv", "det"):
        monkeypatch.setattr(Mat2, name, refuse)
    assert [AmalgamStructure(mod).normalize(word) for mod, word in words] == expected
