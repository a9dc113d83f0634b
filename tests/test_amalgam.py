import random

import pytest

from nagaolab.amalgam import AmalgamStructure, Letter, NormalForm
from nagaolab.gl2 import Mat2, e12, e21, w
from nagaolab.ring import Poly

from helpers import evaluate_word, rand_letter, rand_sl2_const, rand_word


def test_same_factor_letters_merge():
    s = AmalgamStructure(3)
    word = [
        Letter(2, e12(Poly.parse("t", 3))),
        Letter(2, e12(Poly.parse("t^2", 3))),
    ]
    nf = s.normalize(word)
    assert nf.head == s.identity()
    assert nf.tags == (2,)
    assert nf.tail[0].mat == e12(Poly.parse("t + t^2", 3))


def test_canceling_pair_collapses():
    s = AmalgamStructure(5)
    word = [Letter(1, w(5)), Letter(1, w(5).inv())]
    nf = s.normalize(word)
    assert nf == s.identity_nf()


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


def test_empty_word_is_identity():
    for struct in (AmalgamStructure(3), AmalgamStructure()):
        nf = struct.normalize([])
        assert nf.length == 0
        assert nf.head == struct.identity()


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
            assert s.normalize(s.word_of(nf)) == nf


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
        assert s.nf_multiply(x, s.identity_nf()) == x
        assert s.nf_multiply(s.identity_nf(), x) == x
        assert s.nf_multiply(x, s.nf_invert(x)) == s.identity_nf()
        assert s.nf_multiply(s.nf_invert(x), x) == s.identity_nf()


def test_nf_multiply_associative():
    rng = random.Random(1006)
    s = AmalgamStructure(2)
    for _ in range(40):
        x, y, z = (s.normalize(rand_word(rng, 2, 4, 4)) for _ in range(3))
        assert s.nf_multiply(s.nf_multiply(x, y), z) == s.nf_multiply(
            x, s.nf_multiply(y, z)
        )


def test_nf_multiply_matches_concatenation():
    rng = random.Random(1007)
    s = AmalgamStructure(5)
    for _ in range(60):
        wx = rand_word(rng, 5, 4, 4)
        wy = rand_word(rng, 5, 4, 4)
        assert s.nf_multiply(s.normalize(wx), s.normalize(wy)) == s.normalize(wx + wy)


def test_invert_examples():
    s = AmalgamStructure(3)
    assert s.nf_invert(s.identity_nf()) == s.identity_nf()
    one_letter = s.normalize([Letter(2, e12(Poly.parse("t", 3)))])
    assert s.nf_invert(one_letter) == s.normalize(
        [Letter(2, e12(Poly.parse("-t", 3)))]
    )


def test_nf_length():
    s = AmalgamStructure(2)
    assert s.identity_nf().length == 0
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
        assert s.in_base(nf.head)
        for a, b in zip(nf.tags, nf.tags[1:]):
            assert a != b
        for letter in nf.tail:
            assert not s.in_base(letter.mat)


def test_invalid_letter_rejected():
    s = AmalgamStructure(3)
    with pytest.raises(ValueError, match="membership"):
        s.normalize([Letter(1, e12(Poly.parse("t", 3)))])  # nonconstant in factor 1
    with pytest.raises(ValueError, match="membership"):
        s.normalize([Letter(2, e21(Poly.parse("t", 3)))])  # lower triangular
    with pytest.raises(ValueError, match="factor tag"):
        s.normalize([Letter(3, s.identity())])
    with pytest.raises(ValueError, match="membership"):
        s.normalize([Letter(1, Mat2.of_ints(2, 0, 0, 1, 3))])  # det != 1


def test_broken_transversal_fails_loudly():
    class Broken(AmalgamStructure):
        def transversal(self, factor, m):
            a, s = super().transversal(factor, m)
            if s is not None and factor == 1:
                return a, s * s  # exactness violated
            return a, s

    s = Broken(3)
    with pytest.raises(RuntimeError, match="exactness"):
        s.normalize([Letter(1, w(3))])


def test_structure_mismatch_rejected():
    s2, s3 = AmalgamStructure(2), AmalgamStructure(3)
    x = s2.normalize([Letter(2, e12(Poly.parse("t", 2)))])
    y = s3.normalize([Letter(2, e12(Poly.parse("t", 3)))])
    with pytest.raises(ValueError, match="structures"):
        s2.nf_multiply(x, y)
    with pytest.raises(ValueError, match="prime"):
        AmalgamStructure(4)
