import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from nagaolab import gl2, nagao
from nagaolab.amalgam import AmalgamStructure, Letter
from nagaolab.gl2 import Gen, Mat2, diag, e12, e21, identity, parse_matrix, w
from nagaolab.limits import CrossValidationError
from nagaolab.nagao import (
    _nf_by_degree_reduction,
    e2zt_normal_form,
    letters_from_gens,
    nagao_normal_form,
    phi_p,
    sl2fpt_elementary_factor,
)
from nagaolab.gl2 import _ONE
from nagaolab.ring import Poly, _dot, _scale
from nagaolab.witnesses import make_witness

from helpers import (
    const_mat,
    evaluate_word,
    mutants,
    mutate,
    one_off,
    rand_fp_gen,
    rand_fp_matrix,
    rand_word,
    two_column_factor,
    word_of,
)


def _product(gens, mod=None):
    m = identity(mod)
    for g in gens:
        m = m * g.matrix()
    return m


# -- SL2(F_p[t]) factorization -------------------------------------------


def test_fpt_factor_pinned_example():
    m = parse_matrix("[[1 + t^2, t],[t, 1]]", 5)
    gens = sl2fpt_elementary_factor(m)
    assert [str(g) for g in gens] == ["E12(t)", "E21(t)"]
    assert _product(gens, 5) == m


def test_fpt_factor_transvection_passthrough():
    rng = random.Random(2002)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        f = Poly([rng.randrange(p) for _ in range(rng.randint(1, 6))], p)
        gens = sl2fpt_elementary_factor(e12(f))
        if f.is_zero:
            assert gens == []
        else:
            assert [g.kind for g in gens] == ["E12"] and gens[0].arg == f


def test_fpt_factor_roundtrip_random():
    rng = random.Random(2003)
    for p in (2, 3, 5):
        for _ in range(150):
            m = rand_fp_matrix(rng, p, 6, 6)
            assert _product(sl2fpt_elementary_factor(m), p) == m


def test_fpt_factor_rejects_nonunimodular():
    with pytest.raises(ValueError):
        sl2fpt_elementary_factor(const_mat(1, 0, 0, 2, 5))
    with pytest.raises(ValueError):
        sl2fpt_elementary_factor(identity())


def test_roundtrip_refuses_a_word_one_generator_off(monkeypatch):
    """The round trip inside the factorization is exact: with any letter
    that it multiplies out one off (E12(f + 1), E21(f + 1) or D(-u)), it
    raises.  The product kernel's own exactness over Z and with W is
    tested in test_gl2.py."""
    rng = random.Random(2010)
    altered = set()
    for p in (3, 5):
        for _ in range(20):
            m = rand_fp_matrix(rng, p, 6, 4)
            gens = sl2fpt_elementary_factor(m)
            # the last letter is E12(beta) iff beta != 0, since the loop's
            # last letter is an E21 or a D; beta is solved, not multiplied
            for i in range(len(gens) - bool(gens and gens[-1].kind == "E12")):
                built = []

                def one_off_at_i(kind, arg, mod):
                    built.append(Gen(kind, arg, mod))
                    return one_off(built[-1])[0] if len(built) == i + 1 else built[-1]

                monkeypatch.setattr(nagao, "Gen", one_off_at_i)
                with pytest.raises(RuntimeError, match="multiply back"):
                    sl2fpt_elementary_factor(m)
                monkeypatch.undo()
                altered.add(gens[i].kind)
    assert altered == {"E12", "E21", "D"}


def test_det_zero_term_not_one_is_refused_before_the_loop(monkeypatch):
    """det(0) = a(0)*d(0) - b(0)*c(0) is the constant term of det m, so an
    input with det(0) != 1 is refused before any division, with the one
    determinant its message names."""
    divisions, dets = [], []
    divmod_coeffs, det = nagao._divmod_coeffs, Mat2.det
    monkeypatch.setattr(nagao, "_divmod_coeffs", lambda *args: divisions.append(args) or divmod_coeffs(*args))
    monkeypatch.setattr(Mat2, "det", lambda m: dets.append(m) or det(m))
    doubled = []  # first row doubled: det 2
    for p, m in _seeded_matrices():
        a, b, c, d = m.coeffs
        doubled.append((p, Mat2._of_coeffs((_scale(a, 2, p), _scale(b, 2, p), c, d), p), "2"))
    for p, m, got in doubled + [(5, parse_matrix("[[2 + t, t], [t, 1]]", 5), "2 + t + 4*t^2"),
                                (3, parse_matrix("[[0, 0], [0, 1]]", 3), "0")]:
        del dets[:]
        with pytest.raises(ValueError, match=rf"^determinant must be 1, got {re.escape(got)}$"):
            nagao_normal_form(p, m)
        assert len(dets) == 1
    assert divisions == []


def test_det_at_one_not_one_is_refused_before_the_loop(monkeypatch):
    """det(1) = a(1)*d(1) - b(1)*c(1) is det m at t = 1, a sum of the
    coefficients, so an input with det(0) = 1 but det(1) != 1 is refused
    before any division, with the one determinant its message names."""
    def no_division(*args):
        raise AssertionError("divided")

    monkeypatch.setattr(nagao, "_divmod_coeffs", no_division)
    for p, text, got in ((5, "[[1, t], [t, 1 + t + t^2]]", "1 + t"), (3, "[[1, t], [t, 1]]", "1 + 2*t^2"),
                         (7, "[[1 + t^40, 0], [0, 1]]", "1 + t^40")):
        with pytest.raises(ValueError, match=rf"^determinant must be 1, got {re.escape(got)}$"):
            nagao_normal_form(p, parse_matrix(text, p))


def test_det_at_minus_one_not_one_is_refused_before_the_loop(monkeypatch):
    """For p > 2, det(-1) = a(-1)*d(-1) - b(-1)*c(-1), from alternating
    coefficient sums, refuses an input with det 1 at t = 0 and t = 1 before
    any division.  Over F_2, where -1 = 1, such an input reaches the loop."""
    divisions = []
    divmod_coeffs = nagao._divmod_coeffs
    monkeypatch.setattr(nagao, "_divmod_coeffs", lambda *args: divisions.append(args) or divmod_coeffs(*args))
    for p, text, got in ((5, "[[1 + t + 4*t^2, 0], [0, 1]]", "1 + t + 4*t^2"),
                         (3, "[[1 + t + 2*t^2, 0], [0, 1]]", "1 + t + 2*t^2"),
                         (3, "[[0, 1], [2 + t + 2*t^2, 0]]", "1 + 2*t + t^2"),
                         (7, "[[1, t], [t, 1 + 6*t + 2*t^2]]", "1 + 6*t + t^2")):
        with pytest.raises(ValueError, match=rf"^determinant must be 1, got {re.escape(got)}$"):
            nagao_normal_form(p, parse_matrix(text, p))
    assert divisions == []
    with pytest.raises(ValueError, match=r"^determinant must be 1, got 1 \+ t \+ t\^2$"):
        nagao_normal_form(2, parse_matrix("[[1 + t, t], [1, 1 + t]]", 2))
    assert divisions != []


def test_round_trip_refuses_each_wrong_second_column_entry(monkeypatch):
    """Each check of the solve decides alone.  With b off by t^3 - t and
    deg a > 3, the division for beta leaves the remainder t^3 - t; with d
    off by t^3 - t, or b when a = 0, only the other row's product differs.
    Each change keeps det m at t = 0, 1 and -1 and the first column, so the
    round trip is what names det != 1."""
    refuse, failures = nagao._refuse, []
    monkeypatch.setattr(nagao, "_refuse", lambda m, failure: failures.append(failure) or refuse(m, failure))
    wrong = []
    for p, m in _seeded_matrices():
        a, b, c, d = m.coeffs
        assert len(a) > 4
        t = (0, p - 1, 0, 1)
        wrong += [(p, (a, _dot(b, _ONE, t, _ONE, p), c, d)), (p, (a, b, c, _dot(d, _ONE, t, _ONE, p)))]
        x = (Gen("D", 2, p).matrix() * w(p) * Mat2._of_coeffs((_ONE, b, (), _ONE), p)).coeffs
        wrong.append((p, (x[0], _dot(x[1], _ONE, t, _ONE, p), x[2], x[3])))
    for p, x in wrong:
        with pytest.raises(ValueError, match="^determinant must be 1, got "):
            sl2fpt_elementary_factor(Mat2._of_coeffs(x, p))
    assert failures == ["factorization failed to multiply back to its input"] * len(wrong)


# -- Nagao normal form -----------------------------------------------------


def test_nagao_nf_identity():
    for p in (2, 3, 5):
        nf = nagao_normal_form(p, identity(p))
        assert nf.length == 0 and nf.head == identity(p)


def test_nagao_nf_canonical_transvection():
    nf = nagao_normal_form(3, e12(Poly.parse("t", 3)))
    assert nf.head == identity(3)
    assert nf.tags == (2,)
    assert nf.tail[0].mat == e12(Poly.parse("t", 3))


def test_nagao_nf_lower_transvection():
    m = e21(Poly.parse("t", 2))
    nf = nagao_normal_form(2, m)
    assert nf.length == 3
    assert nf.tags == (1, 2, 1)
    assert AmalgamStructure(2).nf_evaluate(nf) == m


def test_nagao_nf_cross_validation_random():
    rng = random.Random(2004)
    for p in (2, 3, 5):
        for _ in range(150):
            m = rand_fp_matrix(rng, p, 6, 6)
            nf = nagao_normal_form(p, m)
            assert AmalgamStructure(p).nf_evaluate(nf) == m


def test_nagao_nf_rechecks_once_per_run(monkeypatch):
    """The rewriter splits through the checked decompose once per maximal
    run of same-tag letters it folds in, last run first; the degree
    reduction makes no decompose call."""
    calls = []
    decompose = AmalgamStructure.decompose

    def counting(self, factor, x):
        calls.append(factor)
        return decompose(self, factor, x)

    monkeypatch.setattr(AmalgamStructure, "decompose", counting)
    rng = random.Random(2009)
    for p in (2, 5):
        for _ in range(20):
            m = rand_fp_matrix(rng, p, 6, 4)
            letters = letters_from_gens(sl2fpt_elementary_factor(m), p)
            del calls[:]
            nagao_normal_form(p, m)
            assert calls == [tag for tag, _ in itertools.groupby(letter.factor for letter in reversed(letters))]


@st.composite
def _fp_matrices(draw):
    """p in {2, 3, 5, 101} and a product of elementary generators over F_p,
    some of degree 40 or more, where division switches to Newton."""
    p = draw(st.sampled_from((2, 3, 5, 101)))
    coeffs = st.integers(0, p - 1)
    polys = st.lists(coeffs, max_size=6) | st.lists(coeffs, min_size=40, max_size=50)
    m = identity(p)
    for kind, cs, u in draw(st.lists(st.tuples(st.sampled_from(("E12", "E21", "D", "W")), polys,
                                               st.integers(1, p - 1)), max_size=10)):
        arg = {"D": u, "W": None}.get(kind, Poly(cs, p))
        m = m * Gen(kind, arg, p).matrix()
    return p, m


@settings(max_examples=100, deadline=None)
@given(_fp_matrices())
def test_degree_reduction_peels_without_mat2_products(pm):
    """Both oracles run on coefficient tuples.  The Euclid factorization
    with its round trip and the degree reduction call no Poly operator, no
    Mat2 product or inverse and no engine split or product; the degree
    reduction takes no Mat2 determinant and builds no Poly or Mat2 at all.
    ``nagao_normal_form`` builds a Mat2 only for the matrices it returns.
    The results evaluate back to the input, and the degree reduction equals
    the rewriter route letter for letter."""
    p, m = pm
    struct = AmalgamStructure(p)

    def refuse(*args):
        raise AssertionError("Poly or Mat2 arithmetic or an engine call inside an oracle")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                     "__divmod__"):
            patch.setattr(Poly, name, refuse)
        for name in ("__mul__", "inv"):
            patch.setattr(Mat2, name, refuse)
        for name in ("decompose", "transversal", "_mul"):
            patch.setattr(AmalgamStructure, name, refuse)
        gens = sl2fpt_elementary_factor(m)
        for name in ("det", "_of_coeffs", "__init__"):
            patch.setattr(Mat2, name, refuse)
        patch.setattr(Poly, "_canon", refuse)
        patch.setattr(gl2, "e12", refuse)
        head, tail = _nf_by_degree_reduction(struct, m)
    nf = struct._build(head, tail)
    assert _product(gens, p) == m
    assert struct.nf_evaluate(nf) == m
    assert nf == struct.normalize(letters_from_gens(gens, p))

    built = []
    of_coeffs = Mat2._of_coeffs

    def counting(x, mod):
        built.append(x)
        return of_coeffs(x, mod)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Mat2, "_of_coeffs", counting)
        assert nagao_normal_form(p, m) == nf
    assert len(built) == 1 + nf.length


def _head_times_minus_one(p, forms):
    """The normal form (head, tail) with its head multiplied by -I: another
    valid normal form, of another element when p > 2."""
    (a, b, c, d), tail = forms
    return (-a % p, _scale(b, -1, p), c, -d % p), tail


def test_nagao_nf_refuses_disagreeing_routes(monkeypatch):
    """A degree route that returns another valid normal form makes
    nagao_normal_form raise CrossValidationError naming both forms."""
    p, degree_route = 5, nagao._nf_by_degree_reduction
    struct = AmalgamStructure(p)
    m = parse_matrix("[[1 + t^2, t], [t, 1]]", p)
    right = degree_route(struct, m)
    wrong = _head_times_minus_one(p, right)
    struct._check_forms(*wrong)
    monkeypatch.setattr(nagao, "_nf_by_degree_reduction", lambda s, x: _head_times_minus_one(p, degree_route(s, x)))
    with pytest.raises(CrossValidationError, match="normal form algorithms disagree") as info:
        nagao_normal_form(p, m)
    assert f"{struct._build(*right)} vs {struct._build(*wrong)}" in str(info.value)


def _seeded_matrices():
    """21 low-degree and 21 high-degree SL2(F_p[t]) matrices, each a product
    of alternating E12/E21 letters with nonconstant arguments."""
    rng = random.Random(2012)
    mats = []
    for max_deg in (4, 60):
        for i in range(21):
            p = (3, 7, 101)[i % 3]
            m = identity(p)
            for j in range(rng.randint(3, 7)):
                f = Poly([rng.randrange(p) for _ in range(rng.randint(1, max_deg))] + [rng.randrange(1, p)], p)
                m = m * Gen(("E12", "E21")[j % 2], f, p).matrix()
            mats.append((p, m))
    return mats


@pytest.mark.parametrize("mutant", mutants("det_bound"))
def test_a_det_bound_one_short_is_caught(monkeypatch, mutant):
    """With the length bound of one det-bounded update one short, the
    round trip, the form checks or the cross-validation refuse some of the
    seeded matrices, and no wrong normal form gets out."""
    mutate(monkeypatch, mutant)
    caught = 0
    for p, m in _seeded_matrices():
        try:
            nf = nagao_normal_form(p, m)
        except RuntimeError:  # CrossValidationError is one
            caught += 1
        else:
            assert AmalgamStructure(p).nf_evaluate(nf) == m
    assert caught >= 1


def _faulty_inputs():
    """The seeded matrices made wrong two ways: with the second column times
    delta, det delta != 1 with gcd(a, c) a unit and det 1 at t = 0, 1 and
    -1, for delta = 1 + (t^3 - t) and 1 + a*(t^3 - t) (a | delta - 1: the
    division is exact); and as SL2 matrices whose first Euclid quotient is
    to be one off (q + 1), the inputs flagged True."""
    for p, m in _seeded_matrices():
        a, b, c, d = m.coeffs
        for h in (_ONE, a):
            delta = _dot(_ONE, _ONE, (0, p - 1, 0, 1), h, p)
            yield p, Mat2._of_coeffs((a, _dot(b, delta, (), (), p), c, _dot(d, delta, (), (), p)), p), False
        yield p, m, True


@pytest.mark.parametrize("mutant", mutants("solve"))
def test_a_solve_mutant_is_refused(monkeypatch, mutant):
    """With one check of the round trip's solve removed, every faulty input
    is still refused, by the other checks of the factorization or by the
    cross-validation, and no wrong normal form gets out."""
    off = []

    def off_by_one(a, b, p):
        q, r = nagao._divmod_coeffs(a, b, p)
        if off:  # the first division of the factorization is a Euclid step
            off.pop()
            q = _dot(q, _ONE, _ONE, _ONE, p)
        return q, r

    failures = []
    mutate(monkeypatch, mutant, _divmod_coeffs=off_by_one,
           _refuse=lambda m, failure: failures.append(failure) or nagao._refuse(m, failure))
    for p, m, quotient_off in _faulty_inputs():
        off[:] = [True] if quotient_off else []
        with pytest.raises((ValueError, RuntimeError)):
            nagao_normal_form(p, m)
    assert "determinant at t = 0, 1 or -1 is not 1" not in failures  # each input passes the tests before the loop


@st.composite
def _factor_shapes(draw):
    """A shape's name and an SL2(F_p[t]) matrix of that shape: a random
    product of generators (``_fp_matrices``), the pivot u != 1 (unless p =
    2), the identity, c = 0, a = 0 (beta solved from the bottom row) or c a
    constant (a = 0 inside the loop)."""
    p, m = draw(_fp_matrices())
    f, g = (Poly(draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=8)), p) for _ in range(2))
    u = draw(st.integers(min(2, p - 1), p - 1))
    shape = draw(st.sampled_from(("random", "u != 1", "identity", "c = 0", "a = 0", "c constant")))
    m = {
        "random": m,
        "u != 1": Gen("D", u, p).matrix() * e21(f) * e12(g),
        "identity": identity(p),
        "c = 0": Gen("D", u, p).matrix() * e12(f),
        "a = 0": Gen("D", u, p).matrix() * w(p) * e12(f),
        "c constant": e12(f * Poly.parse("t", p) + 1) * e21(Poly.constant(u, p)) * e12(g),
    }[shape]
    return shape, m


@settings(max_examples=300, deadline=None)
@given(_factor_shapes())
def test_factor_matches_the_two_column_loop(shape_m):
    """The factorization on the first column alone gives the letters of the
    loop that also updates the second column (``two_column_factor``)."""
    shape, m = shape_m
    a, b, c, d = m.coeffs
    gens = sl2fpt_elementary_factor(m)
    assert gens == two_column_factor(m)
    shown = {"identity": m.is_identity, "c = 0": not c, "a = 0": not a, "c constant": len(c) == 1,
             "u != 1": m.mod == 2 or any(x.kind == "D" for x in gens)}
    assert shown.get(shape, True)


def test_phi_p_refuses_disagreeing_routes(monkeypatch):
    """A word route that returns another valid normal form makes phi_p
    raise CrossValidationError naming both forms.  phi_p rewrites twice,
    inside nagao_normal_form and then along the word; only the second is
    altered."""
    p = 5
    struct = AmalgamStructure(p)
    word = rand_word(random.Random(2011), None, 6, 3)
    _, right = phi_p(word, p)
    rewrite, calls = AmalgamStructure._rewrite, []

    def word_route_off(self, letters):
        calls.append(letters)
        forms = rewrite(self, letters)
        return _head_times_minus_one(p, forms) if len(calls) == 2 else forms

    monkeypatch.setattr(AmalgamStructure, "_rewrite", word_route_off)
    with pytest.raises(CrossValidationError, match="along words and along matrices disagree") as info:
        phi_p(word, p)
    assert len(calls) == 2
    wrong = struct._build(*_head_times_minus_one(p, (struct._form_of(right.head),
                                                     tuple((l.factor, struct._form_of(l.mat)) for l in right.tail))))
    assert wrong != right
    assert f"{right} vs {wrong}" in str(info.value)


def test_phi_p_builds_the_matrix_route_once():
    """phi_p compares the two routes on engine forms: it builds one
    NormalForm (one Mat2 per head and tail letter) and one Mat2 for the
    reduced product, and reads forms only off the word's own letters,
    never back off the NormalForm it returns."""
    rng = random.Random(2013)
    build, of_coeffs, form_of = AmalgamStructure._build, Mat2._of_coeffs, AmalgamStructure._form_of
    for p in (2, 3, 5, 7):
        for length in (0, 1, 6, 12):
            word = rand_word(rng, None, length, 3)
            counts = {"build": 0, "mat2": 0, "form_of": 0}

            def counting(name, fn):
                def wrapped(*args):
                    counts[name] += 1
                    return fn(*args)
                return wrapped

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(AmalgamStructure, "_build", counting("build", build))
                patch.setattr(Mat2, "_of_coeffs", counting("mat2", of_coeffs))
                patch.setattr(AmalgamStructure, "_form_of", counting("form_of", form_of))
                mat, nf = phi_p(word, p)
            assert counts == {"build": 1, "mat2": 2 + nf.length, "form_of": length}, (p, length)
            assert mat == evaluate_word(word, None).reduce_mod_p(p)
            assert AmalgamStructure(p).nf_evaluate(nf) == mat


def test_nagao_nf_decides_equality():
    rng = random.Random(2005)
    s = AmalgamStructure(3)
    for _ in range(80):
        gens_a = [rand_fp_gen(rng, 3, 4) for _ in range(rng.randint(0, 5))]
        gens_b = [rand_fp_gen(rng, 3, 4) for _ in range(rng.randint(0, 5))]
        ma, mb = _product(gens_a, 3), _product(gens_b, 3)
        same_nf = nagao_normal_form(3, ma) == nagao_normal_form(3, mb)
        assert same_nf == (ma == mb)


def test_nagao_nf_length_zero_iff_upper_constant():
    rng = random.Random(2006)
    for p in (2, 5):
        for u in range(1, p):
            for x in range(p):
                b = const_mat(u, x, 0, pow(u, -1, p), p)
                assert nagao_normal_form(p, b).length == 0
        for _ in range(50):
            m = rand_fp_matrix(rng, p, 5, 4)
            nf = nagao_normal_form(p, m)
            assert (nf.length == 0) == (not m.coeffs[2] and all(len(e) <= 1 for e in m.coeffs))


def test_degree_reduction_stops_at_its_step_bound(monkeypatch):
    """A division that makes no progress cannot loop: the degree reduction
    raises once it has taken more peels than its bound allows."""
    monkeypatch.setattr(nagao, "_divmod_coeffs", lambda d, c, p: ((0,), d))
    m = parse_matrix("[[1, 0], [t, 1]]", 3) * parse_matrix("[[1, t^2], [0, 1]]", 3)
    with pytest.raises(RuntimeError, match="^degree reduction passed its step bound"):
        _nf_by_degree_reduction(AmalgamStructure(3), m)


def test_det_one_takes_no_determinant(monkeypatch):
    """A word of det-1 letters that multiplies back proves det m = 1, so
    nagao_normal_form and phi_p compute no determinant of an SL2 input."""
    det, calls = Mat2.det, []
    monkeypatch.setattr(Mat2, "det", lambda m: calls.append(m) or det(m))
    for p, m in _seeded_matrices():
        nagao_normal_form(p, m)
    rng = random.Random(2014)
    for p in (2, 3, 5, 7):
        for _ in range(10):
            phi_p(rand_word(rng, None, rng.randint(1, 8), 3), p)
    assert calls == []


def test_nagao_nf_rejects_wrong_ring_or_det(monkeypatch):
    with pytest.raises(ValueError):
        nagao_normal_form(3, identity(2))
    with pytest.raises(ValueError, match="determinant must be 1, got 2"):
        nagao_normal_form(3, const_mat(1, 0, 0, 2, 3))
    # the full determinant is taken once, for the test and the message
    det, calls = Mat2.det, []
    monkeypatch.setattr(Mat2, "det", lambda m: calls.append(m) or det(m))
    with pytest.raises(ValueError, match=r"determinant must be 1, got 1 \+ t"):
        nagao_normal_form(5, parse_matrix("[[1 + t, 0], [0, 1]]", 5))
    assert len(calls) == 1


# -- E2(Z[t]) words --------------------------------------------------------


def test_e2zt_single_transvection():
    for k in (1, 2, 3):
        nf = e2zt_normal_form([Letter(2, e12(Poly.monomial(k)))])
        assert nf.head == identity()
        assert nf.tags == (2,)
        assert nf.tail[0].mat == e12(Poly.monomial(k))


def test_e2zt_w_squared_is_central():
    nf = e2zt_normal_form([Letter(1, w()), Letter(1, w())])
    assert nf.length == 0
    assert nf.head == const_mat(-1, 0, 0, -1)


def test_e2zt_random_word_evaluation():
    rng = random.Random(2007)
    s = AmalgamStructure()
    for _ in range(100):
        word = rand_word(rng, None, 6, 4)
        nf = s.normalize(word)
        assert s.nf_evaluate(nf) == evaluate_word(word, None)


def test_e2zt_rejects_bad_letter():
    with pytest.raises(ValueError, match="membership"):
        e2zt_normal_form([Letter(1, e12(Poly.parse("t")))])


def test_letters_from_gens_expands_e21():
    letters = letters_from_gens([Gen("E21", Poly.parse("t"), None)], None)
    assert [l.factor for l in letters] == [1, 2, 1]
    assert evaluate_word(letters, None) == e21(Poly.parse("t"))
    with pytest.raises(ValueError, match="not over coefficients mod None"):
        letters_from_gens([Gen("E12", Poly.parse("t", 5), 5)])
    # a long generator is quoted as its first 40 characters and its length
    with pytest.raises(ValueError) as exc:
        letters_from_gens([Gen("E12", Poly(range(1, 2001), 5), 5)], 3)
    assert str(exc.value).startswith("generator E12(1 + 2*t + 3*t^2") and len(str(exc.value)) < 200
    assert str(exc.value).endswith("characters) is not over coefficients mod 3")


# -- reduction mod p -------------------------------------------------------


def test_phi_p_on_witness_word():
    # g(p,k) = E21(-p) E12(-t^k), a two-factor word
    for p in (2, 3):
        for k in (1, 2):
            word = letters_from_gens(
                [Gen("E21", Poly.constant(-p), None), Gen("E12", -Poly.monomial(k), None)]
            )
            assert evaluate_word(word, None) == make_witness("g", p, k)
            mat, nf = phi_p(word, p)
            x_k = e12(Poly.monomial(k, mod=p))
            assert mat == x_k.inv()
            assert nf.length == 1 and nf.tail[0].mat == e12(-Poly.monomial(k, mod=p))


def test_phi_p_on_canonical_transvection():
    word = [Letter(2, e12(Poly.monomial(2)))]
    mat, nf = phi_p(word, 5)
    assert mat == e12(Poly.monomial(2, mod=5))
    assert nf.tags == (2,)


def test_phi_p_of_h_via_matrix_side():
    # no two-factor word for h(2,1) is supplied; reduce the matrix instead
    h = make_witness("h", 2, 1)
    hp = h.reduce_mod_p(2)
    assert hp == parse_matrix("[[1, t^3],[0, 1]]", 2)
    nf = nagao_normal_form(2, hp)
    assert nf.tags == (2,)


def test_phi_p_is_homomorphism():
    rng = random.Random(2008)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        s = AmalgamStructure(p)
        wx = rand_word(rng, None, 4, 3)
        wy = rand_word(rng, None, 4, 3)
        _, nfx = phi_p(wx, p)
        _, nfy = phi_p(wy, p)
        _, nfxy = phi_p(wx + wy, p)
        assert s.normalize(word_of(nfx) + word_of(nfy)) == nfxy


def test_phi_p_hits_generators():
    # every elementary generator of SL2(F_p[t]) has a two-factor preimage word
    rng = random.Random(2009)
    for p in (2, 3, 5):
        for _ in range(20):
            f_p = Poly([rng.randrange(p) for _ in range(rng.randint(1, 5))], p)
            lift = Poly(f_p.coeffs)  # coefficients lifted to {0..p-1} in Z
            mat, _ = phi_p(letters_from_gens([Gen("E12", lift, None)]), p)
            assert mat == e12(f_p)
            mat, _ = phi_p(letters_from_gens([Gen("E21", lift, None)]), p)
            assert mat == e21(f_p)


def test_phi_p_rejects_invalid_words():
    with pytest.raises(ValueError):
        phi_p([Letter(1, e12(Poly.parse("t")))], 3)
    with pytest.raises(ValueError):
        phi_p([], 6)
