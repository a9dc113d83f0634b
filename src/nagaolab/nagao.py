"""Constructive decompositions in E2(R[t]) = SL2(R) *_{B(R)} B(R[t]).

Over R = F_p, matrices decompose into normal form by two independent
algorithms (elementary factorization fed as engine forms through the
checked rewrite of ``AmalgamStructure``, and direct degree reduction on
columns, which shares only the normal-form check with the rewriter).  Their
core ``_nagao_forms`` runs both and insists they agree letter for letter on
engine forms; ``nagao_normal_form`` builds the ``NormalForm`` once, for its
answer.  Normal forms are unique (Serre, *Trees*, I.1.2), so equal forms
are a complete check.

Over R = Z, elements enter as words in the two factors, never as bare
matrices: Z[t] is not Euclidean, so elementary membership of a raw
integer-polynomial matrix is not decidable by the methods here.  That is a
hard boundary of the API.  ``phi_p`` reduces such words mod p and checks the
result against the matrix decomposition over F_p, comparing engine forms
with those of ``_nagao_forms``; it builds the reduced product it returns
and, once, the ``NormalForm`` of the matrix route.  The Euclid loop divides
the first column alone; one ``gl2._mat_prod`` of its letters then solves
the last letter from the second column and checks the whole matrix.  So
every factorization multiplies back, which proves det = 1: the determinant
is computed only when det m is not 1 at t = 0 or t = 1, which the entries'
constant terms and coefficient sums test before the loop, or the
factorization fails.
"""

from __future__ import annotations

from .amalgam import AmalgamStructure, Form, Letter, NormalForm, _mat, _quad_form
from .gl2 import _ONE, Gen, Mat2, _mat_prod
from .limits import CrossValidationError, _prime, _shown
from .ring import Poly, _divmod_coeffs, _dot, _reduce_coeffs, _scale

__all__ = [
    "sl2fpt_elementary_factor",
    "letters_from_gens",
    "nagao_normal_form",
    "e2zt_normal_form",
    "phi_p",
]


# The oracles below work on the canonical coefficient tuples of the entries
# with the ``ring`` kernels, where x + f*y is _dot(x, _ONE, f, y, mod), and
# build their Gen, Letter and Mat2 objects once, at the end.


# -- elementary factorizations ---------------------------------------


def _refuse(m: Mat2, failure: str) -> None:
    """Raise for a factorization of m that failed: a ValueError naming det m
    when it is not 1, the input's fault (exit 2), else RuntimeError(failure),
    an implementation bug.  The determinant is computed only here."""
    det = m.det()
    if det != Poly.one(m.mod):
        raise ValueError(f"determinant must be 1, got {_shown(det, str)}")
    raise RuntimeError(failure)


def sl2fpt_elementary_factor(m: Mat2) -> list[Gen]:
    """Factor an SL2(F_p[t]) matrix into E12(f), E21(f), D(u) letters.

    F_p[t] is Euclidean, so the Euclidean algorithm on the first column (a,
    c) alone ends at (u, 0) with u a unit (det 1 makes gcd(a, c) a unit).
    Degree comparisons pick which row reduces; a zero upper-left entry
    forces the lower-left to be a unit, and one shear restores a nonzero
    pivot.  With X the product of the quotient letters and D(u), m = X *
    E12(beta) for the one beta that the round trip solves: it checks X's
    first column against (a, c), divides exactly for beta in the row whose
    first entry is nonzero, and multiplies out the other row.  So the word
    multiplies back to the input exactly.

    Every letter has det 1, so a word that multiplies back proves det m = 1:
    the determinant is computed only when det m is not 1 at t = 0 or t = 1
    (its constant term and its coefficient sum), the loop finds no unit
    pivot or the round trip fails, by ``_refuse``.
    """
    p = m.mod
    if p is None:
        raise ValueError("sl2fpt_elementary_factor expects coefficients mod p")
    a, b, c, d = m.coeffs
    # det m evaluated at t = 0 and t = 1 in O(n): a value other than 1 proves det m != 1
    if (((a[0] if a else 0) * (d[0] if d else 0) - (b[0] if b else 0) * (c[0] if c else 0)) % p != 1
            or (sum(a) * sum(d) - sum(b) * sum(c)) % p != 1):
        _refuse(m, "determinant at t = 0 or t = 1 is not 1")
    steps: list[tuple[str, tuple[int, ...]]] = []
    while c:
        if not a:
            if len(c) > 1:
                break  # gcd(a, c) = c is then no unit
            # a unit c: q = -c^-1 makes a - q*c = 1
            q = (-pow(c[0], -1, p) % p,)
            steps.append(("E12", q))
            a = _ONE
        elif len(c) < len(a):
            q, a = _divmod_coeffs(a, c, p)
            steps.append(("E12", q))
        else:
            q, c = _divmod_coeffs(c, a, p)
            steps.append(("E21", q))
    if c or len(a) != 1:
        _refuse(m, "Euclid loop ended without a unit pivot (implementation bug)")
    gens = [Gen(kind, Poly._canon(q, p), p) for kind, q in steps]
    if a[0] != 1:
        gens.append(Gen("D", a[0], p))
    # m = X * E12(beta) iff X's first column is (a, c) and each row's
    # second entry is x_i1 * beta + x_i2
    x11, x12, x21, x22 = _mat_prod([g._coeffs() for g in gens], p)
    a, b, c, d = m.coeffs
    rows = [(a, b, x12), (c, d, x22)]
    (e1, e2, x), (o1, o2, y) = rows if a else rows[::-1]
    beta, r = _divmod_coeffs(_dot(e2, _ONE, (p - 1,), x, p), e1, p)
    if (x11, x21) != (a, c) or r or _dot(o1, beta, _ONE, y, p) != o2:
        _refuse(m, "factorization failed to multiply back to its input")
    if beta:
        gens.append(Gen("E12", Poly._canon(beta, p), p))
    return gens


def _gen_forms(gens, mod: int | None) -> list[tuple[int, Form]]:
    """Generator letters tagged into the amalgam factors, as (factor,
    engine form) pairs over the ring ``mod``.

    E12 goes to the polynomial factor; D and W are constants in factor 1;
    E21(f) is rewritten as W^-1 E12(-f) W so that nonconstant shears stay
    expressible inside the two factors.
    """
    minus_one = -1 if mod is None else mod - 1
    w_form = (0, (minus_one,), 1, 0)
    w_inv = (0, (1,), minus_one, 0)  # -W, since W^2 = -I
    forms: list[tuple[int, Form]] = []
    for g in gens:
        if g.mod != mod:
            raise ValueError(f"generator {_shown(g, str)} is not over coefficients mod {mod}")
        if g.kind == "E21":
            forms += [(1, w_inv), (2, (1, _scale(g.arg.coeffs, -1, mod), 0, 1)), (1, w_form)]
        else:
            forms.append((2 if g.kind == "E12" else 1, _quad_form(g._coeffs())))
    return forms


def letters_from_gens(gens, mod: int | None = None) -> list[Letter]:
    """Tag generator letters into the amalgam factors, as ``_gen_forms``
    does, with each letter's matrix built from its form."""
    if mod is not None:
        _prime(mod)
    return [Letter(factor, _mat(x, mod)) for factor, x in _gen_forms(gens, mod)]


# -- normal forms ------------------------------------------------------


def _nf_by_degree_reduction(struct: AmalgamStructure, m: Mat2) -> tuple[Form, tuple[tuple[int, Form], ...]]:
    """Normal form by direct degree reduction, as engine forms (head, tail),
    peeling letters off the right until the rest lies in A (c = 0 and b
    constant), which is the head.

    Each last letter is read off the bottom row (c, d): when c = 0 it is
    E12(u^-1 * (b - b(0))) with u = a; when d has higher degree than c it is
    E12(q - q(0)) with q the quotient of d by c; otherwise it is the constant
    [[0, -1], [1, e]], with e the ratio of leading coefficients when the
    degrees tie and 0 when d is smaller.  Each peel applies the letter's
    inverse as a column operation on the coefficient tuples of the entries:
    E12(f) subtracts f times the first column from the second, [[0, -1],
    [1, e]] maps the columns (x, y) to (e*x - y, x).  The peel of E12(q -
    q(0)) always leaves a tie, or d smaller with q(0) = 0, so it is fused
    with the constant peel [[0, -1], [1, q(0)]] that follows: with d = q*c +
    r the two map (a, b, c, d) to (a*q - b, a, -r, c).  A peel is recorded as
    its f or its e, and the forms are built after the loop.  No ``Poly`` or
    ``Mat2`` is built, and only ``_check_forms`` on the output is shared
    with the rewriter this route checks.  The bounded column update assumes
    det m = 1, which ``sl2fpt_elementary_factor``'s round trip proves before
    this route runs.
    """
    p = struct.mod
    minus_one = (p - 1,)
    rev: list[tuple[int, ...] | int] = []
    a, b, c, d = m.coeffs
    # With L = len(c) + len(d), no peel raises L.  The tie peel lowers it, and
    # the fused peel, counted as two, lowers it by at least 2, since len(r) <
    # len(c) < len(d).  The constant peel with deg d < deg c keeps L and is
    # followed by the fused peel, by the c = 0 peel or by the end.  So while
    # c != 0, which keeps L at least 1, L drops by at least 1 per two counted
    # peels, but for a last constant peel; c = 0 takes one peel more: at most
    # 2 * L + 1 counted peels.
    peels_left = 2 * (len(c) + len(d)) + 1
    while c or len(b) > 1:
        if peels_left <= 0:
            raise RuntimeError("degree reduction passed its step bound (implementation bug)")
        peels_left -= 1
        if not c:
            if len(a) != 1 or len(d) != 1:
                raise RuntimeError("degree reduction left a nonconstant diagonal (implementation bug)")
            rev.append((0,) + _scale(b[1:], pow(a[0], -1, p), p))
            b = b[:1] if b[0] else ()
        elif len(d) > len(c):
            peels_left -= 1
            q, r = _divmod_coeffs(d, c, p)
            rev += [(0,) + q[1:], q[0]]
            # det = 1 after the peels, so (a*q - b)*c = 1 - a*r: a*q - b has
            # max(len(a) + len(r) - len(c), 1) coefficients, and 1 if r = ()
            n = max(len(a) + len(r) - len(c), 1) if r else 1
            a, b, c, d = _dot(a, q, minus_one, b, p, n), a, _scale(r, -1, p), c
        else:
            e = d[-1] * pow(c[-1], -1, p) % p if len(d) == len(c) else 0
            rev.append(e)
            e_poly = (e,) if e else ()
            a, b, c, d = _dot(e_poly, a, minus_one, b, p), a, _dot(e_poly, c, minus_one, d, p), c
    # c = () here; a head with a nonconstant diagonal is no form (None)
    head = (a[0], b, 0, d[0]) if len(a) == 1 and len(d) == 1 else None
    tail = tuple((1, (0, minus_one, 1, x)) if type(x) is int else (2, (1, x, 0, 1)) for x in reversed(rev))
    struct._check_forms(head, tail)
    return head, tail


def nagao_normal_form(p: int, m: Mat2) -> NormalForm:
    """Normal form of an SL2(F_p[t]) matrix, computed two independent ways.

    Route one factors the matrix into elementary letters and runs the
    checked rewrite of the engine on their forms; route two is the direct
    degree reduction.  The two must agree letter for letter on engine
    forms; a mismatch means an implementation bug and raises
    CrossValidationError.  The ``NormalForm`` is built once, for the answer.
    """
    struct = AmalgamStructure(p)
    return struct._build(*_nagao_forms(struct, m))


def _nagao_forms(struct: AmalgamStructure, m: Mat2) -> tuple[Form, tuple[tuple[int, Form], ...]]:
    """The cross-validated normal form of ``nagao_normal_form`` as engine
    forms (head, tail) over the ring of ``struct``."""
    p = struct.mod
    if m.mod != p:
        raise ValueError(f"matrix is not over coefficients mod {p}")
    gens = sl2fpt_elementary_factor(m)  # raises ValueError unless det m == 1
    by_rewriter = struct._rewrite([(f, struct._check_letter(f, x)) for f, x in _gen_forms(gens, p)])
    by_degrees = _nf_by_degree_reduction(struct, m)
    if by_rewriter != by_degrees:
        raise CrossValidationError(
            "normal form algorithms disagree (implementation bug): "
            f"{struct._build(*by_rewriter)} vs {struct._build(*by_degrees)}"
        )
    return by_rewriter


def e2zt_normal_form(word) -> NormalForm:
    """Normal form of a word in SL2(Z) and B(Z[t]) letters."""
    return AmalgamStructure().normalize(word)


def phi_p(word, p: int):
    """Reduce a word over E2(Z[t]) mod p; returns (matrix, normal form).

    Computed two ways that must agree: reduction of the evaluated matrix
    followed by ``nagao_normal_form``, and letterwise reduction followed by
    the checked rewrite.  Agreement is exactly the statement that reduction
    mod p is a homomorphism compatible with both amalgam decompositions.

    Each letter is checked into its engine form over Z once.  The word is
    multiplied out on coefficient quadruples by ``gl2._mat_prod``, and only
    the reduced product is built as a ``Mat2``; its cross-validated normal
    form comes as engine forms from ``_nagao_forms``, the core it shares
    with ``nagao_normal_form``.  The forms reduced mod p are checked for
    membership again before the rewrite, the two routes are compared on
    engine forms, and the ``NormalForm`` is built once, for the answer.
    """
    struct_z, struct_p = AmalgamStructure(), AmalgamStructure(_prime(p, "p must be prime, got {}"))
    word = [(l, struct_z._check_letter(l.factor, struct_z._form_of(l.mat), l.mat)) for l in word]
    x = _mat_prod([l.mat.coeffs for l, _ in word], None)
    mat_p = Mat2._of_coeffs([_reduce_coeffs(e, p) for e in x], p)
    via_matrix = _nagao_forms(struct_p, mat_p)
    reduced = [(l.factor, (a % p, _reduce_coeffs(b, p), c % p, d % p)) for l, (a, b, c, d) in word]
    via_word = struct_p._rewrite([(f, struct_p._check_letter(f, x)) for f, x in reduced])
    if via_matrix != via_word:
        raise CrossValidationError(
            "reduction mod p along words and along matrices disagree: "
            f"{struct_p._build(*via_matrix)} vs {struct_p._build(*via_word)}"
        )
    return mat_p, struct_p._build(*via_matrix)
