"""Constructive decompositions in E2(R[t]) = SL2(R) *_{B(R)} B(R[t]).

Over R = F_p, matrices decompose into normal form by two independent
algorithms (elementary factorization fed through the rewriter of
``AmalgamStructure``, and direct degree reduction on columns, which shares
only the normal-form check with the rewriter); ``nagao_normal_form`` runs
both and insists they agree letter for letter.

Over R = Z, elements enter as words in the two factors, never as bare
matrices: Z[t] is not Euclidean, so elementary membership of a raw
integer-polynomial matrix is not decidable by the methods here.  That is a
hard boundary of the API.  ``phi_p`` reduces such words mod p and checks the
result against the matrix decomposition over F_p.
"""

from __future__ import annotations

from .amalgam import AmalgamStructure, Letter, NormalForm
from .gl2 import Gen, Mat2, _unit_inverse, e12, identity, w
from .ring import Poly, _divmod_coeffs, _dot, _scale

__all__ = [
    "CrossValidationError",
    "sl2z_factor",
    "sl2fpt_elementary_factor",
    "letters_from_gens",
    "nagao_normal_form",
    "e2zt_normal_form",
    "phi_p",
]


# Cap on Euclid steps x input degree in sl2fpt_elementary_factor, which
# bounds the quadratic cost of a bare matrix through nagao_normal_form.  The
# slowest accepted matrices measured (p near 2**64) ran in under 4 s.
MAX_EUCLID_WORK = 1_000_000


# The oracles below work on the canonical coefficient tuples of the entries
# with the ``ring`` kernels, where x + f*y is _dot(x, _ONE, f, y, mod), and
# build their Gen, Letter and Mat2 objects once, at the end.
_ONE = (1,)


class CrossValidationError(RuntimeError):
    """Two supposedly equivalent computations disagreed; fails loudly."""


def _require_det_one(m: Mat2) -> None:
    if m.det() != Poly.one(m.mod):
        raise ValueError(f"determinant must be 1, got {m.det()}")


# -- elementary factorizations ---------------------------------------


def _verify_roundtrip(gens, m: Mat2) -> None:
    """Refuse a word that does not multiply back to m exactly.

    The word acts on the identity by column operations: E12(f) adds f times
    the first column to the second, E21(f) f times the second to the first,
    D(u) scales the columns by u and u^-1, and W maps (x, y) to (y, -x)."""
    mod = m.mod
    a, b, c, d = _ONE, (), (), _ONE
    for g in gens:
        if g.kind == "E12":
            f = g.arg.coeffs
            b, d = _dot(b, _ONE, f, a, mod), _dot(d, _ONE, f, c, mod)
        elif g.kind == "E21":
            f = g.arg.coeffs
            a, c = _dot(a, _ONE, f, b, mod), _dot(c, _ONE, f, d, mod)
        elif g.kind == "D":
            u = g.arg if mod is None else g.arg % mod
            v = _unit_inverse(g.arg, mod)
            a, b, c, d = _scale(a, u, mod), _scale(b, v, mod), _scale(c, u, mod), _scale(d, v, mod)
        else:
            a, b, c, d = b, _scale(a, -1, mod), d, _scale(c, -1, mod)
    if (a, b, c, d) != tuple(e.coeffs for e in m.entries()):
        raise RuntimeError("factorization failed to multiply back to its input")


def sl2z_factor(m: Mat2) -> list[Gen]:
    """Factor an SL2(Z) matrix into E12(n), E21(n), W letters.

    Euclidean algorithm on the first column: while the lower-left entry is
    nonzero, peel E12(q) with the integer quotient, then a W swap; finish
    with the upper-triangular cleanup (W W for the sign, one E12 for the
    shear).  The word multiplies back to the input exactly.
    """
    if m.mod is not None or not m.is_constant:
        raise ValueError("sl2z_factor expects a constant integer matrix")
    _require_det_one(m)
    a, b, c, d = (e.constant_term for e in m.entries())
    gens: list[Gen] = []
    while c != 0:
        if abs(a) >= abs(c):
            q, r = divmod(a, c)
            if q:
                gens.append(Gen("E12", Poly.constant(q), None))
                a, b = r, b - q * d
        gens.append(Gen("W", None, None))
        a, b, c, d = c, d, -a, -b
    if a == -1:
        gens.extend([Gen("W", None, None), Gen("W", None, None)])
        a, b, c, d = -a, -b, -c, -d
    if b:
        gens.append(Gen("E12", Poly.constant(b), None))
    _verify_roundtrip(gens, m)
    return gens


def sl2fpt_elementary_factor(m: Mat2) -> list[Gen]:
    """Factor an SL2(F_p[t]) matrix into E12(f), E21(f), D(u) letters.

    F_p[t] is Euclidean, so the Euclidean algorithm on the first column
    terminates with an upper-triangular matrix whose diagonal is a unit
    (det 1 makes gcd(a, c) a unit).  Degree comparisons pick which row
    reduces; a zero upper-left entry forces the lower-left to be a unit,
    and one shear restores a nonzero pivot.  The word multiplies back to
    the input exactly.
    """
    p = m.mod
    if p is None:
        raise ValueError("sl2fpt_elementary_factor expects coefficients mod p")
    _require_det_one(m)
    a, b, c, d = (e.coeffs for e in m.entries())
    degree = max(len(a), len(b), len(c), len(d)) - 1
    steps: list[tuple[str, tuple[int, ...]]] = []
    while c:
        if len(steps) * degree > MAX_EUCLID_WORK:
            raise ValueError(f"matrix has Euclid steps x degree above the work cap {MAX_EUCLID_WORK}")
        if not a:
            # det = -bc = 1 here, so c is a nonzero constant: q = -c^-1
            # makes a - q*c = 1
            q = (-pow(c[0], -1, p) % p,)
            steps.append(("E12", q))
            a, b = _ONE, _dot(b, _ONE, _scale(q, -1, p), d, p)
        elif len(c) < len(a):
            q, a = _divmod_coeffs(a, c, p)
            steps.append(("E12", q))
            b = _dot(b, _ONE, _scale(q, -1, p), d, p)
        else:
            q, c = _divmod_coeffs(c, a, p)
            steps.append(("E21", q))
            d = _dot(d, _ONE, _scale(q, -1, p), b, p)
    gens = [Gen(kind, Poly._canon(q, p), p) for kind, q in steps]
    u0 = a[0]
    if u0 != 1:
        gens.append(Gen("D", u0, p))
        b = _scale(b, pow(u0, -1, p), p)
    if b:
        gens.append(Gen("E12", Poly._canon(b, p), p))
    _verify_roundtrip(gens, m)
    return gens


def letters_from_gens(gens, mod: int | None = None) -> list[Letter]:
    """Tag generator letters into the amalgam factors.

    E12 goes to the polynomial factor; D and W are constants in factor 1;
    E21(f) is rewritten as W^-1 E12(-f) W so that nonconstant shears stay
    expressible inside the two factors.
    """
    letters: list[Letter] = []
    w_mat = w(mod)
    w_inv = -w_mat  # W^2 = -I
    for g in gens:
        if g.kind == "E12":
            letters.append(Letter(2, g.matrix()))
        elif g.kind == "E21":
            letters.extend(
                [
                    Letter(1, w_inv),
                    Letter(2, e12(-g.arg)),
                    Letter(1, w_mat),
                ]
            )
        else:
            letters.append(Letter(1, g.matrix()))
    return letters


# -- normal forms ------------------------------------------------------


def _nf_by_degree_reduction(struct: AmalgamStructure, m: Mat2) -> NormalForm:
    """Normal form by direct degree reduction, peeling letters off the right
    until the rest lies in A (c = 0 and b constant), which is the head.

    Each last letter is read off the bottom row (c, d): when c = 0 it is
    E12(u^-1 * (b - b(0))) with u = a; when d has higher degree than c it is
    E12(q - q(0)) with q the quotient of d by c; otherwise it is the constant
    [[0, -1], [1, e]], with e the ratio of leading coefficients when the
    degrees tie and 0 when d is smaller.  Each peel applies the letter's
    inverse as a column operation on the coefficient tuples of the entries:
    E12(f) subtracts f times the first column from the second, [[0, -1],
    [1, e]] maps the columns (x, y) to (e*x - y, x).  A peel is recorded as
    its f or its e, and the letters are built after the loop.  Only
    ``_check_normal_form`` on the output is shared with the rewriter this
    route checks.
    """
    p = struct.mod
    minus_one = (p - 1,)
    rev: list[tuple[int, ...] | int] = []
    a, b, c, d = (e.coeffs for e in m.entries())
    # With L = len(c) + len(d), no peel raises L; an E12 peel with c != 0 and
    # the tie case of the constant peel lower it, and the constant peel with
    # deg d < deg c is followed by c = 0 or by an E12 peel.  So every two
    # peels with c != 0 lower L, which is at least 1 while c != 0, and c = 0
    # takes one peel more: at most 2 * L + 1 peels.
    peels_left = 2 * (len(c) + len(d)) + 1
    while c or len(b) > 1:
        if not peels_left:
            raise RuntimeError("degree reduction passed its step bound (implementation bug)")
        peels_left -= 1
        if not c or len(d) > len(c):
            if not c:  # then a and d are constant
                f = (0,) + _scale(b[1:], pow(a[0], -1, p), p)
            else:  # d - c*f is the remainder of d by c plus q(0)*c
                q, r = _divmod_coeffs(d, c, p)
                f = (0,) + q[1:]
                d = _dot(r, _ONE, q[:1] if q[0] else (), c, p)
            rev.append(f)
            b = _dot(b, _ONE, _scale(a, -1, p), f, p)
        else:
            e = d[-1] * pow(c[-1], -1, p) % p if len(d) == len(c) else 0
            rev.append(e)
            e_poly = (e,) if e else ()
            a, b, c, d = _dot(e_poly, a, minus_one, b, p), a, _dot(e_poly, c, minus_one, d, p), c
    tail = tuple(
        Letter(1, Mat2.of_ints(0, -1, 1, x, p)) if type(x) is int else Letter(2, e12(Poly._canon(x, p)))
        for x in reversed(rev)
    )
    nf = NormalForm(Mat2._canon(*(Poly._canon(x, p) for x in (a, b, c, d))), tail)
    struct._check_normal_form(nf)
    return nf


def nagao_normal_form(p: int, m: Mat2) -> NormalForm:
    """Normal form of an SL2(F_p[t]) matrix, computed two independent ways.

    Route one factors the matrix into elementary letters and runs the
    generic rewriter; route two is the direct degree reduction.  The two
    must agree letter for letter; a mismatch means an implementation bug
    and raises CrossValidationError.
    """
    struct = AmalgamStructure(p)
    if m.mod != p:
        raise ValueError(f"matrix is not over coefficients mod {p}")
    gens = sl2fpt_elementary_factor(m)  # raises ValueError unless det m == 1
    by_rewriter = struct.normalize(letters_from_gens(gens, p))
    by_degrees = _nf_by_degree_reduction(struct, m)
    if by_rewriter != by_degrees:
        raise CrossValidationError(
            "normal form algorithms disagree (implementation bug): "
            f"{by_rewriter} vs {by_degrees}"
        )
    return by_rewriter


def e2zt_normal_form(word) -> NormalForm:
    """Normal form of a word in SL2(Z) and B(Z[t]) letters."""
    return AmalgamStructure().normalize(word)


def phi_p(word, p: int):
    """Reduce a word over E2(Z[t]) mod p; returns (matrix, normal form).

    Computed two ways that must agree: letterwise reduction followed by the
    rewriter, and reduction of the evaluated matrix followed by the matrix
    decomposition.  Agreement is exactly the statement that reduction mod p
    is a homomorphism compatible with both amalgam decompositions.
    """
    struct_z, struct_p = AmalgamStructure(), AmalgamStructure(p)
    word = list(word)
    for letter in word:
        struct_z._check_letter(letter)
    mat = identity()
    for letter in word:
        mat = mat * letter.mat
    mat_p = mat.reduce_mod_p(p)
    via_matrix = nagao_normal_form(p, mat_p)
    reduced_word = [Letter(l.factor, l.mat.reduce_mod_p(p)) for l in word]
    via_word = struct_p.normalize(reduced_word)
    if via_matrix != via_word:
        raise CrossValidationError(
            "reduction mod p along words and along matrices disagree"
        )
    return mat_p, via_matrix
