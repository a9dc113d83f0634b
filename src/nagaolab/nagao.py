"""Constructive decompositions in E2(R[t]) = SL2(R) *_{B(R)} B(R[t]).

Over R = F_p, matrices decompose into normal form by two independent
algorithms (elementary factorization fed through the rewriter of
``AmalgamStructure``, and direct degree reduction on columns);
``nagao_normal_form`` runs both and insists they agree letter for letter.

Over R = Z, elements enter as words in the two factors, never as bare
matrices: Z[t] is not Euclidean, so elementary membership of a raw
integer-polynomial matrix is not decidable by the methods here.  That is a
hard boundary of the API.  ``phi_p`` reduces such words mod p and checks the
result against the matrix decomposition over F_p.
"""

from __future__ import annotations

from .amalgam import AmalgamStructure, Letter, NormalForm, _form, _mat
from .gl2 import Gen, Mat2, e12, identity, w
from .ring import Poly

__all__ = [
    "CrossValidationError",
    "sl2z_factor",
    "sl2fpt_elementary_factor",
    "letters_from_gens",
    "nagao_normal_form",
    "e2zt_normal_form",
    "phi_p",
]


class CrossValidationError(RuntimeError):
    """Two supposedly equivalent computations disagreed; fails loudly."""


def _require_det_one(m: Mat2) -> None:
    if m.det() != Poly.one(m.mod):
        raise ValueError(f"determinant must be 1, got {m.det()}")


# -- elementary factorizations ---------------------------------------


def _verify_roundtrip(gens, m: Mat2) -> None:
    # emitted words must multiply back to the input, always
    prod = identity(m.mod)
    for g in gens:
        prod = prod * g.matrix()
    if prod != m:
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
    a, b, c, d = m.entries()
    gens: list[Gen] = []
    while not c.is_zero:
        if a.is_zero:
            # det = -bc = 1 here, so c is a nonzero constant
            q = Poly.constant(-pow(c.constant_term, -1, p), p)
            gens.append(Gen("E12", q, p))
            a, b = a - q * c, b - q * d
        elif c.degree < a.degree:
            q, r = divmod(a, c)
            gens.append(Gen("E12", q, p))
            a, b = r, b - q * d
        else:
            q, r = divmod(c, a)
            gens.append(Gen("E21", q, p))
            c, d = r, d - q * b
    u0 = a.constant_term
    if u0 != 1:
        gens.append(Gen("D", u0, p))
        b = pow(u0, -1, p) * b
    if not b.is_zero:
        gens.append(Gen("E12", b, p))
    _verify_roundtrip(gens, m)
    return gens


def letters_from_gens(gens, mod: int | None = None) -> list[Letter]:
    """Tag generator letters into the amalgam factors.

    E12 goes to the polynomial factor; D and W are constants in factor 1;
    E21(f) is rewritten as W^-1 E12(-f) W so that nonconstant shears stay
    expressible inside the two factors.
    """
    letters: list[Letter] = []
    w_mat, w_inv = w(mod), None
    for g in gens:
        if g.kind == "E12":
            letters.append(Letter(2, g.matrix()))
        elif g.kind == "E21":
            if w_inv is None:  # once per call, and only for a word with an E21
                w_inv = w_mat.inv()
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
    """Normal form by direct degree reduction, peeling letters off the right.

    The bottom row (c, d) decides everything.  In a reduced product the
    degree of d exceeds the degree of c exactly when the last letter is a
    transvection from the polynomial factor, in which case the quotient of
    d by c, minus its constant term, is the unique canonical shear to peel.
    Otherwise the last letter is a constant [[0, -1], [1, e]], with e the
    ratio of leading coefficients when degrees tie and 0 when d is smaller.
    Peeling stops at the first element the classifier places in a factor,
    which the transversal splits into head and at most one more letter.
    Each peel applies the letter's inverse to the entries as a column
    operation, with ``Poly`` operators and no ``Mat2`` product: peeling
    E12(f) subtracts f times the first column from the second, where
    d - c*f is the remainder of d by c plus q(0)*c; peeling [[0, -1], [1, e]]
    maps the columns (x, y) to (e*x - y, x).  Only the last split goes
    through the engine form of ``AmalgamStructure``, so this route checks
    the rewriter with arithmetic it does not share.
    """
    p = struct.mod
    rev: list[Letter] = []
    a, b, c, d = m.entries()
    cur = m
    while not (owners := struct.factors(cur)):
        if not d.is_zero and d.degree > c.degree:
            q, r = divmod(d, c)
            q0 = q.constant_term
            f = q - q0
            rev.append(Letter(2, e12(f)))
            b, d = b - a * f, r + q0 * c
        else:
            if not d.is_zero and d.degree == c.degree:
                e = d.leading_coeff * pow(c.leading_coeff, -1, p) % p
            else:
                e = 0
            rev.append(Letter(1, Mat2.of_ints(0, -1, 1, e, p)))
            a, b, c, d = e * a - b, a, e * c - d, c
        cur = Mat2._canon(a, b, c, d)
    factor = owners[-1]  # an element of A splits as itself in either factor
    head, s = struct.decompose(factor, _form(cur))
    first = () if s is None else (Letter(factor, _mat(s, p)),)
    nf = NormalForm(_mat(head, p), first + tuple(reversed(rev)))
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
    mat = struct_z.identity()
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
