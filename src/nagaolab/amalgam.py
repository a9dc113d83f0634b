"""Words and reduced normal forms in the amalgam E2(R[t]) = SL2(R) *_{B(R)} B(R[t]).

One ``AmalgamStructure`` covers both coefficient rings in use: R = Z
(``mod=None``) and R = F_p (``mod=p``, where E2(F_p[t]) = SL2(F_p[t]) by
Nagao's theorem).  Factor 1 is the constant group SL2(R), factor 2 the
upper-triangular group B(R[t]), glued along the constant upper-triangular
group A = B(R).  ``factors`` is the one membership decision, read from shape
and constant terms.  Every factor element splits as g = a * s with a in A and
s the canonical representative of the coset A*g (s is None exactly when g
itself lies in A).

The rewriting engine does not hold factor elements as ``Mat2``.  In both
factors a, c and d are constants and only b can be a polynomial, so an
element is held as its engine form, the tuple (a, b, c, d) with a, c, d
canonical ints (reduced mod p over F_p) and b the canonical coefficient
tuple of the upper-right entry; ``_quad_form`` is the one conversion of a
coefficient quadruple into a form, for ``_form_of`` and ``nagao``'s
generator letters.  ``_mul`` is the one product: int arithmetic
when both b entries are constant, a scalar times coefficient-tuple sum when
both lower-left entries are 0 (reduced mod p in the same pass), and a
RuntimeError (engine bug) for anything else.  ``transversal`` builds each
representative on forms and the A-part a = x * s^-1 in closed form, with no
product: [[a, b(0)], [0, d]] in factor 2, and from the ints in factor 1.  So
the one product of a split is the re-check in ``decompose``: a * s
reproduces the input, a lies in A and s in its factor only.  ``normalize``
is three steps: ``_check_letter`` checks each input letter into its form
(tag 1 or 2, membership on ``_factors``); ``_rewrite`` folds the (factor,
form) pairs with one ``decompose`` per maximal run of letters with one tag
(a factor is a subgroup, so a run multiplies out inside it, and the
normal form, being unique, does not depend on where the fold splits) and
checks the normal-form invariants of its result with ``_check_forms``;
``_build`` makes the ``Mat2`` objects of the returned ``NormalForm``.

Engine forms stay inside the package.  In ``nagao`` the Euclid word of
``nagao_normal_form`` and the reduced word of ``phi_p`` enter ``_rewrite``
as forms, each checked by ``_check_letter``, and both routes are compared
on forms.  The oracles that check the engine share no arithmetic with it.
``nf_evaluate``, the Euclid factorization's round trip and ``phi_p``'s
product over Z multiply the entries' coefficient tuples with
``gl2._mat_prod``: a word of short letter entries on packed integers,
read back only when a slot could overflow (over F_p to reduce mod p), and
otherwise, or over Z from where a letter's coefficients pass 63 bits, the
left fold of ``gl2._mat_mul``.  The factorization and the degree reduction
work by column operations on them with the ``ring`` kernels, and the
degree reduction shares only ``_check_forms`` on its output with the
engine.

A ``NormalForm``, the named tuple (head, tail) of a matrix and ``Letter``
named tuples (factor, mat), is head * s_1 * ... * s_n with head in A, every
s_j a nontrivial canonical representative, and consecutive s_j from
different factors.  Such expressions are unique, so structural equality of
normal forms decides equality in the group; evaluation back to a matrix is
kept around as an independent oracle, never as the definition.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import groupby, zip_longest
from operator import itemgetter

from .gl2 import Mat2, _mat_prod, _unit_inverse
from .limits import _prime, _shown
from .ring import _scale, _strip

__all__ = ["Letter", "NormalForm", "AmalgamStructure"]

# An engine form (a, b, c, d): ints a, c, d and the coefficient tuple b.
Form = tuple[int, tuple[int, ...], int, int]

# The identity as an engine form, canonical over every ring.
_IDENTITY: Form = (1, (), 0, 1)


def _mat(x: Form, mod: int | None) -> Mat2:
    """The matrix of an engine form over the ring ``mod``."""
    a, b, c, d = x
    return Mat2._of_coeffs(((a,) if a else (), b, (c,) if c else (), (d,) if d else ()), mod)


def _quad_form(quad) -> Form | None:
    """The engine form of a coefficient quadruple (a, b, c, d), or None when
    a, c or d is not constant; the one conversion into engine forms."""
    a, b, c, d = quad
    if len(a) > 1 or len(c) > 1 or len(d) > 1:
        return None
    return (a[0] if a else 0, b, c[0] if c else 0, d[0] if d else 0)


class Letter(namedtuple("Letter", "factor mat")):
    """A word letter: a matrix together with the factor (1 or 2) it came from."""

    __slots__ = ()


class NormalForm(namedtuple("NormalForm", "head tail")):
    __slots__ = ()

    @property
    def length(self) -> int:
        """Reduced word length; 0 exactly when the element lies in A."""
        return len(self.tail)

    @property
    def tags(self) -> tuple[int, ...]:
        return tuple(letter.factor for letter in self.tail)


class AmalgamStructure:
    """SL2(R) and B(R[t]) glued over B(R), for R = Z or R = F_p.

    Coset conventions, fixed once: for the constant factor the
    representative completes the bottom row (c, d), scaled by the unit that
    makes c canonical (c > 0 over Z, c = 1 over F_p), to [[x, (x*d - 1)/c],
    [c, d]] with x = d^-1 mod c; over F_p that is [[0, -1], [1, d]].  For the
    polynomial factor it is the transvection E12(u^-1 * (f - f(0))),
    unipotent with zero constant term."""

    def __init__(self, mod: int | None = None):
        if mod is not None:
            _prime(mod, "p must be prime, got {}")
        self.mod = mod

    def factors(self, m: Mat2) -> tuple[int, ...]:
        """The factors that contain m: (1, 2) for the base A = B(R), (1,) or
        (2,) for one factor only, () for neither or for another ring.

        A member of either factor has constant a, c and d (over the domain
        R[t], a*d = 1 forces this when c = 0), so anything else is refused
        here and the rest is decided on the engine form."""
        x = self._form_of(m)
        return () if x is None else self._factors(x)

    def _form_of(self, m: Mat2) -> Form | None:
        """The engine form of m, or None when m is over another ring or has
        a nonconstant a, c or d entry and so lies in neither factor."""
        return _quad_form(m.coeffs) if m.mod == self.mod else None

    # -- engine: factor elements as forms (a, b, c, d) --------------------

    def _factors(self, x: Form) -> tuple[int, ...]:
        """``factors`` of an engine form, decided with no polynomial product:
        b is constant too unless c = 0, when b does not enter the
        determinant; so det = a*d - b0*c, reduced mod p over F_p."""
        a, b, c, d = x
        if c and len(b) > 1:
            return ()
        det = a * d - (b[0] * c if b else 0)
        if (det if self.mod is None else det % self.mod) != 1:
            return ()
        return (1,) if c else (1, 2) if len(b) < 2 else (2,)

    def _mul(self, x: Form, y: Form) -> Form:
        """The product of two engine forms from one factor: two constant
        matrices, or two upper-triangular ones."""
        mod = self.mod
        a, b, c, d = x
        e, f, g, h = y
        if len(b) < 2 and len(f) < 2:
            b = b[0] if b else 0
            f = f[0] if f else 0
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            if mod is not None:
                a, b, c, d = a % mod, b % mod, c % mod, d % mod
            return (a, (b,) if b else (), c, d)
        if c or g:
            raise RuntimeError("engine product of elements outside one factor (engine bug)")
        # [[a, b], [0, d]] * [[e, f], [0, h]] = [[a*e, a*f + b*h], [0, d*h]]
        pairs = zip_longest(b, f, fillvalue=0)
        if mod is None:
            return (a * e, _strip([a * fi + h * bi for bi, fi in pairs]), 0, d * h)
        return (a * e % mod, _strip([(a * fi + h * bi) % mod for bi, fi in pairs]), 0, d * h % mod)

    def transversal(self, factor: int, x: Form) -> tuple[Form, Form | None]:
        """Split a factor element as (a, s) with x = a * s; s None iff x in A."""
        mod = self.mod
        a, b, c, d = x
        if factor == 1:
            if c == 0:
                return x, None
            # Scale the bottom row by the unit u that makes c canonical:
            # u = sign(c) over Z, u = c^-1 over F_p (so c becomes 1).  Under
            # det 1, s^-1 = [[d, -y], [-c, r]] for s = [[r, y], [c, d]], and
            # x * s^-1 = [[a*d - b*c, b*r - a*y], [0, u^-1]] in the scaled c
            # and d, since x's bottom row is u^-1 times s's.
            b = b[0] if b else 0
            if mod is None:
                u_inv = 1 if c > 0 else -1  # u = u^-1
                c, d = c * u_inv, d * u_inv
                r = pow(d, -1, c)
                y = (r * d - 1) // c
                head, top = a * d - b * c, b * r - a * y
            else:  # u^-1 = c, r = 0 and y = -1
                u_inv, c, d = c, 1, d * pow(c, -1, mod) % mod
                r, y = 0, mod - 1
                head, top = (a * d - b) % mod, a
            s = (r, (y,) if y else (), c, d)
            if self._factors(s) != (1,):
                raise RuntimeError("coset representative has determinant other than 1 (engine bug)")
            return (head, (top,) if top else (), 0, u_inv), s
        if len(b) < 2:
            return x, None
        # s = E12(r) with r = u^-1 * (f - f(0)), u = a, and x * s^-1 =
        # [[a, f - a*r], [0, d]] = [[a, f(0)], [0, d]]
        return (a, b[:1] if b[0] else (), 0, d), (1, (0,) + _scale(b[1:], _unit_inverse(a, mod), mod), 0, 1)

    def decompose(self, factor: int, x: Form) -> tuple[Form, Form | None]:
        """Transversal split of an engine form with the exactness re-check.

        The check a * s == x, with a in A and s in the given factor only, is
        the single trust anchor of the rewriting engine, so it runs on every
        decomposition."""
        a, s = self.transversal(factor, x)
        if s is None:
            if self._factors(x) != (1, 2):
                raise RuntimeError(
                    "transversal returned no representative for an element "
                    "outside the base subgroup"
                )
            return x, None
        if self._mul(a, s) != x or self._factors(a) != (1, 2) or self._factors(s) != (factor,):
            raise RuntimeError("transversal decomposition failed the exactness check")
        return a, s

    def normalize(self, word: Iterable[Letter]) -> NormalForm:
        """Rewrite an arbitrary word into its unique reduced alternating form.

        Each letter is checked into its engine form, the forms go through
        the checked rewrite ``_rewrite``, and the result is built once."""
        checked = [(l.factor, self._check_letter(l.factor, self._form_of(l.mat), l.mat)) for l in word]
        return self._build(*self._rewrite(checked))

    def _rewrite(self, word: list[tuple[int, Form]]) -> tuple[Form, tuple[tuple[int, Form], ...]]:
        """The normal form (head, tail) of a word of (factor, form) pairs
        whose forms have passed ``_check_letter``, as engine forms.

        Letters are folded in from the right, one maximal run of letters
        with the same tag at a time, so base-subgroup parts accumulate
        leftward into the head.  To prepend a run g_1 ... g_k (factor f)
        onto an already normal suffix a * s_1 ... s_n:

          * the run absorbs the head: h = g_1 ... g_k * a, still inside
            factor f, which is a subgroup;
          * if s_1 also lies in factor f it is absorbed as well (after which
            the next tail letter is from the other factor, by alternation);
          * h splits through the factor-f transversal as h = a' * s'; when h
            lies in A the tail is untouched and h becomes the head, otherwise
            s' becomes the new first tail letter and a' the head.

        Folding the run's letters one at a time would split each partial
        product and merge the next letter back into the split; the normal
        form is unique, so one split of the whole run gives the same form.
        One checked ``decompose`` per run, and the tail is kept as a list of
        (factor, form) pairs in reverse order (its first letter last), so
        the rewrite is linear in word length.  The result passes
        ``_check_forms`` before it is returned."""
        mul, decompose = self._mul, self.decompose
        head, rtail = _IDENTITY, []
        for factor, run in groupby(reversed(word), itemgetter(0)):
            h = head
            for _, x in run:
                h = mul(x, h)
            if rtail and rtail[-1][0] == factor:
                h = mul(h, rtail.pop()[1])
            head, s = decompose(factor, h)
            if s is not None:
                rtail.append((factor, s))
        tail = tuple(reversed(rtail))
        self._check_forms(head, tail)
        return head, tail

    def _build(self, head: Form, tail: Iterable[tuple[int, Form]]) -> NormalForm:
        """The ``NormalForm`` of a checked (head, tail) of engine forms."""
        mod = self.mod
        return NormalForm(_mat(head, mod), tuple(Letter(f, _mat(s, mod)) for f, s in tail))

    def _check_letter(self, factor: int, x: Form | None, mat: Mat2 | None = None) -> Form:
        """Refuse a word letter whose tag is not 1 or 2 or whose engine form
        x is not in the factor the tag names (None stands for a matrix in
        neither factor); returns x.  The message quotes the letter's matrix
        ``mat``, built from x when not given, by ``_shown``."""
        if factor not in (1, 2):
            raise ValueError(f"factor tag must be 1 or 2, got {_shown(factor)}")
        if x is None or factor not in self._factors(x):
            shown = mat if mat is not None else _mat(x, self.mod)
            raise ValueError(f"letter {_shown(shown, str)} fails membership in factor {factor}")
        return x

    def nf_evaluate(self, nf: NormalForm) -> Mat2:
        """Multiply the normal form back out to the group element, on coefficient tuples."""
        mod = nf.head.mod
        if any(letter.mat.mod != mod for letter in nf.tail):
            raise ValueError("modulus mismatch between matrix factors")
        quads = [nf.head.coeffs] + [letter.mat.coeffs for letter in nf.tail]
        return Mat2._of_coeffs(_mat_prod(quads, mod), mod)

    def _check_forms(self, head: Form | None, tail: Iterable[tuple[int, Form | None]]) -> None:
        """The normal-form invariants on engine forms: head in A, each tail
        letter in its tagged factor alone, tags alternating.  A None form
        (a matrix in neither factor) fails as a head or a letter would."""
        if head is None or self._factors(head) != (1, 2):
            raise RuntimeError("normal form head left the base subgroup (engine bug)")
        prev = None
        for factor, x in tail:
            if x is None or self._factors(x) != (factor,):
                raise RuntimeError("normal form tail letter is not in its factor alone (engine bug)")
            if prev == factor:
                raise RuntimeError("normal form tags fail to alternate (engine bug)")
            prev = factor
