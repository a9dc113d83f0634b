"""Words and reduced normal forms in the amalgam E2(R[t]) = SL2(R) *_{B(R)} B(R[t]).

One ``AmalgamStructure`` covers both coefficient rings in use: R = Z
(``mod=None``) and R = F_p (``mod=p``, where E2(F_p[t]) = SL2(F_p[t]) by
Nagao's theorem).  Factor 1 is the constant group SL2(R), factor 2 the
upper-triangular group B(R[t]), glued along the constant upper-triangular
group A = B(R).  ``factors`` is the one membership decision, read from shape
and constant terms.  Every factor element splits as g = a * s with a in A and
s the canonical representative of the coset A*g (s is None exactly when g
itself lies in A).  Element arithmetic is delegated to Mat2.

A ``NormalForm`` is head * s_1 * ... * s_n with head in A, every s_j a
nontrivial canonical representative, and consecutive s_j from different
factors.  Such expressions are unique, so structural equality of normal
forms decides equality in the group; evaluation back to a matrix is kept
around as an independent oracle, never as the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .gl2 import Mat2, _unit_inverse, e12, identity
from .ring import Poly, is_prime

__all__ = ["Letter", "NormalForm", "AmalgamStructure"]


@dataclass(frozen=True)
class Letter:
    """A word letter: a matrix together with the factor (1 or 2) it came from."""

    factor: int
    mat: Mat2


@dataclass(frozen=True)
class NormalForm:
    head: Mat2
    tail: tuple[Letter, ...]

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
        if mod is not None and not is_prime(mod):
            raise ValueError(f"p must be prime, got {mod!r}")
        self.mod = mod

    def identity(self) -> Mat2:
        return identity(self.mod)

    def factors(self, m: Mat2) -> tuple[int, ...]:
        """The factors that contain m: (1, 2) for the base A = B(R), (1,) or
        (2,) for one factor only, () for neither or for another ring.

        Decided from shape and constant terms, with no polynomial product.
        A member of either factor has constant a, c and d (over the domain
        R[t], a*d = 1 forces this when c = 0), and b is constant too unless
        c = 0, when b does not enter the determinant; so det m is
        a0*d0 - b0*c0, reduced mod p over F_p."""
        if m.mod != self.mod or not (m.a.is_constant and m.c.is_constant and m.d.is_constant):
            return ()
        a, b, c, d = (e.constant_term for e in m.entries())
        if c and not m.b.is_constant:
            return ()
        det = a * d - b * c
        if (det if self.mod is None else det % self.mod) != 1:
            return ()
        return (1,) if c else (1, 2) if m.b.is_constant else (2,)

    def transversal(self, factor: int, m: Mat2) -> tuple[Mat2, Mat2 | None]:
        """Split a factor element as (a, s) with m = a * s; s None iff m in A."""
        mod = self.mod
        if factor == 1:
            c, d = m.c.constant_term, m.d.constant_term
            if c == 0:
                return m, None
            # Scale the bottom row by the unit u that makes c canonical:
            # u = sign(c) over Z, u = c^-1 over F_p (so c becomes 1).
            u = (1 if c > 0 else -1) if mod is None else pow(c, -1, mod)
            c, d = (c * u if mod is None else 1), d * u
            x = pow(d, -1, c)
            s = Mat2.of_ints(x, (x * d - 1) // c, c, d, mod)
        else:
            f = m.b
            rep = _unit_inverse(m.a.constant_term, mod) * (f - Poly.constant(f.constant_term, mod))
            if rep.is_zero:
                return m, None
            s = e12(rep)
        return m * s.inv(), s

    # -- engine ---------------------------------------------------------

    def decompose(self, factor: int, m: Mat2) -> tuple[Mat2, Mat2 | None]:
        """Transversal split with the exactness re-check.

        The check a * s == m, with a in A and s in the given factor only, is
        the single trust anchor of the rewriting engine, so it runs on every
        decomposition."""
        a, s = self.transversal(factor, m)
        if s is None:
            if self.factors(m) != (1, 2):
                raise RuntimeError(
                    "transversal returned no representative for an element "
                    "outside the base subgroup"
                )
            return m, None
        if a * s != m or self.factors(a) != (1, 2) or self.factors(s) != (factor,):
            raise RuntimeError("transversal decomposition failed the exactness check")
        return a, s

    def identity_nf(self) -> NormalForm:
        return NormalForm(self.identity(), ())

    def normalize(self, word: Iterable[Letter]) -> NormalForm:
        """Rewrite an arbitrary word into its unique reduced alternating form.

        Letters are folded in from the right, so base-subgroup parts
        accumulate leftward into the head.  To prepend a letter g (factor f)
        onto an already normal suffix a * s_1 ... s_n:

          * g absorbs the head: h = g * a, still inside factor f;
          * if s_1 also lies in factor f it is absorbed as well (after which
            the next tail letter is from the other factor, by alternation);
          * h splits through the factor-f transversal as h = a' * s'; when h
            lies in A the tail is untouched and h becomes the head, otherwise
            s' becomes the new first tail letter and a' the head.

        One transversal decomposition per input letter, and the tail is kept
        as a list in reverse order (its first letter last), so the rewrite is
        linear in word length."""
        head, rtail = self.identity(), []
        for letter in reversed(list(word)):
            self._check_letter(letter)
            factor = letter.factor
            h = letter.mat * head
            if rtail and rtail[-1].factor == factor:
                h = h * rtail.pop().mat
            head, s = self.decompose(factor, h)
            if s is not None:
                rtail.append(Letter(factor, s))
        nf = NormalForm(head, tuple(reversed(rtail)))
        self._check_normal_form(nf)
        return nf

    def _check_letter(self, letter: Letter) -> None:
        """Refuse a word letter whose tag is not 1 or 2 or whose matrix is
        not in the factor the tag names."""
        if letter.factor not in (1, 2):
            raise ValueError(f"factor tag must be 1 or 2, got {letter.factor!r}")
        if letter.factor not in self.factors(letter.mat):
            raise ValueError(
                f"letter {letter.mat} fails membership in factor {letter.factor}"
            )

    def nf_evaluate(self, nf: NormalForm) -> Mat2:
        """Multiply the normal form back out to the group element."""
        m = nf.head
        for letter in nf.tail:
            m = m * letter.mat
        return m

    def word_of(self, nf: NormalForm) -> tuple[Letter, ...]:
        """The normal form as a plain word (head tagged into factor 1)."""
        head = () if nf.head.is_identity else (Letter(1, nf.head),)
        return head + nf.tail

    def nf_multiply(self, x: NormalForm, y: NormalForm) -> NormalForm:
        if x.head.mod != y.head.mod or x.head.mod != self.mod:
            raise ValueError("normal forms come from different structures")
        return self.normalize(self.word_of(x) + self.word_of(y))

    def _check_normal_form(self, nf: NormalForm) -> None:
        if self.factors(nf.head) != (1, 2):
            raise RuntimeError("normal form head left the base subgroup (engine bug)")
        prev = None
        for letter in nf.tail:
            if self.factors(letter.mat) != (letter.factor,):
                raise RuntimeError("normal form tail letter is not in its factor alone (engine bug)")
            if prev == letter.factor:
                raise RuntimeError("normal form tags fail to alternate (engine bug)")
            prev = letter.factor
