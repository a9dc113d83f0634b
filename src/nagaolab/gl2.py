"""2x2 matrices over Z[t] and F_p[t].

Covers what the group algorithms need: products, determinants, the closed
form inverse for determinant 1, entrywise reduction mod p, and unipotence.
Standard generators (transvections, diagonal units, the order-4 rotation W)
come as ``Gen`` named tuples, which factorization words and the CLI
shorthand use; ``Gen._coeffs`` alone spells out their matrices, and
``identity``, ``e12``, ``e21``, ``diag`` and ``w`` return ``Gen(...).matrix()``.

Products and determinants do not go through the ``Poly`` operators.  A
``Mat2``, like a ``Poly``, is a ``ring._Value``: its ``coeffs`` are its
entries' canonical coefficient tuples (a, b, c, d), and ``a``, ``b``, ``c``
and ``d`` are ``Poly`` views built on each read.  ``_mat_mul`` is the one
2x2 product on such quadruples, for ``Mat2.__mul__``; its left fold
``_mat_prod`` is the one word product, for ``nf_evaluate`` and ``nagao``'s
round trip and ``phi_p``.  The public constructor checks that the four
entries share a ring; the trusted ``_of_coeffs`` stores the results of
arithmetic on valid matrices, and those of ``Gen.matrix`` and
``reduce_mod_p`` after one check of the modulus.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .limits import _int_of, _prime, _shown
from .ring import Poly, PolyParseError, _Value, _dot, _reduce_coeffs, _scale

__all__ = [
    "Mat2",
    "Gen",
    "identity",
    "e12",
    "e21",
    "diag",
    "w",
    "parse_gen",
    "parse_matrix",
    "mat_from_json",
]

_Quad = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]  # [[a, b], [c, d]]

_ONE = (1,)
_IDENTITY_QUAD: _Quad = (_ONE, (), (), _ONE)  # the identity over every ring


def _mat_mul(x: _Quad, y: _Quad, mod: int | None) -> _Quad:
    """The product of two coefficient quadruples, one ``ring._dot`` per entry."""
    a, b, c, d = x
    e, f, g, h = y
    return (_dot(a, e, b, g, mod), _dot(a, f, b, h, mod), _dot(c, e, d, g, mod), _dot(c, f, d, h, mod))


def _mat_prod(quads, mod: int | None) -> _Quad:
    """The product of a word of coefficient quadruples, folded from the left
    with ``_mat_mul``; the identity for the empty word."""
    x = _IDENTITY_QUAD
    for y in quads:
        x = _mat_mul(x, y, mod)
    return x


class Mat2(_Value):
    """Row-major 2x2 matrix [[a, b], [c, d]], held as its entries' coefficient tuples."""

    __slots__ = ()

    def __init__(self, a: Poly, b: Poly, c: Poly, d: Poly):
        if not a.mod == b.mod == c.mod == d.mod:
            raise ValueError("matrix entries use mismatched coefficient rings")
        object.__setattr__(self, "coeffs", (a.coeffs, b.coeffs, c.coeffs, d.coeffs))
        object.__setattr__(self, "mod", a.mod)

    @classmethod
    def _of_coeffs(cls, x, mod: int | None) -> "Mat2":
        """Trusted construction from canonical coefficient tuples; it checks nothing."""
        return cls._canon(tuple(x), mod)

    # the entries, as Poly views built on each read
    a = property(lambda self: Poly._canon(self.coeffs[0], self.mod))
    b = property(lambda self: Poly._canon(self.coeffs[1], self.mod))
    c = property(lambda self: Poly._canon(self.coeffs[2], self.mod))
    d = property(lambda self: Poly._canon(self.coeffs[3], self.mod))

    def entries(self) -> tuple[Poly, Poly, Poly, Poly]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        mod = self.mod
        if other.mod != mod:
            raise ValueError("modulus mismatch between matrix factors")
        return Mat2._of_coeffs(_mat_mul(self.coeffs, other.coeffs, mod), mod)

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Mat2._of_coeffs([_scale(e, -1, self.mod) for e in self.coeffs], self.mod)

    def det(self) -> Poly:
        a, b, c, d = self.coeffs
        return Poly._canon(_dot(a, d, _scale(b, -1, self.mod), c, self.mod), self.mod)

    def trace(self) -> Poly:
        return self.a + self.d

    def inv(self) -> "Mat2":
        """Inverse under the det == 1 contract: [[d, -b], [-c, a]].

        No general GL2 inverse is offered; that would drag in fractions."""
        if self.det().coeffs != (1,):
            raise ValueError("inverse is defined only for determinant 1")
        a, b, c, d = self.coeffs
        return Mat2._of_coeffs((d, _scale(b, -1, self.mod), _scale(c, -1, self.mod), a), self.mod)

    @property
    def is_identity(self) -> bool:
        return self.coeffs == _IDENTITY_QUAD

    def reduce_mod_p(self, p: int) -> "Mat2":
        """Entrywise reduction mod p; a group homomorphism on SL2(Z[t])."""
        if self.mod is not None:
            raise ValueError("reduce_mod_p expects integer coefficients")
        _prime(p)
        return Mat2._of_coeffs([_reduce_coeffs(e, p) for e in self.coeffs], p)

    def is_unipotent(self) -> bool:
        """True iff the matrix is unipotent; requires det == 1.

        Evaluates both criteria, trace == 2 and (m - I)^2 == 0, and insists
        they agree (over a domain they must; a disagreement is a bug and
        raises rather than guessing)."""
        if self.det() != Poly.one(self.mod):
            raise ValueError("unipotence test requires determinant 1")
        by_trace = self.trace() == Poly.constant(2, self.mod)
        n = self - identity(self.mod)
        sq = n * n
        by_square = all(e.is_zero for e in sq.entries())
        if by_trace != by_square:
            raise RuntimeError("unipotence criteria disagree (arithmetic bug)")
        return by_trace

    def __repr__(self):
        return f"Mat2(coeffs={self.coeffs!r}, mod={self.mod!r})"

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def to_json(self):
        return [
            [self.a.to_json(), self.b.to_json()],
            [self.c.to_json(), self.d.to_json()],
        ]


def identity(mod: int | None = None) -> Mat2:
    return Gen("D", 1, mod).matrix()


def _as_poly(f, mod: int | None) -> Poly:
    return f if isinstance(f, Poly) else Poly((f,), mod)


def e12(f, mod: int | None = None) -> Mat2:
    """Upper transvection [[1, f], [0, 1]]."""
    f = _as_poly(f, mod)
    return Gen("E12", f, f.mod).matrix()


def e21(f, mod: int | None = None) -> Mat2:
    """Lower transvection [[1, 0], [f, 1]]."""
    f = _as_poly(f, mod)
    return Gen("E21", f, f.mod).matrix()


def _unit_inverse(u: int, mod: int | None) -> int:
    if mod is None:
        if u not in (1, -1):
            raise ValueError(f"{_shown(u)} is not a unit of Z")
        return u
    if u % mod == 0:
        raise ValueError(f"{_shown(u)} is not a unit mod {mod}")
    return pow(u, -1, mod)


def diag(u: int, mod: int | None = None) -> Mat2:
    """Diagonal [[u, 0], [0, u^-1]] for a unit u of the coefficient ring."""
    return Gen("D", u, mod).matrix()


def w(mod: int | None = None) -> Mat2:
    """The rotation [[0, -1], [1, 0]]; W^2 = -I."""
    return Gen("W", None, mod).matrix()


class Gen(namedtuple("Gen", "kind arg mod")):
    """A generator letter E12(f), E21(f), D(u) or W over Z or F_p, of
    determinant 1, as ``__new__`` checks; ``_make`` and ``_replace`` skip them."""

    __slots__ = ()

    def __new__(cls, kind: str, arg: Poly | int | None, mod: int | None):
        if mod is not None:
            _prime(mod)
        if kind in ("E12", "E21"):
            if not isinstance(arg, Poly) or arg.mod != mod:
                raise ValueError(f"{kind} needs a Poly over the same ring")
        elif kind == "D":
            if type(arg) is not int:
                raise ValueError(f"D needs an int, got {_shown(arg)}")
            _unit_inverse(arg, mod)
        elif kind == "W":
            if arg is not None:
                raise ValueError("W takes no argument")
        else:
            raise ValueError(f"unknown generator kind {_shown(kind)}")
        return super().__new__(cls, kind, arg, mod)

    def _coeffs(self) -> _Quad:
        """The letter's matrix as a coefficient quadruple, written out here only."""
        mod = self.mod
        if self.kind == "E12":
            return (_ONE, self.arg.coeffs, (), _ONE)
        if self.kind == "E21":
            return (_ONE, (), self.arg.coeffs, _ONE)
        if self.kind == "D":
            return ((self.arg if mod is None else self.arg % mod,), (), (), (_unit_inverse(self.arg, mod),))
        return ((), (-1 if mod is None else mod - 1,), _ONE, ())

    def matrix(self) -> Mat2:
        return Mat2._of_coeffs(self._coeffs(), self.mod)

    def __str__(self):
        return "W" if self.kind == "W" else f"{self.kind}({self.arg})"


_GEN_RE = re.compile(r"^\s*(E12|E21|D|W)\s*(?:\(\s*(.*?)\s*\))?\s*$")
_MAT_RE = re.compile(
    r"^\s*\[\s*\[([^][,]+),([^][,]+)\]\s*,\s*\[([^][,]+),([^][,]+)\]\s*\]\s*$"
)


def parse_gen(text: str, mod: int | None = None) -> Gen:
    """Parse generator shorthand: E12(<poly>), E21(<poly>), D(<int>), W."""
    m = _GEN_RE.match(text)
    if not m:
        raise PolyParseError(f"not a generator shorthand: {_shown(text)}", 0)
    kind, arg = m.group(1), m.group(2)
    if kind == "W":
        if arg:
            raise PolyParseError("W takes no argument", text.index("("))
        return Gen("W", None, mod)
    if arg is None:
        raise PolyParseError(f"{kind} needs an argument", len(text))
    if kind == "D":
        u = _int_of(arg, "D argument", "D needs a signed decimal integer, got {}", PolyParseError, m.start(2))
        return Gen("D", u, mod)
    return Gen(kind, _parse_group(m, 2, mod), mod)


def parse_matrix(text: str, mod: int | None = None) -> Mat2:
    """Parse ``[[p11, p12], [p21, p22]]`` or a generator shorthand."""
    if _GEN_RE.match(text):
        return parse_gen(text, mod).matrix()
    m = _MAT_RE.match(text)
    if not m:
        raise PolyParseError("not a 2x2 matrix literal", 0)
    return Mat2(*(_parse_group(m, i, mod) for i in range(1, 5)))


def _parse_group(m, i: int, mod: int | None) -> Poly:
    """``Poly.parse`` of group i of the match m, with error positions in m's text."""
    try:
        return Poly.parse(m.group(i), mod)
    except PolyParseError as e:
        raise PolyParseError(e.message, e.position + m.start(i)) from None


def _is_matrix_json(obj) -> bool:
    """True iff ``obj`` has the shape of matrix JSON: a 2x2 nested array."""
    return isinstance(obj, list) and len(obj) == 2 and all(
        isinstance(r, list) and len(r) == 2 for r in obj
    )


def mat_from_json(obj, mod: int | None = None) -> Mat2:
    """Build a matrix from a 2x2 nested array of polynomial JSON objects."""
    if not _is_matrix_json(obj):
        raise ValueError("matrix JSON must be a 2x2 nested array")
    return Mat2(*(Poly.from_json(e, mod) for row in obj for e in row))
