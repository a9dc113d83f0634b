"""2x2 matrices over Z[t] and F_p[t].

Covers what the group algorithms need: products, determinants, the closed
form inverse for determinant 1, upper-triangularity, entrywise reduction
mod p, and unipotence.  Standard generators (transvections, diagonal units,
the order-4 rotation W) come both as plain matrices and as ``Gen`` records
that remember how they were built, which is what factorization words and
the CLI shorthand use.

Entries are ``Poly`` values, but products and determinants do not go
through the ``Poly`` operators: each entry of a product, and the
determinant, is one call of ``ring._dot`` on the coefficient tuples.  The
public constructor checks that the four entries share a ring; results of
arithmetic on valid matrices are built by ``Mat2._canon`` without that
check, and so are ``identity``, ``e12``, ``e21``, ``Mat2.of_ints`` and
``reduce_mod_p``, whose constant entries are built by ``Poly._canon`` after
one check of the modulus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ring import _INT_RE, MAX_INT_DIGITS, Poly, PolyParseError, _check_modulus, _dot, _reduce_coeffs, _scale

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


@dataclass(frozen=True)
class Mat2:
    """Row-major 2x2 matrix [[a, b], [c, d]] with a shared coefficient ring."""

    a: Poly
    b: Poly
    c: Poly
    d: Poly

    def __post_init__(self):
        mods = {e.mod for e in (self.a, self.b, self.c, self.d)}
        if len(mods) != 1:
            raise ValueError("matrix entries use mismatched coefficient rings")

    @classmethod
    def _canon(cls, a: Poly, b: Poly, c: Poly, d: Poly) -> "Mat2":
        """Trusted construction: the entries must be polynomials over one
        ring.  Only arithmetic on valid matrices may call this; it checks
        nothing."""
        self = object.__new__(cls)
        fields = vars(self)
        fields["a"], fields["b"], fields["c"], fields["d"] = a, b, c, d
        return self

    @property
    def mod(self) -> int | None:
        return self.a.mod

    @classmethod
    def of_ints(cls, a: int, b: int, c: int, d: int, mod: int | None = None) -> "Mat2":
        """The constant matrix [[a, b], [c, d]]; the entries are coerced to
        int and reduced mod p over F_p."""
        _check_modulus(mod)
        vals = [int(v) for v in (a, b, c, d)]
        if mod is not None:
            vals = [v % mod for v in vals]
        return cls._canon(*(Poly._canon((v,) if v else (), mod) for v in vals))

    def entries(self) -> tuple[Poly, Poly, Poly, Poly]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        mod = self.mod
        if other.mod != mod:
            raise ValueError("modulus mismatch between matrix factors")
        a, b, c, d = self.a.coeffs, self.b.coeffs, self.c.coeffs, self.d.coeffs
        e, f, g, h = other.a.coeffs, other.b.coeffs, other.c.coeffs, other.d.coeffs
        return Mat2._canon(
            Poly._canon(_dot(a, e, b, g, mod), mod),
            Poly._canon(_dot(a, f, b, h, mod), mod),
            Poly._canon(_dot(c, e, d, g, mod), mod),
            Poly._canon(_dot(c, f, d, h, mod), mod),
        )

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2._canon(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Mat2._canon(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> Poly:
        mod = self.mod
        return Poly._canon(_dot(self.a.coeffs, self.d.coeffs, _scale(self.b.coeffs, -1, mod), self.c.coeffs, mod), mod)

    def trace(self) -> Poly:
        return self.a + self.d

    def inv(self) -> "Mat2":
        """Inverse under the det == 1 contract: [[d, -b], [-c, a]].

        No general GL2 inverse is offered; that would drag in fractions."""
        if self.det().coeffs != (1,):
            raise ValueError("inverse is defined only for determinant 1")
        return Mat2._canon(self.d, -self.b, -self.c, self.a)

    @property
    def is_identity(self) -> bool:
        return self == identity(self.mod)

    @property
    def is_upper_triangular(self) -> bool:
        return self.c.is_zero

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for e in self.entries())

    def reduce_mod_p(self, p: int) -> "Mat2":
        """Entrywise reduction mod p; a group homomorphism on SL2(Z[t])."""
        if self.mod is not None:
            raise ValueError("reduce_mod_p expects integer coefficients")
        _check_modulus(p)
        return Mat2._canon(*(Poly._canon(_reduce_coeffs(e.coeffs, p), p) for e in self.entries()))

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

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def to_json(self):
        return [
            [self.a.to_json(), self.b.to_json()],
            [self.c.to_json(), self.d.to_json()],
        ]


def identity(mod: int | None = None) -> Mat2:
    return Mat2.of_ints(1, 0, 0, 1, mod)


def _one_zero(mod: int | None) -> tuple[Poly, Poly]:
    """The polynomials 1 and 0 over a ring whose modulus is already checked."""
    return Poly._canon((1,), mod), Poly._canon((), mod)


def _as_poly(f, mod: int | None) -> Poly:
    return f if isinstance(f, Poly) else Poly((f,), mod)


def e12(f, mod: int | None = None) -> Mat2:
    """Upper transvection [[1, f], [0, 1]]."""
    f = _as_poly(f, mod)
    one, zero = _one_zero(f.mod)
    return Mat2._canon(one, f, zero, one)


def e21(f, mod: int | None = None) -> Mat2:
    """Lower transvection [[1, 0], [f, 1]]."""
    f = _as_poly(f, mod)
    one, zero = _one_zero(f.mod)
    return Mat2._canon(one, zero, f, one)


def _unit_inverse(u: int, mod: int | None) -> int:
    if mod is None:
        if u not in (1, -1):
            raise ValueError(f"{u!r} is not a unit of Z")
        return u
    if u % mod == 0:
        raise ValueError(f"{u!r} is not a unit mod {mod}")
    return pow(u, -1, mod)


def diag(u: int, mod: int | None = None) -> Mat2:
    """Diagonal [[u, 0], [0, u^-1]] for a unit u of the coefficient ring."""
    return Mat2.of_ints(u, 0, 0, _unit_inverse(u, mod), mod)


def w(mod: int | None = None) -> Mat2:
    """The rotation [[0, -1], [1, 0]]; W^2 = -I."""
    return Mat2.of_ints(0, -1, 1, 0, mod)


@dataclass(frozen=True)
class Gen:
    """A generator letter: E12(f), E21(f), D(u) or W, over a fixed ring.

    All four have determinant 1 by construction."""

    kind: str
    arg: Poly | int | None
    mod: int | None

    def __post_init__(self):
        if self.kind in ("E12", "E21"):
            if not isinstance(self.arg, Poly) or self.arg.mod != self.mod:
                raise ValueError(f"{self.kind} needs a Poly over the same ring")
        elif self.kind == "D":
            _unit_inverse(self.arg, self.mod)
        elif self.kind == "W":
            if self.arg is not None:
                raise ValueError("W takes no argument")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def matrix(self) -> Mat2:
        if self.kind == "E12":
            return e12(self.arg)
        if self.kind == "E21":
            return e21(self.arg)
        if self.kind == "D":
            return diag(self.arg, self.mod)
        return w(self.mod)

    def __str__(self):
        if self.kind == "W":
            return "W"
        if self.kind == "D":
            return f"D({self.arg})"
        return f"{self.kind}({self.arg})"


_GEN_RE = re.compile(r"^\s*(E12|E21|D|W)\s*(?:\(\s*(.*?)\s*\))?\s*$")
_MAT_RE = re.compile(
    r"^\s*\[\s*\[([^][,]+),([^][,]+)\]\s*,\s*\[([^][,]+),([^][,]+)\]\s*\]\s*$"
)


def parse_gen(text: str, mod: int | None = None) -> Gen:
    """Parse generator shorthand: E12(<poly>), E21(<poly>), D(<int>), W."""
    m = _GEN_RE.match(text)
    if not m:
        raise PolyParseError(f"not a generator shorthand: {text!r}", 0)
    kind, arg = m.group(1), m.group(2)
    if kind == "W":
        if arg:
            raise PolyParseError("W takes no argument", text.index("("))
        return Gen("W", None, mod)
    if arg is None:
        raise PolyParseError(f"{kind} needs an argument", len(text))
    if kind == "D":
        if not _INT_RE.fullmatch(arg):
            raise PolyParseError(f"D needs a signed decimal integer, got {arg!r}", m.start(2))
        digits = len(arg.lstrip("+-"))
        if digits > MAX_INT_DIGITS:
            raise PolyParseError(f"D argument has {digits} digits, above the digit cap {MAX_INT_DIGITS}", m.start(2))
        return Gen("D", int(arg), mod)
    return Gen(kind, Poly.parse(arg, mod), mod)


def parse_matrix(text: str, mod: int | None = None) -> Mat2:
    """Parse ``[[p11, p12], [p21, p22]]`` or a generator shorthand."""
    if _GEN_RE.match(text):
        return parse_gen(text, mod).matrix()
    m = _MAT_RE.match(text)
    if not m:
        raise PolyParseError("not a 2x2 matrix literal", 0)
    a, b, c, d = (Poly.parse(g, mod) for g in m.groups())
    return Mat2(a, b, c, d)


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
