"""Exact arithmetic for Z[t] and F_p[t].

Coefficients are arbitrary-precision integers (``mod=None``) or residues mod
a prime (``mod=p``).  Polynomials are dense, immutable, and canonical:
coefficients ascend by exponent, trailing zeros are stripped, residues are
fully reduced.  The zero polynomial has degree ``None`` rather than -1, so
accidental arithmetic on the degree of 0 raises instead of drifting.

Division with remainder exists only over field coefficients.  Z[t] is not
Euclidean; the algorithms that need division are exactly the ones restricted
to F_p[t], and the API keeps that boundary visible.

Multiplication has one raw kernel for both rings, ``_raw_mul``, which leaves
coefficients unreduced.  A one-coefficient operand scales the other, and the
factor 1 copies it.  Below ``_KRONECKER_MIN_LEN`` (16) coefficients in the
shorter operand it is the schoolbook double loop.  From there on it is
Kronecker substitution unless ``_mul_cost`` estimates the loop cheaper (wide
coefficients): both operands are packed into one Python int each, in byte
slots wide enough that no product coefficient overflows its slot (signed
slots over Z), CPython's Karatsuba bigint multiply does the work, and the
slots are read back.  Every packed kernel writes and reads its slots
through ``_pack`` and ``_unpack``, which alone hold the slot format.
Division over F_p is ``_divmod_coeffs`` on coefficient tuples, which
``Poly.__divmod__`` wraps: a one-coefficient divisor scales the dividend by
its inverse; otherwise long division, which reduces only the coefficient
it reads next and the remainder once at the end, until both the divisor
and the quotient reach ``_NEWTON_MIN_LEN`` (40) coefficients;
from there the quotient is rev(a) * rev(b)^-1 mod t^(deg q + 1), with the
power-series inverse computed by Newton iteration, and the remainder is the
deg b low coefficients of a - q*b.  Both length crossovers come from timing
operands of equal length: from 16 coefficients Kronecker is at least as fast
over every F_p measured, and from 40 Newton division is at least as fast as
long division.

The Newton branch never leaves the packed ints (von zur Gathen and Gerhard,
*Modern Computer Algebra*, 8.4 and 9.1).  With k = deg q + 1, rev(b) is
inverted only to h = ceil(k/2) coefficients, and that inverse g gives both
halves of rev(q), the last Newton step folded into the quotient (as Karp
and Markstein do for numbers, ACM TOMS 23(4), 1997): the low half is
rev(a)*g mod t^h, and the high half g*e mod t^(k - h), where e is the slots
h..k-1 of rev(a) - rev(b)*q_low.  To each slot of e a multiple of p is
added that no slot of rev(b)*q_low exceeds, so no slot goes negative, and
one slot width covers the largest slot any read sees.  The inverse runs
over the precision chain h, ceil(h/2), ... from the bottom, so that no step
computes more than it keeps; the chain stops at ``_SERIES_BASE_LEN`` (8)
coefficients or fewer, which the plain recurrence gives for less than their
Newton steps cost.  Each step computes only the correction: with g correct
to j coefficients, f*g = 1 + t^j*e mod t^prec, and g - t^j*(g*e mod
t^(prec - j)) is correct to prec.  A right shift by j slots and the step's
one mask read e (the middle product), and only the coefficients of e and
of the correction are unpacked, reduced and packed again.  The remainder's
q*b mod t^(deg b) takes one packed multiply and one masked read.

``_dot`` is the fused kernel of the ``Poly`` operators and the 2x2 matrix
layer: the canonical coefficients of x*y + u*v, with one product alone
when the other has a zero operand (a factor 1 costs nothing), a scalar
times a polynomial plus a scalar times a polynomial in one pass (sums,
differences, the product by a constant letter and most column updates),
and otherwise both products summed and read back with one reduction pass
and one strip.  Over F_p, when each product is long enough for Kronecker
or has the factor (1,), the sum is taken on the packed ints, in slots wide
enough for both products' bounds, and read back once (``_packed_dot``);
otherwise the second raw product is
accumulated into the first one's list: the product with a one-coefficient
operand goes first (a factor 1 costs one copy), and ``_raw_mul`` adds the
other's schoolbook rows, or its Kronecker slots, into that list.  So x +
f*y is ``_dot(x, (1,), f, y, mod)``, the column update of the Euclid and
degree-reduction oracles and of ``phi_p``'s product, which run on
coefficient tuples with these kernels, ``_divmod_coeffs`` and ``_scale`` (a
unit times a polynomial).  Given a bound n on the length of the result, as
det = 1 gives the column updates of ``nagao``, ``_dot`` cuts both products
of that last branch to their n low coefficients: ``_raw_mul`` multiplies
only a[:n] and b[:n] and stops each schoolbook row at coefficient n, and a
packed product or sum is masked to n slots before it is read back.

``_metered`` runs an ``nf`` request with a work meter of its own
(``_METER``).  ``_raw_mul``, ``_packed_dot``, ``_scale``, ``_divmod_coeffs``,
``_dot``'s one-pass sums and ``gl2._packed_prod`` charge it, as they run,
the price of their products by the one rule ``_price`` states.
``_charge`` refuses the charge that takes the total past ``MAX_WORK``; with
no meter open, as in library calls, a kernel pays one ``ContextVar.get``.

``Poly`` and ``gl2.Mat2`` share the base ``_Value``: equality and hash on
``(coeffs, mod)``, no assignment, and the trusted constructor ``_canon``,
which copy and pickle use.  The public constructor validates the modulus,
refuses a coefficient that is not an int, and reduces every coefficient.
Each operator is one ``_dot`` call (x - y takes the ring's -1 as the second
scalar), whose canonical result ``_canon`` wraps unchecked.
``reduce_mod_p`` checks p once, then reduces, strips and wraps.  ``parse``
is one pass over the tokens of ``_tokenize``.

Every input here is checked by a rule of ``limits``, the leaf module that
``homology`` and the CLI use without loading this one: the modulus by the
prime rule ``_prime``, the exponent of ``monomial`` by the integer-argument
rule ``_int_arg``, the coefficients given to ``Poly`` by the integer-list
rule ``_int_list``, a JSON object by ``_fields``, integer text by ``_int_of``,
and every quoted value by ``_shown``; the degree cap ``MAX_DEGREE`` lives
there too, and the work budget ``MAX_WORK`` here.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import re
import sys
from array import array
from operator import mul

from .limits import MAX_DEGREE, _fields, _int_arg, _int_list, _int_of, _prime, _shown

__all__ = [
    "Poly",
    "PolyParseError",
]


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the bare message and the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


def _strip(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _reduce_coeffs(coeffs, p: int) -> tuple[int, ...]:
    """Canonical coefficients mod the prime p of integer coefficients."""
    return _strip([c % p for c in coeffs])


class _Value:
    """An immutable ``(coeffs, mod)`` pair: the one base of ``Poly`` and ``gl2.Mat2``."""

    __slots__ = ("coeffs", "mod")

    @classmethod
    def _canon(cls, coeffs, mod: int | None):
        """Trusted construction from canonical fields (``mod`` prime or None); it checks nothing."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "mod", mod)
        return self

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs and self.mod == other.mod

    def __hash__(self):
        return hash((self.coeffs, self.mod))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {_shown(name)}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {_shown(name)}")

    def __reduce__(self):
        return type(self)._canon, (self.coeffs, self.mod)


class Poly(_Value):
    """A dense polynomial in t over Z (``mod=None``) or F_p (``mod=p``)."""

    __slots__ = ()

    def __init__(self, coeffs=(), mod: int | None = None):
        if mod is not None:
            _prime(mod)
        cs = _int_list(coeffs, "polynomial coefficient")
        object.__setattr__(self, "coeffs", _strip(cs if mod is None else [c % mod for c in cs]))
        object.__setattr__(self, "mod", mod)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, mod: int | None = None) -> "Poly":
        return cls((), mod)

    @classmethod
    def one(cls, mod: int | None = None) -> "Poly":
        return cls((1,), mod)

    @classmethod
    def constant(cls, c: int, mod: int | None = None) -> "Poly":
        return cls((c,), mod)

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1, mod: int | None = None) -> "Poly":
        """coeff * t**exp."""
        if _int_arg(exp, "exponent", 0) > MAX_DEGREE:
            raise ValueError(f"exponent {_shown(exp)} exceeds the degree cap {MAX_DEGREE}")
        return cls((0,) * exp + (coeff,), mod)

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (a marker, not -1)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            if self.mod is not None:
                other %= self.mod
            return Poly._canon((other,) if other else (), self.mod)
        if isinstance(other, Poly):
            if other.mod != self.mod:
                raise ValueError(
                    f"modulus mismatch: {self.mod!r} vs {other.mod!r}"
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._canon(_dot(self.coeffs, (1,), other.coeffs, (1,), self.mod), self.mod)

    __radd__ = __add__

    def __neg__(self):
        return Poly._canon(_scale(self.coeffs, -1, self.mod), self.mod)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._canon(_dot(self.coeffs, (1,), other.coeffs, self._coerce(-1).coeffs, self.mod), self.mod)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Poly._canon(_dot(self.coeffs, other.coeffs, (), (), self.mod), self.mod)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Division with remainder; requires field coefficients and other != 0."""
        if not isinstance(other, (Poly, int)):
            return NotImplemented
        other = self._coerce(other)
        if self.mod is None:
            raise ValueError(
                "polynomial division requires field coefficients (mod p); "
                "Z[t] has no division algorithm"
            )
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = _divmod_coeffs(self.coeffs, other.coeffs, self.mod)
        return Poly._canon(q, self.mod), Poly._canon(r, self.mod)

    def reduce_mod_p(self, p: int) -> "Poly":
        """Coefficientwise reduction Z[t] -> F_p[t]; a ring homomorphism."""
        if self.mod is not None:
            raise ValueError("reduce_mod_p expects integer coefficients")
        _prime(p)
        return Poly._canon(_reduce_coeffs(self.coeffs, p), p)

    # -- text and JSON ------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            neg = c < 0
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                tp = "t" if k == 1 else f"t^{k}"
                body = tp if mag == 1 else f"{mag}*{tp}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r}, mod={self.mod!r})"

    @classmethod
    def parse(cls, text: str, mod: int | None = None) -> "Poly":
        """Parse ``term (('+'|'-') term)*`` where a term is an integer, ``t``,
        ``t^k``, ``n*t`` or ``n*t^k``, in one pass over the tokens, one signed
        term per step.  Whitespace is insignificant."""
        toks = _tokenize(text) + [("end", None, len(text))]
        acc: dict[int, int] = {}
        i = 0
        while not acc or toks[i][0] != "end":  # at least one term
            kind, _, at = toks[i]
            if kind in ("+", "-"):
                i += 1
            elif acc:  # only the first term may go unsigned
                raise PolyParseError("expected '+' or '-'", at)
            sign = -1 if kind == "-" else 1
            kind, coeff, at = toks[i]
            if kind == "end" and not acc:
                raise PolyParseError("empty polynomial", at)
            if kind == "int":
                i += 1
                if toks[i][0] == "*":
                    i += 1
                    kind, _, at = toks[i]
                    if kind != "t":
                        raise PolyParseError(f"expected 't', found {kind!r}", at)
            elif kind == "t":
                coeff = 1
            else:
                raise PolyParseError("expected a term", at)
            exp = 0
            if kind == "t":
                i += 1
                exp = 1
                if toks[i][0] == "^":
                    kind, exp, at = toks[i + 1]
                    if kind != "int":
                        raise PolyParseError("negative exponent" if kind == "-" else "expected exponent", at)
                    if exp > MAX_DEGREE:
                        raise PolyParseError(f"exponent {_shown(exp)} exceeds the degree cap {MAX_DEGREE}", at)
                    i += 2
            acc[exp] = acc.get(exp, 0) + sign * coeff
        cs = [0] * (max(acc) + 1)
        for exp, c in acc.items():
            cs[exp] = c
        return cls(cs, mod)

    def to_json(self):
        obj = {"coeffs": [str(c) for c in self.coeffs]}
        if self.mod is not None:
            obj["mod"] = self.mod
        return obj

    @classmethod
    def from_json(cls, obj, mod: int | None = None) -> "Poly":
        """A polynomial from JSON: ``{"coeffs": [...]}`` with an optional
        integer ``mod`` that agrees with ``mod`` when that is given, a bare
        list of coefficients, or one coefficient as a constant.  Coefficients
        are JSON integers or ASCII integer strings."""
        if isinstance(obj, dict):
            _fields(obj, "polynomial JSON", ("coeffs",), ("mod",))
            coeffs, given = obj["coeffs"], obj.get("mod", mod)
            if "mod" in obj and (type(given) is not int or mod not in (None, given)):
                raise ValueError(f"polynomial field 'mod' must be {mod or 'a prime'}, got {_shown(given)}")
            if not isinstance(coeffs, list):
                raise ValueError(f"polynomial field 'coeffs' must be a list, got {_shown(coeffs)}")
            mod = given
        else:
            coeffs = obj if isinstance(obj, list) else [obj]
        if len(coeffs) > MAX_DEGREE + 1:
            raise ValueError(
                f"polynomial has {len(coeffs)} coefficients, above the degree cap {MAX_DEGREE}"
            )
        bad = "polynomial coefficient {} is not an integer or an integer string"
        return cls([c if type(c) is int else _int_of(c, "polynomial coefficient", bad, index=idx)
                    for idx, c in enumerate(coeffs)], mod)


# -- multiplication kernels -------------------------------------------

# Poly.__mul__ uses the schoolbook loop while the shorter operand has fewer
# coefficients than this, and from here on Kronecker where _mul_cost picks it.
_KRONECKER_MIN_LEN = 16
# divmod over F_p uses long division while the divisor or the quotient has
# fewer coefficients than this, and a Newton power-series inverse from here on.
_NEWTON_MIN_LEN = 40
# The series inverse takes its first coefficients, at most this many, from
# the plain recurrence, which costs less than the Newton steps up to there.
_SERIES_BASE_LEN = 8

# The array type code of ``_pack`` and ``_unpack`` per (slot width in bytes,
# signed), for the widths with an array type (the lower-case code is the
# signed type).  Array items are stored in native byte order, so they stand
# in for int.to_bytes(..., "little") only on little-endian hosts; elsewhere
# every width takes the to_bytes path.
_ARRAY_SLOTS = {
    (array(code).itemsize, signed): typecode
    for code in "QIHB" for signed, typecode in ((False, code), (True, code.lower()))
} if sys.byteorder == "little" else {}


def _dot(x, y, u, v, mod: int | None, n: int | None = None) -> tuple[int, ...]:
    """The canonical coefficient tuple of x*y + u*v, which has at most n
    coefficients if n is given.

    The operands are canonical coefficient tuples of the ring ``mod``,
    possibly empty.  When one product has an empty operand only the other
    is computed: a constant factor scales the other by ``_scale``, and
    otherwise one raw product is reduced mod p with no strip (over a domain
    lead(x) * lead(y) != 0).
    When each product has a one-coefficient operand, in either position,
    the sum is taken coefficient by coefficient in one pass.  Otherwise,
    over F_p with each product long enough for Kronecker or with a factor
    (1,), ``_packed_dot`` sums them on packed ints; else both products are
    taken unreduced, the one with a one-coefficient operand first (a factor
    (1,) copies its partner), and the second is added into the first one's
    list.  Either cuts both products to their n low coefficients when n
    bounds the result.  The last three get a single reduction pass and one
    strip."""
    if not (x and y and u and v):
        if not (x and y):
            x, y = u, v
        if not (x and y):
            return ()
        if len(x) == 1:
            x, y = y, x
        if len(y) == 1:
            return x if y[0] == 1 else _scale(x, y[0], mod)
        cs = _raw_mul(x, y, mod)
        return tuple(cs) if mod is None else tuple([c % mod for c in cs])
    if (len(x) == 1 or len(y) == 1) and (len(u) == 1 or len(v) == 1):
        # s*f + r*g for scalars s and r, in one pass
        s, f = (x[0], y) if len(x) == 1 else (y[0], x)
        r, g = (u[0], v) if len(u) == 1 else (v[0], u)
        if _METER.get() is not None:  # a factor 1 costs nothing
            _charge(sum(_price(1, len(h), mod) for c, h in ((s, f), (r, g)) if c != 1))
        pairs = itertools.zip_longest(f, g, fillvalue=0)
        if mod is None:
            return _strip([s * a + r * b for a, b in pairs])
        return _strip([(s * a + r * b) % mod for a, b in pairs])
    # each product long enough for Kronecker (which _mul_cost always picks
    # there over F_p) or with the factor (1,): one packed sum
    if (
        mod is not None
        and (len(x) >= _KRONECKER_MIN_LEN <= len(y) or x == (1,) or y == (1,))
        and (len(u) >= _KRONECKER_MIN_LEN <= len(v) or u == (1,) or v == (1,))
    ):
        return _packed_dot(x, y, u, v, mod, n)
    # the product with a one-coefficient operand, if either has one, starts
    # the sum as a (scaled) copy, and the other is added into its list
    if len(u) == 1 or len(v) == 1:
        x, y, u, v = u, v, x, y
    cs = _raw_mul(u, v, mod, n, _raw_mul(x, y, mod, n))
    if mod is not None:
        cs = [c % mod for c in cs]
    return _strip(cs)


def _scale(x, u: int, mod: int | None) -> tuple[int, ...]:
    """The canonical coefficient tuple of u*x for a nonzero scalar u of the
    ring ``mod`` (reduced mod p): reduced mod p, and over a domain no strip
    is needed.  It charges the open meter the ``_price`` of 1 by len(x)
    coefficients."""
    if _METER.get() is not None:
        _charge(_price(1, len(x), mod))
    if mod is None:
        return tuple([u * c for c in x])
    return tuple([u * c % mod for c in x])


def _divmod_coeffs(a, b, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by b over F_p, as canonical coefficient
    tuples; a and b are canonical and b is nonempty.

    A one-coefficient b scales a by its inverse (``_scale``).  Below
    _NEWTON_MIN_LEN in the divisor or the quotient it is long division.
    From there on, with k = deg q + 1 and h = ceil(k/2), g = rev(b)^-1 mod
    t^h (``_series_inverse``) gives both halves of rev(q) = rev(a) / rev(b)
    mod t^k: the low half is rev(a)*g mod t^h, and with rev(a) -
    rev(b)*q_low = t^h*e mod t^k the high half is g*e mod t^(k - h).  The
    remainder is the deg b low coefficients of a - q*b.  All of it runs on
    packed ints in one slot width.  It charges the open meter by
    ``_price``."""
    db = len(b) - 1
    k = len(a) - db  # quotient length
    if k <= 0:
        return (), a
    if not db:
        return _scale(a, pow(b[0], -1, p), p), ()
    newton = min(k, len(b)) >= _NEWTON_MIN_LEN
    if _METER.get() is not None:
        # Newton: about 3 products k by k and one k by db; long division:
        # k*db products in the loop, priced as one row of that length
        _charge(3 * _price(k, k, p) + _price(k, db, p) if newton else _price(k * db, 1, p))
    if newton:
        # Every slot read sums at most h (or, for the remainder, min(k, db))
        # products of residues; the reads of e add to each of its slots off,
        # the multiple of p that no slot of rev(b)*q_low exceeds, so that none
        # goes negative.  So one width serves all.
        h, n = (k + 1) // 2, k // 2
        off = -(-h * (p - 1) ** 2 // p) * p
        w = _slot_width(max(min(k, db) * (p - 1) ** 2, off + p - 1))
        ra, rb = a[db:][::-1], b[::-1]  # rev(a) mod t^k and rev(b)
        g = _series_inverse(rb, h, p, w)
        q_low = [c % p for c in _unpack(_pack(ra[:h], w) * g, w, h)]
        x = _pack(ra[h:], w) + _pack([off] * n, w) - (_pack(rb[:k], w) * _pack(q_low, w) >> 8 * w * h)
        e = _pack([c % p for c in _unpack(x, w, n)], w)
        q = (q_low + [c % p for c in _unpack(g * e, w, n)])[::-1]
        rem = [(c - d) % p for c, d in zip(a[:db], _unpack(_pack(q[:db], w) * _pack(b[:db], w), w, db))]
    else:
        # Only the coefficient read next is reduced; the top coefficient a
        # step cancels is never read again, so b[:db] is subtracted, and the
        # remainder is reduced once at the end.
        rem = list(a)
        q = [0] * k
        inv_lead = pow(b[-1], -1, p)
        low = b[:db]
        for i in range(k - 1, -1, -1):
            c = rem[i + db] % p * inv_lead % p
            if c:
                q[i] = c
                for j, bj in enumerate(low, i):
                    rem[j] -= c * bj
        rem = [r % p for r in rem[:db]]
    # lead(q) = lead(a) / lead(b) != 0, so only the remainder needs a strip.
    return tuple(q), _strip(rem)


def _raw_mul(a, b, mod: int | None, n: int | None = None, acc: list[int] | None = None) -> list[int]:
    """acc plus the unreduced coefficients of a*b, only the n low ones of
    a*b if n is given, as one list: the schoolbook rows are added into acc,
    grown with zeros to their length, and of acc and the Kronecker slots the
    shorter is added into the longer.  Without acc, or with acc empty, the
    product is a new list, and a factor (1,) gives a copy of the other
    operand.  The coefficients are those of the ring ``mod``: of either sign
    over Z (None), else residues.  It charges the open meter the cost of its
    kernel: from _KRONECKER_MIN_LEN coefficients the ``_mul_cost`` at the
    widths it reads to pick it, below the ``_price`` of the loop; a copy
    costs nothing."""
    if acc is None:
        acc = []
    if not a or not b:
        return acc
    if len(a) < len(b):
        a, b = b, a
    m = len(a) + len(b) - 1
    if n is not None and n < m:
        a, b, m = a[:n], b[:n], n
    signed, la = mod is None, len(a)
    metered = _METER.get() is not None
    if metered and len(b) < _KRONECKER_MIN_LEN and (len(b) != 1 or b[0] != 1):
        _charge(_price(la, len(b), mod))
    if len(b) == 1 and not acc:
        c = b[0]
        return list(a) if c == 1 else [c * e for e in a]
    if len(b) >= _KRONECKER_MIN_LEN:
        ma, mb = (max(map(abs, a)), max(map(abs, b))) if signed else (max(a), max(b))
        cost, kronecker = _mul_cost(la, len(b), ma.bit_length(), mb.bit_length())
        if metered:
            _charge(cost)
        if kronecker:
            cs = _kronecker(a, b, len(b) * ma * mb, signed, m)
            if len(cs) < len(acc):
                cs, acc = acc, cs
            for i, c in enumerate(acc):
                cs[i] += c
            return cs
    if len(acc) < m:
        acc += [0] * (m - len(acc))
    # the shorter operand in the outer loop, so the inner loop runs longest;
    # a row stops at coefficient m
    for j, cj in enumerate(b):
        if cj:
            for i, ci in enumerate(a if j + la <= m else a[: m - j], j):
                acc[i] += cj * ci
    return acc


# The work budget of one nf request, in the digit products of _mul_cost
# that the kernels charge to the request's meter as they run.
MAX_WORK = 4_500_000_000
# [work charged so far, request kind] of the open request, or None
_METER = contextvars.ContextVar("nagaolab_work_meter", default=None)


def _metered(what: str, fn):
    """fn() as one request of kind ``what``, with a meter of its own."""
    token = _METER.set([0.0, what])
    try:
        return fn()
    finally:
        _METER.reset(token)


def _charge(work: float) -> None:
    """Add work to the open meter; refuse the charge that takes it past MAX_WORK."""
    meter = _METER.get()
    meter[0] += work
    if meter[0] > MAX_WORK:
        raise ValueError(f"{meter[1]} passed the work budget of {MAX_WORK} digit products")


def _price(la: int, lb: int, mod: int | None) -> float:
    """The work meter's price of a product of la by lb coefficients of the
    ring ``mod``, the one pricing rule of an ``nf`` request: the
    ``_mul_cost`` of the product with both operands at the ring's width,
    that of p - 1 over F_p and 0 over Z, and nothing for a product of two
    constants.  The callers charge no product by the factor 1.  Only
    ``_raw_mul``'s Kronecker products are priced otherwise, at the
    coefficient widths it reads to pick its kernel, since at width 0 a
    product of wide integers would pass unpriced."""
    if la < 2 and lb < 2:
        return 0.0
    w = (mod - 1).bit_length() if mod else 0
    return _mul_cost(la, lb, w, w)[0]


def _mul_cost(la: int, lb: int, wa: int, wb: int) -> tuple[float, bool]:
    """The estimated cost of a product of la by lb coefficients of at most
    wa and wb bits, in 30-bit digit products (about a nanosecond each with
    CPython 3.11 on a 2-vCPU x86 container), and whether ``_raw_mul`` takes
    Kronecker for it.  The meter charges it by the rule of ``_price``.
    From _KRONECKER_MIN_LEN coefficients in the shorter operand the cheaper
    of two fitted estimates picks the kernel: the loop makes la*lb products
    of about (wa/30 + 8) (wb/30 + 8) each, with the interpreter's overhead;
    Kronecker packs both operands into slots of w ~ wa + wb bits and
    multiplies la*w by lb*w digits in about 12 * la*w * (lb*w)**0.585
    (Karatsuba), fitted on lengths 16 to 1 000 and widths 4 to 3 000 bits
    over Z.  Against whole products
    at p = 3 to 2**64 - 59, the loop costs about 2.5 times its estimate and
    Kronecker its estimate plus, per coefficient packed and unpacked, about
    120 through ``array`` or 1 000 through ``int.to_bytes`` (slots above 64
    bits)."""
    if la < lb:
        la, lb, wa, wb = lb, la, wb, wa
    # per coefficient of the longer operand, so that the choice does not
    # depend on rounding a product by la
    loop = lb * (wa / 30 + 8) * (wb / 30 + 8)
    if lb >= _KRONECKER_MIN_LEN:
        slot = wa + wb + lb.bit_length()
        w = slot / 30
        kronecker = 12 * w * (lb * w) ** 0.585
        if kronecker < loop:
            return la * kronecker + (la + lb) * (120 if slot <= 64 else 1_000), True
    return 2.5 * la * loop, False


def _kronecker(a, b, bound: int, signed: bool, n: int) -> list[int]:
    """The n low unreduced coefficients of a*b by Kronecker substitution.

    Each operand is evaluated at t = 2**(8*w) by packing its coefficients
    into w-byte slots of one integer (signed over Z[t]), the two integers
    are multiplied with CPython's bigint (Karatsuba) multiply, and the n low
    slots of the product are read back.  Every product coefficient is a sum
    of min(len) terms, so it is at most the caller's bound = min(len) *
    max|a| * max|b| in absolute value, and w is chosen with bound <
    2**(8*w) (2**(8*w - 1) if signed) so that no slot spills into the next;
    big coefficients only widen w.
    """
    w = _slot_width(bound, signed)
    return list(_unpack(_pack(a, w, signed) * _pack(b, w, signed), w, n, signed))


def _slot_width(bound: int, signed: bool = False) -> int:
    """The least slot width w in bytes with bound < 2**(8*w) (2**(8*w - 1)
    if signed), rounded up to 1, 2, 4 or 8 bytes, the widths with an array
    type, while it is at most 8."""
    w = max(1, (bound.bit_length() + signed + 7) // 8)
    return w if w > 8 else next(width for width in (1, 2, 4, 8) if width >= w)


def _packed_dot(x, y, u, v, p: int, n: int | None) -> tuple[int, ...]:
    """The canonical coefficient tuple of x*y + u*v over F_p, with at most
    n coefficients if n is given, for products whose operands are each
    long enough for Kronecker or a factor (1,): the packed products are
    summed as ints in slots wide enough for the sum of both products'
    bounds, and the sum is read back once, cut to its n low slots."""
    m = max(len(x) + len(y), len(u) + len(v)) - 1
    if n is not None and n < m:
        x, y, u, v, m = x[:n], y[:n], u[:n], v[:n], n
    pairs = [(g, f) if f == (1,) else (f, g) for f, g in ((x, y), (u, v))]  # a factor (1,) second
    if _METER.get() is not None:  # a factor (1,) is packed, not multiplied
        _charge(sum(_price(len(f), len(g), p) for f, g in pairs if g != (1,)))
    w = _slot_width(sum(p - 1 if g == (1,) else min(len(f), len(g)) * (p - 1) ** 2 for f, g in pairs))
    total = 0
    for f, g in pairs:
        total += _pack(f, w) if g == (1,) else _pack(f, w) * _pack(g, w)
    return _strip([c % p for c in _unpack(total, w, m)])


def _pack(cs, w: int, signed: bool = False) -> int:
    """The int sum(cs[i] * 2**(8*w*i)) of the ints cs, each written into a
    w-byte slot: in [0, 2**(8*w)), or in [-2**(8*w - 1), 2**(8*w - 1)) if
    ``signed``.  The empty list packs to 0.

    ``_pack`` and ``_unpack`` alone hold the slot format.  The slots are
    little-endian bytes, written by one ``array`` call in C for the widths
    of ``_ARRAY_SLOTS`` (1, 2, 4 and 8 bytes on a little-endian host), and
    by one ``int.to_bytes`` per slot otherwise.  Signed slots are two's
    complement: a negative c is written as c + 2**(8*w), with the top bit
    of its slot set, so the int read from the bytes is corrected by one
    2**(8*w) at each slot whose top bit is set."""
    typecode = _ARRAY_SLOTS.get((w, signed))
    if typecode is None:
        x = int.from_bytes(b"".join([c.to_bytes(w, "little", signed=signed) for c in cs]), "little")
    else:
        x = int.from_bytes(array(typecode, cs), "little")
    return x - ((x & _tops(w, len(cs))) << 1) if signed else x


def _unpack(x: int, w: int, n: int, signed: bool = False):
    """The n low w-byte slots of x, as the ints of ``_pack``'s slot range:
    x is masked to them and read by one ``array`` call or one
    ``int.from_bytes`` per slot, and the array or list is returned itself,
    not copied.

    Signed, x is sum(c_i * 2**(8*w*i)) with every c_i in the signed range,
    so a slot may borrow from the one above.  Adding half a slot to each of
    the n slots makes every slot a digit in [0, 2**(8*w)) with no borrow,
    and flipping its top bit turns the digit into c_i in two's complement."""
    if signed:
        tops = _tops(w, n)
        x = (x + tops) ^ tops
    data = (x & (1 << 8 * w * n) - 1).to_bytes(n * w, "little")
    typecode = _ARRAY_SLOTS.get((w, signed))
    if typecode is None:
        return [int.from_bytes(data[i : i + w], "little", signed=signed) for i in range(0, len(data), w)]
    return array(typecode, data)


@functools.lru_cache(maxsize=64)
def _tops(w: int, n: int) -> int:
    """The int with the top bit of each of n w-byte slots set, and no other,
    built once per (w, n) while it is among the 64 last asked for."""
    return int.from_bytes((1 << 8 * w - 1).to_bytes(w, "little") * n, "little")


def _series_inverse(f, k: int, p: int, w: int) -> int:
    """The k reduced coefficients of g with f*g = 1 mod (p, t^k), f[0] != 0,
    packed in w-byte slots that hold k*(p - 1)**2, by Newton iteration on
    the packed ints over the precision chain k, ceil(k/2), ..., down to at
    most _SERIES_BASE_LEN coefficients, which the plain recurrence gives.
    From there each step takes g from h correct coefficients to prec <= 2h
    and computes only the correction.  With f*g = 1 + t^h*e mod t^prec, g
    <- g - t^h*(g*e mod t^(prec - h)); e is slots h..prec-1 of f*g, read by
    a right shift and the step's one mask (the middle product), and only
    the prec - h coefficients of e and of the correction are unpacked,
    reduced and packed again."""
    s = 8 * w
    packed_f = _pack(f[:k], w)
    chain = []
    while k > _SERIES_BASE_LEN:
        chain.append(k)
        k = (k + 1) // 2
    # the first k coefficients by the recurrence g_i = -g_0 (f_1 g_(i-1) + ... + f_i g_0)
    base = [pow(f[0], -1, p)]
    for i in range(1, k):
        base.append(-base[0] * sum(map(mul, f[1 : i + 1], reversed(base))) % p)
    g, h = _pack(base, w), k
    for prec in reversed(chain):
        n = prec - h
        e = [-c % p for c in _unpack(packed_f * g >> s * h, w, n)]
        g |= _pack([c % p for c in _unpack(g * _pack(e, w), w, n)], w) << s * h
        h = prec
    return g


_TOKEN_RE = re.compile(r"([0-9]+)|([+\-*^t])|(\S)")


def _tokenize(text: str):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        if m.group(1) is not None:
            toks.append(("int", _int_of(m.group(1), "integer", None, PolyParseError, m.start()), m.start()))
        elif m.group(2) is not None:
            toks.append((m.group(2), None, m.start()))
        else:
            raise PolyParseError(f"unexpected character {_shown(m.group(3))}", m.start())
    return toks
