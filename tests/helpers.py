"""Seeded random builders and enumeration oracles shared across the test
modules."""

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from nagaolab.amalgam import Letter
from nagaolab.gl2 import Gen, Mat2, identity
from nagaolab.ring import Poly


def const_mat(a, b, c, d, mod=None):
    """The constant matrix [[a, b], [c, d]], built through the validating
    constructor."""
    return Mat2(*(Poly((v,), mod) for v in (a, b, c, d)))


def rand_poly(rng, mod, max_deg, nonzero=False):
    while True:
        deg = rng.randint(0, max_deg)
        if mod is None:
            cs = [rng.randint(-4, 4) for _ in range(deg + 1)]
        else:
            cs = [rng.randrange(mod) for _ in range(deg + 1)]
        p = Poly(cs, mod)
        if not (nonzero and p.is_zero):
            return p


def dense_poly(rng, mod, n, big=4):
    """A polynomial with exactly n coefficients (nonzero leading one)."""
    if n == 0:
        return Poly((), mod)
    while True:
        if mod is None:
            cs = [rng.randint(-big, big) for _ in range(n)]
        else:
            cs = [rng.randrange(mod) for _ in range(n)]
        if cs[-1] != 0:
            return Poly(cs, mod)


def rand_unit(rng, mod):
    return rng.choice([1, -1]) if mod is None else rng.randrange(1, mod)


def rand_const_gen(rng, mod):
    kind = rng.choice(["E12", "E21", "W", "D"])
    if kind == "W":
        return Gen("W", None, mod)
    if kind == "D":
        return Gen("D", rand_unit(rng, mod), mod)
    value = rng.randint(-3, 3) if mod is None else rng.randrange(mod)
    return Gen(kind, Poly.constant(value, mod), mod)


def rand_sl2_const(rng, mod):
    """Random constant determinant-1 matrix, as a short generator product."""
    m = identity(mod)
    for _ in range(rng.randint(1, 3)):
        m = m * rand_const_gen(rng, mod).matrix()
    return m


def rand_b_letter(rng, mod, max_deg):
    """Random upper-triangular determinant-1 letter (factor 2)."""
    u = rand_unit(rng, mod)
    uinv = u if mod is None else pow(u, -1, mod)
    f = rand_poly(rng, mod, max_deg)
    return Letter(
        2, Mat2(Poly.constant(u, mod), f, Poly.zero(mod), Poly.constant(uinv, mod))
    )


def rand_letter(rng, mod, max_deg):
    if rng.random() < 0.5:
        return Letter(1, rand_sl2_const(rng, mod))
    return rand_b_letter(rng, mod, max_deg)


def rand_word(rng, mod, length, max_deg):
    return [rand_letter(rng, mod, max_deg) for _ in range(length)]


def rand_fp_gen(rng, p, max_deg):
    kind = rng.choice(["E12", "E21", "D"])
    if kind == "D":
        return Gen("D", rng.randrange(1, p), p)
    return Gen(kind, rand_poly(rng, p, max_deg), p)


def rand_fp_matrix(rng, p, n_gens, max_deg):
    """Random SL2(F_p[t]) element as a product of elementary generators."""
    m = identity(p)
    for _ in range(rng.randint(0, n_gens)):
        m = m * rand_fp_gen(rng, p, max_deg).matrix()
    return m


def schoolbook_mul(a, b):
    """The product by the schoolbook double loop, built through the
    validating constructor: the oracle for Poly.__mul__."""
    if a.is_zero or b.is_zero:
        return Poly((), a.mod)
    cs = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ci in enumerate(a.coeffs):
        for j, cj in enumerate(b.coeffs):
            cs[i + j] += ci * cj
    return Poly(cs, a.mod)


def schoolbook_add(a, b, sign=1):
    """a + sign * b coefficient by coefficient, built through the validating
    constructor: the oracle for Poly.__add__ and Poly.__sub__."""
    pairs = itertools.zip_longest(a.coeffs, b.coeffs, fillvalue=0)
    return Poly([x + sign * y for x, y in pairs], a.mod)


def schoolbook_divmod(a, b):
    """Long division over F_p, one quotient coefficient per step: the oracle
    for Poly.__divmod__."""
    p, db = a.mod, b.degree
    if a.degree is None or a.degree < db:
        return Poly((), p), a
    rem = list(a.coeffs)
    q = [0] * (a.degree - db + 1)
    inv_lead = pow(b.coeffs[-1], -1, p)
    for k in range(a.degree - db, -1, -1):
        c = rem[k + db] * inv_lead % p
        q[k] = c
        for j, bj in enumerate(b.coeffs):
            rem[k + j] = (rem[k + j] - c * bj) % p
    return Poly(q, p), Poly(rem[:db], p)


def trial_division_is_prime(n):
    """Primality by trial division: the oracle for limits.is_prime, usable
    while n or its smallest factor stays below about 10**12."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def det_in_base(mod, m):
    """Membership in A = B(R) by a full determinant: the oracle for
    AmalgamStructure.factors."""
    return (
        m.mod == mod
        and all(len(e) <= 1 for e in m.coeffs)  # constant
        and not m.coeffs[2]  # upper triangular
        and m.det() == Poly.one(mod)
    )


def det_in_factor(mod, factor, m):
    """Membership in factor 1 (SL2(R)) or 2 (B(R[t])) by a full determinant."""
    if m.mod != mod or m.det() != Poly.one(mod):
        return False
    return all(len(e) <= 1 for e in m.coeffs) if factor == 1 else not m.coeffs[2]


def entrywise_mat_mul(m, n):
    """The product by the entrywise formula on the schoolbook sums and
    products, which share no kernel with the library: the oracle for
    Mat2.__mul__."""

    def dot(x, y, u, v):
        return schoolbook_add(schoolbook_mul(x, y), schoolbook_mul(u, v))

    return Mat2(dot(m.a, n.a, m.b, n.c), dot(m.a, n.b, m.b, n.d), dot(m.c, n.a, m.d, n.c), dot(m.c, n.b, m.d, n.d))


def entrywise_det(m):
    """a*d - b*c on the schoolbook sums and products: the oracle for Mat2.det."""
    return schoolbook_add(schoolbook_mul(m.a, m.d), schoolbook_mul(m.b, m.c), -1)


def is_unipotent_up_to_sign(m):
    """True iff the matrix or its negative is unipotent (trace +-2).

    The strict trace == 2 predicate is the one the library relies on;
    this variant only accounts for the central twist by -I."""
    return m.is_unipotent() or (-m).is_unipotent()


def nf_invert(struct, x):
    """The normal form of the inverse, by normalizing the inverted word."""
    inv_word = tuple(
        Letter(letter.factor, letter.mat.inv()) for letter in reversed(x.tail)
    ) + (Letter(1, x.head.inv()),)
    return struct.normalize(inv_word)


def word_of(nf):
    """The normal form as a plain word (head tagged into factor 1)."""
    return ([] if nf.head.is_identity else [Letter(1, nf.head)]) + list(nf.tail)


def evaluate_word(letters, mod):
    m = identity(mod)
    for letter in letters:
        m = m * letter.mat
    return m


@dataclass(frozen=True)
class WeightedMonomial:
    """One basis monomial of the mod-p homology of a truncated coefficient
    group: a wedge subset of generator exponents and a divided power multiset
    of (exponent, multiplicity) pairs.  Degree and weight are derived from
    the parts, never stored."""

    wedge: tuple[int, ...]
    divided: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(x >= y for x, y in zip(self.wedge, self.wedge[1:])):
            raise ValueError("wedge exponents must strictly increase")
        seen = [g for g, _ in self.divided]
        if sorted(set(seen)) != seen:
            raise ValueError("divided part must list distinct generators in order")
        if any(m < 1 for _, m in self.divided):
            raise ValueError("divided multiplicities must be >= 1")

    @property
    def degree(self) -> int:
        return len(self.wedge) + 2 * sum(m for _, m in self.divided)

    @property
    def weight(self) -> int:
        """Exponent of the diagonal unit-group action: every generator
        scales by a square, divided powers raise it to the multiplicity."""
        return 2 * len(self.wedge) + 2 * sum(m for _, m in self.divided)


def weighted_monomials(exponents, i: int):
    """Yield every homology basis monomial of homological degree i built on
    the given generator exponents (wedge part degree 1, divided part degree
    2 per multiplicity).  This is the enumeration the closed-form counters
    summarize; the two are kept in agreement by tests."""
    exps = tuple(exponents)
    for wedge_size in range(min(i, len(exps)) + 1):
        rest = i - wedge_size
        if rest % 2:
            continue
        j = rest // 2
        for subset in itertools.combinations(exps, wedge_size):
            for multiset in itertools.combinations_with_replacement(exps, j):
                divided = tuple(sorted(Counter(multiset).items()))
                yield WeightedMonomial(subset, divided)
