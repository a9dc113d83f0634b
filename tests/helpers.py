"""Seeded random builders, enumeration oracles and the committed mutants
shared across the test modules."""

import importlib
import inspect
import itertools
import random
import sys
import textwrap
from collections import Counter, namedtuple
from dataclasses import dataclass

from nagaolab import ring
from nagaolab.amalgam import Letter
from nagaolab.gl2 import Gen, Mat2, identity
from nagaolab.ring import Poly


def record_charges(monkeypatch) -> list[float]:
    """Every charge the kernels make to the open work meter, in order, each
    still charged."""
    charges, charge = [], ring._charge
    monkeypatch.setattr(ring, "_charge", lambda work: charges.append(work) or charge(work))
    return charges


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


def two_column_factor(m):
    """The Euclid factorization of an SL2(F_p[t]) matrix that updates the
    second column with the first on every step, on the schoolbook oracles:
    the oracle for nagao.sl2fpt_elementary_factor, which divides the first
    column alone.  Its letters are the quotients, then D(u) for a pivot u !=
    1 and E12(u^-1 * b) for a final b != 0."""
    p = m.mod
    a, b, c, d = m.entries()
    gens = []
    while not c.is_zero:
        if a.is_zero:  # det 1 makes c a unit: E12(-c^-1) makes a = 1
            q = Poly.constant(-pow(c.coeffs[0], -1, p), p)
            gens.append(Gen("E12", q, p))
            a, b = schoolbook_add(a, schoolbook_mul(q, c), -1), schoolbook_add(b, schoolbook_mul(q, d), -1)
        elif c.degree < a.degree:
            q, a = schoolbook_divmod(a, c)
            gens.append(Gen("E12", q, p))
            b = schoolbook_add(b, schoolbook_mul(q, d), -1)
        else:
            q, c = schoolbook_divmod(c, a)
            gens.append(Gen("E21", q, p))
            d = schoolbook_add(d, schoolbook_mul(q, b), -1)
    u = a.coeffs[0]
    if u != 1:
        gens.append(Gen("D", u, p))
        b = schoolbook_mul(Poly.constant(pow(u, -1, p), p), b)
    if not b.is_zero:
        gens.append(Gen("E12", b, p))
    return gens


def one_off(g):
    """The generator g altered, as a list of letters: another argument, or a
    dropped W."""
    if g.kind in ("E12", "E21"):
        return [Gen(g.kind, g.arg + 1, g.mod)]
    if g.kind == "D":
        return [Gen("D", -g.arg, g.mod)]
    return []


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


def fold_per_letter(struct, word):
    """The normal form (head, tail) of a word of checked (factor, form)
    pairs, folded in from the right one letter at a time with one checked
    ``decompose`` per letter: the oracle for ``_rewrite``, which splits once
    per run of same-factor letters."""
    head, rtail = (1, (), 0, 1), []
    for factor, x in reversed(word):
        h = struct._mul(x, head)
        if rtail and rtail[-1][0] == factor:
            h = struct._mul(h, rtail.pop()[1])
        head, s = struct.decompose(factor, h)
        if s is not None:
            rtail.append((factor, s))
    tail = tuple(reversed(rtail))
    struct._check_forms(head, tail)
    return head, tail


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


# A fault committed as a test: the text ``old``, which occurs once in the
# function ``target`` ("module.qualname" in nagaolab), replaced by ``new``.
# ``group`` names the kill test that must catch it; an "oracle" entry names
# in ``test`` the Tier-1 test ("module.name") that must fail under it.
Mutant = namedtuple("Mutant", "group target old new test", defaults=(None,))

MUTANTS = {
    "run product in the wrong order": Mutant("run", "amalgam.AmalgamStructure._rewrite",
                                             "h = mul(x, h)", "h = mul(h, x)"),
    "merge across factor tags": Mutant("run", "amalgam.AmalgamStructure._rewrite",
                                       "if rtail and rtail[-1][0] == factor:", "if rtail:"),
    "merged letter dropped": Mutant("run", "amalgam.AmalgamStructure._rewrite", "h = mul(x, h)", "h = mul(x, head)"),
    "overflow test one letter late": Mutant("packed", "gl2._packed_prod",
                                            "if n1 >= limit or n2 >= limit:\n            cs",
                                            "if b1 >= limit or b2 >= limit:\n            cs"),
    "a letter-entry weight one short": Mutant("packed", "gl2._packed_prod", "b1 * wf + b2 * wh\n        if",
                                              "b1 * (wf - 1) + b2 * wh\n        if"),
    "read-back length one short": Mutant("packed", "gl2._packed_prod", "_unpack(x, 8, length(x), signed)",
                                         "_unpack(x, 8, length(x) - 1, signed)"),
    "signed correction dropped on read-back": Mutant("packed_z", "ring._unpack", "x = (x + tops) ^ tops", "x = x"),
    "sum(e) as a weight in place of sum(|e|)": Mutant("packed_z", "gl2._packed_prod", "map(sum, map(map, abs4, y))",
                                                      "map(sum, y)"),
    "limit 2**64 over Z": Mutant("packed_z", "gl2._packed_prod", "limit = _SLOT_LIMIT >> signed", "limit = _SLOT_LIMIT"),
    "signed read-back one slot short": Mutant("packed_z", "gl2._packed_prod", "abs(x).bit_length() // 64 + 1",
                                              "abs(x).bit_length() // 64"),
    "_pack's signed correction dropped": Mutant("codec", "ring._pack",
                                                "x - ((x & _tops(w, len(cs))) << 1) if signed else x", "x"),
    "fused peel bound one short": Mutant("det_bound", "nagao._nf_by_degree_reduction", "_dot(a, q, minus_one, b, p, n)",
                                         "_dot(a, q, minus_one, b, p, n - 1)"),
    "remainder ignored": Mutant("solve", "nagao.sl2fpt_elementary_factor", " or r or ", " or "),
    "other row skipped": Mutant("solve", "nagao.sl2fpt_elementary_factor", " or _dot(o1, beta, _ONE, y, p) != o2:", ":"),
    "first column skipped": Mutant("solve", "nagao.sl2fpt_elementary_factor", "(x11, x21) != (a, c) or ", ""),
    "E21 written as E12": Mutant("oracle", "gl2.Gen._coeffs", "(_ONE, (), self.arg.coeffs, _ONE)",
                                 "(_ONE, self.arg.coeffs, (), _ONE)",
                                 "test_gl2.test_gen_matrices_are_the_literal_matrices"),
    "tie peel adds d": Mutant("oracle", "nagao._nf_by_degree_reduction", "_dot(e_poly, c, minus_one, d, p)",
                              "_dot(e_poly, c, (1,), d, p)", "test_nagao.test_nagao_nf_cross_validation_random"),
    "F_p coset representative wrong": Mutant("oracle", "amalgam.AmalgamStructure.transversal",
                                             "r, y = 0, mod - 1", "r, y = 0, 1",
                                             "test_nagao.test_nagao_nf_cross_validation_random"),
    "schoolbook row not cut at n": Mutant("oracle", "ring._raw_mul", "a if j + la <= m else a[: m - j]", "a",
                                          "test_nagao.test_nagao_nf_cross_validation_random"),
    "Newton offset dropped": Mutant("oracle", "ring._divmod_coeffs", "off = -(-h * (p - 1) ** 2 // p) * p",
                                    "off = 0", "test_ring.test_newton_division_every_slot_width"),
    "slot width without the sign bit": Mutant("oracle", "ring._slot_width", "+ signed + 7", "+ 7",
                                              "test_ring.test_mul_kernel_extreme_coefficients"),
}


def mutants(group):
    """The names of the mutants of one group, in table order."""
    return [name for name, mutant in MUTANTS.items() if mutant.group == group]


def mutant_source(name):
    """The class or module that holds the function the mutant ``name``
    edits, that function, and its dedented source with the edit made; an
    entry whose text does not occur exactly once there fails as stale."""
    mutant = MUTANTS[name]
    module, *path = mutant.target.split(".")
    owner = importlib.import_module(f"nagaolab.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    fn = getattr(owner, path[-1])
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(mutant.old) == 1, f"stale mutant {name!r}"
    return owner, fn, source.replace(mutant.old, mutant.new)


def mutate(monkeypatch, name, **names):
    """Apply the mutant ``name`` for the rest of the test: its edited source
    runs in its module's namespace updated by ``names``, and the new
    function replaces the old in its class or module and in every nagaolab
    module that binds the old by name."""
    owner, fn, source = mutant_source(name)
    namespace = {**vars(sys.modules[fn.__module__]), **names}
    exec(compile(source, f"<mutant {name}>", "exec"), namespace)
    new = namespace[fn.__name__]
    monkeypatch.setattr(owner, fn.__name__, new)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("nagaolab.") and vars(module).get(fn.__name__) is fn:
            monkeypatch.setattr(module, fn.__name__, new)
