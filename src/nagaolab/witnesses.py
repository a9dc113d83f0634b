"""Explicit witness matrices over Z[t] and exact verification of their
identities.

Four families, indexed by a prime p and an exponent k >= 1:

    h(p,k) = [[1 + p t^k, t^3k], [p^3, 1 - p t^k + p^2 t^2k]]   det 1
    x(k)   = [[1, t^k], [0, 1]]                                 det 1
    g(p,k) = [[1, -t^k], [-p, 1 + p t^k]]                       det 1
    n(p,k) = [[0, -t^k], [-p, p t^k]] = g(p,k) - I              det -p t^k

The suite checks everything stated about them with exact arithmetic:
determinants, the coset identity g(p,k)^-1 g(p,l) = E12(t^k - t^l),
non-unipotence of g against unipotence of x, and the reductions mod p.
One comparison is reported instead of asserted: reducing h(p,k) mod p
gives [[1, t^3k], [0, 1]], which matches the reduction of x(3k) and not
of x(k); the suite records which equality actually holds.

``sn_witness_search`` is the exhaustive search behind the "many units"
hypothesis: n nonzero residues mod p whose nonempty subset sums are all
nonzero, so that sums of the corresponding units stay units.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .gl2 import Mat2, e12
from .limits import SearchCapExceeded, _int_arg, _prime, _shown
from .nagao import nagao_normal_form
from .ring import Poly

__all__ = [
    "CheckResult",
    "WitnessReport",
    "make_witness",
    "sn_witness_search",
    "verify_witness_suite",
]

_KINDS = ("h", "g", "x", "n")


def make_witness(kind: str, p: int | None = None, k: int | None = None) -> Mat2:
    """The witness matrix of a kind in {h, g, x, n}, a prime p (None for
    kind x) and an index k >= 1."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {_shown(kind)}")
    if kind == "x":
        if p is not None:
            raise ValueError("kind x takes no prime")
    else:
        _prime(p, f"kind {kind} needs a prime, got {{}}")
    _int_arg(k, "index k", 1)
    t_k = Poly.monomial(k)
    one = Poly.one()
    if kind == "x":
        return e12(t_k)
    if kind == "h":
        return Mat2(
            one + p * t_k,
            Poly.monomial(3 * k),
            Poly.constant(p**3),
            one - p * t_k + p * p * Poly.monomial(2 * k),
        )
    if kind == "g":
        return Mat2(one, -t_k, Poly.constant(-p), one + p * t_k)
    return Mat2(Poly.zero(), -t_k, Poly.constant(-p), p * t_k)


class CheckResult(namedtuple("CheckResult", "id statement status lhs rhs")):
    """One check: its id and statement, status "pass", "fail" or "info", and both sides as text."""

    __slots__ = ()


class WitnessReport(namedtuple("WitnessReport", "checks")):
    __slots__ = ()

    @property
    def all_asserted_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_json(self) -> str:
        return json.dumps([c._asdict() for c in self.checks], indent=2)


def _report(rows) -> WitnessReport:
    """The report of (id, statement, ok, lhs, rhs) rows.  ``ok`` is the
    outcome of an asserted check, or None for a comparison that is only
    reported; lhs and rhs are shown through ``str``."""
    return WitnessReport(tuple(
        CheckResult(cid, statement, "info" if ok is None else "pass" if ok else "fail",
                    str(lhs), str(rhs))
        for cid, statement, ok, lhs, rhs in rows
    ))


def _nf_equal(lhs, rhs) -> bool:
    """Equality in SL2(F_p[t]) of two (matrix, normal form) pairs, decided
    both ways, which must agree."""
    by_matrix = lhs[0] == rhs[0]
    if by_matrix != (lhs[1] == rhs[1]):
        raise RuntimeError("matrix and normal form equality disagree (bug)")
    return by_matrix


def _identity_rows(p: int, k: int) -> list:
    """The checks on h(p,k), g(p,k), x(k) and n(p,k) for one (p, k)."""
    one = Poly.one()
    h, g, n = (make_witness(kind, p, k) for kind in "hgn")
    x = make_witness("x", None, k)
    det_h, det_g, det_x, det_n = h.det(), g.det(), x.det(), n.det()
    minus_p_t_k = Poly.monomial(k, -p)
    h_p, g_p, x_p = h.reduce_mod_p(p), g.reduce_mod_p(p), x.reduce_mod_p(p)
    x_p_inv = x_p.inv()
    x3_p = make_witness("x", None, 3 * k).reduce_mod_p(p)
    # one normal form per matrix: h_p equals x3_p and g_p equals x_p_inv, and
    # their own normal forms decide that apart from the matrices
    nf_h, nf_g, nf_x, nf_x_inv, nf_x3 = ((m, nagao_normal_form(p, m)) for m in (h_p, g_p, x_p, x_p_inv, x3_p))
    eq_xk, eq_x3k = _nf_equal(nf_h, nf_x), _nf_equal(nf_h, nf_x3)
    return [
        (f"det_h({p},{k})", "det h(p,k) == 1", det_h == one, det_h, "1"),
        (f"det_g({p},{k})", "det g(p,k) == 1", det_g == one, det_g, "1"),
        (f"det_x({k})", "det x(k) == 1", det_x == one, det_x, "1"),
        (f"det_n({p},{k})", "det n(p,k) == -p*t^k, so n is not in SL2",
         det_n == minus_p_t_k and det_n != one, det_n, minus_p_t_k),
        (f"nonunipotent_g({p},{k})", "g(p,k) is not unipotent",
         not g.is_unipotent(), g.trace(), "trace != 2"),
        (f"unipotent_x({k})", "x(k) is unipotent", x.is_unipotent(), x.trace(), "2"),
        (f"reduce_g({p},{k})", "g(p,k) mod p == x(k)^-1",
         _nf_equal(nf_g, nf_x_inv), g_p, x_p_inv),
        (f"reduce_h({p},{k})", "h(p,k) mod p compared against x(k) and x(3k) mod p: "
         f"equals x(k): {eq_xk}; equals x(3k): {eq_x3k}",
         None, h_p, f"x(k) mod p = {x_p}, x(3k) mod p = {x3_p}"),
    ]


def _coset_rows(p: int, ks) -> list:
    """The coset identity g(p,k)^-1 g(p,l) = E12(t^k - t^l) for k, l in ks."""
    gs = [make_witness("g", p, k) for k in ks]
    rows = []
    for k, g_k in zip(ks, gs):
        g_k_inv = g_k.inv()
        for l, g_l in zip(ks, gs):
            prod = g_k_inv * g_l
            expected = e12(Poly.monomial(k) - Poly.monomial(l))
            rows.append((f"coset_lemma({p},{k},{l})",
                         "g(p,k)^-1 * g(p,l) == E12(t^k - t^l)",
                         prod == expected, prod, expected))
    return rows


def verify_witness_suite(ps=(2, 3, 5, 7), ks=(1, 2, 3, 4)) -> WitnessReport:
    """Run every identity check over the given prime and index ranges."""
    rows = []
    for p in ps:
        _prime(p, "witness primes must be prime, got {}")
        for k in ks:
            rows += _identity_rows(p, k)
        rows += _coset_rows(p, ks)
    return _report(rows)


# -- unit-subset-sum witnesses ----------------------------------------

# sn_witness_search refuses primes above this: the search is exhaustive.
SN_MAX_PRIME = 31


def sn_witness_search(p: int, n: int) -> tuple[int, ...] | None:
    """n nonzero residues mod p with every nonempty subset sum nonzero mod
    p, or None when none exist.

    Units of the localization of Z away from p reduce to nonzero residues,
    and a subset sum is again a unit exactly when its residue is nonzero,
    so the search runs entirely over {1..p-1}.  The property is invariant
    under permutation, so candidates are enumerated as non-decreasing
    tuples; reachable subset sums are tracked as a bitmask over Z/p and a
    branch dies the moment sum 0 becomes reachable.  The enumeration is
    exhaustive: None is a verified "none exists".  A witness found is
    checked again by ``_subset_sums_nonzero``.

    Refuses (SearchCapExceeded) when p > SN_MAX_PRIME or n > p, rather than
    running an unbounded search.
    """
    _prime(p, "p must be prime, got {}")
    _int_arg(n, "arity", 1)
    if p > SN_MAX_PRIME or n > p:
        raise SearchCapExceeded(
            f"search cap exceeded: p={_shown(p)}, n={_shown(n)} (caps: p <= {SN_MAX_PRIME}, n <= p)"
        )

    full = (1 << p) - 1

    def rotate(mask: int, a: int) -> int:
        return ((mask << a) | (mask >> (p - a))) & full

    def dfs(depth: int, start: int, sums: int):
        if depth == n:
            return ()
        for a in range(start, p):
            new = sums | rotate(sums, a) | (1 << a)
            if new & 1:
                continue
            rest = dfs(depth + 1, a, new)
            if rest is not None:
                return (a,) + rest
        return None

    found = dfs(0, 1, 0)
    if found is not None and (len(found) != n or not _subset_sums_nonzero(p, found)):
        raise RuntimeError(f"sn witness {found} for p={p}, n={n} fails the subset-sum check (search bug)")
    return found


def _subset_sums_nonzero(p: int, residues) -> bool:
    """Whether no nonempty subset of the residues sums to 0 mod p, from the
    set of residues that nonempty subsets reach: O(len(residues) * p)."""
    reached: set[int] = set()
    for r in residues:
        reached |= {(s + r) % p for s in reached}
        reached.add(r % p)
    return 0 not in reached
