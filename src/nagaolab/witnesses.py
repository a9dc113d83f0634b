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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .gl2 import Mat2, e12, identity
from .nagao import nagao_normal_form
from .ring import Poly, is_prime

__all__ = [
    "CheckResult",
    "WitnessId",
    "WitnessReport",
    "kernel_combination_check",
    "make_witness",
    "verify_witness_suite",
]

_KINDS = ("h", "g", "x", "n")


@dataclass(frozen=True)
class WitnessId:
    """kind in {h, g, x, n}; p is required except for kind x; k >= 1."""

    kind: str
    p: int | None
    k: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "x":
            if self.p is not None:
                raise ValueError("kind x takes no prime")
        elif self.p is None or not is_prime(self.p):
            raise ValueError(f"kind {self.kind} needs a prime, got {self.p!r}")
        if self.k < 1:
            raise ValueError(f"index k must be >= 1, got {self.k!r}")

    def __str__(self):
        if self.kind == "x":
            return f"x({self.k})"
        return f"{self.kind}({self.p},{self.k})"


def make_witness(wid, p: int | None = None, k: int | None = None) -> Mat2:
    """The witness matrix for an id (or for ``make_witness(kind, p, k)``)."""
    if not isinstance(wid, WitnessId):
        wid = WitnessId(wid, p, k)
    p, k = wid.p, wid.k
    t_k = Poly.monomial(k)
    one = Poly.one()
    if wid.kind == "x":
        return e12(t_k)
    if wid.kind == "h":
        return Mat2(
            one + p * t_k,
            Poly.monomial(3 * k),
            Poly.constant(p**3),
            one - p * t_k + p * p * Poly.monomial(2 * k),
        )
    if wid.kind == "g":
        return Mat2(one, -t_k, Poly.constant(-p), one + p * t_k)
    return Mat2(Poly.zero(), -t_k, Poly.constant(-p), p * t_k)


@dataclass(frozen=True)
class CheckResult:
    id: str
    statement: str
    status: str  # "pass" | "fail" | "info"
    lhs: str
    rhs: str


@dataclass(frozen=True)
class WitnessReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_asserted_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_json(self) -> str:
        return json.dumps([asdict(c) for c in self.checks], indent=2)


def _report(rows) -> WitnessReport:
    """The report of (id, statement, ok, lhs, rhs) rows.  ``ok`` is the
    outcome of an asserted check, or None for a comparison that is only
    reported; lhs and rhs are shown through ``str``."""
    return WitnessReport(tuple(
        CheckResult(cid, statement, "info" if ok is None else "pass" if ok else "fail",
                    str(lhs), str(rhs))
        for cid, statement, ok, lhs, rhs in rows
    ))


def _nf_equal(p: int, lhs: Mat2, rhs: Mat2) -> bool:
    """Equality in SL2(F_p[t]) decided two ways, which must agree."""
    by_matrix = lhs == rhs
    by_nf = nagao_normal_form(p, lhs) == nagao_normal_form(p, rhs)
    if by_matrix != by_nf:
        raise RuntimeError("matrix and normal form equality disagree (bug)")
    return by_matrix


def _identity_rows(p: int, k: int) -> list:
    """The checks on h(p,k), g(p,k), x(k) and n(p,k) for one (p, k)."""
    one = Poly.one()
    h, g, n = (make_witness(kind, p, k) for kind in "hgn")
    x = make_witness("x", None, k)
    det_n = Poly.monomial(k, -p)
    h_p, g_p, x_p = h.reduce_mod_p(p), g.reduce_mod_p(p), x.reduce_mod_p(p)
    x3_p = make_witness("x", None, 3 * k).reduce_mod_p(p)
    eq_xk, eq_x3k = _nf_equal(p, h_p, x_p), _nf_equal(p, h_p, x3_p)
    return [
        (f"det_h({p},{k})", "det h(p,k) == 1", h.det() == one, h.det(), "1"),
        (f"det_g({p},{k})", "det g(p,k) == 1", g.det() == one, g.det(), "1"),
        (f"det_x({k})", "det x(k) == 1", x.det() == one, x.det(), "1"),
        (f"det_n({p},{k})", "det n(p,k) == -p*t^k, so n is not in SL2",
         n.det() == det_n and n.det() != one, n.det(), det_n),
        (f"nonunipotent_g({p},{k})", "g(p,k) is not unipotent",
         not g.is_unipotent(), g.trace(), "trace != 2"),
        (f"unipotent_x({k})", "x(k) is unipotent", x.is_unipotent(), x.trace(), "2"),
        (f"reduce_g({p},{k})", "g(p,k) mod p == x(k)^-1",
         _nf_equal(p, g_p, x_p.inv()), g_p, x_p.inv()),
        (f"reduce_h({p},{k})", "h(p,k) mod p compared against x(k) and x(3k) mod p: "
         f"equals x(k): {eq_xk}; equals x(3k): {eq_x3k}",
         None, h_p, f"x(k) mod p = {x_p}, x(3k) mod p = {x3_p}"),
    ]


def _coset_rows(p: int, ks) -> list:
    """The coset identity g(p,k)^-1 g(p,l) = E12(t^k - t^l) for k, l in ks."""
    rows = []
    for k in ks:
        g_k_inv = make_witness("g", p, k).inv()
        for l in ks:
            prod = g_k_inv * make_witness("g", p, l)
            expected = e12(Poly.monomial(k) - Poly.monomial(l))
            rows.append((f"coset_lemma({p},{k},{l})",
                         "g(p,k)^-1 * g(p,l) == E12(t^k - t^l)",
                         prod == expected, prod, expected))
    return rows


def verify_witness_suite(ps=(2, 3, 5, 7), ks=(1, 2, 3, 4)) -> WitnessReport:
    """Run every identity check over the given prime and index ranges."""
    rows = []
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"witness primes must be prime, got {p!r}")
        for k in ks:
            rows += _identity_rows(p, k)
        rows += _coset_rows(p, ks)
    return _report(rows)


def kernel_combination_check(p: int, k: int) -> WitnessReport:
    """Matrix-level identities behind the degree-one kernel combinations.

    Asserts that g(p,k) and x(k) reduce to mutually inverse matrices mod p
    (so their degree-one classes cancel after reduction); the analogous
    product with h(p,k) is compared to the identity and reported, since it
    works out to E12(t^3k - t^k) instead.  The homology-level conclusion is
    recorded as bookkeeping, not recomputed.
    """
    if p not in (2, 3):
        raise ValueError(f"kernel combinations are stated for p in {{2, 3}}, got {p!r}")
    if k < 1:
        raise ValueError(f"index k must be >= 1, got {k!r}")
    g_p = make_witness("g", p, k).reduce_mod_p(p)
    x_p = make_witness("x", None, k).reduce_mod_p(p)
    h_p = make_witness("h", p, k).reduce_mod_p(p)
    ident = identity(p)
    return _report([
        (f"kernel_gx({p},{k})",
         "g(p,k) mod p times x(k) mod p == I; the degree-one classes of "
         "g and x sum into the kernel of reduction (bookkeeping)",
         _nf_equal(p, g_p * x_p, ident), g_p * x_p, ident),
        (f"kernel_gh({p},{k})", "g(p,k) mod p times h(p,k) mod p compared to I",
         None, g_p * h_p, ident),
    ])
