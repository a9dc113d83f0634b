"""Graded homology dimension bookkeeping at a polynomial-degree truncation.

The groups in the amalgam picture have homology described by exterior and
divided power algebras, so dimensions reduce to binomial counting once the
infinite-rank polynomial parts are truncated: a truncation degree d means
"t-powers up to t^d" (d basis vectors for the t-part t*R[t], d+1 for all of
R[t]).  Tables grow monotonically in d, and every number here is stated at
an explicit d.

For mod-p coefficients of a p-torsion abelian group A of rank n, the
homology is the exterior algebra on n degree-1 generators tensored with a
divided power algebra on n degree-2 generators.  The diagonal unit-group
action scales a basis vector by the square of the unit, so a wedge factor
carries weight 2 and a divided power of multiplicity m carries weight 2m;
coinvariants are counted by keeping the basis monomials whose total weight
vanishes mod p - 1.

The group table ``_DIMS`` is the registry of supported groups: one entry
per group id, mapping it to its dimension function.  ``GROUP_IDS`` (and so
the CLI's ``--group`` choices) and the unknown-group message read it.
"""

from __future__ import annotations

from math import comb

from .limits import _int_arg, _prime, _shown, is_prime

__all__ = [
    "GROUP_IDS",
    "UnsupportedGroupError",
    "class_order_lower_bound",
    "coinvariant_dims",
    "dim_divided_power",
    "dim_exterior",
    "dim_table",
    "h_dims",
    "mv_ledger_check",
]

class UnsupportedGroupError(ValueError):
    """A (group, p) combination outside the modeled scope; never a silent 0."""


def _validate(p: int, i: int, d: int) -> None:
    _prime(p, "p must be prime, got {}")
    _int_arg(i, "homological degree", 0)
    _int_arg(d, "truncation degree", 0)


def dim_exterior(n: int, i: int) -> int:
    """Dimension of the degree-i part of an exterior algebra on n generators."""
    return comb(_int_arg(n, "generator count", 0), _int_arg(i, "degree", 0))


def dim_divided_power(n: int, i: int) -> int:
    """Dimension of the degree-i part of a divided power algebra on n
    generators sitting in degree 2: multisets of total multiplicity i/2."""
    _int_arg(n, "generator count", 0)
    if _int_arg(i, "degree", 0) % 2:
        return 0
    j = i // 2
    if n == 0:
        return 1 if j == 0 else 0
    return comb(n + j - 1, j)


def _abelian_mod_p_dim(n: int, i: int, p: int, weight_filter: bool) -> int:
    """dim H_i of a rank-n elementary abelian p-group with F_p coefficients,
    optionally keeping only monomials of weight 0 mod p - 1."""
    total = 0
    for wedge in range(min(i, n) + 1):
        rest = i - wedge
        if rest % 2:
            continue
        j = rest // 2
        if weight_filter and (2 * wedge + 2 * j) % (p - 1) != 0:
            continue
        total += dim_exterior(n, wedge) * dim_divided_power(n, 2 * j)
    return total


def _bz_dim(p: int, i: int) -> int:
    if p == 2:
        return 1 if i == 0 else 2
    return 1 if i <= 1 else 0


def _bzt_dim(p: int, i: int, d: int) -> int:
    # Kunneth for B(Z) x t*Z[t]; the free part contributes plain wedges,
    # none above degree d.
    return sum(_bz_dim(p, l) * comb(d, i - l) for l in range(max(i - d, 0), i + 1))


def _sl2z_dim(p: int, i: int) -> int:
    # Z/12 in every degree when p divides 12, else concentrated in degree 0.
    if i == 0:
        return 1
    return 1 if p in (2, 3) else 0


def _e2zt_dim(p: int, i: int, d: int) -> int:
    if p == 2:
        # No closed form at p = 2; the amalgam dimension identity is the
        # definition here (the sequence of the decomposition splits dims).
        return _bzt_dim(2, i, d) + _sl2z_dim(2, i) - _bz_dim(2, i)
    if i == 0:
        return 1
    if i == 1:
        return d + (1 if p == 3 else 0)
    return comb(d + 1, i) + _sl2z_dim(p, i)


def _sl2fpt_bquot_dim(p: int, i: int, d: int) -> int:
    if p not in (2, 3):
        raise UnsupportedGroupError(
            "the B-quotient summand of SL2(F_p[t]) is modeled only for "
            f"p in {{2, 3}} (the unit-group action is nontrivial for p={p}, "
            "and the full splitting is out of scope)"
        )
    return h_dims("bfpt", p, i, d) - h_dims("bfp", p, i, d)


# group id -> (p, i, d) -> dim H_i(group, F_p) at truncation degree d
_DIMS = {
    # t*Z[t], free abelian of rank d
    "tzt": lambda p, i, d: comb(d, i),
    # t*F_p[t], p-torsion of rank d
    "tfpt": lambda p, i, d: _abelian_mod_p_dim(d, i, p, weight_filter=False),
    # B(Z) = Z/2 x Z
    "bz": lambda p, i, d: _bz_dim(p, i),
    # B(Z[t]) = B(Z) x t*Z[t]
    "bzt": _bzt_dim,
    # B(F_p): coinvariants of rank-1 mod-p homology
    "bfp": lambda p, i, d: _abelian_mod_p_dim(1, i, p, weight_filter=True),
    # B(F_p[t]): coinvariants of rank-(d+1) mod-p homology
    "bfpt": lambda p, i, d: _abelian_mod_p_dim(d + 1, i, p, weight_filter=True),
    # SL2(Z), through its degree-preserving Z/12 abelianization
    "sl2z": lambda p, i, d: _sl2z_dim(p, i),
    # E2(Z[t])
    "e2zt": _e2zt_dim,
    # the B-quotient summand of SL2(F_p[t]) for p in {2, 3}; the
    # constant-subgroup summand is flagged, never computed
    "sl2fpt_bquot": _sl2fpt_bquot_dim,
}
GROUP_IDS = tuple(_DIMS)


def h_dims(group: str, p: int, i: int, d: int) -> int:
    """dim H_i(group, F_p) truncated at t-degree d."""
    _validate(p, i, d)
    if group not in _DIMS:
        raise UnsupportedGroupError(
            f"unknown group id {_shown(group)}; supported: {', '.join(GROUP_IDS)}"
        )
    return _DIMS[group](p, i, d)


def dim_table(group: str, p: int, max_i: int, d: int) -> list[dict]:
    """The rows (group, p, d, i, dim, flags) of dim H_i(group, F_p) for
    i = 0..max_i at truncation degree d; the flags of ``sl2fpt_bquot`` name
    the summand it leaves out."""
    _validate(p, max_i, d)
    flags = "plus an opaque H_i(SL2(F_p)) summand (not computed)" if group == "sl2fpt_bquot" else ""
    return [
        {"group": group, "p": p, "d": d, "i": i, "dim": h_dims(group, p, i, d), "flags": flags}
        for i in range(max_i + 1)
    ]


def coinvariant_dims(p: int, i: int, d: int) -> int:
    """Unit-group coinvariants of the wedge part of H_i of t*F_p[t] at
    truncation degree d.

    The action is diagonal on the exterior monomials of t^1..t^d, and each
    wedge factor scales by a square, so a degree-i monomial has weight 2i:
    all C(d, i) of them are fixed when p - 1 divides 2i, and none otherwise.
    """
    _validate(p, i, d)
    return dim_exterior(d, i) if (2 * i) % (p - 1) == 0 else 0


def mv_ledger_check(p: int, i: int, d: int) -> dict:
    """Check dim H_i(E2(Z[t])) = dim H_i(B(Z[t])) + dim H_i(SL2(Z)) - dim H_i(B(Z)),
    the dimension identity forced by the amalgam decomposition; returns the
    ledger row (p, i, d, the four dimensions, and ok)."""
    if p not in (2, 3, 5, 7):
        raise ValueError(f"ledger is configured for p in {{2, 3, 5, 7}}, got {_shown(p)}")
    _validate(p, i, d)
    row = {"p": p, "i": i, "d": d}
    for group in ("e2zt", "bzt", "sl2z", "bz"):
        row[group] = h_dims(group, p, i, d)
    row["ok"] = row["e2zt"] == row["bzt"] + row["sl2z"] - row["bz"]
    return row


def class_order_lower_bound(i: int, prime_bound: int = 7) -> int:
    """Divisibility lower bound on the order of a degree-i wedge class in the
    integral homology it maps into: always 2 * 3, times every prime
    5 <= q <= prime_bound with (q - 1)/2 dividing i.  This is only the bound
    the reduction argument yields, never a claim of the exact order."""
    _int_arg(i, "the degree", 1)
    _int_arg(prime_bound, "prime_bound")
    bound = 6
    # a prime q > 2i + 1 has (q - 1)/2 > i, which cannot divide i
    for q in range(5, min(prime_bound, 2 * i + 1) + 1):
        if is_prime(q) and i % ((q - 1) // 2) == 0:
            bound *= q
    return bound
