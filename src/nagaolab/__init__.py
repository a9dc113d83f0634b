"""Exact computations around SL2 over polynomial rings: amalgam normal
forms, elementary factorizations, reduction mod p, homology dimension
tables, and verification of explicit matrix identities."""

from .amalgam import AmalgamStructure, Letter, NormalForm
from .gl2 import Gen, Mat2, diag, e12, e21, identity, parse_gen, parse_matrix, w
from .homology import (
    UnsupportedGroupError,
    class_order_lower_bound,
    coinvariant_dims,
    dim_divided_power,
    dim_exterior,
    dim_table,
    h_dims,
    mv_ledger_check,
)
from .nagao import (
    CrossValidationError,
    e2zt_normal_form,
    letters_from_gens,
    nagao_normal_form,
    phi_p,
    sl2fpt_elementary_factor,
)
from .ring import Poly, PolyParseError, is_prime
from .witnesses import (
    SearchCapExceeded,
    make_witness,
    sn_witness_search,
    verify_witness_suite,
)

__version__ = "0.1.0"
