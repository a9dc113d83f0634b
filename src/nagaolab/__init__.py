"""Exact computations around SL2 over polynomial rings: amalgam normal
forms, elementary factorizations, reduction mod p, homology dimension
tables, and verification of explicit matrix identities."""

__version__ = "0.1.0"
