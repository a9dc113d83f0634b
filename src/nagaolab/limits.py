"""The argument rules every layer validates its input with, written out
once each, and the two errors a request can end in besides ``ValueError``:
``CrossValidationError`` (raised by ``nagao``) and ``SearchCapExceeded``
(raised by ``witnesses``).

The rules: ``_prime`` (a prime int, by ``is_prime``), ``_int_arg`` (an int
argument, with an optional least value), ``_fields`` (the fields of a JSON
object), ``_int_of`` (integer text, under the digit cap ``MAX_INT_DIGITS``)
and ``_shown`` (how a message quotes a value).  Each refusal is one short
line, a ``ValueError`` unless ``_int_of`` is given another error.  Of the
input caps only ``MAX_DEGREE`` and ``MAX_INT_DIGITS`` live here; ``cli``
holds its request caps (``MAX_I``, ``MAX_RANGE_VALUES``, ``MAX_WITNESS_K``,
``MAX_WORD_LEN``, ``MAX_WORD_BITS``), ``witnesses`` ``SN_MAX_PRIME`` and
``ring`` the work budget ``MAX_WORK``.

A leaf: it imports nothing from the package, so that a module needing only
these names (``homology``, and ``cli`` for its argument types and its
mapping of errors to exit codes) does not load the polynomial arithmetic of
``ring`` or the modules that raise those errors.
"""

from __future__ import annotations

import re
from functools import lru_cache

__all__ = ["CrossValidationError", "SearchCapExceeded", "is_prime"]


class CrossValidationError(RuntimeError):
    """Two supposedly equivalent computations disagreed; fails loudly."""


class SearchCapExceeded(RuntimeError):
    """A brute-force search was refused because it would exceed its cap.

    Distinct from a verified "no witness exists" answer, which is a normal
    result, not an error.
    """


# Largest degree accepted from text or JSON input, checked before any dense
# coefficient list is built.  The degrees the tests and the benchmark build
# stay far below it (at most about 620).
MAX_DEGREE = 10_000

# Most decimal digits accepted in one integer of text or JSON input, checked
# before int() sees it: CPython's own limit on str -> int conversion (see
# sys.set_int_max_str_digits), refused here with a message naming the input.
MAX_INT_DIGITS = 4_300

# ASCII digits only: \d would take any Unicode decimal digit, which int() reads.
_INT_RE = re.compile(r"[+-]?[0-9]+")


def _shown(value, show=repr) -> str:
    """How a message quotes a value: a str by its repr, another by ``show``,
    past 40 characters by the first 40 and the length.  CPython converts no
    int of more than MAX_INT_DIGITS digits to text, so ``show`` raises
    ValueError on one, or on a value holding one: such an int is quoted by
    its bit length, another value by its type."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
    try:
        text = show(value)
    except ValueError:
        if isinstance(value, int):
            return f"<an integer of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} holding an integer of more than {MAX_INT_DIGITS} digits>"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _int_of(text, what: str, bad: str | None, error=ValueError, *args, index: int | None = None) -> int:
    """The int of integer text, a str of ASCII ``[+-]?[0-9]+`` (int() also reads
    "1_0", " 2 " and other Unicode digits) of at most MAX_INT_DIGITS digits;
    anything else raises ``error(message, *args)``, the message built only
    then: ``bad`` (None where the caller has matched the pattern) with ``{}``
    as ``_shown(text)``, or "<what>[ <index>] has N digits, above the digit cap"."""
    if bad is not None and (type(text) is not str or not _INT_RE.fullmatch(text)):
        raise error(bad.format(_shown(text)), *args)
    digits = len(text.lstrip("+-"))
    if digits > MAX_INT_DIGITS:
        what = what if index is None else f"{what} {index}"
        raise error(f"{what} has {digits} digits, above the digit cap {MAX_INT_DIGITS}", *args)
    return int(text)


def _int_arg(value, what: str, least: int | None = None) -> int:
    """``value`` when it is an int (not a bool) of at least ``least``; else
    ValueError "<what> must be an integer, got ..." or "<what> must be >=
    <least>, got ..."."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {_shown(value)}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {_shown(value)}")
    return value


def _prime(p, bad: str = "modulus must be a prime, got {}") -> int:
    """``p`` when ``is_prime`` accepts it, so an int and never a bool, float
    or str; else ValueError(bad) with ``{}`` as ``_shown(p)``."""
    if not is_prime(p):
        raise ValueError(bad.format(_shown(p)))
    return p


def _fields(obj: dict, what: str, required: tuple, optional: tuple = ()) -> None:
    """Refuse a JSON object with a field outside ``required`` and ``optional``
    ("<what> has the unknown field 'x'"), or without one of ``required``
    ("<what> lacks the field(s) 'x', 'y'")."""
    unknown = [key for key in obj if key not in required and key not in optional]
    if unknown:
        raise ValueError(f"{what} has the unknown field {_shown(unknown[0])}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks the field(s) {', '.join(map(repr, missing))}")


def is_prime(n) -> bool:
    """Whether n is a prime int; never true of a bool, float or str.  Exact
    for every n < 2**64; raises ValueError for a larger int."""
    return type(n) is int and _is_prime(n)


# Deterministic Miller-Rabin bases: no composite below 2**64 is a strong
# pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Primality of an int by Miller-Rabin over the prime bases 2 to 37; the
    type test stays in ``is_prime``, in front of this cache, which would
    answer 3.0 with the entry of 3."""
    if n >= 2**64:
        raise ValueError(f"primality is decided only below 2**64, got {_shown(n)}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
