"""Batch command line: normal forms, dimension tables, identity verification.

Exit codes: 0 success, 1 verification failure (or output cut short by a
closed pipe), 2 usage or parse error, 3 out-of-scope request.

Handlers return (exit code, whole stdout text) and write nothing; a refusal
raises ``_Refusal(code, message)``.  ``main`` alone writes: the text to
stdout, or one stderr line mapped from the exception: a refusal to its code,
``UnsupportedGroupError`` to 3, ``CrossValidationError`` to 1, and
``SearchCapExceeded`` or any other ``ValueError`` (parse errors, caps) to 2.

At the top ``cli`` imports only ``limits`` (the integer and quoting rules,
the caps, the errors ``main`` maps) and ``homology`` (the ``--group``
choices); each handler imports the modules it runs, so that a process compiles only those:
``nf`` loads ``amalgam``, ``gl2``, ``nagao`` and ``ring``, and ``verify``
loads ``witnesses`` and with it all of them.

``_cmd_nf`` runs a request in ``ring._metered``: the kernels charge its work
meter as they run, and the charge past ``ring.MAX_WORK`` refuses it (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .homology import GROUP_IDS, UnsupportedGroupError, coinvariant_dims, dim_table, mv_ledger_check
from .limits import MAX_DEGREE, CrossValidationError, SearchCapExceeded, _fields, _int_arg, _int_of, _shown, is_prime

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_OUT_OF_SCOPE = 3

# Input caps, each checked before the work it bounds and refused with exit 2.
MAX_I = 64  # hdim --max-i; hdim --max-deg is capped at MAX_DEGREE
MAX_RANGE_VALUES = 8  # values in one verify --witness range
MAX_WITNESS_K = MAX_DEGREE // 3  # h(p, k) and x(3k) have degree 3k
MAX_WORD_LEN = 2_000  # letters of an nf word or normal form, after shorthand expansion
# Over Z, a cap on the coefficient bits of an nf product (see _capped), which
# keeps it below CPython's 4 300-digit limit on printing an integer.
MAX_WORD_BITS = 4_000


# A JSON string, or a JSON number as its integer part and the rest (fraction
# and exponent), to locate an integer literal in the text; compiled only on
# that error path, so that start-up does not pay for it.
_JSON_TOKEN = r'"(?:[^"\\]|\\.)*"|(-?\d+)([.eE][-+.\deE]*)?'


def _load_json(text: str):
    """json.loads of the text without surrounding whitespace, which the
    matrix parsers ignore too, except that JSON with an integer literal over
    the digit cap is refused with its position in ``text`` before int() sees
    it; text that is not JSON still raises JSONDecodeError."""
    too_long = []

    def parse_int(literal: str) -> int:
        try:
            return _int_of(literal, "JSON integer", None)
        except ValueError:
            too_long.append(literal)
            return 0

    payload = json.loads(text.strip(), parse_int=parse_int)
    if too_long:  # refuse the first literal over the cap, with its position
        for m in re.finditer(_JSON_TOKEN, text):
            if m.group(1) and not m.group(2):
                _int_of(m.group(1), f"JSON integer at position {m.start()}", None)
    return payload


class _Refusal(Exception):
    """A refused request; its args are the exit code and the message, printed as is."""


def _word_from_json(items, mod):
    """The letters of a word given as JSON, one at a time, so that _capped
    can refuse the word before the rest of it is parsed."""
    from .amalgam import Letter
    from .gl2 import mat_from_json, parse_gen, parse_matrix
    from .nagao import letters_from_gens

    for idx, item in enumerate(items):
        if isinstance(item, str):
            yield from letters_from_gens([parse_gen(item, mod)], mod)
        elif isinstance(item, dict):
            _fields(item, f"word item {idx}", ("factor", "matrix"))
            factor, mat = _int_arg(item["factor"], f"word item {idx} field 'factor'"), item["matrix"]
            yield Letter(factor, parse_matrix(mat, mod) if isinstance(mat, str) else mat_from_json(mat, mod))
        else:
            raise ValueError(f"word items must be shorthand strings or factor/matrix objects, got {_shown(item)}")


def _check_word_len(n: int, what: str) -> None:
    if n > MAX_WORD_LEN:
        raise ValueError(f"{what} has more than {MAX_WORD_LEN} letters (the word length cap)")


def _capped(letters, mod, what: str):
    """The letters, refused as soon as they pass MAX_WORD_LEN or, over Z,
    MAX_WORD_BITS: per letter one plus the bit length of its largest entry
    l1 norm |m|, since |m * n| <= 2 |m| |n|."""
    count = bits = 0
    for letter in letters:
        count += 1
        _check_word_len(count, what)
        if mod is None:
            bits += 1 + max(sum(map(abs, cs)) for cs in letter.mat.coeffs).bit_length()
            if bits > MAX_WORD_BITS:
                raise ValueError(f"{what} has summed coefficient bits above the product size cap {MAX_WORD_BITS}")
        yield letter


def _nf_matrix(obj, field: str, mod):
    from .gl2 import mat_from_json

    try:
        return mat_from_json(obj, mod)
    except ValueError as exc:
        raise ValueError(f"normal form field {field!r}: {exc}") from None


def _nf_from_json(obj, mod):
    """The letters of a normal form given as JSON; errors name the bad field.
    The ``length`` and ``matrix`` fields that ``--format json`` writes are
    allowed and not read."""
    from .amalgam import Letter

    _fields(obj, "normal form JSON", ("head", "tags", "tail"), ("length", "matrix"))
    tags, tail = obj["tags"], obj["tail"]
    if not isinstance(tags, list) or not all(type(t) is int for t in tags):
        raise ValueError(f"normal form field 'tags' must be a list of integers, got {_shown(tags)}")
    if not isinstance(tail, list):
        raise ValueError(f"normal form field 'tail' must be a list of matrices, got {_shown(tail)}")
    head = _nf_matrix(obj["head"], "head", mod)
    if len(tags) != len(tail):
        raise ValueError(f"normal form has {len(tags)} tags but {len(tail)} tail matrices")
    _check_word_len(len(tail) + (not head.is_identity), "normal form")
    if not head.is_identity:
        yield Letter(1, head)
    for t, m in zip(tags, tail):
        yield Letter(t, _nf_matrix(m, "tail", mod))


def _render_nf(struct, nf, fmt: str) -> str:
    """The whole output, so that a failure while rendering prints nothing."""
    matrix = struct.nf_evaluate(nf)
    if fmt == "json":
        return json.dumps({
            "length": nf.length,
            "head": nf.head.to_json(),
            "tail": [letter.mat.to_json() for letter in nf.tail],
            "tags": list(nf.tags),
            "matrix": matrix.to_json(),
        }, indent=2)
    lines = [f"length: {nf.length}", f"head:   {nf.head}"]
    lines += [f"tail {idx}: factor {letter.factor}  {letter.mat}" for idx, letter in enumerate(nf.tail, 1)]
    lines.append(f"matrix: {matrix}")
    return "\n".join(lines)


def _cmd_nf(args) -> tuple[int, str]:
    from .amalgam import AmalgamStructure
    from .gl2 import _is_matrix_json, mat_from_json, parse_matrix
    from .nagao import nagao_normal_form
    from .ring import _metered

    text = sys.stdin.read() if args.input == "-" else args.input
    try:
        payload = _load_json(text)
        is_json = isinstance(payload, (list, dict))
    except json.JSONDecodeError:
        payload, is_json = None, False
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    is_word = is_json and not _is_matrix_json(payload)

    if args.ring is None and args.mod is None:
        raise _Refusal(EXIT_USAGE, "nf needs --mod p (or --ring e2zt)")
    if args.ring == "e2zt" and args.mod is not None:
        raise _Refusal(EXIT_USAGE, "nf takes --mod p or --ring e2zt, not both (--ring e2zt works over Z)")
    mod = args.mod  # None exactly for --ring e2zt
    if mod is None and not is_word:
        raise _Refusal(
            EXIT_OUT_OF_SCOPE,
            "out of scope: a bare matrix over Z[t] cannot be decomposed; "
            "membership in the elementary subgroup is not decidable by "
            "these methods, so supply a word in SL2(Z) and B(Z[t]) letters",
        )
    struct = AmalgamStructure(mod)
    what = "normal form" if isinstance(payload, dict) else "word" if is_word else "matrix"

    def request() -> str:
        if what == "matrix":
            nf = nagao_normal_form(mod, mat_from_json(payload, mod) if is_json else parse_matrix(text, mod))
        else:
            letters = _nf_from_json(payload, mod) if what == "normal form" else _word_from_json(payload, mod)
            nf = struct.normalize(list(_capped(letters, mod, what)))
        return _render_nf(struct, nf, args.format)

    return EXIT_OK, _metered(what, request)


def _table_rows(args):
    p, d = args.mod, args.max_deg
    if args.coinv:
        if args.group != "bfpt":
            raise ValueError("--coinv applies to --group bfpt")
        flags = "wedge-part coinvariants of t*F_p[t]"
        for i in range(args.max_i + 1):
            dim = coinvariant_dims(p, i, d)
            yield {"group": args.group, "p": p, "d": d, "i": i, "dim": dim, "flags": flags}
    else:
        yield from dim_table(args.group, p, args.max_i, d)


# Per text format: (header, item template) for the table rows, then for the
# ledger rows; a None header adds no line.
_HDIM_LAYOUT = {
    "text": (
        (f"{'group':<14}{'p':>3} {'d':>3} {'i':>3} {'dim':>7}  flags",
         "{group:<14}{p:>3} {d:>3} {i:>3} {dim:>7}  {flags}"),
        (None, "ledger i={i}: e2zt={e2zt} vs {bzt} + {sl2z} - {bz} ... {mark}"),
    ),
    "csv": (
        ("group,p,d,i,dim,flags", "{group},{p},{d},{i},{dim},{flags}"),
        ("ledger: p,i,d,e2zt,bzt,sl2z,bz,ok", "{p},{i},{d},{e2zt},{bzt},{sl2z},{bz},{ok}"),
    ),
}


def _cmd_hdim(args) -> tuple[int, str]:
    if args.max_deg > MAX_DEGREE:
        raise _Refusal(EXIT_USAGE, f"truncation degree {_shown(args.max_deg)} exceeds the cap {MAX_DEGREE}")
    if not 0 <= args.max_i <= MAX_I:
        raise _Refusal(EXIT_USAGE, f"--max-i must be >= 0 and at most the cap {MAX_I}, got {_shown(args.max_i)}")
    if args.ledger and args.group != "e2zt":
        raise _Refusal(EXIT_USAGE, "--ledger applies to --group e2zt")

    sections = {"rows": list(_table_rows(args))}
    if args.ledger:
        sections["ledger"] = [mv_ledger_check(args.mod, i, args.max_deg) for i in range(args.max_i + 1)]
    code = EXIT_OK if all(rep["ok"] for rep in sections.get("ledger", ())) else EXIT_VERIFY_FAIL
    if args.format == "json":
        return code, json.dumps(sections, indent=2)
    lines = []
    for (header, template), items in zip(_HDIM_LAYOUT[args.format], sections.values()):
        if header is not None:
            lines.append(header)
        for item in items:
            mark = "OK" if item.get("ok") else "MISMATCH"  # text ledger rows only
            lines.append(template.format(mark=mark, **item))
    return code, "\n".join(lines)


def _int(text: str) -> int:
    """``_int_of`` for an integer option; argparse prints an
    ArgumentTypeError's message as it is, and the text whole after any other."""
    return _int_of(text, "value", "invalid int value: {}", argparse.ArgumentTypeError)


def _parse_range(text: str) -> range:
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    try:  # "" for an end that is not integer text, so that the message quotes the whole range
        lo, hi = (_int_of(end, "--witness range value", "") for end in (lo, hi))
    except ValueError as exc:
        bad = f"--witness range {_shown(text)} is not an integer or LO..HI"
        raise ValueError(str(exc) or bad) from None
    if hi < lo:
        raise ValueError(f"empty range {_shown(text)}")
    if hi - lo >= MAX_RANGE_VALUES:
        count = hi - lo + 1 if hi - lo < 10**40 else "over 10**40"
        raise ValueError(f"range {_shown(text)} has {count} values, above the cap {MAX_RANGE_VALUES}")
    return range(lo, hi + 1)


def _cmd_verify(args) -> tuple[int, str]:
    from .witnesses import sn_witness_search, verify_witness_suite

    if args.witness:
        p_range, k_range = (_parse_range(text) for text in args.witness)
        if k_range[-1] > MAX_WITNESS_K:
            index = _shown(k_range[-1])
            raise ValueError(f"witness index {index} is above the cap {MAX_WITNESS_K} (3k <= {MAX_DEGREE})")
        ps = [p for p in p_range if is_prime(p)]
        ks = [k for k in k_range if k >= 1]
        if not ps or not ks:
            raise _Refusal(EXIT_USAGE, "witness ranges contain no usable values")
        report = verify_witness_suite(ps, ks)
        code = EXIT_OK if report.all_asserted_pass else EXIT_VERIFY_FAIL
        if args.format == "json":
            return code, report.to_json()
        lines = []
        for c in report.checks:
            lines.append(f"{c.status.upper():<5} {c.id}: {c.statement}")
            if c.status == "fail":
                lines += [f"      lhs = {c.lhs}", f"      rhs = {c.rhs}"]
        lines.append(f"checks: {len(report.checks)}, failures: {len(report.failures())}")
        return code, "\n".join(lines)

    p, n = args.sn
    residues = sn_witness_search(p, n)
    if args.format == "json":
        return EXIT_OK, json.dumps({"p": p, "n": n, "witness": residues}, indent=2)
    if residues is not None:
        return EXIT_OK, f"witness for p={p}, n={n}: {residues}"
    return EXIT_OK, f"none exists: no {n} nonzero residues mod {p} avoid a zero subset sum"


class _Parser(argparse.ArgumentParser):
    """Refuses a usage error with one line, without the usage block."""

    def error(self, message):
        raise _Refusal(EXIT_USAGE, f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nagaolab",
        description="exact SL2 amalgam normal forms, homology dimension "
        "tables, and witness identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="normal form of a matrix or word")
    p_nf.add_argument("input", help="matrix text, word JSON, or - for stdin")
    p_nf.add_argument("--mod", type=_int, help="prime p for the F_p[t] side")
    p_nf.add_argument("--ring", choices=["e2zt"], help="decompose a word over E2(Z[t])")
    p_nf.add_argument("--format", choices=["text", "json"], default="text")

    p_hd = sub.add_parser("hdim", help="homology dimension table")
    p_hd.add_argument("--group", required=True, choices=list(GROUP_IDS))
    p_hd.add_argument("--mod", type=_int, required=True, help="coefficient prime p")
    p_hd.add_argument("--max-i", type=_int, default=4, dest="max_i")
    p_hd.add_argument("--max-deg", type=_int, default=4, dest="max_deg")
    p_hd.add_argument("--coinv", action="store_true", help="wedge-part coinvariant dims")
    p_hd.add_argument("--ledger", action="store_true", help="check the amalgam dimension identity per degree")
    p_hd.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_vf = sub.add_parser("verify", help="run identity or witness searches")
    group = p_vf.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness", nargs=2, metavar=("P_RANGE", "K_RANGE"),
                       help="e.g. --witness 2..3 1..2")
    group.add_argument("--sn", nargs=2, type=_int, metavar=("P", "N"),
                       help="unit subset-sum witness search")
    p_vf.add_argument("--format", choices=["text", "json"], default="text")

    return parser


_HANDLERS = {"nf": _cmd_nf, "hdim": _cmd_hdim, "verify": _cmd_verify}


def main(argv=None) -> int:
    """Run one request, write its stdout text or one stderr line, and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
        code, out = _HANDLERS[args.command](args)
    except SystemExit:  # --help, which argparse has written; errors raise _Refusal
        return EXIT_OK
    except _Refusal as exc:
        code, err = exc.args
    except UnsupportedGroupError as exc:  # a ValueError, so before that clause
        code, err = EXIT_OUT_OF_SCOPE, f"out of scope: {exc}"
    except CrossValidationError as exc:
        code, err = EXIT_VERIFY_FAIL, f"verification failure: {exc}"
    except (SearchCapExceeded, ValueError) as exc:
        code, err = EXIT_USAGE, f"error: {exc}"
    else:
        print(out)
        return code
    print(err, file=sys.stderr)
    return code


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again, and
        # report that the output was not delivered in full.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_VERIFY_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
