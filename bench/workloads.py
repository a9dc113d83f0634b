"""Seeded inputs, operations and oracles for the benchmark workloads.

Inputs are built here from the seed alone; nothing is imported from the
test suite, so a test refactor cannot change what is measured.  Shapes are
stratified by position in the pool (prime, generator count, word length
cycle deterministically) and only the polynomial contents come from the
seed, so the cost mix of a run barely depends on which seed it got.

Every workload exposes the same interface:

    build(seed, pool)   -> list of inputs
    run(item)           -> output            (the timed operation)
    check(item, out)    -> None or a failure message (outside the timing)
    canon(item, out)    -> text used for the output digest

The oracles share nothing with the library's own exactness checks: they
multiply results back out with ``Mat2`` products, compare tags, reduce
coefficients themselves, and read the CLI's printed output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from nagaolab import cli
from nagaolab.amalgam import Letter
from nagaolab.gl2 import Mat2, diag, e12, e21, identity, w
from nagaolab.nagao import e2zt_normal_form, nagao_normal_form, phi_p
from nagaolab.ring import Poly

# -- shapes (documented in bench/README.md) -----------------------------

LOWDEG_PRIMES = (3, 7, 101)
LOWDEG_GENS = range(8, 25)  # alternating E12/E21 generators per matrix
LOWDEG_DEG = (1, 4)  # degree of each generator's polynomial

HIGHDEG_PRIMES = (7, 101)
# One matrix in three has 3 generators, the others 4, and every matrix has
# total degree near HIGHDEG_TOTAL, so operations cost about the same and the
# median does not sit on a gap between cost groups.
HIGHDEG_GENS = (3, 4, 4)
HIGHDEG_DEG = (64, 160)
HIGHDEG_TOTAL = 400

E2ZT_PRIMES = (2, 3, 5, 7)
E2ZT_LEN = range(20, 61)
E2ZT_DEG = 3  # B(Z[t]) letters have degree <= 3
E2ZT_COEFF = 4  # integer coefficients in [-4, 4]

# Default pool sizes: whole multiples of each workload's stratification
# cycle, and large enough that a run revisits every input several times.
POOL = {"nf_lowdeg": 3 * 17 * 4, "nf_highdeg": 48, "e2zt_words": 4 * 41, "cli": 12 * 6}


# -- generators ----------------------------------------------------------


def _poly_fp(rng, p, deg):
    """A polynomial of exactly the given degree over F_p."""
    return Poly([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)], p)


def _alternating_product(rng, p, n_gens, degrees):
    """E12(f1) E21(f2) ... (or starting with E21), multiplied out entry by
    entry: two polynomial products per generator instead of eight."""
    a, b, c, d = identity(p).entries()
    upper = rng.random() < 0.5
    for deg in degrees[:n_gens]:
        f = _poly_fp(rng, p, deg)
        if upper:  # [[a, b], [c, d]] * [[1, f], [0, 1]]
            b, d = a * f + b, c * f + d
        else:  # [[a, b], [c, d]] * [[1, 0], [f, 1]]
            a, c = a + b * f, c + d * f
        upper = not upper
    return Mat2(a, b, c, d)


@dataclass(frozen=True)
class MatrixItem:
    p: int
    mat: Mat2


def build_lowdeg(seed: int, pool: int) -> list[MatrixItem]:
    rng = random.Random(f"nf_lowdeg:{seed}")
    items = []
    for i in range(pool):
        p = LOWDEG_PRIMES[i % len(LOWDEG_PRIMES)]
        n = LOWDEG_GENS[(i // len(LOWDEG_PRIMES)) % len(LOWDEG_GENS)]
        degrees = [rng.randint(*LOWDEG_DEG) for _ in range(n)]
        items.append(MatrixItem(p, _alternating_product(rng, p, n, degrees)))
    return items


def build_highdeg(seed: int, pool: int) -> list[MatrixItem]:
    rng = random.Random(f"nf_highdeg:{seed}")
    lo, hi = HIGHDEG_DEG
    items = []
    for i in range(pool):
        p = HIGHDEG_PRIMES[i % len(HIGHDEG_PRIMES)]
        n = HIGHDEG_GENS[i % len(HIGHDEG_GENS)]
        # Degrees spread +-20 around total / n by a fixed stride, with a
        # small seeded jitter.
        base = HIGHDEG_TOTAL // n
        degrees = [
            min(hi, max(lo, base + (i * 37 + j * 53) % 41 - 20 + rng.randint(-4, 4)))
            for j in range(n)
        ]
        items.append(MatrixItem(p, _alternating_product(rng, p, n, degrees)))
    return items


def _sl2z_letter(rng) -> Letter:
    m = identity(None)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            m = m * e12(rng.randint(-3, 3))
        elif kind == 1:
            m = m * e21(rng.randint(-3, 3))
        elif kind == 2:
            m = m * w(None)
        else:
            m = m * diag(rng.choice((1, -1)))
    return Letter(1, m)


def _bzt_letter(rng) -> Letter:
    u = rng.choice((1, -1))
    f = Poly([rng.randint(-E2ZT_COEFF, E2ZT_COEFF) for _ in range(rng.randint(1, E2ZT_DEG + 1))])
    return Letter(2, Mat2(Poly((u,)), f, Poly(()), Poly((u,))))


@dataclass(frozen=True)
class WordItem:
    p: int
    word: tuple[Letter, ...]


def build_e2zt(seed: int, pool: int) -> list[WordItem]:
    rng = random.Random(f"e2zt_words:{seed}")
    items = []
    for i in range(pool):
        p = E2ZT_PRIMES[i % len(E2ZT_PRIMES)]
        n = E2ZT_LEN[i % len(E2ZT_LEN)]
        word = tuple(_sl2z_letter(rng) if rng.random() < 0.5 else _bzt_letter(rng) for _ in range(n))
        items.append(WordItem(p, word))
    return items


# -- CLI invocations -----------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    """One CLI invocation: argv after ``python -m nagaolab.cli``, the exit
    code it must give, the family it is timed under, and what the oracle
    compares its output against (``expect`` depends on ``kind``)."""

    kind: str
    family: str
    argv: tuple[str, ...]
    code: int
    expect: object = None


def _gen_text(rng, mod, kinds, max_deg):
    """A generator shorthand letter and its matrix."""
    kind = rng.choice(kinds)
    if kind == "W":
        return "W", w(mod)
    if kind == "D":
        u = rng.choice((1, -1)) if mod is None else rng.randrange(1, mod)
        return f"D({u})", diag(u, mod)
    if mod is None:
        f = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, max_deg + 1))])
    else:
        f = _poly_fp(rng, mod, rng.randint(0, max_deg))
    if f.is_zero:
        f = Poly((1,), mod)
    mat = e12(f) if kind == "E12" else e21(f)
    return f"{kind}({f})", mat


def _word_case(rng, mod, kinds, length):
    texts, prod = [], identity(mod)
    for _ in range(length):
        text, mat = _gen_text(rng, mod, kinds, 3)
        texts.append(text)
        prod = prod * mat
    return json.dumps(texts), prod


def _sn_brute_force(p: int, n: int):
    """Smallest non-decreasing n-tuple of nonzero residues mod p with no
    nonempty subset summing to 0, or None.  Exhaustive; p is small."""
    for cand in combinations_with_replacement(range(1, p), n):
        if _subset_sums_nonzero(p, cand):
            return cand
    return None


def _subset_sums_nonzero(p, residues) -> bool:
    return all(
        sum(combo) % p for r in range(1, len(residues) + 1) for combo in combinations(residues, r)
    )


# (p, n) pairs for verify --sn; a witness exists exactly when n < p.
SN_CASES = ((3, 2), (3, 3), (5, 4), (5, 5), (7, 5), (7, 7))


def build_cli(seed: int, pool: int) -> list[CliItem]:
    """The fixed cyclic mix, 12 invocations per cycle.  The witness suite
    appears twice per cycle (text and JSON), so the slowest family holds
    about one sixth of the operations and p90 falls inside it."""
    rng = random.Random(f"cli:{seed}")
    items: list[CliItem] = []
    while len(items) < pool:
        cycle = len(items) // 12
        p = LOWDEG_PRIMES[cycle % len(LOWDEG_PRIMES)]
        m = _alternating_product(rng, p, rng.randint(8, 12), [rng.randint(1, 3) for _ in range(12)])
        word_p, prod_p = _word_case(rng, p, ("E12", "E21", "D"), rng.randint(4, 8))
        word_z, prod_z = _word_case(rng, None, ("E12", "E21", "D", "W"), rng.randint(4, 8))
        m_json = _alternating_product(rng, p, rng.randint(8, 12), [rng.randint(1, 3) for _ in range(12)])
        sn = SN_CASES[cycle % len(SN_CASES)]
        items += [
            CliItem("nf_text", "nf", ("nf", "--mod", str(p), str(m)), 0, str(m)),
            CliItem("nf_text", "nf", ("nf", "--mod", str(p), word_p), 0, str(prod_p)),
            CliItem("nf_text", "nf", ("nf", "--ring", "e2zt", word_z), 0, str(prod_z)),
            CliItem("nf_json", "nf", ("nf", "--mod", str(p), "--format", "json", str(m_json)), 0, m_json.to_json()),
            CliItem("hdim_text", "hdim", ("hdim", "--group", "e2zt", "--mod", "3", "--max-i", "4", "--max-deg", "8"), 0, 5),
            CliItem("hdim_ledger", "hdim", ("hdim", "--group", "e2zt", "--mod", "7", "--ledger", "--max-i", "8", "--max-deg", "8"), 0, 9),
            CliItem("hdim_text", "hdim", ("hdim", "--group", "bfpt", "--mod", "5", "--coinv", "--max-i", "3", "--max-deg", "6"), 0, 4),
            CliItem("hdim_csv", "hdim", ("hdim", "--group", "sl2fpt_bquot", "--mod", "2", "--max-deg", "6", "--format", "csv"), 0, 5),
            CliItem("witness_text", "verify_witness", ("verify", "--witness", "2..7", "1..4"), 0),
            CliItem("witness_json", "verify_witness", ("verify", "--witness", "2..7", "1..4", "--format", "json"), 0),
            CliItem("sn", "verify_sn", ("verify", "--sn", str(sn[0]), str(sn[1])), 0, _sn_brute_force(*sn)),
            # Documented refusal: a bare matrix over Z[t] is out of scope.
            CliItem("refused", "nf", ("nf", "--ring", "e2zt", "[[1, t], [0, 1]]"), 3),
        ]
    return items[:pool]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


# The child processes import the library from the checkout's src as well.
CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")])),
)


def run_cli_process(item: CliItem) -> CliResult:
    proc = subprocess.run(
        [sys.executable, "-m", "nagaolab.cli", *item.argv],
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return CliResult(proc.returncode, proc.stdout)


def run_cli_inprocess(item: CliItem) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(item.argv))
    return CliResult(code, out.getvalue())


# -- operations ----------------------------------------------------------


def run_nf(item: MatrixItem):
    return nagao_normal_form(item.p, item.mat)


def run_e2zt(item: WordItem):
    return e2zt_normal_form(item.word), phi_p(item.word, item.p)


# -- oracles -------------------------------------------------------------


def _evaluate(head, letters):
    m = head
    for letter in letters:
        m = m * letter.mat
    return m


def _alternates(tags) -> bool:
    return all(tags[i] != tags[i + 1] for i in range(len(tags) - 1)) and all(t in (1, 2) for t in tags)


def _check_nf(nf, expected: Mat2, what: str):
    if not _alternates([letter.factor for letter in nf.tail]):
        return f"{what}: tags do not alternate"
    if _evaluate(nf.head, nf.tail) != expected:
        return f"{what}: head * tail does not multiply back to the input"
    return None


def _reduce(poly: Poly, p: int) -> tuple[int, ...]:
    cs = [c % p for c in poly.coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def check_nf(item: MatrixItem, nf):
    return _check_nf(nf, item.mat, "normal form")


def check_e2zt(item: WordItem, out):
    nf, (mat_p, nf_p) = out
    product = _evaluate(identity(None), item.word)
    failure = _check_nf(nf, product, "e2zt normal form")
    if failure:
        return failure
    p = item.p
    got = [(e.mod, e.coeffs) for e in mat_p.entries()]
    want = [(p, _reduce(e, p)) for e in product.entries()]
    if got != want:
        return "phi_p matrix differs from the word's product reduced mod p"
    return _check_nf(nf_p, mat_p, "phi_p normal form")


def _matrix_line(stdout: str):
    lines = stdout.strip().splitlines()
    return lines[-1][len("matrix: "):] if lines and lines[-1].startswith("matrix: ") else None


def check_cli(item: CliItem, res: CliResult):
    if res.code != item.code:
        return f"{' '.join(item.argv[:3])}: exit code {res.code}, expected {item.code}"
    out = res.stdout
    kind = item.kind
    if kind == "nf_text" and _matrix_line(out) != item.expect:
        return "nf: printed matrix differs from the input"
    if kind == "nf_json":
        payload = json.loads(out)
        if payload["matrix"] != item.expect:
            return "nf --format json: matrix field differs from the input"
        if not _alternates(payload["tags"]) or payload["length"] != len(payload["tail"]):
            return "nf --format json: malformed normal form"
    if kind in ("hdim_text", "hdim_ledger"):
        rows = [line for line in out.splitlines()[1:] if not line.startswith("ledger")]
        if len(rows) != item.expect:
            return f"hdim: {len(rows)} table rows, expected {item.expect}"
    if kind == "hdim_ledger":
        ledger = [line for line in out.splitlines() if line.startswith("ledger")]
        if len(ledger) != item.expect or not all(line.endswith("... OK") for line in ledger):
            return "hdim --ledger: a ledger row is not ok"
    if kind == "hdim_csv":
        lines = out.strip().splitlines()
        if lines[0] != "group,p,d,i,dim,flags" or len(lines) != 1 + item.expect:
            return "hdim --format csv: wrong header or row count"
    if kind == "witness_text" and not out.rstrip().endswith("failures: 0"):
        return "verify --witness: failures reported"
    if kind == "witness_json":
        checks = json.loads(out)
        if not checks or any(c["status"] == "fail" for c in checks):
            return "verify --witness --format json: a check failed"
    if kind == "sn":
        if item.expect is None:
            if not out.startswith("none exists"):
                return "verify --sn: expected 'none exists'"
        elif f": {tuple(item.expect)}" not in out:
            return f"verify --sn: expected witness {tuple(item.expect)}"
    return None


# -- digests -------------------------------------------------------------


def _canon_mat(m: Mat2) -> str:
    return repr([(e.mod, e.coeffs) for e in m.entries()])


def _canon_nf(nf) -> str:
    return _canon_mat(nf.head) + "".join(f"|{l.factor}:{_canon_mat(l.mat)}" for l in nf.tail)


def canon_nf(item, nf) -> str:
    return _canon_nf(nf)


def canon_e2zt(item, out) -> str:
    nf, (mat_p, nf_p) = out
    return _canon_nf(nf) + "#" + _canon_mat(mat_p) + "#" + _canon_nf(nf_p)


def canon_cli(item, res: CliResult) -> str:
    return f"{res.code}\n{res.stdout}"


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    check: object
    canon: object


WORKLOADS = {
    "nf_lowdeg": Workload(build_lowdeg, run_nf, check_nf, canon_nf),
    "nf_highdeg": Workload(build_highdeg, run_nf, check_nf, canon_nf),
    "e2zt_words": Workload(build_e2zt, run_e2zt, check_e2zt, canon_e2zt),
    "cli": Workload(build_cli, run_cli_process, check_cli, canon_cli),
}
