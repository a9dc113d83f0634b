"""Span tracing from outside the library, and the per-layer metrics.

``Tracer.install`` replaces the public functions and the arithmetic methods
of each layer module with thin wrappers that record a span (name, start,
end, parent span, op id) per call.  Module-level bindings of a wrapped
function in other modules (``witnesses.nagao_normal_form``, the benchmark's
own imports) are replaced as well, so every call path is seen.  Nothing is
changed on disk or outside this process, and ``uninstall`` restores every
original.

Spans live in memory; ``aggregate`` turns one pass of them into totals
(calls, inclusive and self time, work counts), ``layer_metrics`` turns the
totals into the named per-layer metrics, and ``write_spans`` dumps the
last pass when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
import types
from array import array

LAYERS = ("ring", "gl2", "amalgam", "nagao", "witnesses", "homology", "cli")

# Dunder methods that do arithmetic; other dunders (eq, hash, repr, the
# dataclass-generated __init__) are left alone.
ARITH = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__divmod__"}
# Poly construction is the one constructor the metrics count.
EXTRA = {"ring.Poly.__init__"}
# is_prime is a cached predicate that every Poly construction calls, and
# Mat2.entries is a tuple accessor: wrapping them would add a span to each
# construction or entry read while their cost is already inside the caller.
# main_entry calls sys.exit and is never run in-process.
SKIP = {"ring.is_prime", "gl2.Mat2.entries", "cli.main_entry"}

OP = "bench.op"
MUL = ("ring.Poly.__mul__", "ring.Poly.__rmul__")
DIVMOD = "ring.Poly.__divmod__"
INIT = "ring.Poly.__init__"
NORMALIZE = "amalgam.AmalgamStructure.normalize"
DECOMPOSE = "amalgam.AmalgamStructure.decompose"
NAGAO_NF = "nagao.nagao_normal_form"
FACTOR = "nagao.sl2fpt_elementary_factor"
PHI_P = "nagao.phi_p"
SUITE = "witnesses.verify_witness_suite"


def _poly_len(x) -> int:
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return len(coeffs)
    return 1 if x else 0


# What each span records besides its times, as one integer: computed from
# the arguments before the call or from the result after it, never inside
# the timing.  Pairs are packed as high << 32 | low.
def _mul_sizes(args):
    return _poly_len(args[0]) << 32 | _poly_len(args[1])


_BEFORE = {
    MUL[0]: _mul_sizes,
    MUL[1]: _mul_sizes,
    NORMALIZE: lambda args: len(args[1]) if hasattr(args[1], "__len__") else 0,
}
_AFTER = {
    INIT: lambda args, res, extra: len(args[0].coeffs) - 1,
    NORMALIZE: lambda args, res, extra: extra << 32 | len(res.tail),
    FACTOR: lambda args, res, extra: len(res),
    SUITE: lambda args, res, extra: len(res.checks),
}
_LOW = (1 << 32) - 1


def _discover(layer: str):
    """(span name, owner, attribute, raw attribute value) for each callable
    of the layer module that gets a span."""
    mod = importlib.import_module(f"nagaolab.{layer}")
    found = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, type):
            for attr, raw in vars(obj).items():
                span = f"{layer}.{name}.{attr}"
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not isinstance(fn, types.FunctionType):
                    continue
                if attr.startswith("_") and attr not in ARITH and span not in EXTRA:
                    continue
                if span not in SKIP:
                    found.append((span, obj, attr, raw))
        elif callable(obj) and f"{layer}.{name}" not in SKIP:
            found.append((f"{layer}.{name}", mod, name, obj))
    return found


class Spans:
    """Spans in columns, one entry per span in every array: name id, parent
    span index (-1 for a root), op id, start, end, extra integer.  Columns
    of machine numbers keep a pass of a few hundred thousand spans small."""

    FIELDS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"), ("extra", "q"))

    def __init__(self):
        for field, code in self.FIELDS:
            setattr(self, field, array(code))

    def __len__(self) -> int:
        return len(self.name)

    def take(self) -> "Spans":
        """A copy of the spans recorded so far; empties this store in place
        (the wrappers hold its arrays)."""
        out = Spans()
        for field, _ in self.FIELDS:
            col = getattr(self, field)
            getattr(out, field).extend(col)
            del col[:]
        return out


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self, extra_modules=()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = Spans()
        self.stack = [-1]
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._extra_modules = tuple(extra_modules)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span: str, fn):
        nid = self.name_id(span)
        sp, stack, perf = self.spans, self.stack, time.perf_counter
        names, parents, ops, starts, ends, extras = sp.name, sp.parent, sp.op, sp.start, sp.end, sp.extra
        before, after = _BEFORE.get(span), _AFTER.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            extras.append(before(args) if before else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())  # last, so nested spans get the next index
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if after:
                extras[idx] = after(args, result, extras[idx])
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            for span, owner, attr, raw in _discover(layer):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(span, raw.__func__))
                else:
                    new = self._wrap(span, raw)
                if not isinstance(owner, type):
                    originals[id(raw)] = (raw, new)
                self._patch(owner, attr, new)
        # Rebind names imported elsewhere (``from .nagao import ...``).
        mods = [m for n, m in list(sys.modules.items()) if n == "nagaolab" or n.startswith("nagaolab.")]
        for mod in mods + list(self._extra_modules):
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span."""
        self.op = op_id
        return self._wrap(OP, fn)(*args)

    def take_spans(self) -> Spans:
        self.op = -1
        return self.spans.take()

    def write_spans(self, spans: Spans, path) -> None:
        """Dump one pass as gzip'd CSV: name, start/end in us from the pass
        start, parent span index (-1 for a root), op id."""
        t_base = spans.start[0] if len(spans) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            for i in range(len(spans)):
                fh.write(
                    f"{self.names[spans.name[i]]},{(spans.start[i] - t_base) * 1e6:.3f},"
                    f"{(spans.end[i] - t_base) * 1e6:.3f},{spans.parent[i]},{spans.op[i]}\n"
                )


def aggregate(names, spans: Spans) -> dict:
    """Totals over one pass: integer work counts (which must repeat exactly
    for a seed) under ``counts`` and times in seconds under ``times``."""
    n = len(spans)
    name = [names[i] for i in spans.name]
    parent, extra = spans.parent, spans.extra
    dur = [e - s for s, e in zip(spans.start, spans.end)]
    child = [0.0] * n
    route_child = [0.0] * n  # factor and rewrite time under each nagao_normal_form
    for idx in range(n):
        up = parent[idx]
        if up >= 0:
            child[up] += dur[idx]
            if name[idx] in (FACTOR, NORMALIZE) and name[up] == NAGAO_NF:
                route_child[up] += dur[idx]
    counts: dict[str, int] = {}
    times: dict[str, float] = {}

    def add(d, key, v):
        d[key] = d.get(key, 0) + v

    for idx in range(n):
        nm, d, x = name[idx], dur[idx], extra[idx]
        add(counts, f"calls:{nm}", 1)
        add(times, f"self:{nm.split('.')[0]}", d - child[idx])
        add(times, f"incl:{nm}", d)
        if nm in MUL:
            la, lb = x >> 32, x & _LOW
            add(counts, "mul.coeff_products", la * lb)
            longer = max(la, lb)
            bucket = "le16" if longer <= 16 else ("17to256" if longer <= 256 else "gt256")
            add(counts, f"mul.calls.{bucket}", 1)
            add(times, f"mul.{bucket}", d)
        elif nm == INIT:
            counts["max_degree"] = max(counts.get("max_degree", -1), x)
        elif nm == NORMALIZE:
            add(counts, "letters_in", x >> 32)
            add(counts, "letters_out", x & _LOW)
            if parent[idx] >= 0 and name[parent[idx]] == NAGAO_NF:
                add(times, "rewrite_route", d)
        elif nm == FACTOR:
            add(counts, "factor_gens", x)
        elif nm == SUITE:
            add(counts, "witness_checks", x)
        elif nm == NAGAO_NF:
            add(times, "degree_route", d - route_child[idx])
    return {"counts": counts, "times": times}


def merge(total: dict, part: dict) -> None:
    for section in ("counts", "times"):
        for key, v in part[section].items():
            if key == "max_degree":
                total[section][key] = max(total[section].get(key, -1), v)
            else:
                total[section][key] = total[section].get(key, 0) + v


def layer_metrics(counts: dict, times: dict, ops: int) -> dict:
    """The named per-layer metrics from the totals of ``ops`` traced ops.

    A layer a workload never reaches reports 0 for its counts and times."""
    c = lambda key: counts.get(key, 0)
    t = lambda key: times.get(key, 0.0)
    calls = lambda span: c(f"calls:{span}")
    per_op = lambda v: v / ops
    ratio = lambda a, b: a / b if b else 0.0
    total = t(f"incl:{OP}")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(t(f"self:{layer}"), total)
        m[f"{layer}.self_ms_per_op"] = per_op(t(f"self:{layer}")) * 1e3
    mul_calls = sum(calls(s) for s in MUL)
    m.update(
        {
            "ring.init.calls_per_op": per_op(calls(INIT)),
            "ring.mul.calls_per_op": per_op(mul_calls),
            "ring.mul.coeff_products_per_op": per_op(c("mul.coeff_products")),
            "ring.divmod.calls_per_op": per_op(calls(DIVMOD)),
            "ring.divmod.us_per_call": ratio(t(f"incl:{DIVMOD}"), calls(DIVMOD)) * 1e6,
            "ring.max_degree": max(c("max_degree"), 0),
            "gl2.mat_mul.calls_per_op": per_op(calls("gl2.Mat2.__mul__")),
            "gl2.det.calls_per_op": per_op(calls("gl2.Mat2.det")),
            "gl2.inv.calls_per_op": per_op(calls("gl2.Mat2.inv")),
            "amalgam.decompose.calls_per_op": per_op(calls(DECOMPOSE)),
            "amalgam.letters_in_per_op": per_op(c("letters_in")),
            "amalgam.letters_out_per_op": per_op(c("letters_out")),
            "amalgam.normalize.us_per_letter_in": ratio(t(f"incl:{NORMALIZE}"), c("letters_in")) * 1e6,
            "amalgam.reduction_ratio": ratio(c("letters_out"), c("letters_in")),
            "nagao.factor.ms_per_op": per_op(t(f"incl:{FACTOR}")) * 1e3,
            "nagao.factor.gens_per_op": per_op(c("factor_gens")),
            "nagao.rewrite_route.ms_per_op": per_op(t("rewrite_route")) * 1e3,
            "nagao.degree_route.ms_per_op": per_op(t("degree_route")) * 1e3,
            "nagao.crossval.calls_per_op": per_op(calls(NAGAO_NF) + calls(PHI_P)),
            "nagao.phi_p.ms_per_op": per_op(t(f"incl:{PHI_P}")) * 1e3,
            "witnesses.suite_ms": ratio(t(f"incl:{SUITE}"), calls(SUITE)) * 1e3,
            "witnesses.checks": ratio(c("witness_checks"), calls(SUITE)),
            "homology.dim_table.us": ratio(t("incl:homology.dim_table"), calls("homology.dim_table")) * 1e6,
            "homology.h_dims.calls": per_op(calls("homology.h_dims")),
        }
    )
    for bucket in ("le16", "17to256", "gt256"):
        m[f"ring.mul.us_per_call.{bucket}"] = ratio(t(f"mul.{bucket}"), c(f"mul.calls.{bucket}")) * 1e6
    return m


def per_op_counts(counts: dict, ops: int) -> dict:
    """The exact-repeat part: every integer count, per op."""
    return {key: v / ops for key, v in sorted(counts.items())}
