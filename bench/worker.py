"""One workload process: the metric run, the traced run, or a set-up probe.

Started by ``bench/run.py``; prints one JSON object as its last stdout
line.  Run from the root of a checkout: the library is imported from the
checkout's ``src`` and nowhere else.

Load shape: a closed loop with one client.  Each operation starts after the
previous one returned; no threads, no pools, and for ``cli`` one child
process at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

SRC = os.path.abspath("src")
if not os.path.isfile(os.path.join(SRC, "nagaolab", "__init__.py")):
    sys.exit(f"bench: no nagaolab sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, SRC)

import nagaolab  # noqa: E402

if os.path.dirname(os.path.abspath(nagaolab.__file__)) != os.path.join(SRC, "nagaolab"):
    sys.exit(f"bench: nagaolab was imported from {nagaolab.__file__}, not from {SRC}")

import tracer  # noqa: E402
from calib import calibrate, calibration  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # at least ten samples beyond p90
HARD_STOP_S = 120  # stop the timed window even if MIN_OPS was not reached


# -- helpers -------------------------------------------------------------


def _median_process_ms(argv, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, env=workloads.CLI_ENV, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def interpreter_ms(runs: int = 5) -> dict:
    """Bare interpreter start-up and the import of the CLI module on top."""
    bare = _median_process_ms([sys.executable, "-c", "pass"], runs)
    imp = _median_process_ms([sys.executable, "-c", "import nagaolab.cli"], runs)
    return {"python_startup_ms": bare, "import_ms": imp - bare}


def src_digest() -> str:
    """sha256 over the library sources, identifying the code measured."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(SRC, "nagaolab")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Outputs:
    """Checks every output outside the timing: the oracle on the first
    output for each input, equality with that output on every repeat."""

    def __init__(self, wl, items):
        self.wl, self.items = wl, items
        self.first: dict[int, object] = {}
        self.failures: list[str] = []

    def record(self, idx: int, out, error: str | None) -> bool:
        if error is None:
            if idx not in self.first:
                error = self.wl.check(self.items[idx], out)
                if error is None:
                    self.first[idx] = out
            elif out != self.first[idx]:
                error = "output differs from the first output for the same input"
        if error is not None:
            self.failures.append(f"input {idx}: {error}")
        return error is None

    def digest(self, limit: int = 100) -> dict:
        h = hashlib.sha256()
        n = 0
        while n < min(limit, len(self.items)) and n in self.first:
            h.update(self.wl.canon(self.items[n], self.first[n]).encode() + b"\n")
            n += 1
        return {"sha256": h.hexdigest(), "inputs": n}


def _attempt(fn, item):
    t0 = time.perf_counter()
    try:
        out, error = fn(item), None
    except Exception as exc:  # any failure of the program counts, the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, error


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- the metric run ------------------------------------------------------


def metric_run(name: str, seed: int, seconds: float, *, setup_only=False, pool=None, min_ops=MIN_OPS):
    wl = workloads.WORKLOADS[name]
    items = wl.build(seed, pool or workloads.POOL[name])
    outputs = Outputs(wl, items)
    _, out, error = _attempt(wl.run, items[0])  # warm-up
    failed = int(not outputs.record(0, out, error))
    setup_end = time.monotonic()
    calib, ref, chunk_s = calibration(name)
    calibs = [calib()]
    if setup_only:
        return {"setup_end": setup_end, "calibration_s": calibs[0]}

    latencies, scaled = [], []
    k = 0
    t_start = time.perf_counter()
    while True:
        chunk = []
        chunk_end = time.perf_counter() + chunk_s
        while time.perf_counter() < chunk_end:
            idx = k % len(items)
            dt, out, error = _attempt(wl.run, items[idx])
            chunk.append(dt)
            failed += not outputs.record(idx, out, error)
            k += 1
        calibs.append(calib())
        factor = ref / ((calibs[-2] + calibs[-1]) / 2)
        latencies += chunk
        scaled += [dt * factor for dt in chunk]
        elapsed = time.perf_counter() - t_start
        if (elapsed >= seconds and k >= min_ops) or elapsed >= HARD_STOP_S:
            break
    window_s = time.perf_counter() - t_start
    rss = _peak_rss_mb(children=name == "cli")

    def timings(lat):
        return {
            "ops_per_s": len(lat) / sum(lat),
            "op_ms_p50": statistics.median(lat) * 1e3,
            "op_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        }

    return {
        "setup_end": setup_end,
        "calibration_s": calibs[0],
        "attempted": k + 1,  # with the warm-up
        "failed": failed,
        "failures": outputs.failures[:20],
        "window_s": window_s,
        "raw": timings(latencies),
        "scaled": timings(scaled),
        "calibrations_s": calibs,
        "peak_rss_mb": rss,
        "digest": outputs.digest(),
        "min_ops_reached": k >= min_ops,
    }


# -- the traced run ------------------------------------------------------

# Inputs per pass: the first TRACE_OPS inputs of the workload's pool.
TRACE_OPS = {"nf_lowdeg": 51, "nf_highdeg": 12, "e2zt_words": 41, "cli": 12}
CLI_PROCESS_RUNS = 3  # process timings per invocation in the traced cli run


def _timed_pass(run, items):
    outs, total = [], 0.0
    for item in items:
        t0 = time.perf_counter()
        outs.append(run(item))
        total += time.perf_counter() - t0
    return outs, total


def trace_run(name: str, seed: int, seconds: float, *, n_ops=None, spans_path=None):
    """Alternate untraced and traced passes over the same inputs until the
    time is spent (at least two traced passes).  Work counts come from the
    first traced pass and must repeat exactly in every later one."""
    wl = workloads.WORKLOADS[name]
    items = wl.build(seed, n_ops or TRACE_OPS[name])
    run = workloads.run_cli_inprocess if name == "cli" else wl.run
    outputs = Outputs(wl, items)
    for idx, item in enumerate(items):  # warm-up pass, checked by the oracle
        _, out, error = _attempt(run, item)
        outputs.record(idx, out, error)
    failures = outputs.failures
    if failures:
        return {"attempted": len(items), "failed": len(failures), "failures": failures[:20], "correct": False}

    tr = tracer.Tracer(extra_modules=[workloads])
    untraced, traced, calibs = [], [], []
    total = {"counts": {}, "times": {}}
    first_counts = None
    last_spans = tracer.Spans()
    passes = 0
    t_start = time.perf_counter()
    while passes < 2 or time.perf_counter() - t_start < seconds:
        outs, dt = _timed_pass(run, items)
        untraced.append(dt)
        if outs != [outputs.first[i] for i in range(len(items))]:
            failures.append("untraced pass output differs from the checked output")
        tr.install()
        try:
            t0 = time.perf_counter()
            outs = [tr.run_op(i, run, item) for i, item in enumerate(items)]
            traced.append(time.perf_counter() - t0)
        finally:
            tr.uninstall()
        if outs != [outputs.first[i] for i in range(len(items))]:
            failures.append("traced pass output differs from the checked output")
        calibs.append(calibrate())
        last_spans = tr.take_spans()
        agg = tracer.aggregate(tr.names, last_spans)
        if first_counts is None:
            first_counts = agg["counts"]
        elif agg["counts"] != first_counts:
            failures.append(f"work counts of traced pass {passes + 1} differ from pass 1")
        tracer.merge(total, agg)
        passes += 1
        if time.perf_counter() - t_start >= HARD_STOP_S:
            break

    n = len(items)
    # Every pass has the same counts (checked above), so count / (n * passes)
    # is the same float as the single-pass count / n and repeats exactly.
    metrics = tracer.layer_metrics(total["counts"], total["times"], n * passes)
    traced_op = statistics.median(traced) / n
    untraced_op = statistics.median(untraced) / n
    metrics["trace.overhead_ratio"] = traced_op / untraced_op
    op_total = total["times"].get(f"incl:{tracer.OP}", 0.0)
    metrics["trace.unattributed_share"] = total["times"].get("self:bench", 0.0) / op_total
    metrics["trace.op_ms"] = traced_op * 1e3
    metrics["trace.untraced_op_ms"] = untraced_op * 1e3
    startup = interpreter_ms()
    metrics.update({f"cli.{k}": v for k, v in startup.items()})
    cli_extra = _cli_process_metrics(items) if name == "cli" else {}
    for key in ("nf", "hdim", "verify_witness", "verify_sn"):
        metrics[f"cli.{key}.ms_p50"] = cli_extra.get(key, 0.0)
    metrics["cli.inproc_share"] = untraced_op * n / cli_extra["process_total_s"] if cli_extra else 0.0

    if spans_path:
        tr.write_spans(last_spans, spans_path)
    return {
        "attempted": n * (2 * passes + 1),
        "failed": len(failures),
        "failures": failures[:20],
        "correct": not failures,
        "passes": passes,
        "digest": outputs.digest(),
        "per_op_counts": tracer.per_op_counts(first_counts, n),
        "metrics": metrics,
        "self_ms_sum_per_op": sum(metrics[f"{layer}.self_ms_per_op"] for layer in tracer.LAYERS),
        "pass_s": {"untraced": untraced, "traced": traced},
        "calibration_s": statistics.median(calibs),
        "python_startup_ms": startup["python_startup_ms"],
    }


def _cli_process_metrics(items) -> dict:
    by_family: dict[str, list[float]] = {}
    total = 0.0
    for item in items:
        times = []
        for _ in range(CLI_PROCESS_RUNS):
            t0 = time.perf_counter()
            workloads.run_cli_process(item)
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        total += med
        by_family.setdefault(item.family, []).append(med * 1e3)
    out = {fam: statistics.median(v) for fam, v in by_family.items()}
    out["process_total_s"] = total
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["metric", "setup", "trace"], required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)
    if args.mode == "trace":
        result = trace_run(args.workload, args.seed, args.seconds, spans_path=args.spans)
    else:
        result = metric_run(args.workload, args.seed, args.seconds, setup_only=args.mode == "setup")
        if args.mode == "metric":
            result.update(interpreter_ms())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
