"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process
(``bench/worker.py``).  With ``--trace 0`` the end-to-end metrics are
measured: set-up is probed in SETUP_RUNS separate processes and reported as
their median, then the timed window runs in one more.  With ``--trace 1`` a
separate traced process reports the per-layer metrics.  Either way the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full results, with the environment header and the raw
timings, go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from calib import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("nf_lowdeg", "nf_highdeg", "e2zt_words", "cli")
SETUP_RUNS = 5  # set-up measurements per run, the last one is the metric run's
TIME_LIMIT_S = 170  # a whole run, so that it ends within 180 s


def _spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


def _worker(args, mode: str, deadline: float, extra=()) -> tuple[dict, float]:
    """Run the worker; returns its JSON result and the monotonic start time.

    The worker gets its own process group, so a worker that overruns the
    deadline is stopped together with any CLI process it started."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench: {mode} worker overran the time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise SystemExit(f"bench: {mode} worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1]), started


def _commit() -> str | None:
    """HEAD if the checkout itself is a git work tree; git may not look in
    the directories above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _header(args, detail) -> dict:
    sys.path.insert(0, HERE)
    from worker import src_digest  # noqa: E402  (imports the library; only after the runs)

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "load_shape": "closed loop, one client",
        "calibration_s": detail.get("calibration_s"),
        "python_startup_ms": detail.get("python_startup_ms"),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def metric_mode(args, deadline) -> tuple[dict, dict]:
    # Each set-up is scaled by the mean of a calibration run here just
    # before its process starts and one run there just after set-up ends.
    calibrate, ref, _ = calibration(args.workload)
    setups = []  # (raw seconds, calibration before, calibration after)
    for i in range(SETUP_RUNS):
        before = calibrate()
        res, started = _worker(args, "metric" if i == SETUP_RUNS - 1 else "setup", deadline)
        setups.append((res["setup_end"] - started, before, res["calibration_s"]))
    raw = dict(res["raw"], setup_s=statistics.median(s for s, _, _ in setups))
    scaled = dict(res["scaled"], setup_s=statistics.median(s * 2 * ref / (b + a) for s, b, a in setups))
    attempted, failed = res["attempted"], res["failed"]
    metrics = {
        "setup_s": _metric(scaled["setup_s"], "s"),
        "ops_per_s": _metric(scaled["ops_per_s"], "ops/s"),
        "op_ms_p50": _metric(scaled["op_ms_p50"], "ms"),
        "op_ms_p90": _metric(scaled["op_ms_p90"], "ms"),
        "ok_ratio": _metric((attempted - failed) / attempted, "1"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }
    detail = {
        "raw": raw,
        "scaled": scaled,
        "setup_runs": [{"raw_s": s, "calibration_before_s": b, "calibration_after_s": a} for s, b, a in setups],
        "fail_ratio": failed / attempted,
        "correct": failed == 0 and res["min_ops_reached"],
        **{k: res[k] for k in ("attempted", "failed", "failures", "window_s", "calibration_s",
                               "calibrations_s", "digest", "python_startup_ms", "import_ms")},
    }
    return metrics, detail


def trace_mode(args, deadline) -> tuple[dict, dict]:
    spans = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.csv.gz")
    res, _ = _worker(args, "trace", deadline, ["--spans", spans])
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    got = res.pop("metrics", {})
    metrics = {name: _metric(got[name], unit) for name, unit in units.items() if name in got}
    if set(metrics) != set(units):
        res["correct"] = False
        res.setdefault("failures", []).append(f"missing per-layer metrics: {sorted(set(units) - set(metrics))}")
    res["spans_file"] = os.path.relpath(spans, os.path.join(HERE, ".."))
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join("src", "nagaolab", "__init__.py")):
        print("bench: run from the root of a checkout (src/nagaolab not found)", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)

    metrics, detail = (trace_mode if args.trace else metric_mode)(args, deadline)
    result = {
        "correct": bool(detail.get("correct")) and detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"header": _header(args, detail), "result": result, "detail": detail}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"digest: {detail.get('digest')}  results: {os.path.relpath(path)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
