"""Self-test of the benchmark harness at a tiny size; no timing gates.

    python -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.chdir(ROOT)  # the harness imports the library from ./src
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_spec_matches_harness():
    import run

    assert tuple(WORKLOADS) == run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_repeat_for_a_seed(name):
    build = workloads.WORKLOADS[name].build
    assert build(3, 4) == build(3, 4)
    assert build(3, 4) != build(4, 4)


@pytest.mark.parametrize("name", WORKLOADS)
def test_metric_run_tiny(name):
    res = worker.metric_run(name, 7, 0.0, pool=3, min_ops=3)
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] >= 3 and res["min_ops_reached"]
    assert res["digest"]["inputs"] == 3
    assert all(v > 0 for v in res["raw"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_run_tiny_repeats_counts(name, tmp_path):
    spans = tmp_path / "spans.csv.gz"
    first = worker.trace_run(name, 5, 0.0, n_ops=2, spans_path=str(spans))
    second = worker.trace_run(name, 5, 0.0, n_ops=2)
    assert first["correct"], first["failures"]
    assert first["per_op_counts"] == second["per_op_counts"]
    assert PER_LAYER <= set(first["metrics"])
    assert spans.stat().st_size > 0
    # Layer self times plus the harness's own share make up the op time.
    m = first["metrics"]
    shares = sum(m[f"{layer}.self_share"] for layer in tracer.LAYERS)
    assert shares + m["trace.unattributed_share"] == pytest.approx(1.0)


def test_tracer_restores_the_library():
    from nagaolab import nagao, ring, witnesses

    before = (ring.Poly.__mul__, nagao.nagao_normal_form, witnesses.nagao_normal_form)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert witnesses.nagao_normal_form is nagao.nagao_normal_form
        assert witnesses.nagao_normal_form is not before[1]
    finally:
        tr.uninstall()
    assert (ring.Poly.__mul__, nagao.nagao_normal_form, witnesses.nagao_normal_form) == before


def test_oracles_reject_wrong_outputs():
    from nagaolab.gl2 import e12

    a, b = workloads.build_lowdeg(1, 2)
    assert workloads.check_nf(a, workloads.run_nf(a)) is None
    assert workloads.check_nf(a, workloads.run_nf(b)) is not None

    (word,) = workloads.build_e2zt(1, 1)
    nf, (mat_p, nf_p) = workloads.run_e2zt(word)
    assert workloads.check_e2zt(word, (nf, (mat_p, nf_p))) is None
    shifted = mat_p * e12(1, mat_p.mod)
    assert workloads.check_e2zt(word, (nf, (shifted, nf_p))) is not None

    items = workloads.build_cli(1, 12)
    for item in items:
        assert workloads.check_cli(item, workloads.run_cli_inprocess(item)) is None, item.argv
    wrong_code = workloads.CliResult(0, "")
    assert workloads.check_cli(items[-1], wrong_code) is not None
    witness = next(i for i in items if i.kind == "witness_text")
    assert workloads.check_cli(witness, workloads.CliResult(0, "checks: 3, failures: 1\n")) is not None


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "nf_lowdeg", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    proc = _run_bench(ROOT, "--workload", "nf_lowdeg", "--seed", "2", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
