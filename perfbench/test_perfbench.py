"""The benchmark's own tests. They run the benchmark at smoke size.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import diffeo2d as d2  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("calls", "points", "iterations", "errors", "bytes", "bytes_computed")


def run_bench(workload, trace, cwd=ROOT, seed=5):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced run and two traced runs of one seed, with
    each run's stdout and results file."""
    out = {}
    for w in WORKLOADS:
        for key, trace in (("plain", 0), ("traced", 1), ("traced_again", 1)):
            proc = run_bench(w, trace)
            assert proc.returncode == 0, proc.stderr
            results = HERE / "out" / f"{w}-seed5-trace{trace}.json"
            out[w, key] = (proc.stdout, json.loads(results.read_text()))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("key,section", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_smoke_prints_every_metric_with_unit(runs, workload, key, section):
    stdout, _ = runs[workload, key]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
    for name, unit in expected.items():
        assert re.search(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)} \(n=\d+\)$", stdout, re.M)
    assert "metric failed_frac = 0 " in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(runs, workload):
    first = runs[workload, "traced"][1]["metrics"]
    second = runs[workload, "traced_again"][1]["metrics"]
    counted = [name for name in first if name.rsplit(".", 1)[-1] in COUNTS]
    assert any(first[name]["value"] > 0 for name in counted)
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_match_untraced(runs, workload):
    plain = runs[workload, "plain"][1]
    traced = runs[workload, "traced"][1]
    n = len(traced["digests"])
    assert None not in traced["digests"]
    assert plain["digests"][:n] == traced["digests"]
    assert plain["final_digest"] == traced["final_digest"]


def test_exp_field_is_six_composes_and_six_samples():
    v = d2.random_log_field(d2.RandomFieldSpec(d2.Grid(16, 16), seed=1_000_000, amplitude=1.0))
    originals = {name: getattr(d2.lie, name) for name in ("compose", "sample_values")}
    with tracer.Tracer(layers.TARGETS) as tr:
        tr.op = 0
        d2.exp_field(v, 6)
        assert tracer.wrapped_bindings()
    calls = {name: agg["calls"] for name, agg in tr.summary(lambda op: op == 0).items()}
    assert calls == {"lie.exp_field": 1, "fields.compose": 6, "fields.sample_values": 6}
    assert tracer.wrapped_bindings() == []
    assert d2.fields.sample_values is originals["sample_values"]
    assert d2.lie.compose is originals["compose"]


def test_self_time_excludes_children():
    with tracer.Tracer(layers.TARGETS) as tr:
        tr.op = 0
        d2.exp_field(d2.LogField(d2.Grid(8, 8), np.ones((8, 8, 2))), 3)
    agg = tr.summary(lambda op: op == 0)
    exp, comp, sample = agg["lie.exp_field"], agg["fields.compose"], agg["fields.sample_values"]
    assert exp["self_s"] == pytest.approx(exp["total_s"] - comp["total_s"], abs=1e-9)
    assert comp["self_s"] == pytest.approx(comp["total_s"] - sample["total_s"], abs=1e-9)
    assert sample["self_s"] == sample["total_s"] > 0.0
    assert sample["points"] == 3 * 64


def test_seed_stream_avoids_suite_seeds():
    assert workloads.op_seed(0, workloads.TEXTURE, 0) > 2029


def test_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench("register64", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
