"""Checks that the benchmark's tooling still fits the library it measures."""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from diffeo2d import fields, lie

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_perfbench_target_resolves(monkeypatch):
    """The tracer rebinds each ``perfbench/layers.py`` target by module and
    name and fails on a missing one, so a function that moves between
    modules must move in the target list too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports tracer
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for target in layers.TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), target.name


def test_lie_still_binds_the_fields_sampling_functions():
    """``perfbench/test_perfbench.py`` reads ``diffeo2d.lie.compose`` and
    ``diffeo2d.lie.sample_values`` and expects the ``fields`` functions,
    which the tracer rebinds; ``lie``'s solvers no longer call either."""
    assert lie.compose is fields.compose
    assert lie.sample_values is fields.sample_values


@pytest.mark.parametrize("workload", ["algebra256", "atlas8"])
def test_traced_smoke_run_is_correct(tmp_path, workload):
    """One traced smoke run of a workload, from a copy of the benchmark and
    the library, so that nothing is written under the checkout. It runs the
    tracer's rebinding and checks that the traced and untraced digests
    agree: of exp_field, log_field, invert and the MFLD and basis round
    trips for algebra256, of the atlas step for atlas8, whose basis fit the
    tracer must see as one ``latent.fit_basis`` call an op."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    for path in PERFBENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--smoke", "--trace", "1", "--seconds", "0.1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stdout
    if workload == "atlas8":
        assert summary["metrics"]["latent.fit_basis.calls"]["value"] == 1, proc.stdout
