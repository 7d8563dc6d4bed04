"""Checks that the benchmark's tooling still fits the library it measures."""

import importlib
import importlib.util
from pathlib import Path

from diffeo2d import fields, lie

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
