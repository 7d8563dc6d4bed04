"""Checks that the benchmark's tooling still fits the library it measures,
and that the package's knobs change only on purpose."""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from diffeo2d import (
    AtlasConfig,
    Grid,
    PhantomSpec,
    RandomFieldSpec,
    RegistrationConfig,
    SolverConfig,
    fields,
    lie,
)
from diffeo2d import cli, errors
from diffeo2d.cli import build_parser
from diffeo2d.errors import DomainError, check_depth
from diffeo2d.metrics import LossWeights

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


@pytest.mark.parametrize("workload", ["algebra256", "atlas8", "register64"])
def test_traced_smoke_run_is_correct(tmp_path, workload):
    """One traced smoke run of a workload, from a copy of the benchmark and
    the library, so that nothing is written under the checkout. It runs the
    tracer's rebinding and checks that the traced and untraced digests
    agree: of exp_field, log_field, invert and the MFLD and basis round
    trips for algebra256, of the atlas step for atlas8, whose basis fit the
    tracer must see as one ``latent.fit_basis`` call an op, and of the
    registration for register64, which reads its final inverse
    consistency off its own loop and so makes no ``fields.compose`` call."""
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
    if workload == "register64":
        assert summary["metrics"]["fields.compose.calls"]["value"] == 0, proc.stdout


# Every knob of the package: each subcommand's options, each config's
# fields. A knob added or removed must change this inventory on purpose.
SOLVER_OPTIONS = ["--tolerance", "--max-iterations", "--damping"]
REG_OPTIONS = ["--lambda-sim", "--lambda-reg", "--levels", "--iterations", "--step-size",
               "--sigma-update", "--sigma-field"]
COMMON_OPTIONS = ["--json-summary", "--threads"]
CLI_OPTIONS = {
    "synth": ["--kind", "--height", "--width", "--seed", "--subjects", "--amplitude",
              "--smoothing", "--depth", "--out-dir"],
    "register": ["--a", "--b", "--out-ab", "--out-ba", "--loss-csv", "--gt-field",
                 *REG_OPTIONS],
    "invert": ["--field", "--out", *SOLVER_OPTIONS],
    "sqrt": ["--field", "--out", *SOLVER_OPTIONS],
    "log": ["--field", "--out", "--n", *SOLVER_OPTIONS],
    "exp": ["--log", "--out", "--n"],
    "compose": ["--outer", "--inner", "--out"],
    "roots": ["--field", "--n", "--out-dir", "--residual-csv", *SOLVER_OPTIONS],
    "jacobian": ["--field", "--out"],
    "fit-basis": ["--logs", "--dim", "--no-symmetrize", "--out", "--variance-csv"],
    "encode": ["--basis", "--log", "--out-csv"],
    "decode": ["--basis", "--z", "--m", "--out"],
    "modes": ["--basis", "--mode", "--scale", "--n", "--out"],
    "losses": ["--phi-ab", "--phi-ba", "--a", "--b", "--basis", "--n", "--out-csv",
               *SOLVER_OPTIONS],
    "atlas": ["--images", "--epsilon", "--max-iter", "--init", "--seed", "--basis-dim",
              "--depth", "--out-dir", *REG_OPTIONS],
    "warp": ["--image", "--field", "--labels", "--out"],
    "dice": ["--a", "--b", "--out-csv"],
    "validate": ["--seed", "--count", "--height", "--width", "--amplitude", "--n",
                 "--basis-dim", "--out-csv", *SOLVER_OPTIONS],
}
CONFIG_FIELDS = {
    SolverConfig: ["tolerance", "max_iterations", "damping"],
    RegistrationConfig: ["lambda_sim", "lambda_reg", "pyramid_levels", "iterations_per_level",
                         "step_size", "update_smoothing_sigma", "field_smoothing_sigma"],
    AtlasConfig: ["epsilon", "max_outer_iterations", "reg_config", "solver", "basis_dim",
                  "root_depth"],
    PhantomSpec: ["kind", "grid", "seed", "ring_radius", "ring_thickness", "bump_angle",
                  "bump_amplitude", "bump_width", "blob_count", "blob_sigma"],
    RandomFieldSpec: ["grid", "seed", "smoothing_sigma", "amplitude"],
    LossWeights: ["alpha_rec", "alpha_inv", "alpha_linv"],
}


def test_knob_inventory():
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, p in commands.items()
    }
    assert options == {name: opts + COMMON_OPTIONS for name, opts in CLI_OPTIONS.items()}
    for cls, names in CONFIG_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__
    # No environment variable is a knob either.
    for path in sorted((ROOT / "src" / "diffeo2d").glob("*.py")):
        assert not re.search(r"\b(environb?|getenvb?)\b", path.read_text()), path.name


def test_every_float_field_is_checked_by_name():
    # errors.check_float runs on each float field: NaN is not finite and a
    # string is not a real number, and either message names the field.
    required = {PhantomSpec: {"kind": "gaussian_blobs", "grid": Grid(64, 64)},
                RandomFieldSpec: {"grid": Grid(64, 64), "seed": 0}}
    checked = 0
    for cls, names in CONFIG_FIELDS.items():
        hints = typing.get_type_hints(cls)
        for name in names:
            if float not in (hints[name], *typing.get_args(hints[name])):
                continue
            checked += 1
            for bad, message in ((float("nan"), "must be finite, got nan"),
                                 ("x", "must be a real number, got 'x'")):
                with pytest.raises(DomainError) as info:
                    cls(**required.get(cls, {}), **{name: bad})
                assert str(info.value) == f"{name} {message}", cls.__name__
    assert checked == 19


def test_every_depth_flag_has_the_one_depth_type():
    # --n and --depth are depths wherever they appear; each is parsed by the
    # one type that checks errors.check_depth's range, so a new depth flag
    # with another check fails here.
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    depths = [(name, a) for name, p in commands.items() for a in p._actions
              if {"--n", "--depth"} & set(a.option_strings)]
    assert len(depths) == 8
    for name, action in depths:
        assert action.type is cli._depth, (name, action.option_strings)
    # That type accepts exactly the depths check_depth accepts.
    for value in (-1, 0, 1, 6, 1023, 1024, 1100):
        try:
            check_depth("depth", value)
        except DomainError:
            with pytest.raises(argparse.ArgumentTypeError):
                cli._depth(str(value))
        else:
            assert cli._depth(str(value)) == value


def _nodes_by_function(path, match):
    """(function, line) of every node of a module that ``match`` accepts,
    the function being the innermost one that holds it."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if match(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def _grid_comparisons(path):
    """(function, line) of every comparison in a module that has a
    ``.grid`` attribute on either side."""
    return _nodes_by_function(path, lambda node: isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Attribute) and side.attr == "grid"
        for side in (node.left, *node.comparators)
    ))


def test_grids_are_compared_in_one_place():
    # A library grid mismatch is fields._check_same_grid's ShapeError,
    # "grid mismatch: A vs B"; the CLI's own check, cli._same_grid, names
    # the flags the two inputs came from.
    allowed = {("fields", "_check_same_grid"), ("cli", "_same_grid")}
    seen = set()
    for path in sorted((ROOT / "src" / "diffeo2d").glob("*.py")):
        for function, line in _grid_comparisons(path):
            assert (path.stem, function) in allowed, f"{path.name}:{line} in {function}"
            seen.add((path.stem, function))
    assert seen == allowed


def _calls_to(path, names):
    """(function, line) of every call in a module to a function bound as
    one of ``names``."""
    return _nodes_by_function(path, lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) in names or getattr(node.func, "attr", None) in names
    ))


def test_images_are_blurred_in_one_place():
    # fields._blur is the package's one Gaussian blur and its only call
    # into a scipy filter; synth blurs its fields and phantom through it.
    seen = set()
    for path in sorted((ROOT / "src" / "diffeo2d").glob("*.py")):
        for function, line in _calls_to(path, {"correlate1d", "gaussian_filter"}):
            assert (path.stem, function) == ("fields", "_blur"), f"{path.name}:{line} in {function}"
            seen.add((path.stem, function))
    assert seen == {("fields", "_blur")}
    synth = ast.parse((ROOT / "src" / "diffeo2d" / "synth.py").read_text())
    imported = [alias.name for node in ast.walk(synth) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(synth) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name and name.split(".")[0] == "scipy"]


def _post_init_raises(path):
    """(class, message) of every raise in a ``__post_init__`` of a module,
    each formatted field of the message written ``{}``."""
    found = set()
    for cls in ast.walk(ast.parse(path.read_text())):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Raise):
                    (message,) = node.exc.args
                    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                    found.add((cls.name, "".join(
                        p.value if isinstance(p, ast.Constant) else "{}" for p in parts
                    )))
    return found


def test_float_bounds_are_checked_in_one_place():
    # Every bound on one float config field is an errors.check_float call;
    # a __post_init__ raises only for what spans several fields or is not
    # a float.
    allowed = {
        ("Grid", "grid must be at least 2x2, got {}x{}"),
        ("LabelImage", "labels must be an integer array"),
        ("LabelImage", "label shape {} != grid {}"),
        ("LabelImage", "labels must be non-negative"),
        ("LogEuclideanBasis", "components must have shape (d, H, W, 2)"),
        ("LogEuclideanBasis", "one singular value per component required"),
        ("LogEuclideanBasis", "singular values must be descending"),
        ("PhantomSpec", "unknown phantom kind {}"),
        ("PhantomSpec", "phantom geometry does not fit the grid with a 4 px margin"),
        ("RandomFieldSpec", "amplitude exceeds min(grid)/8; the diffeomorphism guarantee "
                            "requires small deformations"),
    }
    found = set()
    for path in sorted((ROOT / "src" / "diffeo2d").glob("*.py")):
        found |= _post_init_raises(path)
    assert found == allowed
    assert not [name for name in vars(errors) if name.startswith("require_")]


def test_stencils_are_made_one_way():
    # Stencil(points, shape) allocates a stencil and displace alone places
    # it: no second constructor, and every call in the library passes the
    # point shape and the grid shape.
    assert not hasattr(fields.Stencil, "empty")
    assert list(inspect.signature(fields.Stencil).parameters) == ["points", "shape"]
    seen = set()
    for path in sorted((ROOT / "src" / "diffeo2d").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "Stencil" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                assert len(node.args) + len(node.keywords) == 2, f"{path.name}:{node.lineno}"
                seen.add(path.stem)
    assert seen == {"fields", "lie", "registration"}
