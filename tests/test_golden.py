"""Golden digests: a SHA-256 of each of a fixed set of library and CLI
outputs, checked against the committed ``tests/golden.json``.

A change that claims byte-identical outputs is checked here: the one-shot
samplers, the algebra's solvers at three sizes and three band counts,
registrations with their histories and divergence reports, an atlas step
at one and two workers, the basis fit, the phantoms and subjects, the file
writers, one CLI manifest and every subcommand at its defaults. Floats are
hashed by their bits, arrays by dtype, shape and bytes, errors by type,
message and numbers. Every input comes from a seed in 7000-7999, which
neither the rest of the suite nor perfbench uses.

A change that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and lists in CHANGES.md which digests changed and why. numpy picks its SIMD
kernels at run time, and the last bits of a result can follow them; so the
file records the environment too, and on another environment every case
fails with the fields that differ, rather than comparing digests that it
cannot expect to hold.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from diffeo2d import (
    AtlasConfig,
    AtlasState,
    ConvergenceError,
    DisplacementField,
    Grid,
    PhantomSpec,
    RandomFieldSpec,
    RegistrationConfig,
    ScalarImage,
    SolverConfig,
    atlas_step,
    compose,
    decode_root,
    encode,
    exp_field,
    fit_basis,
    invert,
    make_phantom,
    make_subject,
    random_log_field,
    register_pairs,
    root_chain,
    sample_field,
    sqrt_field,
    warp_image,
    write_basis,
    write_csv,
    write_field,
    write_pgm,
)
from diffeo2d import atlas as atlas_module
from diffeo2d import cli
from diffeo2d import fields as fields_module
from diffeo2d.fields import sample_values, sample_values_grad, splat_values
from diffeo2d.registration import frozen_loss_and_grad
from diffeo2d.synth import PHANTOM_KINDS

GOLDEN = Path(__file__).with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --regenerate"


def environment() -> dict:
    """What the digests depend on besides the code: the interpreter, numpy,
    scipy, the SIMD targets numpy dispatches to on this CPU, and the CPU
    model, read from /proc/cpuinfo (``platform.processor()`` forks
    ``uname``)."""
    umath = np._core._multiarray_umath
    features = umath.__cpu_features__
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_simd": [t for t in umath.__cpu_dispatch__ if features.get(t)],
        "cpu": cpu,
    }


def canonical(obj):
    """A JSON value that pins ``obj`` bit for bit."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return {"dtype": obj.dtype.str, "shape": list(obj.shape),
                "sha256": hashlib.sha256(data).hexdigest()}
    if isinstance(obj, bytes):
        return {"sha256": hashlib.sha256(obj).hexdigest()}
    if isinstance(obj, (bool, str, type(None))):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, ConvergenceError):
        return {"type": type(obj).__name__, "message": str(obj),
                "residual": canonical(obj.residual), "iterations": obj.iterations,
                "index": obj.index}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in obj.items()}
    if dataclasses.is_dataclass(obj):
        return {type(obj).__name__: {f.name: canonical(getattr(obj, f.name))
                                     for f in dataclasses.fields(obj)}}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def raised(call):
    """The ConvergenceError ``call`` raises; fails if it raises none."""
    try:
        call()
    except ConvergenceError as err:
        return err
    raise AssertionError("expected a ConvergenceError")


def bands(count):
    """Every DisplacedGrid made inside gets ``count`` row bands."""
    return mock.patch.multiple(fields_module, _BAND_PIXELS=1, _usable_cpus=lambda: count)


def samplers():
    """The one-shot samplers on a 6x5 grid at points on every edge, beyond
    every edge and inside, as a (3, 7) set and as one point. The values
    are -0.0 at the four corners of the cell of the point (-0.0, -0.0), so
    the sample there is -0.0 only if the point's signs are kept."""
    rng = np.random.default_rng(7700)
    grid = Grid(6, 5)
    h, w = grid.shape
    scalar, two, three = (rng.standard_normal(grid.shape + c) for c in ((), (2,), (3,)))
    for values in (scalar, two, three):
        values[:2, :2] = -0.0
    points = np.concatenate([
        [[-0.0, -0.0], [0.0, 0.0], [-0.0, 2.5], [3.25, 0.0], [h - 1.0, w - 1.0],
         [h - 1.0, 1.5], [2.5, w - 1.0], [-1.5, 2.0], [h + 0.5, 2.0], [2.0, -2.25],
         [3.0, w + 1.75], [-3.0, w + 4.0], [h + 2.0, -1.0]],
        rng.uniform(-1.0, [h, w], (8, 2)),
    ]).reshape(3, 7, 2)
    corner = np.array([-0.0, -0.0])
    # Fields that reach past every edge: out of the top row and the left
    # column, beyond the bottom row and the right column.
    inner, outer = 1.5 * rng.standard_normal((2,) + grid.shape + (2,))
    for u in (inner, outer):
        u[0, :, 0], u[-1, :, 0], u[:, 0, 1], u[:, -1, 1] = -2.0, 2.0, -2.5, 2.5
    weights = rng.standard_normal(points.shape[:-1] + (2,))
    return {
        "sample_values": [sample_values(v, p) for v in (scalar, two, three)
                          for p in (points, corner)],
        "sample_values_grad": [sample_values_grad(scalar, points),
                               sample_values_grad(scalar, corner[None]),
                               sample_values_grad(three, points),
                               sample_values_grad(three, corner)],
        "splat_values": [splat_values(points, weights[..., 0], grid.shape),
                         splat_values(points, weights, grid.shape),
                         splat_values(corner[None], np.array([-1.25]), grid.shape)],
        "sample_field": [sample_field(DisplacementField(grid, two), p)
                         for p in (corner, (h + 1.0, 2.5), (1.75, -0.5))],
        "compose": compose(DisplacementField(grid, outer), DisplacementField(grid, inner)),
        "warp_image": warp_image(ScalarImage(grid, scalar), DisplacementField(grid, inner)),
    }


# The algebra: exp, sqrt, invert and a root chain of a sharp field (smoothing
# 1, so that many pixels of invert retry their Newton step) at each size.
SIZES = (32, 64, 160)
BAND_COUNTS = (1, 2, 3)


@lru_cache(maxsize=None)
def log_input(side):
    spec = RandomFieldSpec(Grid(side, side), seed=7000 + side, smoothing_sigma=1.0,
                           amplitude=min(4.0, side / 8.0))
    return random_log_field(spec)


@lru_cache(maxsize=None)
def field_input(side):
    with bands(1):
        return exp_field(log_input(side))


SOLVERS = {
    "exp_field": lambda side: exp_field(log_input(side)),
    "sqrt_field": lambda side: sqrt_field(field_input(side)),
    "invert": lambda side: invert(field_input(side)),
    "root_chain": lambda side: root_chain(field_input(side), 3),
}


def algebra_case(solver, side, count):
    def case():
        with bands(count):
            return SOLVERS[solver](side)

    return case


def solver_errors():
    phi = field_input(32)
    few = SolverConfig(max_iterations=2)
    return [raised(lambda: sqrt_field(phi, few)), raised(lambda: invert(phi, few)),
            raised(lambda: root_chain(phi, 3, few))]


# Registration: a phantom and subjects warped from it.
@lru_cache(maxsize=None)
def subjects(side, n, seed):
    grid = Grid(side, side)
    phantom = make_phantom(PhantomSpec("gaussian_blobs", grid, seed=seed, blob_sigma=3.0))
    logs = [random_log_field(RandomFieldSpec(grid, seed=seed + 1 + k, amplitude=1.5))
            for k in range(n)]
    return phantom, [make_subject(phantom, v) for v in logs]


SHORT = RegistrationConfig(iterations_per_level=25)


def registration_case(side, n, cfg):
    def case():
        (image, _), subs = subjects(side, n, 7100 + side)
        return register_pairs([image] * n, [s.image for s in subs], cfg)

    return case


def divergence():
    # A step of 0.52 for the default's 0.45 blows pair 0 up on the finer
    # level, at iteration 40; an image of 1e155, whose squared difference
    # from 0 overflows, gives pair 1 a non-finite loss after its first
    # iteration.
    (image, _), subs = subjects(32, 2, 7132)
    cfg = RegistrationConfig(pyramid_levels=2, iterations_per_level=30, step_size=0.52)
    zero, huge = (ScalarImage(image.grid, np.full(image.grid.shape, v)) for v in (0.0, 1e155))
    return [raised(lambda: register_pairs([image, image], [s.image for s in subs], cfg)),
            raised(lambda: register_pairs([image, zero], [image, huge], SHORT))]


def frozen(with_cross):
    def case():
        rng = np.random.default_rng(7200)
        grid = Grid(20, 18)
        a, b = (ScalarImage(grid, rng.random(grid.shape)) for _ in range(2))
        u_var, u_other, cross = 0.7 * rng.standard_normal((3,) + grid.shape + (2,))
        return frozen_loss_and_grad(a, b, u_var, u_other, 0.8, 1.3,
                                    cross if with_cross else None)

    return case


def atlas_case(workers):
    def case():
        (image, _), subs = subjects(32, 4, 7300)
        cfg = AtlasConfig(reg_config=SHORT, basis_dim=3, root_depth=4)
        with mock.patch.object(fields_module, "_usable_cpus", lambda: workers):
            assert atlas_module._worker_count(4) == workers
            return atlas_step(AtlasState(image), [s.image for s in subs], cfg)

    return case


# The basis: logs of four subjects.
@lru_cache(maxsize=None)
def logs():
    return [random_log_field(RandomFieldSpec(Grid(32, 32), seed=7400 + k)) for k in range(4)]


@lru_cache(maxsize=None)
def basis(symmetrize):
    return fit_basis(list(logs()), 3, symmetrize=symmetrize)


def written(write):
    """The bytes ``write(path)`` puts in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(path)
        return path.read_bytes()


def cli_manifest():
    """The manifest and output of ``log``, run on relative paths."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_field("phi.mfld", field_input(32))
        argv = ["log", "--field", "phi.mfld", "--n", "3", "--out", "v.mfld",
                "--json-summary", "run.json"]
        assert cli.main(argv) == 0
        return Path("run.json").read_bytes(), Path("v.mfld").read_bytes()


def cli_inputs():
    """The inputs of ``CLI_RUNS``, written to the current directory: eight
    32x32 logs, the fields of two of them, a phantom and a subject, and a
    16x16 texture with its warp by a small field."""
    grid = Grid(32, 32)
    logs = [random_log_field(RandomFieldSpec(grid, seed=7800 + k)) for k in range(8)]
    for k, v in enumerate(logs):
        write_field(f"log{k}.mfld", v)
    for k in range(2):
        write_field(f"phi{k}.mfld", exp_field(logs[k]))
    (image, labels), (subject,) = subjects(32, 1, 7900)
    write_pgm("a.pgm", image)
    write_pgm("b.pgm", subject.image)
    write_pgm("a_labels.pgm", labels)
    write_pgm("b_labels.pgm", subject.labels)
    write_field("gt.mfld", subject.field)
    small = Grid(16, 16)
    texture = ScalarImage(small, fields_module._blur(np.random.default_rng(7950).random((16, 16)),
                                                     1.5))
    warp = exp_field(random_log_field(RandomFieldSpec(small, seed=7951, amplitude=0.5)))
    Path("images").mkdir()
    write_pgm("images/t0.pgm", texture)
    write_pgm("images/t1.pgm", warp_image(texture, warp))


CLI_LOGS = [f"log{k}.mfld" for k in range(8)]
CLI_RUNS = (
    ["synth", "--subjects", "1", "--out-dir", "synth"],
    ["register", "--a", "a.pgm", "--b", "b.pgm", "--gt-field", "gt.mfld", "--out-ab", "ab.mfld",
     "--out-ba", "ba.mfld", "--loss-csv", "register.csv"],
    ["invert", "--field", "phi0.mfld", "--out", "invert.mfld"],
    ["sqrt", "--field", "phi0.mfld", "--out", "sqrt.mfld"],
    ["log", "--field", "phi0.mfld", "--out", "log.mfld"],
    ["exp", "--log", "log0.mfld", "--out", "exp.mfld"],
    ["compose", "--outer", "phi0.mfld", "--inner", "phi1.mfld", "--out", "compose.mfld"],
    ["roots", "--field", "phi0.mfld", "--out-dir", "roots", "--residual-csv", "roots.csv"],
    ["jacobian", "--field", "phi0.mfld", "--out", "jacobian.mfld"],
    ["fit-basis", "--logs", *CLI_LOGS, "--out", "basis.mleb", "--variance-csv", "variance.csv"],
    ["encode", "--basis", "basis.mleb", "--log", "log0.mfld", "--out-csv", "encode.csv"],
    ["decode", "--basis", "basis.mleb", "--z", "0.5,-1,0.25,0,0,0,0,2", "--out", "decode.mfld"],
    ["decode", "--basis", "basis.mleb", "--z", "0.5,-1,0.25,0,0,0,0,2", "--m", "4",
     "--out", "decode_root.mfld"],
    ["modes", "--basis", "basis.mleb", "--mode", "1", "--out", "modes.mfld"],
    ["losses", "--phi-ab", "ab.mfld", "--phi-ba", "ba.mfld", "--a", "a.pgm", "--b", "b.pgm",
     "--basis", "basis.mleb", "--out-csv", "losses.csv"],
    ["atlas", "--images", "images", "--out-dir", "atlas"],
    ["warp", "--image", "a.pgm", "--field", "phi0.mfld", "--out", "warp.pgm"],
    ["warp", "--image", "a_labels.pgm", "--field", "phi0.mfld", "--labels",
     "--out", "warp_labels.pgm"],
    ["dice", "--a", "a_labels.pgm", "--b", "b_labels.pgm", "--out-csv", "dice.csv"],
    ["validate", "--out-csv", "validate.csv"],
)


def cli_defaults():
    """Every subcommand run through ``cli.main``, on relative paths in a
    temporary directory, with every config flag at its default: the stdout
    of each run and every file the directory ends with (inputs, outputs and
    one ``--json-summary`` manifest a run). Beyond inputs and outputs the
    runs pass ``synth --subjects 1``, so that synth's field spec and depth
    reach a subject; ``modes --mode 1``, which has no default; ``decode
    --z``, one value a mode, once alone and once with ``--m 4``, which
    reaches the exp depth of ``decode_root``; and ``warp --labels`` in a
    second warp. The logs are eight, the fewest that ``fit-basis``'s
    default ``--dim 8`` can fit; ``atlas`` runs on a texture and its warp
    by a small field, which converge in two steps."""
    (commands,) = [a.choices for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert sorted({argv[0] for argv in CLI_RUNS}) == sorted(commands)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        cli_inputs()
        stdout = []
        for k, argv in enumerate(CLI_RUNS):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main([*argv, "--json-summary", f"{k:02d}_{argv[0]}.json"]) == 0, argv
            stdout.append(out.getvalue())
        files = {str(p): p.read_bytes() for p in sorted(Path().rglob("*")) if p.is_file()}
        return stdout, files


def phantom_case(kind):
    return lambda: make_phantom(PhantomSpec(kind, Grid(40, 36), seed=7500, bump_amplitude=2.0))


CASES = {
    "samplers": samplers,
    **{f"{solver}/{side}/bands{count}": algebra_case(solver, side, count)
       for solver in SOLVERS for side in SIZES for count in BAND_COUNTS},
    "solver_errors": solver_errors,
    "register_pairs/32/n1": registration_case(32, 1, SHORT),
    "register_pairs/32/n3": registration_case(32, 3, SHORT),
    "register_pairs/40/n2/sigma_field": registration_case(
        40, 2, RegistrationConfig(pyramid_levels=2, iterations_per_level=20,
                                  field_smoothing_sigma=0.7)),
    "register_pairs/divergence": divergence,
    "frozen_loss_and_grad": frozen(with_cross=False),
    "frozen_loss_and_grad/cross": frozen(with_cross=True),
    "atlas_step/workers1": atlas_case(1),
    "atlas_step/workers2": atlas_case(2),
    "fit_basis/symmetrized": lambda: basis(True),
    "fit_basis/plain": lambda: basis(False),
    "encode": lambda: [encode(basis(True), v) for v in logs()],
    "decode_root": lambda: [decode_root(basis(True), np.array([0.5, -1.0, 0.25]), m)
                            for m in (1, 4)],
    **{f"make_phantom/{kind}": phantom_case(kind) for kind in PHANTOM_KINDS},
    "make_subject": lambda: subjects(32, 1, 7600)[1],
    "write_field": lambda: [written(lambda p: write_field(p, f))
                            for f in (field_input(32), logs()[0])],
    "write_basis": lambda: written(lambda p: write_basis(p, basis(True))),
    "write_pgm": lambda: [
        written(lambda p: write_pgm(p, img))
        for img in make_phantom(PhantomSpec("four_label_phantom", Grid(32, 28)))],
    "write_csv": lambda: written(lambda p: write_csv(
        p, ["a", "b"], [(1, 0.1), (2, np.float64(1 / 3)), (3, -2.5e-300)])),
    "cli/log_manifest": cli_manifest,
    "cli/defaults": cli_defaults,
}


def golden_digests() -> dict:
    """The recorded digests; fails, naming the fields that differ, when the
    file was recorded on another environment."""
    record = json.loads(GOLDEN.read_text())
    here = environment()
    differ = [key for key in sorted(set(here) | set(record["environment"]))
              if here.get(key) != record["environment"].get(key)]
    if differ:
        pytest.fail(
            f"{GOLDEN.name} was recorded on another environment; these fields "
            f"differ: {', '.join(differ)} (recorded {record['environment']}, here {here}). "
            f"If the outputs are meant to hold here, regenerate it with: {REGENERATE}",
            pytrace=False,
        )
    return record["digests"]


def test_every_case_is_recorded():
    assert sorted(golden_digests()) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_output_matches_its_digest(name):
    assert digest(CASES[name]()) == golden_digests()[name], (
        f"{name} changed; if on purpose, regenerate with: {REGENERATE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {REGENERATE}")
    record = {"environment": environment(),
              "digests": {name: digest(case()) for name, case in CASES.items()}}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
