import argparse
import json
import multiprocessing
import shutil
import struct

import numpy as np
import pytest

from diffeo2d import (
    DisplacementField,
    Grid,
    LogField,
    RandomFieldSpec,
    cli,
    decode_root,
    fields,
    fit_basis,
    lie,
    random_log_field,
    read_basis,
    read_field,
    read_pgm,
    warp_image,
    write_basis,
    write_field,
    write_pgm,
)
from diffeo2d.cli import build_parser, main

from conftest import suite_field


def run(*argv):
    return main([str(a) for a in argv])


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestSynth:
    def test_rerun_byte_identical(self, tmp_path):
        d1 = tmp_path / "run1"
        d2 = tmp_path / "run2"
        for d in (d1, d2):
            assert run("synth", "--kind", "ring_with_bump", "--seed", 7,
                       "--subjects", 2, "--out-dir", d) == 0
        assert tree_bytes(d1) == tree_bytes(d2)

    def test_threads_flag_invariant(self, tmp_path):
        d1 = tmp_path / "t1"
        d2 = tmp_path / "t4"
        assert run("synth", "--seed", 3, "--subjects", 1, "--out-dir", d1,
                   "--threads", 1) == 0
        assert run("synth", "--seed", 3, "--subjects", 1, "--out-dir", d2,
                   "--threads", 4) == 0
        assert tree_bytes(d1) == tree_bytes(d2)

    def test_unknown_kind_usage_error(self, tmp_path):
        assert run("synth", "--kind", "nope", "--out-dir", tmp_path / "x") == 1

    def test_subject_field_is_seeded_from_its_spawned_stream(self, tmp_path):
        assert run("synth", "--seed", 4, "--subjects", 2, "--height", 32, "--width", 32,
                   "--out-dir", tmp_path) == 0
        spec = RandomFieldSpec(Grid(32, 32), seed=cli._subject_seeds(4, 2)[1])
        expected = random_log_field(spec)
        assert read_field(tmp_path / "subject_001_log.mfld", as_log=True).v.tobytes() == expected.v.tobytes()


def test_subject_seeds_are_distinct_across_seeds():
    # Subject i of --seed s was seeded with s * 10_000 + i, so subject 10000
    # of --seed 0 drew the field of subject 0 of --seed 1.
    seeds = [x for seed in range(3) for x in cli._subject_seeds(seed, 10_001)]
    assert len(set(seeds)) == len(seeds)
    assert all(isinstance(x, int) and x >= 0 for x in seeds)
    assert cli._subject_seeds(0, 3) == cli._subject_seeds(0, 5)[:3]
    # A negative count never gets here: the parser rejects it
    # (test_count_flags_are_checked_as_parsed).
    assert cli._subject_seeds(0, 0) == []


class TestFieldCommands:
    @pytest.fixture()
    def field_file(self, tmp_path):
        _, phi = suite_field(0)
        p = tmp_path / "phi.mfld"
        write_field(p, phi)
        return p

    def test_invert_compose_identity(self, tmp_path, field_file):
        inv = tmp_path / "inv.mfld"
        comp = tmp_path / "comp.mfld"
        assert run("invert", "--field", field_file, "--out", inv) == 0
        assert run("compose", "--outer", field_file, "--inner", inv,
                   "--out", comp) == 0
        residual = read_field(comp)
        assert np.sqrt(np.mean(residual.u**2)) <= 1e-3

    def test_log_exp_roundtrip(self, tmp_path, field_file):
        logp = tmp_path / "v.mfld"
        back = tmp_path / "back.mfld"
        assert run("log", "--field", field_file, "--out", logp, "--n", 6) == 0
        assert run("exp", "--log", logp, "--out", back, "--n", 6) == 0
        phi = read_field(field_file)
        rec = read_field(back)
        assert np.sqrt(np.mean((rec.u - phi.u) ** 2)) <= 1e-2

    def test_sqrt_and_roots(self, tmp_path, field_file):
        root = tmp_path / "root.mfld"
        assert run("sqrt", "--field", field_file, "--out", root) == 0
        roots_dir = tmp_path / "roots"
        csv_path = tmp_path / "resid.csv"
        assert run("roots", "--field", field_file, "--n", 3,
                   "--out-dir", roots_dir, "--residual-csv", csv_path) == 0
        assert len(list(roots_dir.glob("root_*.mfld"))) == 3
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "level,solver_residual_px"
        assert len(lines) == 4

    def test_jacobian_summary(self, tmp_path, field_file, capsys):
        summary = tmp_path / "s.json"
        assert run("jacobian", "--field", field_file,
                   "--json-summary", summary) == 0
        data = json.loads(summary.read_text())
        assert data["metrics"]["neg_jacobian_fraction_pct"] == 0.0

    def test_missing_file_io_error(self, tmp_path):
        assert run("invert", "--field", tmp_path / "missing.mfld",
                   "--out", tmp_path / "o.mfld") == 2

    def test_degenerate_grid_io_error(self, tmp_path):
        p = tmp_path / "one.mfld"
        p.write_bytes(struct.pack("<4sHIIB2d", b"MFLD", 1, 1, 1, 2, 0.0, 0.0))
        assert run("jacobian", "--field", p) == 2

    def test_nonconvergence_numerical_error(self, tmp_path, field_file):
        assert run("invert", "--field", field_file, "--out",
                   tmp_path / "o.mfld", "--max-iterations", 1) == 3


class TestRegisterPipeline:
    def test_end_to_end_with_ground_truth(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--kind", "gaussian_blobs", "--seed", 5,
                   "--subjects", 1, "--amplitude", 2.0, "--out-dir", data) == 0
        summary = tmp_path / "reg.json"
        assert run(
            "register",
            "--a", data / "image.pgm",
            "--b", data / "subject_000_image.pgm",
            "--out-ab", tmp_path / "ab.mfld",
            "--out-ba", tmp_path / "ba.mfld",
            "--loss-csv", tmp_path / "loss.csv",
            "--gt-field", data / "subject_000_field.mfld",
            "--json-summary", summary,
        ) == 0
        manifest = json.loads(summary.read_text())
        assert manifest["inputs"] == {
            "a": str(data / "image.pgm"),
            "b": str(data / "subject_000_image.pgm"),
            "gt_field": str(data / "subject_000_field.mfld"),
        }
        metrics = manifest["metrics"]
        assert metrics["median_endpoint_error_px"] <= 0.5
        assert metrics["final_inverse_consistency_px"] <= 0.1
        assert metrics["neg_jacobian_ab_pct"] == 0.0
        header = (tmp_path / "loss.csv").read_text().splitlines()[0]
        assert header == "iteration,l_sim,l_reg,l_p"

    def test_divergence_numerical_error(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--kind", "gaussian_blobs", "--seed", 2, "--subjects", 1,
            "--out-dir", data)
        assert run("register", "--a", data / "image.pgm",
                   "--b", data / "subject_000_image.pgm",
                   "--out-ab", tmp_path / "ab.mfld", "--iterations", 5,
                   "--step-size", "1e300") == 3

    @pytest.mark.parametrize("flag", ["--sigma-update", "--sigma-field", "--lambda-sim", "--step-size"])
    def test_non_finite_flag_usage_error(self, tmp_path, flag, capsys):
        data = tmp_path / "data"
        run("synth", "--kind", "gaussian_blobs", "--seed", 2, "--subjects", 1,
            "--out-dir", data)
        capsys.readouterr()
        assert run("register", "--a", data / "image.pgm",
                   "--b", data / "subject_000_image.pgm",
                   "--out-ab", tmp_path / "ab.mfld", flag, "nan") == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ab.mfld").exists()

    def test_deterministic_rerun(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--kind", "gaussian_blobs", "--seed", 2, "--subjects", 1,
            "--out-dir", data)
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"ab_{tag}.mfld"
            assert run("register", "--a", data / "image.pgm",
                       "--b", data / "subject_000_image.pgm",
                       "--out-ab", out, "--iterations", 40) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestLatentPipeline:
    def test_fit_encode_decode_modes(self, tmp_path):
        logs = []
        for seed in range(3):
            v, _ = suite_field(seed)
            p = tmp_path / f"log_{seed}.mfld"
            write_field(p, v)
            logs.append(p)
        basis = tmp_path / "basis.mleb"
        var_csv = tmp_path / "var.csv"
        assert run("fit-basis", "--logs", *logs, "--dim", 2,
                   "--out", basis, "--variance-csv", var_csv) == 0
        assert var_csv.read_text().splitlines()[0] == "mode,explained_variance"

        z_csv = tmp_path / "z.csv"
        assert run("encode", "--basis", basis, "--log", logs[0],
                   "--out-csv", z_csv) == 0
        z_line = z_csv.read_text().strip().splitlines()[1]

        dec = tmp_path / "dec.mfld"
        assert run("decode", "--basis", basis, f"--z={z_line}", "--out", dec) == 0
        assert read_field(dec, as_log=True).v.shape == (64, 64, 2)

        mode = tmp_path / "mode1.mfld"
        assert run("modes", "--basis", basis, "--mode", 1, "--scale", 1.0,
                   "--out", mode) == 0
        assert read_field(mode).u.shape == (64, 64, 2)

    def test_bad_code_usage_error(self, tmp_path, capsys):
        assert run("decode", "--basis", tmp_path / "b.mleb", "--z=abc",
                   "--out", tmp_path / "o.mfld") == 1
        assert capsys.readouterr().err.startswith("usage error: argument --z")

    def test_non_orthonormal_basis_io_error(self, tmp_path):
        v, _ = suite_field(0)
        log = tmp_path / "log.mfld"
        write_field(log, v)
        basis = tmp_path / "basis.mleb"
        assert run("fit-basis", "--logs", log, log, "--dim", 1, "--out", basis) == 0
        data = bytearray(basis.read_bytes())
        # The last 8 bytes are the singular value; the 8 before them end the
        # component block.
        (val,) = struct.unpack_from("<d", data, len(data) - 16)
        struct.pack_into("<d", data, len(data) - 16, val + 0.5)
        basis.write_bytes(bytes(data))
        assert run("encode", "--basis", basis, "--log", log,
                   "--out-csv", tmp_path / "z.csv") == 2

    def test_losses_command(self, tmp_path, capsys):
        _, phi = suite_field(1)
        from diffeo2d import invert

        inv = invert(phi).field
        p_ab = tmp_path / "ab.mfld"
        p_ba = tmp_path / "ba.mfld"
        write_field(p_ab, phi)
        write_field(p_ba, inv)
        out_csv = tmp_path / "losses.csv"
        assert run("losses", "--phi-ab", p_ab, "--phi-ba", p_ba, "--n", 3,
                   "--out-csv", out_csv) == 0
        lines = out_csv.read_text().strip().splitlines()
        values = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert values["icon_loss"] <= 1e-3
        assert values["rec_loss"] <= 1e-3
        assert values["inv_loss"] <= 1e-3


class TestWarpDiceValidate:
    def test_warp_and_dice(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--kind", "four_label_phantom", "--seed", 1,
            "--subjects", 1, "--out-dir", data)
        field = data / "subject_000_field.mfld"
        warped = tmp_path / "warped.pgm"
        assert run("warp", "--image", data / "labels.pgm", "--field", field,
                   "--labels", "--out", warped) == 0
        dice_csv = tmp_path / "dice.csv"
        assert run("dice", "--a", warped,
                   "--b", data / "subject_000_labels.pgm",
                   "--out-csv", dice_csv) == 0
        lines = dice_csv.read_text().strip().splitlines()
        assert lines[0] == "label,dice"
        mean = float(lines[-1].split(",")[1])
        assert mean == 1.0  # same warp applied both times

    def test_validate_bounds(self, tmp_path):
        out_csv = tmp_path / "validate.csv"
        summary = tmp_path / "v.json"
        assert run("validate", "--seed", 0, "--count", 3,
                   "--out-csv", out_csv, "--json-summary", summary) == 0
        worst = json.loads(summary.read_text())["metrics"]
        assert worst["max_root_reconstruction_rms_px"] <= 5e-3
        assert worst["max_negation_vs_inverse_rms_px"] <= 2e-2
        assert worst["max_decoded_negation_vs_inverse_rms_px"] <= 2e-2


# Arguments that run each subcommand on the small inputs below; {d} is the
# input directory and {out} the test's own.
MANIFEST_ARGS = {
    "synth": "--height 32 --width 32 --out-dir {out}",
    "register": "--a {d}/image.pgm --b {d}/subject_000_image.pgm --levels 1 --iterations 2",
    "invert": "--field {d}/subject_000_field.mfld --out {out}/f.mfld",
    "sqrt": "--field {d}/subject_000_field.mfld --out {out}/f.mfld",
    "log": "--field {d}/subject_000_field.mfld --n 3 --out {out}/f.mfld",
    "exp": "--log {d}/subject_000_log.mfld --n 3 --out {out}/f.mfld",
    "compose": "--outer {d}/subject_000_field.mfld --inner {d}/subject_001_field.mfld "
               "--out {out}/f.mfld",
    "roots": "--field {d}/subject_000_field.mfld --n 2 --out-dir {out}",
    "jacobian": "--field {d}/subject_000_field.mfld",
    "fit-basis": "--logs {d}/subject_000_log.mfld {d}/subject_001_log.mfld --dim 1 "
                 "--out {out}/b.mleb",
    "encode": "--basis {d}/basis.mleb --log {d}/subject_000_log.mfld",
    "decode": "--basis {d}/basis.mleb --z=0.5 --out {out}/f.mfld",
    "modes": "--basis {d}/basis.mleb --mode 1 --n 3 --out {out}/f.mfld",
    "losses": "--phi-ab {d}/subject_000_field.mfld --phi-ba {d}/subject_001_field.mfld --n 2",
    "atlas": "--images {d}/images --max-iter 1 --levels 1 --iterations 2 --depth 3 "
             "--basis-dim 1 --out-dir {out}",
    "warp": "--image {d}/labels.pgm --field {d}/subject_000_field.mfld --labels "
            "--out {out}/w.pgm",
    "dice": "--a {d}/labels.pgm --b {d}/subject_000_labels.pgm",
    "validate": "--count 2 --height 16 --width 16 --amplitude 1.0 --n 3 --basis-dim 1 "
                "--out-csv {out}/v.csv",
}

(SUBCOMMANDS,) = [a.choices for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    assert run("synth", "--kind", "four_label_phantom", "--height", 32, "--width", 32,
               "--subjects", 2, "--amplitude", 1.0, "--smoothing", 2.0, "--out-dir", d) == 0
    (d / "images").mkdir()
    for i in range(2):
        shutil.copy(d / f"subject_{i:03d}_image.pgm", d / "images")
    assert run("fit-basis", "--logs", d / "subject_000_log.mfld", d / "subject_001_log.mfld",
               "--dim", 1, "--out", d / "basis.mleb") == 0
    return d


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_every_subcommand_writes_a_manifest(tmp_path, small_inputs, command):
    summary = tmp_path / "run.json"
    argv = [tok.format(d=small_inputs, out=tmp_path) for tok in MANIFEST_ARGS[command].split()]
    assert run(command, *argv, "--json-summary", summary) == 0
    manifest = json.loads(summary.read_text())
    assert set(manifest) == {"command", "version", "inputs", "config", "metrics"}
    assert manifest["command"] == command


@pytest.mark.parametrize("argv", [
    "synth --seed -1 --subjects 1 --out-dir {out}/s",
    "synth --kind gaussian_blobs --seed -1 --out-dir {out}/s",
    "validate --seed -1 --out-csv {out}/v.csv",
    "atlas --images {d}/images --seed -1 --out-dir {out}/a",
    "atlas --images {d}/images --seed -1 --init 0 --out-dir {out}/a",
])
def test_negative_seed_usage_error(tmp_path, small_inputs, argv, capsys):
    # The parser checks --seed, so the error names the value typed, not a
    # subject's seed, and comes even where the seed would not be used.
    capsys.readouterr()
    assert run(*[tok.format(d=small_inputs, out=tmp_path) for tok in argv.split()]) == 1
    assert capsys.readouterr().err == (
        "usage error: argument --seed: seed must be a non-negative integer, got -1\n")


# One command line per depth flag, ending in the flag: every input it names
# is missing, so only the parser can refuse it.
DEPTH_ARGV = [
    "synth --out-dir {out}/s --depth",
    "log --field {out}/f.mfld --out {out}/l.mfld --n",
    "exp --log {out}/l.mfld --out {out}/e.mfld --n",
    "roots --field {out}/f.mfld --out-dir {out}/r --n",
    "modes --basis {out}/b.mleb --mode 1 --out {out}/m.mfld --n",
    "losses --phi-ab {out}/ab.mfld --phi-ba {out}/ba.mfld --n",
    "atlas --images {out}/images --out-dir {out}/a --depth",
    "validate --out-csv {out}/v.csv --n",
]


@pytest.mark.parametrize("argv, error", [
    ("synth --subjects -2 --out-dir {out}/s", "argument --subjects: must be >= 0, got -2"),
    ("synth --subjects 1.5 --out-dir {out}/s", "argument --subjects: invalid int value: '1.5'"),
    ("validate --count -1 --out-csv {out}/v.csv", "argument --count: must be >= 2, got -1"),
    ("validate --count 1 --out-csv {out}/v.csv", "argument --count: must be >= 2, got 1"),
    ("validate --n 0 --out-csv {out}/v.csv", "argument --n: must be >= 1, got 0"),
    ("validate --basis-dim 0 --out-csv {out}/v.csv", "argument --basis-dim: must be >= 1, got 0"),
    ("validate --width 1 --out-csv {out}/v.csv", "argument --width: must be >= 2, got 1"),
    ("synth --height 1 --out-dir {out}/s", "argument --height: must be >= 2, got 1"),
    ("synth --depth 0 --out-dir {out}/s", "argument --depth: must be >= 1, got 0"),
    ("exp --log {out}/l.mfld --n -1 --out {out}/e.mfld", "argument --n: must be >= 1, got -1"),
    ("fit-basis --logs {out}/a {out}/b --dim 0 --out {out}/b.mleb",
     "argument --dim: must be >= 1, got 0"),
    ("atlas --images {out}/images --depth 0 --out-dir {out}/a",
     "argument --depth: must be >= 1, got 0"),
    ("atlas --images {out}/images --max-iter 0 --out-dir {out}/a",
     "argument --max-iter: must be >= 1, got 0"),
    ("register --a {out}/a.pgm --b {out}/b.pgm --levels 0", "argument --levels: must be >= 1, got 0"),
    ("invert --field {out}/f.mfld --out {out}/i.mfld --max-iterations 0",
     "argument --max-iterations: must be >= 1, got 0"),
    ("synth --threads 0 --out-dir {out}/s", "argument --threads: must be >= 1, got 0"),
    ("synth --threads -5 --out-dir {out}/s", "argument --threads: must be >= 1, got -5"),
    ("decode --basis {out}/b.mleb --z=0.5 --m 0 --out {out}/f.mfld",
     "argument --m: m must be a positive power of two, got 0"),
    ("decode --basis {out}/b.mleb --z=0.5 --m 3 --out {out}/f.mfld",
     "argument --m: m must be a positive power of two, got 3"),
    ("modes --basis {out}/b.mleb --mode 0 --out {out}/f.mfld",
     "argument --mode: must be >= 1, got 0"),
    ("atlas --images {out}/images --init -1 --out-dir {out}/a",
     "argument --init: must be >= 0, got -1"),
    # Every depth flag, at both ends of errors.check_depth's range.
    *[(f"{argv} {value}", f"argument {argv.split()[-1]}: {error}")
      for argv in DEPTH_ARGV
      for value, error in ((0, "must be >= 1, got 0"), (1024, "must be <= 1023, got 1024"))],
])
def test_count_flags_are_checked_as_parsed(tmp_path, argv, error, capsys):
    # The parser checks every count flag, and every int config flag, as it
    # checks --seed: the error names the flag and the value typed, and
    # nothing is written.
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv.format(out=out).split(), "--json-summary", out / "run.json") == 1
    assert capsys.readouterr().err == f"usage error: {error}\n"
    assert not out.exists()


def test_losses_manifest_names_every_input(tmp_path, small_inputs):
    d = small_inputs
    files = {"phi_ab": d / "subject_000_field.mfld", "phi_ba": d / "subject_001_field.mfld",
             "a": d / "image.pgm", "b": d / "subject_000_image.pgm", "basis": d / "basis.mleb"}
    flags = [tok for key, path in files.items() for tok in (f"--{key.replace('_', '-')}", path)]
    summary = tmp_path / "run.json"
    assert run("losses", *flags, "--n", 2, "--json-summary", summary) == 0
    manifest = json.loads(summary.read_text())
    assert manifest["inputs"] == {key: str(path) for key, path in files.items()}
    assert {"sim_loss", "latent_inv_loss"} <= set(manifest["metrics"])


# Calls per command, on MANIFEST_ARGS with losses given its image pair and
# basis too. lie.sqrt_field: one per root of one chain per field.
COUNT_ARGS = {**MANIFEST_ARGS, "losses": MANIFEST_ARGS["losses"]
              + " --a {d}/image.pgm --b {d}/subject_000_image.pgm --basis {d}/basis.mleb"}
SQRT_CALLS = {command: 0 for command in SUBCOMMANDS} | {
    "sqrt": 1,
    "log": 3,  # --n 3
    "roots": 2,  # --n 2
    "losses": 2 * 2,  # phi_ab and phi_ba, --n 2; the latent codes reuse both chains
    "atlas": 2 * 2 * 3,  # 2 images, both directions, --depth 3
    "validate": 2 * 2 * 3,  # --count 2: each field and its inverse, --n 3
}
# fields.jacobian_determinant: only the commands that report folds take one,
# never a root chain.
JACOBIAN_CALLS = {command: 0 for command in SUBCOMMANDS} | {
    "sqrt": 1,  # the fold warning's check of the input
    "register": 2,  # the fold % of phi_ab and of phi_ba
    "jacobian": 1,  # the determinant map, whose fold % it counts
}


def count_calls(monkeypatch, modules, name, command, small_inputs, tmp_path):
    """Run ``command`` on COUNT_ARGS and count the calls to the function
    ``name``, through its binding in each of ``modules``."""
    # atlas takes its logs in forked workers, which inherit the wrapper and
    # count in this shared-memory value.
    calls = multiprocessing.Value("i", 0)
    function = getattr(modules[0], name)

    def counted(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return function(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    argv = [tok.format(d=small_inputs, out=tmp_path) for tok in COUNT_ARGS[command].split()]
    assert run(command, *argv) == 0
    return calls.value


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_no_command_solves_a_root_chain_twice(tmp_path, small_inputs, monkeypatch, command):
    # root_chain reaches sqrt_field through lie, the sqrt command through cli.
    calls = count_calls(monkeypatch, (lie, cli), "sqrt_field", command, small_inputs, tmp_path)
    assert calls == SQRT_CALLS[command]


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_no_root_chain_checks_folds(tmp_path, small_inputs, monkeypatch, command):
    # neg_jacobian_fraction reaches jacobian_determinant through fields, the
    # jacobian command through cli.
    calls = count_calls(monkeypatch, (fields, cli), "jacobian_determinant", command,
                        small_inputs, tmp_path)
    assert calls == JACOBIAN_CALLS[command]


FOLD_WARNING = "warning: input field has non-positive Jacobian pixels; root may be inaccurate\n"


def test_sqrt_warns_of_folds_once_solved(tmp_path, capsys):
    # Each row is pulled back 2 px further than the one above it: the field
    # folds at every pixel.
    u = np.zeros((8, 8, 2))
    u[..., 0] = -2.0 * np.arange(8)[:, None]
    folded = tmp_path / "folded.mfld"
    write_field(folded, DisplacementField(Grid(8, 8), u))
    out = tmp_path / "out.mfld"
    capsys.readouterr()
    assert run("sqrt", "--field", folded, "--out", out, "--max-iterations", 2000) == 0
    assert capsys.readouterr().err == FOLD_WARNING
    assert run("invert", "--field", folded, "--out", out) == 0
    assert capsys.readouterr().err == ""
    # A root that fails to converge is reported alone.
    assert run("sqrt", "--field", folded, "--out", out, "--max-iterations", 1) == 3
    assert capsys.readouterr().err.startswith("numerical failure: square root")
    # The warning comes before the root is written.
    assert run("sqrt", "--field", folded, "--out", tmp_path / "no" / "out.mfld") == 2
    assert capsys.readouterr().err.startswith(FOLD_WARNING + "io error")


@pytest.mark.parametrize("command, extra", [("log", "--out {out}/f.mfld"),
                                            ("roots", "--out-dir {out}")])
def test_chain_commands_report_every_root_level(tmp_path, small_inputs, command, extra):
    field = small_inputs / "subject_000_field.mfld"
    summary = tmp_path / "run.json"
    argv = extra.format(out=tmp_path).split()
    assert run(command, "--field", field, "--n", 3, *argv, "--json-summary", summary) == 0
    metrics = json.loads(summary.read_text())["metrics"]
    chain = lie.root_chain(read_field(field), 3)
    assert metrics == {"residuals_px": chain.residuals, "iterations": chain.iterations}


@pytest.mark.parametrize("argv, error", [
    ("modes --basis {d}/basis.mleb --mode 2 --out {out}/f.mfld",
     "argument --mode: must be <= 1 (the basis dimension), got 2"),
    ("atlas --images {d}/images --init 2 --out-dir {out}/a",
     "argument --init: must be <= 1 (2 images), got 2"),
    ("fit-basis --logs {d}/subject_000_log.mfld {d}/subject_001_log.mfld --dim 5 "
     "--out {out}/b.mleb", "argument --dim: must be <= 4 (2 logs, symmetrized), got 5"),
    ("fit-basis --logs {d}/subject_000_log.mfld {d}/subject_001_log.mfld --dim 3 "
     "--no-symmetrize --out {out}/b.mleb", "argument --dim: must be <= 2 (2 logs), got 3"),
    ("fit-basis --logs {d}/subject_000_log.mfld --dim 8 --out {out}/b.mleb",
     "argument --logs: must name at least 2 log fields, got 1"),
    ("decode --basis {d}/basis.mleb --z 1,2 --out {out}/v.mfld",
     "argument --z: must have 1 values (the basis dimension), got 2"),
    ("encode --basis {d}/basis.mleb --log {tmp}/log16.mfld --out-csv {out}/z.csv",
     "argument --log: grid Grid(height=16, width=16) does not match --basis's "
     "Grid(height=32, width=32)"),
])
def test_index_bounds_from_the_inputs_name_the_flag(tmp_path, small_inputs, argv, error, capsys):
    # The upper bounds of --mode (the basis dimension), --init (the image
    # count) and --dim (the sample count), the count of --logs, the length
    # of --z and the grid of --log are checked once the inputs are read,
    # before any output.
    write_field(tmp_path / "log16.mfld", LogField(Grid(16, 16), np.zeros((16, 16, 2))))
    out = tmp_path / "out"
    argv = argv.format(d=small_inputs, out=out, tmp=tmp_path).split()
    capsys.readouterr()
    assert run(*argv, "--json-summary", out / "run.json") == 1
    assert capsys.readouterr().err == f"usage error: {error}\n"
    assert not out.exists()


def test_atlas_needs_two_images(tmp_path, small_inputs, capsys):
    images = tmp_path / "images"
    images.mkdir()
    shutil.copy(small_inputs / "image.pgm", images)
    summary = tmp_path / "run.json"
    capsys.readouterr()
    assert run("atlas", "--images", images, "--out-dir", tmp_path / "a",
               "--json-summary", summary) == 1
    assert capsys.readouterr().err == f"usage error: need at least 2 PGM images in {images}\n"
    assert not summary.exists() and not (tmp_path / "a").exists()


def test_jacobian_out_is_the_determinant_map(tmp_path, small_inputs):
    field = small_inputs / "subject_000_field.mfld"
    out = tmp_path / "det.mfld"
    assert run("jacobian", "--field", field, "--out", out) == 0
    expected = fields.jacobian_determinant(read_field(field))
    assert read_field(out).values.tobytes() == expected.values.tobytes()


def test_decode_root_file_is_decode_root(tmp_path, small_inputs):
    basis = small_inputs / "basis.mleb"
    out = tmp_path / "root.mfld"
    assert run("decode", "--basis", basis, "--z=0.5", "--m", 2, "--out", out) == 0
    expected = tmp_path / "expected.mfld"
    write_field(expected, decode_root(read_basis(basis), np.array([0.5]), 2))
    assert out.read_bytes() == expected.read_bytes()


def test_warp_without_labels_warps_the_image(tmp_path, small_inputs):
    image, field = small_inputs / "image.pgm", small_inputs / "subject_000_field.mfld"
    out = tmp_path / "warped.pgm"
    assert run("warp", "--image", image, "--field", field, "--out", out) == 0
    expected = tmp_path / "expected.pgm"
    write_pgm(expected, warp_image(read_pgm(image), read_field(field)))
    assert out.read_bytes() == expected.read_bytes()


# Every field input of every command, given a 1-channel MFLD ({s}, the kind
# of file ``jacobian --out`` writes); {d} is the input directory and {out}
# the test's own.
SCALAR_FIELD_ARGS = [
    "invert --field {s} --out {out}/f.mfld",
    "sqrt --field {s} --out {out}/f.mfld",
    "log --field {s} --n 2 --out {out}/f.mfld",
    "roots --field {s} --n 2 --out-dir {out}/r",
    "exp --log {s} --n 2 --out {out}/f.mfld",
    "compose --outer {s} --inner {d}/subject_000_field.mfld --out {out}/f.mfld",
    "compose --outer {d}/subject_000_field.mfld --inner {s} --out {out}/f.mfld",
    "jacobian --field {s} --out {out}/j.mfld",
    "warp --image {d}/image.pgm --field {s} --out {out}/w.pgm",
    "losses --phi-ab {s} --phi-ba {d}/subject_001_field.mfld --n 2 --out-csv {out}/l.csv",
    "losses --phi-ab {d}/subject_000_field.mfld --phi-ba {s} --n 2 --out-csv {out}/l.csv",
    "fit-basis --logs {d}/subject_000_log.mfld {s} --dim 1 --out {out}/b.mleb",
    "encode --basis {d}/basis.mleb --log {s} --out-csv {out}/z.csv",
    "register --a {d}/image.pgm --b {d}/subject_000_image.pgm --gt-field {s} --levels 1 "
    "--iterations 2 --out-ab {out}/ab.mfld",
]


@pytest.mark.parametrize("argv", SCALAR_FIELD_ARGS, ids=lambda argv: argv.split()[0])
def test_a_scalar_raster_is_not_a_field(tmp_path, small_inputs, argv, capsys):
    # read_field loads a 1-channel file as a ScalarImage; a command that
    # needs a field says so, as an error of the file, before any output.
    scalar = tmp_path / "det.mfld"
    write_field(scalar, fields.jacobian_determinant(read_field(
        small_inputs / "subject_000_field.mfld")))
    out = tmp_path / "out"
    argv = argv.format(s=scalar, d=small_inputs, out=out).split()
    capsys.readouterr()
    assert run(*argv, "--json-summary", out / "run.json") == 2
    assert capsys.readouterr().err == (
        f"io error: {scalar}: a 1-channel raster, not a 2-channel field\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, code, error", [
    # A ground truth on another grid than the images, checked before the
    # registration runs and writes --out-ab.
    ("register --a {d}/image.pgm --b {d}/subject_000_image.pgm --gt-field {t}/gt.mfld "
     "--levels 1 --iterations 2 --out-ab {out}/ab.mfld", 1,
     "usage error: argument --gt-field: grid Grid(height=16, width=16) does not match "
     "--a's Grid(height=32, width=32)"),
    # The similarity term needs both images.
    ("losses --phi-ab {d}/subject_000_field.mfld --phi-ba {d}/subject_001_field.mfld "
     "--a {d}/image.pgm --n 2 --out-csv {out}/l.csv", 1,
     "usage error: argument --b: required with --a"),
    ("losses --phi-ab {d}/subject_000_field.mfld --phi-ba {d}/subject_001_field.mfld "
     "--b {d}/image.pgm --n 2 --out-csv {out}/l.csv", 1,
     "usage error: argument --a: required with --b"),
    # A depth of 1024 or more would scale by 2.0 ** n, which overflows; the
    # parser refuses it before any input is read.
    ("exp --log {d}/subject_000_log.mfld --n 1100 --out {out}/e.mfld", 1,
     "usage error: argument --n: must be <= 1023, got 1100"),
    ("log --field {d}/subject_000_field.mfld --n 1024 --out {out}/l.mfld", 1,
     "usage error: argument --n: must be <= 1023, got 1024"),
    ("validate --n 1100 --out-csv {out}/v.csv", 1,
     "usage error: argument --n: must be <= 1023, got 1100"),
    ("atlas --images {d} --depth 1100 --out-dir {out}/a", 1,
     "usage error: argument --depth: must be <= 1023, got 1100"),
], ids=["gt-field-grid", "losses-a-alone", "losses-b-alone", "exp-depth", "log-depth",
        "validate-depth", "atlas-depth"])
def test_inputs_that_do_not_fit_are_refused_before_any_output(
    tmp_path, small_inputs, argv, code, error, capsys
):
    write_field(tmp_path / "gt.mfld", DisplacementField(Grid(16, 16), np.zeros((16, 16, 2))))
    out = tmp_path / "out"
    argv = argv.format(d=small_inputs, t=tmp_path, out=out).split()
    capsys.readouterr()
    assert run(*argv, "--json-summary", out / "run.json") == code
    assert capsys.readouterr().err == f"{error}\n"
    assert not out.exists()


@pytest.mark.parametrize("basis, code, error", [
    ("{t}/missing.mleb", 2, "io error: [Errno 2] No such file or directory: '{t}/missing.mleb'"),
    ("{t}/small.mleb", 1, "usage error: argument --basis: grid Grid(height=16, width=16) "
                          "does not match --phi-ab's Grid(height=32, width=32)"),
], ids=["missing", "grid"])
def test_losses_checks_its_basis_before_the_root_chains(
    tmp_path, small_inputs, monkeypatch, basis, code, error, capsys
):
    logs = [LogField(Grid(16, 16), np.full((16, 16, 2), value)) for value in (0.5, -0.25)]
    write_basis(tmp_path / "small.mleb", fit_basis(logs, 1))
    chains = []
    monkeypatch.setattr(cli, "root_chain", lambda *args: chains.append(args))
    d = small_inputs
    capsys.readouterr()
    assert run("losses", "--phi-ab", d / "subject_000_field.mfld",
               "--phi-ba", d / "subject_001_field.mfld", "--n", 2,
               "--basis", basis.format(t=tmp_path)) == code
    assert capsys.readouterr().err == error.format(t=tmp_path) + "\n"
    assert chains == []


def test_synth_refuses_a_subject_depth_above_1023(tmp_path, capsys):
    summary = tmp_path / "run.json"
    capsys.readouterr()
    assert run("synth", "--subjects", 1, "--depth", 1100, "--out-dir", tmp_path / "s",
               "--json-summary", summary) == 1
    assert capsys.readouterr().err == "usage error: argument --depth: must be <= 1023, got 1100\n"
    assert not summary.exists()
    assert not (tmp_path / "s").exists()


def test_synth_writes_nothing_when_a_subject_fails(tmp_path, capsys):
    # Every subject is made before the phantom or any subject is written.
    out = tmp_path / "s"
    capsys.readouterr()
    assert run("synth", "--height", 32, "--width", 32, "--subjects", 1, "--amplitude", 5,
               "--out-dir", out, "--json-summary", out / "run.json") == 1
    assert capsys.readouterr().err.startswith("usage error: amplitude exceeds min(grid)/8")
    assert not out.exists()


@pytest.mark.parametrize("flags, error", [
    ("--smoothing nan", "smoothing_sigma must be finite, got nan"),
    ("--amplitude -1", "amplitude must be >= 0, got -1.0"),
    ("--height 40 --width 40 --amplitude 6", "amplitude exceeds min(grid)/8; the "
                                             "diffeomorphism guarantee requires small deformations"),
], ids=["smoothing-nan", "amplitude-negative", "amplitude-above-grid"])
def test_synth_checks_its_field_flags_with_no_subject(tmp_path, flags, error, capsys):
    # The population's RandomFieldSpec is built before anything is drawn or
    # written, so the default --subjects 0 refuses a bad flag too.
    summary = tmp_path / "s.json"
    capsys.readouterr()
    assert run("synth", "--height", 32, "--width", 32, *flags.split(), "--out-dir", tmp_path / "d",
               "--json-summary", summary) == 1
    assert capsys.readouterr().err == f"usage error: {error}\n"
    assert not summary.exists()
    assert not (tmp_path / "d").exists()
