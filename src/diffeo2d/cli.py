"""Command-line driver tying the modules into reproducible pipelines.

Outputs: fields as MFLD, images as PGM, tables as CSV (always with a header
row). Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numerical failure.
Runs with identical inputs, flags, and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .atlas import AtlasConfig, estimate_atlas, pixelwise_mean_atlas
from .errors import (
    MAX_DEPTH,
    ConvergenceError,
    DomainError,
    FileFormatError,
    RankError,
    ShapeError,
    UnsupportedChannelsError,
    check_integer,
    check_power_of_two,
    check_seed,
)
from .fields import (
    Grid,
    LogField,
    ScalarImage,
    _nonpositive_percent,
    compose,
    field_rms_diff,
    jacobian_determinant,
    neg_jacobian_fraction,
    warp_image,
    warp_labels,
)
from .fileio import (
    read_basis,
    read_field,
    read_pgm,
    read_pgm_labels,
    write_basis,
    write_csv,
    write_field,
    write_pgm,
)
from .latent import decode, decode_root, encode, explained_variance, fit_basis, pca_mode_field
from .lie import SolverConfig, exp_field, invert, log_field, root_chain, sqrt_field
from .metrics import dice_report, inv_loss, latent_inv_loss, rec_loss
from .registration import RegistrationConfig, icon_loss, register_pair, sim_loss
from .synth import PhantomSpec, RandomFieldSpec, make_phantom, make_subject, random_log_field


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# One (flag, field) table per config drives both the parser, whose defaults
# and types come from the config's own defaults, and the config built from
# the parsed arguments.
_SOLVER_FLAGS = (
    ("--tolerance", "tolerance"),
    ("--max-iterations", "max_iterations"),
    ("--damping", "damping"),
)
_REG_FLAGS = (
    ("--lambda-sim", "lambda_sim"),
    ("--lambda-reg", "lambda_reg"),
    ("--levels", "pyramid_levels"),
    ("--iterations", "iterations_per_level"),
    ("--step-size", "step_size"),
    ("--sigma-update", "update_smoothing_sigma"),
    ("--sigma-field", "field_smoothing_sigma"),
)
_ATLAS_FLAGS = (
    ("--epsilon", "epsilon"),
    ("--max-iter", "max_outer_iterations"),
    ("--basis-dim", "basis_dim"),
    ("--depth", "root_depth"),
)


def _add_flags(p, cls, table):
    """Every int field of a config is a count of at least 1, but the one
    of ``--depth``, a depth."""
    defaults = cls()
    for flag, name in table:
        default = getattr(defaults, name)
        kind = _at_least(1) if isinstance(default, int) else type(default)
        if flag == "--depth":
            kind = _depth
        p.add_argument(flag, type=kind, default=default)


def _config(args, cls, table, **fixed):
    """``cls`` built from the parsed values of the flags in ``table``."""
    values = {name: getattr(args, flag[2:].replace("-", "_")) for flag, name in table}
    return cls(**values, **fixed)


def _add_common(p, run):
    p.add_argument("--json-summary", type=Path, default=None, help="write a run manifest")
    p.add_argument("--threads", type=_at_least(1), default=1,
                   help="accepted for compatibility; results are thread-count-invariant")
    p.set_defaults(run=run)


def _code(text):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated code: {text!r}") from None


def _checked_int(check):
    """A parser type for an int flag that ``check`` accepts, checked as it
    is parsed so that an error names the flag and the value typed."""

    def parse(text):
        try:
            value = int(text)
            check(value)
        except DomainError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        return value

    return parse


def _at_least(minimum, maximum=None):
    """A parser type for a count of at least ``minimum`` and, given
    ``maximum``, at most ``maximum``: ``errors.check_integer``'s range,
    in a message that the parser prefixes with the flag."""
    return _checked_int(partial(check_integer, None, minimum=minimum, maximum=maximum))


# The type of every depth flag (``--n``, ``--depth``): errors.check_depth's
# range, checked before anything is read or written.
_depth = _at_least(1, MAX_DEPTH)


def _at_most(flag, value, maximum, what):
    """Raise UsageError unless ``value`` <= ``maximum``: the upper bound of
    a flag that depends on the inputs, checked once they are read, in the
    words of a parser error."""
    if value > maximum:
        raise UsageError(f"argument {flag}: must be <= {maximum} ({what}), got {value}")


def _same_grid(flag, value, other_flag, other):
    """Raise ShapeError unless ``value``, read from ``flag``, lies on the
    grid of ``other``, read from ``other_flag``: the grid check of an input
    that names both flags, made before any solve."""
    if value.grid != other.grid:
        raise ShapeError(
            f"argument {flag}: grid {value.grid} does not match {other_flag}'s {other.grid}"
        )


_seed = _checked_int(check_seed)


def _read_field(path, as_log=False):
    """A field input: ``read_field``, but a 1-channel file, a scalar raster
    such as ``jacobian --out`` writes, is an error of the file."""
    field = read_field(path, as_log=as_log)
    if isinstance(field, ScalarImage):
        raise UnsupportedChannelsError(f"{path}: a 1-channel raster, not a 2-channel field")
    return field


def _subject_seeds(seed, n):
    """The seeds of the ``n`` generated subjects of ``synth`` and
    ``validate``: one 64-bit state from each child that
    ``np.random.SeedSequence(seed).spawn(n)`` makes, numpy's rule for
    independent streams, so no two (seed, subject) pairs share a field."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def _summary(args, inputs, config, metrics):
    if args.json_summary is None:
        return
    manifest = {
        "command": args.command,
        "version": __version__,
        "inputs": inputs,
        "config": config,
        "metrics": metrics,
    }
    args.json_summary.parent.mkdir(parents=True, exist_ok=True)
    args.json_summary.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="diffeo2d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate phantom images and deformed subjects")
    p.add_argument("--kind", default="ring_with_bump",
                   choices=["ring_with_bump", "four_label_phantom", "gaussian_blobs"])
    p.add_argument("--height", type=_at_least(2), default=64)
    p.add_argument("--width", type=_at_least(2), default=64)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--subjects", type=_at_least(0), default=0)
    p.add_argument("--amplitude", type=float, default=3.0)
    p.add_argument("--smoothing", type=float, default=4.0)
    p.add_argument("--depth", type=_depth, default=6)
    p.add_argument("--out-dir", type=Path, required=True)
    _add_common(p, _cmd_synth)

    p = sub.add_parser("register", help="inverse-consistent pairwise registration")
    p.add_argument("--a", type=Path, required=True)
    p.add_argument("--b", type=Path, required=True)
    p.add_argument("--out-ab", type=Path, default=None)
    p.add_argument("--out-ba", type=Path, default=None)
    p.add_argument("--loss-csv", type=Path, default=None)
    p.add_argument("--gt-field", type=Path, default=None,
                   help="ground-truth field mapping a to b; adds median "
                        "endpoint error to the summary")
    _add_flags(p, RegistrationConfig, _REG_FLAGS)
    _add_common(p, _cmd_register)

    for name, solve, help_text in [
        ("invert", invert, "numerical inverse of a field"),
        ("sqrt", sqrt_field, "square root of a field"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--field", type=Path, required=True)
        p.add_argument("--out", type=Path, required=True)
        _add_flags(p, SolverConfig, _SOLVER_FLAGS)
        _add_common(p, _cmd_solve)
        p.set_defaults(solve=solve)

    p = sub.add_parser("log", help="logarithm map via inverse scaling and squaring")
    p.add_argument("--field", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n", type=_depth, default=6)
    _add_flags(p, SolverConfig, _SOLVER_FLAGS)
    _add_common(p, _cmd_log)

    p = sub.add_parser("exp", help="exponential map via scaling and squaring")
    p.add_argument("--log", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n", type=_depth, default=6)
    _add_common(p, _cmd_exp)

    p = sub.add_parser("compose", help="compose two fields (outer o inner)")
    p.add_argument("--outer", type=Path, required=True)
    p.add_argument("--inner", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_common(p, _cmd_compose)

    p = sub.add_parser("roots", help="chain of successive square roots")
    p.add_argument("--field", type=Path, required=True)
    p.add_argument("--n", type=_depth, default=6)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--residual-csv", type=Path, default=None)
    _add_flags(p, SolverConfig, _SOLVER_FLAGS)
    _add_common(p, _cmd_roots)

    p = sub.add_parser("jacobian", help="Jacobian determinant map and folding fraction")
    p.add_argument("--field", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    _add_common(p, _cmd_jacobian)

    p = sub.add_parser("fit-basis", help="fit a PCA basis over log fields")
    p.add_argument("--logs", type=Path, nargs="+", required=True)
    p.add_argument("--dim", type=_at_least(1), default=8)
    p.add_argument("--no-symmetrize", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--variance-csv", type=Path, default=None)
    _add_common(p, _cmd_fit_basis)

    p = sub.add_parser("encode", help="project a log field onto a basis")
    p.add_argument("--basis", type=Path, required=True)
    p.add_argument("--log", type=Path, required=True)
    p.add_argument("--out-csv", type=Path, default=None)
    _add_common(p, _cmd_encode)

    p = sub.add_parser("decode", help="reconstruct a log field (or root) from a code")
    p.add_argument("--basis", type=Path, required=True)
    p.add_argument("--z", type=_code, required=True, help="comma-separated code")
    p.add_argument("--m", type=_checked_int(partial(check_power_of_two, "m")), default=None,
                   help="power-of-two root: emit the deformation exp(decode(z)/m)")
    p.add_argument("--out", type=Path, required=True)
    _add_common(p, _cmd_decode)

    p = sub.add_parser("modes", help="deformation at c std devs along a PCA mode")
    p.add_argument("--basis", type=Path, required=True)
    p.add_argument("--mode", type=_at_least(1), required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--n", type=_depth, default=6)
    p.add_argument("--out", type=Path, required=True)
    _add_common(p, _cmd_modes)

    p = sub.add_parser("losses", help="loss functionals for a pair of fields")
    p.add_argument("--phi-ab", type=Path, required=True)
    p.add_argument("--phi-ba", type=Path, required=True)
    p.add_argument("--a", type=Path, default=None)
    p.add_argument("--b", type=Path, default=None)
    p.add_argument("--basis", type=Path, default=None)
    p.add_argument("--n", type=_depth, default=6)
    p.add_argument("--out-csv", type=Path, default=None)
    _add_flags(p, SolverConfig, _SOLVER_FLAGS)
    _add_common(p, _cmd_losses)

    p = sub.add_parser("atlas", help="iterative atlas estimation")
    p.add_argument("--images", type=Path, required=True, help="directory of PGM images")
    # --init and --seed sit between the atlas flags, as --help lists them.
    _add_flags(p, AtlasConfig, _ATLAS_FLAGS[:2])
    p.add_argument("--init", type=_at_least(0), default=None)
    p.add_argument("--seed", type=_seed, default=0)
    _add_flags(p, AtlasConfig, _ATLAS_FLAGS[2:])
    p.add_argument("--out-dir", type=Path, required=True)
    _add_flags(p, RegistrationConfig, _REG_FLAGS)
    _add_common(p, _cmd_atlas)

    p = sub.add_parser("warp", help="warp an image or label map by a field")
    p.add_argument("--image", type=Path, required=True)
    p.add_argument("--field", type=Path, required=True)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    _add_common(p, _cmd_warp)

    p = sub.add_parser("dice", help="per-label Dice between two label images")
    p.add_argument("--a", type=Path, required=True)
    p.add_argument("--b", type=Path, required=True)
    p.add_argument("--out-csv", type=Path, default=None)
    _add_common(p, _cmd_dice)

    p = sub.add_parser("validate", help="root-chain, negation, and latent consistency checks")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--count", type=_at_least(2), default=4)
    p.add_argument("--height", type=_at_least(2), default=64)
    p.add_argument("--width", type=_at_least(2), default=64)
    p.add_argument("--amplitude", type=float, default=3.0)
    p.add_argument("--n", type=_depth, default=6)
    p.add_argument("--basis-dim", type=_at_least(1), default=4)
    p.add_argument("--out-csv", type=Path, required=True)
    _add_flags(p, SolverConfig, _SOLVER_FLAGS)
    _add_common(p, _cmd_validate)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies. Each returns the (inputs, config, metrics) of its run
# manifest, which main writes once the command has succeeded.


def _cmd_synth(args):
    grid = Grid(args.height, args.width)
    spec = PhantomSpec(kind=args.kind, grid=grid, seed=args.seed)
    image, labels = make_phantom(spec)
    # Every subject is made before anything is written, so a subject that
    # fails leaves no output behind.
    specs = [RandomFieldSpec(grid, seed=seed, smoothing_sigma=args.smoothing,
                             amplitude=args.amplitude)
             for seed in _subject_seeds(args.seed, args.subjects)]
    subjects = [make_subject((image, labels), random_log_field(spec), args.depth)
                for spec in specs]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_pgm(args.out_dir / "image.pgm", image)
    write_pgm(args.out_dir / "labels.pgm", labels)
    for i, subj in enumerate(subjects):
        stem = args.out_dir / f"subject_{i:03d}"
        write_pgm(f"{stem}_image.pgm", subj.image)
        write_pgm(f"{stem}_labels.pgm", subj.labels)
        write_field(f"{stem}_field.mfld", subj.field)
        write_field(f"{stem}_log.mfld", subj.log)
    config = {"seed": args.seed, "subjects": args.subjects, "amplitude": args.amplitude,
              "height": args.height, "width": args.width, "smoothing": args.smoothing,
              "depth": args.depth}
    return {"kind": args.kind}, config, {}


def _cmd_register(args):
    a = read_pgm(args.a)
    b = read_pgm(args.b)
    gt = None
    if args.gt_field:
        gt = _read_field(args.gt_field)
        _same_grid("--gt-field", gt, "--a", a)
    cfg = _config(args, RegistrationConfig, _REG_FLAGS)
    result = register_pair(a, b, cfg)
    if args.out_ab:
        write_field(args.out_ab, result.phi_ab)
    if args.out_ba:
        write_field(args.out_ba, result.phi_ba)
    if args.loss_csv:
        write_csv(
            args.loss_csv,
            ["iteration", "l_sim", "l_reg", "l_p"],
            result.loss_history,
        )
    last = result.loss_history[-1]
    metrics = {
        "final_l_sim": last[1],
        "final_l_reg": last[2],
        "final_l_p": last[3],
        "final_inverse_consistency_px": result.final_inverse_consistency,
        "neg_jacobian_ab_pct": neg_jacobian_fraction(result.phi_ab),
        "neg_jacobian_ba_pct": neg_jacobian_fraction(result.phi_ba),
    }
    inputs = {"a": str(args.a), "b": str(args.b)}
    if gt is not None:
        inputs["gt_field"] = str(args.gt_field)
        # gt maps a onto b, so phi_ba recovers gt and phi_ab its inverse.
        d = result.phi_ba.u - gt.u
        metrics["median_endpoint_error_px"] = float(
            np.median(np.hypot(d[..., 0], d[..., 1]))
        )
    return inputs, asdict(cfg), metrics


def _cmd_solve(args):
    """invert or sqrt. Once its root is solved, sqrt warns if its input folds."""
    cfg = _config(args, SolverConfig, _SOLVER_FLAGS)
    field = _read_field(args.field)
    sol = args.solve(field, cfg)
    if args.command == "sqrt" and neg_jacobian_fraction(field) > 0:
        print("warning: input field has non-positive Jacobian pixels; root may be inaccurate",
              file=sys.stderr)
    write_field(args.out, sol.field)
    return ({"field": str(args.field)}, asdict(cfg),
            {"residual_px": sol.residual, "iterations": sol.iterations})


def _cmd_log(args):
    cfg = _config(args, SolverConfig, _SOLVER_FLAGS)
    chain = root_chain(_read_field(args.field), args.n, cfg)
    write_field(args.out, chain.log())
    return ({"field": str(args.field)}, {"n": args.n, **asdict(cfg)},
            {"residuals_px": chain.residuals, "iterations": chain.iterations})


def _cmd_exp(args):
    field = exp_field(_read_field(args.log, as_log=True), args.n)
    write_field(args.out, field)
    return {"log": str(args.log)}, {"n": args.n}, {}


def _cmd_compose(args):
    result = compose(_read_field(args.outer), _read_field(args.inner))
    write_field(args.out, result)
    return {"outer": str(args.outer), "inner": str(args.inner)}, {}, {}


def _cmd_roots(args):
    cfg = _config(args, SolverConfig, _SOLVER_FLAGS)
    chain = root_chain(_read_field(args.field), args.n, cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for n, root in enumerate(chain.roots):
        write_field(args.out_dir / f"root_{n:02d}.mfld", root)
    if args.residual_csv:
        write_csv(
            args.residual_csv,
            ["level", "solver_residual_px"],
            [(n, r) for n, r in enumerate(chain.residuals)],
        )
    return ({"field": str(args.field)}, {"n": args.n, **asdict(cfg)},
            {"residuals_px": chain.residuals, "iterations": chain.iterations})


def _cmd_jacobian(args):
    field = _read_field(args.field)
    det = jacobian_determinant(field)
    frac = _nonpositive_percent(det.values)
    if args.out:
        write_field(args.out, det)
    print(f"neg_jacobian_fraction_pct,{frac!r}")
    return ({"field": str(args.field)}, {},
            {"neg_jacobian_fraction_pct": frac, "det_min": float(det.values.min())})


def _cmd_fit_basis(args):
    if len(args.logs) < 2:
        raise UsageError(f"argument --logs: must name at least 2 log fields, got {len(args.logs)}")
    logs = [_read_field(p, as_log=True) for p in args.logs]
    symmetrize = not args.no_symmetrize
    # fit_basis's sample count: each log counts twice when symmetrized.
    what = f"{len(logs)} logs" + (", symmetrized" if symmetrize else "")
    _at_most("--dim", args.dim, len(logs) * (2 if symmetrize else 1), what)
    basis = fit_basis(logs, args.dim, symmetrize=symmetrize)
    write_basis(args.out, basis)
    ev = explained_variance(basis)
    if args.variance_csv:
        write_csv(args.variance_csv, ["mode", "explained_variance"],
                  [(k + 1, v) for k, v in enumerate(ev)])
    return ({"logs": [str(p) for p in args.logs]},
            {"dim": args.dim, "symmetrize": symmetrize},
            {"explained_variance": ev})


def _cmd_encode(args):
    basis = read_basis(args.basis)
    log = _read_field(args.log, as_log=True)
    _same_grid("--log", log, "--basis", basis)
    z = encode(basis, log)
    line = ",".join(repr(float(v)) for v in z)
    print(line)
    if args.out_csv:
        write_csv(args.out_csv, [f"z{k+1}" for k in range(len(z))], [tuple(z)])
    return {"basis": str(args.basis), "log": str(args.log)}, {}, {"z": z.tolist()}


def _cmd_decode(args):
    basis = read_basis(args.basis)
    if len(args.z) != basis.dim:
        raise UsageError(f"argument --z: must have {basis.dim} values (the basis dimension), "
                         f"got {len(args.z)}")
    z = np.array(args.z)
    if args.m is not None:
        write_field(args.out, decode_root(basis, z, args.m))
    else:
        write_field(args.out, decode(basis, z))
    return {"basis": str(args.basis)}, {"z": args.z, "m": args.m}, {}


def _cmd_modes(args):
    basis = read_basis(args.basis)
    _at_most("--mode", args.mode, basis.dim, "the basis dimension")
    write_field(args.out, pca_mode_field(basis, args.mode, args.scale, args.n))
    return ({"basis": str(args.basis)},
            {"mode": args.mode, "scale": args.scale, "n": args.n}, {})


def _cmd_losses(args):
    if (args.a is None) != (args.b is None):
        given, missing = ("--a", "--b") if args.b is None else ("--b", "--a")
        raise UsageError(f"argument {missing}: required with {given}")
    phi_ab = _read_field(args.phi_ab)
    phi_ba = _read_field(args.phi_ba)
    cfg = _config(args, SolverConfig, _SOLVER_FLAGS)
    inputs = {"phi_ab": str(args.phi_ab), "phi_ba": str(args.phi_ba)}
    # The basis is read and checked before the root chains, the costly part.
    basis = read_basis(args.basis) if args.basis else None
    if basis is not None:
        inputs["basis"] = str(args.basis)
        _same_grid("--basis", basis, "--phi-ab", phi_ab)
    metrics = {}
    metrics["icon_loss"] = icon_loss(phi_ab, phi_ba)
    if args.a:
        inputs.update(a=str(args.a), b=str(args.b))
        metrics["sim_loss"] = sim_loss(read_pgm(args.a), read_pgm(args.b), phi_ab, phi_ba)
    chain_ab = root_chain(phi_ab, args.n, cfg)
    chain_ba = root_chain(phi_ba, args.n, cfg)
    metrics["rec_loss"] = rec_loss(chain_ab, phi_ab, chain_ba, phi_ba)
    metrics["inv_loss"] = inv_loss(chain_ab, chain_ba)
    if basis is not None:
        z_ab = encode(basis, chain_ab.log())
        z_ba = encode(basis, chain_ba.log())
        metrics["latent_inv_loss"] = latent_inv_loss(z_ab, z_ba)
    rows = [tuple(metrics.values())]
    if args.out_csv:
        write_csv(args.out_csv, list(metrics.keys()), rows)
    for key, value in metrics.items():
        print(f"{key},{value!r}")
    return inputs, {"n": args.n, **asdict(cfg)}, metrics


def _cmd_atlas(args):
    paths = sorted(args.images.glob("*.pgm"))
    if len(paths) < 2:
        raise UsageError(f"need at least 2 PGM images in {args.images}")
    images = [read_pgm(p) for p in paths]
    if args.init is not None:
        _at_most("--init", args.init, len(images) - 1, f"{len(images)} images")
    reg_config = _config(args, RegistrationConfig, _REG_FLAGS)
    cfg = _config(args, AtlasConfig, _ATLAS_FLAGS, reg_config=reg_config)
    atlas, history = estimate_atlas(images, cfg, init_index=args.init, seed=args.seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_pgm(args.out_dir / "atlas.pgm", atlas)
    write_pgm(args.out_dir / "pixelwise_mean.pgm", pixelwise_mean_atlas(images))
    final = history[-1]
    write_csv(
        args.out_dir / "delta.csv",
        ["iteration", "delta"],
        [(k + 1, d) for k, d in enumerate(final.delta_history)],
    )
    return ({"images": [str(p) for p in paths]},
            {"init": args.init, "seed": args.seed, **asdict(cfg)},
            {"iterations": final.iteration, "converged": final.converged,
             "delta_history": final.delta_history})


def _cmd_warp(args):
    field = _read_field(args.field)
    if args.labels:
        out = warp_labels(read_pgm_labels(args.image), field)
    else:
        out = warp_image(read_pgm(args.image), field)
    write_pgm(args.out, out)
    return {"image": str(args.image), "field": str(args.field)}, {"labels": args.labels}, {}


def _cmd_dice(args):
    per_label, mean = dice_report(read_pgm_labels(args.a), read_pgm_labels(args.b))
    rows = [(lab, score) for lab, score in per_label.items()] + [("mean", mean)]
    if args.out_csv:
        write_csv(args.out_csv, ["label", "dice"], rows)
    for lab, score in rows:
        print(f"{lab},{score!r}")
    return ({"a": str(args.a), "b": str(args.b)}, {},
            {"dice": {str(lab): score for lab, score in per_label.items()}, "mean_dice": mean})


def _cmd_validate(args):
    """Consistency checks on seeded synthetic fields: per-level root-chain
    reconstruction, field negation vs inversion, and latent negation."""
    grid = Grid(args.height, args.width)
    cfg = _config(args, SolverConfig, _SOLVER_FLAGS)
    fields = []
    chains = []
    for seed in _subject_seeds(args.seed, args.count):
        v = random_log_field(RandomFieldSpec(grid, seed=seed, amplitude=args.amplitude))
        phi = exp_field(v, args.n)
        fields.append(phi)
        chains.append(root_chain(phi, args.n, cfg))
    logs = [chain.log() for chain in chains]
    basis = fit_basis(logs, min(args.basis_dim, len(logs)), symmetrize=True)

    rows = []
    for i, (phi, chain) in enumerate(zip(fields, chains)):
        inv = invert(phi, cfg).field
        neg_exp = exp_field(LogField(grid, -logs[i].v), args.n)
        neg_rms = field_rms_diff(neg_exp, inv)
        z = encode(basis, logs[i])
        z_inv = encode(basis, log_field(inv, args.n, cfg))
        latent_neg = float(np.linalg.norm(z + z_inv))
        dec_inv = decode_root(basis, -z, 1, args.n)
        dec_rms = field_rms_diff(dec_inv, inv)
        for n, recon in enumerate(chain.reconstruction_rms(phi)):
            rows.append((i, n, recon, neg_rms, latent_neg, dec_rms))
    write_csv(
        args.out_csv,
        [
            "field_index",
            "level",
            "root_reconstruction_rms_px",
            "negation_vs_inverse_rms_px",
            "latent_negation_norm",
            "decoded_negation_vs_inverse_rms_px",
        ],
        rows,
    )
    worst = {
        "max_root_reconstruction_rms_px": max(r[2] for r in rows),
        "max_negation_vs_inverse_rms_px": max(r[3] for r in rows),
        "max_latent_negation_norm": max(r[4] for r in rows),
        "max_decoded_negation_vs_inverse_rms_px": max(r[5] for r in rows),
    }
    for key, value in worst.items():
        print(f"{key},{value!r}")
    config = {"seed": args.seed, "count": args.count, "amplitude": args.amplitude,
              "n": args.n, "height": args.height, "width": args.width,
              "basis_dim": args.basis_dim, **asdict(cfg)}
    return {}, config, worst


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _summary(args, *args.run(args))
    except (UsageError, DomainError, ShapeError, RankError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (FileFormatError, OSError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    except ConvergenceError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
