"""The benchmark's workloads: seeded inputs, one op, output checks, digests.

Every workload is a closed loop with one caller. Inputs come from the
workload seed through ``diffeo2d.synth`` and the textured-image generator
below; the library only ever receives the generated arrays. Library calls go
through the ``diffeo2d`` package attribute at call time, so an active tracer
sees them.

Per-op seeds are ``1_000_000 + 100_000 * seed + 1_000 * role + k``. They
never overlap the seeds of the test suite (0-99, 500-509, 900-909,
1000-1029, 2000-2029), so a claim can be rechecked on fresh inputs.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
from scipy.ndimage import gaussian_filter

import diffeo2d as d2

# Criterion-4 registration settings (the test suite's SUITE_REG_CONFIG).
SUITE_REG = dict(step_size=0.45, update_smoothing_sigma=1.0, field_smoothing_sigma=0.0)

# Output thresholds. Registration and atlas limits are acceptance criteria 4
# and 7; the log limit is criterion 2's round trip, the inverse limit
# criterion 1's.
EPE_MAX_PX = 0.5
ICON_MAX_PX = 0.1
DICE_MIN = 0.9
FOLD_MAX_PCT = 0.0
TEMPLATE_MAE_MAX = 0.03
LOG_ERR_MAX_PX = 1e-2
INVERSE_RESIDUAL_MAX_PX = 1e-3

TEXTURE, FIELD = 0, 1


def op_seed(seed: int, role: int, k: int) -> int:
    return 1_000_000 + 100_000 * seed + 1_000 * role + k


def textured_image(seed: int, grid) -> "d2.ScalarImage":
    """Smooth random texture in [0, 1], with intensity gradients everywhere."""
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    t = gaussian_filter(noise, 2.0, mode="nearest")
    return d2.ScalarImage(grid, (t - t.min()) / (t.max() - t.min()))


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def pool_digest(obj, h=None):
    """Digest of every array in a nested structure of inputs."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            pool_digest(item, h)
    elif isinstance(obj, str):
        h.update(obj.encode())
    else:
        for attr in ("values", "labels", "u", "v"):
            if hasattr(obj, attr):
                pool_digest(getattr(obj, attr), h)
    return h.hexdigest() if top else None


def _rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(a * a)))


class Workload:
    """Interface shared by the workloads.

    ``pool_size`` inputs are generated per run and cycled through; a run
    always completes at least ``quality_ops`` ops, and its quality metrics
    are the worst over those first ops, so they repeat exactly for a seed.
    A traced run executes the first ``trace_ops`` ops.
    """

    name = ""
    quality: dict[str, tuple[str, str]] = {}  # metric -> (unit, "max"|"min")
    pool_size = 1
    quality_ops = 1
    trace_ops = 1

    def make_pool(self, seed):
        raise NotImplementedError

    def warmup_input(self, pool):
        return pool[0]

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[dict[str, float], list[str]]:
        """Quality values of one op and the checks it failed."""
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def final(self, outputs):
        """Optional stage after the loop over the kept outputs; returns
        (digest, failures) or None."""
        return None


class Register64(Workload):
    """Stream of 64^2 pairs: even ops register a texture to its warp by a
    known field, odd ops register the four-label phantom to a warped
    subject."""

    name = "register64"
    quality = {
        "epe_px": ("px", "max"),
        "icon_px": ("px", "max"),
        "dice": ("1", "min"),
        "fold_pct": ("%", "max"),
    }

    def __init__(self, smoke=False):
        self.grid = d2.Grid(64, 64)
        self.cfg = d2.RegistrationConfig(
            iterations_per_level=60 if smoke else 300, **SUITE_REG
        )
        self.pool_size = 2 if smoke else 12
        self.quality_ops = 2 if smoke else 4
        self.trace_ops = 2

    def make_pool(self, seed):
        phantom = d2.make_phantom(
            d2.PhantomSpec(kind="four_label_phantom", grid=self.grid, seed=0)
        )
        pool = []
        for k in range(self.pool_size):
            v = d2.random_log_field(
                d2.RandomFieldSpec(self.grid, seed=op_seed(seed, FIELD, k))
            )
            if k % 2 == 0:
                a = textured_image(op_seed(seed, TEXTURE, k), self.grid)
                phi = d2.exp_field(v, 6)
                pool.append(("textured", a, d2.warp_image(a, phi), phi))
            else:
                subj = d2.make_subject(phantom, v)
                pool.append(("phantom", phantom[0], subj.image, phantom[1], subj.labels))
        return pool

    def op(self, inp):
        return d2.register_pair(inp[1], inp[2], self.cfg)

    def check(self, inp, res):
        q = {
            "icon_px": res.final_inverse_consistency,
            "fold_pct": max(
                d2.neg_jacobian_fraction(res.phi_ab), d2.neg_jacobian_fraction(res.phi_ba)
            ),
        }
        if inp[0] == "textured":
            d = res.phi_ba.u - inp[3].u
            q["epe_px"] = float(np.median(np.hypot(d[..., 0], d[..., 1])))
        else:
            warped = d2.warp_labels(inp[4], res.phi_ab)
            q["dice"] = d2.dice_report(warped, inp[3])[1]
        bad = []
        if q.get("epe_px", 0.0) > EPE_MAX_PX:
            bad.append(f"epe {q['epe_px']:.3f} > {EPE_MAX_PX}")
        if q["icon_px"] > ICON_MAX_PX:
            bad.append(f"icon {q['icon_px']:.3f} > {ICON_MAX_PX}")
        if q.get("dice", 1.0) < DICE_MIN:
            bad.append(f"dice {q['dice']:.3f} < {DICE_MIN}")
        if q["fold_pct"] > FOLD_MAX_PCT:
            bad.append(f"folds {q['fold_pct']}%")
        return q, bad

    def digest(self, res):
        return array_digest(res.phi_ab.u, res.phi_ba.u)


class Atlas8(Workload):
    """Repeated ``atlas_step`` calls, each on a fresh criterion-7 population:
    a texture warped by exp(+v) and exp(-v) for four generators v, so the
    generators sum to zero and the texture is the unbiased template.

    Each op is one step from the pixelwise mean. A step from subject 0
    registers it to subject 1, a deformation of about exp(2v), and with the
    suite step size that registration diverges on about one population in
    five; a benchmark op must not fail, so the mean is the start."""

    name = "atlas8"
    quality = {"template_mae": ("1", "max"), "icon_px": ("px", "max")}

    def __init__(self, smoke=False):
        self.grid = d2.Grid(32, 32) if smoke else d2.Grid(64, 64)
        self.amplitude = 1.5 if smoke else 3.0
        self.cfg = d2.AtlasConfig(
            reg_config=d2.RegistrationConfig(
                iterations_per_level=30 if smoke else 150, **SUITE_REG
            ),
            basis_dim=8,
        )
        self.pool_size = 2 if smoke else 4
        self.quality_ops = 1 if smoke else 2
        self.trace_ops = 1

    def make_pool(self, seed):
        pool = []
        for k in range(self.pool_size):
            template = textured_image(op_seed(seed, TEXTURE, k), self.grid)
            subjects = []
            for g in range(4):
                v = d2.random_log_field(
                    d2.RandomFieldSpec(
                        self.grid, seed=op_seed(seed, FIELD, 4 * k + g), amplitude=self.amplitude
                    )
                )
                for sign in (1.0, -1.0):
                    phi = d2.exp_field(d2.LogField(self.grid, sign * v.v), 6)
                    subjects.append(d2.warp_image(template, phi))
            pool.append((template, subjects))
        return pool

    def warmup_input(self, pool):
        # One generator pair: the same code path at a quarter of the cost.
        template, subjects = pool[0]
        return template, subjects[:2]

    def op(self, inp):
        _, subjects = inp
        start = d2.AtlasState(atlas=d2.pixelwise_mean_atlas(subjects))
        return d2.atlas_step(start, subjects, self.cfg)

    def check(self, inp, state):
        mae = float(np.mean(np.abs(state.atlas.values - inp[0].values)))
        bad = [] if mae <= TEMPLATE_MAE_MAX else [f"template MAE {mae:.4f} > {TEMPLATE_MAE_MAX}"]
        return {"template_mae": mae}, bad

    def digest(self, state):
        return array_digest(state.atlas.values, state.mean_latent)


class Algebra256(Workload):
    """Stream of 256^2 random log fields v; each op runs exp, log and
    invert, then an MFLD write/read round trip of the log. After the loop,
    ``fit_basis``, ``encode`` and ``decode_root`` run over the first logs."""

    name = "algebra256"
    quality = {"log_err_px": ("px", "max"), "inverse_residual_px": ("px", "max")}
    basis_logs = 8

    def __init__(self, smoke=False, scratch_dir="."):
        self.grid = d2.Grid(32, 32) if smoke else d2.Grid(256, 256)
        self.pool_size = self.basis_logs if smoke else 40
        self.quality_ops = self.basis_logs
        self.trace_ops = self.basis_logs
        self.path = os.path.join(scratch_dir, "roundtrip.mfld")

    def make_pool(self, seed):
        return [
            d2.random_log_field(d2.RandomFieldSpec(self.grid, seed=op_seed(seed, FIELD, k)))
            for k in range(self.pool_size)
        ]

    def op(self, v):
        phi = d2.exp_field(v, 6)
        log = d2.log_field(phi, 6)
        inv = d2.invert(phi)
        d2.write_field(self.path, log)
        back = d2.read_field(self.path, as_log=True)
        return phi, log, inv, back

    def check(self, v, out):
        phi, log, inv, back = out
        q = {"log_err_px": _rms(log.v - v.v), "inverse_residual_px": inv.residual}
        bad = []
        if q["log_err_px"] > LOG_ERR_MAX_PX:
            bad.append(f"log error {q['log_err_px']:.2e} > {LOG_ERR_MAX_PX}")
        if q["inverse_residual_px"] > INVERSE_RESIDUAL_MAX_PX:
            bad.append(f"inverse residual {inv.residual:.2e} > {INVERSE_RESIDUAL_MAX_PX}")
        if back.v.dtype != log.v.dtype or back.v.tobytes() != log.v.tobytes():
            bad.append("MFLD read-back differs from the written field")
        return q, bad

    def digest(self, out):
        phi, log, inv, back = out
        return array_digest(phi.u, log.v, inv.field.u, back.v)

    def final(self, outputs):
        """Fit a full-rank basis to the first logs; decoding each log's code
        must give back exp(log) up to the log round-trip error."""
        logs = [out[1] for out in outputs[: self.basis_logs]]
        phis = [out[0] for out in outputs[: self.basis_logs]]
        basis = d2.fit_basis(logs, len(logs), symmetrize=True)
        decoded = [d2.decode_root(basis, d2.encode(basis, lv), 1) for lv in logs]
        worst = max(d2.field_rms_diff(dec, phi) for dec, phi in zip(decoded, phis))
        bad = [] if worst <= LOG_ERR_MAX_PX else [f"decoded basis error {worst:.2e} px"]
        return array_digest(basis.components, *[dec.u for dec in decoded]), bad


WORKLOADS = {w.name: w for w in (Register64, Atlas8, Algebra256)}
