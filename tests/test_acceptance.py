"""Acceptance gate: nine property-based criteria over the synthetic suite.

Each test prints a single PASS/FAIL line (with timing) directly to the
terminal, then asserts. Registration-based criteria use the tuned optimizer
settings from conftest (documented there); everything else runs on library
defaults.
"""

import json
import time

import numpy as np
import pytest

from diffeo2d import (
    AtlasConfig,
    AtlasState,
    Grid,
    LabelImage,
    LossWeights,
    LogField,
    PhantomSpec,
    RandomFieldSpec,
    RootChain,
    ScalarImage,
    atlas_step,
    compose,
    dice,
    dice_report,
    estimate_atlas,
    exp_field,
    explained_variance,
    field_rms_diff,
    fit_basis,
    decode_root,
    encode,
    identity_field,
    icon_loss,
    inv_loss,
    invert,
    latent_inv_loss,
    log_field,
    make_phantom,
    make_subject,
    neg_jacobian_fraction,
    pixelwise_mean_atlas,
    random_log_field,
    read_field,
    read_pgm,
    rec_loss,
    root_chain,
    secondary_loss,
    warp_image,
    warp_labels,
    write_field,
    write_pgm,
)
from diffeo2d.cli import main as cli_main
from diffeo2d.registration import frozen_loss_and_grad, register_pair
from diffeo2d.fields import grid_coords, sample_values

from conftest import GRID64, SUITE_REG_CONFIG, constant_field, suite_field, textured_image


def report(capsys, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(
            f"\n[{status}] {name} ({elapsed:.1f}s / budget {budget:.0f}s){' — ' + detail if detail else ''}"
        )


def test_criterion_1_group_laws(capsys):
    """Identity, inverse, and associativity over 100 seeded fields."""
    start = time.time()
    ident = identity_field(GRID64)
    worst_inv = 0.0
    worst_assoc = 0.0
    worst_ident = 0.0
    for seed in range(100):
        _, phi = suite_field(seed)
        worst_ident = max(
            worst_ident,
            field_rms_diff(compose(phi, ident), phi),
            field_rms_diff(compose(ident, phi), phi),
        )
        inv = invert(phi).field
        worst_inv = max(worst_inv, field_rms_diff(compose(phi, inv), ident))
        if seed < 30:  # associativity needs two partners; use neighbors
            _, psi = suite_field(seed + 1000)
            _, chi = suite_field(seed + 2000)
            lhs = compose(compose(phi, psi), chi)
            rhs = compose(phi, compose(psi, chi))
            worst_assoc = max(worst_assoc, field_rms_diff(lhs, rhs))
    elapsed = time.time() - start
    ok = worst_ident <= 1e-12 and worst_inv <= 1e-3 and worst_assoc <= 0.05 and elapsed <= 60
    report(
        capsys, "criterion 1: group laws", ok, elapsed, 60,
        f"identity {worst_ident:.2e}, inverse {worst_inv:.2e} <= 1e-3, "
        f"associativity {worst_assoc:.2e} <= 0.05",
    )
    assert ok


def test_criterion_2_log_exp_fidelity(capsys):
    """Log/exp round-trip and per-level root reconstruction, 100 seeds."""
    start = time.time()
    worst_roundtrip = 0.0
    worst_recon = 0.0
    for seed in range(100):
        _, phi = suite_field(seed)
        chain = root_chain(phi, 6)
        worst_roundtrip = max(worst_roundtrip, field_rms_diff(exp_field(chain.log(), 6), phi))
        worst_recon = max(worst_recon, *chain.reconstruction_rms(phi))
    elapsed = time.time() - start
    ok = worst_roundtrip <= 1e-2 and worst_recon <= 5e-3 and elapsed <= 120
    report(
        capsys, "criterion 2: log/exp fidelity", ok, elapsed, 120,
        f"roundtrip {worst_roundtrip:.2e} <= 1e-2, root recon {worst_recon:.2e} <= 5e-3",
    )
    assert ok


def test_criterion_3_negation_consistency(capsys):
    """exp(-log) vs inverse; latent negation; decoded negation."""
    start = time.time()
    logs = []
    phis = []
    for seed in range(8):
        v, phi = suite_field(seed)
        logs.append(log_field(phi, 6))
        phis.append(phi)
    basis = fit_basis(logs, dim=4)

    worst_field = 0.0
    worst_latent_ratio = 0.0
    worst_decode = 0.0
    for v, phi in zip(logs, phis):
        inv = invert(phi).field
        neg = exp_field(LogField(GRID64, -v.v), 6)
        worst_field = max(worst_field, field_rms_diff(neg, inv))

        z_ab = encode(basis, v)
        z_ba = encode(basis, log_field(inv, 6))
        ratio = np.linalg.norm(z_ab + z_ba) / (1e-2 * (np.linalg.norm(z_ab) + 1.0))
        worst_latent_ratio = max(worst_latent_ratio, ratio)

        dec_fwd = decode_root(basis, z_ab, 1)
        dec_neg = decode_root(basis, -z_ab, 1)
        worst_decode = max(
            worst_decode, field_rms_diff(dec_neg, invert(dec_fwd).field)
        )
    elapsed = time.time() - start
    ok = worst_field <= 2e-2 and worst_latent_ratio <= 1.0 and worst_decode <= 2e-2
    report(
        capsys, "criterion 3: negation consistency", ok, elapsed, 60,
        f"field {worst_field:.2e} <= 2e-2, latent ratio {worst_latent_ratio:.2f} <= 1, "
        f"decoded {worst_decode:.2e} <= 2e-2",
    )
    assert ok


def test_criterion_4_registration_recovery(capsys):
    """20 ground-truth pairs: EPE, inverse consistency, Dice, folding."""
    start = time.time()
    worst_epe = 0.0
    worst_icon = 0.0
    worst_dice = 1.0
    worst_fold = 0.0

    # 10 textured pairs for endpoint error (intensity gradients everywhere).
    for seed in range(10):
        a = textured_image(seed)
        _, phi = suite_field(seed + 500)
        b = warp_image(a, phi)
        res = register_pair(a, b, SUITE_REG_CONFIG)
        d = res.phi_ba.u - phi.u
        worst_epe = max(worst_epe, float(np.median(np.hypot(d[..., 0], d[..., 1]))))
        worst_icon = max(worst_icon, res.final_inverse_consistency)
        worst_fold = max(
            worst_fold,
            neg_jacobian_fraction(res.phi_ab),
            neg_jacobian_fraction(res.phi_ba),
        )

    # 10 phantom pairs for label overlap.
    phantom = make_phantom(PhantomSpec(kind="four_label_phantom", grid=GRID64, seed=0))
    for seed in range(10):
        v = random_log_field(RandomFieldSpec(GRID64, seed=seed + 900))
        subj = make_subject(phantom, v)
        res = register_pair(phantom[0], subj.image, SUITE_REG_CONFIG)
        warped = warp_labels(subj.labels, res.phi_ab)
        _, mean = dice_report(warped, phantom[1])
        worst_dice = min(worst_dice, mean)
        worst_icon = max(worst_icon, res.final_inverse_consistency)
        worst_fold = max(
            worst_fold,
            neg_jacobian_fraction(res.phi_ab),
            neg_jacobian_fraction(res.phi_ba),
        )
    elapsed = time.time() - start
    ok = (
        worst_epe <= 0.5
        and worst_icon <= 0.1
        and worst_dice >= 0.9
        and worst_fold == 0.0
        and elapsed <= 300
    )
    report(
        capsys, "criterion 4: registration recovery", ok, elapsed, 300,
        f"median EPE {worst_epe:.3f} <= 0.5, icon {worst_icon:.3f} <= 0.1, "
        f"dice {worst_dice:.3f} >= 0.9, folds {worst_fold}%",
    )
    assert ok


def test_criterion_5_gradient_check(capsys):
    """Analytic vs central-difference gradients on random 8x8 instances."""
    start = time.time()
    grid = Grid(8, 8)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = ScalarImage(grid, rng.random((8, 8)))
        b = ScalarImage(grid, rng.random((8, 8)))
        u_var = 0.5 * rng.standard_normal((8, 8, 2))
        u_other = 0.5 * rng.standard_normal((8, 8, 2))
        x = grid_coords(grid)
        cross = sample_values(u_other, x + u_var)
        _, grad = frozen_loss_and_grad(a, b, u_var, u_other, 1.0, 1.0, cross)
        h = 1e-6
        fd = np.zeros_like(grad)
        for idx in np.ndindex(u_var.shape):
            up = u_var.copy()
            up[idx] += h
            dn = u_var.copy()
            dn[idx] -= h
            lp, _ = frozen_loss_and_grad(a, b, up, u_other, 1.0, 1.0, cross)
            lm, _ = frozen_loss_and_grad(a, b, dn, u_other, 1.0, 1.0, cross)
            fd[idx] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, float(rel))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed <= 10
    report(
        capsys, "criterion 5: gradient check", ok, elapsed, 10,
        f"relative error {worst:.2e} <= 1e-4",
    )
    assert ok


def test_criterion_6_pca_recovery(capsys):
    """Two orthogonal generator modes: explained variance and subspace angle."""
    start = time.time()
    v1 = random_log_field(RandomFieldSpec(GRID64, seed=11)).v
    v1 = v1 / np.linalg.norm(v1)
    v2 = random_log_field(RandomFieldSpec(GRID64, seed=22)).v
    v2 = v2 - np.sum(v2 * v1) * v1
    v2 = v2 / np.linalg.norm(v2)
    rng = np.random.default_rng(0)
    fields = [
        LogField(GRID64, a * v1 + b * v2)
        for a, b in rng.standard_normal((30, 2)) * np.array([3.0, 1.0])
    ]
    basis = fit_basis(fields, dim=2)
    ev = sum(explained_variance(basis)[:2])
    gen = np.stack([v1.ravel(), v2.ravel()], axis=1)
    rec = np.stack([c.ravel() for c in basis.components], axis=1)
    s = np.linalg.svd(gen.T @ rec, compute_uv=False)
    angle = float(np.arccos(np.clip(s.min(), -1.0, 1.0)))
    elapsed = time.time() - start
    ok = ev >= 0.99 and angle <= 1e-3
    report(
        capsys, "criterion 6: PCA recovery", ok, elapsed, 30,
        f"explained variance {ev:.4f} >= 0.99, subspace angle {angle:.2e} <= 1e-3 rad",
    )
    assert ok


def test_criterion_7_atlas_suite(capsys):
    """Fixed point, template recovery, initialization robustness, sharpness."""
    start = time.time()
    cfg = AtlasConfig(
        reg_config=SUITE_REG_CONFIG.__class__(
            step_size=0.45,
            iterations_per_level=150,
            update_smoothing_sigma=1.0,
            field_smoothing_sigma=0.0,
        ),
        basis_dim=8,
    )

    template = textured_image(77)

    # (a) identical population is a one-step fixed point.
    state = AtlasState(atlas=ScalarImage(GRID64, template.values.copy()))
    nxt = atlas_step(state, [template, template], cfg)
    fixed_ok = nxt.delta_history[-1] <= 1e-6

    # (b) 8 subjects warped from a known template with zero-sum generators.
    vs = []
    for seed in range(4):
        v = random_log_field(RandomFieldSpec(GRID64, seed=seed + 40))
        vs.append(v)
        vs.append(LogField(GRID64, -v.v))
    subjects = [warp_image(template, exp_field(v, 6)) for v in vs]

    atlas_a, _ = estimate_atlas(subjects, cfg, init_index=0)
    mae = float(np.mean(np.abs(atlas_a.values - template.values)))
    recovery_ok = mae <= 0.03

    # (c) a second initialization agrees within 5% relative Frobenius norm.
    atlas_b, _ = estimate_atlas(subjects, cfg, init_index=3)
    rel = float(
        np.linalg.norm(atlas_a.values - atlas_b.values)
        / np.linalg.norm(atlas_a.values)
    )
    robust_ok = rel <= 0.05

    # (d) sharper than the pixelwise mean on the translated-copies population.
    base, _ = make_phantom(PhantomSpec(kind="gaussian_blobs", grid=GRID64, seed=5))
    shifts = [(-3.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (3.0, 0.0)]
    translated = [
        warp_image(base, constant_field(GRID64, dr, dc)) for dr, dc in shifts
    ]
    sharp_atlas, _ = estimate_atlas(translated, cfg, init_index=0)
    mean_img = pixelwise_mean_atlas(translated)

    def sharpness(img):
        gr, gc = np.gradient(img.values)
        return float(np.sum(np.hypot(gr, gc)))

    sharp_ok = sharpness(sharp_atlas) > sharpness(mean_img)

    elapsed = time.time() - start
    ok = fixed_ok and recovery_ok and robust_ok and sharp_ok and elapsed <= 600
    report(
        capsys, "criterion 7: atlas suite", ok, elapsed, 600,
        f"fixed point {nxt.delta_history[-1]:.1e} <= 1e-6, template MAE {mae:.4f} <= 0.03, "
        f"init agreement {rel:.3f} <= 0.05, sharper than mean: {sharp_ok}",
    )
    assert ok


def test_criterion_8_loss_unit_values(capsys):
    """Exact unit values for the loss functionals."""
    start = time.time()
    g = Grid(16, 16)

    def chain(steps):
        c = RootChain()
        for dr, dc in steps:
            c.roots.append(constant_field(g, dr, dc))
            c.residuals.append(0.0)
        return c

    checks = []
    # rec_loss: exact dyadic translation chain.
    phi8 = constant_field(g, 8.0, 0.0)
    tchain = chain([(4.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
    checks.append(rec_loss(tchain, phi8, tchain, phi8) <= 1e-12)
    # inv_loss: translation chain against identity -> 16 + 4 + 1.
    zchain = chain([(0.0, 0.0)] * 3)
    checks.append(inv_loss(tchain, zchain) == pytest.approx(21.0))
    # inv_loss: mutually inverse chains -> 0.
    nchain = chain([(-4.0, 0.0), (-2.0, 0.0), (-1.0, 0.0)])
    checks.append(inv_loss(tchain, nchain) == pytest.approx(0.0))
    # latent_inv_loss: anti-aligned zero; aligned 1 + 4|z|^2; zero pair 0.
    z = np.array([0.6, 0.8])
    checks.append(latent_inv_loss(z, -z) == pytest.approx(0.0))
    checks.append(latent_inv_loss(z, z) == pytest.approx(1.0 + 4.0))
    checks.append(latent_inv_loss(np.zeros(3), np.zeros(3)) == pytest.approx(0.0))
    # secondary_loss arithmetic.
    checks.append(secondary_loss(LossWeights(1, 1, 1), 1.0, 2.0, 3.0) == 6.0)
    checks.append(secondary_loss(LossWeights(), 0.0, 0.0, 0.0) == 0.0)
    # dice: 0.5 overlapping squares; identical 1.0; disjoint 0.0; empty 1.0.
    g5 = Grid(5, 5)

    def sq(r0, c0):
        arr = np.zeros((5, 5), dtype=np.int64)
        arr[r0 : r0 + 2, c0 : c0 + 2] = 1
        return LabelImage(g5, arr)

    checks.append(dice(sq(1, 1), sq(2, 1), 1) == pytest.approx(0.5))
    checks.append(dice(sq(1, 1), sq(1, 1), 1) == 1.0)
    checks.append(dice(sq(0, 0), sq(3, 3), 1) == 0.0)
    checks.append(dice(sq(0, 0), sq(0, 0), 9) == 1.0)
    elapsed = time.time() - start
    ok = all(checks)
    report(
        capsys, "criterion 8: loss unit values", ok, elapsed, 10,
        f"{sum(bool(c) for c in checks)}/{len(checks)} exact checks",
    )
    assert ok


def test_criterion_9_io_determinism(capsys, tmp_path):
    """Bit-exact round-trips and byte-identical CLI reruns."""
    start = time.time()
    checks = []

    # MFLD round-trip is bit-exact.
    _, phi = suite_field(0)
    p = tmp_path / "f.mfld"
    write_field(p, phi)
    checks.append(np.array_equal(read_field(p).u, phi.u))

    # PGM write/read/write is byte-identical.
    img = textured_image(1)
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    write_pgm(p1, img)
    write_pgm(p2, read_pgm(p1))
    checks.append(p1.read_bytes() == p2.read_bytes())

    # CLI reruns with fixed seeds are byte-identical across --threads values.
    outs = []
    for tag, threads in (("r1", 1), ("r2", 1), ("r3", 8)):
        d = tmp_path / tag
        rc = cli_main([
            "synth", "--kind", "four_label_phantom", "--seed", "13",
            "--subjects", "2", "--out-dir", str(d), "--threads", str(threads),
        ])
        checks.append(rc == 0)
        outs.append({q.name: q.read_bytes() for q in sorted(d.iterdir())})
    checks.append(outs[0] == outs[1] == outs[2])

    # Deterministic registration rerun through the CLI.
    regs = []
    for tag in ("ra", "rb"):
        out = tmp_path / f"{tag}.mfld"
        rc = cli_main([
            "register",
            "--a", str(tmp_path / "r1" / "image.pgm"),
            "--b", str(tmp_path / "r1" / "subject_000_image.pgm"),
            "--out-ab", str(out), "--iterations", "40",
        ])
        checks.append(rc == 0)
        regs.append(out.read_bytes())
    checks.append(regs[0] == regs[1])

    elapsed = time.time() - start
    ok = all(checks)
    report(
        capsys, "criterion 9: I/O determinism", ok, elapsed, 60,
        f"{sum(bool(c) for c in checks)}/{len(checks)} determinism checks",
    )
    assert ok
