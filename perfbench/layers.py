"""Traced functions and the per-layer metrics derived from their spans.

A layer is a ``diffeo2d`` module. Span names are ``<module>.<function>``
after the module that defines the function; ``registration.gaussian_filter``
is scipy's filter as registration calls it. Layer metrics are per op of the
traced run. The ``synth.*`` metrics cover one generation of the input pool
instead, since input generation belongs to set-up.
"""

from __future__ import annotations

import os
from collections import Counter

from tracer import Target


def _sample_counts(c, args, kwargs, out):
    # sample_values(values, points): reads the points and four corner values
    # per output element, writes the output.
    points = args[1] if len(args) > 1 else kwargs["points"]
    c["points"] += points.size // 2
    c["bytes_computed"] += points.nbytes + 5 * out.nbytes


def _splat_counts(c, args, kwargs, out):
    points = args[0] if args else kwargs["points"]
    c["points"] += points.size // 2


def _solver_counts(c, args, kwargs, sol):
    c["iterations"] += sol.iterations


def _register_counts(c, args, kwargs, res):
    c["icon_max"] = max(c["icon_max"], res.final_inverse_consistency)


def _file_bytes(c, args, kwargs, out):
    c["bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _t(name, count=None):
    module, _, func = name.partition(".")
    return Target(name, f"diffeo2d.{module}", func, count)


TARGETS = [
    _t("fields.sample_values", _sample_counts),
    _t("fields.splat_values", _splat_counts),
    _t("fields.sample_values_grad"),
    _t("fields.compose"),
    _t("fields.warp_image"),
    _t("registration.frozen_loss_and_grad"),
    _t("registration.gaussian_filter"),
    _t("registration.register_pair", _register_counts),
    _t("registration.sim_loss"),
    _t("registration.icon_loss"),
    _t("lie.invert", _solver_counts),
    _t("lie.sqrt_field", _solver_counts),
    _t("lie.log_field"),
    _t("lie.exp_field"),
    _t("latent.fit_basis"),
    _t("latent.encode"),
    _t("latent.decode_root"),
    _t("atlas.atlas_step"),
    _t("fileio.write_field", _file_bytes),
    _t("fileio.read_field", _file_bytes),
    _t("synth.make_phantom"),
    _t("synth.random_log_field"),
    _t("synth.make_subject"),
]

# Per-op statistics of each layer, and their units.
LAYER_STATS = {
    "fields.sample_values": ("calls", "self_s", "points", "ns_per_point", "bytes_computed"),
    "fields.splat_values": ("calls", "self_s", "points"),
    "fields.sample_values_grad": ("calls", "self_s"),
    "fields.compose": ("calls", "total_s"),
    "fields.warp_image": ("calls", "total_s"),
    "registration.frozen_loss_and_grad": ("calls", "self_s"),
    "registration.gaussian_filter": ("calls", "self_s"),
    "registration.register_pair": ("calls", "total_s", "self_s"),
    "registration.sim_loss": ("calls", "total_s"),
    "registration.icon_loss": ("calls", "total_s"),
    "lie.invert": ("calls", "total_s", "iterations", "errors"),
    "lie.sqrt_field": ("calls", "total_s", "iterations", "errors"),
    "lie.log_field": ("calls", "total_s"),
    "lie.exp_field": ("calls", "total_s"),
    "latent.fit_basis": ("calls", "self_s", "errors"),
    "latent.encode": ("self_s",),
    "latent.decode_root": ("total_s",),
    "atlas.atlas_step": ("calls", "total_s", "self_s"),
    "fileio.write_field": ("calls", "self_s", "bytes"),
    "fileio.read_field": ("calls", "self_s", "bytes"),
}
STAT_UNITS = {
    "calls": "1/op",
    "self_s": "s/op",
    "total_s": "s/op",
    "points": "points/op",
    "ns_per_point": "ns/point",
    "bytes_computed": "B/op",
    "bytes": "B/op",
    "iterations": "1/op",
    "errors": "1/op",
}
# Input-generation time per function: metric -> span name.
SYNTH_SPANS = {
    "synth.make_phantom.total_s": "synth.make_phantom",
    "synth.random_log_field.total_s": "synth.random_log_field",
    "synth.make_subject.total_s": "synth.make_subject",
    "synth.exp_field.total_s": "lie.exp_field",
}

UNITS = {
    **{f"{layer}.{stat}": STAT_UNITS[stat] for layer, stats in LAYER_STATS.items() for stat in stats},
    "atlas.register_share": "ratio",
    **{metric: "s" for metric in SYNTH_SPANS},
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer, n_ops, overhead_frac):
    """Every per-layer metric, from a tracer whose ops are ints (or
    ``"final"`` for a stage after the loop) and whose input generation ran
    under op ``"input"``."""
    ops = tracer.summary(lambda op: op not in ("input", "check"))
    inputs = tracer.summary(lambda op: op == "input")
    values = {}
    for layer, stats in LAYER_STATS.items():
        agg = ops.get(layer, Counter())
        for stat in stats:
            if stat == "ns_per_point":
                value = 1e9 * agg["self_s"] / agg["points"] if agg["points"] else 0.0
            else:
                value = agg[stat] / n_ops
            values[f"{layer}.{stat}"] = value
    step_s = ops.get("atlas.atlas_step", Counter())["total_s"]
    register_s = ops.get("registration.register_pair", Counter())["total_s"]
    values["atlas.register_share"] = register_s / step_s if step_s else 0.0
    for metric, span in SYNTH_SPANS.items():
        values[metric] = float(inputs.get(span, Counter())["total_s"])
    values["trace.overhead_frac"] = overhead_frac
    return {name: (values[name], UNITS[name]) for name in UNITS}
