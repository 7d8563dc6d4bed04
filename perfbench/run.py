#!/usr/bin/env python3
"""Run one diffeo2d benchmark workload and print its metrics.

    python3 perfbench/run.py --workload register64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` next
to this directory and from nowhere else. One process, one caller, a closed
loop: the next op starts when the previous one has returned and been
checked. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
first ops untraced and then traced, and prints the per-layer metrics. The
last line of standard output is one JSON object; the lines before it are a
readable report. Full results, and for a traced run its spans, go to
``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS/OpenMP pools are fixed before numpy loads. The library is
# single-threaded apart from BLAS calls in the basis fit, so one thread keeps
# the one-caller loop steady on a shared machine.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

clock = time.perf_counter


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be > 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("register64", "atlas8", "algebra256"))
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--seconds", type=seconds, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true",
        help="small grids and few iterations, for the benchmark's own tests",
    )
    return p.parse_args(argv)


def import_library():
    """Import diffeo2d from this checkout's src/ and the benchmark modules."""
    sys.path.insert(0, str(SRC))
    import diffeo2d

    if not Path(diffeo2d.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"diffeo2d was imported from {diffeo2d.__file__}, not from {SRC}")
    import layers
    import tracer
    import workloads

    return diffeo2d, workloads, tracer, layers


def environment(d2):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "diffeo2d": d2.__version__,
        "git": git_revision(),
        "blas_threads": BLAS_THREADS,
    }


def git_revision():
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Ops:
    """Timings, digests, quality values and failures of a sequence of ops."""

    def __init__(self):
        self.times: list[float] = []
        self.digests: list[str | None] = []
        self.quality: list[dict[str, float]] = []
        self.failures: list[str] = []
        self.outputs: list = []
        self.failed = 0

    @property
    def attempted(self):
        return len(self.times)


def run_op(wl, inp, k, ops, keep, tr=None):
    """Run op ``k`` and check it; record its time, digest, quality and
    failures, and keep its output for the final stage if ``keep``."""
    if tr is not None:
        tr.op = k
    t = clock()
    try:
        out = wl.op(inp)
    except Exception as err:  # a failing op is counted, not fatal
        out = None
        bad = [f"{type(err).__name__}: {err}"]
    ops.times.append(clock() - t)
    if tr is not None:
        tr.op = "check"
    if out is not None:
        q, bad = wl.check(inp, out)
        ops.quality.append(q)
        ops.digests.append(wl.digest(out))
        if keep:
            ops.outputs.append(out)
    else:
        ops.digests.append(None)
    if bad:
        ops.failed += 1
        ops.failures.extend(f"op {k}: {msg}" for msg in bad)


def run_ops(wl, pool, min_ops, seconds):
    """Closed loop with one caller. After ``min_ops`` ops, another op starts
    only while it is expected to end less than half an op past ``seconds``,
    so a run of long ops does not overshoot by a whole op. Outputs of the
    first ``min_ops`` ops are kept for the final stage."""
    ops = Ops()
    start = clock()
    k = 0
    while k < min_ops or clock() - start + statistics.median(ops.times) / 2 < seconds:
        run_op(wl, pool[k % len(pool)], k, ops, keep=k < min_ops)
        k += 1
    return ops


def run_final(wl, ops, tr=None):
    """The workload's stage after the loop, if it has one: (seconds, digest)."""
    if tr is not None:
        tr.op = "final"
    t = clock()
    try:
        result = wl.final(ops.outputs)
    except Exception as err:
        ops.failures.append(f"final: {type(err).__name__}: {err}")
        return clock() - t, None
    elapsed = clock() - t
    if result is None:
        return 0.0, None
    final_digest, bad = result
    ops.failures.extend(f"final: {msg}" for msg in bad)
    return elapsed, final_digest


def worst_quality(wl, ops, n):
    """Worst value of each quality metric over the first ``n`` ops."""
    worst = {}
    for q in ops.quality[:n]:
        for name, value in q.items():
            pick = max if wl.quality[name][1] == "max" else min
            worst[name] = pick(worst[name], value) if name in worst else value
    return worst


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    t0 = clock()
    try:
        d2, workloads, tracer, layers = import_library()
    except ImportError as err:
        print(f"perfbench: cannot import the library: {err}", file=sys.stderr)
        return 2
    import_s = clock() - t0

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl_cls = workloads.WORKLOADS[args.workload]
        kwargs = {"scratch_dir": scratch} if args.workload == "algebra256" else {}
        wl = wl_cls(smoke=args.smoke, **kwargs)

        # Set-up: inputs are generated several times (they must agree), then
        # one warm-up op fills caches and finishes lazy initialisation.
        gen_s, pool_digests = [], set()
        for _ in range(SETUP_REPEATS):
            t = clock()
            pool = wl.make_pool(args.seed)
            gen_s.append(clock() - t)
            pool_digests.add(workloads.pool_digest(pool))
        problems = [] if len(pool_digests) == 1 else ["input generation is not deterministic"]
        t = clock()
        try:
            wl.op(wl.warmup_input(pool))
        except Exception as err:
            problems.append(f"warm-up: {type(err).__name__}: {err}")
        warmup_s = clock() - t
        setup_s = import_s + statistics.median(gen_s) + warmup_s

        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "env": environment(d2),
            "setup": {"import_s": import_s, "generate_s": gen_s, "warmup_s": warmup_s},
        }
        if args.trace == 0:
            ops = run_ops(wl, pool, wl.quality_ops, args.seconds)
            final_s, final_digest = run_final(wl, ops)
            passed = ops.attempted - ops.failed
            metrics = {
                "setup_s": setup_s,
                "op_s_p50": statistics.median(ops.times),
                "ops_per_s": passed / (sum(ops.times) + final_s),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END_UNITS
            counts = {
                "setup_s": SETUP_REPEATS,
                "op_s_p50": ops.attempted,
                "ops_per_s": ops.attempted,
                "peak_rss_mb": 1,
            }
            runs = [ops]
        else:
            n = wl.trace_ops
            tr = tracer.Tracer(layers.TARGETS)
            with tr:
                tr.op = "input"
                traced_pool = wl.make_pool(args.seed)
            # Untraced and traced ops alternate, so a drift in machine speed
            # moves both sides of the overhead ratio alike.
            ref, ops = Ops(), Ops()
            for k in range(n):
                run_op(wl, pool[k % len(pool)], k, ref, keep=True)
                with tr:
                    run_op(wl, traced_pool[k % len(pool)], k, ops, keep=True, tr=tr)
            _, ref_final = run_final(wl, ref)
            with tr:
                _, final_digest = run_final(wl, ops, tr)
            if workloads.pool_digest(traced_pool) not in pool_digests:
                problems.append("traced input generation differs from the untraced one")
            if ref.digests != ops.digests or ref_final != final_digest:
                problems.append("traced outputs differ from untraced outputs")
            overhead = statistics.median(ops.times) / statistics.median(ref.times) - 1.0
            per_layer = layers.layer_metrics(tr, n, overhead)
            metrics = {name: value for name, (value, _) in per_layer.items()}
            units = {name: unit for name, (_, unit) in per_layer.items()}
            counts = {name: n for name in metrics}
            icon = tr.summary(lambda op: isinstance(op, int))["registration.register_pair"]["icon_max"]
            runs = [ref, ops]
            tr.write_spans(OUT / f"{tag}-spans.jsonl")
            result["untraced_op_s"] = ref.times

    if tracer.wrapped_bindings():
        problems.append(f"tracer wrappers left in place: {tracer.wrapped_bindings()}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    quality = worst_quality(wl, ops, wl.quality_ops)
    q_units = {name: unit for name, (unit, _) in wl.quality.items()}
    if args.trace == 1 and args.workload == "atlas8":
        # atlas_step does not return its registrations; the traced run reads
        # their inverse consistency from the register_pair spans.
        quality["icon_px"] = icon
        if icon > workloads.ICON_MAX_PX:
            problems.append(f"atlas registration icon {icon:.3f} > {workloads.ICON_MAX_PX}")
    failures = problems + [f for r in runs for f in r.failures]
    correct = not failures
    result.update(
        metrics={name: {"value": metrics[name], "unit": units[name], "n": counts[name]} for name in metrics},
        quality={name: {"value": value, "unit": q_units[name]} for name, value in quality.items()},
        failed_frac=failed / attempted,
        attempted=attempted,
        failed=failed,
        correct=correct,
        failures=failures,
        op_s=ops.times,
        digests=ops.digests,
        final_digest=final_digest,
    )
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1))

    env = result["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          + (" smoke" if args.smoke else ""))
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in metrics:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]} (n={counts[name]})")
    print(f"metric failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, value in quality.items():
        print(f"quality {name} = {value:.6g} {q_units[name]} (worst of first {min(wl.quality_ops, ops.attempted)} ops)")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
