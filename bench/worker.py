"""One workload in one fresh process; started by ``run.py``, not by hand.

The BLAS thread pin is set in the environment before numpy is first
imported, by ``run.py`` and again here. Set-up time runs from just before
``import opconvex`` (which imports numpy) to the end of the warm-up op.
With ``--setup-only`` the process stops there; otherwise it runs the
closed loop for ``--seconds`` and prints one JSON object of measurements
as the last line of its standard output.

With ``--trace 1`` ops alternate in pairs: ops 4k and 4k + 1 run traced,
ops 4k + 2 and 4k + 3 untraced with every wrapper removed, so
``trace.overhead`` compares the two under the same conditions (the eval
workload alternates its functional op by op), and the per-layer figures
come from the traced ops.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

# Tracebacks printed per run before further failures are only counted.
MAX_TRACEBACKS = 3


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt-op", type=int, default=-1)
    p.add_argument("--spans-out")
    return p.parse_args(argv)


def _import_opconvex():
    sys.path.insert(0, str(ROOT / "src"))
    import opconvex
    where = Path(opconvex.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"opconvex imported from {where}, not from "
                          f"{ROOT / 'src'}")
    return opconvex


class Loop:
    """Attempted and failed op counts, with the failures reported on stderr."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mib = 0.0  # read after the last op, before its check

    def run(self, index, inputs, corrupt=False, tracer=None):
        """Issue one op and check it; returns (seconds, output or None).

        The output is None when the op raised or failed its check.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.install()
            tracer.begin_op(index)
        try:
            start = time.perf_counter()
            try:
                output = self.workload.op(inputs)
            finally:
                elapsed = time.perf_counter() - start
                self.peak_rss_mib = _peak_rss_mib()
                if tracer is not None:
                    tracer.end_op()
                    tracer.uninstall()
            self.workload.check(inputs, output, corrupt)
        except Exception:
            self._fail(index)
            return elapsed, None
        return elapsed, output

    def _fail(self, index):
        self.failed += 1
        if self.failed <= MAX_TRACEBACKS:
            print(f"op {index} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


class ReferenceKernel:
    """A fixed computation, independent of opconvex, timed after every op.

    Other tenants of a shared host change how fast this process runs, by up
    to 2x over seconds to minutes. Op time divided by the time of this
    kernel, run right after the op, cancels most of that, so
    ``op_time_rel`` stays steady where raw milliseconds do not. The kernel
    mixes the kinds of work the workloads do: interpreted Python, many
    small numpy calls, BLAS, the pure-Python indented JSON encoder, the C
    JSON decoder, and streaming through a 16 MiB array, which tracks
    contention for the shared cache and memory bandwidth. It is the unit
    of ``op_time_rel``: changing it changes every reading of that metric.
    It is built after the warm-up op, so its array is not in the peak RSS
    the set-up reports.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.small = np.eye(3) + 0.1
        self.big = rng.standard_normal((128, 128)) + 1j * rng.standard_normal(
            (128, 128))
        self.nested = [[[float(i), float(j)] for j in range(28)]
                       for i in range(28)]
        self.text = json.dumps([[[float(i), float(j)] for j in range(40)]
                                for i in range(40)])
        self.block = np.ones(1 << 20, dtype=np.complex128)  # 16 MiB

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        counts = {}
        for i in range(20000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(250):
            self.np.linalg.eigh(self.small)
        for _ in range(6):
            self.big @ self.big
        json.dumps(self.nested, indent=2)
        for _ in range(4):
            json.loads(self.text)
        for _ in range(4):
            self.block.sum()
        return time.perf_counter() - start


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def _layer_metrics(tracer, traced, untraced, tags) -> dict:
    """Per-layer figures; *_ms is mean self time per traced op."""
    ops = max(tracer.ops, 1)
    calls = tracer.calls

    def ms(group):
        return 1e3 * tracer.self_s[group] / ops

    lapack_calls = sum(calls[f"linalg.{name}"]
                       for name in ("eigh", "eigvalsh", "qr"))
    trials = calls["verify.run_trial"]
    out = {
        "verify.trial_seed.calls_per_op": calls["verify.trial_seed"] / ops,
        "verify.generate.self_ms": ms("verify.generate"),
        "verify.check.self_ms": ms("verify.check"),
        "verify.campaign.self_ms": ms("verify.campaign"),
        "verify.trial.self_ms": ms("verify.trial"),
        "verify.draws_per_trial":
            calls["verify.run_single"] / trials if trials else 0.0,
        "linalg.hermitian_ctor.calls_per_op":
            calls["linalg.HermitianMatrix.__init__"] / ops,
        "linalg.hermitian_ctor.self_ms": ms("linalg.hermitian_ctor"),
        "linalg.calculus.self_ms": ms("linalg.calculus"),
        "linalg.loewner.self_ms": ms("linalg.loewner"),
        "linalg.json_encode.self_ms": ms("linalg.json_encode"),
        "linalg.json_encode.entries_per_op":
            tracer.tallies["json_entries"] / ops,
        "linalg.json_decode.self_ms": ms("linalg.json_decode"),
        "linalg.lapack.calls_per_op": lapack_calls / ops,
        "linalg.lapack.self_ms": ms("linalg.lapack"),
        "linalg.lapack.n3_per_op": tracer.tallies["lapack_n3"] / ops,
        "atoms.clamp.calls_per_op": calls["atoms.Interval.clamp"] / ops,
        "atoms.self_ms": ms("atoms"),
        "commuting.pair_ctor.calls_per_op":
            calls["commuting.CommutingPair.__init__"] / ops,
        "commuting.realize.self_ms": ms("commuting.realize"),
        "commuting.max_pair_dim": float(tracer.max_pair_dim),
        "perspective.self_ms": ms("perspective"),
        "functionals.self_ms": ms("functionals"),
        "cli.self_ms": ms("cli"),
        "unattributed.self_ms": ms("unattributed"),
        "trace.op_ms": 1e3 * statistics.median(traced),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced),
    }
    for tag in tags:
        n = tracer.trial_calls[tag]
        out[f"verify.trial_ms.{tag}"] = 1e3 * tracer.trial_s[tag] / n if n else 0.0
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(PINNED_THREADS)
    workdir = ROOT / ".bench_work" / f"tmp-{os.getpid()}"

    t0 = time.perf_counter()
    opconvex = _import_opconvex()
    import workloads
    wl = workloads.make(args.workload, args.seed, workdir, args.tiny)
    try:
        wl.setup()
        warm = wl.prepare(0)
        loop = Loop(wl)
        before = time.perf_counter()
        elapsed, warm_out = loop.run(0, warm)
        setup_s = before - t0 + elapsed
        setup = {"setup_s": setup_s, "peak_rss_mib": loop.peak_rss_mib,
                 "attempted": loop.attempted, "failed": loop.failed}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        times, traced = [], []  # op seconds, untraced and traced
        kernel = ReferenceKernel()
        ref_times = []  # kernel seconds right after each untraced op
        ok_ops = 0  # untraced ops that passed their check
        index = 1
        deadline = time.perf_counter() + args.seconds
        # at least one op, and in a traced run one traced and one untraced
        while index <= 1 + 2 * bool(tracer) or time.perf_counter() < deadline:
            inputs = wl.prepare(index)
            on = tracer is not None and (index // 2) % 2 == 0
            elapsed, output = loop.run(index, inputs,
                                       corrupt=index == args.corrupt_op,
                                       tracer=tracer if on else None)
            if on:
                traced.append(elapsed)
            else:
                times.append(elapsed)
                ref_times.append(kernel())
                ok_ops += output is not None
            index += 1
        # The warm-up op again: same inputs, so the same bytes out.
        _, again = loop.run(0, warm)
        if (again is not None and warm_out is not None
                and _digest(again) != _digest(warm_out)):
            loop.failed += 1
            print("warm-up op re-run gave a different output", file=sys.stderr)

        import numpy as np
        result = {
            **setup,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "ok_ops": ok_ops,
            "op_seconds": times,
            "ref_seconds": ref_times,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
            "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        }
        if tracer is not None:
            result["layers"] = _layer_metrics(tracer, traced, times,
                                              opconvex.THEOREM_TAGS)
            if args.spans_out:
                tracer.write_spans(args.spans_out)
        print(json.dumps(result))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
