"""Benchmark of opconvex: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload verify-small --seed 1 --seconds 20 --trace 0

The workloads, metrics, units and bounds are listed in ``BENCHMARK.json``
at the repository root; ``bench/METRICS.md`` says which end-to-end metric
each per-layer metric should move, on which workload, and records the
baseline. The library is imported from ``src/`` of this checkout; the run
fails without printing a result when it is not there.

Each run starts fresh worker processes (``bench/worker.py``) with BLAS
pinned to one thread. With ``--trace 0`` it sets the workload up
``SETUPS`` times, each in its own process, and reports the median as
``setup_s``; the middle one of those processes goes on to run the closed
loop for ``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` one
process runs the loop with every other op traced and reports the
per-layer metrics.

Metadata (source revision, Python, numpy, BLAS, thread pin, CPU count,
source line count) go to ``.bench_work/results/`` with each result; the
spans of the first traced ops go there too.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PINNED_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "opconvex"
RESULTS = ROOT / ".bench_work" / "results"

# Set-ups per untraced run, each in a fresh process; setup_s is the median.
SETUPS = 5

# A whole run must end within 180 s; the worker is stopped at this mark.
RUN_LIMIT_S = 170.0

# Tail percentiles tried, highest first; the first with at least ten
# samples beyond it is printed next to the median, as information only.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


class RunFailed(Exception):
    """A worker process exited abnormally or printed no result."""


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's self-tests")
    p.add_argument("--corrupt-op", type=int, default=-1,
                   help="check this op against a wrong reference "
                        "(self-tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _run_worker(args, deadline: float, extra=()) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *(["--tiny"] if args.tiny else []), *extra]
    env = dict(os.environ, **PINNED_THREADS)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the run's time limit: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with code {proc.returncode}: {cmd}")
    return json.loads(lines[-1])


def _interquartile_mean(values: list) -> float:
    """Mean of the middle half of the values.

    Unlike the median it does not jump between clusters when ops come in
    two sizes, as the eval workload's alternating functionals do.
    """
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def _quantile(times: list, p: float) -> float:
    """The p-th percentile, interpolated between samples."""
    if len(times) < 2:
        return times[0]
    cuts = statistics.quantiles(times, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def _tail(times: list) -> str:
    n = len(times)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g} {1e3 * _quantile(times, p):.6g} ms"
    return "no percentile above p50 has 10 samples beyond it"


def _git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(worker: dict) -> dict:
    files = sorted(SOURCE.glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc += data.count(b"\n")
    blas = worker["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "source_loc": loc,
        "python": worker["python"],
        "numpy": worker["numpy"],
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_pin": worker["threads"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no opconvex sources at {SOURCE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # Half the extra set-ups run before the timed loop and half after,
        # so that setup_s samples the host over the whole run.
        extra_setups = 0 if args.trace else SETUPS - 1
        setups = [_run_worker(args, deadline, ["--setup-only"])
                  for _ in range(extra_setups // 2)]
        extra = ["--corrupt-op", str(args.corrupt_op)]
        if args.trace:
            extra += ["--spans-out", str(RESULTS / f"{stem}.spans.jsonl")]
        main_run = _run_worker(args, deadline, extra)
        setups += [_run_worker(args, deadline, ["--setup-only"])
                   for _ in range(extra_setups - extra_setups // 2)]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = main_run["attempted"] + sum(s["attempted"] for s in setups)
    failed = main_run["failed"] + sum(s["failed"] for s in setups)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}: closed loop, 1 client")
    if args.trace:
        metrics = main_run["layers"]
        wanted = spec["per_layer"]
    else:
        times = main_run["op_seconds"]
        setup_times = [s["setup_s"] for s in setups] + [main_run["setup_s"]]
        metrics = {
            "op_time_rel": _interquartile_mean(
                [t / r for t, r in zip(times, main_run["ref_seconds"])]),
            "peak_rss_mib": statistics.median(
                s["peak_rss_mib"] for s in setups + [main_run]),
            "setup_s": statistics.median(setup_times),
        }
        wanted = spec["end_to_end"]
        print(f"set-ups: {len(setup_times)}, each in a fresh process; "
              f"op samples: {len(times)}")
        print(f"information: op_p50_ms {1e3 * statistics.median(times):.6g} ms"
              f", op_p10_ms {1e3 * _quantile(times, 10):.6g} ms, "
              f"{_tail(times)}, ops_per_s "
              f"{main_run['ok_ops'] / sum(times):.6g} 1/s, reference kernel "
              f"p50 {1e3 * statistics.median(main_run['ref_seconds']):.6g} ms")
    print(f"failed_op_share {failed / attempted:.6g} share "
          f"({failed} of {attempted} ops)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    meta = _metadata(main_run)
    print("meta " + json.dumps(meta, sort_keys=True))
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "meta": meta,
         **result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
