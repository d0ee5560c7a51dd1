"""ellstab benchmark: one seeded workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload ring-identities --seed 1 --seconds 26 --trace 0

``--trace 0`` runs the workload's passes in round(--seconds / nominal round
time) rounds, about ``--seconds`` seconds at the machine's usual speed, with
no instrumentation, and prints the end-to-end metrics.  ``--trace 1`` runs
the workload's passes once, each once plain and once traced, and prints the
per-layer metrics and the tracing overhead; its call counts repeat exactly
for a seed.  Every line before the last is for people; the last line is one
JSON object.

The package is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("ring-identities", "germ-verdicts", "curve-queries")
SETUP_PROBES = 7


def _clock_ns() -> int:
    # CLOCK_MONOTONIC is shared by every process on the machine, so a child
    # can report a time the parent compares with its own.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package() -> bool:
    """Put ``src/`` first on the path; False if the package is not there."""
    if not (SRC / "ellstab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ellstab'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import ellstab

    if Path(ellstab.__file__).resolve().parent != (SRC / "ellstab").resolve():
        print(f"error: imported ellstab from {ellstab.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


# -- set-up time ------------------------------------------------------------


def setup_probe(args) -> int:
    """Child side: import, generate and parse the inputs, report the time."""
    if not import_package():
        return 2
    import workloads

    bench = workloads.build(args.workload, args.seed)
    bench.close()
    ready = _clock_ns()
    reference = statistics.median(speed.reference_seconds() for _ in range(5))
    print(ready, reference, flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Seconds from interpreter start to ready-for-the-first-operation, in
    fresh interpreters run one after another: (as measured, normalised by
    the speed reference the interpreter timed once ready)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = _clock_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, reference = proc.stdout.split()[-2:]
        seconds = (int(ready) - start) / 1e9
        times.append((seconds, seconds * speed.REFERENCE_SECONDS / float(reference)))
    return times


# -- statistics -------------------------------------------------------------


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, min(n, -(-int(round(p * n * 1000)) // 100_000)))
    return sorted_values[rank - 1]


# -- run context ------------------------------------------------------------


def _load1() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ellstab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_context() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_sha256_16": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "load1_start": _load1(),
    }


# -- the two kinds of run ---------------------------------------------------


def end_to_end(args, out) -> dict:
    import workloads

    setup_times = measure_setup(args.workload, args.seed)
    bench = workloads.build(args.workload, args.seed)
    rec = bench.rec
    # The workload's passes run in turn, in a number of rounds fixed by the
    # workload and --seconds alone, so that every commit gets the same number
    # of samples.  The speed reference is timed before and after every pass,
    # and the pass's latencies are scaled to the reference speed (see
    # speed.py).  Each operation's latency is the median of its scaled
    # samples over the rounds: a minimum would pick the passes whose scale
    # came out too small.
    n_passes = workloads.PASSES[args.workload]
    rounds = workloads.rounds(args.workload, args.seconds)
    scaled: list[list[float]] = []  # per round, per operation
    raw: list[list[float]] = []  # the same, as measured
    scales: list[float] = []
    start = time.perf_counter()
    for _ in range(rounds):
        first = rec.attempted
        scaled.append([])
        before = speed.reference_seconds()
        for k in range(n_passes):
            op0 = rec.attempted
            bench.run_pass(k)
            after = speed.reference_seconds()
            scales.append(2 * speed.REFERENCE_SECONDS / (before + after))
            scaled[-1] += [x * scales[-1] for x in rec.latencies[op0:]]
            before = after
        raw.append(rec.latencies[first:])
        if len(raw[-1]) != len(raw[0]):
            raise RuntimeError("a repeated round did different work")
    elapsed = time.perf_counter() - start
    bench.close()
    per_op = [statistics.median(samples) for samples in zip(*scaled)]
    per_op_raw = [statistics.median(samples) for samples in zip(*raw)]

    n = len(per_op)
    lat = sorted(per_op)
    p_tail = workloads.TAIL_PERCENTILE[args.workload]
    beyond = sum(1 for x in lat if x > percentile(lat, p_tail))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_sorted = sorted(per_op_raw)
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup_times), "s"),
        # the benchmark's own output checks run between operations, outside
        # every latency, so they are not part of this rate
        "ops_per_s": (n / sum(per_op), "1/s"),
        "op_p50_ms": (1e3 * percentile(lat, 50), "ms"),
        "op_tail_ms": (1e3 * percentile(lat, p_tail), "ms"),
        "passed_ops_share": (1 - rec.failed / rec.attempted, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    out(f"closed loop, 1 caller: {n_passes} passes, {n} operations, {rounds} rounds "
        f"in {elapsed:.3f} s including output checks")
    out(f"machine speed: passes scaled by {min(scales):.3f} to {max(scales):.3f} "
        f"(reference kernel {speed.REFERENCE_SECONDS * 1e3:g} ms)")
    out(f"as measured, unscaled: ops_per_s {n / sum(per_op_raw):.6g}, "
        f"op_p50_ms {1e3 * percentile(raw_sorted, 50):.6g}, "
        f"op_tail_ms {1e3 * percentile(raw_sorted, p_tail):.6g}, "
        f"setup_s {statistics.median(t for t, _ in setup_times):.6g}")
    out("setup_s probes (measured/scaled): "
        + " ".join(f"{t:.4f}/{u:.4f}" for t, u in setup_times))
    out(f"op_tail_ms is p{p_tail}: {beyond} of {n} samples beyond it")
    by_kind: dict[str, list] = {}
    for kind, x in zip(rec.kinds, per_op):
        by_kind.setdefault(kind, []).append(x)
    for kind, xs in by_kind.items():
        xs.sort()
        out(f"  {kind}: {len(xs)} operations, p50 {1e3 * percentile(xs, 50):.3f} ms, "
            f"max {1e3 * xs[-1]:.3f} ms")
    out(f"failed_ops_share {rec.failed / rec.attempted:.6g} ({rec.failed} of {rec.attempted} "
        f"operations failed, {rec.failed - rec.wrong} of them by raising)")
    for problem in rec.failures:
        out(f"failure: {problem}")
    return {"attempted": rec.attempted, "failed": rec.failed, "wrong": rec.wrong, "metrics": metrics}


def traced(args, out) -> dict:
    import tracer as tracing
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = tracing.Tracer(run_id)
    tracer.install()
    bench = workloads.build(args.workload, args.seed, tracer)
    tracer.uninstall()
    n_passes = workloads.PASSES[args.workload]

    # Each pass runs plain, then traced; the two kinds alternate so that
    # drift in machine speed falls on both alike.
    plain_ns = traced_ns = plain_ops = 0
    traced_rec = workloads.Recorder()
    for k in range(n_passes):
        bench.rec = workloads.Recorder()
        start = time.perf_counter_ns()
        bench.run_pass(k)
        plain_ns += time.perf_counter_ns() - start
        plain_ops += bench.rec.attempted
        bench.rec = traced_rec
        tracer.install()
        tracer.on = True
        start = time.perf_counter_ns()
        bench.run_pass(k)
        traced_ns += time.perf_counter_ns() - start
        tracer.on = False
        tracer.uninstall()
    bench.close()
    rec = traced_rec
    if rec.attempted != plain_ops:
        raise RuntimeError("the traced passes did different work from the plain ones")

    metrics = tracing.layer_metrics(tracer, traced_ns)
    plain_rate = plain_ops / (plain_ns / 1e9)
    traced_rate = rec.attempted / (traced_ns / 1e9)
    metrics["trace.ops_per_s_plain"] = (plain_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100 * (1 - traced_rate / plain_rate), "%")
    metrics["trace.traced_s"] = (traced_ns / 1e9, "s")
    metrics["trace.spans"] = (tracer.span_count, "count")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(span_file)
    out(f"fixed run: {n_passes} passes, {rec.attempted} operations, once plain and once traced")
    out(f"tracing overhead: {metrics['trace.overhead_pct'][0]:.1f}% of ops_per_s "
        f"({plain_rate:.1f} plain, {traced_rate:.1f} traced)")
    out(f"{tracer.span_count} spans written to {span_file.relative_to(ROOT)}")
    return {"attempted": rec.attempted, "failed": rec.failed, "wrong": rec.wrong, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe(args)
    if not import_package():
        return 2
    context = run_context()

    def out(line: str) -> None:
        print(f"# {line}", flush=True)

    out(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    result = traced(args, out) if args.trace else end_to_end(args, out)
    context["load1_end"] = _load1()
    out("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
