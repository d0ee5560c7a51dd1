"""Self-test of the benchmark: tracer completeness, determinism and checks.

Run from the repository root (about a minute):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ellstab import curves, ring  # noqa: E402
from ellstab.poly import RootInterval  # noqa: E402

SEED = 3
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _code_key(fn):
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _profiled_counts(name: str) -> dict:
    """Calls of each traced function in pass 0, counted by cProfile with the
    benchmark's own checks left out, as the tracer leaves them out."""
    bench = workloads.build(name, SEED)
    prof = cProfile.Profile()

    @contextmanager
    def paused():
        prof.disable()
        try:
            yield
        finally:
            prof.enable()

    bench.paused = paused
    prof.enable()
    bench.run_pass(0)
    prof.disable()
    bench.close()
    stats = pstats.Stats(prof).stats
    counts = {}
    for t in tracing.TARGETS:
        module = sys.modules[f"ellstab.{t.module}"]
        keys = [_code_key(tracing._resolve(module, f)) for f in t.functions]
        counts[t.label] = sum(stats[k][1] for k in keys if k in stats)
    return counts


def _traced_pass(name: str):
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        bench = workloads.build(name, SEED)
        bench.tracer = tracer
        tracer.on = True
        bench.run_pass(0)
        tracer.on = False
        bench.close()
    finally:
        tracer.uninstall()
    return tracer, bench


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_match_cprofile_and_repeat(name):
    expected = _profiled_counts(name)
    first, bench = _traced_pass(name)
    second, _ = _traced_pass(name)
    assert first.calls == expected
    assert first.calls == second.calls
    counts = [
        {k: v for k, v in tracing.layer_metrics(t, 1).items() if not k.endswith(".self_pct")}
        for t in (first, second)
    ]
    assert counts[0] == counts[1]
    assert bench.rec.failed == 0, bench.rec.failures
    assert sum(first.calls.values()) > 0


def test_setup_tracing_counts_config_parsing():
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        workloads.build("curve-queries", SEED, tracer).close()
    finally:
        tracer.uninstall()
    assert tracer.calls["config.parse_config"] == len(workloads.CURVE_HS)
    assert sum(tracer.calls.values()) == len(workloads.CURVE_HS)


def test_install_patches_aliases_and_uninstall_restores():
    from ellstab import asymptotics, series

    before = (ring.mul, asymptotics.expand_u, series.LaurentSeries.__rmul__)
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert ring.mul is not before[0]
        assert asymptotics.expand_u is not before[1]
        assert series.LaurentSeries.__rmul__ is series.LaurentSeries.__mul__
        assert series.LaurentSeries.__rmul__ is not before[2]
    finally:
        tracer.uninstall()
    assert (ring.mul, asymptotics.expand_u, series.LaurentSeries.__rmul__) == before


def test_spans_nest_inside_their_parents():
    tracer, _ = _traced_pass("germ-verdicts")
    path = HERE / "out" / "test-spans.tsv"
    path.parent.mkdir(exist_ok=True)
    tracer.write_spans(path)
    header, spans = tracing.read_spans(path)
    path.unlink()
    assert header["spans"] == len(spans) == tracer.span_count
    by_id = {s[0]: s for s in spans}
    for sid, parent, name, start, end in spans:
        assert start <= end
        if parent == -1:
            assert name.startswith(tracing.OP_PREFIX)
            continue
        p = by_id[parent]
        assert p[3] <= start and end <= p[4]
    package_spans = sum(1 for s in spans if not s[2].startswith(tracing.OP_PREFIX))
    assert package_spans == sum(tracer.calls.values())


def test_span_counts_from_parent_links():
    tracer = tracing.Tracer("test")
    tracer.on = True

    def span(name, *children):
        tracer._enter(name)
        for child in children:
            child()
        tracer._exit(name, 0, 0)

    def leaf(name):
        return lambda: span(name)

    def node(name, *children):
        return lambda: span(name, *children)

    phases = leaf("asymptotics.compare_phases")
    count = leaf("poly.count_roots")
    span("op.compare", node("asymptotics.compare_vectors", phases, phases))
    span("op.compare", node("asymptotics.compare_vectors", phases))
    span("op.solve_u", node("curves.solve_u", node("poly.isolate_positive_roots", count, count), count))
    assert tracing._span_counts(tracer) == (2, 1)


def test_rounds_depend_on_the_arguments_alone():
    for name in workloads.WORKLOADS:
        assert workloads.rounds(name, 0.1) == 1
        assert workloads.rounds(name, 60) > workloads.rounds(name, 10) >= 1


def test_fresh_unit_empties_package_caches():
    bench = workloads.build("curve-queries", SEED)
    bench.close()
    c = curves.TiltCurve(-1, 1, 2)
    curves.expand_u(c, 8)
    ring.compute_m(ring.BaseGeometry(1, [[1]], [1], -1))
    bench.fresh_unit()
    for cache in (curves.constraint_poly, curves._expand_u_cached, ring.compute_m):
        assert cache.cache_info().currsize == 0


def _iv(lo, hi):
    return RootInterval(Fraction(lo), Fraction(hi))


def test_root_checks_accept_certified_and_reject_duplicates():
    coeffs = [Fraction(2), Fraction(-3), Fraction(1)]  # (u - 1)(u - 2)
    width = Fraction(1, 4)
    assert checks.roots_problem(coeffs, [_iv("3/4", 1), _iv("15/8", 2)], width) is None
    assert checks.roots_problem(coeffs, [_iv(1, 1), _iv(2, 2)], width) is None
    # the same root reported twice, once exactly and once bracketed
    assert "overlap" in checks.roots_problem(coeffs, [_iv("3/4", 1), _iv(1, 1), _iv(2, 2)], width)
    assert "brackets for 2" in checks.roots_problem(coeffs, [_iv(1, 1)], width)
    assert "wider" in checks.roots_problem(coeffs, [_iv("1/2", 1), _iv(2, 2)], width)
    assert "sign change" in checks.roots_problem(coeffs, [_iv("5/4", "3/2"), _iv(2, 2)], width)


@pytest.mark.parametrize(
    "roots, expected",
    [
        ((1, 2, -3), 2),
        ((-1, -2, -3), 0),
        ((1, 1, 2), 2),
        ((2, 2, 2), 1),
        ((Fraction(1, 3), Fraction(5, 2), 7), 3),
        ((0, 1, -1), 1),
    ],
)
def test_distinct_positive_roots_of_cubics(roots, expected):
    coeffs = [Fraction(1)]
    for r in roots:  # multiply by (u - r)
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    assert checks.distinct_positive_roots(coeffs) == expected
    assert checks.distinct_positive_roots([Fraction(1), Fraction(0), Fraction(1)]) == 0


def test_curve_values_match_the_package_polynomial():
    bench = workloads.build("curve-queries", SEED)
    bench.close()
    for item in bench.items[:20]:
        assert list(item.poly.c) == checks._trim(checks.curve_values(item.curve, item.vpar))


def _run(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout, check=False,
    )


def test_end_to_end_output():
    proc = _run(ROOT, "--workload", "ring-identities", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_output():
    proc = _run(ROOT, "--workload", "ring-identities", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_exits_nonzero_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = _run(bare, "--workload", "curve-queries", "--seed", "1", "--seconds", "1",
                    "--trace", "0", timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
