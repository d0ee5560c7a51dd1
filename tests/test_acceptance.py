"""Acceptance gate: every exit criterion at its stated size and tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output); the assertions carry the same conditions.  Comparator
verdicts from criteria 6, 7 and 9 are reused by the truncation-stability
criterion 10, which reruns those suites at doubled series order.
"""

import random
from fractions import Fraction

import pytest

from ellstab import suites
from ellstab.curves import OneDimCurve, TiltCurve, expand_u, solve_u
from ellstab.suites import _rand_tilt

_verdicts_by_order: dict = {}


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name}{suffix}"


def test_criterion_01_involution():
    report = suites.suite_involution(10000, seed=101)
    _report(1, "involution", report.passed, f"{report.cases} checks, zero tolerance")


def test_criterion_02_swap_rule():
    report = suites.suite_swap(10000, seed=102)
    _report(2, "swap rule", report.passed, f"{report.cases} checks, zero tolerance")


def test_criterion_03_chow_identity():
    report = suites.suite_chow(100, seed=103)
    _report(3, "cycle identity vs curve", report.passed, f"{report.cases} checks")


def test_criterion_04_im_identity():
    report = suites.suite_im_identity(1000, seed=104)
    _report(4, "imaginary-part identity", report.passed, f"{report.cases} checks, exact")


def test_criterion_05_curve_expansion():
    ok = True
    detail = []
    rng = random.Random(105)
    # leading coefficients against the closed forms
    for h in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2)):
        for _ in range(10):
            c = _rand_tilt(rng, h)
            u1 = 2 * (h * c.a + c.b) ** 2 / (c.a * (h * c.a + 2 * c.b))
            ok &= expand_u(c, 8).coefficient(-1) == u1
    for _ in range(10):
        y, z = Fraction(rng.randint(1, 6)), Fraction(rng.randint(1, 6))
        c = OneDimCurve(0, y, z)
        series = expand_u(c, 8)
        ok &= series.terms == ((-1, z / y),) and series.is_exact()
        c2 = OneDimCurve(Fraction(1, 2), y, z)
        ok &= expand_u(c2, 8).coefficient(-1) == Fraction(1, 2) + z / y
    # h = 0 specializations are exact relations
    ct = TiltCurve(0, 2, 3)
    ok &= expand_u(ct, 8).terms == ((-1, Fraction(3, 2)),)
    root = solve_u(ct, 10, Fraction(1, 2**30))
    ok &= root.exact and root.lo * 10 == Fraction(3, 2)
    # solver tracks the leading coefficient at large v
    for h in (Fraction(-1), Fraction(1, 2)):
        c = _rand_tilt(rng, h)
        u1 = c.leading_coefficient
        root = solve_u(c, Fraction(10**6), Fraction(1, 2**64))
        rel = abs((root.lo + root.hi) / 2 * 10**6 - u1) / u1
        ok &= rel <= Fraction(1, 10**5)
        detail.append(f"h={h} rel={float(rel):.2e}")
    _report(5, "curve expansion", ok, "; ".join(detail))


def test_criterion_06_threshold():
    report = suites.suite_threshold(1000, seed=106, order=8)
    _verdicts_by_order[("threshold", 8)] = report.verdicts
    _report(6, "threshold equivalence", report.passed, f"{report.cases} cases")


def test_criterion_07_correspondence():
    report = suites.suite_correspondence(1000, seed=107, order=8)
    _verdicts_by_order[("correspondence", 8)] = report.verdicts
    _report(7, "slope-phase correspondence", report.passed, f"{report.cases} cases")


def test_criterion_08_phase_tables():
    report = suites.suite_phases(order=8)
    _report(8, "phase tables", report.passed, f"{report.cases} tabulated cases")


def test_criterion_09_h0_independence():
    report = suites.suite_h0(500, seed=109, order=8)
    _verdicts_by_order[("h0", 8)] = report.verdicts
    _report(9, "h = 0 independence", report.passed, f"{report.cases} pairs at v in 2..10^4")


def test_criterion_10_truncation_stability():
    flips = []
    for name, runner, seed in (
        ("threshold", suites.suite_threshold, 106),
        ("correspondence", suites.suite_correspondence, 107),
        ("h0", suites.suite_h0, 109),
    ):
        base = _verdicts_by_order.get((name, 8))
        if base is None:
            base = runner(
                1000 if name != "h0" else 500, seed=seed, order=8
            ).verdicts
        redo = runner(1000 if name != "h0" else 500, seed=seed, order=16).verdicts
        for k, (v8, v16) in enumerate(zip(base, redo)):
            if v8 != v16:
                flips.append(f"{name}[{k}]: {v8} -> {v16}")
    _report(10, "truncation stability", not flips, f"flips: {len(flips)}")
