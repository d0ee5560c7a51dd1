"""Certified-output checks that do not depend on how a result was computed.

Root brackets are checked against the curve polynomial evaluated here from
the curve's defining formula, and root counts against closed forms, so a
legitimate change of algorithm (other bracket endpoints, another isolation
method) still passes while a wrong or duplicated root does not.
"""

from __future__ import annotations

from fractions import Fraction


def curve_values(c, vpar: Fraction) -> list[Fraction]:
    """Ascending coefficients in u of the curve polynomial at v = vpar.

    Tilt curve: alpha/6 (h^2 u^3 + 3 h u^2 v + 3 u v^2) - beta (h u + v) with
    alpha = a (h a + 2 b), beta = (h a + b)^2.  One-dimensional curve:
    (h u^2 + 2 u v) / 2 - (h + z / y).
    """
    h = c.h
    if hasattr(c, "a"):
        alpha = c.a * (h * c.a + 2 * c.b)
        beta = (h * c.a + c.b) ** 2
        return [
            -beta * vpar,
            alpha * vpar * vpar / 2 - beta * h,
            alpha * h * vpar / 2,
            alpha * h * h / 6,
        ]
    return [-(h + c.z / c.y), vpar, h / 2]


def evaluate(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def distinct_positive_roots(coeffs) -> int:
    """Number of distinct positive real roots of a polynomial of degree <= 3."""
    c = _trim(coeffs)
    deg = len(c) - 1
    if deg <= 0:
        return 0
    if deg == 1:
        return 1 if -c[0] / c[1] > 0 else 0
    if deg == 2:
        a, b, k = c[2], c[1], c[0]
        disc = b * b - 4 * a * k
        if disc < 0:
            return 0
        if disc == 0:
            return 1 if -b / (2 * a) > 0 else 0
        if k == 0:
            return 1 if -b / a > 0 else 0
        if k / a < 0:
            return 1
        return 2 if -b / a > 0 else 0
    if deg != 3:
        raise ValueError("closed-form root count covers degree <= 3")
    a, b, k, d = c[3], c[2], c[1], c[0]
    if d == 0:
        return distinct_positive_roots([k, b, a])
    disc = 18 * a * b * k * d - 4 * b**3 * d + b * b * k * k - 4 * a * k**3 - 27 * a * a * d * d
    if disc < 0:
        # one real root r; p(0) = -a r |q(r)| with q positive definite
        return 1 if (d > 0) != (a > 0) else 0
    if disc > 0:
        # all roots real and nonzero: Descartes' count is exact
        signs = [x > 0 for x in (a, b, k, d) if x != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    delta0 = b * b - 3 * a * k
    if delta0 == 0:
        return 1 if -b / (3 * a) > 0 else 0
    double = (9 * a * d - b * k) / (2 * delta0)
    simple = (4 * a * b * k - 9 * a * a * d - b**3) / (a * delta0)
    return (double > 0) + (simple > 0)


def bracket_problem(coeffs, lo: Fraction, hi: Fraction, width: Fraction) -> str | None:
    """Why [lo, hi] is not a certified positive-root bracket, or None."""
    if hi <= 0 or lo < 0:
        return f"bracket [{lo}, {hi}] is not positive"
    if lo > hi:
        return f"bracket [{lo}, {hi}] is reversed"
    if hi - lo > width:
        return f"bracket [{lo}, {hi}] is wider than {width}"
    plo, phi = evaluate(coeffs, lo), evaluate(coeffs, hi)
    if lo == hi:
        return None if plo == 0 else f"collapsed bracket {lo} is not a root"
    if plo == 0 or phi == 0 or (plo > 0) != (phi > 0):
        return None
    return f"no sign change on [{lo}, {hi}]"


def roots_problem(coeffs, roots, width: Fraction) -> str | None:
    """Why a list of brackets is not the certified positive roots of a
    polynomial: every bracket certified, pairwise disjoint, one per root."""
    for r in roots:
        problem = bracket_problem(coeffs, r.lo, r.hi, width)
        if problem:
            return problem
    ordered = sorted(roots, key=lambda r: (r.lo, r.hi))
    for r1, r2 in zip(ordered, ordered[1:]):
        shared_root = r1.hi == r2.lo and evaluate(coeffs, r1.hi) == 0
        if r1.hi > r2.lo or shared_root:
            return f"brackets [{r1.lo}, {r1.hi}] and [{r2.lo}, {r2.hi}] overlap"
    expected = distinct_positive_roots(coeffs)
    if len(roots) != expected:
        return f"{len(roots)} brackets for {expected} distinct positive roots"
    return None


def overlaps(r1, r2) -> bool:
    return max(r1.lo, r2.lo) <= min(r1.hi, r2.hi)
