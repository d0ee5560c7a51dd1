"""Seed-driven randomized property suites.

Each suite draws its cases from a deterministic generator, runs an exact
check per case, and reports the first counterexample on failure.  The
suites back both the command-line ``verify`` command and the acceptance
tests; comparator suites record their verdicts so reruns at a higher
series order can be diffed against the original run.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import curves, fmt, verify
from .asymptotics import ChargeKind, Side, charge_series, compare_phases, phase_limit
from .curves import OneDimCurve, TiltCurve, solve_u
from .charges import ChargeValue, _flat_full_parts, in_full_half_plane
from .errors import DomainError
from .ring import BaseGeometry, ChernVector, DivisorB, DivisorX, pair_h, twist


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, label: str) -> None:
        self.cases += 1
        if not ok and len(self.failures) < 8:
            self.failures.append(label)


def geometry_for(h, rank2: bool = False) -> BaseGeometry:
    """One shared geometry per (h, rank2), so its transform matrices are reused."""
    return _geometry(Fraction(h), bool(rank2))


@lru_cache(maxsize=None)
def _geometry(h: Fraction, rank2: bool) -> BaseGeometry:
    m0 = 1 if h + 2 > 0 else -h
    if rank2:
        return BaseGeometry(2, [[2, 1], [1, 3]], [1, 0], h, 0, m0)
    return BaseGeometry(1, [[1]], [1], h, 0, m0)


def _rand_q(rng: random.Random, lo: int = -9, hi: int = 9, den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _rand_divisor(rng: random.Random, rank: int, lo: int = -9, hi: int = 9) -> DivisorB:
    return DivisorB([_rand_q(rng, lo, hi) for _ in range(rank)])


def _rand_vector(rng: random.Random, rank: int) -> ChernVector:
    return ChernVector(
        _rand_q(rng),
        _rand_q(rng),
        _rand_divisor(rng, rank),
        _rand_divisor(rng, rank),
        _rand_q(rng),
        _rand_q(rng),
    )


H_SET_INVOLUTION = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2))


def suite_involution(cases: int = 10000, seed: int = 0) -> SuiteReport:
    """Transform then inverse transform negates every vector, exactly."""
    rng = random.Random(seed)
    report = SuiteReport("involution")
    geoms = [geometry_for(h, rank2=(i % 2 == 1)) for i, h in enumerate(H_SET_INVOLUTION)]
    for i in range(cases):
        for g in geoms:
            v = _rand_vector(rng, g.rank)
            ok = fmt.phi_hat(g, fmt.phi(g, v)) == -v and fmt.phi(g, fmt.phi_hat(g, v)) == -v
            report.check(ok, f"case {i} h={g.h} v={v}")
    return report


def suite_swap(cases: int = 10000, seed: int = 1) -> SuiteReport:
    """Twisted swap rule equals transform-then-twist on fiber-trivial classes."""
    rng = random.Random(seed)
    report = SuiteReport("swap")
    geoms = [geometry_for(h, rank2=(i % 2 == 1)) for i, h in enumerate(H_SET_INVOLUTION)]
    for i in range(cases):
        g = geoms[i % len(geoms)]
        z = DivisorB.zero(g.rank)
        v = ChernVector(0, 0, _rand_divisor(rng, g.rank), _rand_divisor(rng, g.rank), _rand_q(rng), _rand_q(rng))
        d = _rand_divisor(rng, g.rank)
        dbar = d - g.hb_divisor.scale(g.h / 2)
        lhs = fmt.fiber_swap_rule(g, twist(g, v, DivisorX.pullback(dbar)))
        rhs = twist(g, fmt.phi(g, v), DivisorX.pullback(d))
        report.check(lhs == rhs, f"case {i} h={g.h} v={v} d={d}")
    return report


def _rand_tilt(rng: random.Random, h) -> TiltCurve:
    while True:
        a = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if h * a + 2 * b > 0 and h * a + b != 0:
            return TiltCurve(h, a, b)


def suite_chow(cases: int = 100, seed: int = 2) -> SuiteReport:
    """Cycle identity holds exactly on the curve and only there.

    Symbolic: the ring-computed cycle difference reduces to zero modulo the
    constraint polynomial for random parameters.  Numeric: exact agreement
    at rational curve points, disagreement off the curve, and exact
    vanishing at algebraic curve points bracketed to 2^-128.
    """
    rng = random.Random(seed)
    report = SuiteReport("chow")
    hs = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2), Fraction(1, 3)]
    for i in range(cases):
        h = hs[i % len(hs)]
        g = geometry_for(h)
        c = _rand_tilt(rng, h)
        rems = curves.chow_identity_symbolic_remainder(g, c)
        report.check(all(r.is_zero() for r in rems), f"symbolic case {i} h={h} c={c}")

    g0 = geometry_for(0)
    for i in range(20):
        c = _rand_tilt(rng, Fraction(0))
        vpar = Fraction(rng.randint(2, 40))
        u = (c.b / c.a) / vpar
        on = curves.chow_identity_check(g0, c, u, vpar)
        off = curves.chow_identity_check(g0, c, u, vpar + 1)
        report.check(on and not off, f"rational case {i} c={c} vpar={vpar}")

    for i, h in enumerate([Fraction(-1), Fraction(1, 2)]):
        g = geometry_for(h)
        c = _rand_tilt(rng, h)
        vpar = Fraction(rng.randint(5, 30))
        root = solve_u(c, vpar, Fraction(1, 2**128))
        ok = curves.chow_identity_check(g, c, root, vpar)
        report.check(ok, f"algebraic case {i} h={h} c={c} vpar={vpar}")
    return report


def _rational_tilt_points(rng: random.Random, count: int):
    """Rational on-curve data: h = 0 tilt curves carry dense rational points."""
    out = []
    for _ in range(count):
        c = _rand_tilt(rng, Fraction(0))
        vpar = Fraction(rng.randint(2, 50), rng.randint(1, 3))
        out.append((c, (c.b / c.a) / vpar, vpar))
    return out


def suite_im_identity(cases: int = 1000, seed: int = 3) -> SuiteReport:
    """Imaginary-part identity: exact at rational curve points for random
    inputs including x = 0 and x < 0, plus symbolic reduction for h != 0."""
    rng = random.Random(seed)
    report = SuiteReport("im-identity")
    g0 = geometry_for(0)
    points = _rational_tilt_points(rng, max(10, cases // 25))
    for i in range(cases):
        c, u, vpar = points[i % len(points)]
        e = _rand_vector(rng, 1)
        if i % 3 == 1:
            e = ChernVector(e.n, 0, e.S, e.eta, e.a, e.s)
        elif i % 3 == 2:
            e = ChernVector(e.n, -abs(e.x) - 1, e.S, e.eta, e.a, e.s)
        report.check(verify.im_identity_check(g0, e, c, u, vpar), f"case {i} e={e}")
        if i % 100 == 0:
            off = verify.im_identity_check(g0, e, c, u, vpar + 1)
            generic = pair_h(g0, e.a2(g0)) != 0
            if generic:
                report.check(not off, f"off-curve case {i} e={e}")
    for i, h in enumerate([Fraction(-1), Fraction(1, 2), Fraction(-2)]):
        g = geometry_for(h)
        c = _rand_tilt(rng, h)
        for _ in range(5):
            e = _rand_vector(rng, 1)
            rems = verify.im_identity_symbolic_remainders(g, e, c)
            report.check(all(r.is_zero() for r in rems), f"symbolic h={h} e={e}")
    return report


H_SET_THRESHOLD = (Fraction(-1), Fraction(0), Fraction(1, 2))


def suite_threshold(cases: int = 1000, seed: int = 4, order: int = 8) -> SuiteReport:
    """Threshold biconditional for random one-dimensional against
    positive-rank classes, boundary instances included."""
    rng = random.Random(seed)
    report = SuiteReport("threshold")
    for i in range(cases):
        h = H_SET_THRESHOLD[i % len(H_SET_THRESHOLD)]
        g = geometry_for(h)
        c = _rand_tilt(rng, h)
        z = DivisorB.zero(1)
        t = ChernVector(
            0, 0, z, DivisorB([Fraction(rng.randint(1, 6), rng.randint(1, 3))]), _rand_q(rng), _rand_q(rng)
        )
        e = ChernVector(
            Fraction(rng.randint(1, 5)),
            _rand_q(rng),
            _rand_divisor(rng, 1),
            _rand_divisor(rng, 1),
            _rand_q(rng),
            _rand_q(rng),
        )
        ok = verify.threshold_equiv_check(g, t, e, c, order)
        report.check(ok, f"case {i} h={h} t={t} e={e} c={c}")
        report.verdicts.append(f"{i}:{ok}")
    return report


H_SET_CORRESPONDENCE = (Fraction(-1), Fraction(0))


def _rand_onedim_class(rng: random.Random, g: BaseGeometry, y, z) -> ChernVector:
    zd = DivisorB.zero(g.rank)
    while True:
        eta = DivisorB([Fraction(rng.randint(0, 5)) for _ in range(g.rank)])
        a = _rand_q(rng)
        s = _rand_q(rng)
        den = (g.h * y + z) * pair_h(g, eta) + y * a
        if den > 0:
            return ChernVector(0, 0, zd, eta, a, s)


def suite_correspondence(cases: int = 1000, seed: int = 5, order: int = 8) -> SuiteReport:
    """Slope order equals phase order of the transforms, both variants."""
    rng = random.Random(seed)
    report = SuiteReport("correspondence")
    for i in range(cases):
        h = H_SET_CORRESPONDENCE[i % len(H_SET_CORRESPONDENCE)]
        g = geometry_for(h)
        while True:
            y = Fraction(rng.randint(1, 5))
            z = Fraction(rng.randint(1, 5))
            if h + z / y > 0:
                break
        dbar = _rand_divisor(rng, 1, -4, 4)
        m = _rand_onedim_class(rng, g, y, z)
        n = _rand_onedim_class(rng, g, y, z) if i % 7 else m
        ok = verify.slope_correspondence_check(g, m, n, y, z, dbar, order)
        report.check(ok, f"case {i} h={h} m={m} n={n} y={y} z={z} dbar={dbar}")
        report.verdicts.append(f"{i}:{ok}")
    return report


def suite_h0(cases: int = 500, seed: int = 6, order: int = 8) -> SuiteReport:
    """Curve-point independence of the comparison at h = 0."""
    rng = random.Random(seed)
    report = SuiteReport("h0")
    g = geometry_for(0)
    zd = DivisorB.zero(1)

    def flat_class(ratio: Fraction, d: DivisorB) -> ChernVector:
        # At h = 0 the charge Z at the curve point (u, v) = (z/y, 1) fixes the
        # charge along the whole curve: Re is constant and Im scales by 1/v.
        # Reject classes with Z = 0, which have no phase, and reflect the
        # rest into the heart's half plane, since Z(-v) = -Z(v).
        while True:
            v = ChernVector(0, 0, _rand_divisor(rng, 1), zd, _rand_q(rng), _rand_q(rng))
            z = ChargeValue(*_flat_full_parts(g, v, ratio, 1, d))
            if not z.is_zero():
                return v if in_full_half_plane(z) else -v

    for i in range(cases):
        y = Fraction(rng.randint(1, 5))
        z = Fraction(rng.randint(1, 5))
        d = _rand_divisor(rng, 1, -4, 4)
        m = flat_class(z / y, d)
        n = flat_class(z / y, d) if i % 9 else m
        ok = verify.h0_independence_check(g, m, n, y, z, d)
        report.check(ok, f"case {i} m={m} n={n} y={y} z={z} d={d}")
        curve = OneDimCurve(0, y, z)
        verdict = compare_phases(
            charge_series(g, m, curve, ChargeKind.FULL, order, d),
            charge_series(g, n, curve, ChargeKind.FULL, order, d),
        )
        report.verdicts.append(f"{i}:{verdict.kind.value}")
    return report


def phase_table_cases():
    """One hand-built generator vector per tabulated phase case, with the
    frozen expected limit and side."""
    half = Fraction(1, 2)
    zd = DivisorB.zero(1)
    e1 = DivisorB([1])

    def cv(n, x, s_div, eta_div, a, s):
        return ChernVector(n, x, s_div, eta_div, a, s)

    tilt_cases = [
        ("point-class", cv(0, 0, zd, zd, 0, 1), (half, Side.EXACT)),
        ("curve-class", cv(0, 0, zd, e1, 0, 0), (half, Side.EXACT)),
        ("fiber-degree-positive", cv(0, 1, zd, zd, 0, 0), (Fraction(0), Side.EXACT)),
        ("vertical-up", cv(0, 0, e1, e1, 0, 0), (half, Side.MINUS)),
        ("vertical-down", cv(0, 0, e1, -e1, 0, 0), (-half, Side.PLUS)),
        ("vertical-flat", cv(0, 0, e1, zd, 1, 0), (Fraction(0), Side.PLUS)),
        ("rank-and-degree", cv(1, 1, zd, zd, 0, 0), (Fraction(0), Side.MINUS)),
        ("flat-rank", cv(2, 0, e1, zd, 0, 0), (-half, Side.PLUS)),
        ("shifted-flat", cv(-2, 0, e1, zd, 0, 0), (half, Side.MINUS)),
        ("shifted-negative-degree", cv(-1, 1, zd, zd, 0, 0), (Fraction(0), Side.PLUS)),
    ]
    onedim_cases = [
        ("point-class", cv(0, 0, zd, zd, 0, 1), (Fraction(1), Side.EXACT)),
        ("curve-class", cv(0, 0, zd, e1, 0, 0), (half, Side.EXACT)),
        ("fiber-positive", cv(0, 0, zd, zd, 1, 1), (Fraction(1), Side.MINUS)),
        ("fiber-zero", cv(0, 0, zd, zd, 1, 0), (half, Side.EXACT)),
        ("fiber-negative", cv(0, 0, zd, zd, 1, -1), (Fraction(0), Side.PLUS)),
        ("surface-up", cv(0, 0, e1, e1, 0, 0), (half, Side.MINUS)),
        ("surface-flat", cv(0, 0, e1, zd, 1, 0), (Fraction(0), Side.PLUS)),
        ("shifted-surface-flat", cv(0, 0, -e1, zd, 1, 1), (Fraction(1), Side.MINUS)),
        ("shifted-surface-down", cv(0, 0, -e1, e1, 0, 0), (half, Side.PLUS)),
    ]
    return tilt_cases, onedim_cases


def suite_phases(cases: int = 0, seed: int = 0, order: int = 8) -> SuiteReport:
    """Frozen phase-limit table for both charge kinds."""
    report = SuiteReport("phases")
    tilt_cases, onedim_cases = phase_table_cases()

    g = geometry_for(Fraction(-1))
    c = TiltCurve(Fraction(-1), 1, 2)
    for name, v, expected in tilt_cases:
        ac = charge_series(g, v, c, ChargeKind.REDUCED, order)
        got = phase_limit(ac)
        report.check((got.limit, got.side) == expected, f"tilt {name}: got {got}")

    g0 = geometry_for(Fraction(0))
    c0 = OneDimCurve(Fraction(0), 1, 1)
    for name, v, expected in onedim_cases:
        ac = charge_series(g0, v, c0, ChargeKind.FULL, order, g0.zero_divisor())
        got = phase_limit(ac)
        report.check((got.limit, got.side) == expected, f"flat {name}: got {got}")
    return report


_RUNNERS = {
    "involution": suite_involution,
    "swap": suite_swap,
    "chow": suite_chow,
    "im-identity": suite_im_identity,
    "threshold": suite_threshold,
    "correspondence": suite_correspondence,
    "h0": suite_h0,
    "phases": suite_phases,
}

SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, cases: int | None = None, seed: int = 0, order: int = 8) -> SuiteReport:
    """Run one suite by name; ``cases=None`` keeps the suite's own default
    size, any other size must be at least 1, and ``order`` reaches exactly
    the suites that take a series order."""
    runner = _RUNNERS[name]
    if cases is not None and cases < 1:
        raise DomainError(f"suite {name}: cases must be at least 1, got {cases}")
    kwargs = {"seed": seed, "order": order}
    if cases is not None:
        kwargs["cases"] = cases
    params = inspect.signature(runner).parameters
    return runner(**{k: val for k, val in kwargs.items() if k in params})
