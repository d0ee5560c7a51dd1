"""Charges as Laurent germs along a constraint curve, phase limits, the
asymptotic phase order, and finite-parameter wall scanning.

A charge germ is the pair of truncated Laurent series obtained by pushing
the exact expansion of u(v) through the charge's closed form.  Two germs
are ordered by the sign of the leading coefficient of the cross series
re(M) im(N) - im(M) re(N): for phases ranged in a common half plane this
sign equals the sign of sin(pi (phi_N - phi_M)) pointwise, so a positive
lead means M eventually has the smaller phase.  A cross series with no
stored coefficients is reported as equal-through-order unless the data is
exact, in which case the germs are genuinely proportional as stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import charges as charges_mod
from .curves import CurveConstraint, constraint_poly, expand_u, solve_u
from .errors import ComputationFault, ConfigurationError, DomainError
from .poly import Poly2, RootInterval, count_roots, eval_interval, gcd, refine_root
from .ring import BaseGeometry, ChernVector, DivisorB, DivisorX
from .series import LaurentSeries


class ChargeKind(Enum):
    REDUCED = "reduced"
    FULL = "full"


class Side(Enum):
    PLUS = "plus"
    MINUS = "minus"
    EXACT = "exact"


@dataclass(frozen=True)
class PhaseLimit:
    limit: Fraction
    side: Side


@dataclass(frozen=True)
class AsymptoticCharge:
    re: LaurentSeries
    im: LaurentSeries
    kind: ChargeKind

    def is_stored_zero(self) -> bool:
        return self.re.is_stored_zero() and self.im.is_stored_zero()

    def is_exact(self) -> bool:
        return self.re.is_exact() and self.im.is_exact()


@dataclass(frozen=True)
class PhaseOrder:
    """Outcome of an asymptotic phase comparison.

    ``kind`` is one of prec, succ, equal_through_order, exact_equal; the
    floor records how deep a vanishing cross series was trusted.
    """

    kind: str
    floor: int | None = None

    @classmethod
    def prec(cls) -> "PhaseOrder":
        return cls("prec")

    @classmethod
    def succ(cls) -> "PhaseOrder":
        return cls("succ")

    @classmethod
    def equal_through_order(cls, floor: int) -> "PhaseOrder":
        return cls("equal_through_order", floor)

    @classmethod
    def exact_equal(cls) -> "PhaseOrder":
        return cls("exact_equal")

    @property
    def is_prec(self) -> bool:
        return self.kind == "prec"

    @property
    def is_succ(self) -> bool:
        return self.kind == "succ"

    @property
    def is_equalish(self) -> bool:
        return self.kind in ("equal_through_order", "exact_equal")


def charge_series(
    g: BaseGeometry,
    v: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    order: int = 8,
    d: DivisorB | None = None,
) -> AsymptoticCharge:
    """Charge of a vector along the curve as a pair of Laurent series in v.

    The charge's one closed form (``charges._reduced_parts``, or
    ``charges._flat_full_parts`` with B = pull(d), d = 0 by default) is
    evaluated at the germ point (u(v), v), with u(v) expanded through
    ``order`` terms; the germs' truncation floors are those the series
    arithmetic carries through that formula.  The full kind raises
    ``DomainError`` unless the class is fiber-degree-trivial (n = x = 0).
    """
    if g.h != c.h:
        raise ConfigurationError("curve and geometry disagree on h")
    u, vv = expand_u(c, order), LaurentSeries.monomial(1, 1)
    if kind is ChargeKind.REDUCED:
        re, im = charges_mod._reduced_parts(g, v, u, vv)
    elif kind is ChargeKind.FULL:
        dd = d if d is not None else g.zero_divisor()
        re, im = charges_mod._flat_full_parts(g, v, u, vv, dd)
    else:
        raise DomainError(f"unknown charge kind {kind}")
    return AsymptoticCharge(re, im, kind)


def phase_limit(ac: AsymptoticCharge) -> PhaseLimit:
    """Limit of the phase (argument over pi) as v grows, with the approach
    side when a subleading term decides it.

    The reduced kind treats a vanishing charge as the fixed phase one half.
    Germs heading into the open third quadrant have no phase in either
    supported range and raise; a full-kind zero charge is indeterminate.
    """
    re, im = ac.re, ac.im
    re_lead, im_lead = re.leading(), im.leading()

    if re_lead is None and im_lead is None:
        if ac.kind is ChargeKind.REDUCED:
            return PhaseLimit(Fraction(1, 2), Side.EXACT)
        raise DomainError("zero full-kind charge has indeterminate phase")

    if im_lead is None:
        if re_lead[1] > 0:
            return PhaseLimit(Fraction(0), Side.EXACT)
        return PhaseLimit(Fraction(1), Side.EXACT)

    if re_lead is None:
        if im_lead[1] > 0:
            return PhaseLimit(Fraction(1, 2), Side.EXACT)
        return PhaseLimit(Fraction(-1, 2), Side.EXACT)

    if re_lead[1] < 0 and im_lead[1] < 0:
        raise DomainError("charge germ leaves both supported phase ranges")

    if re_lead[0] > im_lead[0]:
        if re_lead[1] > 0:
            side = Side.PLUS if im_lead[1] > 0 else Side.MINUS
            return PhaseLimit(Fraction(0), side)
        return PhaseLimit(Fraction(1), Side.MINUS if im_lead[1] > 0 else Side.PLUS)

    if im_lead[0] > re_lead[0]:
        if im_lead[1] > 0:
            side = Side.MINUS if re_lead[1] > 0 else Side.PLUS
            return PhaseLimit(Fraction(1, 2), side)
        side = Side.PLUS if re_lead[1] > 0 else Side.MINUS
        return PhaseLimit(Fraction(-1, 2), side)

    raise DomainError("real and imaginary leads share an order; the limit is not rational")


def cross_series(acm: AsymptoticCharge, acn: AsymptoticCharge) -> LaurentSeries:
    if acm.kind is not acn.kind:
        raise DomainError("cannot compare charges of different kinds")
    m_re, m_im = _with_zero_convention(acm)
    n_re, n_im = _with_zero_convention(acn)
    return m_re * n_im - m_im * n_re


def _with_zero_convention(ac: AsymptoticCharge) -> tuple[LaurentSeries, LaurentSeries]:
    if ac.kind is ChargeKind.REDUCED and ac.is_stored_zero() and ac.is_exact():
        return LaurentSeries.zero(), LaurentSeries.const(1)
    if ac.kind is ChargeKind.FULL and ac.is_stored_zero() and ac.is_exact():
        raise DomainError("zero full-kind charge has indeterminate phase")
    return ac.re, ac.im


def compare_phases(acm: AsymptoticCharge, acn: AsymptoticCharge) -> PhaseOrder:
    """Asymptotic order of two charge germs of the same kind.

    Decided by the sign of the leading cross coefficient.  A vanishing
    cross with a negatively oriented dot series means the germs are
    antipodal (phases one apart, where the cross is blind); those are
    ordered by their phase limits.  Identical germs are exactly equal only
    when they are exact; identical truncated germs are equal through the
    cross series' floor, like any other vanishing cross.
    """
    if acm.kind is not acn.kind:
        raise DomainError("cannot compare charges of different kinds")
    if acm == acn and acm.is_exact():
        return PhaseOrder.exact_equal()
    m_re, m_im = _with_zero_convention(acm)
    n_re, n_im = _with_zero_convention(acn)
    x = m_re * n_im - m_im * n_re
    lead = x.leading()
    if lead is not None:
        return PhaseOrder.prec() if lead[1] > 0 else PhaseOrder.succ()
    dot = m_re * n_re + m_im * n_im
    dot_lead = dot.leading()
    if dot_lead is not None and dot_lead[1] < 0:
        lm = phase_limit(AsymptoticCharge(m_re, m_im, acm.kind))
        ln = phase_limit(AsymptoticCharge(n_re, n_im, acn.kind))
        if lm.limit < ln.limit:
            return PhaseOrder.prec()
        if lm.limit > ln.limit:
            return PhaseOrder.succ()
    if x.is_exact():
        return PhaseOrder.exact_equal()
    return PhaseOrder.equal_through_order(x.trunc)


def compare_vectors(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    order: int = 8,
    d: DivisorB | None = None,
) -> PhaseOrder:
    """Compare two vectors along a curve, escalating the order once if the
    cross series vanishes through the first truncation floor.  Identical
    vectors are exactly equal at once, with no series work."""
    if m == n:
        return PhaseOrder.exact_equal()
    first = compare_phases(
        charge_series(g, m, c, kind, order, d), charge_series(g, n, c, kind, order, d)
    )
    if first.kind != "equal_through_order":
        return first
    doubled = 2 * order
    return compare_phases(
        charge_series(g, m, c, kind, doubled, d), charge_series(g, n, c, kind, doubled, d)
    )


def _charge_at_point(
    g: BaseGeometry,
    v: ChernVector,
    kind: ChargeKind,
    u,
    vpar,
    d: DivisorB | None,
):
    if kind is ChargeKind.REDUCED:
        return charges_mod.reduced_charge(g, v, u, vpar)
    omega = DivisorX(u, g.hb_divisor.scale(vpar))
    bfield = DivisorX.pullback(d if d is not None else g.zero_divisor())
    return charges_mod.full_charge(g, v, omega, bfield)


SIGN_CHECKS = 128
_SIGN_PRECISION = Fraction(1, 2**64)


def _cross_poly(
    g: BaseGeometry, m: ChernVector, n: ChernVector, kind: ChargeKind, d: DivisorB | None
) -> Poly2:
    """The exact cross value re(M) im(N) - im(M) re(N) as a polynomial in (u, v).

    Built once through the pointwise charges at symbolic u and v, so the
    reduced charge's dual-path guard checks a polynomial identity, which
    implies its check at every point.
    """
    usym, vsym = Poly2.u(), Poly2.v()
    zm = _charge_at_point(g, m, kind, usym, vsym, d)
    zn = _charge_at_point(g, n, kind, usym, vsym, d)
    return zm.re * zn.im - zm.im * zn.re


def _cross_sign(cross: Poly2, c: CurveConstraint, vpar, precision: Fraction) -> int:
    """Certified sign of the cross polynomial at the curve point over vpar."""
    root = solve_u(c, vpar, precision)
    if root.exact:
        val = cross.eval(root.lo, vpar)
        return 0 if val == 0 else (1 if val > 0 else -1)

    at_v = cross.eval_v(vpar)
    if at_v.is_zero():
        return 0
    curve_poly = constraint_poly(c).eval_v(vpar)
    common = gcd(at_v, curve_poly)
    if common.degree >= 1:
        sub = common.squarefree()
        if count_roots(sub, root.lo, root.hi) >= 1 or sub(root.lo) == 0:
            return 0
    iv = root
    for _ in range(SIGN_CHECKS):
        lo, hi = eval_interval(at_v, iv)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        iv = refine_root(curve_poly, iv, iv.width / 4)
    raise ComputationFault(f"cross value sign still open after {SIGN_CHECKS} checks at v = {vpar}")


def cross_sign_at(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    vpar,
    d: DivisorB | None = None,
    precision: Fraction = _SIGN_PRECISION,
) -> int:
    """Certified sign of the exact cross value at a finite curve point.

    The cross value is built as a polynomial in (u, v).  At rational curve
    points its sign is computed exactly; at algebraic points it is a
    univariate polynomial in u whose sign at the bracketed root is certified
    by interval refinement, with an exact zero detected through a common
    factor with the curve polynomial.  The sign is checked at most
    ``SIGN_CHECKS`` times, each time on a bracket four times narrower; if it
    is still open, the zero detection has missed a zero and
    ``ComputationFault`` is raised.
    """
    return _cross_sign(_cross_poly(g, m, n, kind, d), c, vpar, precision)


@dataclass(frozen=True)
class WallScanResult:
    walls: tuple[RootInterval, ...]
    degenerate: bool


def wall_scan(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    vrange: tuple,
    precision: Fraction = Fraction(1, 2**16),
    d: DivisorB | None = None,
    samples: int = 64,
) -> WallScanResult:
    """Sign-change brackets of the exact cross value over a finite v range.

    The cross value is built once as a polynomial in (u, v); the range is
    sampled on a uniform rational grid, and adjacent samples with certified
    opposite signs (as ``cross_sign_at`` gives them) are bisected down to
    ``precision``.  A cross value that vanishes at every sample is reported
    as degenerate with no walls rather than as a wall everywhere.
    """
    lo, hi = Fraction(vrange[0]), Fraction(vrange[1])
    if not (0 < lo < hi):
        raise DomainError("wall scan requires 0 < vmin < vmax")
    if samples < 2:
        raise DomainError("wall scan needs at least two samples")
    cross = _cross_poly(g, m, n, kind, d)
    grid = [lo + (hi - lo) * k / samples for k in range(samples + 1)]
    signs = [_cross_sign(cross, c, vv, _SIGN_PRECISION) for vv in grid]
    if all(sg == 0 for sg in signs):
        return WallScanResult((), True)

    walls = []
    k = 0
    while k < samples:
        s1, s2 = signs[k], signs[k + 1]
        if s1 == 0:
            k += 1
            continue
        if s2 == 0:
            j = k + 1
            while j <= samples and signs[j] == 0:
                j += 1
            if j <= samples and signs[j] * s1 < 0:
                walls.append(RootInterval(grid[k + 1], grid[j - 1]))
            k = j
            continue
        if s1 * s2 < 0:
            a, b = grid[k], grid[k + 1]
            while b - a > precision:
                mid = (a + b) / 2
                sm = _cross_sign(cross, c, mid, _SIGN_PRECISION)
                if sm == 0:
                    a = b = mid
                    break
                if sm == s1:
                    a = mid
                else:
                    b = mid
            walls.append(RootInterval(a, b))
        k += 1
    return WallScanResult(tuple(walls), False)
