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
At finite parameters the cross value is a polynomial in (u, v) whose sign
at each curve point is exact, zero included, with no refinement cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import charges as charges_mod
from .curves import CurveConstraint, admissible_bracket, expand_u
from .errors import ConfigurationError, DomainError
from .poly import Poly2, RootInterval, sign_at_root
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


class OrderKind(Enum):
    PREC = "prec"
    SUCC = "succ"
    EQUAL_THROUGH_ORDER = "equal_through_order"
    EXACT_EQUAL = "exact_equal"


@dataclass(frozen=True)
class PhaseOrder:
    """Outcome of an asymptotic phase comparison; the floor records how
    deep a vanishing cross series was trusted (equal_through_order only)."""

    kind: OrderKind
    floor: int | None = None

    @property
    def is_prec(self) -> bool:
        return self.kind is OrderKind.PREC

    @property
    def is_succ(self) -> bool:
        return self.kind is OrderKind.SUCC

    @property
    def is_equalish(self) -> bool:
        return self.kind in (OrderKind.EQUAL_THROUGH_ORDER, OrderKind.EXACT_EQUAL)


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
        return PhaseOrder(OrderKind.EXACT_EQUAL)
    m_re, m_im = _with_zero_convention(acm)
    n_re, n_im = _with_zero_convention(acn)
    x = m_re * n_im - m_im * n_re
    lead = x.leading()
    if lead is not None:
        return PhaseOrder(OrderKind.PREC if lead[1] > 0 else OrderKind.SUCC)
    dot = m_re * n_re + m_im * n_im
    dot_lead = dot.leading()
    if dot_lead is not None and dot_lead[1] < 0:
        lm = phase_limit(AsymptoticCharge(m_re, m_im, acm.kind))
        ln = phase_limit(AsymptoticCharge(n_re, n_im, acn.kind))
        if lm.limit < ln.limit:
            return PhaseOrder(OrderKind.PREC)
        if lm.limit > ln.limit:
            return PhaseOrder(OrderKind.SUCC)
    if x.is_exact():
        return PhaseOrder(OrderKind.EXACT_EQUAL)
    return PhaseOrder(OrderKind.EQUAL_THROUGH_ORDER, x.trunc)


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
        return PhaseOrder(OrderKind.EXACT_EQUAL)
    first = compare_phases(
        charge_series(g, m, c, kind, order, d), charge_series(g, n, c, kind, order, d)
    )
    if first.kind is not OrderKind.EQUAL_THROUGH_ORDER:
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


def _cross_sign(cross: Poly2, c: CurveConstraint, vpar) -> int:
    """Exact sign of the cross polynomial at the curve point over vpar."""
    p, bracket = admissible_bracket(c, vpar)
    return sign_at_root(cross.eval_v(vpar), p, bracket)


def cross_sign_at(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    c: CurveConstraint,
    kind: ChargeKind,
    vpar,
    d: DivisorB | None = None,
) -> int:
    """Exact sign of the cross value at a finite curve point, zero included.

    The cross value is built as a polynomial in (u, v).  At v = vpar it is
    a polynomial q in u, and u is the root of the curve polynomial p that
    ``curves.admissible_bracket`` isolates in closed form (or gives exactly,
    at a rational root); ``poly.sign_at_root(q, p, bracket)`` gives the
    sign of q there, with no refinement of the bracket.
    """
    return _cross_sign(_cross_poly(g, m, n, kind, d), c, vpar)


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
    sampled on a uniform rational grid, and adjacent samples with exact
    opposite signs (as ``cross_sign_at`` gives them) are bisected down to
    ``precision``.  Zero samples between opposite signs are one wall, from
    the first to the last of them.  A cross value that vanishes at every
    sample is reported as degenerate with no walls rather than as a wall
    everywhere.
    """
    lo, hi = Fraction(vrange[0]), Fraction(vrange[1])
    if not (0 < lo < hi):
        raise DomainError("wall scan requires 0 < vmin < vmax")
    if samples < 2:
        raise DomainError("wall scan needs at least two samples")
    cross = _cross_poly(g, m, n, kind, d)
    grid = [lo + (hi - lo) * k / samples for k in range(samples + 1)]
    signs = [_cross_sign(cross, c, vv) for vv in grid]
    nonzero = [k for k, sg in enumerate(signs) if sg]
    if not nonzero:
        return WallScanResult((), True)

    walls = []
    for i, j in zip(nonzero, nonzero[1:]):
        s1 = signs[i]
        if s1 * signs[j] > 0:
            continue
        if j > i + 1:  # the zero samples between opposite signs
            walls.append(RootInterval(grid[i + 1], grid[j - 1]))
            continue
        a, b = grid[i], grid[j]
        while b - a > precision:
            mid = (a + b) / 2
            sm = _cross_sign(cross, c, mid)
            if sm == 0:
                a = b = mid
                break
            a, b = (mid, b) if sm == s1 else (a, mid)
        walls.append(RootInterval(a, b))
    return WallScanResult(tuple(walls), False)
