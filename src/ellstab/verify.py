"""Theorem-level numeric identity and correspondence checks.

Everything here restates a proved relation at the level where it is
literally computable from Chern data: sign constraints attached to
asserted transform behaviour, an exact imaginary-part identity along the
tilt curve, the threshold biconditional comparing a one-dimensional class
against a positive-rank class, the slope-to-phase correspondence for
transforms of one-dimensional classes, and the parameter independence of
comparisons when h = 0.  Membership of an object in a category is always a
caller assertion; only the numeric consequences are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import asymptotics
from .asymptotics import ChargeKind, charge_series, compare_phases, cross_series
from .charges import _checked_reduced_parts
from .curves import OneDimCurve, TiltCurve, constraint_poly
from .errors import DomainError
from .fmt import fiber_swap_rule, phi
from .poly import Poly2, reduce_mod_u
from .ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    divisor_powers,
    divisor_vector,
    mul,
    pair_h,
    twist,
)
from .series import LaurentSeries
from .slopes import SlopeKind, slope


def positivity_check(g: BaseGeometry, v: ChernVector, d: int, wit: int) -> bool:
    """Sign consistency of an asserted transform index for a class whose
    support drops dimension by one along the fibration.

    The tested quantity is x*H^2 for d = 3, H.eta for d = 2 and s for
    d = 1; index one requires it nonpositive, index zero strictly positive.
    """
    if wit not in (0, 1):
        raise DomainError("wit must be 0 or 1")
    if d == 3:
        if v.n == 0:
            raise DomainError("d = 3 requires a positive-rank pattern (n != 0)")
        value = v.x * g.hb2
    elif d == 2:
        if v.n != 0 or v.x != 0:
            raise DomainError("d = 2 requires the pattern n = x = 0")
        value = pair_h(g, v.eta)
    elif d == 1:
        if v.n != 0 or v.x != 0 or not v.S.is_zero() or not v.eta.is_zero():
            raise DomainError("d = 1 requires a fiber-class pattern (n = x = 0, S = eta = 0)")
        value = v.s
    else:
        raise DomainError("d must be 1, 2 or 3")
    return value <= 0 if wit == 1 else value > 0


def _im_identity_sides(g: BaseGeometry, e: ChernVector, c: TiltCurve, u, vpar) -> tuple:
    """The two sides of the imaginary-part identity, both scaled by
    Theta.Obar^2: the left through the transform and the ring-checked
    reduced charge, the right from the twisted degree-one pairing against
    the fixed polarization Obar = a Theta + b pull(H)."""
    hb = g.hb_divisor
    powers = divisor_powers(g, DivisorX(u, hb.scale(vpar)))
    lhs = -_checked_reduced_parts(g, phi(g, e), u, vpar, powers)[1]

    obar = divisor_vector(g, DivisorX(c.a, hb.scale(c.b)))
    obar2 = mul(g, obar, obar)
    theta = divisor_vector(g, DivisorX(1, g.zero_divisor()))
    theta_obar2 = mul(g, theta, obar2).s
    om3_over6 = powers[2] * Fraction(1, 6)
    tw = twist(g, e, g.half_canonical_bfield())
    obar2_ch1b = mul(g, obar2, tw.degree_part(1)).s
    return lhs * theta_obar2, om3_over6 * obar2_ch1b - u * e.a3(g) * theta_obar2


def im_identity_check(g: BaseGeometry, e: ChernVector, c: TiltCurve, u, vpar) -> bool:
    """Exact identity for the imaginary part of the reduced charge of the
    shifted transform along the tilt curve.

    Both sides are evaluated independently: the left through the transform
    and the ring-path charge, the right from the twisted degree-one pairing
    against the fixed polarization.  Off the curve the two sides differ for
    generic input, so the return value is the pointwise truth of the
    identity.  Holds for every input on the curve, including x = 0.
    """
    if g.h != c.h:
        raise DomainError("curve and geometry disagree on h")
    lhs, rhs = _im_identity_sides(g, e, c, u, vpar)
    return lhs == rhs


def im_identity_symbolic_remainders(g: BaseGeometry, e: ChernVector, c: TiltCurve) -> list[Poly2]:
    """Reduction of the identity's two sides against the curve polynomial.

    The difference, cleared of its constant denominator, is a polynomial
    multiple of the constraint polynomial; the returned remainders are zero
    exactly when the identity holds on the whole curve.
    """
    lhs, rhs = _im_identity_sides(g, e, c, Poly2.u(), Poly2.v())
    return [reduce_mod_u(lhs - rhs, constraint_poly(c))]


def threshold_equiv_check(
    g: BaseGeometry,
    t: ChernVector,
    e: ChernVector,
    c: TiltCurve,
    order: int = 8,
) -> bool:
    """Biconditional between the comparator verdict and the slope threshold.

    The one-dimensional class t (with positive H.eta) destabilizes the
    shifted transform of e (rank n > 0) exactly when its canonically
    twisted slope reaches 2 / (a (ha+2b) H^2) times the twisted slope of e.
    Off the boundary the full germ comparison must match the strict
    inequality on both sides; at exact equality the controlled leading
    order of the cross series must vanish, finer orders being outside the
    statement's scope.
    """
    if t.n != 0 or t.x != 0 or not t.S.is_zero():
        raise DomainError("t must be a one-dimensional class (n = x = 0, S = 0)")
    heta = pair_h(g, t.eta)
    if heta <= 0:
        raise DomainError("t requires H.eta > 0")
    if e.n <= 0:
        raise DomainError("e requires positive rank")

    mu_t = slope(g, SlopeKind.mu_star_b(), t)
    obar = DivisorX(c.a, g.hb_divisor.scale(c.b))
    mu_e = slope(g, SlopeKind.mu_omega_b(obar, g.half_canonical_bfield()), e)
    if mu_t.is_infinite or mu_e.is_infinite:
        raise DomainError("slopes must be finite under the stated preconditions")
    threshold = 2 * mu_e.finite / (c.alpha * g.hb2)

    g_series = charge_series(g, phi(g, t), c, ChargeKind.REDUCED, order)
    f_vec = -phi(g, e)
    f_series = charge_series(g, f_vec, c, ChargeKind.REDUCED, order)
    verdict = compare_phases(g_series, f_series)

    if mu_t.finite < threshold:
        return verdict.is_prec
    if mu_t.finite > threshold:
        return verdict.is_succ
    # v^1 is the order the statement controls, the largest the cross can carry
    return cross_series(g_series, f_series).coefficient(1) == 0


def slope_correspondence_check(
    g: BaseGeometry,
    m: ChernVector,
    n: ChernVector,
    y,
    z,
    dbar: DivisorB,
    order: int = 8,
) -> bool:
    """Slope order of one-dimensional classes versus phase order of their
    transforms, strict and non-strict simultaneously."""
    curve = OneDimCurve(g.h, y, z)
    obar = DivisorX(Fraction(y), g.hb_divisor.scale(Fraction(z)))
    kind = SlopeKind.mu_bar(obar, dbar)
    d = dbar + g.hb_divisor.scale(g.h / 2)

    values = []
    for v in (m, n):
        if v.n != 0 or v.x != 0 or not v.S.is_zero():
            raise DomainError("inputs must be one-dimensional classes")
        den = (g.h * Fraction(y) + Fraction(z)) * pair_h(g, v.eta) + Fraction(y) * v.a
        if den <= 0:
            raise DomainError("inputs require a positive twisted degree")
        values.append(slope(g, kind, v))
    mu_m, mu_n = values

    verdict = compare_phases(
        charge_series(g, phi(g, m), curve, ChargeKind.FULL, order, d),
        charge_series(g, phi(g, n), curve, ChargeKind.FULL, order, d),
    )
    strict_ok = verdict.is_prec == (mu_m < mu_n)
    nonstrict_ok = (not verdict.is_succ) == (mu_m <= mu_n)
    return strict_ok and nonstrict_ok


def h0_independence_check(
    g: BaseGeometry, m: ChernVector, n: ChernVector, y, z, d: DivisorB
) -> bool:
    """For h = 0 the comparison of charges of the flat numeric shape is the
    same at every curve point, with sign given by the constant parts.

    Decided exactly, over all v > 0.  The curve is u = q/v, and the cross
    polynomial X of the two full charges (``asymptotics._cross_poly``) must
    satisfy v X(q/v, v) = X(q, 1) as a Laurent polynomial in v: the cross
    value along the curve is then X(q, 1)/v, of one fixed sign (or zero
    identically), the sign at (u, v) = (q, 1), where the charges are their
    v-independent parts with Im scaled by q > 0.
    """
    if g.h != 0:
        raise DomainError("this check applies only to h = 0 geometries")
    q = OneDimCurve(0, y, z).q
    if any(v.n != 0 or v.x != 0 or not v.eta.is_zero() for v in (m, n)):
        raise DomainError("inputs must have the flat numeric shape (n = x = 0, eta = 0)")
    cross = asymptotics._cross_poly(g, m, n, ChargeKind.FULL, d)
    along = LaurentSeries([(j - i + 1, c * q**i) for (i, j), c in cross.terms.items()])
    return along == LaurentSeries.const(cross.eval(q, 1))


@dataclass(frozen=True)
class TransformMapReport:
    image: ChernVector
    source_eta_nonzero: bool
    source_a_nonneg: bool
    source_s_positive: bool
    image_s_nonzero: bool
    image_a_positive: bool
    image_s3_nonpositive: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.source_eta_nonzero
            and self.source_a_nonneg
            and self.source_s_positive
            and self.image_s_nonzero
            and self.image_a_positive
            and self.image_s3_nonpositive
        )


def onedim_transform_map(g: BaseGeometry, e_tw: ChernVector, dbar: DivisorB) -> TransformMapReport:
    """Swap-rule image of a twisted one-dimensional class together with the
    side conditions of the stable-class correspondence."""
    if e_tw.n != 0 or e_tw.x != 0 or not e_tw.S.is_zero():
        raise DomainError("source must have the shape n = x = 0, S = 0")
    image = fiber_swap_rule(g, e_tw)
    return TransformMapReport(
        image=image,
        source_eta_nonzero=not e_tw.eta.is_zero(),
        source_a_nonneg=e_tw.a >= 0,
        source_s_positive=e_tw.s > 0,
        image_s_nonzero=not image.S.is_zero(),
        image_a_positive=image.a > 0,
        image_s3_nonpositive=image.s <= 0,
    )
