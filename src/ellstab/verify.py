"""Theorem-level numeric identity and correspondence checks.

Everything here restates a proved relation at the level where it is
literally computable from Chern data: necessary inequalities for heart
membership, sign constraints attached to asserted transform behaviour, an
exact imaginary-part identity along the tilt curve, the threshold
biconditional comparing a one-dimensional class against a positive-rank
class, the slope-to-phase correspondence for transforms of one-dimensional
classes, and the parameter independence of comparisons when h = 0.
Membership of an object in a category is always a caller assertion; only
the numeric consequences are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import asymptotics
from .asymptotics import ChargeKind, charge_series, compare_phases, cross_series
from .charges import _flat_full_parts, reduced_charge
from .curves import OneDimCurve, TiltCurve, constraint_poly
from .errors import DomainError
from .fmt import fiber_swap_rule, phi
from .poly import Poly2, reduce_mod_u
from .ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    divisor_vector,
    mul,
    pair_h,
    twist,
)
from .slopes import SlopeKind, slope


class ClassTag(Enum):
    BL_HEART = "BL_HEART"
    BP_HEART = "BP_HEART"
    FIBER_SHEAF = "FIBER_SHEAF"
    ONE_DIM = "ONE_DIM"
    TP_L0 = "TP_L0"
    FP_L0 = "FP_L0"
    WIT0_PHI = "WIT0_PHI"
    WIT1_PHIHAT = "WIT1_PHIHAT"


_HEART_TAGS = (ClassTag.BL_HEART, ClassTag.BP_HEART)


@dataclass(frozen=True)
class NumericClass:
    """A category label carried as a user assertion, with the divisor of a
    BP heart.

    Only the numeric necessary conditions attached to the tag are ever
    machine-checked; the tag itself is taken on trust.
    """

    tag: ClassTag
    d: DivisorB | None = None


def heart_necessary(
    g: BaseGeometry, v: ChernVector, cls: NumericClass, d: DivisorB | None = None
) -> bool:
    """Necessary inequality for membership of an asserted heart class."""
    if cls.tag not in _HEART_TAGS:
        raise DomainError(f"{cls.tag.value} is not a heart tag")
    if cls.tag is ClassTag.BL_HEART:
        return v.x >= 0
    dd = cls.d if cls.d is not None else d
    if dd is None:
        dd = g.zero_divisor()
    if v.n != 0 or v.x != 0:
        return False
    tw = twist(g, v, DivisorX.pullback(dd))
    phb = ChernVector(0, 0, g.hb_divisor, g.zero_divisor(), 0, 0)
    return mul(g, phb, tw.degree_part(2)).s >= 0


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
    lhs = -reduced_charge(g, phi(g, e), u, vpar).im

    hb = g.hb_divisor
    obar = divisor_vector(g, DivisorX(c.a, hb.scale(c.b)))
    obar2 = mul(g, obar, obar)
    theta = divisor_vector(g, DivisorX(1, g.zero_divisor()))
    theta_obar2 = mul(g, theta, obar2).s
    om = divisor_vector(g, DivisorX(u, hb.scale(vpar)))
    om3_over6 = mul(g, mul(g, om, om), om).s * Fraction(1, 6)
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
    diff = lhs - rhs
    if not isinstance(diff, Poly2):
        diff = Poly2.const(diff)
    return [reduce_mod_u(diff, constraint_poly(c))]


def _controlled_cross_lead(x) -> Fraction:
    """Coefficient of the cross series at the order the threshold statement
    controls, which is the largest order the cross can carry."""
    return x.coefficient(1)


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
    threshold = 2 * mu_e.finite / (c.a * (c.h * c.a + 2 * c.b) * g.hb2)

    g_series = charge_series(g, phi(g, t), c, ChargeKind.REDUCED, order)
    f_vec = -phi(g, e)
    f_series = charge_series(g, f_vec, c, ChargeKind.REDUCED, order)
    verdict = compare_phases(g_series, f_series)

    if mu_t.finite < threshold:
        return verdict.is_prec
    if mu_t.finite > threshold:
        return verdict.is_succ
    x = cross_series(g_series, f_series)
    return _controlled_cross_lead(x) == 0


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


_H0_SAMPLES = (2, 10, 100, 10**4)


def h0_independence_check(
    g: BaseGeometry, m: ChernVector, n: ChernVector, y, z, d: DivisorB
) -> bool:
    """For h = 0 the comparison of charges of the flat numeric shape is the
    same at every curve point, with sign given by the constant parts.

    The exact cross value at each sampled curve point, read on the wall-scan
    path (one cross polynomial through ``full_charge``, then ``_cross_sign``),
    must carry one fixed sign (or vanish identically), and that sign must
    agree with the one predicted by the v-independent charge components.
    """
    if g.h != 0:
        raise DomainError("this check applies only to h = 0 geometries")
    curve = OneDimCurve(0, y, z)
    preds = []
    for v in (m, n):
        if v.n != 0 or v.x != 0 or not v.eta.is_zero():
            raise DomainError("inputs must have the flat numeric shape (n = x = 0, eta = 0)")
        # the charge at the curve point (u, v) = (z/y, 1) is the
        # v-independent part with Im scaled by z/y > 0, which keeps the sign
        preds.append(_flat_full_parts(g, v, curve.q, 1, d))
    predicted = preds[0][0] * preds[1][1] - preds[0][1] * preds[1][0]
    predicted_sign = (predicted > 0) - (predicted < 0)
    cross = asymptotics._cross_poly(g, m, n, ChargeKind.FULL, d)
    return all(asymptotics._cross_sign(cross, curve, v) == predicted_sign for v in _H0_SAMPLES)


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
