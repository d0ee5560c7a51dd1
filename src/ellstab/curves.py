"""The two polarization-limit curves in the (v, u) quarter plane.

The tilt curve ties a fixed polarization a*Theta + b*pull(H) to the moving
one u*Theta + v*pull(H) through

    alpha / beta = a(ha+2b) / (ha+b)^2 = (hu+v) / ((1/6) u (h^2 u^2 + 3huv + 3v^2)),

the one-dimensional curve is h + z/y = (1/2) u (hu + 2v).  Both are handled
through their cross-multiplied polynomial forms.  The curve point over v
is the smallest positive root, by proof, and a bracket isolating it is
written down in closed form (the Cauchy bound, or 2q/v on the
one-dimensional curve with h < 0); solving is dyadic bisection of that
bracket on the sign of the curve polynomial, evaluated exactly in
integers, with no Sturm isolation.  The cycle identity behind the tilt
curve is decided exactly, at algebraic points by one Sturm-Tarski query.
The expansion of u as a Laurent series in 1/v is written down coefficient
by coefficient: with w = hu + v both curves become w = v y(h u1 / v^2) for
a power series y solving y^2 = 1 + 2x or y^3 = 1 + 3xy, whose coefficients
Lagrange inversion gives as products of integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .errors import ConfigurationError, CurveDomainError
from .poly import (
    Poly1,
    Poly2,
    RootInterval,
    _bisect_by_sign,
    _root_bound,
    count_roots,
    reduce_mod_u,
    sign_at_root,
)
from .ring import BaseGeometry, ChernVector, DivisorX, _q, divisor_vector, mul
from .series import LaurentSeries


@dataclass(frozen=True)
class TiltCurve:
    """Curve for comparing slope data at a*Theta + b*pull(H) with the
    moving polarization; requires a, b > 0, ha + 2b > 0 and ha + b != 0."""

    h: Fraction
    a: Fraction
    b: Fraction

    def __init__(self, h, a, b):
        h, a, b = _q(h), _q(a), _q(b)
        if a <= 0 or b <= 0:
            raise ConfigurationError("tilt curve: a and b must be positive")
        if h * a + 2 * b <= 0:
            raise ConfigurationError("tilt curve: requires h*a + 2*b > 0")
        if h * a + b == 0:
            raise ConfigurationError("tilt curve: requires h*a + b != 0")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def alpha(self) -> Fraction:
        return self.a * (self.h * self.a + 2 * self.b)

    @property
    def beta(self) -> Fraction:
        return (self.h * self.a + self.b) ** 2

    @property
    def leading_coefficient(self) -> Fraction:
        """First expansion coefficient u1 = 2 beta / alpha."""
        return 2 * self.beta / self.alpha


@dataclass(frozen=True)
class OneDimCurve:
    """Curve for one-dimensional classes: h + z/y = (1/2) u (hu + 2v);
    requires y, z > 0 and h + z/y > 0."""

    h: Fraction
    y: Fraction
    z: Fraction

    def __init__(self, h, y, z):
        h, y, z = _q(h), _q(y), _q(z)
        if y <= 0 or z <= 0:
            raise ConfigurationError("one-dimensional curve: y and z must be positive")
        if h + z / y <= 0:
            raise ConfigurationError("one-dimensional curve: requires h + z/y > 0")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def q(self) -> Fraction:
        return self.h + self.z / self.y

    @property
    def leading_coefficient(self) -> Fraction:
        return self.q


CurveConstraint = TiltCurve | OneDimCurve


@lru_cache(maxsize=None)
def constraint_poly(c: CurveConstraint) -> Poly2:
    """Cross-multiplied curve equation as a polynomial P(u, v); the curve is
    its zero set in the positive quadrant."""
    u, v = Poly2.u(), Poly2.v()
    h = c.h
    if isinstance(c, TiltCurve):
        cubic = h * h * u * u * u + 3 * h * (u * u * v) + 3 * (u * v * v)
        return cubic * Fraction(c.alpha, 6) - (h * u + v) * c.beta
    q = c.q
    return (h * (u * u) + 2 * (u * v)) * Fraction(1, 2) - Poly2.const(q)


def admissible_bracket(c: CurveConstraint, vpar) -> tuple[Poly1, RootInterval]:
    """The curve polynomial p = P(., vpar) and a bracket of its admissible
    root u, the smallest positive root: an interval (lo, hi] holding that
    root and no other root of p, with neither end a root, or the exact root
    as a collapsed interval.  Written down, with no root isolation.

    At h = 0 the root is u1/vpar.  Otherwise p(0) < 0 (-beta vpar on the
    tilt curve, -q on the one-dimensional one).  For h != 0, w = hu + v
    turns the tilt curve into w^3 - (6h beta/alpha) w = v^3, and u > 0 is
    w < v (h < 0) or w > v (h > 0).  For h < 0 the left side is increasing
    and exceeds v^3 at w = v; for h > 0 it is convex on w > 0 and below v^3
    at w = v.  Either way the tilt curve has exactly one positive root, and
    it is simple (the left side crosses v^3 there from below, increasing or
    convex), so (0, B] isolates it for the Cauchy bound B.  So it does the
    one-dimensional curve's for h > 0, where the product of the two roots,
    -2q/h, is negative.  For h < 0 both one-dimensional roots,
    2q/(v + sqrt(v^2 + 2hq)) (the admissible one) and
    2q/(v - sqrt(v^2 + 2hq)), are positive, and p(2q/v) = (q/v^2)(v^2 + 2hq)
    is positive (so (0, 2q/v] isolates the admissible root), zero (a double
    root at 2q/v) or negative (no real root).
    """
    vpar = _q(vpar)
    if vpar <= 0:
        raise CurveDomainError("curve solving requires vpar > 0")
    p = constraint_poly(c).eval_v(vpar)
    if c.h == 0:
        root = c.leading_coefficient / vpar
        return p, RootInterval(root, root)
    if isinstance(c, TiltCurve) or c.h > 0:
        return p, RootInterval(Fraction(0), _root_bound(p))
    disc = vpar * vpar + 2 * c.h * c.q
    if disc < 0:
        raise CurveDomainError(f"no positive root on the curve at vpar = {vpar}")
    hi = 2 * c.q / vpar
    return p, RootInterval(Fraction(0) if disc else hi, hi)


def solve_u(c: CurveConstraint, vpar, precision) -> RootInterval:
    """The curve's admissible root u at a fixed v: its smallest positive root.

    The bracket of ``admissible_bracket`` is bisected by the sign of the
    curve polynomial to a certified sign-change interval no wider than
    ``precision``; exact rational roots, and midpoints that are roots, are
    returned as collapsed intervals.
    """
    p, bracket = admissible_bracket(c, vpar)
    precision = _q(precision)
    if precision <= 0:
        raise CurveDomainError("precision must be positive")
    if bracket.exact:
        return bracket
    return _bisect_by_sign(p, bracket.lo, bracket.hi, precision)


def expand_u(c: CurveConstraint, order: int) -> LaurentSeries:
    """Laurent expansion of u(v) through exponent -order.

    At h = 0 the curve is u v = u1 (tilt: u1 = b/a; one-dimensional:
    u1 = q), so the exact monomial u1/v is returned.  Otherwise every
    coefficient is written down in closed form (Lagrange-Buermann
    inversion), with no reversion.  Both curves have w = hu + v = v y(x) at
    x = h u1 / v^2, where y is the power series with y(0) = 1 and

        y^2 = 1 + 2x        (one-dimensional: w^2 = v^2 + 2hq),
        y^3 = 1 + 3xy       (tilt: w^3 - (6h beta/alpha) w = v^3),

    so [x^k] y is 2^k C(1/2, k) = prod_{i<k} (1 - 2i) / k! and
    3^k C((k+1)/3, k) / (k+1) = prod_{i<k} (k + 1 - 3i) / (k+1)! respectively,
    and u = (w - v)/h has the coefficient [x^k] y * u1^k h^(k-1) at
    v^(1-2k).  At k = 1 that is u1 (2 beta/alpha on the tilt curve).

    An h != 0 series never terminates, so its floor is always -order.  On
    the one-dimensional curve the product prod_{i<k} (1 - 2i) never
    vanishes.  On the tilt curve, were u a Laurent polynomial with lowest
    exponent m <= -1, w^3 - v^3 would have its lowest term at v^(3m) and
    (6h beta/alpha) w its lowest at v^m.
    """
    if order < 1:
        raise CurveDomainError("expansion order must be at least 1")
    return _expand_u_cached(c, int(order))


@lru_cache(maxsize=None)
def _expand_u_cached(c: CurveConstraint, order: int) -> LaurentSeries:
    u1 = c.leading_coefficient
    if c.h == 0:
        return LaurentSeries.monomial(-1, u1)
    p = 3 if isinstance(c, TiltCurve) else 2
    terms, power, step = [], u1, u1 * c.h  # power = u1^k h^(k-1)
    for k in range(1, (order + 1) // 2 + 1):
        m = (p - 2) * k + 1
        coeff = Fraction(prod(m - p * i for i in range(k)), factorial(k) * m)
        terms.append((1 - 2 * k, coeff * power))
        power *= step
    return LaurentSeries(terms, -order)


def _cycle_sides(g: BaseGeometry, c: TiltCurve, u, vpar) -> tuple[ChernVector, ChernVector]:
    """The two degree-two cycles whose equality is the compatibility of the
    fixed and moving polarizations, both built through ring products."""
    hb = g.hb_divisor
    obar1 = divisor_vector(g, DivisorX(c.a, g.zero_divisor()))
    obar2 = divisor_vector(g, DivisorX(0, hb.scale(c.b)))
    obar = obar1 + obar2
    om = divisor_vector(g, DivisorX(u, hb.scale(vpar)))
    theta = divisor_vector(g, DivisorX(1, g.zero_divisor()))

    left_cycle = mul(g, obar1, obar1 + obar2.scale(2))
    om3_over6 = mul(g, mul(g, om, om), om).s / 6
    lhs = left_cycle.scale(om3_over6)

    theta_obar2 = mul(g, theta, mul(g, obar, obar)).s
    rhs = mul(g, om, theta).scale(theta_obar2)
    return lhs, rhs


def _symbolic_difference_parts(g: BaseGeometry, c: TiltCurve) -> list[Poly2]:
    """All components of the symbolic cycle difference, as (u, v) polynomials."""
    lhs, rhs = _cycle_sides(g, c, Poly2.u(), Poly2.v())
    diff = lhs - rhs
    scalars = [diff.n, diff.x, diff.a, diff.s]
    scalars.extend(diff.S.coords)
    scalars.extend(diff.eta.coords)
    parts = []
    for value in scalars:
        if isinstance(value, Poly2):
            parts.append(value)
        elif value != 0:
            parts.append(Poly2.const(value))
    return parts


def chow_identity_check(g: BaseGeometry, c: TiltCurve, u, vpar) -> bool:
    """Whether the degree-two cycle identity behind the curve holds at (u, vpar).

    Decided exactly.  For rational u the two cycles are compared directly,
    so the result is True precisely on zeros of the constraint polynomial p.
    A bracketed algebraic u must isolate one root of p at vpar, with neither
    end a root, or ``CurveDomainError`` is raised; one Sturm-Tarski query
    then decides whether the sum of squares of the difference components,
    each reduced mod p, vanishes at that root.
    """
    if g.h != c.h:
        raise ConfigurationError("curve and geometry disagree on h")
    if isinstance(u, RootInterval) and not u.exact:
        p = constraint_poly(c).eval_v(vpar)
        if p(u.lo) == 0 or p(u.hi) == 0 or count_roots(p, u.lo, u.hi) != 1:
            raise CurveDomainError("bracket does not isolate a single root of the curve")
        reduced = [part.eval_v(vpar).divmod(p)[1] for part in _symbolic_difference_parts(g, c)]
        return sign_at_root(sum(r * r for r in reduced), p, u) == 0
    if isinstance(u, RootInterval):
        u = u.lo
    lhs, rhs = _cycle_sides(g, c, _q(u), _q(vpar))
    return lhs == rhs


def chow_identity_symbolic_remainder(g: BaseGeometry, c: TiltCurve) -> list[Poly2]:
    """Remainders of the symbolic cycle difference modulo the curve polynomial.

    The cycle computation runs with symbolic (u, v) scalars; the identity is
    exactly the statement that every returned remainder is zero.
    """
    return [reduce_mod_u(part, constraint_poly(c)) for part in _symbolic_difference_parts(g, c)]
