"""The two polarization-limit curves in the (v, u) quarter plane.

The tilt curve ties a fixed polarization a*Theta + b*pull(H) to the moving
one u*Theta + v*pull(H) through

    a(ha+2b) / (ha+b)^2 = (hu+v) / ((1/6) u (h^2 u^2 + 3huv + 3v^2)),

the one-dimensional curve is h + z/y = (1/2) u (hu + 2v).  Both are handled
through their cross-multiplied polynomial forms.  Root finding is Sturm
isolation plus dyadic bisection on the sign of the curve polynomial,
evaluated exactly in integers; the curve point over v is the smallest
positive root, by proof.  The cycle identity behind the tilt curve is
decided exactly, at algebraic points by one Sturm-Tarski query.  The
expansion of u as a Laurent series in 1/v is obtained by reverting the
polynomial term by term, each step cancelling the current leading residual.
The reversion runs on a series truncated at the requested order from its
first term, evaluates the curve polynomial by Horner's rule in u, and
divides by the derivative's leading term, computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ComputationFault, ConfigurationError, CurveDomainError
from .poly import (
    Poly2,
    RootInterval,
    count_roots,
    isolate_positive_roots,
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
    def leading_coefficient(self) -> Fraction:
        """First expansion coefficient u1 = 2 (ha+b)^2 / (a (ha+2b))."""
        return 2 * (self.h * self.a + self.b) ** 2 / (self.a * (self.h * self.a + 2 * self.b))


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
        alpha = c.a * (h * c.a + 2 * c.b)
        beta = (h * c.a + c.b) ** 2
        cubic = h * h * u * u * u + 3 * h * (u * u * v) + 3 * (u * v * v)
        return cubic * Fraction(alpha, 6) - (h * u + v) * beta
    q = c.q
    return (h * (u * u) + 2 * (u * v)) * Fraction(1, 2) - Poly2.const(q)


def solve_u(c: CurveConstraint, vpar, precision) -> RootInterval:
    """The curve's admissible root u at a fixed v: its smallest positive root.

    Exact rational roots are returned with a collapsed interval; otherwise
    the root is bracketed by a certified sign-change interval no wider than
    ``precision``.  For h != 0, w = hu + v turns the tilt curve into
    w^3 - (6h beta/alpha) w = v^3, and u > 0 is w < v (h < 0) or w > v
    (h > 0).  For h < 0 the left side is increasing and exceeds v^3 at
    w = v; for h > 0 it is convex on w > 0 and below v^3 at w = v.  Either
    way the tilt curve has exactly one positive root.  The one-dimensional
    curve's admissible root, 2q/(v + sqrt(v^2 + 2hq)), is its smaller
    positive root (for h < 0 the other is 2q/(v - sqrt(v^2 + 2hq))).
    """
    vpar = _q(vpar)
    precision = _q(precision)
    if vpar <= 0:
        raise CurveDomainError("curve solving requires vpar > 0")
    if precision <= 0:
        raise CurveDomainError("precision must be positive")

    if c.h == 0:
        root = c.leading_coefficient / vpar
        return RootInterval(root, root)

    roots = isolate_positive_roots(constraint_poly(c).eval_v(vpar), precision)
    if not roots:
        raise CurveDomainError(f"no positive root on the curve at vpar = {vpar}")
    return roots[0]


def expand_u(c: CurveConstraint, order: int) -> LaurentSeries:
    """Laurent expansion of u(v) through exponent -order.

    At h = 0 the curve is u v = u1 (tilt: u1 = b/a; one-dimensional:
    u1 = q), so the exact monomial u1/v is returned.  Otherwise u is reverted
    term by term: each step cancels the leading residual of the curve
    polynomial using the derivative's leading term, which is the single
    monomial (alpha/2) v^2 (tilt) or v (one-dimensional) for every u ~ u1/v.
    The working series carries the floor -order from its first term, so
    only products that reach a kept coefficient are formed; the residual's
    floor is 2 - order (tilt) or 1 - order (one-dimensional), exactly the
    exponent a correction at v^-order needs.

    An h != 0 series never terminates, so its floor is always -order.  On
    the one-dimensional curve u = (sqrt(v^2 + 2hq) - v)/h with q > 0, and
    the binomial series of sqrt(1 + 2hq/v^2) has a nonzero term at every
    even exponent.  On the tilt curve
    w = hu + v turns the equation into w^3 - (6h beta/alpha) w = v^3, and
    were u a Laurent polynomial with lowest exponent m <= -1, the left side
    minus v^3 would have its lowest term at v^(3m) and (6h beta/alpha) w its
    lowest at v^m.
    """
    if order < 1:
        raise CurveDomainError("expansion order must be at least 1")
    return _expand_u_cached(c, int(order))


@lru_cache(maxsize=None)
def _expand_u_cached(c: CurveConstraint, order: int) -> LaurentSeries:
    u0 = LaurentSeries.monomial(-1, c.leading_coefficient)
    if c.h == 0:
        return u0
    poly = constraint_poly(c)
    dpoly = Poly2.from_ucoefficients(
        [(k + 1) * poly.ucoefficient(k + 1) for k in range(poly.udegree())]
    )
    deriv_lead = _eval_poly2_series(dpoly, u0).leading()
    if deriv_lead is None:
        raise ComputationFault("degenerate curve: derivative vanishes along the expansion")
    u = u0.truncate(-order)
    # Corrections sit at strictly falling exponents in [-order, -2], so the
    # order-th step at the latest finds nothing left to cancel.
    for _ in range(order):
        lead = _eval_poly2_series(poly, u).leading()
        if lead is None:
            return u
        exp = lead[0] - deriv_lead[0]
        if exp < -order:
            return u
        u = u + LaurentSeries.monomial(exp, -lead[1] / deriv_lead[1])
    raise ComputationFault("reversion did not reach the truncation floor")


def _eval_poly2_series(p: Poly2, u: LaurentSeries) -> LaurentSeries:
    """Evaluate a (u, v)-polynomial at u = series, v = the series variable,
    by Horner's rule in u over the rows p_k(v) of p = sum_k p_k(v) u^k."""
    rows: dict[int, dict[int, Fraction]] = {}
    for (i, j), coeff in p.terms.items():
        rows.setdefault(i, {})[j] = coeff
    total = LaurentSeries.zero()
    for k in range(p.udegree(), -1, -1):
        total = total * u + LaurentSeries._normal(rows.get(k, {}), None)
    return total


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
