"""The two polarization-limit curves in the (v, u) quarter plane.

The tilt curve ties a fixed polarization a*Theta + b*pull(H) to the moving
one u*Theta + v*pull(H) through

    alpha / beta = a(ha+2b) / (ha+b)^2 = (hu+v) / ((1/6) u (h^2 u^2 + 3huv + 3v^2)),

the one-dimensional curve is h + z/y = (1/2) u (hu + 2v).  Both are handled
through their cross-multiplied polynomial forms, written once as an integer
table of numerators at u^i v^j over one denominator (``_curve_table``):
read homogeneously at a rational v = n/d it is the curve polynomial in u
(``_curve_row``), and as monomials the symbolic ``constraint_poly``.  The
curve point over v is the smallest positive root, by proof, and a bracket
isolating it is written down in closed form from that row as integers
(``_admissible_cell``: the Cauchy bound, or 2q/v on the one-dimensional
curve with h < 0); solving refines that bracket on the dyadic grid by the
sign of the curve polynomial (the one-dimensional curve's quadratic cell
written down by an integer square root, the tilt curve's cubic by
quadratic interval refinement), on integer numerators throughout, with no
Sturm isolation.  The cycle identity behind the tilt curve is decided
exactly on integer numerators of ring products kept per curve and per
geometry (``_fixed_cycles``, ``_omega_products``), with no ring or
polynomial product at a point, and at an algebraic point by one gcd of the
cycle parts' remainders and one Sturm count (``poly.vanish_at_root``).
The expansion of u
as a Laurent series in 1/v is written down coefficient by coefficient: with
w = hu + v both curves become w = v y(h u1 / v^2) for a power series y
solving y^2 = 1 + 2x or y^3 = 1 + 3xy, whose coefficients Lagrange
inversion gives as products of integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from .errors import ConfigurationError, CurveDomainError
from .poly import (
    Poly1,
    Poly2,
    RootInterval,
    _cauchy_bound,
    _grid,
    _isolates_one_root,
    _positive,
    _refined,
    reduce_mod_u,
    vanish_at_root,
)
from .ring import (
    BaseGeometry,
    ChernVector,
    _contract,
    _kept,
    _point_constants,
    _q,
    mul,
)
from .series import LaurentSeries


@dataclass(frozen=True)
class TiltCurve:
    """Curve for comparing slope data at a*Theta + b*pull(H) with the
    moving polarization; requires a, b > 0, ha + 2b > 0 and ha + b != 0.
    alpha = a(ha + 2b), beta = (ha + b)^2 and the hash are computed at
    construction, the checks and alpha and beta on the numerators of h, a
    and b."""

    h: Fraction
    a: Fraction
    b: Fraction
    alpha: Fraction = field(init=False, compare=False, repr=False)
    beta: Fraction = field(init=False, compare=False, repr=False)

    def __init__(self, h, a, b):
        h, a, b = _q(h), _q(a), _q(b)
        (hn, hd), (an, ad), (bn, bd) = ((x.numerator, x.denominator) for x in (h, a, b))
        if an <= 0 or bn <= 0:
            raise ConfigurationError("tilt curve: a and b must be positive")
        s0 = hn * an * bd + bn * hd * ad  # (ha + b) hd ad bd
        s1 = s0 + bn * hd * ad  # (ha + 2b) hd ad bd
        if s1 <= 0:
            raise ConfigurationError("tilt curve: requires h*a + 2*b > 0")
        if s0 == 0:
            raise ConfigurationError("tilt curve: requires h*a + b != 0")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", Fraction(an * s1, ad * hd * ad * bd))
        object.__setattr__(self, "beta", Fraction(s0 * s0, (hd * ad * bd) ** 2))
        object.__setattr__(self, "_hash", hash((h, a, b)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def leading_coefficient(self) -> Fraction:
        """First expansion coefficient u1 = 2 beta / alpha."""
        return 2 * self.beta / self.alpha


@dataclass(frozen=True)
class OneDimCurve:
    """Curve for one-dimensional classes: h + z/y = (1/2) u (hu + 2v);
    requires y, z > 0 and h + z/y > 0.  q = h + z/y and the hash are
    computed at construction, q and its check on the numerators of h, y
    and z."""

    h: Fraction
    y: Fraction
    z: Fraction
    q: Fraction = field(init=False, compare=False, repr=False)

    def __init__(self, h, y, z):
        h, y, z = _q(h), _q(y), _q(z)
        (hn, hd), (yn, yd), (zn, zd) = ((x.numerator, x.denominator) for x in (h, y, z))
        if yn <= 0 or zn <= 0:
            raise ConfigurationError("one-dimensional curve: y and z must be positive")
        qn = hn * zd * yn + zn * yd * hd  # (h + z/y) hd zd yn
        if qn <= 0:
            raise ConfigurationError("one-dimensional curve: requires h + z/y > 0")
        q = Fraction(qn, hd * zd * yn)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_hash", hash((h, y, z)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def leading_coefficient(self) -> Fraction:
        return self.q


CurveConstraint = TiltCurve | OneDimCurve


def _curve_table(c: CurveConstraint) -> tuple[list[list[int]], int]:
    """The cross-multiplied curve equation P(u, v), the one place it is
    written: rows[i][j] is the numerator at u^i v^j over one den > 0.

    Tilt: (alpha/6) u (h^2 u^2 + 3huv + 3v^2) - beta (hu + v), over
    6 ad bd hd^2 for alpha = an/ad, beta = bn/bd and h = hn/hd;
    one-dimensional: (h/2) u^2 + uv - q, over 2 hd qd for q = qn/qd.
    """
    hn, hd = c.h.numerator, c.h.denominator
    if isinstance(c, TiltCurve):
        an, ad = c.alpha.numerator, c.alpha.denominator
        bn, bd = c.beta.numerator, c.beta.denominator
        s, t = 6 * ad * bn * hd, 3 * an * bd * hd
        return [[0, -s * hd], [-s * hn, 0, t * hd], [0, t * hn], [an * bd * hn * hn]], 6 * ad * bd * hd * hd
    qn, qd = c.q.numerator, c.q.denominator
    return [[-2 * hd * qn], [0, 2 * hd * qd], [hn * qd]], 2 * hd * qd


def _curve_row(c: CurveConstraint, vpar: Fraction) -> Poly1:
    """The curve polynomial P(., vpar) at vpar = n/d: each row of the table
    read homogeneously, as d^top times its value, over den d^top."""
    rows, den = _curve_table(c)
    n, d = vpar.numerator, vpar.denominator
    top = max(map(len, rows)) - 1
    powers = [n**j * d ** (top - j) for j in range(top + 1)]
    return Poly1._ints([sum(x * y for x, y in zip(row, powers)) for row in rows], den * d**top)


@lru_cache(maxsize=None)
def constraint_poly(c: CurveConstraint) -> Poly2:
    """Cross-multiplied curve equation as a polynomial P(u, v); the curve is
    its zero set in the positive quadrant."""
    rows, den = _curve_table(c)
    return Poly2._ints({(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}, den)


def admissible_bracket(c: CurveConstraint, vpar) -> tuple[Poly1, RootInterval]:
    """The curve polynomial p = P(., vpar) and a bracket of its admissible
    root u, the smallest positive root: an interval (lo, hi] holding that
    root and no other root of p, with neither end a root, or the exact root
    as a collapsed interval.  Its ends are those ``_admissible_cell``
    writes down from p's integer row, with no root isolation."""
    p, lo, hi, den = _admissible_cell(c, _q(vpar))
    if lo == hi:
        root = Fraction(lo, den)
        return p, RootInterval(root, root)
    return p, RootInterval(Fraction(lo, den), _grid(lo, hi - lo, den, 1, 0))


def _admissible_cell(c: CurveConstraint, vpar: Fraction) -> tuple[Poly1, int, int, int]:
    """``admissible_bracket``'s p and ends as integers (p, a, b, den): the
    bracket (a/den, b/den] with den > 0, and a = b for the exact root.

    At h = 0, p = p0 + p1 u is linear and its root is u1/vpar.  Otherwise
    p(0) < 0 (-beta vpar on the tilt curve, -q on the one-dimensional one).
    For h != 0, w = hu + v turns the tilt curve into
    w^3 - (6h beta/alpha) w = v^3, and u > 0 is w < v (h < 0) or w > v
    (h > 0).  For h < 0 the left side is increasing and exceeds v^3 at
    w = v; for h > 0 it is convex on w > 0 and below v^3 at w = v.  Either
    way the tilt curve has exactly one positive root, and it is simple (the
    left side crosses v^3 there from below, increasing or convex), so
    (0, B] isolates it for the Cauchy bound B.  So it does the
    one-dimensional curve's for h > 0, where the product of the two roots,
    -2q/h, is negative.  For h < 0 both one-dimensional roots,
    2q/(v + sqrt(v^2 + 2hq)) (the admissible one) and
    2q/(v - sqrt(v^2 + 2hq)), are positive, and p(2q/v) = (q/v^2)(v^2 + 2hq)
    is positive (so (0, 2q/v] isolates the admissible root), zero (a double
    root at 2q/v) or negative (no real root).  On p's row (p0, p1, p2),
    2q/v = -2 p0/p1 and p1^2 - 4 p0 p2 is v^2 + 2hq times a positive square;
    p1, the u-coefficient vpar (times a positive factor), is positive.
    """
    if vpar <= 0:
        raise CurveDomainError("curve solving requires vpar > 0")
    p = _curve_row(c, vpar)
    row = p._nums
    if c.h == 0:
        return p, -row[0], -row[0], row[1]
    if isinstance(c, TiltCurve) or c.h > 0:
        bn, bd = _cauchy_bound(row)
        return p, 0, bn, bd
    p0, p1, p2 = row
    disc = p1 * p1 - 4 * p0 * p2
    if disc < 0:
        raise CurveDomainError(f"no positive root on the curve at vpar = {vpar}")
    return p, 0 if disc else -2 * p0, -2 * p0, p1


def solve_u(c: CurveConstraint, vpar, precision) -> RootInterval:
    """The curve's admissible root u at a fixed v: its smallest positive root.

    The bracket of ``_admissible_cell`` is refined straight from its
    integer ends on the sign of the curve polynomial (``poly._refined``:
    the bisection's dyadic grid, on a few exact integer evaluations) to a
    certified sign-change interval no wider than ``precision``, the same
    interval bisection gives: the one-dimensional curve's quadratic cell is
    written down by an integer square root, the tilt curve's cubic refined
    by quadratic interval refinement.  Exact rational roots, and grid
    points that are roots, are returned as collapsed intervals.
    """
    p, lo, hi, den = _admissible_cell(c, _q(vpar))
    precision = _positive(precision)
    if lo == hi:
        root = Fraction(lo, den)
        return RootInterval(root, root)
    return _refined(p, lo, hi - lo, den, precision)


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

    ``order`` is checked by ``_whole_order``.  The germ cache
    ``asymptotics._charge_germs`` is where an expansion is reused.
    """
    return _expand_u_cached(c, _whole_order(order))


def _whole_order(order) -> int:
    """A series order as an int: a whole number at least 1 of any exact
    type; a float raises ``TypeError`` (``ring._q``), any other value
    ``CurveDomainError``.  An int is checked as it is, so that a cold
    expansion builds no ``Fraction``."""
    order = order if type(order) is int else _q(order)
    if order < 1:
        raise CurveDomainError("expansion order must be at least 1")
    if order.denominator != 1:
        raise CurveDomainError(f"expansion order must be a whole number, not {order}")
    return order.numerator


@lru_cache(maxsize=None)
def _expand_u_cached(c: CurveConstraint, order: int) -> LaurentSeries:
    """``expand_u``'s coefficients [x^k] y * u1^k h^(k-1) = N_k/D_k *
    u1^k h^(k-1) at v^(1-2k), k = 1..K, as integer numerators over one
    denominator, lcm(D) b^K hd^(K-1) for u1 = a/b and h = hn/hd."""
    u1 = c.leading_coefficient
    a, b = u1.numerator, u1.denominator
    if c.h == 0:
        return LaurentSeries._ints({-1: a}, b, None)
    p = 3 if isinstance(c, TiltCurve) else 2
    hn, hd = c.h.numerator, c.h.denominator
    K = (order + 1) // 2
    ratios = []  # (N_k, D_k)
    for k in range(1, K + 1):
        m = (p - 2) * k + 1
        ratios.append((prod(m - p * i for i in range(k)), factorial(k) * m))
    common = lcm(*(d for _, d in ratios))
    nums, up, down = {}, a, (b * hd) ** (K - 1)  # up = a^k hn^(k-1), down = (b hd)^(K-k)
    for k, (n, d) in enumerate(ratios, 1):
        nums[1 - 2 * k] = n * (common // d) * up * down
        up *= a * hn
        down //= b * hd
    return LaurentSeries._ints(nums, common * b * (b * hd) ** (K - 1), -order)


@lru_cache(maxsize=None)
def _fixed_cycles(g: BaseGeometry, c: TiltCurve) -> tuple[ChernVector, ChernVector, ChernVector, Fraction]:
    """The ring products of the fixed polarization obar = obar1 + obar2
    alone, obar1 = a Theta and obar2 = b pull(H): obar1 (obar1 + 2 obar2),
    theta, obar^2 and the degree of theta obar^2, each summed on numerators
    as a^2, 2ab and b^2 times the products of Theta and pull(H) that
    ``_theta_h_products`` keeps on g."""
    theta, _, (t2, th, hh), n, (e1, e2, e3), m = _kept(g, _theta_h_products)
    (an, ad), (bn, bd) = (c.a.numerator, c.a.denominator), (c.b.numerator, c.b.denominator)
    ca, cab, cb, den = an * an * bd * bd, 2 * an * bn * ad * bd, bn * bn * ad * ad, ad * ad * bd * bd
    left = [ca * x + cab * y for x, y in zip(t2, th)]
    obar_sq = [x + cb * z for x, z in zip(left, hh)]
    return (ChernVector._ints(left, den * n), theta, ChernVector._ints(obar_sq, den * n),
            Fraction(ca * e1 + cab * e2 + cb * e3, den * m))


def _theta_h_products(g: BaseGeometry) -> tuple:
    """Theta (the basis class, over 1) and pull(H) as vectors, the
    numerators of Theta^2, Theta pull(H) and pull(H)^2 over one denominator
    n, and of their degrees against Theta over m; pull(H) from g's integer
    field ``hb_nums``."""
    hn, hd = g.hb_nums
    theta = ChernVector._ints([0, 1, *[0] * (2 * g.rank + 2)], 1)  # the basis class Theta
    hb = ChernVector._ints([0, 0, *hn, *[0] * (g.rank + 2)], hd)  # pull(H)
    products = [mul(g, theta, theta), mul(g, theta, hb), mul(g, hb, hb)]
    n = lcm(*(v._den for v in products))
    rows = [[t * (n // v._den) for t in v._nums] for v in products]
    return theta, hb, rows, n, *_pairings(g, [(theta._nums, row) for row in rows], n)


def _pairings(g: BaseGeometry, pairs: list, den: int) -> tuple[list, int]:
    """deg(x y) for the pairs (x, y) of numerators over one common den, x on
    the left as ``ring._degree_numerator`` pairs them: integers over their
    least common denominator, as ``ring._over_common_denominator`` gives."""
    points = _kept(g, _point_constants)
    totals = [_contract(points, (x, 1), (y, 1))[0][0] for x, y in pairs]
    den *= points[1]
    content = gcd(den, *totals)
    return [t // content for t in totals], den // content


def _omega_products(g: BaseGeometry) -> tuple:
    """What the cycle identity reads of omega = u Theta + v pull(H), kept on
    g: the numerators of omega Theta's terms Theta^2 and pull(H) Theta over
    one den, and of deg(omega^3)'s coefficients at u^(3-j) v^j over m,
    summed from the products of Theta and pull(H) (``_theta_h_products``
    and pull(H) Theta) in the ring path's argument order, so exact for any
    structure constants."""
    theta, hb, (t2, th, hh), n, _, _ = _kept(g, _theta_h_products)
    h_theta = mul(g, hb, theta)
    den = lcm(n, h_theta._den)
    squares = [[x * (den // n) for x in t2], [x * (den // n) for x in th],
               [x * (den // h_theta._den) for x in h_theta._nums], [x * (den // n) for x in hh]]
    xs = [[t * hb._den for t in theta._nums], hb._nums]  # Theta (over 1) and pull(H) over hb's den
    # square q is X_a X_b for (a, b) = divmod(q, 2), X_0 = Theta, X_1 = pull(H)
    degrees, m = _pairings(g, [(square, x) for square in squares for x in xs], den * hb._den)
    cube = [0] * 4
    for i, d in enumerate(degrees):
        q, c = divmod(i, 2)
        cube[sum(divmod(q, 2)) + c] += d
    content = gcd(m, *cube)
    return squares[0], squares[2], den, [x // content for x in cube], m // content


def _cycle_numerators(g: BaseGeometry, c: TiltCurve) -> tuple:
    """The two cycles as integers: at omega = u Theta + v pull(H), flat
    coordinate k of the left cycle is left_k W(u, v) / (6 m ld) and of the
    right one T (u tt_k + v ht_k) / n, for W(u, v) = sum_j cube_j u^(3-j) v^j
    and T = tn / td; returns (left, ld, tn, td, tt, ht, n, cube, m)."""
    left_cycle, _, _, t = _fixed_cycles(g, c)
    return (left_cycle._nums, left_cycle._den, t.numerator, t.denominator, *_kept(g, _omega_products))


@lru_cache(maxsize=None)
def _symbolic_difference_parts(g: BaseGeometry, c: TiltCurve) -> tuple[Poly2, ...]:
    """All components of the symbolic cycle difference, as (u, v)
    polynomials in the order (n, x, a, s, S..., eta...), each written as one
    ``Poly2._ints`` from ``_cycle_numerators`` over 6 m ld td n."""
    left, ld, tn, td, tt, ht, n, cube, m = _cycle_numerators(g, c)
    lw, rw = td * n, 6 * m * ld * tn
    parts = [Poly2._ints({**{(3 - j, j): x * cj * lw for j, cj in enumerate(cube)}, (1, 0): -a * rw, (0, 1): -b * rw},
                         6 * m * ld * td * n) for x, a, b in zip(left, tt, ht)]
    return (*parts[:2], *parts[-2:], *parts[2:-2])


def chow_identity_check(g: BaseGeometry, c: TiltCurve, u, vpar) -> bool:
    """Whether the degree-two cycle identity behind the curve holds at (u, vpar).

    Decided exactly.  For rational u the two cycles are compared on
    integers: with u = U/D and vpar = V/D, the numerators of
    ``_cycle_numerators`` cross-multiplied, so the result is True precisely
    on zeros of the constraint polynomial p.  A bracketed algebraic u must
    isolate one root of p at vpar, with neither end a root, or
    ``CurveDomainError`` is raised (``poly._isolates_one_root``: one
    squarefree Sturm chain, its head read at both ends); then
    ``poly.vanish_at_root`` decides whether every component of the
    difference vanishes at that root: the
    components' remainders mod p fold into one gcd with p, and one Sturm
    count of that gcd on the bracket, when it is neither constant nor p,
    answers.
    """
    if g.h != c.h:
        raise ConfigurationError("curve and geometry disagree on h")
    if isinstance(u, RootInterval) and not u.exact:
        p = _curve_row(c, _q(vpar))
        if not _isolates_one_root(p, u.lo, u.hi):
            raise CurveDomainError("bracket does not isolate a single root of the curve")
        return vanish_at_root((part.eval_v(vpar) for part in _symbolic_difference_parts(g, c)), p, u)
    if isinstance(u, RootInterval):
        u = u.lo
    u, vpar = _q(u), _q(vpar)
    left, ld, tn, td, tt, ht, n, cube, m = _cycle_numerators(g, c)
    U, V, D = u.numerator * vpar.denominator, vpar.numerator * u.denominator, u.denominator * vpar.denominator
    lw = sum(cj * U ** (3 - j) * V**j for j, cj in enumerate(cube)) * td * n  # left over 6 m ld td n D^3
    rw = 6 * m * ld * tn * D * D  # right over the same
    return all(x * lw == (U * a + V * b) * rw for x, a, b in zip(left, tt, ht))


def chow_identity_symbolic_remainder(g: BaseGeometry, c: TiltCurve) -> list[Poly2]:
    """Remainders of the symbolic cycle difference modulo the curve polynomial.

    The cycle computation runs with symbolic (u, v) scalars; the identity is
    exactly the statement that every returned remainder is zero.
    """
    return [reduce_mod_u(part, constraint_poly(c)) for part in _symbolic_difference_parts(g, c)]
