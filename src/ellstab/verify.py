"""Theorem-level numeric identity and correspondence checks, each run by a
suite in ``suites``.

Everything here restates a proved relation at the level where it is
literally computable from Chern data: an exact imaginary-part identity
along the tilt curve, the threshold biconditional comparing a
one-dimensional class against a positive-rank class, the slope-to-phase
correspondence for transforms of one-dimensional classes, and the
parameter independence of comparisons when h = 0, decided on the exact
cross of the charges along the curve.  Membership of an object in a
category is always a caller assertion; only the numeric consequences are
checked.
"""

from __future__ import annotations

from math import lcm

from .asymptotics import ChargeKind, _check_rational, _cross_coefficients, _germ_verdict
from .charges import _germ_rows, _require_positive, _symbol_im, _symbol_rows
from .curves import OneDimCurve, TiltCurve, _fixed_cycles, constraint_poly
from .errors import ComputationFault, DimensionError, DomainError
from .fmt import _a3_table, phi
from .poly import Poly2, _evaluated, _reduced_mod_u
from .ring import (
    _RATIONAL,
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    _contract,
    _degree_numerator,
    _half_canonical_exp,
    _kept,
    degree,
    divisor_vector,
    mul,
    pair_h,
)
from .slopes import SlopeKind, slope


def _im_identity_sides(g: BaseGeometry, e: ChernVector, c: TiltCurve, u, vpar) -> tuple:
    """The two sides of the imaginary-part identity, both scaled by
    Theta.Obar^2: the left through the transform and the proved reduced
    closed form, the right from the twisted degree-one pairing against the
    fixed polarization Obar = a Theta + b pull(H).  Both are the integer
    monomial rows of ``_symbolic_sides``, read at every point: at a
    rational (u, vpar), both positive, each side is one ``Fraction``
    (``poly._evaluated``); at the symbols (u, vpar) one ``Poly2``.  Any
    other point raises ``DomainError``, as does a class that is not
    rational."""
    sides = _symbolic_sides(g, e, c)
    if isinstance(u, _RATIONAL) and isinstance(vpar, _RATIONAL):
        _require_positive("u", u)
        _require_positive("vpar", vpar)
        return tuple(_evaluated(row, den, u, vpar) for row, den in sides)
    if type(u) is not Poly2 or (u, vpar) != _kept(g, _germ_rows)[0]:
        raise DomainError("the im identity is read at a rational point or at the symbols (u, vpar)")
    return tuple(Poly2._ints(*side) for side in sides)


def _fixed_terms(g: BaseGeometry, e: ChernVector, c: TiltCurve) -> tuple:
    """What the identity reads of e and the curve apart from the point, as
    integers: Theta.Obar^2 (tn / td), Obar^2 . ch1^B (``ring._degree_numerator``
    on e twisted by the half-canonical field) and a3(e) (the kept row
    ``fmt._a3_table``), each as numerator and den.  A curve of another h
    raises ``DomainError``."""
    if g.h != c.h:
        raise DomainError("curve and geometry disagree on h")
    _, _, obar2, theta_obar2 = _fixed_cycles(g, c)
    tw = mul(g, _kept(g, _half_canonical_exp), e)  # the twist by the half-canonical field
    ch1b, ch1b_den = _degree_numerator(g, obar2, tw)
    (a3,), a3_den = _contract(_kept(g, _a3_table), (e._nums, e._den), ((1,), 1))
    return theta_obar2.numerator, theta_obar2.denominator, ch1b, ch1b_den, a3, a3_den


def _symbolic_sides(g: BaseGeometry, e: ChernVector, c: TiltCurve) -> tuple:
    """The two sides as polynomials in (u, vpar) for a rational e, each as
    (monomial row, den): the left is -Theta.Obar^2 times the reduced
    charge's im of the transform, read after the closed form's proof
    (``charges._symbol_im``), the right deg(w^3) / 6 (the kept rows of
    ``charges._symbol_rows``) times Obar^2 . ch1^B, minus u a3(e)
    Theta.Obar^2.  A class that is not rational raises ``DomainError``."""
    tn, td, ch1b, ch1b_den, a3, a3_den = _fixed_terms(g, e, c)
    _check_rational(e)
    im, den = _symbol_im(g, phi(g, e))
    cube, m = _kept(g, _symbol_rows)[2]
    rhs = {key: x * ch1b * a3_den * td for key, x in cube.items() if ch1b}
    if a3:
        rhs[1, 0] = -6 * m * ch1b_den * a3 * tn  # u, a monomial that deg(w^3) has not
    return ({key: -x * tn for key, x in im.items()}, den * td), (rhs, 6 * m * ch1b_den * a3_den * td)


def im_identity_check(g: BaseGeometry, e: ChernVector, c: TiltCurve, u, vpar) -> bool:
    """Exact identity for the imaginary part of the reduced charge of the
    shifted transform along the tilt curve.

    Both sides are evaluated independently: the left through the transform
    and the reduced closed form, which ``charges.prove_closed_form`` checks
    against ring products once per geometry, the right from the twisted
    degree-one pairing against the fixed polarization.  Off the curve the
    two sides differ for generic input, so the return value is the
    pointwise truth of the identity.  Holds for every input on the curve,
    including x = 0.  The point is rational, with u and vpar positive, or
    the symbols (u, vpar); the class is rational.  Anything else raises
    ``DomainError``, as does a curve of another h.
    """
    lhs, rhs = _im_identity_sides(g, e, c, u, vpar)
    return lhs == rhs


def im_identity_symbolic_remainders(g: BaseGeometry, e: ChernVector, c: TiltCurve) -> list[Poly2]:
    """Reduction of the identity's two sides against the curve polynomial.

    The difference, cleared of its constant denominator, is a polynomial
    multiple of the constraint polynomial; the returned remainders are zero
    exactly when the identity holds on the whole curve.  The sides are the
    integer rows of ``_symbolic_sides``, and their difference is reduced
    on integer u-rows (``poly._reduced_mod_u``), one ``Poly2`` built.  A
    curve of another h raises ``DomainError``, a class that is not rational
    ``DomainError``.
    """
    (lhs, lden), (rhs, rden) = _symbolic_sides(g, e, c)
    diff = {key: n * rden for key, n in lhs.items()}
    for key, n in rhs.items():
        diff[key] = diff.get(key, 0) - n * lden
    return [_reduced_mod_u({key: n for key, n in diff.items() if n}, lden * rden, constraint_poly(c))]


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
    Off the boundary the germ comparison at ``order`` must match the strict
    inequality on both sides; at exact equality the cross of the two
    charges must have no coefficient at v^1, the controlled leading order
    (and the largest the cross can carry), finer orders being outside the
    statement's scope.  Both are read off the cross table
    (``asymptotics._germ_verdict``: the verdict of ``compare_phases`` on
    the ``charge_series`` germs, and the exponent of their leading cross
    coefficient).
    """
    _check_rational(t, e)
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
    # mu_e pairs e with w^2 exp(-B); on e twisted by the kept exp(-B) it is
    # w^2 . ch1 / ch0 by definition, a guard on the ring's unit products
    tw = mul(g, _kept(g, _half_canonical_exp), e)
    om = divisor_vector(g, obar)
    if degree(g, mul(g, om, om), tw) != mu_e.finite * tw.n:
        raise ComputationFault("the twisted slope of e disagrees with its definition")
    threshold = 2 * mu_e.finite / (c.alpha * g.hb2)

    verdict, lead = _germ_verdict(g, phi(g, t), -phi(g, e), c, ChargeKind.REDUCED, order)

    if mu_t.finite < threshold:
        return verdict.is_prec
    if mu_t.finite > threshold:
        return verdict.is_succ
    # v^1 is the order the statement controls, the largest the cross can carry
    return lead is None or lead < 1


def _twisted_degree_weights(g: BaseGeometry, y, z) -> list[int]:
    """Integers w such that, for rational y and z, w . (eta, a) is the
    twisted degree (h y + z)(H.eta) + y a of a one-dimensional class times
    hd yd zd L > 0 (h = hn/hd, y = yn/yd, z = zn/zd, and L the least common
    denominator of ``g.hb_row``), so its sign reads off numerators."""
    (hn, hd), (yn, yd), (zn, zd) = ((x.numerator, x.denominator) for x in (g.h, y, z))
    row = [(c.numerator, c.denominator) for c in g.hb_row]
    L = lcm(*(d for _, d in row))
    twisted = hn * yn * zd + zn * hd * yd  # (h y + z) hd yd zd
    return [twisted * n * (L // d) for n, d in row] + [yn * hd * zd * L]


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
    _check_rational(m, n)
    curve = OneDimCurve(g.h, y, z)
    obar = DivisorX(curve.y, g.hb_divisor.scale(curve.z))
    kind = SlopeKind.mu_bar(obar, dbar)
    d = dbar + g.hb_divisor.scale(g.h / 2)
    weights = _twisted_degree_weights(g, curve.y, curve.z)

    values = []
    for v in (m, n):
        nums, r = v._nums, v.rank_lattice
        if any(nums[: 2 + r]):
            raise DomainError("inputs must be one-dimensional classes")
        if r != g.rank:
            raise DimensionError("vector rank does not match geometry rank")
        if sum(w * t for w, t in zip(weights, nums[2 + r :])) <= 0:
            raise DomainError("inputs require a positive twisted degree")
        values.append(slope(g, kind, v))
    mu_m, mu_n = values

    verdict = _germ_verdict(g, phi(g, m), phi(g, n), curve, ChargeKind.FULL, order, d)[0]
    strict_ok = verdict.is_prec == (mu_m < mu_n)
    nonstrict_ok = (not verdict.is_succ) == (mu_m <= mu_n)
    return strict_ok and nonstrict_ok


def h0_independence_check(
    g: BaseGeometry, m: ChernVector, n: ChernVector, y, z, d: DivisorB
) -> bool:
    """For h = 0 the comparison of charges of the flat numeric shape is the
    same at every curve point, with sign given by the constant parts.

    Decided exactly, over all v > 0.  The curve is u = q/v, which
    ``expand_u`` gives as the exact monomial, so the coefficients of the
    cross re(M) im(N) - im(M) re(N) of the full charges that
    ``asymptotics._cross_coefficients`` reads are exact, finitely many, and
    those of the exact cross value X(q/v, v) along the curve.  It must have
    no term but v^-1: the cross value is then X(q, 1)/v, of one fixed sign
    (or zero identically), the sign at (u, v) = (q, 1), where the charges
    are their v-independent parts with Im scaled by q > 0.  A zero class
    has a zero cross, so it passes.

    This checks the shape of the full charge, not its values (those are the
    reduced closed form's on the product by exp(-pull(d)), which
    ``prove_closed_form`` guards).  With eta = 0, Re is constant along the curve and Im is u times
    a constant, so the cross is a multiple of 1/v whatever the coefficients
    are, and the same holds at every h.
    """
    if g.h != 0:
        raise DomainError("this check applies only to h = 0 geometries")
    curve = OneDimCurve(0, y, z)
    if any(v.n != 0 or v.x != 0 or not v.eta.is_zero() for v in (m, n)):
        raise DomainError("inputs must have the flat numeric shape (n = x = 0, eta = 0)")
    return all(e == -1 for e, x in _cross_coefficients(g, m, n, curve, ChargeKind.FULL, d=d) if x)
