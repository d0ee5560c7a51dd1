"""Central charges at exact parameter points.

The reduced charge has one closed form, written once over any scalar with
``+ - *`` as class-independent germs of (h, u, vpar) (``_reduced_germs``)
times class coefficients, so that re and im are each a constant plus a sum
of coefficient times germ.  The coefficients are linear in the class and
kept as one integer table per geometry and kind (``_charge_table``, kept
by ``ring._kept``), written from the geometry's integer fields, seven outputs
for every class: the reduced table (``_reduced_table``) from H^2/2,
H.S/2, H.eta, a and -H^2/6; the full one with B = pull(d)
(``_full_table``) composed from it and the product by exp(-pull(d)) read
off the ring's structure constants, with -ch3 of the product as its
constant, so that it has no entry of its own.  ``_coefficients`` applies
a kind's table to the class's numerators and its right factor
(``_right_factor``: the unit, or exp(-pull(d)) on integers) by
``ring._contract``;
``_combined`` combines them with the germs' numerators over one
denominator, at ``Fraction`` points and at ``Poly2`` symbols alike;
``asymptotics.charge_series`` builds the germs once per curve and order as
``LaurentSeries`` and combines each class with the same tables in one
integer pass.  At the symbols (u, vpar) the germs are read once per
geometry as integer monomial rows (``_germ_rows``, the one place the
``Poly2`` symbols are built); ``asymptotics`` multiplies them pairwise by
integer convolution, and its cross tables and cross polynomials sum the
products with the integer minors of two classes' coefficients.
``full_charge`` goes through ring products for any class and B-field
(``_ring_parts``).  The reduced closed form has one ring guard, which
guards the transcription of every intersection number used: at the
symbols both it and the ring path are integer matrices on the basis
classes, kept per geometry (``_symbol_rows``), and ``prove_closed_form``
compares them once, so that they agree for every class at every point.
``reduced_charge`` and a symbolic class's im row (``_symbol_im``, the
closed matrix's im entries on the class's numerators) read the closed form
only after that proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .curves import _omega_products, _theta_h_products
from .errors import ComputationFault, DimensionError, DomainError
from .fmt import _slots, phi
from .poly import Poly2
from .ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    _contract,
    _degree_numerator,
    _divided,
    _form,
    _gram_ints,
    _kept,
    _numerators,
    _point_constants,
    _structure_constants,
    _sum,
    _written,
    divisor_powers,
    twist,
)


class ChargeKind(Enum):
    REDUCED = "reduced"
    FULL = "full"


@dataclass(frozen=True)
class ChargeValue:
    """An exact complex charge value; half-plane membership is the caller's
    assertion, never checked here."""

    re: Fraction
    im: Fraction

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def _require_positive(name: str, value) -> None:
    if isinstance(value, (int, Fraction)) and value <= 0:
        raise DomainError(f"{name} must be positive")


def _reduced_germs(h, u, vpar, flat: bool = False) -> tuple:
    """The class-independent germs of the reduced charge's (re, im), over
    any scalar: (w^2, u (w + vpar)) and (w, u, u (w^2 + vpar (w + vpar))),
    with w = hu + vpar, four products.  These are (hu + vpar)^2 =
    hu (hu + 2 vpar) + vpar^2 and w^2 + vpar (w + vpar) = h^2 u^2 +
    3 hu vpar + 3 vpar^2, at every scalar.  ``flat`` leaves the first of
    re and the last of im, whose coefficients carry x and n, as the exact
    zero 0, for classes with n = x = 0."""
    w = h * u + vpar
    wv = w + vpar
    if flat:
        return (0, u * wv), (w, u, 0)
    w2 = w * w
    return (w2, u * wv), (w, u, u * (w2 + vpar * wv))


def _charge_table(g: BaseGeometry, kind: ChargeKind) -> tuple[list, int, int]:
    """A kind's class coefficients (re constant and coefficients on its
    germs, then im's) as a ``ring._contract`` table on the class and the
    kind's right factor (``_coefficients``): the reduced kind's
    ``_reduced_table`` or the full kind's ``_full_table``."""
    return _reduced_table(g) if kind is ChargeKind.REDUCED else _full_table(g)


def _reduced_table(g: BaseGeometry) -> tuple[list, int, int]:
    """The reduced charge's coefficients on its ``_reduced_germs``, written
    from g's integer fields, seven outputs with the unit as right factor:
    re (0, H^2 x / 2, H.S / 2) and im (0, H.eta, a, -H^2 n / 6)."""
    n, x, S, eta, a, s = _slots(g.rank)
    (row, rd), (q, qd) = g.hb_row_nums, g.hb2_nums
    one = 6 * rd * qd
    return _written([
        (x, 0, 1, 3 * rd * q), *((S[p], 0, 2, 3 * qd * c) for p, c in enumerate(row)),
        *((eta[p], 0, 4, 6 * qd * c) for p, c in enumerate(row)), (a, 0, 5, one), (n, 0, 6, -rd * q),
    ], s + 1, 7, one)


def _full_table(g: BaseGeometry) -> tuple[list, int, int]:
    """The full charge's coefficients with B = pull(d), for every class, on
    the right factor exp(-pull(d)) (``_coefficients``): the kept reduced
    table composed with the product by it, read off the kept structure
    constants in ``ring.mul``'s argument order, with -ch3 of the product as
    re's constant.  exp(-pull(d)) = 1 - pull(d) + ((d.d) / 2) f has only n,
    S and a coordinates, so only their rows are read.  Seven outputs, laid
    out as the reduced table's.  The germ path leaves out the x and n germs
    for its classes with n = x = 0, so their coefficients on those germs
    must vanish (else ``ComputationFault``)."""
    rows, den, width = _kept(g, _structure_constants)
    reduced, rden, _ = _kept(g, _charge_table, ChargeKind.REDUCED)
    n, _, S, _, a, _ = _slots(g.rank)
    composed: dict = {}  # (i, j, out): c, the term c / (den rden) v_i e_j on output out
    for j in (n, *S, a):
        for i, k, c in rows[j]:  # factor coordinate j times class coordinate i is c / den times basis k
            for _, out, e in reduced[k]:
                composed[i, j, out] = composed.get((i, j, out), 0) + c * e
            if k == width - 1:
                composed[i, j, 0] = composed.get((i, j, 0), 0) - c * rden
    if any(c for (i, _, out), c in composed.items() if i > 1 and out in (1, 6)):  # the x and n germs
        raise ComputationFault("full charge of a class with n = x = 0 reaches an x or n germ")
    return _written([(i, j, out, c) for (i, j, out), c in composed.items()], width, 7, den * rden)


def _combine(parts: tuple, germs: tuple) -> tuple:
    """(re, im), each its constant plus the sum of germ * coefficient, over
    any scalar."""
    out = []
    for (const, coeffs), part_germs in zip(parts, germs):
        total = _sum([x * c for x, c in zip(part_germs, coeffs)])
        out.append(total + const if const else total)
    return tuple(out)


def _germ_numerators(h, u, vpar) -> tuple:
    """``_reduced_germs`` at (u, vpar) as numerators over one den
    (``ring._numerators``: Poly2s over 1): (re, im, den)."""
    re, im = _reduced_germs(h, u, vpar)
    nums, den = _numerators([*re, *im])
    return nums[: len(re)], nums[len(re) :], den


def _coefficients(g: BaseGeometry, v: ChernVector, kind: ChargeKind, d: DivisorB | None, right=None) -> tuple:
    """v's coefficients on the ``_reduced_germs`` (re constant and two
    coefficients, then im's constant and three) as (numerators, den): the
    kind's kept table (``_charge_table``) applied by ``ring._contract`` to
    v's numerators and the kind's right factor, ``right`` when the caller
    built it for several classes, else ``_right_factor``'s for v."""
    if right is None:
        right = _right_factor(g, kind, d, bool(v._nums[0] or v._nums[1]))
    return _contract(_kept(g, _charge_table, kind), (v._nums, v._den), right)


def _right_factor(g: BaseGeometry, kind: ChargeKind, d: DivisorB | None, fiber: bool) -> tuple:
    """A kind's right factor for ``_coefficients`` as (numerators, den).
    That is the unit for the reduced kind, and for the full one with
    B = pull(d) when d is None or 0; otherwise the numerators of
    exp(-pull(d)) = 1 - pull(d) + ((d.d) / 2) f over one den, from d's
    numerators and the integer gram rows (``ring._gram_ints``).  d.d is
    left out unless ``fiber``: f meets only the n and x coordinates, so the
    coefficients of a class with n = x = 0 are the same either way.  A d of
    another rank than g's raises ``DimensionError``."""
    if kind is ChargeKind.REDUCED:
        return (1,), 1
    if d is not None:
        if d.rank != g.rank:
            raise DimensionError("divisor rank does not match geometry rank")
        ds, L = _numerators(d.coords)
        if any(ds):
            rows, gd = _kept(g, _gram_ints)
            s = -2 * gd * L
            q = _form(rows, ds, ds) if fiber else 0
            return [-s * L, 0, *[s * c for c in ds], *[0] * g.rank, q, 0], -s * L
    return (1, *[0] * (2 * g.rank + 3)), 1


def _combined(coefficients: tuple, germs: tuple) -> tuple:
    """A charge at the point of ``_germ_numerators`` (germs), re and im
    each as (numerator, den): its coefficients (numerators, den) combined
    with the germ numerators by ``_combine``."""
    (coeffs, cden), (re, im, den) = coefficients, germs
    parts = (coeffs[0] * den, coeffs[1:3]), (coeffs[3] * den, coeffs[4:])
    return tuple((total, den * cden) for total in _combine(parts, (re, im)))


def _reduced_numerators(g: BaseGeometry, v: ChernVector, germs: tuple) -> tuple:
    """The reduced closed form of v at the point of germs, re and im each
    as (numerator, den): ``_combined`` on the reduced ``_coefficients``."""
    return _combined(_coefficients(g, v, ChargeKind.REDUCED, None), germs)


def _full_parts(g: BaseGeometry, v: ChernVector, d: DivisorB, germs: tuple) -> tuple:
    """The full charge with B = pull(d) as (re, im) at the point of germs
    (``_germ_numerators``), over any scalar, for any class: one
    ``ring._divided`` per part of ``_combined`` on the full ``_coefficients``."""
    return tuple(_divided(*part) for part in _combined(_coefficients(g, v, ChargeKind.FULL, d), germs))


def _ring_parts(g: BaseGeometry, v: ChernVector, powers: tuple) -> tuple:
    """(w^2 ch1 / 2, w ch2 - w^3 ch0 / 6) through ring products, each as
    (numerator, den), from the ``ring.divisor_powers`` (w, w^2, w^3) of the
    polarization w: ``full_charge``'s independent path.  The pairings are
    ``ring._degree_numerator``, the ring's point-class structure constants
    applied to the numerators of w^2 and w against v's, at any scalar."""
    om, om2, (w3, w3_den) = powers
    re, re_den = _degree_numerator(g, om2, v)
    im, im_den = _degree_numerator(g, om, v)
    n_den = 6 * w3_den * v._den
    return (re, 2 * re_den), (im * n_den - w3 * (v._nums[0] * im_den), n_den * im_den)


def reduced_charge(g: BaseGeometry, v: ChernVector, u, vpar) -> ChargeValue:
    """Reduced charge (1/2) w^2 ch1 + i (w ch2 - (w^3/6) ch0) at
    w = u*Theta + vpar*pull(H), at any scalar.

    Computed through the closed form in (u, vpar) (``_reduced_numerators``),
    after ``prove_closed_form`` has checked it against ring products for
    every class, once per geometry; a mismatch raises ``ComputationFault``.
    Rational u and vpar must be positive, and v must have g's rank.
    """
    _require_positive("u", u)
    _require_positive("vpar", vpar)
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    prove_closed_form(g)
    return ChargeValue(*(_divided(*part) for part in _reduced_numerators(g, v, _germ_numerators(g.h, u, vpar))))


def prove_closed_form(g: BaseGeometry) -> None:
    """Check the reduced closed form against ring products at the symbols
    (u, vpar) for every class, once per geometry (the mark is kept by
    ``ring._kept``), or raise ``ComputationFault``.  Both sides are linear
    in the class and polynomial in (u, vpar), so they agree for every class
    at every point exactly when their integer matrices on the basis classes
    and monomials (``_symbol_rows``) do: one comparison, the closed form's
    (the reduced table on the germs' rows) against the ring's (the ring's
    structure constants on the kept products of Theta and pull(H)), with
    no ``Poly2`` product."""
    _kept(g, _proved_closed_form)


def _proved_closed_form(g: BaseGeometry) -> bool:
    """The check of ``prove_closed_form``, run; True once it passes."""
    (closed, cden), (ring, rden), _ = _kept(g, _symbol_rows)
    if closed.keys() != ring.keys() or any(n * rden != ring[key] * cden for key, n in closed.items()):
        raise ComputationFault("reduced charge closed form disagrees with ring evaluation")
    return True


def _germ_rows(g: BaseGeometry, flat: bool = False) -> tuple:
    """``_reduced_germs`` at the symbols (u, vpar), ``flat`` as given, read
    once per geometry (kept by ``ring._kept``) as integer monomial rows
    {(i, j): n}, for n u^i vpar^j over one den > 0: (symbols, rows, den),
    the rows of re's two germs and then im's three, an exact zero empty.
    The one place where ``charges``, ``verify`` and ``asymptotics`` build
    the ``Poly2`` symbols."""
    u, v = Poly2.u(), Poly2.v()
    re, im = _reduced_germs(g.h, u, v, flat)
    germs = [*re, *im]
    den = lcm(*(x._den for x in germs if x))
    return (u, v), [({key: n * (den // x._den) for key, n in x._nums.items()} if x._den != den else x._nums)
                    if x else {} for x in germs], den


def _symbol_rows(g: BaseGeometry) -> tuple:
    """The reduced charge at the symbols (u, vpar) of each basis class, kept
    by ``ring._kept`` as integer matrices {(k, part, i, j): n}, the
    u^i vpar^j coefficient of re (part 0) or im (part 1) on basis class k,
    zeros dropped: (closed, ring, cube), each with its den.

    closed: the reduced table (``_charge_table``) on the germs' rows
    (``_germ_rows``), re and im each a constant plus coefficients times
    germs, as ``_combined`` takes them.  ring: w^2 e_k / 2 and
    w e_k - [k = 0] deg(w^3) / 6 for w = u Theta + vpar pull(H), as
    ``_ring_parts`` pairs them: the point-class constants
    (``ring._point_constants``) composed with the monomial rows of w and
    w^2 on the left.  w^2 and deg(w^3) (cube, {(i, j): n}) are summed from the
    products of Theta and pull(H) that the cycle identity keeps
    (``curves._theta_h_products``, ``curves._omega_products``) in the ring
    path's argument order, so they are exact for any structure constants."""
    _, germs, gden = _kept(g, _germ_rows)
    table, tden, _ = _kept(g, _charge_table, ChargeKind.REDUCED)
    one = {(0, 0): gden}
    units = [(part, germ) for part, germs in ((0, [one, *germs[:2]]), (1, [one, *germs[2:]])) for germ in germs]
    closed: dict = {}  # output k's part and germ: re's constant and two, im's constant and three
    for k, row in enumerate(table):
        for _, out, c in row:
            part, germ = units[out]
            for (i, j), x in germ.items():
                key = k, part, i, j
                closed[key] = closed.get(key, 0) + c * x

    theta, hb, (_, th, hh), n, _, _ = _kept(g, _theta_h_products)
    t2, ht, oden, cube, m = _kept(g, _omega_products)
    f, wden = oden // n, hb._den
    points, pden, _ = _kept(g, _point_constants)
    rden = lcm(2 * oden * pden, wden * pden, 6 * m)
    cube = {(3 - j, j): c for j, c in enumerate(cube) if c}
    ring = {(0, 1, i, j): -c * (rden // (6 * m)) for (i, j), c in cube.items()}
    for part, scale, powers in (  # the monomial rows of w^2 over oden and of w over wden, as classes
            (0, rden // (2 * oden * pden), {(2, 0): t2, (1, 1): [x * f + y for x, y in zip(th, ht)],
                                            (0, 2): [x * f for x in hh]}),
            (1, rden // (wden * pden), {(1, 0): [x * wden for x in theta._nums], (0, 1): hb._nums})):
        for (i, j), left in powers.items():  # composed with the point-class constants, left factor first
            for a, prow in zip(left, points):
                if a:
                    for k, _, c in prow:
                        key = k, part, i, j
                        ring[key] = ring.get(key, 0) + scale * a * c
    return (_nonzero(closed), tden * gden), (_nonzero(ring), rden), (cube, m)


def _nonzero(matrix: dict) -> dict:
    """A monomial row or matrix with its zero entries dropped."""
    return {key: n for key, n in matrix.items() if n}


def _applied_im(matrix: dict, nums) -> dict:
    """The im entries of an integer matrix of ``_symbol_rows`` applied to a
    class's numerators: its im monomial row, zeros dropped."""
    row: dict = {}
    for (k, part, i, j), n in matrix.items():
        if part:
            x = nums[k]
            if x:
                row[i, j] = row.get((i, j), 0) + x * n
    return _nonzero(row)


def _symbol_im(g: BaseGeometry, v: ChernVector) -> tuple:
    """The im of the reduced closed form of a rational class v at the
    symbols (u, vpar), as a monomial row over one den: the im entries of
    the closed matrix of ``_symbol_rows`` applied to v's numerators, once
    ``prove_closed_form`` has checked it against the ring matrix for every
    class."""
    prove_closed_form(g)
    (closed, cden), _, _ = _kept(g, _symbol_rows)
    return _applied_im(closed, v._nums), cden * v._den


def full_charge(g: BaseGeometry, v: ChernVector, omega: DivisorX, B: DivisorX) -> ChargeValue:
    """Full twisted charge -ch3^B + (1/2) w^2 ch1^B + i (w ch2^B - (w^3/6) ch0^B)."""
    _require_positive("omega.theta", omega.theta)
    tw = twist(g, v, B)
    re, im = _ring_parts(g, tw, divisor_powers(g, omega))
    return ChargeValue(-tw.s + _divided(*re), _divided(*im))


def onedim_transform_charge(
    g: BaseGeometry, v1dim: ChernVector, u, vpar, dbar: DivisorB
) -> ChargeValue:
    """Full charge of the transform of a one-dimensional class, closed form.

    For a source class (0, 0, 0, eta, a, s) this equals

        a + (u/2)(h u + 2 vpar) (H.eta)  +  i u (s - Dbar.eta),

    and on the one-dimensional constraint curve for (y, z) it factors as
    (1/y) ((h y + z)(H.eta) + y a + i y u (s - Dbar.eta)).
    """
    if v1dim.n != 0 or v1dim.x != 0 or not v1dim.S.is_zero():
        raise DomainError("transform charge requires a one-dimensional class (n = x = 0, S = 0)")
    d = dbar + g.hb_divisor.scale(g.h / 2)
    return ChargeValue(*_full_parts(g, phi(g, v1dim), d, _germ_numerators(g.h, u, vpar)))


def in_full_half_plane(c: ChargeValue) -> bool:
    """Membership in the closed upper half plane with the negative real
    axis, together with zero, used with the full charge."""
    return c.im > 0 or (c.im == 0 and c.re <= 0)
