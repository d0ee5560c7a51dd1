"""Central charges at exact parameter points.

The reduced charge has one closed form, written once over any scalar with
``+ - *`` as class-independent germs of (h, u, vpar) (``_reduced_germs``)
times class coefficients (``_reduced_coefficients``), so that re and im are
each a constant plus a sum of coefficient times germ.  The full charge with
B = pull(d) is -ch3^B plus that form on the class twisted in the ring
(``_full_coefficients``).  Each kind's coefficients are one integer table
on the class (``_charge_table``), read off them once per geometry at
``Poly2`` monomials and kept by ``ring._kept``.  ``_reduced_parts`` applies
the reduced table to the class's numerators (``ring._contract``) and
combines the result with the germs' numerators over one denominator, at
``Fraction`` points and at ``Poly2`` symbols alike (the symbols' germ
numerators kept per geometry, ``_symbolic_germs``); ``_full_parts`` forms
the full combination; ``asymptotics.charge_series`` builds the germs once
per curve and order as ``LaurentSeries`` and combines each class with the
same tables in one integer pass; ``asymptotics``' cross tables multiply
the germs pairwise at ``Poly2`` symbols, once per geometry.
``full_charge`` goes through ring products for any class and B-field.  The
reduced charge also evaluates that path, on numerators, and insists it
agrees with the closed form (``_checked_reduced_parts``), which guards the
transcription of every intersection number used; ``prove_closed_form``
does so once per geometry at symbolic (u, vpar), against the ring's
structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ComputationFault, DomainError
from .fmt import _monomials, phi
from .poly import Poly2, monomial_table
from .ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    _contract,
    _degree_numerator,
    _divided,
    _kept,
    _numerators,
    _sum,
    divisor_powers,
    pair_h,
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
    3 hu vpar + 3 vpar^2, at every scalar.  ``flat`` leaves out the first
    of re and the last of im, whose coefficients carry x and n, for a class
    with n = x = 0."""
    w = h * u + vpar
    wv = w + vpar
    if flat:
        return (u * wv,), (w, u)
    w2 = w * w
    return (w2, u * wv), (w, u, u * (w2 + vpar * wv))


def _reduced_coefficients(g: BaseGeometry, v: ChernVector) -> tuple:
    """The reduced charge's (re, im), each as (constant, coefficients on
    its ``_reduced_germs``)."""
    return (
        (0, (g.hb2 * v.x / 2, pair_h(g, v.S) / 2)),
        (0, (pair_h(g, v.eta), v.a, -(g.hb2 * v.n) / 6)),
    )


def _full_coefficients(g: BaseGeometry, v: ChernVector, d: DivisorB) -> tuple:
    """The full charge's (re, im) with B = pull(d) on ``_reduced_germs``:
    -ch3^B plus the reduced coefficients of v twisted by B, for any class."""
    tw = twist(g, v, DivisorX.pullback(d))
    (const, re), im = _reduced_coefficients(g, tw)
    return (const - tw.s, re), im


def _charge_table(g: BaseGeometry, kind: ChargeKind) -> tuple[list, int, int]:
    """A kind's class coefficients (re constant and coefficients, then im's)
    as a table on the class and (1, d), read off one evaluation at ``Poly2``
    monomials: class coordinate i is u^(i+1) (n = x = 0 for the full kind,
    so pull(d)^2, which meets only n and x, drops out), d_j is v^(j+1).  The
    full kind's coefficients on the x and n germs must vanish (else
    ``ComputationFault``) and are left out."""
    r, full, monomials = g.rank, kind is ChargeKind.FULL, _monomials(g)
    if full:
        flat = ChernVector._ints([Fraction(0), Fraction(0), *monomials._nums[2:]], 1)
        d = DivisorB._raw(tuple(Poly2._ints({(0, j + 1): 1}, 1) for j in range(r)))
        parts = _full_coefficients(g, flat, d)
    else:
        parts = _reduced_coefficients(g, monomials)
    values = [x for const, coeffs in parts for x in (const, *coeffs)]
    if full and any((values.pop(6), values.pop(1))):  # the x and n germs' coefficients
        raise ComputationFault("full charge of a class with n = x = 0 reaches an x or n germ")
    return monomial_table(values, 2 * r + 4)


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


def _reduced_numerators(g: BaseGeometry, v: ChernVector, germs: tuple) -> tuple:
    """The reduced closed form of v at the point of ``_germ_numerators``
    (germs), re and im each as (numerator, den): the kept reduced table
    (``_charge_table``) applied to v's numerators by ``ring._contract``,
    combined with the germ numerators by ``_combine``."""
    re, im, den = germs
    coeffs, cden = _contract(_kept(g, _charge_table, ChargeKind.REDUCED), (v._nums, v._den), ((1,), 1))
    split = 1 + len(re)
    parts = (coeffs[0] * den, coeffs[1:split]), (coeffs[split] * den, coeffs[split + 1 :])
    return tuple((total, den * cden) for total in _combine(parts, (re, im)))


def _symbolic_germs(g: BaseGeometry) -> tuple:
    """``_germ_numerators`` at the symbols (u, v), which depend on h alone;
    read through ``ring._kept``, so built once per geometry."""
    return _germ_numerators(g.h, Poly2.u(), Poly2.v())


def _reduced_parts(g: BaseGeometry, v: ChernVector, germs: tuple) -> tuple:
    """Closed form of the reduced charge as (re, im) at the point of germs
    (``_germ_numerators``), over any scalar: one ``ring._divided`` per part
    of ``_reduced_numerators``."""
    return tuple(_divided(*part) for part in _reduced_numerators(g, v, germs))


def _full_parts(g: BaseGeometry, v: ChernVector, u, vpar, d: DivisorB) -> tuple:
    """The full charge with B = pull(d) as (re, im), over any scalar, for any
    class."""
    return _combine(_full_coefficients(g, v, d), _reduced_germs(g.h, u, vpar))


def _ring_parts(g: BaseGeometry, v: ChernVector, powers: tuple) -> tuple:
    """(w^2 ch1 / 2, w ch2 - w^3 ch0 / 6) through ring products, each as
    (numerator, den), from the ``ring.divisor_powers`` (w, w^2, w^3) of the
    polarization w.  The pairings are ``ring._degree_numerator``, the
    ring's point-class structure constants applied to the numerators of w^2
    and w against v's, at any scalar."""
    om, om2, (w3, w3_den) = powers
    re, re_den = _degree_numerator(g, om2, v)
    im, im_den = _degree_numerator(g, om, v)
    n_den = 6 * w3_den * v._den
    return (re, 2 * re_den), (im * n_den - w3 * (v._nums[0] * im_den), n_den * im_den)


def _point(g: BaseGeometry, u, vpar) -> tuple:
    """What the reduced charge reads of the point (u, vpar) alone: its germ
    numerators (``_germ_numerators``) and the ``ring.divisor_powers`` of
    w = u*Theta + vpar*pull(H).  Rational u and vpar must be positive."""
    _require_positive("u", u)
    _require_positive("vpar", vpar)
    return _germ_numerators(g.h, u, vpar), divisor_powers(g, DivisorX(u, g.hb_divisor.scale(vpar)))


def _checked_reduced_parts(g: BaseGeometry, v: ChernVector, point: tuple) -> tuple:
    """The reduced closed form of v at a point (``_point``), re and im each
    as (numerator, den) (``_reduced_numerators``), after checking it
    against the ring products at the powers of w (``_ring_parts``); a
    mismatch raises, since it can only be a coding fault."""
    germs, powers = point
    parts = _reduced_numerators(g, v, germs)
    for (n1, d1), (n2, d2) in zip(parts, _ring_parts(g, v, powers)):
        if n1 * d2 != n2 * d1:
            raise ComputationFault("reduced charge closed form disagrees with ring evaluation")
    return parts


def reduced_charge(g: BaseGeometry, v: ChernVector, u, vpar) -> ChargeValue:
    """Reduced charge (1/2) w^2 ch1 + i (w ch2 - (w^3/6) ch0) at
    w = u*Theta + vpar*pull(H).

    Computed through the closed form in (u, vpar) and independently through
    ring products (``ring._degree_numerator``, from the structure constants
    that the ring writes from its relations); a mismatch raises
    ``ComputationFault``.
    """
    return ChargeValue(*(_divided(*part) for part in _checked_reduced_parts(g, v, _point(g, u, vpar))))


def prove_closed_form(g: BaseGeometry) -> None:
    """Check the reduced closed form against ring products at symbolic
    (u, vpar) on the 2r + 4 basis classes, once per geometry (the mark is
    kept by ``ring._kept``).  Both paths are linear in the class, so this
    proves them equal for every class at every point, or raises
    ``ComputationFault``: the ring's structure constants, which its products
    apply at ``Poly2`` scalars as at Fraction points, against the closed
    form."""
    _kept(g, _proved_closed_form)


def _proved_closed_form(g: BaseGeometry) -> bool:
    """The check of ``prove_closed_form``, run; True once it passes."""
    point = _kept(g, _symbolic_germs), divisor_powers(g, DivisorX(Poly2.u(), g.hb_divisor.scale(Poly2.v())))
    dim = 2 * g.rank + 4
    for k in range(dim):
        _checked_reduced_parts(g, ChernVector._ints([int(i == k) for i in range(dim)], 1), point)
    return True


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
    return ChargeValue(*_full_parts(g, phi(g, v1dim), u, vpar, d))


def in_full_half_plane(c: ChargeValue) -> bool:
    """Membership in the closed upper half plane with the negative real
    axis, together with zero, used with the full charge."""
    return c.im > 0 or (c.im == 0 and c.re <= 0)
