"""Central charges at exact parameter points.

The reduced charge has one closed form, written once over any scalar with
``+ - *`` as class-independent germs of (h, u, vpar) (``_reduced_germs``)
times class coefficients, so that re and im are each a constant plus a sum
of coefficient times germ.  The coefficients are linear in the class and
kept as one integer table per geometry (``_charge_table``, kept by
``ring._kept``), written from the lattice's integers: the reduced table
(``_reduced_table``) from H^2/2, H.S/2, H.eta, a and -H^2/6; the full one
with B = pull(d) (``_full_table``) composed from it and the twist by
pull(d) read off the ring's structure constants, with -ch3 of the twisted
class as its constant, so that it has no entry of its own.
``_reduced_coefficients`` applies the reduced table to the class's
numerators (``ring._contract``), and ``_twisted_coefficients`` to the
class twisted in the ring, for any class, with -ch3 of the twist as re's
constant; ``_combined`` combines either with the germs' numerators over one
denominator, at ``Fraction`` points and at ``Poly2`` symbols alike;
``asymptotics.charge_series`` builds the germs once per curve and order as
``LaurentSeries`` and combines each class with the same tables in one
integer pass; ``asymptotics`` multiplies the germs pairwise at ``Poly2``
symbols once per geometry, and its cross tables and cross polynomials sum
the products with the integer minors of two classes' coefficients.
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
    _kept,
    _numerators,
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
    3 hu vpar + 3 vpar^2, at every scalar.  ``flat`` leaves out the first
    of re and the last of im, whose coefficients carry x and n, for a class
    with n = x = 0."""
    w = h * u + vpar
    wv = w + vpar
    if flat:
        return (u * wv,), (w, u)
    w2 = w * w
    return (w2, u * wv), (w, u, u * (w2 + vpar * wv))


def _charge_table(g: BaseGeometry, kind: ChargeKind) -> tuple[list, int, int]:
    """A kind's class coefficients (re constant and coefficients on its
    germs, then im's) as a ``ring._contract`` table on the class and the
    right factor (1, d): the reduced kind's ``_reduced_table`` or the full
    kind's ``_full_table``."""
    return _reduced_table(g) if kind is ChargeKind.REDUCED else _full_table(g)


def _reduced_table(g: BaseGeometry) -> tuple[list, int, int]:
    """The reduced charge's coefficients on its ``_reduced_germs``, written
    from g's lattice data, seven outputs with the unit as right factor:
    re (0, H^2 x / 2, H.S / 2) and im (0, H.eta, a, -H^2 n / 6)."""
    n, x, S, eta, a, s = _slots(g.rank)
    return _written([
        (x, 0, 1, g.hb2 / 2), *((S[p], 0, 2, c / 2) for p, c in enumerate(g.hb_row)),
        *((eta[p], 0, 4, c) for p, c in enumerate(g.hb_row)), (a, 0, 5, 1), (n, 0, 6, -g.hb2 / 6),
    ], s + 1, 7)


def _full_table(g: BaseGeometry) -> tuple[list, int, int]:
    """The full charge's coefficients with B = pull(d) for a class with
    n = x = 0, on the right factor (1, d): the kept reduced table applied to
    the class twisted by pull(d), with -ch3 of the twist as re's constant.
    The twist exp(-pull(d)) v = v - pull(d) v is read off the kept structure
    constants in ``ring.mul``'s argument order (pull(d)^2 is a multiple of
    the fiber, which meets only n and x, so it drops out).  The coefficients
    on the x and n germs must vanish (else ``ComputationFault``) and are
    left out: five outputs, re (const, H.S / 2), im (0, H.eta, a)."""
    rows, den, width = _kept(g, _structure_constants)
    reduced, rden, _ = _kept(g, _charge_table, ChargeKind.REDUCED)
    composed: dict = {}  # (i, j, out): c, the term c / (den rden) a_i b_j on output out
    for b, j, sign in ((0, 0, 1), *((2 + p, p + 1, -1) for p in range(g.rank))):  # 1, then -pull(d_p)
        for i, k, c in rows[b]:  # basis b times class coordinate i > 1 is c / den times basis k
            if i > 1:
                terms = [(out, sign * c * e) for _, out, e in reduced[k]]
                if k == width - 1:
                    terms.append((0, -sign * c * rden))
                for out, e in terms:
                    composed[i, j, out] = composed.get((i, j, out), 0) + e
    if any(c for (_, _, out), c in composed.items() if out in (1, 6)):  # the x and n germs
        raise ComputationFault("full charge of a class with n = x = 0 reaches an x or n germ")
    outputs = {0: 0, 2: 1, 3: 2, 4: 3, 5: 4}
    return _written([(i, j, outputs[out], c) for (i, j, out), c in composed.items() if out in outputs],
                    width, 5, den * rden)


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


def _reduced_coefficients(g: BaseGeometry, v: ChernVector) -> tuple:
    """v's coefficients on the ``_reduced_germs`` (re constant and
    coefficients, then im's) as (numerators, den): the kept reduced table
    (``_charge_table``) applied to v's numerators by ``ring._contract``."""
    return _contract(_kept(g, _charge_table, ChargeKind.REDUCED), (v._nums, v._den), ((1,), 1))


def _twisted_coefficients(g: BaseGeometry, v: ChernVector, d: DivisorB) -> tuple:
    """The full charge's coefficients with B = pull(d), for any class, laid
    out as ``_reduced_coefficients``: those of v twisted in the ring, with
    -ch3 of the twist as re's constant (where the reduced table has none)."""
    tw = twist(g, v, DivisorX.pullback(d))
    coeffs, den = _reduced_coefficients(g, tw)
    coeffs[0] = -tw._nums[-1] * (den // tw._den)
    return coeffs, den


def _combined(coefficients: tuple, germs: tuple) -> tuple:
    """A charge at the point of ``_germ_numerators`` (germs), re and im
    each as (numerator, den): its coefficients (numerators, den) combined
    with the germ numerators by ``_combine``."""
    (coeffs, cden), (re, im, den) = coefficients, germs
    split = 1 + len(re)
    parts = (coeffs[0] * den, coeffs[1:split]), (coeffs[split] * den, coeffs[split + 1 :])
    return tuple((total, den * cden) for total in _combine(parts, (re, im)))


def _reduced_numerators(g: BaseGeometry, v: ChernVector, germs: tuple) -> tuple:
    """The reduced closed form of v at the point of germs, re and im each
    as (numerator, den): ``_combined`` on ``_reduced_coefficients``."""
    return _combined(_reduced_coefficients(g, v), germs)


def _full_parts(g: BaseGeometry, v: ChernVector, d: DivisorB, germs: tuple) -> tuple:
    """The full charge with B = pull(d) as (re, im) at the point of germs
    (``_germ_numerators``), over any scalar, for any class: one
    ``ring._divided`` per part of ``_combined`` on ``_twisted_coefficients``."""
    return tuple(_divided(*part) for part in _combined(_twisted_coefficients(g, v, d), germs))


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
    u, v = Poly2.u(), Poly2.v()
    point = _germ_numerators(g.h, u, v), divisor_powers(g, DivisorX(u, g.hb_divisor.scale(v)))
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
    return ChargeValue(*_full_parts(g, phi(g, v1dim), d, _germ_numerators(g.h, u, vpar)))


def in_full_half_plane(c: ChargeValue) -> bool:
    """Membership in the closed upper half plane with the negative real
    axis, together with zero, used with the full charge."""
    return c.im > 0 or (c.im == 0 and c.re <= 0)
