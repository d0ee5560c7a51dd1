"""Central charges at exact parameter points.

Three charges are provided: the reduced charge used with the tilt-limit
curve, the full twisted charge used with the one-dimensional-limit curve,
and a closed form for the full charge of the transform of a one-dimensional
class.  The reduced charge evaluates both its textbook closed form and a
generic ring-product path and insists they agree, which guards the
transcription of every intersection number it uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ComputationFault, DomainError
from .ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    divisor_vector,
    mul,
    pair,
    pair_h,
    twist,
)


@dataclass(frozen=True)
class ChargeValue:
    """An exact complex charge value; half-plane membership is the caller's
    assertion, never checked here."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "ChargeValue") -> "ChargeValue":
        return ChargeValue(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "ChargeValue":
        return ChargeValue(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def _require_positive(name: str, value) -> None:
    if isinstance(value, (int, Fraction)) and value <= 0:
        raise DomainError(f"{name} must be positive")


def reduced_charge(g: BaseGeometry, v: ChernVector, u, vpar) -> ChargeValue:
    """Reduced charge (1/2) w^2 ch1 + i (w ch2 - (w^3/6) ch0) at
    w = u*Theta + vpar*pull(H).

    Computed through the closed form in (u, vpar) and independently through
    ring products; a mismatch raises, since it can only be a coding fault.
    """
    _require_positive("u", u)
    _require_positive("vpar", vpar)
    h, hb, hb2 = g.h, g.hb_divisor, g.hb2
    hS = pair_h(g, v.S)
    heta = pair_h(g, v.eta)

    re_closed = (h * u * (h * u + 2 * vpar) + vpar * vpar) * hb2 * v.x / 2 + u * (
        h * u + 2 * vpar
    ) * hS / 2
    im_closed = (
        (h * u + vpar) * heta
        + u * v.a
        - u * (h * h * u * u + 3 * h * u * vpar + 3 * vpar * vpar) * hb2 * v.n / 6
    )

    om = divisor_vector(g, DivisorX(u, hb.scale(vpar)))
    om2 = mul(g, om, om)
    om3 = mul(g, om2, om).s
    re_ring = mul(g, om2, v.degree_part(1)).s / 2
    im_ring = mul(g, om, v.degree_part(2)).s - om3 * v.n / 6

    if re_closed != re_ring or im_closed != im_ring:
        raise ComputationFault("reduced charge closed form disagrees with ring evaluation")
    return ChargeValue(re_closed, im_closed)


def full_charge(g: BaseGeometry, v: ChernVector, omega: DivisorX, B: DivisorX) -> ChargeValue:
    """Full twisted charge -ch3^B + (1/2) w^2 ch1^B + i (w ch2^B - (w^3/6) ch0^B)."""
    _require_positive("omega.theta", omega.theta)
    tw = twist(g, v, B)
    om = divisor_vector(g, omega)
    om2 = mul(g, om, om)
    om3 = mul(g, om2, om).s
    re = -tw.s + mul(g, om2, tw.degree_part(1)).s / 2
    im = mul(g, om, tw.degree_part(2)).s - om3 * tw.n / 6
    return ChargeValue(re, im)


def onedim_transform_charge(
    g: BaseGeometry,
    v1dim: ChernVector,
    y,
    z,
    u,
    vpar,
    dbar: DivisorB,
) -> ChargeValue:
    """Full charge of the transform of a one-dimensional class, closed form.

    For a source class (0, 0, 0, eta, a, s) this equals

        a + (u/2)(h u + 2 vpar) (H.eta)  +  i u (s - Dbar.eta),

    and on the one-dimensional constraint curve for (y, z) it factors as
    (1/y) ((h y + z)(H.eta) + y a + i y u (s - Dbar.eta)).
    """
    if v1dim.n != 0 or v1dim.x != 0 or not v1dim.S.is_zero():
        raise DomainError("transform charge requires a one-dimensional class (n = x = 0, S = 0)")
    _require_positive("y", y)
    _require_positive("z", z)
    heta = pair_h(g, v1dim.eta)
    re = v1dim.a + u * (g.h * u + 2 * vpar) * heta / 2
    im = u * (v1dim.s - pair(g, dbar, v1dim.eta))
    return ChargeValue(re, im)


def in_reduced_half_plane(c: ChargeValue) -> bool:
    """Membership in the closed right-rotated half plane used with the
    reduced charge: Re > 0, or Re = 0 with Im >= 0, or zero."""
    return c.re > 0 or (c.re == 0 and c.im >= 0)


def in_full_half_plane(c: ChargeValue) -> bool:
    """Membership in the closed upper half plane with the negative real
    axis, together with zero, used with the full charge."""
    return c.im > 0 or (c.im == 0 and c.re <= 0)
