"""Slope and slope-like functions with exact values in Q union {+infinity}.

Every kind is a quotient of two linear functionals of the Chern vector,
with numerators and denominators computed through the cohomology product so
that no intersection number is transcribed twice: each is one coordinate of
the vector (ch0 or ch3) or one ``ring.degree`` pairing with a fixed
homogeneous class (Theta, H, omega, omega^2, f, Theta*H, ...), which meets
only the vector's part of the complementary degree, so a kind pairs the
vector at most twice.  The classes that depend on the geometry alone are
built from their numerators once per geometry and kept on it.  The value
+infinity is
returned exactly when the kind's denominator vanishes; it compares strictly
greater than every finite value and equal to itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import total_ordering

from .charges import _ring_parts
from .errors import ConfigurationError, DomainError
from .ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    _exp_minus,
    _kept,
    _numerators,
    compute_m,
    degree,
    divisor_powers,
    divisor_vector,
    mul,
    twist,
)


class SlopeTag(Enum):
    MU_OMEGA_B = "MU_OMEGA_B"
    NU_OMEGA_B = "NU_OMEGA_B"
    MU_F = "MU_F"
    MU_THETA_M = "MU_THETA_M"
    MU_STAR = "MU_STAR"
    MU_STAR_B = "MU_STAR_B"
    MU_BAR = "MU_BAR"
    MU_PHB_PD = "MU_PHB_PD"
    MU_THETA_MPHB_PD = "MU_THETA_MPHB_PD"
    MU_OMEGA_PD = "MU_OMEGA_PD"


# the parameters each kind takes, all of them required
SLOPE_PARAMETERS = {
    SlopeTag.MU_OMEGA_B: ("omega", "bfield"),
    SlopeTag.NU_OMEGA_B: ("omega", "bfield"),
    SlopeTag.MU_F: (),
    SlopeTag.MU_THETA_M: (),
    SlopeTag.MU_STAR: (),
    SlopeTag.MU_STAR_B: (),
    SlopeTag.MU_BAR: ("omegabar", "dbar"),
    SlopeTag.MU_PHB_PD: ("d",),
    SlopeTag.MU_THETA_MPHB_PD: ("d",),
    SlopeTag.MU_OMEGA_PD: ("omega", "d"),
}


@dataclass(frozen=True)
class SlopeKind:
    """A slope selector together with exactly the parameters its kind needs."""

    tag: SlopeTag
    omega: DivisorX | None = None
    bfield: DivisorX | None = None
    omegabar: DivisorX | None = None
    dbar: DivisorB | None = None
    d: DivisorB | None = None

    def __post_init__(self):
        required = SLOPE_PARAMETERS[self.tag]
        for name in ("omega", "bfield", "omegabar", "dbar", "d"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ConfigurationError(f"slope kind {self.tag.value} requires parameter {name}")
            if name not in required and value is not None:
                raise ConfigurationError(
                    f"slope kind {self.tag.value} does not take parameter {name}"
                )

    @classmethod
    def mu_omega_b(cls, omega: DivisorX, bfield: DivisorX) -> "SlopeKind":
        return cls(SlopeTag.MU_OMEGA_B, omega=omega, bfield=bfield)

    @classmethod
    def nu_omega_b(cls, omega: DivisorX, bfield: DivisorX) -> "SlopeKind":
        return cls(SlopeTag.NU_OMEGA_B, omega=omega, bfield=bfield)

    @classmethod
    def mu_f(cls) -> "SlopeKind":
        return cls(SlopeTag.MU_F)

    @classmethod
    def mu_theta_m(cls) -> "SlopeKind":
        return cls(SlopeTag.MU_THETA_M)

    @classmethod
    def mu_star(cls) -> "SlopeKind":
        return cls(SlopeTag.MU_STAR)

    @classmethod
    def mu_star_b(cls) -> "SlopeKind":
        return cls(SlopeTag.MU_STAR_B)

    @classmethod
    def mu_bar(cls, omegabar: DivisorX, dbar: DivisorB) -> "SlopeKind":
        return cls(SlopeTag.MU_BAR, omegabar=omegabar, dbar=dbar)

    @classmethod
    def mu_phb_pd(cls, d: DivisorB) -> "SlopeKind":
        return cls(SlopeTag.MU_PHB_PD, d=d)

    @classmethod
    def mu_theta_mphb_pd(cls, d: DivisorB) -> "SlopeKind":
        return cls(SlopeTag.MU_THETA_MPHB_PD, d=d)

    @classmethod
    def mu_omega_pd(cls, omega: DivisorX, d: DivisorB) -> "SlopeKind":
        return cls(SlopeTag.MU_OMEGA_PD, omega=omega, d=d)


@total_ordering
@dataclass(frozen=True)
class SlopeValue:
    """An exact rational slope or +infinity (finite is None)."""

    finite: Fraction | None

    @classmethod
    def of(cls, value) -> "SlopeValue":
        return cls(Fraction(value))

    @classmethod
    def infinity(cls) -> "SlopeValue":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def __lt__(self, other: "SlopeValue") -> bool:
        if self.finite is None:
            return False
        if other.finite is None:
            return True
        return self.finite < other.finite

    def __str__(self) -> str:
        return "inf" if self.finite is None else str(self.finite)


def _ratio(num, den) -> SlopeValue:
    if den == 0:
        return SlopeValue.infinity()
    if type(num) is Fraction and type(den) is Fraction:
        return SlopeValue(num / den)
    return SlopeValue(Fraction(num) / Fraction(den))


def _vector(g: BaseGeometry, x=0, S=None, eta=None, a=0) -> ChernVector:
    """The class (0, x, S, eta, a, 0), S and eta given by coordinates (zero
    if None), from its numerators."""
    zeros = [0] * g.rank
    return ChernVector._ints(*_numerators([0, x, *(S or zeros), *(eta or zeros), a, 0]))


# The classes a slope pairs or multiplies that depend on g alone, by name.
_FIXED = {
    "fiber": lambda g: _vector(g, a=1),
    "phb": lambda g: _vector(g, S=g.hb),
    "theta_phb": lambda g: _vector(g, eta=g.hb),
    "theta_phb_m": lambda g: _vector(g, eta=g.hb, a=compute_m(g)),
    "theta_m": lambda g: _vector(g, x=1, S=[compute_m(g) * c for c in g.hb]),
    "half_canonical_exp": lambda g: _exp_minus(g, g.half_canonical_bfield()),
}


def _fixed(g: BaseGeometry, name: str) -> ChernVector:
    """The fixed class of that name on g, kept by ``ring._kept``."""
    return _kept(g, _FIXED[name])


def slope(g: BaseGeometry, kind: SlopeKind, v: ChernVector) -> SlopeValue:
    """Evaluate a slope kind on a Chern vector."""
    tag = kind.tag

    if tag is SlopeTag.MU_F:
        return _ratio(degree(g, _fixed(g, "fiber"), v), v.n)

    if tag is SlopeTag.MU_THETA_M:
        return _ratio(degree(g, _fixed(g, "theta_phb_m"), v), v.n)

    if tag is SlopeTag.MU_OMEGA_B:
        tw = twist(g, v, kind.bfield)
        om = divisor_vector(g, kind.omega)
        return _ratio(degree(g, mul(g, om, om), tw), tw.n)

    if tag is SlopeTag.NU_OMEGA_B:
        re, im = _ring_parts(g, twist(g, v, kind.bfield), divisor_powers(g, kind.omega))
        return _ratio(im, 2 * re)

    if tag is SlopeTag.MU_STAR:
        return _ratio(v.s, degree(g, _fixed(g, "phb"), v))

    if tag is SlopeTag.MU_STAR_B:
        tw = mul(g, _fixed(g, "half_canonical_exp"), v)  # the twist by the half-canonical field
        return _ratio(tw.s, degree(g, _fixed(g, "phb"), tw))

    if tag is SlopeTag.MU_BAR:
        tw = twist(g, v, DivisorX.pullback(kind.dbar))
        return _ratio(tw.s, degree(g, divisor_vector(g, kind.omegabar), tw))

    if tag in (SlopeTag.MU_PHB_PD, SlopeTag.MU_THETA_MPHB_PD, SlopeTag.MU_OMEGA_PD):
        tw = twist(g, v, DivisorX.pullback(kind.d))
        if tag is SlopeTag.MU_OMEGA_PD:
            om = divisor_vector(g, kind.omega)
            return _ratio(degree(g, om, tw), degree(g, mul(g, om, om), tw))
        den = degree(g, _fixed(g, "theta_phb"), tw)
        if tag is SlopeTag.MU_PHB_PD:
            return _ratio(degree(g, _fixed(g, "phb"), tw), den)
        return _ratio(degree(g, _fixed(g, "theta_m"), tw), den)

    raise DomainError(f"unhandled slope kind {tag}")
