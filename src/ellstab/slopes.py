"""Slope and slope-like functions with exact values in Q union {+infinity}.

Every kind is the quotient of two point pairings, ``degree(g, F, v) /
degree(g, G, v)``, with classes F and G of (g, kind) alone.  ch0 is the
pairing with the point class and ch3 the pairing with the unit; the other
pairings are with fixed homogeneous classes (Theta, H, omega, omega^2, f,
Theta*H, ...), built from their numerators.  A kind's twist by exp(-B)
sits on its classes, since degree(F, exp(-B) v) = degree(F exp(-B), v),
so no class is ever twisted.  The classes are built once per (g, kind):
a parameterless kind's on g (``ring._kept``), any other's on the
``SlopeKind`` object, by geometry.  The value is one Fraction built from
the integer totals of the two pairings (``ring._contract``), in which v's
denominator cancels.  The value +infinity is returned exactly when the
second pairing vanishes; it compares strictly greater than every finite
value and equal to itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import total_ordering

from .errors import ConfigurationError, DimensionError, DomainError
from .ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    _contract,
    _divided,
    _exp_minus,
    _half_canonical_exp,
    _kept,
    _point_constants,
    compute_m,
    divisor_powers,
    divisor_vector,
    mul,
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
    # the pair of classes the kind pairs with, by geometry (``_classes``)
    _classes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    def mu_star_b(cls) -> "SlopeKind":
        return cls(SlopeTag.MU_STAR_B)

    @classmethod
    def mu_bar(cls, omegabar: DivisorX, dbar: DivisorB) -> "SlopeKind":
        return cls(SlopeTag.MU_BAR, omegabar=omegabar, dbar=dbar)


@total_ordering
@dataclass(frozen=True)
class SlopeValue:
    """An exact rational slope or +infinity (finite is None)."""

    finite: Fraction | None

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


def _vector(g: BaseGeometry, den: int = 1, n=0, x=0, S=None, eta=None, a=0, s=0) -> ChernVector:
    """The class (n, x, S, eta, a, s) / den from integer numerators, S and
    eta given by theirs (zero if None)."""
    zeros = [0] * g.rank
    return ChernVector._ints([n, x, *(S or zeros), *(eta or zeros), a, s], den)


def _theta_phb_m(g: BaseGeometry) -> ChernVector:
    """Theta pull(H) + m f, from g's integer field ``hb_nums`` and m
    (``compute_m``)."""
    (hb, bd), m = g.hb_nums, compute_m(g)
    return _vector(g, m.denominator * bd, eta=[m.denominator * c for c in hb], a=m.numerator * bd)


def _theta_m(g: BaseGeometry) -> ChernVector:
    """Theta + m pull(H), from g's integer field ``hb_nums`` and m."""
    (hb, bd), m = g.hb_nums, compute_m(g)
    return _vector(g, m.denominator * bd, x=m.denominator * bd, S=[m.numerator * c for c in hb])


# The classes a slope pairs or multiplies that depend on g alone, by name.
_FIXED = {
    "unit": lambda g: _vector(g, n=1),
    "point": lambda g: _vector(g, s=1),
    "fiber": lambda g: _vector(g, a=1),
    "phb": lambda g: _vector(g, g.hb_nums[1], S=g.hb_nums[0]),
    "theta_phb": lambda g: _vector(g, g.hb_nums[1], eta=g.hb_nums[0]),
    "theta_phb_m": _theta_phb_m,
    "theta_m": _theta_m,
}


def _fixed(g: BaseGeometry, name: str) -> ChernVector:
    """The fixed class of that name on g, kept by ``ring._kept``."""
    return _kept(g, _FIXED[name])


def _mu_omega_b(g: BaseGeometry, kind: SlopeKind) -> tuple:
    """(w^2 exp(-B), pt), with exp(-B) kept on g at the half-canonical field."""
    om = divisor_vector(g, kind.omega)
    B = kind.bfield
    e = _kept(g, _half_canonical_exp) if B == g.half_canonical_bfield() else _exp_minus(g, B)
    return mul(g, mul(g, om, om), e), _fixed(g, "point")


def _nu_omega_b(g: BaseGeometry, kind: SlopeKind) -> tuple:
    """Im / (2 Re) of ``charges._ring_parts``: (w - (w^3/6) pt, w^2), on the twist."""
    e = _exp_minus(g, kind.bfield)
    om, om2, (om3, den) = divisor_powers(g, kind.omega)
    return mul(g, om - _fixed(g, "point").scale(_divided(om3, den) / 6), e), mul(g, om2, e)


def _mu_star_b(g: BaseGeometry, _) -> tuple:
    e = _kept(g, _half_canonical_exp)
    return e, mul(g, _fixed(g, "phb"), e)


def _mu_bar(g: BaseGeometry, kind: SlopeKind) -> tuple:
    e = _exp_minus(g, DivisorX.pullback(kind.dbar))
    return e, mul(g, divisor_vector(g, kind.omegabar), e)


def _pd(g: BaseGeometry, kind: SlopeKind, top: ChernVector, bottom: ChernVector) -> tuple:
    """(top, bottom) on the twist by pull(d)."""
    e = _exp_minus(g, DivisorX.pullback(kind.d))
    return mul(g, top, e), mul(g, bottom, e)


def _mu_omega_pd(g: BaseGeometry, kind: SlopeKind) -> tuple:
    om = divisor_vector(g, kind.omega)
    return _pd(g, kind, om, mul(g, om, om))


# The pair (F, G) of each kind, slope(v) = degree(F, v) / degree(G, v), from
# g and the kind; a parameterless kind's builder reads g alone.
_PAIRS = {
    SlopeTag.MU_OMEGA_B: _mu_omega_b,
    SlopeTag.NU_OMEGA_B: _nu_omega_b,
    SlopeTag.MU_F: lambda g, _: (_fixed(g, "fiber"), _fixed(g, "point")),
    SlopeTag.MU_THETA_M: lambda g, _: (_fixed(g, "theta_phb_m"), _fixed(g, "point")),
    SlopeTag.MU_STAR: lambda g, _: (_fixed(g, "unit"), _fixed(g, "phb")),
    SlopeTag.MU_STAR_B: _mu_star_b,
    SlopeTag.MU_BAR: _mu_bar,
    SlopeTag.MU_PHB_PD: lambda g, kind: _pd(g, kind, _fixed(g, "phb"), _fixed(g, "theta_phb")),
    SlopeTag.MU_THETA_MPHB_PD: lambda g, kind: _pd(g, kind, _fixed(g, "theta_m"), _fixed(g, "theta_phb")),
    SlopeTag.MU_OMEGA_PD: _mu_omega_pd,
}


def _classes(g: BaseGeometry, kind: SlopeKind) -> tuple:
    """The kind's pair (F, G) on g, built on first use: kept on g for a
    parameterless kind, on the kind (by geometry) for any other."""
    build = _PAIRS[kind.tag]
    if not SLOPE_PARAMETERS[kind.tag]:
        return _kept(g, build, None)
    pair = kind._classes.get(g)
    if pair is None:
        pair = kind._classes[g] = build(g, kind)
    return pair


def slope(g: BaseGeometry, kind: SlopeKind, v: ChernVector) -> SlopeValue:
    """Evaluate a slope kind on a rational Chern vector: degree(F, v) /
    degree(G, v) for the kind's classes, +infinity where the second
    vanishes.  Both pairings are integer totals over v's numerators, so
    one Fraction of them, over the classes' denominators, is the value."""
    nums = v._nums
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    if type(nums[0]) is not int:
        raise DomainError("a slope needs a rational class (every coordinate a Fraction)")
    top, bottom = _classes(g, kind)
    table, right = _kept(g, _point_constants), (nums, 1)
    (num,), _ = _contract(table, (top._nums, 1), right)
    (den,), _ = _contract(table, (bottom._nums, 1), right)
    if not den:
        return SlopeValue.infinity()
    return SlopeValue(Fraction(num * bottom._den, den * top._den))
