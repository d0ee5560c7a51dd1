"""Exact arithmetic in the even rational cohomology of an elliptically
fibered threefold with a section.

The even cohomology is modelled through the six-dimensional splitting

    1,  pullback divisor,  fiber   |   section,  section * pullback,  point

so a class is a vector ``(n, x, S, eta, a, s)`` standing for

    n * 1  +  x * Theta  +  pull(S)  +  Theta * pull(eta)  +  a * f  +  s * pt

where ``Theta`` is the section divisor, ``f`` the fiber class, and ``S``,
``eta`` live in the rational Picard lattice of the base surface.  The base
enters only through lattice data: a symmetric pairing ``gram``, the
coordinates ``hb`` of an ample class H, and the proportionality constant
``h`` with the canonical class of the base numerically equivalent to h*H.

Products are computed from the relations

    Theta^2 = h * Theta * pull(H),      Theta * f = pt,
    pull(A) * pull(B) = (A.B) * f,      Theta * pull(A) * pull(B) = (A.B) * pt,

truncated above the point class.  For a field B = t*Theta + pull(D) they give
the closed forms used by ``twist``:

    B^2 = Theta * pull(t^2 h * H + 2t * D)  +  (D.D) * f,
    B^3 = (t^3 h^2 * H^2  +  3 t^2 h * (H.D)  +  3t * (D.D)) * pt.

All arithmetic is exact; coordinates are ``fractions.Fraction`` values
(polynomial coefficients are also accepted, which lets the same formulas run
symbolically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigurationError, DimensionError, DomainError


def _q(x):
    """Coerce ints and strings to Fraction, pass other scalars through."""
    if isinstance(x, (int, str)):
        return Fraction(x)
    return x


def _qtuple(xs) -> tuple:
    return tuple(_q(x) for x in xs)


_ZERO = Fraction(0)


def _sum_products(pairs):
    """Sum of p * q over the pairs with no None factor, or None if there is none."""
    total = None
    for p, q in pairs:
        if p is not None and q is not None:
            total = p * q if total is None else total + p * q
    return total


def _or_zero(value):
    return _ZERO if value is None else value


def _row(coords, gram) -> tuple:
    """The row vector coords * gram over coordinates given with zeros as None;
    an entry is None when no nonzero product reaches it."""
    return tuple(
        _sum_products((c, row[j] or None) for c, row in zip(coords, gram)) for j in range(len(gram))
    )


def _plain(coords) -> bool:
    """Whether every coordinate is a Fraction."""
    return all(type(c) is Fraction for c in coords)


def _nonzero(coords, plain: bool) -> tuple:
    """Coordinates with exact zeros, of any scalar type, replaced by None."""
    if plain:
        return tuple(c or None for c in coords)
    return tuple(None if c == 0 else c for c in coords)


@dataclass(frozen=True)
class DivisorB:
    """A class in the rational Picard lattice of the base surface."""

    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", _qtuple(coords))

    @classmethod
    def _raw(cls, coords: tuple) -> "DivisorB":
        """Wrap coordinates that are already scalars, without coercion."""
        d = object.__new__(cls)
        object.__setattr__(d, "coords", coords)
        return d

    @classmethod
    def zero(cls, rank: int) -> "DivisorB":
        return cls((0,) * rank)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "DivisorB") -> "DivisorB":
        if len(self.coords) != len(other.coords):
            raise DimensionError("divisor rank mismatch")
        return DivisorB(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorB") -> "DivisorB":
        return self + (-other)

    def __neg__(self) -> "DivisorB":
        return DivisorB(tuple(-a for a in self.coords))

    def scale(self, c) -> "DivisorB":
        c = _q(c)
        return DivisorB(tuple(c * a for a in self.coords))

    def __rmul__(self, c) -> "DivisorB":
        return self.scale(c)


@dataclass(frozen=True)
class DivisorX:
    """A divisor class on the threefold: theta * Theta + pull(base)."""

    theta: Fraction
    base: DivisorB

    def __init__(self, theta, base: DivisorB):
        object.__setattr__(self, "theta", _q(theta))
        object.__setattr__(self, "base", base)

    @classmethod
    def pullback(cls, d: DivisorB) -> "DivisorX":
        return cls(0, d)

    @classmethod
    def zero(cls, rank: int) -> "DivisorX":
        return cls(0, DivisorB.zero(rank))

    def __add__(self, other: "DivisorX") -> "DivisorX":
        return DivisorX(self.theta + other.theta, self.base + other.base)

    def __neg__(self) -> "DivisorX":
        return DivisorX(-self.theta, -self.base)


@dataclass(frozen=True)
class BaseGeometry:
    """Numeric intersection data of the base surface plus fibration constants.

    ``gram`` is the symmetric intersection pairing on the lattice model of
    the base, ``hb`` holds the coordinates of the ample class H, ``h`` is
    the constant with K_base numerically equivalent to h*H, ``vprime`` an
    ampleness bound below which Theta + v*pull(H) need not be ample, and
    ``m0`` a seed constant with m0 > vprime and h + 2*m0 > 0.  The H data
    derived from them (``hb2`` = H.H, ``hb_divisor`` and the row ``hb_row``
    of hb * gram used by ``pair_h``) is computed once, at construction.
    ``matrices`` starts empty; ``fmt`` keeps each transform's matrix there.
    """

    rank: int
    gram: tuple
    hb: tuple
    h: Fraction
    vprime: Fraction
    m0: Fraction
    hb2: Fraction = field(init=False, compare=False, repr=False)
    hb_divisor: DivisorB = field(init=False, compare=False, repr=False)
    hb_row: tuple = field(init=False, compare=False, repr=False)
    matrices: dict = field(init=False, compare=False, repr=False)

    def __init__(self, rank, gram, hb, h, vprime=0, m0=1):
        rank = int(rank)
        gram = tuple(_qtuple(row) for row in gram)
        hb = _qtuple(hb)
        h = _q(h)
        vprime = _q(vprime)
        m0 = _q(m0)
        if rank <= 0:
            raise ConfigurationError("geometry.rank: must be positive")
        if len(gram) != rank or any(len(row) != rank for row in gram):
            raise ConfigurationError("geometry.gram: must be a rank x rank matrix")
        for i in range(rank):
            for j in range(rank):
                if gram[i][j] != gram[j][i]:
                    raise ConfigurationError("geometry.gram: must be symmetric")
        if len(hb) != rank:
            raise ConfigurationError("geometry.hb: length must equal rank")
        hb2 = sum(hb[i] * gram[i][j] * hb[j] for i in range(rank) for j in range(rank))
        if hb2 <= 0:
            raise ConfigurationError("geometry.hb: self-intersection must be positive")
        if h + 2 * m0 <= 0:
            raise ConfigurationError("geometry.m0: requires h + 2*m0 > 0")
        if m0 <= vprime:
            raise ConfigurationError("geometry.m0: requires m0 > vprime")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "hb", hb)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "vprime", vprime)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "hb2", hb2)
        object.__setattr__(self, "hb_divisor", DivisorB(hb))
        # (hb * gram)_j, or None where every product hb_i * gram_ij is zero.
        object.__setattr__(self, "hb_row", _row(_nonzero(hb, True), gram))
        object.__setattr__(self, "matrices", {})

    def half_canonical_bfield(self) -> DivisorX:
        """The distinguished twist -(1/2) * pull(K_base) = -(h/2) * pull(H)."""
        return DivisorX(0, self.hb_divisor.scale(-Fraction(self.h) / 2))

    def zero_divisor(self) -> DivisorB:
        return DivisorB.zero(self.rank)


@dataclass(frozen=True)
class ChernVector:
    """A cohomology class in the six-component splitting.

    Components: ``n`` (rank), ``x`` (Theta coefficient of degree one),
    ``S`` (pullback part of degree one), ``eta`` (Theta*pullback part of
    degree two), ``a`` (fiber coefficient of degree two), ``s`` (point
    coefficient).  Addition is componentwise, matching direct sums.
    """

    n: Fraction
    x: Fraction
    S: DivisorB
    eta: DivisorB
    a: Fraction
    s: Fraction

    def __init__(self, n, x, S: DivisorB, eta: DivisorB, a, s):
        if S.rank != eta.rank:
            raise DimensionError("components S and eta have different ranks")
        object.__setattr__(self, "n", _q(n))
        object.__setattr__(self, "x", _q(x))
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "a", _q(a))
        object.__setattr__(self, "s", _q(s))

    @classmethod
    def _raw(cls, n, x, S: DivisorB, eta: DivisorB, a, s) -> "ChernVector":
        """Assemble components that are already scalars, without coercion."""
        v = object.__new__(cls)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "x", x)
        object.__setattr__(v, "S", S)
        object.__setattr__(v, "eta", eta)
        object.__setattr__(v, "a", a)
        object.__setattr__(v, "s", s)
        return v

    @classmethod
    def zero(cls, rank: int) -> "ChernVector":
        z = DivisorB.zero(rank)
        return cls(0, 0, z, z, 0, 0)

    @classmethod
    def unit(cls, rank: int) -> "ChernVector":
        z = DivisorB.zero(rank)
        return cls(1, 0, z, z, 0, 0)

    @property
    def rank_lattice(self) -> int:
        return self.S.rank

    def coordinates(self) -> tuple:
        """The flat coordinate tuple (n, x, S..., eta..., a, s)."""
        return (self.n, self.x, *self.S.coords, *self.eta.coords, self.a, self.s)

    def is_zero(self) -> bool:
        return (
            self.n == 0
            and self.x == 0
            and self.S.is_zero()
            and self.eta.is_zero()
            and self.a == 0
            and self.s == 0
        )

    def __add__(self, other: "ChernVector") -> "ChernVector":
        return ChernVector(
            self.n + other.n,
            self.x + other.x,
            self.S + other.S,
            self.eta + other.eta,
            self.a + other.a,
            self.s + other.s,
        )

    def __sub__(self, other: "ChernVector") -> "ChernVector":
        return self + (-other)

    def __neg__(self) -> "ChernVector":
        return ChernVector(-self.n, -self.x, -self.S, -self.eta, -self.a, -self.s)

    def scale(self, c) -> "ChernVector":
        c = _q(c)
        return ChernVector(
            c * self.n, c * self.x, self.S.scale(c), self.eta.scale(c), c * self.a, c * self.s
        )

    def __rmul__(self, c) -> "ChernVector":
        return self.scale(c)

    def degree_part(self, d: int) -> "ChernVector":
        """The homogeneous piece of cohomological degree 2*d."""
        z = DivisorB.zero(self.rank_lattice)
        if d == 0:
            return ChernVector(self.n, 0, z, z, 0, 0)
        if d == 1:
            return ChernVector(0, self.x, self.S, z, 0, 0)
        if d == 2:
            return ChernVector(0, 0, z, self.eta, self.a, 0)
        if d == 3:
            return ChernVector(0, 0, z, z, 0, self.s)
        raise DomainError(f"no degree-{d} part on a threefold")

    def a2(self, g: BaseGeometry) -> DivisorB:
        """Pullback part of the canonically twisted degree-one component."""
        return self.S + g.hb_divisor.scale(self.n * g.h / 2)

    def a3(self, g: BaseGeometry) -> Fraction:
        """Fiber coefficient carried to degree two by the transform.

        Equals s + (h/2) H.eta + (1/12) x h^2 H^2 as a pure function of the
        stored fields.
        """
        heta = pair_h(g, self.eta)
        return self.s + g.h * heta / 2 + self.x * g.h * g.h * g.hb2 * Fraction(1, 12)


def pair(g: BaseGeometry, d1: DivisorB, d2: DivisorB):
    """Intersection pairing of two base classes: d1^T * gram * d2."""
    if d1.rank != g.rank or d2.rank != g.rank:
        raise DimensionError("divisor rank does not match geometry rank")
    total = None
    for ci, row in zip(d1.coords, g.gram):
        if ci == 0:
            continue
        for gij, cj in zip(row, d2.coords):
            if gij == 0 or cj == 0:
                continue
            total = ci * gij * cj if total is None else total + ci * gij * cj
    return _or_zero(total)


def pair_h(g: BaseGeometry, d: DivisorB):
    """Pairing H.d with the ample class, through the stored row hb * gram."""
    if d.rank != g.rank:
        raise DimensionError("divisor rank does not match geometry rank")
    return _or_zero(_sum_products(zip(g.hb_row, _nonzero(d.coords, _plain(d.coords)))))


def _product_view(coords: tuple, nonzero: tuple, plain: bool, partner_plain: bool) -> tuple:
    """Coordinates as they enter the products outside pairings.

    A zero is skipped (None) only when it is a Fraction and the other
    vector is all Fraction, so that every skipped product is a Fraction
    zero.  A Fraction zero times a Poly2 is a Poly2 zero, which makes the
    sum it enters a Poly2; that product is kept.
    """
    if not partner_plain:
        return coords
    if plain:
        return nonzero
    return tuple(None if type(c) is Fraction and not c else c for c in coords)


def mul(g: BaseGeometry, v1: ChernVector, v2: ChernVector) -> ChernVector:
    """Graded product of two classes, truncated above the point class.

    Works on the coordinate tuples and skips every product with an
    exact-zero factor.  Pairings skip zeros of any scalar type, as ``pair``
    does; the other products skip as ``_product_view`` allows.  Each
    component therefore has the value and the scalar type of the full
    expansion.
    """
    r = g.rank
    if v1.rank_lattice != r or v2.rank_lattice != r:
        raise DimensionError("vector rank does not match geometry rank")
    f1, f2 = v1.coordinates(), v2.coordinates()
    plain1, plain2 = _plain(f1), _plain(f2)
    z1, z2 = _nonzero(f1, plain1), _nonzero(f2, plain2)
    p1 = _product_view(f1, z1, plain1, plain2)
    p2 = _product_view(f2, z2, plain2, plain1)
    n1, x1, S1, e1, a1, s1 = p1[0], p1[1], p1[2 : 2 + r], p1[2 + r : 2 + 2 * r], p1[-2], p1[-1]
    n2, x2, S2, e2, a2, s2 = p2[0], p2[1], p2[2 : 2 + r], p2[2 + r : 2 + 2 * r], p2[-2], p2[-1]
    zS1, ze1 = z1[2 : 2 + r], z1[2 + r : 2 + 2 * r]
    zS2, ze2 = z2[2 : 2 + r], z2[2 + r : 2 + 2 * r]
    h = g.h

    xxh = x1 * x2 * h if x1 is not None and x2 is not None and h else None
    n = _sum_products(((n1, n2),))
    x = _sum_products(((n1, x2), (n2, x1)))
    S = tuple(_or_zero(_sum_products(((n1, S2[i]), (n2, S1[i])))) for i in range(r))
    eta = tuple(
        _or_zero(
            _sum_products(
                ((n1, e2[i]), (n2, e1[i]), (xxh, g.hb[i] or None), (x1, S2[i]), (x2, S1[i]))
            )
        )
        for i in range(r)
    )
    # Each pullback part meets the gram matrix once, for both of its
    # pairings; pairings with H use the stored row hb * gram.
    w1, w2 = _row(zS1, g.gram), _row(zS2, g.gram)
    he1 = None if x2 is None else _sum_products(zip(g.hb_row, ze1))
    he2 = None if x1 is None else _sum_products(zip(g.hb_row, ze2))
    a = _sum_products(((n1, a2), (n2, a1), *zip(w1, zS2)))
    s = _sum_products(
        (
            (n1, s2),
            (n2, s1),
            (x1, None if he2 is None else h * he2),
            (x2, None if he1 is None else h * he1),
            (x1, a2),
            (x2, a1),
            *zip(w1, ze2),
            *zip(w2, ze1),
        )
    )
    return ChernVector._raw(
        _or_zero(n),
        _or_zero(x),
        DivisorB._raw(S),
        DivisorB._raw(eta),
        _or_zero(a),
        _or_zero(s),
    )


def divisor_vector(g: BaseGeometry, d: DivisorX) -> ChernVector:
    """Embed a divisor class as a degree-one cohomology vector."""
    z = DivisorB.zero(g.rank)
    return ChernVector(0, d.theta, d.base, z, 0, 0)


def twist(g: BaseGeometry, v: ChernVector, B: DivisorX) -> ChernVector:
    """Twist by a field B: multiply by exp(-B) = 1 - B + B^2/2 - B^3/6.

    B^2 and B^3 enter through their closed forms (module docstring), so a
    twist costs one product.
    """
    t, D = B.theta, B.base
    dd = pair(g, D, D)
    if t:
        th = t * g.h
        eta = DivisorB(tuple(th * t / 2 * hb + t * c for hb, c in zip(g.hb, D.coords)))
        s = -t * (th * th * g.hb2 + 3 * th * pair_h(g, D) + 3 * dd) / 6
    else:
        eta, s = g.zero_divisor(), _ZERO
    expo = ChernVector(1, -t, -D, eta, dd / 2, s)
    return mul(g, expo, v)


@lru_cache(maxsize=None)
def compute_m(g: BaseGeometry) -> Fraction:
    """The positivity constant m = m0^2 * H^2 / (h + 2*m0).

    For k >= m the class Theta*pull(H) + k*f pairs nonnegatively with every
    effective divisor, which makes the section-slope function well behaved.
    """
    m = g.m0 * g.m0 * g.hb2 / (g.h + 2 * g.m0)
    if m <= 0:
        raise ConfigurationError("geometry: derived constant m must be positive")
    return m
