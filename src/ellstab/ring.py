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

truncated above the point class; with the unit they give every product of
basis classes, Theta * Theta pull(A) = h (H.A) * pt among them.  For a
field B = t*Theta + pull(D) they give the closed forms used by ``twist``:

    B^2 = Theta * pull(t^2 h * H + 2t * D)  +  (D.D) * f,
    B^3 = (t^3 h^2 * H^2  +  3 t^2 h * (H.D)  +  3t * (D.D)) * pt.

All arithmetic is exact; coordinates are ``fractions.Fraction`` values
(polynomial and series coefficients are also accepted, which lets the same
formulas run symbolically).  One storage form holds for every vector
(``ChernVector``) at every scalar: its flat coordinates as numerators over
one positive denominator.  A vector of rationals holds integers,
content-reduced, so it is fraction-free from construction, as ``Poly2``
is; any other holds its coordinates over 1.  Each vector operation is one
formula over the numerators, and each field is built on its first read.
The lattice is cleared to integers once, when a ``BaseGeometry`` is built,
and held on it beside its public Fractions as (numerators, den) pairs:
``gram_nums``, ``hb_nums``, ``h_nums``, ``hb_row_nums`` (the row
hb * gram) and ``hb2_nums`` (H^2).  Every (bi)linear closed form is an
integer table written from those integers alone, with no ``Fraction``
arithmetic, and applied by ``_contract``: the product's structure
constants, written once from the relations (``_structure_constants``) and
applied by ``mul`` and ``degree`` at every scalar, and the linear maps of
``fmt`` and ``charges`` (right factor the unit 1, or (1, d) for the full
charge), each handed to ``_written`` as integer numerators over one den.
``_kept`` keeps every value that depends on the geometry alone on it.
``pair`` and ``pair_h`` skip exact-zero factors as ``_contract`` does.
``_IntegerForm`` states that storage rule, with the operators it implies,
once for the exact scalars ``Poly1``, ``Poly2`` and ``LaurentSeries``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from .errors import ConfigurationError, DimensionError


def _q(x):
    """Coerce ints and strings to Fraction, pass other exact scalars through
    and refuse a float, which would carry rounding into exact arithmetic."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(f"exact scalars are int, Fraction or str, not float ({x!r})")
    return x


def _qtuple(xs) -> tuple:
    return tuple(_q(x) for x in xs)


_ZERO = Fraction(0)


def _sum(terms: list):
    """The terms added from the first, so that a ``Poly2`` or series keeps
    its type; the Fraction zero when there are none."""
    return reduce(operator.add, terms) if terms else _ZERO


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _reduced(nums: list, den: int) -> tuple[list, int]:
    """Integer numerators over den > 0 with their content divided out, so
    over their least common denominator."""
    c = gcd(den, *nums)
    return ([t // c for t in nums], den // c) if c != 1 else (nums, den)


def _numerators(coords) -> tuple[list, int]:
    """Flat coordinates as numerators: rationals over their least common
    denominator, so that no gcd has to refuse a Fraction; others over 1."""
    try:
        return _over_common_denominator(coords)
    except AttributeError:
        return coords, 1


_RATIONAL = (int, Fraction)


class _IntegerForm:
    """The storage rule of the exact scalars ``Poly1``, ``Poly2`` and
    ``LaurentSeries``: integer numerators ``_nums`` by key (a power, a
    monomial, an exponent) over one positive denominator ``_den``, zeros
    dropped and content-reduced, so that the form is canonical and ``==``
    compares it directly.  Arithmetic works on integers and ends with one
    gcd over the result (the fraction-free idea of Bareiss, 1968);
    ``Fraction`` coefficients are built only when read.

    Each type lays out ``_nums`` in its own ``_store``, one pass that drops
    zeros and divides out the content, and supplies ``_add(other, sign)``,
    ``__mul__``, ``__neg__`` and ``_times(p, q)``, its numerators times the
    int p over its den times the int q > 0.  Here are the private
    constructor ``_ints``, ``+``, ``-``, ``/`` and ``scale`` by a rational,
    and ``==`` and ``hash`` under which a constant is its value: a form
    with at most one numerator is read by ``_constant()``, the numerator of
    a constant or None.  ``LaurentSeries``, a frozen dataclass, has field equality
    instead: a series carries a floor, so none equals a number.
    """

    __slots__ = ()

    @classmethod
    def _ints(cls, *form):
        """The value of an integer form, such as (nums, den) with den > 0."""
        out = object.__new__(cls)
        out._store(*form)
        return out

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        """Division by a nonzero rational p/q: the numerators times q (the
        sign of p moved onto them) over the den times |p|, one gcd."""
        if isinstance(other, _RATIONAL):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError(f"{type(self).__name__} division by zero")
            return self._times(-q, -p) if p < 0 else self._times(q, p)
        return NotImplemented

    def scale(self, c):
        return self * _q(c)

    def __eq__(self, other) -> bool:
        if isinstance(other, self.__class__):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, _RATIONAL):
            return (self._den == other.denominator and len(self._nums) <= 1
                    and self._constant() == other.numerator)
        return NotImplemented

    def __hash__(self):
        """A constant hashes as its value, so that == implies equal hashes."""
        nums = self._nums
        n = self._constant() if len(nums) <= 1 else None
        if n is not None:
            return hash(Fraction(n, self._den))
        return hash((frozenset(nums.items()) if isinstance(nums, dict) else nums, self._den))


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
        return DivisorB._raw(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorB") -> "DivisorB":
        return self + (-other)

    def __neg__(self) -> "DivisorB":
        return DivisorB._raw(tuple(-a for a in self.coords))

    def scale(self, c) -> "DivisorB":
        c = _q(c)
        return DivisorB._raw(tuple(c * a for a in self.coords))

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
    ``m0`` a seed constant with m0 > vprime and h + 2*m0 > 0.  The lattice
    is cleared to integers once, at construction, and held beside the
    public values as (numerators, den) pairs, each over its least common
    denominator: ``gram_nums`` (the rows of gram), ``hb_nums``, ``h_nums``,
    ``hb_row_nums`` (the row hb * gram) and ``hb2_nums`` (H.H, one
    numerator).  The H data (``hb2``, ``hb_divisor`` and the row
    ``hb_row`` used by ``pair_h``, Fractions with the zero where the row
    vanishes) is computed there on those integers, one Fraction per value;
    the hash once, on first use, since most geometries are never hashed.
    Every table writer reads the integer fields, none the Fractions.
    ``matrices`` starts empty; ``_kept`` alone reads and writes it, keyed by
    (builder, argument tuple), each built on its first use and none here:
    the product's structure constants and their point-class slice
    (``_point_constants``), the transform tables and the row of
    ``ChernVector.a3`` (``fmt._phi_table``, ``fmt._phi_hat_table``,
    ``fmt._a3_table``) and the charge tables (``charges._charge_table``),
    all written from the integer fields (no ``Poly2`` evaluation), the
    lattice data of ``pair`` and exp(-B) as integers (``_gram_ints``,
    ``_theta_ints``), the half-canonical field and its exp(-B)
    (``_half_canonical_bfield``, ``_half_canonical_exp``), the classes that
    slopes pair with (``slopes._FIXED``) and the parameterless kinds' pairs
    of them, the products of ``curves._fixed_cycles`` and of the cycle
    identity's omega side (``_theta_h_products``, ``_omega_products``), the
    reduced charge's germs at the symbols (u, v) as integer monomial rows,
    read once at ``Poly2`` symbols (``charges._germ_rows``, flat or not),
    the closed form's and the ring's integer matrices at the symbols on
    each basis class (``charges._symbol_rows``), each charge kind's
    products of its germs by integer convolution of those rows
    (``asymptotics._cross_products``) and the mark of
    ``charges.prove_closed_form`` once it has run on g.
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
    gram_nums: tuple = field(init=False, compare=False, repr=False)
    hb_nums: tuple = field(init=False, compare=False, repr=False)
    h_nums: tuple = field(init=False, compare=False, repr=False)
    hb_row_nums: tuple = field(init=False, compare=False, repr=False)
    hb2_nums: tuple = field(init=False, compare=False, repr=False)
    matrices: dict = field(init=False, compare=False, repr=False)

    def __init__(self, rank, gram, hb, h, vprime=0, m0=1):
        if type(rank) is not int:
            whole = Fraction(_q(rank))  # _q refuses a float
            if whole.denominator != 1:
                raise ConfigurationError(f"geometry.rank: must be a whole number, not {rank!r}")
            rank = int(whole)
        gram = tuple(_qtuple(row) for row in gram)
        hb = _qtuple(hb)
        h = _q(h)
        vprime = _q(vprime)
        m0 = _q(m0)
        if rank <= 0:
            raise ConfigurationError("geometry.rank: must be positive")
        if len(gram) != rank or any(len(row) != rank for row in gram):
            raise ConfigurationError("geometry.gram: must be a rank x rank matrix")
        flat, gd = _over_common_denominator([c for row in gram for c in row])
        rows = tuple(tuple(flat[i * rank : (i + 1) * rank]) for i in range(rank))
        if any(rows[i][j] != rows[j][i] for i in range(rank) for j in range(i)):
            raise ConfigurationError("geometry.gram: must be symmetric")
        if len(hb) != rank:
            raise ConfigurationError("geometry.hb: length must equal rank")
        b, bd = _over_common_denominator(hb)
        row, rd = _reduced([sum(c * r[j] for c, r in zip(b, rows)) for j in range(rank)], bd * gd)
        q, qd = _reduced([sum(c * r for c, r in zip(b, row))], bd * rd)
        if q[0] <= 0:
            raise ConfigurationError("geometry.hb: self-intersection must be positive")
        hn, hd, mn, md = h.numerator, h.denominator, m0.numerator, m0.denominator
        if hn * md + 2 * mn * hd <= 0:
            raise ConfigurationError("geometry.m0: requires h + 2*m0 > 0")
        if m0 <= vprime:
            raise ConfigurationError("geometry.m0: requires m0 > vprime")
        self.__dict__.update(
            rank=rank, gram=gram, hb=hb, h=h, vprime=vprime, m0=m0, hb2=Fraction(q[0], qd),
            hb_divisor=DivisorB._raw(hb), hb_row=tuple(_divided(c, rd) for c in row), gram_nums=(rows, gd),
            hb_nums=(tuple(b), bd), h_nums=(hn, hd), hb_row_nums=(tuple(row), rd), hb2_nums=(q[0], qd),
            matrices={}, _hash=None)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.rank, self.gram, self.hb, self.h, self.vprime, self.m0)))
        return self._hash

    def half_canonical_bfield(self) -> DivisorX:
        """The distinguished twist -(1/2) * pull(K_base) = -(h/2) * pull(H),
        built on the first call and kept (``_kept``)."""
        return _kept(self, _half_canonical_bfield)

    def zero_divisor(self) -> DivisorB:
        return DivisorB.zero(self.rank)


class _Field:
    """A field of ``ChernVector``.  A non-data descriptor: on first read it
    builds that field alone from the numerators, which sits in the instance
    ``__dict__`` and shadows it from then on."""

    def __init__(self, name: str, position: int):
        self.name, self.position = name, position  # flat index, or block of S/eta

    def __get__(self, v, owner=None):
        if v is None:
            return self
        nums, den, i = v._nums, v._den, self.position
        if self.name in ("S", "eta"):
            r = len(nums) // 2 - 2
            value = DivisorB._raw(tuple(_divided(t, den) for t in nums[2 + i * r : 2 + (i + 1) * r]))
        else:
            value = _divided(nums[i], den)
        v.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class ChernVector:
    """A cohomology class in the six-component splitting.

    Components: ``n`` (rank), ``x`` (Theta coefficient of degree one),
    ``S`` (pullback part of degree one), ``eta`` (Theta*pullback part of
    degree two), ``a`` (fiber coefficient of degree two), ``s`` (point
    coefficient).  Addition is componentwise, matching direct sums.

    One storage form at every scalar: the flat coordinates (n, x, S...,
    eta..., a, s) as numerators ``_nums`` over one positive int ``_den``,
    put in that form by ``_ints``.  A vector whose coordinates are all
    rational holds integers, content-reduced, so canonical (zero is all
    zeros over 1); any other vector (``Poly2``, ``LaurentSeries``, or
    ``Fraction`` mixed with them) holds its coordinates over 1, and no int
    among them, so ``type(v._nums[0]) is int`` tells the two apart.
    ``==``, ``+``, ``-``, ``scale``, ``mul``, ``degree``,
    ``fmt.phi``/``phi_hat`` and ``fmt.fiber_swap_rule`` are each one
    formula over the numerators.  Each field is built on its first read,
    that field alone, with the constructor's type and value, so ``hash``
    and ``repr`` are those of the fields.
    """

    n: Fraction
    x: Fraction
    S: DivisorB
    eta: DivisorB
    a: Fraction
    s: Fraction

    def __init__(self, n, x, S: DivisorB, eta: DivisorB, a, s):
        if not (isinstance(S, DivisorB) and isinstance(eta, DivisorB)):
            kinds = f"{type(S).__name__} and {type(eta).__name__}"
            raise TypeError(f"components S and eta must be DivisorB, not {kinds}")
        if S.rank != eta.rank:
            raise DimensionError("components S and eta have different ranks")
        n, x, a, s = _q(n), _q(x), _q(a), _q(s)
        self._store(*_numerators([n, x, *S.coords, *eta.coords, a, s]))
        self.__dict__.update(n=n, x=x, S=S, eta=eta, a=a, s=s)  # as their first reads would build them

    @classmethod
    def _ints(cls, nums, den: int) -> "ChernVector":
        """The vector of flat coordinates nums[i] / den, for den > 0."""
        v = object.__new__(cls)
        v._store(nums, den)
        return v

    def _store(self, nums, den: int) -> None:
        """Hold nums / den in the one storage form: rationals as integers
        over one denominator, content-reduced; any other scalars each
        divided by den, over 1."""
        try:
            c = gcd(den, *nums)  # refuses a scalar that is no int
        except TypeError:
            if all(isinstance(t, _RATIONAL) for t in nums):
                nums, common = _over_common_denominator(nums)
                den *= common
                c = gcd(den, *nums)
            else:
                nums, den, c = [_divided(t, den) for t in nums], 1, 1
        if c != 1:
            nums = [t // c for t in nums]
            den //= c
        self.__dict__.update(_nums=tuple(nums), _den=den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        nums, other_nums, d1, d2 = self._nums, other._nums, self._den, other._den
        if d1 == d2:
            return nums == other_nums
        return len(nums) == len(other_nums) and all(a * d2 == b * d1 for a, b in zip(nums, other_nums))

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
        return len(self._nums) // 2 - 2

    def coordinates(self) -> tuple:
        """The flat coordinate tuple (n, x, S..., eta..., a, s)."""
        return (self.n, self.x, *self.S.coords, *self.eta.coords, self.a, self.s)

    def __add__(self, other: "ChernVector") -> "ChernVector":
        return self._add(other, operator.add)

    def __sub__(self, other: "ChernVector") -> "ChernVector":
        return self._add(other, operator.sub)

    def _add(self, other: "ChernVector", op) -> "ChernVector":
        """op (+ or -) of the numerators, cross-multiplied if the denominators differ."""
        if other.rank_lattice != self.rank_lattice:
            raise DimensionError("divisor rank mismatch")
        nums, other_nums, d1, d2 = self._nums, other._nums, self._den, other._den
        if d1 == d2:
            return ChernVector._ints(list(map(op, nums, other_nums)), d1)
        return ChernVector._ints([op(a * d2, b * d1) for a, b in zip(nums, other_nums)], d1 * d2)

    def __neg__(self) -> "ChernVector":
        return ChernVector._ints([-t for t in self._nums], self._den)

    def scale(self, c) -> "ChernVector":
        c = _q(c)
        p, q = (c.numerator, c.denominator) if type(c) is Fraction else (c, 1)
        return ChernVector._ints([p * t for t in self._nums], self._den * q)

    def __rmul__(self, c) -> "ChernVector":
        return self.scale(c)

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


# Installed after the dataclass is made, so that it does not take them for
# field defaults.
for _name, _position in (("n", 0), ("x", 1), ("S", 0), ("eta", 1), ("a", -2), ("s", -1)):
    setattr(ChernVector, _name, _Field(_name, _position))
del _name, _position


def pair(g: BaseGeometry, d1: DivisorB, d2: DivisorB):
    """Intersection pairing of two base classes: d1^T * gram * d2, the
    integer gram rows (``_gram_ints``) applied to their numerators."""
    if d1.rank != g.rank or d2.rank != g.rank:
        raise DimensionError("divisor rank does not match geometry rank")
    (n1, l1), (n2, l2) = _numerators(d1.coords), _numerators(d2.coords)
    rows, gd = _kept(g, _gram_ints)
    return _divided(_form(rows, n1, n2), gd * l1 * l2)


def _form(rows: list, n1, n2):
    """The sum of a_i c b_j over the entries (j, c) of ``rows[i]`` with no
    exact-zero factor, added from the first term as ``_sum`` adds; the int
    0 when there is none, so that integer numerators give an int."""
    terms = [a * c * n2[j] for a, row in zip(n1, rows) if a for j, c in row if n2[j]]
    return _sum(terms) if terms else 0


def pair_h(g: BaseGeometry, d: DivisorB):
    """Pairing H.d with the ample class, through the stored row hb * gram."""
    if d.rank != g.rank:
        raise DimensionError("divisor rank does not match geometry rank")
    return _sum([h * c for h, c in zip(g.hb_row, d.coords) if h and c])


def mul(g: BaseGeometry, v1: ChernVector, v2: ChernVector) -> ChernVector:
    """Graded product of two classes, truncated above the point class.

    The structure constants of g applied to the factors' numerators by
    ``_contract`` at every scalar, and the totals put in the storage form
    by ``ChernVector._ints`` (one gcd for two rational factors).  A
    coordinate that no product reaches is the Fraction zero: at h = 0,
    where Theta * Theta pull(A) has no point coefficient, that can be the
    point coefficient even when x1 and eta2 are ``Poly2``s or series (a
    formula that multiplied by h = 0 would keep their zero there).
    Products are summed term by term, so a coordinate of truncated series
    takes the floor of every term with a nonzero constant, also where the
    rational factor's terms cancel.
    """
    r = g.rank
    if v1.rank_lattice != r or v2.rank_lattice != r:
        raise DimensionError("vector rank does not match geometry rank")
    table = _kept(g, _structure_constants)
    return ChernVector._ints(*_contract(table, (v1._nums, v1._den), (v2._nums, v2._den)))


def degree(g: BaseGeometry, v1: ChernVector, v2: ChernVector):
    """The point coefficient of v1 * v2, ``mul(g, v1, v2).s`` in value and
    type: ``_degree_numerator`` over its den."""
    return _divided(*_degree_numerator(g, v1, v2))


def _degree_numerator(g: BaseGeometry, v1: ChernVector, v2: ChernVector) -> tuple:
    """``degree`` as (numerator, den): ``_contract`` with the structure
    constants that reach the point class (``_point_constants``)."""
    r = g.rank
    if v1.rank_lattice != r or v2.rank_lattice != r:
        raise DimensionError("vector rank does not match geometry rank")
    (total,), den = _contract(_kept(g, _point_constants), (v1._nums, v1._den), (v2._nums, v2._den))
    return total, den


def _contract(table: tuple, left: tuple, right: tuple) -> tuple[list, int]:
    """A table (rows, den, width) applied to factors given as (numerators,
    denominator): the sums of a_i b_j c over the entries (j, k, c) of
    ``rows[i]``, by output k < width, over den times the factors'
    denominators.  A factor that is false (an exact zero, ``Fraction`` or
    ``Poly2``) is skipped, so an output that none reaches is the integer 0;
    a series is never false, so a stored zero still passes its floor on."""
    rows, den, width = table
    (lnums, lden), (rnums, rden) = left, right
    totals = [0] * width
    for a, row in zip(lnums, rows):
        if a:
            for j, k, c in row:
                b = rnums[j]
                if b:
                    totals[k] += a * c * b
    return totals, den * lden * rden


def _written(entries, size: int, width: int, den: int) -> tuple[list, int, int]:
    """The ``_contract`` table of the terms (i, j, k, c), c / den a_i b_j on
    output k, for integer c and left size ``size``: the nonzero c with the
    content they share with den divided out, so that den is the least
    denominator of the entries; ``rows[i]`` lists its (j, k, c) in the order
    given."""
    entries = [entry for entry in entries if entry[3]]
    content = gcd(den, *(c for *_, c in entries))
    rows = [[] for _ in range(size)]
    for i, j, k, c in entries:
        rows[i].append((j, k, c // content))
    return rows, den // content, width


def _kept(g: BaseGeometry, build, *args):
    """``build(g, *args)``, built on first use and kept in ``g.matrices``
    under (build, args): the one keeper of values of the geometry alone."""
    try:
        return g.matrices[build, args]
    except KeyError:
        value = g.matrices[build, args] = build(g, *args)
        return value


def _divided(t, den: int):
    """A numerator over den: a Fraction for an int, the shared zero for 0,
    and any other scalar divided by den."""
    if type(t) is int:
        return Fraction(t, den) if t else _ZERO
    return t if den == 1 else t / den


def _structure_constants(g: BaseGeometry) -> tuple[list, int, int]:
    """The structure constants of the product on g, from the relations in
    the module docstring, as a ``_contract`` table written from g's
    integer fields.  Basis class i times basis class j is the sum of
    c_kij / den times basis class k, over the least positive denominator
    den; ``rows[i]`` lists the (j, k, c_kij) with c_kij nonzero, by j and
    then k."""
    r = g.rank
    (hn, hd), (hb, bd), (row, rd), (gram, gd) = g.h_nums, g.hb_nums, g.hb_row_nums, g.gram_nums
    dim = 2 * r + 4
    x, S, eta, a, s = 1, range(2, 2 + r), range(2 + r, 2 + 2 * r), dim - 2, dim - 1
    one = hd * bd * gd  # h hb, h hb_row (rd divides bd gd) and gram are integers over it
    entries: dict = {}

    def meet(i, j, k, c):
        """Class i times class j, and j times i, is c / one times class k."""
        if c:
            entries[i, j, k] = entries[j, i, k] = c

    for k in range(dim):
        meet(0, k, k, one)  # the unit
    meet(x, a, s, one)  # Theta * f = pt
    for p in range(r):
        meet(x, x, eta[p], hn * gd * hb[p])  # Theta^2 = h Theta pull(H)
        meet(x, S[p], eta[p], one)  # Theta * pull(A) = Theta pull(A)
        meet(x, eta[p], s, hn * (bd * gd // rd) * row[p])  # Theta * Theta pull(A) = h (H.A) pt
        for q in range(r):
            c = hd * bd * gram[p][q]
            meet(S[p], S[q], a, c)  # pull(A) * pull(B) = (A.B) f
            meet(S[p], eta[q], s, c)  # pull(A) * Theta pull(B) = (A.B) pt
    content = gcd(one, *entries.values())
    rows = [[] for _ in range(dim)]
    for (i, j, k), c in sorted(entries.items()):
        rows[i].append((j, k, c // content))
    return rows, one // content, dim


def _point_constants(g: BaseGeometry) -> tuple[list, int, int]:
    """The structure constants that reach the point class, on output 0."""
    rows, den, width = _kept(g, _structure_constants)
    return [[(j, 0, c) for j, k, c in row if k == width - 1] for row in rows], den, 1


def divisor_vector(g: BaseGeometry, d: DivisorX) -> ChernVector:
    """Embed a divisor class as a degree-one cohomology vector."""
    if d.base.rank != g.rank:
        raise DimensionError("components S and eta have different ranks")
    return ChernVector._ints(*_numerators([0, d.theta, *d.base.coords, *[0] * g.rank, 0, 0]))


def divisor_powers(g: BaseGeometry, d: DivisorX) -> tuple:
    """A divisor class as a vector, its square, and the degree of its cube
    as (numerator, den) (``_degree_numerator``): the powers a charge at the
    polarization d reads, built once."""
    dv = divisor_vector(g, d)
    d2 = mul(g, dv, dv)
    return dv, d2, _degree_numerator(g, d2, dv)


def twist(g: BaseGeometry, v: ChernVector, B: DivisorX) -> ChernVector:
    """Twist by a field B: multiply by exp(-B) (``_exp_minus``), one product."""
    return mul(g, _exp_minus(g, B), v)


def _half_canonical_bfield(g: BaseGeometry) -> DivisorX:
    """-(h/2) pull(H), its coordinates from g's integer fields."""
    (hn, hd), (hb, bd) = g.h_nums, g.hb_nums
    return DivisorX(_ZERO, DivisorB._raw(tuple(_divided(-hn * c, 2 * hd * bd) for c in hb)))


def _half_canonical_exp(g: BaseGeometry) -> ChernVector:
    """exp(-B) of the half-canonical field B = -(1/2) pull(K_base), the
    twist of ``slopes``' MU_STAR_B (and of MU_OMEGA_B at that field) and
    of ``verify``'s im-identity and threshold guard; read through
    ``_kept``, so built once per geometry."""
    return _exp_minus(g, g.half_canonical_bfield())


def _exp_minus(g: BaseGeometry, B: DivisorX) -> ChernVector:
    """exp(-B) = 1 - B + B^2/2 - B^3/6 for a field B = t Theta + pull(D),
    with B^2 and B^3 from their closed forms (module docstring), on the
    numerators of (t, D) over one denominator L (``_numerators``: Poly2 or
    series coordinates over 1) and the integer lattice data of
    ``_gram_ints`` and, for t != 0, ``_theta_ints``.  Each coordinate is
    a numerator over its own denominator: integers go over their least
    common multiple to ``ChernVector._ints`` (one gcd); any other scalar
    is divided by its own denominator alone, where that is not 1.  The
    products are grouped as in the closed forms, so a series keeps the
    floors they give."""
    if B.base.rank != g.rank:
        raise DimensionError("divisor rank does not match geometry rank")
    (t, *d), L = _numerators([B.theta, *B.base.coords])
    rows, gd = _kept(g, _gram_ints)
    q, LL = _form(rows, d, d), L * L  # D.D over gd L^2
    if t:
        hrow, w, wd, c3, c2, c1, sd = _kept(g, _theta_ints)
        eta = [(t * t * wi + t * c * wd, wd * LL) for wi, c in zip(w, d)]
        hd = _form(hrow, (1,), d)  # H.D over rd L
        s = (-t * (t * t * c3 + t * hd * c2 + q * c1), sd * LL * L)
    else:
        eta, s = [(0, 1)] * g.rank, (0, 1)
    parts = [(1, 1), (-t, L), *((-c, L) for c in d), *eta, (q, 2 * gd * LL), s]
    if type(t) is int:
        den = lcm(*(p for _, p in parts))
        return ChernVector._ints([n * (den // p) for n, p in parts], den)
    return ChernVector._ints([n if p == 1 else _divided(n, p) for n, p in parts], 1)


def _gram_ints(g: BaseGeometry) -> tuple[list, int]:
    """The gram matrix as integer rows over one denominator gd, read off
    the structure constants (pull(A) * pull(B) = (A.B) f): ``rows[i]``
    lists the (j, G_ij gd) with G_ij nonzero, by j."""
    rows, gd, width = _kept(g, _structure_constants)
    return [[(j - 2, c) for j, k, c in rows[2 + i] if k == width - 2] for i in range(g.rank)], gd


def _theta_ints(g: BaseGeometry) -> tuple:
    """The integers that exp(-B) reads only for t != 0, from g's integer
    fields: the row hb * gram over rd, as a one-row ``_form`` table; w over
    wd, with w_i / wd = h hb_i / 2, the t^2 coefficient of eta; and c3, c2,
    c1 with 6 s = -t (t^2 h^2 H^2 + 3 t h (H.D) + 3 (D.D)) read on
    numerators: c3 / m = h^2 H^2, c2 / m = 3 h / rd and c1 / m = 3 / gd,
    over sd = 6 m."""
    (hn, hd), (hb, bd), (row, rd), (q, qd) = g.h_nums, g.hb_nums, g.hb_row_nums, g.hb2_nums
    w, wd = _reduced([hn * c for c in hb], 2 * hd * bd)
    gd = _kept(g, _gram_ints)[1]
    (c3, c2, c1), m = _reduced([hn * hn * q * rd * gd, 3 * hn * hd * qd * gd, 3 * hd * hd * qd * rd],
                               hd * hd * qd * rd * gd)
    return [[(j, c) for j, c in enumerate(row) if c]], w, wd, c3, c2, c1, 6 * m


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
