"""The fraction-free ``Poly2`` against the dict-over-Fraction class it
replaced and against sympy, plus == and hash on constants."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstab.curves import OneDimCurve, TiltCurve, constraint_poly
from ellstab.errors import ComputationFault
from ellstab.poly import Poly1, Poly2, norm_mod_u, reduce_mod_u
from ellstab.ring import _q

from test_poly import _rat, _reference_divmod


class _ReferencePoly2:
    """Bivariate polynomial in (u, v), sparse dict over Fraction: ``poly.Poly2``
    as first written, kept as the reference for the fraction-free form.

    Also usable as a generic scalar inside the cohomology arithmetic, which
    turns ring computations into symbolic identities in (u, v).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for key, val in terms.items():
                val = _q(val)
                if val != 0:
                    clean[key] = val
        self.terms = clean

    @classmethod
    def const(cls, value) -> "_ReferencePoly2":
        return cls({(0, 0): value})

    @classmethod
    def u(cls) -> "_ReferencePoly2":
        return cls({(1, 0): 1})

    @classmethod
    def v(cls) -> "_ReferencePoly2":
        return cls({(0, 1): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, _ReferencePoly2):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == _ReferencePoly2.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _ReferencePoly2.const(other)
        if not isinstance(other, _ReferencePoly2):
            return NotImplemented
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + val
        return _ReferencePoly2(out)

    __radd__ = __add__

    def __neg__(self):
        return _ReferencePoly2({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _ReferencePoly2.const(other)
        if not isinstance(other, _ReferencePoly2):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _ReferencePoly2({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, _ReferencePoly2):
            return NotImplemented
        out: dict = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + a * b
        return _ReferencePoly2(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _ReferencePoly2({k: v / other for k, v in self.terms.items()})
        return NotImplemented

    def scale(self, c) -> "_ReferencePoly2":
        return self * _q(c)

    def eval(self, u, v):
        u, v = _q(u), _q(v)
        total = Fraction(0)
        for (i, j), a in self.terms.items():
            total += a * u**i * v**j
        return total

    def eval_v(self, v) -> Poly1:
        """Substitute a rational v, leaving a univariate polynomial in u."""
        v = _q(v)
        deg = max((i for (i, _) in self.terms), default=-1)
        coeffs = [Fraction(0)] * (deg + 1)
        for (i, j), a in self.terms.items():
            coeffs[i] += a * v**j
        return Poly1(coeffs)

    def udegree(self) -> int:
        return max((i for (i, _) in self.terms), default=-1)

    def ucoefficient(self, k: int) -> Poly1:
        """Coefficient of u^k as a polynomial in v (ascending)."""
        deg = max((j for (i, j) in self.terms if i == k), default=-1)
        coeffs = [Fraction(0)] * (deg + 1)
        for (i, j), a in self.terms.items():
            if i == k:
                coeffs[j] += a
        return Poly1(coeffs)

    @classmethod
    def from_ucoefficients(cls, coeffs: list) -> "_ReferencePoly2":
        """The polynomial sum_i coeffs[i] u^i, each a Poly1 in v or a constant."""
        terms: dict = {}
        for i, p in enumerate(coeffs):
            for j, a in enumerate(p.c if isinstance(p, Poly1) else Poly1.const(p).c):
                if a != 0:
                    terms[(i, j)] = a
        return cls(terms)


def _reference_reduce_mod_u(dividend: _ReferencePoly2, divisor: _ReferencePoly2) -> _ReferencePoly2:
    """Remainder of dividend modulo divisor, eliminating the variable u.

    Works in v-coefficient polynomials and requires every elimination step
    to divide exactly; raises if it cannot (which never happens for the
    identities this package reduces).
    """
    d0 = divisor.udegree()
    if d0 < 0:
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    lead = divisor.ucoefficient(d0)
    rem = dividend
    while True:
        d = rem.udegree()
        if d < d0 or rem.is_zero():
            return rem
        cd = rem.ucoefficient(d)
        q, r = _reference_divmod(cd.c, lead.c)
        if r:
            raise ComputationFault("non-exact coefficient division during reduction")
        shift = _ReferencePoly2.from_ucoefficients([Poly1([])] * (d - d0) + [Poly1(q)])
        rem = rem - shift * divisor


@pytest.mark.parametrize(
    "poly, value",
    [
        (Poly2.const(Fraction(1, 2)), Fraction(1, 2)),
        (Poly2(), 0),
        (Poly1.const(3), 3),
        (Poly1([]), 0),
        (Poly2.const(-4), Fraction(-4)),
        (Poly1.const(Fraction(-2, 3)), Fraction(-2, 3)),
        (Poly2.u() * 3 - Poly2.u() * 3, 0),
        (Poly1([1, 2]).scale(0), 0),
        ((Poly2.v() + Fraction(5, 4)) - Poly2.v(), Fraction(5, 4)),
        (Poly1([Fraction(7, 2), 4]) - Poly1([0, 4]), Fraction(7, 2)),
    ],
    ids=["poly2_half", "poly2_zero", "poly1_three", "poly1_zero", "poly2_minus_four", "poly1_minus_two_thirds",
         "poly2_cancelled_zero", "poly1_scaled_zero", "poly2_cancelled_constant", "poly1_cancelled_constant"],
)
def test_equal_constants_hash_equal(poly, value):
    """== implies equal hashes, so a set holds a constant polynomial and its
    value once."""
    assert poly == value and value == poly
    assert hash(poly) == hash(value)
    assert len({poly, value}) == 1


def test_truthiness_means_nonzero():
    """bool(p) == (p != 0) for Poly1 and Poly2, zeros and cancelled zeros
    included, so that ``if p:`` skips an exact zero as it does a Fraction's."""
    rng = random.Random(12)

    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    for _ in range(300):
        p1 = Poly1([q() for _ in range(rng.randint(0, 3))])
        p2 = Poly2({(rng.randint(0, 2), rng.randint(0, 2)): q() for _ in range(rng.randint(0, 3))})
        for p in (p1, p2, p1 - p1, p2 - p2, p2 * 0, p1.scale(0), p2 + 1, p1 * p1):
            assert bool(p) == (p != 0) == (not p.is_zero())
    assert not Poly1([]) and not Poly2() and not Poly2.const(0)
    assert Poly2.u() and Poly1.const(Fraction(1, 3)) and Poly2.const(-1)


def test_constants_compare_without_building_a_polynomial(monkeypatch):
    built = []
    init = Poly2.__init__
    monkeypatch.setattr(Poly2, "__init__", lambda self, terms=None: built.append(terms) or init(self, terms))
    p, zero, half = Poly2.u() * Fraction(1, 2), Poly2(), Poly2.const(Fraction(1, 2))
    built.clear()
    assert zero == 0 and zero == Fraction(0) and not p == 0 and p != Fraction(1, 2)
    assert half == Fraction(1, 2) and half != Fraction(1, 3) and half != 0 and half != 1
    assert built == []


_MONOMIALS = st.tuples(st.integers(0, 3), st.integers(0, 3))
_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_TERMS = st.dictionaries(_MONOMIALS, _COEFFS | st.just(Fraction(0)), max_size=5)
_SCALARS = st.integers(-6, 6) | _COEFFS


def _assert_canonical(p: Poly2) -> None:
    """Coprime integer numerators, none zero, over a positive denominator;
    the zero polynomial is ({}, 1); every coefficient a Fraction."""
    assert p._den > 0
    assert gcd(p._den, *p._nums.values()) == 1
    assert all(type(n) is int and n for n in p._nums.values())
    assert p._nums or p._den == 1
    assert all(type(c) is Fraction for c in p.terms.values())


def _same(p: Poly2, ref: _ReferencePoly2) -> None:
    _assert_canonical(p)
    assert p.terms == ref.terms
    assert p == Poly2(ref.terms) and hash(p) == hash(Poly2(ref.terms))


def _same_poly1(p: Poly1, ref: Poly1) -> None:
    assert p.c == ref.c
    assert all(type(c) is Fraction for c in p.c)


@settings(max_examples=300, deadline=None)
@given(a=_TERMS, b=_TERMS, c=_SCALARS, u=_COEFFS, v=_COEFFS)
def test_matches_reference(a, b, c, u, v):
    p, q = Poly2(a), Poly2(b)
    rp, rq = _ReferencePoly2(a), _ReferencePoly2(b)
    _same(p, rp)
    for got, want in (
        (p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq), (-p, -rp),
        (p + c, rp + c), (c + p, c + rp), (p - c, rp - c), (c - p, c - rp),
        (p * c, rp * c), (c * p, c * rp), (p.scale(c), rp.scale(c)),
    ):
        _same(got, want)
    if c:
        _same(p / c, rp / c)
    assert p.eval(u, v) == rp.eval(u, v) and type(p.eval(u, v)) is Fraction
    _same_poly1(p.eval_v(v), rp.eval_v(v))
    assert p.udegree() == rp.udegree()
    for k in range(5):
        _same_poly1(p.ucoefficient(k), rp.ucoefficient(k))
    assert (p == q) == (rp == rq)


def _divisor(terms, lead, degree):
    """A divisor of the given u-degree with a constant leading u-coefficient."""
    terms = {key: c for key, c in terms.items() if key[0] < degree}
    terms[(degree, 0)] = lead
    return terms


@settings(max_examples=200, deadline=None)
@given(a=_TERMS, b=_TERMS, lead=_COEFFS.filter(bool), degree=st.integers(1, 2), free=_TERMS)
def test_reduce_mod_u_matches_reference(a, b, lead, degree, free):
    """Constant-lead divisors always divide exactly; a free divisor either
    reduces like the reference or raises like it."""
    p = Poly2(a)
    rp = _ReferencePoly2(a)
    d = _divisor(b, lead, degree)
    _same(reduce_mod_u(p, Poly2(d)), _reference_reduce_mod_u(rp, _ReferencePoly2(d)))
    if not Poly2(free).is_zero():
        try:
            want = _reference_reduce_mod_u(rp, _ReferencePoly2(free))
        except ComputationFault:
            with pytest.raises(ComputationFault):
                reduce_mod_u(p, Poly2(free))
        else:
            _same(reduce_mod_u(p, Poly2(free)), want)


_U, _V = sympy.symbols("u v")


def _sympy(p: Poly2):
    return sympy.Poly.from_dict({k: sympy.Rational(c.numerator, c.denominator)
                                 for k, c in p.terms.items()} or {(0, 0): 0}, _U, _V)


def _from_sympy(expr) -> dict:
    poly = sympy.Poly(expr, _U, _V)
    return {k: Fraction(int(c.p), int(c.q)) for k, c in poly.as_dict().items() if c}


@settings(max_examples=200, deadline=None)
@given(a=_TERMS, b=_TERMS, lead=_COEFFS.filter(bool), degree=st.integers(1, 2))
def test_products_and_reduction_against_sympy(a, b, lead, degree):
    p, q = Poly2(a), Poly2(b)
    assert (p * q).terms == _from_sympy((_sympy(p) * _sympy(q)).as_expr())
    d = Poly2(_divisor(b, lead, degree))
    want = sympy.rem(_sympy(p).as_expr(), _sympy(d).as_expr(), _U)
    assert reduce_mod_u(p, d).terms == _from_sympy(want)


def _proportional(a, b) -> bool:
    """Whether two sympy polynomials in v are nonzero multiples of each other,
    or both zero."""
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return (a * b.LC() - b * a.LC()).is_zero


@settings(max_examples=200, deadline=None)
@given(a=_TERMS, b=_TERMS, lead=_COEFFS.filter(bool), degree=st.integers(1, 3), power=st.integers(0, 2))
def test_norm_is_the_resultant(a, b, lead, degree, power):
    """``norm_mod_u`` is Res_u(x, p) up to a nonzero constant, for a
    constant u-lead, and for lead v^power when p is linear in u (the lead of
    both curves at h = 0); so it is zero exactly when the resultant is."""
    x = Poly2(a)
    d = _divisor(b, lead, degree)
    if degree == 1:
        d[(1, power)] = d.pop((1, 0))
    p = Poly2(d)
    got = norm_mod_u(x, p)
    want = sympy.Poly(sympy.resultant(_sympy(x).as_expr(), _sympy(p).as_expr(), _U), _V)
    assert _proportional(sympy.Poly([_rat(c) for c in reversed(got.c)] or [0], _V), want)


def test_norm_refuses_a_divisor_free_of_u():
    with pytest.raises(ZeroDivisionError):
        norm_mod_u(Poly2.u(), Poly2({(0, 1): 1}))


def _reference_poly2_reduce(dividend: Poly2, divisor: Poly2) -> Poly2:
    """``reduce_mod_u`` as the ``Poly2`` loop it was before the integer
    u-rows: one top u-coefficient at a time, divided by the lead with
    ``Poly1.divmod``, the quotient times u^k times the divisor subtracted."""
    d0 = divisor.udegree()
    if d0 < 0:
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    lead = divisor.ucoefficient(d0)
    rem = dividend
    while True:
        d = rem.udegree()
        if d < d0 or rem.is_zero():
            return rem
        cd = rem.ucoefficient(d)
        q, r = cd.divmod(lead)
        if not r.is_zero():
            raise ComputationFault("non-exact coefficient division during reduction")
        shift = Poly2._ints({(d - d0, j): n for j, n in enumerate(q._nums)}, q._den)
        rem = rem - shift * divisor


def _reference_norm_mod_u(x: Poly2, p: Poly2) -> Poly1:
    """``norm_mod_u`` as it was before the integer u-rows: every dividend
    times lead^(deg_u y - d + 1) as a ``Poly2``, reduced by the ``Poly2``
    loop, and the determinant of the ``Poly1`` u-coefficients by Laplace
    expansion."""
    d = p.udegree()
    if d < 1:
        raise ZeroDivisionError("norm modulo a polynomial free of u")
    lead = Poly2._ints({(0, j): n for (i, j), n in p._nums.items() if i == d}, 1)

    def reduced(y: Poly2) -> Poly2:
        for _ in range(y.udegree() - d + 1):
            y = y * lead
        return _reference_poly2_reduce(y, p)

    rows = [reduced(x)]
    for _ in range(d - 1):
        rows.append(reduced(rows[-1] * Poly2.u()))
    return _reference_determinant([[y.ucoefficient(i) for i in range(d)] for y in rows])


def _reference_determinant(m: list) -> Poly1:
    """Laplace expansion along the first row of a square matrix of Poly1s."""
    if len(m) == 1:
        return m[0][0]
    return sum((m[0][j] * _reference_determinant([row[:j] + row[j + 1:] for row in m[1:]]) * (-1) ** j
                for j in range(len(m))), Poly1._ints((), 1))


# Both curves' own polynomials at h in {-2, -1, 0, 1/2}: a constant u-lead
# for h != 0, c v^2 (tilt) and c v (one-dimensional) with d = 1 at h = 0.
_CURVE_POLYS = [constraint_poly(c) for h in (-2, -1, 0, Fraction(1, 2)) for c in (
    TiltCurve(h, 1, 3), TiltCurve(h, Fraction(1, 2), Fraction(5, 3)),
    OneDimCurve(h, 1, 3), OneDimCurve(h, Fraction(2, 3), Fraction(7, 2)))]


@st.composite
def _divisors(draw):
    """A curve polynomial, a divisor linear in u with lead c v^j, or a free
    divisor of u-degree at least 1."""
    which = draw(st.sampled_from(["curve", "monomial", "free"]))
    if which == "curve":
        return draw(st.sampled_from(_CURVE_POLYS))
    if which == "monomial":
        terms = {key: x for key, x in draw(_TERMS).items() if key[0] == 0}
        terms[(1, draw(st.integers(0, 3)))] = draw(_COEFFS.filter(bool))
        return Poly2(terms)
    return draw(_TERMS.map(Poly2).filter(lambda p: p.udegree() >= 1))


def _lead(p: Poly2) -> Poly2:
    d = p.udegree()
    return Poly2._ints({(0, j): n for (i, j), n in p._nums.items() if i == d}, 1)


@settings(max_examples=300, deadline=None)
@given(a=_TERMS, divisor=_divisors(), power=st.integers(0, 3))
def test_integer_reduction_is_the_poly2_loop(a, divisor, power):
    """``reduce_mod_u`` on integer u-rows gives the old loop's ``_nums`` and
    ``_den``, or raises ``ComputationFault`` where it raised: on the curves'
    own polynomials and on leads c v^j at d = 1, with the dividend times a
    power of the lead so that some non-constant leads divide exactly."""
    x = Poly2(a)
    for _ in range(power):
        x = x * _lead(divisor)
    try:
        want = _reference_poly2_reduce(x, divisor)
    except ComputationFault:
        with pytest.raises(ComputationFault):
            reduce_mod_u(x, divisor)
        return
    got = reduce_mod_u(x, divisor)
    _assert_canonical(got)
    assert got._nums == want._nums and got._den == want._den


def _proportional_poly1(a: Poly1, b: Poly1) -> bool:
    """Whether a = r b for a nonzero rational r (both zero included)."""
    if not a or not b:
        return not a and not b
    return a * b.c[-1] == b * a.c[-1]


@settings(max_examples=300, deadline=None)
@given(a=_TERMS, divisor=_divisors())
def test_integer_norm_is_the_poly2_norm(a, divisor):
    """``norm_mod_u`` on integer u-rows is the old ``Poly2`` norm up to a
    nonzero rational, so it has the same roots, the v = 0 factors at h = 0
    included."""
    x = Poly2(a)
    assert _proportional_poly1(norm_mod_u(x, divisor), _reference_norm_mod_u(x, divisor))

