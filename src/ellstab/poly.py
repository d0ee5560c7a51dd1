"""Small exact polynomial toolkit.

Univariate polynomials over the rationals, with root isolation on one
signed remainder sequence per polynomial (its last term, gcd(p, p') up to a
constant, gives the squarefree part) and dyadic bisection by sign, no
floating point anywhere; and bivariate polynomials in (u, v), used both
numerically and as symbolic ring scalars.  The remainder sequence is kept
in integers, each member up to a positive factor, so root counts and
Sturm-Tarski signs read integer values at each rational point, as the
bisection does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ComputationFault, CurveDomainError
from .ring import _q


class Poly1:
    """Univariate polynomial, dense ascending coefficients over Fraction."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = [_q(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def const(cls, value) -> "Poly1":
        return cls([value])

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly1):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == Poly1.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly1.const(other)
        if not isinstance(other, Poly1):
            return NotImplemented
        n = max(len(self.c), len(other.c))
        return Poly1(
            [
                (self.c[i] if i < len(self.c) else 0) + (other.c[i] if i < len(other.c) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly1([-a for a in self.c])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly1.const(other)
        if not isinstance(other, Poly1):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly1([a * other for a in self.c])
        if not isinstance(other, Poly1):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly1([])
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(other.c):
                if b == 0:
                    continue
                out[i + j] += a * b
        return Poly1(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = Fraction(0)
        for a in reversed(self.c):
            acc = acc * x + a
        return acc

    def derivative(self) -> "Poly1":
        return Poly1([i * a for i, a in enumerate(self.c)][1:])

    def divmod(self, other: "Poly1") -> tuple["Poly1", "Poly1"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        div = other.c
        qdeg = len(rem) - len(div)
        if qdeg < 0:
            return Poly1([]), Poly1(rem)
        quot = [Fraction(0)] * (qdeg + 1)
        lead = div[-1]
        for k in range(qdeg, -1, -1):
            coeff = rem[k + len(div) - 1] / lead
            quot[k] = coeff
            if coeff != 0:
                for j, b in enumerate(div):
                    rem[k + j] -= coeff * b
        return Poly1(quot), Poly1(rem[: len(div) - 1])


def sturm_chain(p: Poly1, second: Poly1 | None = None) -> list[tuple[int, ...]]:
    """p, then ``second`` (p' by default), then each negated remainder of
    the last two: the signed remainder sequence, nonzero terms only, each
    up to a positive factor, as primitive integer coefficients (ascending).

    The remainders are pseudo-remainders: eliminating a top coefficient c
    against the divisor's lead l multiplies the dividend by |l| / gcd(l, c)
    first, so no step divides, and the content goes after each step.
    """
    chain = [_primitive(p.c), _primitive((p.derivative() if second is None else second).c)]
    while len(chain[-1]) > 1:
        r = _negated_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return [q for q in chain if q]


def _primitive(coeffs) -> tuple[int, ...]:
    """Rational coefficients times the positive rational that makes them
    coprime integers (() for the zero polynomial)."""
    den = lcm(*(x.denominator for x in coeffs))
    nums = [x.numerator * (den // x.denominator) for x in coeffs]
    content = gcd(*nums)
    return tuple(n // content for n in nums)


def _negated_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """-(a mod b) up to a positive factor, primitive; b has degree >= 1."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    for top in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if c == 0:
            continue
        g = gcd(lead, c)
        m, c = abs(lead) // g, (c if lead > 0 else -c) // g  # m * old top = c * lead
        shift = top - db
        r = [m * x for x in r]
        for j in range(db):
            r[shift + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    content = gcd(*r)
    return tuple(-x // content for x in r)


def _squarefree_chain(p: Poly1) -> list[tuple[int, ...]]:
    """The Sturm chain of p's squarefree part, that part first ([] for p = 0)."""
    chain = sturm_chain(p)
    if chain and len(chain[-1]) > 1:  # p / gcd(p, p'), up to a constant
        q, r = p.divmod(Poly1(chain[-1]))
        if not r.is_zero():
            raise ComputationFault("inexact polynomial gcd division")
        chain = sturm_chain(q)
    return chain


def _sign_variations(chain, x) -> int:
    """Sign changes along the chain at x = n/d: each member of degree k is
    read as the integer sum of c_i n^i d^(k-i), which has the sign of its
    value at x because d > 0."""
    n, d = x.numerator, x.denominator
    last = count = 0
    for c in chain:
        value, scale = c[-1], d
        for i in range(len(c) - 2, -1, -1):
            value = value * n + c[i] * scale
            scale *= d
        if value:
            sign = 1 if value > 0 else -1
            count += sign == -last
            last = sign
    return count


def count_roots(p: Poly1, lo: Fraction, hi: Fraction, chain=None) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    if chain is None:
        chain = _squarefree_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def sign_at_root(q: Poly1, p: Poly1, bracket: RootInterval) -> int:
    """Exact sign of q at the one root of p in a bracket: lo itself when the
    bracket is exact, else the one root inside ends that are not roots of p.
    Sturm-Tarski: across (lo, hi) the sign variations of the signed
    remainders of p and p' q (mod p) drop by the sum of sign q(x) over the
    distinct roots x of p there."""
    if bracket.exact:
        return _sign(q(bracket.lo))
    chain = sturm_chain(p, (p.derivative() * q.divmod(p)[1]).divmod(p)[1])
    return _sign_variations(chain, bracket.lo) - _sign_variations(chain, bracket.hi)


@dataclass(frozen=True)
class RootInterval:
    """A certified root enclosure [lo, hi]; lo == hi means an exact root."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


def isolate_positive_roots(p: Poly1, precision: Fraction) -> list[RootInterval]:
    """All positive real roots of p, each bracketed to the given width.

    Sturm counting on p's squarefree part isolates the roots; each
    isolating bracket is then refined by dyadic bisection on the sign of that
    part alone, so every returned interval is certified exactly.
    """
    chain = _squarefree_chain(p)
    if not chain or len(chain[0]) < 2:
        return []
    p = Poly1(chain[0])
    # Each pending interval (lo, hi] carries whether its ends are roots of p.
    # A bracket is taken only when neither end is, so no bracket touches a
    # root that is reported exactly, and no root is reported twice.
    stack = [(Fraction(0), _root_bound(p), p(0) == 0, False)]
    isolated: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi, lo_root, hi_root = stack.pop()
        k = count_roots(p, lo, hi, chain) - hi_root
        if k == 0:
            continue
        if k == 1 and not (lo_root or hi_root):
            isolated.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        mid_root = p(mid) == 0
        if mid_root:
            isolated.append((mid, mid))
        stack.append((lo, mid, lo_root, mid_root))
        stack.append((mid, hi, mid_root, hi_root))
    out = [
        RootInterval(lo, hi) if lo == hi else _bisect_by_sign(p, lo, hi, precision)
        for lo, hi in isolated
    ]
    out.sort(key=lambda r: r.lo)
    return out


def _root_bound(p: Poly1) -> Fraction:
    """Cauchy's bound 1 + max |p_i| / |lead|, above every |root| of p."""
    return Fraction(1) + max(abs(a) for a in p.c) / abs(p.c[-1])


def refine_root(p: Poly1, bracket: RootInterval, precision: Fraction) -> RootInterval:
    """Shrink an isolating bracket of a root of p to the given width.

    A Sturm count on p's squarefree part first certifies that (lo, hi] holds
    exactly one root; the bisection after it needs only signs of that part.
    """
    if bracket.exact:
        return bracket
    chain = _squarefree_chain(p)
    lo, hi = bracket.lo, bracket.hi
    if count_roots(p, lo, hi, chain) != 1:
        raise CurveDomainError("bracket does not isolate a single root")
    return _bisect_by_sign(Poly1(chain[0]), lo, hi, precision)


def _bisect_by_sign(p: Poly1, lo: Fraction, hi: Fraction, precision) -> RootInterval:
    """Bisect (lo, hi], which holds exactly one root of the squarefree p,
    until it is no wider than precision; a midpoint that is a root collapses it.

    Works on q(t) = den * p(lo + (hi - lo) t), which has integer
    coefficients, at dyadic points t = m / 2^j, where 2^(jd) q(t) is the
    integer sum of q_i m^i 2^(j(d-i)).  The root lies left of a midpoint
    exactly when p there has the sign opposite to p just above lo: the sign
    of q(0), or minus the sign of q(1) when lo is itself a root (zero when
    hi is a root too; the root is then hi).
    """
    width = hi - lo
    shifted: list[Fraction] = []
    for a in reversed(p.c):  # Horner: shifted <- shifted * (lo + width t) + a
        nxt = [x * lo for x in shifted] + [Fraction(0)]
        for i, x in enumerate(shifted):
            nxt[i + 1] += x * width
        nxt[0] += a
        shifted = nxt
    den = lcm(*(x.denominator for x in shifted))
    q = [x.numerator * (den // x.denominator) for x in shifted]
    d = len(q) - 1
    ref = _sign(q[0]) if q[0] else -_sign(sum(q))

    precision = Fraction(precision)
    wide = width.numerator * precision.denominator
    narrow = precision.numerator * width.denominator
    m = j = 0  # the bracket is t in [m / 2^j, (m + 1) / 2^j]
    while wide > narrow << j:
        j += 1
        mid = 2 * m + 1
        value = q[d]
        for i in range(d - 1, -1, -1):
            value = value * mid + (q[i] << (j * (d - i)))
        if value == 0:
            root = lo + width * Fraction(mid, 1 << j)
            return RootInterval(root, root)
        m = 2 * m if _sign(value) == -ref else mid
    step = width / (1 << j)
    return RootInterval(lo + step * m, lo + step * (m + 1))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Poly2:
    """Bivariate polynomial in (u, v), sparse dict over Fraction.

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
    def const(cls, value) -> "Poly2":
        return cls({(0, 0): value})

    @classmethod
    def u(cls) -> "Poly2":
        return cls({(1, 0): 1})

    @classmethod
    def v(cls) -> "Poly2":
        return cls({(0, 1): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly2):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly2.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + val
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly2({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly2({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, Poly2):
            return NotImplemented
        out: dict = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + a * b
        return Poly2(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly2({k: v / other for k, v in self.terms.items()})
        return NotImplemented

    def scale(self, c) -> "Poly2":
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
    def from_ucoefficients(cls, coeffs: list[Poly1]) -> "Poly2":
        terms: dict = {}
        for i, p in enumerate(coeffs):
            for j, a in enumerate(p.c):
                if a != 0:
                    terms[(i, j)] = a
        return cls(terms)


def reduce_mod_u(dividend: Poly2, divisor: Poly2) -> Poly2:
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
        q, r = cd.divmod(lead)
        if not r.is_zero():
            raise ComputationFault("non-exact coefficient division during reduction")
        shift = Poly2.from_ucoefficients([Poly1([])] * (d - d0) + [q])
        rem = rem - shift * divisor
