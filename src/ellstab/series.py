"""Truncated Laurent series in a large parameter v with exact rational
coefficients.

A series stores its nonzero terms by descending exponent together with a
truncation floor ``trunc``: coefficients at exponents >= trunc are exact as
stored (absent means zero), everything below is unknown.  ``trunc = None``
marks an exact series (a Laurent polynomial with no unknown tail).
Arithmetic propagates the floor conservatively so that a stored coefficient
is never silently wrong.

The coefficients are held under the storage rule of ``ring._IntegerForm``,
as (exponent, numerator) pairs by descending exponent; equality and
hashing are over that form and the floor, the same in every process.
``terms``, the (exponent, ``Fraction``) pairs, is built on first use and
cached; ``leading()`` and ``coefficient()`` also return ``Fraction``s.

The public constructor accepts any scalars, repeated exponents and terms
below the floor; the kernel's ``_ints`` takes an exponent -> numerator
dict whose entries already sit at or above the floor.  Products
skip every pair that lands below the floor without computing it.
``_combination`` forms a constant plus a linear combination of series (a
charge germ from its class-independent germs, or a sum) in one pass over
one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DomainError
from .ring import _RATIONAL, _IntegerForm, _over_common_denominator, _q


@dataclass(frozen=True)
class LaurentSeries(_IntegerForm):
    _nums: tuple[tuple[int, int], ...]
    _den: int
    trunc: int | None = None

    def __init__(self, terms, trunc: int | None = None):
        merged: dict[int, Fraction] = {}
        for e, c in terms:
            c = _q(c)
            if c != 0:
                merged[e] = merged.get(e, Fraction(0)) + c
        exps = [e for e in merged if trunc is None or e >= trunc]
        nums, den = _over_common_denominator([merged[e] for e in exps])
        self._store(dict(zip(exps, nums)), den, trunc)

    def _store(self, nums: dict[int, int], den: int, trunc: int | None) -> None:
        """Hold sum nums[e]/den v^e, from entries at or above ``trunc``:
        nonzero numerators by descending exponent, content-reduced."""
        pairs = sorted(((e, n) for e, n in nums.items() if n), reverse=True)
        g = gcd(den, *(n for _, n in pairs))
        if g != 1:
            pairs = [(e, n // g) for e, n in pairs]
            den //= g
        object.__setattr__(self, "_nums", tuple(pairs))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def _combination(cls, const: int, pairs, den: int) -> "LaurentSeries":
        """(const + sum of c * s over the (c, s) pairs) / den, for integers
        const and c and den > 0, in one integer pass.

        Equal to the chained ``(const + c1 * s1 + ...) / den``: a zero c adds
        an exact zero, the floor is the largest among the s with nonzero c
        (``None`` if all are exact), and every entry below it is dropped,
        the constant at exponent 0 included.
        """
        pairs = [(c, s) for c, s in pairs if c]
        floors = [s.trunc for _, s in pairs if s.trunc is not None]
        floor = max(floors) if floors else None
        common = lcm(*(s._den for _, s in pairs))
        out: dict[int, int] = {}
        for c, s in pairs:
            f = c * (common // s._den)
            for e, n in s._nums:
                if floor is not None and e < floor:
                    break  # terms are stored by descending exponent
                out[e] = out[e] + n * f if e in out else n * f
        if const and (floor is None or floor <= 0):
            out[0] = out.get(0, 0) + const * common
        return cls._ints(out, den * common, floor)

    def __hash__(self) -> int:  # not hash(None): an address, per process, before Python 3.12
        return hash((self._nums, self._den, self.trunc or 0))

    @cached_property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((e, Fraction(n, self._den)) for e, n in self._nums)

    def __repr__(self) -> str:
        return f"LaurentSeries(terms={self.terms!r}, trunc={self.trunc!r})"

    @classmethod
    def zero(cls, trunc: int | None = None) -> "LaurentSeries":
        return cls._ints({}, 1, trunc)

    @classmethod
    def const(cls, c) -> "LaurentSeries":
        return cls.monomial(0, c)

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentSeries":
        c = Fraction(coeff)
        return cls._ints({exponent: c.numerator}, c.denominator, None)

    def is_stored_zero(self) -> bool:
        return not self._nums

    def is_exact(self) -> bool:
        return self.trunc is None

    def leading(self) -> tuple[int, Fraction] | None:
        if not self._nums:
            return None
        e, n = self._nums[0]
        return e, Fraction(n, self._den)

    def degree(self) -> int | None:
        return self._nums[0][0] if self._nums else None

    def coefficient(self, exponent: int) -> Fraction:
        for e, n in self._nums:
            if e == exponent:
                return Fraction(n, self._den)
            if e < exponent:
                break
        if self.trunc is not None and exponent < self.trunc:
            raise DomainError(f"coefficient at v^{exponent} lies below the truncation floor")
        return Fraction(0)

    def _add(self, other, sign: int):
        if isinstance(other, _RATIONAL):
            other = LaurentSeries.const(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return LaurentSeries._combination(0, ((1, self), (sign, other)), 1)

    def __add__(self, other):  # its own function object: perfbench traces it as series.add
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._ints({e: -n for e, n in self._nums}, self._den, self.trunc)

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            if other == 0:
                return LaurentSeries.zero()
            return self._times(other.numerator, other.denominator)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        floor = _product_floor(self, other)
        out: dict[int, int] = {}
        for e1, n1 in self._nums:
            for e2, n2 in other._nums:
                e = e1 + e2
                if floor is not None and e < floor:
                    break  # terms are stored by descending exponent
                out[e] = out[e] + n1 * n2 if e in out else n1 * n2
        return LaurentSeries._ints(out, self._den * other._den, floor)

    __rmul__ = __mul__

    def _times(self, p: int, q: int) -> "LaurentSeries":
        return LaurentSeries._ints({e: n * p for e, n in self._nums}, self._den * q, self.trunc)

    def eval(self, v) -> Fraction:
        """Evaluate the stored terms at a rational point (tail ignored)."""
        v = _q(v)
        return sum((c * v**e for e, c in self.terms), Fraction(0))


def _product_floor(f: LaurentSeries, g: LaurentSeries) -> int | None:
    candidates = []
    if f.trunc is not None:
        if g._nums:
            candidates.append(f.trunc + g.degree())
        if g.trunc is not None:
            candidates.append(f.trunc + g.trunc - 1)
    if g.trunc is not None and f._nums:
        candidates.append(g.trunc + f.degree())
    if not candidates:
        return None
    return max(candidates)
