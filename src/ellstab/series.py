"""Truncated Laurent series in a large parameter v with exact rational
coefficients.

A series stores its nonzero terms by descending exponent together with a
truncation floor ``trunc``: coefficients at exponents >= trunc are exact as
stored (absent means zero), everything below is unknown.  ``trunc = None``
marks an exact series (a Laurent polynomial with no unknown tail).
Arithmetic propagates the floor conservatively so that a stored coefficient
is never silently wrong.

The public constructor accepts any scalars, repeated exponents and terms
below the floor.  Arithmetic results are built by the private
``LaurentSeries._normal`` instead: it takes an exponent -> ``Fraction`` dict
whose entries already sit at or above the floor, drops zeros and sorts once.
Products skip every pair that lands below the floor without computing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .ring import _q


@dataclass(frozen=True)
class LaurentSeries:
    terms: tuple[tuple[int, Fraction], ...]
    trunc: int | None = None

    def __init__(self, terms, trunc: int | None = None):
        merged: dict[int, Fraction] = {}
        for e, c in terms:
            c = _q(c)
            if c != 0:
                merged[e] = merged.get(e, Fraction(0)) + c
        cleaned = sorted(
            ((e, c) for e, c in merged.items() if c != 0 and (trunc is None or e >= trunc)),
            reverse=True,
        )
        object.__setattr__(self, "terms", tuple(cleaned))
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def _normal(cls, coeffs: dict[int, Fraction], trunc: int | None) -> "LaurentSeries":
        """Series from exponent -> Fraction entries at or above ``trunc``."""
        terms = sorted(((e, c) for e, c in coeffs.items() if c), reverse=True)
        out = object.__new__(cls)
        object.__setattr__(out, "terms", tuple(terms))
        object.__setattr__(out, "trunc", trunc)
        return out

    @classmethod
    def zero(cls, trunc: int | None = None) -> "LaurentSeries":
        return cls((), trunc)

    @classmethod
    def const(cls, c) -> "LaurentSeries":
        return cls(((0, c),))

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentSeries":
        return cls(((exponent, coeff),))

    def is_stored_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return self.trunc is None

    def leading(self) -> tuple[int, Fraction] | None:
        return self.terms[0] if self.terms else None

    def degree(self) -> int | None:
        return self.terms[0][0] if self.terms else None

    def coefficient(self, exponent: int) -> Fraction:
        for e, c in self.terms:
            if e == exponent:
                return c
            if e < exponent:
                break
        if self.trunc is not None and exponent < self.trunc:
            raise DomainError(f"coefficient at v^{exponent} lies below the truncation floor")
        return Fraction(0)

    def truncate(self, floor: int | None) -> "LaurentSeries":
        if floor is None:
            return self
        new_floor = floor if self.trunc is None else max(floor, self.trunc)
        return LaurentSeries(self.terms, new_floor)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.const(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.trunc is None:
            floor = other.trunc
        elif other.trunc is None:
            floor = self.trunc
        else:
            floor = max(self.trunc, other.trunc)
        if floor is None or self.trunc == floor:
            out = dict(self.terms)
        else:
            out = {e: c for e, c in self.terms if e >= floor}
        for e, c in other.terms:
            if floor is not None and e < floor:
                break
            out[e] = out[e] + c if e in out else c
        return LaurentSeries._normal(out, floor)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._normal({e: -c for e, c in self.terms}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.const(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _q(other)
            if other == 0:
                return LaurentSeries.zero()
            return LaurentSeries._normal({e: c * other for e, c in self.terms}, self.trunc)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        floor = _product_floor(self, other)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if floor is not None and e < floor:
                    break  # terms are stored by descending exponent
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return LaurentSeries._normal(out, floor)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _q(other)
            return LaurentSeries._normal({e: c / other for e, c in self.terms}, self.trunc)
        return NotImplemented

    def scale(self, c) -> "LaurentSeries":
        return self * _q(c)

    def eval(self, v) -> Fraction:
        """Evaluate the stored terms at a rational point (tail ignored)."""
        v = _q(v)
        return sum((c * v**e for e, c in self.terms), Fraction(0))


def _product_floor(f: LaurentSeries, g: LaurentSeries) -> int | None:
    candidates = []
    if f.trunc is not None:
        if g.terms:
            candidates.append(f.trunc + g.degree())
        if g.trunc is not None:
            candidates.append(f.trunc + g.trunc - 1)
    if g.trunc is not None and f.terms:
        candidates.append(g.trunc + f.degree())
    if not candidates:
        return None
    return max(candidates)
