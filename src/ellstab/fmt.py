"""Induced action of the relative Fourier-Mukai autoequivalences on
cohomology vectors, plus the twisted row-swap rule for fiber-degree-zero
classes.

Both directions are implemented as independent closed forms rather than one
being derived from the other; their compositions are pinned down by the
relation "inverse transform after transform equals shift by one", which on
cohomology is plain negation.  When the base is numerically canonically
trivial (h = 0) each transform degenerates to swapping the two rows of the
matrix notation and negating the second row.

Both maps are linear in the flat coordinates (n, x, S, eta, a, s), so each
is an integer table (``_table``), read off one evaluation of the closed
form at ``Poly2`` monomials by ``poly.monomial_table``, kept on the
geometry by ``ring._kept`` and applied to a vector's numerators at every
scalar by ``ring._contract`` with the unit as right factor.  On rational
vectors the result is fraction-free with one gcd.  On any other vector
the value is the closed form's, with one declared difference in type: zero
coordinates are skipped, so an output that only zero or ``Fraction``
coordinates reach is a ``Fraction`` where the closed form, adding zero
terms of the other type, gave a ``Poly2`` (equal, with the same hash) or
a series.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .poly import Poly2, monomial_table
from .ring import BaseGeometry, ChernVector, DimensionError, _contract, _kept, pair_h


def phi(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Forward transform of a cohomology vector: the table of ``_phi``
    applied by ``ring._contract`` (types on symbolic vectors: module
    docstring)."""
    return _apply(g, v, _phi)


def phi_hat(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Inverse-direction transform of a cohomology vector: the table of
    ``_phi_hat`` applied by ``ring._contract``."""
    return _apply(g, v, _phi_hat)


def _phi(g: BaseGeometry, v: ChernVector) -> ChernVector:
    h, hb, hh2 = g.h, g.hb_divisor, g.h * g.h * g.hb2
    heta = pair_h(g, v.eta)
    hS = pair_h(g, v.S)
    n2 = v.x
    x2 = -v.n
    S2 = v.eta + hb.scale(v.x * h / 2)
    eta2 = -(v.S + hb.scale(v.n * h / 2))
    a2 = (v.s + h * heta / 2 + Fraction(1, 8) * v.x * hh2) - Fraction(1, 24) * v.x * hh2
    s2 = -(v.a + h * hS / 2 + Fraction(1, 8) * v.n * hh2) - Fraction(1, 24) * v.n * hh2
    return ChernVector(n2, x2, S2, eta2, a2, s2)


def _phi_hat(g: BaseGeometry, v: ChernVector) -> ChernVector:
    h, hb, hh2 = g.h, g.hb_divisor, g.h * g.h * g.hb2
    heta = pair_h(g, v.eta)
    hS = pair_h(g, v.S)
    n2 = v.x
    x2 = -v.n
    S2 = v.eta - hb.scale(v.x * h / 2)
    eta2 = hb.scale(v.n * h / 2) - v.S
    a2 = v.s - h * heta / 2 + Fraction(1, 12) * v.x * hh2
    s2 = -Fraction(1, 6) * v.n * hh2 - v.a + h * hS / 2
    return ChernVector(n2, x2, S2, eta2, a2, s2)


def _apply(g: BaseGeometry, v: ChernVector, closed) -> ChernVector:
    """The closed form at v through its table, kept on g."""
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    return ChernVector._ints(*_contract(_kept(g, _table, closed), (v._nums, v._den), ((1,), 1)))


def _table(g: BaseGeometry, closed) -> tuple[list, int, int]:
    """The table of a closed form, read off one evaluation at the monomials
    u^(i+1) of coordinates i."""
    return monomial_table(closed(g, _monomials(g)).coordinates(), 2 * g.rank + 4)


def _a3_table(g: BaseGeometry) -> tuple[list, int, int]:
    """``ChernVector.a3``, the fiber coefficient that the transform carries
    to degree two, as a one-output table on the class, read off it at the
    same monomials."""
    return monomial_table([_monomials(g).a3(g)], 2 * g.rank + 4)


def _monomials(g: BaseGeometry) -> ChernVector:
    """The class whose coordinate i is the monomial u^(i+1)."""
    return ChernVector._ints([Poly2._ints({(i + 1, 0): 1}, 1) for i in range(2 * g.rank + 4)], 1)


def fiber_swap_rule(g: BaseGeometry, tw: ChernVector) -> ChernVector:
    """Row swap with sign for twisted fiber-degree-zero classes.

    Input is a suitably twisted vector of an object with n = x = 0; the
    output is the matching twist of its transform: rows are swapped and the
    new second row negated, i.e. (S, eta, a, s) -> (eta, -S, s, -a).  A
    signed permutation of the numerators over the same denominator, at
    every scalar.
    """
    r, nums = g.rank, tw._nums
    if tw.rank_lattice != r:
        raise DimensionError("vector rank does not match geometry rank")
    if nums[0] or nums[1]:
        raise DomainError("swap rule requires a fiber-degree-trivial class (n = x = 0)")
    S, eta = nums[2 : 2 + r], nums[2 + r : 2 + 2 * r]
    return ChernVector._ints([0, 0, *eta, *(-t for t in S), nums[-1], -nums[-2]], tw._den)
