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
is an integer matrix, built once per geometry and read off one evaluation
of the closed form at ``Poly2`` monomials, applied to a vector's numerators
at every scalar.  On rational vectors the result is fraction-free with one
gcd; on vectors all of ``Poly2`` it is the closed form's value, type and
hash.  On a vector that mixes ``Fraction`` with ``Poly2`` or series the
value is the closed form's, but a coordinate that only ``Fraction``
entries reach is a ``Fraction`` where the closed form, adding zero terms
of the other type, gave a ``Poly2`` or a series.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .poly import Poly2, monomial_coefficients
from .ring import BaseGeometry, ChernVector, DimensionError, pair_h


def phi(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Forward transform of a cohomology vector, through the matrix of
    ``_phi`` (types on mixed vectors: module docstring)."""
    return _apply(g, v, _phi)


def phi_hat(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Inverse-direction transform of a cohomology vector, through the
    matrix of ``_phi_hat``."""
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
    """The closed form at v through its matrix, kept on g as sparse integer
    rows of (column, entry) over one denominator, applied to the
    numerators at every scalar."""
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    if closed not in g.matrices:
        g.matrices[closed] = _matrix(g, closed)
    rows, den = g.matrices[closed]
    nums = v._nums
    return ChernVector._ints([sum(a * nums[j] for j, a in row) for row in rows], den * v._den)


def _matrix(g: BaseGeometry, closed) -> tuple[list, int]:
    """The matrix of a closed form, read off one evaluation at monomial
    scalars: coordinate j is u^(j+1), so the u^(j+1) coefficient of output
    k is M[k][j]."""
    dim = 2 * g.rank + 4
    out = closed(g, ChernVector._ints([Poly2._ints({(j + 1, 0): 1}, 1) for j in range(dim)], 1))
    entries, den = monomial_coefficients(out.coordinates())
    rows = [[] for _ in range(dim)]
    for k, (j, _), c in entries:
        rows[k].append((j - 1, c))
    return rows, den


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
