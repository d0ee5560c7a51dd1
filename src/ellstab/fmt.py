"""Induced action of the relative Fourier-Mukai autoequivalences on
cohomology vectors, plus the twisted row-swap rule for fiber-degree-zero
classes.

Both directions are implemented as independent closed forms rather than one
being derived from the other; their compositions are pinned down by the
relation "inverse transform after transform equals shift by one", which on
cohomology is plain negation.  When the base is numerically canonically
trivial (h = 0) each transform degenerates to swapping the two rows of the
matrix notation and negating the second row.

Both maps are linear in the flat coordinates (n, x, S, eta, a, s): a vector of
``Fraction``s goes through an integer matrix derived from the closed form and
built once per geometry, any other scalar (``Poly2``) through the closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError
from .ring import BaseGeometry, ChernVector, DimensionError, DivisorB, _plain, pair_h


def phi(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Forward transform of a cohomology vector."""
    return _apply(g, v, _phi)


def phi_hat(g: BaseGeometry, v: ChernVector) -> ChernVector:
    """Inverse-direction transform of a cohomology vector."""
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


def _from_flat(r: int, c) -> ChernVector:
    S, eta = DivisorB._raw(tuple(c[2 : 2 + r])), DivisorB._raw(tuple(c[2 + r : 2 + 2 * r]))
    return ChernVector._raw(c[0], c[1], S, eta, c[-2], c[-1])


def _apply(g: BaseGeometry, v: ChernVector, closed) -> ChernVector:
    """The closed form at v; at Fraction scalars through its matrix, kept on g
    as sparse integer rows of (column, entry) over one denominator."""
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    coords = v.coordinates()
    if not _plain(coords):
        return closed(g, v)
    if closed not in g.matrices:
        dim = 2 * g.rank + 4
        basis = ([Fraction(int(i == j)) for i in range(dim)] for j in range(dim))
        cols = [closed(g, _from_flat(g.rank, e)).coordinates() for e in basis]
        den = lcm(*(c.denominator for col in cols for c in col))
        rows = [[(j, int(col[i] * den)) for j, col in enumerate(cols) if col[i]] for i in range(dim)]
        g.matrices[closed] = (rows, den)
    rows, den = g.matrices[closed]
    common = lcm(*(c.denominator for c in coords))
    nums = [c.numerator * (common // c.denominator) for c in coords]
    den *= common
    return _from_flat(g.rank, [Fraction(sum(a * nums[j] for j, a in row), den) for row in rows])


def fiber_swap_rule(g: BaseGeometry, tw: ChernVector) -> ChernVector:
    """Row swap with sign for twisted fiber-degree-zero classes.

    Input is a suitably twisted vector of an object with n = x = 0; the
    output is the matching twist of its transform: rows are swapped and the
    new second row negated, i.e. (S, eta, a, s) -> (eta, -S, s, -a).
    """
    if tw.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    if tw.n != 0 or tw.x != 0:
        raise DomainError("swap rule requires a fiber-degree-trivial class (n = x = 0)")
    return ChernVector(0, 0, tw.eta, -tw.S, tw.s, -tw.a)
