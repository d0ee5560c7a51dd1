import signal
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest

from ellstab import curves, fmt, ring
from ellstab.poly import Poly2
from ellstab.ring import BaseGeometry, ChernVector, DivisorB, DivisorX
from ellstab.series import LaurentSeries
from ellstab.suites import _rand_vector


@pytest.fixture
def g1():
    """Rank-one lattice, unit form, h = -1."""
    return BaseGeometry(1, [[1]], [1], -1)


@pytest.fixture
def g0():
    """Rank-one lattice, unit form, h = 0."""
    return BaseGeometry(1, [[1]], [1], 0)


@pytest.fixture
def g2():
    """Rank-two lattice with an off-diagonal form, h = 1/2."""
    return BaseGeometry(2, [[2, 1], [1, 3]], [1, 0], Fraction(1, 2))


def cv(n, x, s_div, eta_div, a, s):
    return ChernVector(n, x, s_div, eta_div, a, s)


def d(*coords):
    return DivisorB(coords)


def fresh_geometries():
    """Fresh geometries, so each test builds their tables itself: ranks 1
    and 2 at five values of h, and a rank-2 lattice whose hb is no basis
    vector."""
    out = [BaseGeometry(r, gram, hb, h, 0, 1 if h + 2 > 0 else -h)
           for h in (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1, 3))
           for r, gram, hb in ((1, [[1]], [1]), (2, [[2, 1], [1, 3]], [1, 0]))]
    out.append(BaseGeometry(2, [[2, 3], [3, -1]], [1, 2], Fraction(-3, 2), 0, 1))
    return out


def sample_vectors(rng, rank):
    """The zero vector, two sparse vectors, then 40 random ones."""
    z = DivisorB.zero(rank)
    yield ChernVector.zero(rank)
    yield ChernVector(3, -2, DivisorB(range(1, rank + 1)), z, 5, 0)
    eta = DivisorB([Fraction(-5, 12)] * rank)
    yield ChernVector(Fraction(1, 7), 0, z, eta, Fraction(9, 4), Fraction(1, 9))
    for _ in range(40):
        yield _rand_vector(rng, rank)


def shape(v):
    """A vector's coordinates with their scalar types."""
    return [(type(c), c) for c in v.coordinates()]


def count_symbolic_products(monkeypatch):
    """Record each application of a table (``ring._contract``, which
    ``mul`` and ``degree`` run) with a factor that is not all Fraction, its
    numerators not all integers, and return the list of records."""
    calls = []
    original = ring._contract

    def counted(table, left, right):
        if not all(type(t) is int for nums, _ in (left, right) for t in nums):
            calls.append(1)
        return original(table, left, right)

    monkeypatch.setattr(ring, "_contract", counted)
    return calls


# The readers and appliers that the tables of ``ring._contract`` replaced,
# kept verbatim as references (their memo in ``g.matrices`` left out).


def _reference_monomial_coefficients(values) -> tuple[list, int]:
    """The coefficients of values, each a Poly2 or an exact zero, as entries
    (k, (i, j), c) over one positive denominator den: c / den is the
    u^i v^j coefficient of value k.  A (bi)linear closed form evaluated at
    distinct monomials gives its integer matrix or structure constants."""
    polys = [(k, x) for k, x in enumerate(values) if isinstance(x, Poly2)]
    den = lcm(*(x._den for _, x in polys))
    return [(k, key, n * (den // x._den)) for k, x in polys for key, n in x._nums.items()], den


def _reference_read_matrix(g: BaseGeometry, closed) -> tuple[list, int]:
    """The matrix of a closed form, read off one evaluation at monomial
    scalars: coordinate j is u^(j+1), so the u^(j+1) coefficient of output
    k is M[k][j]."""
    dim = 2 * g.rank + 4
    out = closed(g, ChernVector._ints([Poly2._ints({(j + 1, 0): 1}, 1) for j in range(dim)], 1))
    entries, den = _reference_monomial_coefficients(out.coordinates())
    rows = [[] for _ in range(dim)]
    for k, (j, _), c in entries:
        rows[k].append((j - 1, c))
    return rows, den


def _reference_matrix_apply(g: BaseGeometry, v: ChernVector, closed) -> ChernVector:
    """The closed form at v through its matrix, as sparse integer rows of
    (column, entry) over one denominator, applied to the numerators at
    every scalar."""
    rows, den = _reference_read_matrix(g, closed)
    nums = v._nums
    return ChernVector._ints([sum(a * nums[j] for j, a in row) for row in rows], den * v._den)


def truncate(s: LaurentSeries, floor: int | None) -> LaurentSeries:
    """s with every term below floor dropped and its floor raised to it."""
    if floor is None:
        return s
    new_floor = floor if s.trunc is None else max(floor, s.trunc)
    kept = {e: n for e, n in s._nums if e >= new_floor}
    return LaurentSeries._ints(kept, s._den, new_floor)


def as_table(rows: list, den: int, size: int) -> tuple[list, int, int]:
    """Rows by output k of (i, j, c), the term c a_i b_j with b_j the right
    factor's coordinate j, in the layout of ``ring._contract``, each row's
    entries as a set."""
    table = [set() for _ in range(size)]
    for k, row in enumerate(rows):
        for i, j, c in row:
            table[i].add((j, k, c))
    return table, den, len(rows)


def table_sets(table: tuple) -> tuple:
    """A ``ring._contract`` table with each row's entries as a set."""
    rows, den, width = table
    return [set(row) for row in rows], den, width


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block after the given seconds, so a call
    that never returns fails its test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# The closed forms and the read-off that the table writers of ``fmt`` and
# ``charges`` replaced, kept verbatim as references: each kept table is
# pinned, entry for entry and with the same den and width, against the
# table read off its closed form at ``Poly2`` monomials.


def _reference_phi(g: BaseGeometry, v: ChernVector) -> ChernVector:
    h, hb, hh2 = g.h, g.hb_divisor, g.h * g.h * g.hb2
    heta = ring.pair_h(g, v.eta)
    hS = ring.pair_h(g, v.S)
    n2 = v.x
    x2 = -v.n
    S2 = v.eta + hb.scale(v.x * h / 2)
    eta2 = -(v.S + hb.scale(v.n * h / 2))
    a2 = (v.s + h * heta / 2 + Fraction(1, 8) * v.x * hh2) - Fraction(1, 24) * v.x * hh2
    s2 = -(v.a + h * hS / 2 + Fraction(1, 8) * v.n * hh2) - Fraction(1, 24) * v.n * hh2
    return ChernVector(n2, x2, S2, eta2, a2, s2)


def _reference_phi_hat(g: BaseGeometry, v: ChernVector) -> ChernVector:
    h, hb, hh2 = g.h, g.hb_divisor, g.h * g.h * g.hb2
    heta = ring.pair_h(g, v.eta)
    hS = ring.pair_h(g, v.S)
    n2 = v.x
    x2 = -v.n
    S2 = v.eta - hb.scale(v.x * h / 2)
    eta2 = hb.scale(v.n * h / 2) - v.S
    a2 = v.s - h * heta / 2 + Fraction(1, 12) * v.x * hh2
    s2 = -Fraction(1, 6) * v.n * hh2 - v.a + h * hS / 2
    return ChernVector(n2, x2, S2, eta2, a2, s2)


def _reference_monomial_table(values, size: int) -> tuple[list, int, int]:
    """The ``ring._contract`` table of a (bi)linear closed form from its
    values (Poly2s or exact zeros) at monomials, left coordinate i < size
    at u^(i+1) and right coordinate j at v^j: the u^(i+1) v^j coefficient
    of value k is the entry (j, k, c) of ``rows[i]``, over one den > 0."""
    polys = [(k, x) for k, x in enumerate(values) if isinstance(x, Poly2)]
    den = lcm(*(x._den for _, x in polys))
    rows = [[] for _ in range(size)]
    for k, x in polys:
        for (i, j), n in x._nums.items():
            rows[i - 1].append((j, k, n * (den // x._den)))
    return rows, den, len(values)


def _reference_monomials(g: BaseGeometry) -> ChernVector:
    """The class whose coordinate i is the monomial u^(i+1)."""
    return ChernVector._ints([Poly2._ints({(i + 1, 0): 1}, 1) for i in range(2 * g.rank + 4)], 1)


def _reference_transform_table(g: BaseGeometry, closed) -> tuple[list, int, int]:
    """The table of a transform's closed form, read off one evaluation at
    the monomials u^(i+1) of coordinates i."""
    return _reference_monomial_table(closed(g, _reference_monomials(g)).coordinates(), 2 * g.rank + 4)


def _reference_a3_table(g: BaseGeometry) -> tuple[list, int, int]:
    """``ChernVector.a3`` as a one-output table on the class, read off it at
    the same monomials."""
    return _reference_monomial_table([_reference_monomials(g).a3(g)], 2 * g.rank + 4)


def _reference_reduced_coefficients(g: BaseGeometry, v: ChernVector) -> tuple:
    """The reduced charge's (re, im), each as (constant, coefficients on
    its ``_reduced_germs``)."""
    return (
        (0, (g.hb2 * v.x / 2, ring.pair_h(g, v.S) / 2)),
        (0, (ring.pair_h(g, v.eta), v.a, -(g.hb2 * v.n) / 6)),
    )


def _reference_full_coefficients(g: BaseGeometry, v: ChernVector, d: DivisorB) -> tuple:
    """The full charge's (re, im) with B = pull(d) on ``_reduced_germs``:
    -ch3^B plus the reduced coefficients of v twisted by B, for any class."""
    tw = ring.twist(g, v, DivisorX.pullback(d))
    (const, re), im = _reference_reduced_coefficients(g, tw)
    return (const - tw.s, re), im



# The table writers as they were written in ``Fraction`` arithmetic on a
# geometry's public values (h, hb, hb_row, hb2, gram), before they read its
# integer fields, kept verbatim as references; ``_reference_fraction_written``
# is ``ring._written`` as it took rational entries.  Each rewritten writer's
# table is pinned against its reference in rows (order included), den and
# width.


def _reference_fraction_lattice(g: BaseGeometry) -> tuple:
    """H.H and the row hb * gram as ``BaseGeometry.__init__`` computed them."""
    r, hb, gram = g.rank, g.hb, g.gram
    hb2 = sum(hb[i] * gram[i][j] * hb[j] for i in range(r) for j in range(r))
    return hb2, tuple(sum(c * row[j] for c, row in zip(hb, gram)) for j in range(r))


def _reference_fraction_written(entries, size: int, width: int, den: int = 1) -> tuple[list, int, int]:
    entries = [entry for entry in entries if entry[3]]
    common = lcm(*(c.denominator for *_, c in entries))
    nums = [c.numerator * (common // c.denominator) for *_, c in entries]
    den *= common
    content = gcd(den, *nums)
    rows = [[] for _ in range(size)]
    for (i, j, k, _), c in zip(entries, nums):
        rows[i].append((j, k, c // content))
    return rows, den // content, width


def _reference_fraction_structure_constants(g: BaseGeometry) -> tuple[list, int, int]:
    r, h = g.rank, g.h
    dim = 2 * r + 4
    x, S, eta, a, s = 1, range(2, 2 + r), range(2 + r, 2 + 2 * r), dim - 2, dim - 1
    entries: dict = {}

    def meet(i, j, k, c):
        if c:
            entries[i, j, k] = entries[j, i, k] = c

    for k in range(dim):
        meet(0, k, k, 1)
    meet(x, a, s, 1)
    for p in range(r):
        meet(x, x, eta[p], h * g.hb[p])
        meet(x, S[p], eta[p], 1)
        meet(x, eta[p], s, h * g.hb_row[p])
        for q in range(r):
            meet(S[p], S[q], a, g.gram[p][q])
            meet(S[p], eta[q], s, g.gram[p][q])
    den = lcm(*(c.denominator for c in entries.values()))
    rows = [[] for _ in range(dim)]
    for (i, j, k), c in sorted(entries.items()):
        rows[i].append((j, k, c.numerator * (den // c.denominator)))
    return rows, den, dim


def _reference_fraction_half_canonical_bfield(g: BaseGeometry) -> DivisorX:
    return DivisorX(0, g.hb_divisor.scale(-g.h / 2))


def _reference_fraction_theta_ints(g: BaseGeometry) -> tuple:
    row, rd = ring._over_common_denominator(g.hb_row)
    w, wd = ring._over_common_denominator([g.h * c / 2 for c in g.hb])
    gd = ring._kept(g, ring._gram_ints)[1]
    (c3, c2, c1), m = ring._over_common_denominator([g.h * g.h * g.hb2, 3 * g.h / rd, Fraction(3, gd)])
    return [[(j, c) for j, c in enumerate(row) if c]], w, wd, c3, c2, c1, 6 * m


def _reference_fraction_phi_table(g: BaseGeometry) -> tuple[list, int, int]:
    n, x, S, eta, a, s = fmt._slots(g.rank)
    h, hh2 = g.h, g.h * g.h * g.hb2
    shift = [h * c / 2 for c in g.hb]
    pairing = [h * c / 2 for c in g.hb_row]
    return _reference_fraction_written([
        (x, 0, n, 1), (n, 0, x, -1),
        *((eta[p], 0, S[p], 1) for p in range(g.rank)), *((x, 0, S[p], c) for p, c in enumerate(shift)),
        *((S[p], 0, eta[p], -1) for p in range(g.rank)), *((n, 0, eta[p], -c) for p, c in enumerate(shift)),
        (s, 0, a, 1), *((eta[p], 0, a, c) for p, c in enumerate(pairing)), (x, 0, a, hh2 / 12),
        (a, 0, s, -1), *((S[p], 0, s, -c) for p, c in enumerate(pairing)), (n, 0, s, -hh2 / 6),
    ], s + 1, s + 1)


def _reference_fraction_phi_hat_table(g: BaseGeometry) -> tuple[list, int, int]:
    n, x, S, eta, a, s = fmt._slots(g.rank)
    h, hh2 = g.h, g.h * g.h * g.hb2
    shift = [h * c / 2 for c in g.hb]
    pairing = [h * c / 2 for c in g.hb_row]
    return _reference_fraction_written([
        (x, 0, n, 1), (n, 0, x, -1),
        *((eta[p], 0, S[p], 1) for p in range(g.rank)), *((x, 0, S[p], -c) for p, c in enumerate(shift)),
        *((S[p], 0, eta[p], -1) for p in range(g.rank)), *((n, 0, eta[p], c) for p, c in enumerate(shift)),
        (s, 0, a, 1), *((eta[p], 0, a, -c) for p, c in enumerate(pairing)), (x, 0, a, hh2 / 12),
        (a, 0, s, -1), *((S[p], 0, s, c) for p, c in enumerate(pairing)), (n, 0, s, -hh2 / 6),
    ], s + 1, s + 1)


def _reference_fraction_a3_table(g: BaseGeometry) -> tuple[list, int, int]:
    _, x, _, eta, _, s = fmt._slots(g.rank)
    return _reference_fraction_written([
        (s, 0, 0, 1), *((eta[p], 0, 0, g.h * c / 2) for p, c in enumerate(g.hb_row)),
        (x, 0, 0, g.h * g.h * g.hb2 / 12),
    ], s + 1, 1)


def _reference_fraction_reduced_table(g: BaseGeometry) -> tuple[list, int, int]:
    n, x, S, eta, a, s = fmt._slots(g.rank)
    return _reference_fraction_written([
        (x, 0, 1, g.hb2 / 2), *((S[p], 0, 2, c / 2) for p, c in enumerate(g.hb_row)),
        *((eta[p], 0, 4, c) for p, c in enumerate(g.hb_row)), (a, 0, 5, 1), (n, 0, 6, -g.hb2 / 6),
    ], s + 1, 7)


def _reference_fraction_theta_h_products(g: BaseGeometry) -> tuple:
    hn, hd = ring._over_common_denominator(g.hb)
    theta = ChernVector._ints([0, 1, *[0] * (2 * g.rank + 2)], 1)
    hb = ChernVector._ints([0, 0, *hn, *[0] * (g.rank + 2)], hd)
    products = [ring.mul(g, theta, theta), ring.mul(g, theta, hb), ring.mul(g, hb, hb)]
    n = lcm(*(v._den for v in products))
    rows = [[t * (n // v._den) for t in v._nums] for v in products]
    return theta, hb, rows, n, *curves._pairings(g, [(theta._nums, row) for row in rows], n)


def _reference_fraction_vector(g: BaseGeometry, n=0, x=0, S=None, eta=None, a=0, s=0) -> ChernVector:
    zeros = [0] * g.rank
    return ChernVector._ints(*ring._numerators([n, x, *(S or zeros), *(eta or zeros), a, s]))


_REFERENCE_FRACTION_FIXED = {
    "unit": lambda g: _reference_fraction_vector(g, n=1),
    "point": lambda g: _reference_fraction_vector(g, s=1),
    "fiber": lambda g: _reference_fraction_vector(g, a=1),
    "phb": lambda g: _reference_fraction_vector(g, S=g.hb),
    "theta_phb": lambda g: _reference_fraction_vector(g, eta=g.hb),
    "theta_phb_m": lambda g: _reference_fraction_vector(g, eta=g.hb, a=ring.compute_m(g)),
    "theta_m": lambda g: _reference_fraction_vector(g, x=1, S=[ring.compute_m(g) * c for c in g.hb]),
}
