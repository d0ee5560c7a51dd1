"""Cohomology arithmetic: pairing, product, twist, derived accessors."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellstab import charges, curves, fmt, ring, slopes
from ellstab.config import format_vector, parse_vector_literal
from ellstab.curves import TiltCurve, chow_identity_symbolic_remainder
from ellstab.errors import ConfigurationError, DimensionError
from ellstab.poly import Poly2
from ellstab.ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    compute_m,
    divisor_vector,
    mul,
    pair,
    pair_h,
    twist,
)
from ellstab.series import LaurentSeries
from ellstab.suites import H_SET_INVOLUTION, _rand_divisor, _rand_q, _rand_vector, geometry_for

from conftest import (
    _REFERENCE_FRACTION_FIXED,
    _reference_fraction_a3_table,
    _reference_fraction_half_canonical_bfield,
    _reference_fraction_lattice,
    _reference_fraction_phi_hat_table,
    _reference_fraction_phi_table,
    _reference_fraction_reduced_table,
    _reference_fraction_structure_constants,
    _reference_fraction_theta_h_products,
    _reference_fraction_theta_ints,
    _reference_monomial_coefficients,
    _reference_phi,
    _reference_phi_hat,
    _reference_read_matrix,
    cv,
    d,
    fresh_geometries,
    sample_vectors,
    shape,
    truncate,
)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def vectors(rank):
    div = st.builds(lambda *cs: DivisorB(cs), *([rationals] * rank))
    return st.builds(ChernVector, rationals, rationals, div, div, rationals, rationals)


GEOMS = [
    BaseGeometry(1, [[1]], [1], -1),
    BaseGeometry(1, [[2]], [1], 0),
    BaseGeometry(2, [[2, 1], [1, 3]], [1, 0], Fraction(1, 2)),
]


class TestPair:
    def test_unit_lattice(self, g1):
        assert pair(g1, d(1), d(1)) == 1

    def test_scaled_form(self):
        g = BaseGeometry(1, [[2]], [1], 0)
        assert pair(g, d(1), d(1)) == 2

    def test_hyperbolic_plane(self):
        g = BaseGeometry(2, [[0, 1], [1, 0]], [1, 1], 0)
        assert pair(g, d(1, 0), d(0, 1)) == 1

    def test_rank_mismatch(self, g1):
        with pytest.raises(DimensionError):
            pair(g1, d(1, 0), d(1))

    @given(a=st.tuples(rationals, rationals), b=st.tuples(rationals, rationals))
    def test_symmetric_bilinear(self, a, b):
        g = GEOMS[2]
        da, db = DivisorB(a), DivisorB(b)
        assert pair(g, da, db) == pair(g, db, da)
        assert pair(g, da + db, db) == pair(g, da, db) + pair(g, db, db)


class TestGeometryInvariants:
    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ConfigurationError):
            BaseGeometry(2, [[1, 2], [0, 1]], [1, 0], 0)

    def test_nonpositive_hb_square_rejected(self):
        with pytest.raises(ConfigurationError):
            BaseGeometry(1, [[-1]], [1], 0)

    def test_m0_constraints(self):
        with pytest.raises(ConfigurationError):
            BaseGeometry(1, [[1]], [1], -2, 0, 1)
        with pytest.raises(ConfigurationError):
            BaseGeometry(1, [[1]], [1], 0, 2, 1)

    def test_non_integral_rank_rejected(self):
        """A float rank, whole or not, is refused as a float
        (``TestFloatsAreRefused``)."""
        for rank in (Fraction(17, 10), "1.7"):
            with pytest.raises(ConfigurationError, match="geometry.rank"):
                BaseGeometry(rank, [[1]], [1], 0)

    def test_integral_rank_accepted(self):
        for rank in (2, Fraction(4, 2), "2", "2.0"):
            g = BaseGeometry(rank, [[2, 1], [1, 3]], [1, 0], 0)
            assert g.rank == 2 and type(g.rank) is int


class TestGeometryHash:
    """The hash is computed once, on first use, with the value the
    dataclass computed from the compared fields, so an ``lru_cache`` keyed
    by a geometry hashes no Fraction of ``gram`` per lookup after its first."""

    def _geometries(self):
        yield from GEOMS
        yield BaseGeometry(3, [[2, 1, 0], [1, 2, 1], [0, 1, 4]], [1, 0, 2], Fraction(-3, 2), 0, 1)
        yield BaseGeometry(2, [[0, 1], [1, 2]], [0, 1], Fraction(-1, 2), Fraction(1, 3), 1)

    def test_value_is_the_field_tuple_s(self):
        for g in self._geometries():
            assert hash(g) == hash((g.rank, g.gram, g.hb, g.h, g.vprime, g.m0))
        assert hash(GEOMS[0]) == hash((1, ((Fraction(1),),), (Fraction(1),), Fraction(-1), Fraction(0), Fraction(1)))

    def test_equal_geometries_built_apart_hash_equal(self):
        for g in self._geometries():
            twin = BaseGeometry(g.rank, [[str(x) for x in row] for row in g.gram], list(g.hb), g.h, g.vprime, g.m0)
            v = ChernVector(1, 0, twin.hb_divisor, twin.hb_divisor, 0, 0)
            mul(twin, v, v)  # the values kept on the geometry leave its hash unchanged
            assert twin == g and hash(twin) == hash(g)

    def test_hashing_a_hashed_geometry_hashes_no_fraction(self, monkeypatch):
        fields = [(g.rank, g.gram, g.hb, g.h, g.vprime, g.m0) for g in self._geometries()]
        calls = []
        original = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(1) or original(x))
        geometries = [BaseGeometry(*f) for f in fields]
        assert calls == []  # construction hashes nothing
        first = [hash(g) for g in geometries]
        assert calls
        calls.clear()
        assert [hash(g) for g in geometries] == first and calls == []


class TestFloatsAreRefused:
    """A float never enters the exact layer: each constructor refuses it
    where it is given, before any product or derived constant runs."""

    def test_gram_entry(self):
        with pytest.raises(TypeError, match="float"):
            BaseGeometry(1, [[1.0]], [1], 0)

    def test_fibration_constants(self):
        with pytest.raises(TypeError, match="float"):
            BaseGeometry(1, [[1]], [1], -1, 0.0, 1.5)

    def test_rank(self):
        for rank in (1.0, 2.0, 1.7):
            with pytest.raises(TypeError, match="float"):
                BaseGeometry(rank, [[1]], [1], -1)

    def test_vector_coordinate(self):
        with pytest.raises(TypeError, match="float"):
            ChernVector(0.1, 0, d(1), d(0), 0, 0)
        with pytest.raises(TypeError, match="float"):
            d(0.5)

    def test_series_coefficient(self):
        with pytest.raises(TypeError, match="float"):
            LaurentSeries([(0, 0.5)])

    def test_tilt_curve(self):
        with pytest.raises(TypeError, match="float"):
            TiltCurve(0.5, 1, 2)


class TestMul:
    def test_theta_squared(self, g1):
        theta = cv(0, 1, d(0), d(0), 0, 0)
        out = mul(g1, theta, theta)
        assert out == cv(0, 0, d(0), d(-1), 0, 0)

    def test_pullback_square_is_fiber(self, g1):
        phb = cv(0, 0, d(1), d(0), 0, 0)
        assert mul(g1, phb, phb) == cv(0, 0, d(0), d(0), 1, 0)

    def test_theta_meets_fiber_once(self, g1):
        theta = cv(0, 1, d(0), d(0), 0, 0)
        fib = cv(0, 0, d(0), d(0), 1, 0)
        assert mul(g1, theta, fib) == cv(0, 0, d(0), d(0), 0, 1)

    def test_rank_mismatch(self, g1, g2):
        with pytest.raises(DimensionError):
            mul(g1, ChernVector.zero(2), ChernVector.zero(2))

    @settings(max_examples=200)
    @given(v1=vectors(2), v2=vectors(2), v3=vectors(2))
    def test_commutative_associative_bilinear(self, v1, v2, v3):
        g = GEOMS[2]
        assert mul(g, v1, v2) == mul(g, v2, v1)
        assert mul(g, mul(g, v1, v2), v3) == mul(g, v1, mul(g, v2, v3))
        assert mul(g, v1 + v2, v3) == mul(g, v1, v3) + mul(g, v2, v3)

    @settings(max_examples=100)
    @given(v1=vectors(1), v2=vectors(1))
    def test_grading(self, v1, v2):
        g = GEOMS[0]
        prod = mul(g, v1, v2)
        graded = ChernVector.zero(1)
        for i in range(4):
            for j in range(4):
                if i + j <= 3:
                    part = mul(g, _degree_part(v1, i), _degree_part(v2, j))
                    graded = graded + part
        assert prod == graded


def _from_flat(r: int, c) -> ChernVector:
    """A vector from flat coordinates (n, x, S..., eta..., a, s) that are
    already scalars, through the one storage form."""
    return ChernVector._ints(list(c), 1)


def _raw(n, x, S: DivisorB, eta: DivisorB, a, s) -> ChernVector:
    """Assemble components that are already scalars, without coercion."""
    return _from_flat(S.rank, [n, x, *S.coords, *eta.coords, a, s])


def _degree_part(v: ChernVector, d: int) -> ChernVector:
    """The homogeneous piece of cohomological degree 2*d, from the
    numerators, so it builds no Fraction on a rational vector."""
    r = v.rank_lattice
    keep = [k == d for k in (0, 1) + (1,) * r + (2,) * r + (2, 3)]  # halved degrees
    return ChernVector._ints([t if k else 0 for t, k in zip(v._nums, keep)], v._den)


def _basis(g, i):
    dim = 2 * g.rank + 4
    return _from_flat(g.rank, [Fraction(int(k == i)) for k in range(dim)])


def _built_table(g):
    """g's structure constants as cells: ``cells[i][j]`` lists the (k, c)."""
    table, den, _ = ring._kept(g, ring._structure_constants)
    cells = [[[] for _ in table] for _ in table]
    for i, row in enumerate(table):
        for j, k, c in row:
            cells[i][j].append((k, c))
    return cells, den


# The product formula that ``mul`` ran at every non-Fraction scalar before
# the structure constants were written from the relations, kept verbatim as
# the reference for ``mul`` and ``degree``, with the helpers it used.

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


def _reference_pair(g: BaseGeometry, d1: DivisorB, d2: DivisorB):
    """Intersection pairing of two base classes: d1^T * gram * d2, as
    ``pair`` summed it with the None sentinel, kept verbatim as its
    reference."""
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


def _row(coords, gram) -> tuple:
    """The row vector coords * gram over coordinates given with zeros as None;
    an entry is None when no nonzero product reaches it."""
    return tuple(
        _sum_products((c, row[j] or None) for c, row in zip(coords, gram)) for j in range(len(gram))
    )


def _reference_hb_row(g: BaseGeometry) -> tuple:
    """The row hb * gram of the references, None where no nonzero product
    reaches an entry (a structural zero); a cancelled entry is the
    Fraction zero."""
    return _row(_nonzero(g.hb, True), g.gram)


def _plain(coords) -> bool:
    """Whether every coordinate is a Fraction."""
    return all(type(c) is Fraction for c in coords)


def _nonzero(coords, plain: bool) -> tuple:
    """Coordinates with exact zeros, of any scalar type, replaced by None."""
    if plain:
        return tuple(c or None for c in coords)
    return tuple(None if c == 0 else c for c in coords)


def _reference_mul(g: BaseGeometry, v1: ChernVector, v2: ChernVector) -> ChernVector:
    """The product formula, over any scalar.

    Works on the coordinate tuples and skips every product with an
    exact-zero factor of any scalar type, as ``pair`` does; a component no
    nonzero product reaches is the Fraction zero.
    """
    r = g.rank
    if v1.rank_lattice != r or v2.rank_lattice != r:
        raise DimensionError("vector rank does not match geometry rank")
    f1, f2 = v1.coordinates(), v2.coordinates()
    z1, z2 = _nonzero(f1, _plain(f1)), _nonzero(f2, _plain(f2))
    n1, x1, S1, e1, a1, s1 = z1[0], z1[1], z1[2 : 2 + r], z1[2 + r : 2 + 2 * r], z1[-2], z1[-1]
    n2, x2, S2, e2, a2, s2 = z2[0], z2[1], z2[2 : 2 + r], z2[2 + r : 2 + 2 * r], z2[-2], z2[-1]
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
    w1, w2 = _row(S1, g.gram), _row(S2, g.gram)
    hb_row = _reference_hb_row(g)
    he1 = None if x2 is None else _sum_products(zip(hb_row, e1))
    he2 = None if x1 is None else _sum_products(zip(hb_row, e2))
    a = _sum_products(((n1, a2), (n2, a1), *zip(w1, S2)))
    s = _sum_products(
        (
            (n1, s2),
            (n2, s1),
            (x1, None if he2 is None else h * he2),
            (x2, None if he1 is None else h * he1),
            (x1, a2),
            (x2, a1),
            *zip(w1, e2),
            *zip(w2, e1),
        )
    )
    return _raw(
        _or_zero(n),
        _or_zero(x),
        DivisorB._raw(S),
        DivisorB._raw(eta),
        _or_zero(a),
        _or_zero(s),
    )


def _reference_table(g):
    """The structure constants read off one ``_reference_mul`` at monomial
    scalars, as they were built before the relations were written out:
    coordinate i of the first factor is u^(i+1), coordinate j of the second
    v^(j+1), so the u^(i+1) v^(j+1) coefficient of output k is c_kij.
    ``cells[i][j]`` lists the (k, c_kij * den) with c_kij nonzero."""
    dim = 2 * g.rank + 4
    left = _from_flat(g.rank, [Poly2._ints({(i + 1, 0): 1}, 1) for i in range(dim)])
    right = _from_flat(g.rank, [Poly2._ints({(0, j + 1): 1}, 1) for j in range(dim)])
    entries, den = _reference_monomial_coefficients(_reference_mul(g, left, right).coordinates())
    cells = [[[] for _ in range(dim)] for _ in range(dim)]
    for k, (i, j), c in entries:
        cells[i - 1][j - 1].append((k, c))
    return cells, den


def _assert_as_reference(g, got, want):
    """``got`` is ``want`` coordinate by coordinate in value, hash and type,
    with the two exceptions ``mul``'s docstring names.  At h = 0 the
    reference multiplies x1 * (H.eta2) by h and keeps a zero of the
    factors' scalar type (a ``Poly2`` zero, an exact series zero) at a point
    coordinate that ``mul`` leaves at the Fraction zero.  And where the
    reference's pairing S1 * gram cancels exactly, it drops the other
    factor's truncated series from a coordinate that ``mul`` sums term by
    term: that coordinate is the reference's truncated at its own, higher,
    floor."""
    have, ref = list(got.coordinates()), list(want.coordinates())
    if g.h == 0 and type(have[-1]) is not type(ref[-1]):
        assert have[-1] is ring._ZERO
        assert ref[-1] == 0 or ref[-1] == LaurentSeries.zero()
        have[-1] = ref[-1]
    for k, (c, w) in enumerate(zip(have, ref)):
        if type(c) is LaurentSeries and c != w:
            assert c == truncate(w, c.trunc)
            have[k] = ref[k] = None
    assert [(type(c), c, hash(c)) for c in have] == [(type(c), c, hash(c)) for c in ref]


def unusual_geometries():
    """Lattices the suites and ``fresh_geometries`` never use: the
    hyperbolic plane (at h = 0, -1 and 2/3), an hb with a zero coordinate
    on a lattice whose first basis class has square zero, and rank 3."""
    return [
        BaseGeometry(2, [[0, 1], [1, 0]], [1, 1], 0),
        BaseGeometry(2, [[0, 1], [1, 0]], [1, 1], -1),
        BaseGeometry(2, [[0, 1], [1, 0]], [2, 1], Fraction(2, 3)),
        BaseGeometry(2, [[0, 1], [1, 2]], [0, 1], Fraction(-1, 2), 0, 1),
        BaseGeometry(3, [[2, 1, 0], [1, 2, 1], [0, 1, 4]], [1, 0, 2], Fraction(-3, 2), 0, 1),
        BaseGeometry(3, [[1, 0, 0], [0, -1, 2], [0, 2, 3]], [1, 1, 1], 0),
    ]


def _mixed_scalar(rng):
    r = rng.random()
    if r < 0.2:
        return Fraction(0)
    if r < 0.45:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if r < 0.55:
        return Poly2()
    if r < 0.65:
        return Poly2.const(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    return Poly2({(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(rng.randint(1, 3))})


def _mixed_vector(rng, rank):
    """A vector of random Fraction and Poly2 coordinates, zeros of both
    types included."""
    return _from_flat(rank, [_mixed_scalar(rng) for _ in range(2 * rank + 4)])


def _plain_vector(v):
    return all(type(c) is Fraction for c in v.coordinates())


def _series_vector(rank):
    s = LaurentSeries([(1, Fraction(2, 3)), (-1, 5)], -4)
    return ChernVector(s, 1, DivisorB([s] * rank), DivisorB([0] * rank), LaurentSeries.zero(), 2)


def _dense_series_vector(rng, rank):
    """A vector of truncated series in every coordinate but a few."""
    def scalar():
        if rng.random() < 0.2:
            return _rand_q(rng)
        return LaurentSeries([(rng.randint(-2, 2), _rand_q(rng)) for _ in range(2)], rng.choice((-6, -4, None)))
    return _from_flat(rank, [scalar() for _ in range(2 * rank + 4)])


class TestMulTable:
    """``mul`` applies the structure constants written from the relations,
    kept on each geometry, at every scalar, against the product formula
    ``_reference_mul``."""

    def test_equals_product_formula_in_value_and_type(self):
        rng = random.Random(31)
        for g in fresh_geometries():
            vs = list(sample_vectors(rng, g.rank))
            vs += [_degree_part(v, i) for v in vs[3:13] for i in range(4)]
            for v1, v2 in zip(vs, vs[1:] + vs[:1]):
                assert shape(mul(g, v1, v2)) == shape(_reference_mul(g, v1, v2))
                assert shape(mul(g, v1, v1)) == shape(_reference_mul(g, v1, v1))
            assert (ring._structure_constants, ()) in g.matrices

    def test_equals_the_table_read_off_the_product_formula(self):
        """Entry for entry, with the same denominator, as the constants read
        off ``_reference_mul`` at monomials."""
        for g in fresh_geometries() + unusual_geometries():
            assert _built_table(g) == _reference_table(g)

    def test_entries_are_products_of_basis_vectors(self):
        for g in fresh_geometries() + unusual_geometries():
            table, den = _built_table(g)
            dim = 2 * g.rank + 4
            for i in range(dim):
                for j in range(dim):
                    entries = table[i][j]
                    assert len({k for k, _ in entries}) == len(entries)
                    assert all(c for _, c in entries)
                    dense = [Fraction(0)] * dim
                    for k, c in entries:
                        dense[k] = Fraction(c, den)
                    assert dense == list(_reference_mul(g, _basis(g, i), _basis(g, j)).coordinates())
                    assert dense == list(mul(g, _basis(g, i), _basis(g, j)).coordinates())

    def test_symmetric(self):
        for g in fresh_geometries() + unusual_geometries():
            table, _ = _built_table(g)
            dim = 2 * g.rank + 4
            for i in range(dim):
                for j in range(dim):
                    assert sorted(table[i][j]) == sorted(table[j][i])

    def test_other_scalars_take_the_same_table(self):
        """LaurentSeries and Poly2 factors give the reference product and
        use the one table of the geometry."""
        rng = random.Random(32)
        for g in fresh_geometries():
            z = DivisorB.zero(g.rank)
            p = ChernVector(Poly2.u(), 1, DivisorB([Poly2.v()] * g.rank), z, Fraction(1, 2), 0)
            f = _rand_vector(rng, g.rank)
            s = _series_vector(g.rank)
            table = ring._kept(g, ring._structure_constants)
            for v1, v2 in ((s, f), (f, s), (s, s), (f, p), (p, f), (p, p)):
                _assert_as_reference(g, mul(g, v1, v2), _reference_mul(g, v1, v2))
            assert set(g.matrices) == {(ring._structure_constants, ())}
            assert ring._kept(g, ring._structure_constants) is table

    def test_poly2_factors_equal_the_product_formula(self):
        """Random mixed patterns: Fraction and Poly2 coordinates, zeros of
        both types, against ``_reference_mul`` in value, hash and
        per-coordinate type; a Fraction pair still gives Fractions."""
        rng = random.Random(35)
        for g in fresh_geometries():
            f = _rand_vector(rng, g.rank)
            assert all(type(c) is Fraction for c in mul(g, f, _degree_part(f, 1)).coordinates())
            for _ in range(60):
                v1, v2 = _mixed_vector(rng, g.rank), _mixed_vector(rng, g.rank)
                _assert_as_reference(g, mul(g, v1, v2), _reference_mul(g, v1, v2))
                _assert_as_reference(g, mul(g, v1, v1), _reference_mul(g, v1, v1))

    def test_unusual_geometries_at_every_scalar(self):
        """The hyperbolic plane, a zero coordinate of hb and rank 3, at
        Fraction, Poly2, mixed and LaurentSeries factors."""
        rng = random.Random(36)
        for g in unusual_geometries():
            r = g.rank
            series = [_series_vector(r), _dense_series_vector(rng, r), _dense_series_vector(rng, r)]
            for _ in range(30):
                f1, f2 = _rand_vector(rng, r), _rand_vector(rng, r)
                p1 = _from_flat(r, [Poly2({(rng.randint(0, 2), rng.randint(0, 2)): c}) for c in f1.coordinates()])
                m1, m2 = _mixed_vector(rng, r), _mixed_vector(rng, r)
                pairs = [(f1, f2), (_degree_part(f1, 1), f2), (p1, f2), (f2, p1), (p1, p1), (m1, m2), (m1, f1)]
                pairs += [(s, w) for s in series for w in (f1, _degree_part(f2, 2), s)]
                for v1, v2 in pairs:
                    _assert_as_reference(g, mul(g, v1, v2), _reference_mul(g, v1, v2))
                    _assert_as_reference(g, mul(g, v2, v1), _reference_mul(g, v2, v1))
            assert set(g.matrices) == {(ring._structure_constants, ())}

    def test_h0_point_coefficient_is_the_fraction_zero(self):
        """The documented exception, where it shows: at h = 0, Theta times a
        symbolic Theta pull(H) has the Fraction zero as point coefficient,
        where the reference kept the factors' zero."""
        for g in (GEOMS[1], unusual_geometries()[0]):
            theta = divisor_vector(g, DivisorX(1, g.zero_divisor()))
            z = DivisorB.zero(g.rank)
            for scalar in (Poly2.u(), LaurentSeries([(1, 1)], -2)):
                eta = ChernVector(0, 0, z, g.hb_divisor.scale(scalar), 0, 0)
                got, want = mul(g, theta, eta), _reference_mul(g, theta, eta)
                assert got.s is ring._ZERO and type(want.s) is type(scalar)
                _assert_as_reference(g, got, want)
                assert ring.degree(g, theta, eta) is ring._ZERO

    def test_products_at_every_scalar_keep_one_table_per_geometry(self):
        """Products with a factor that is not all Fraction use the same
        structure constants as Fraction products: one table per geometry,
        whatever the scalars."""
        rng = random.Random(37)
        for g in fresh_geometries():
            for _ in range(40):
                v1 = _mixed_vector(rng, g.rank)
                v2 = _mixed_vector(rng, g.rank) if rng.random() < 0.5 else _rand_vector(rng, g.rank)
                mul(g, v1, v2)
                mul(g, v2, v1)
            assert set(g.matrices) == {(ring._structure_constants, ())}
            table = ring._kept(g, ring._structure_constants)
            mul(g, _rand_vector(rng, g.rank), _rand_vector(rng, g.rank))
            assert ring._kept(g, ring._structure_constants) is table

    def test_poly2_constants_give_the_fraction_product(self):
        """Replacing coordinates by Poly2 constants of the same value, zeros
        included, keeps the product == and hash-equal to the Fraction one."""
        rng = random.Random(38)
        geoms = fresh_geometries()
        for k in range(300):
            g = geoms[k % len(geoms)]
            v, w = _rand_vector(rng, g.rank), _rand_vector(rng, g.rank)
            if k % 3 == 0:
                v = _degree_part(v, k % 4) + _degree_part(v, (k + 1) % 4)
            flat = list(v.coordinates())
            for i in rng.sample(range(len(flat)), rng.randint(1, len(flat))):
                flat[i] = Poly2.const(flat[i])
            mixed = _from_flat(g.rank, flat)
            for got, want in ((mul(g, mixed, w), mul(g, v, w)), (mul(g, w, mixed), mul(g, w, v)),
                              (mul(g, mixed, mixed), mul(g, v, v))):
                assert got == want
                assert hash(got) == hash(want)

    def test_table_is_built_without_the_public_product(self, monkeypatch):
        """A traced call count of mul sees only the caller's calls."""
        calls = []
        original = ring.mul
        monkeypatch.setattr(ring, "mul", lambda g, v1, v2: calls.append("mul") or original(g, v1, v2))
        g = BaseGeometry(2, [[2, 3], [3, -1]], [1, 2], Fraction(-3, 2), 0, 1)
        rng = random.Random(33)
        ring.mul(g, _rand_vector(rng, 2), _rand_vector(rng, 2))
        assert calls == ["mul"]
        assert set(g.matrices) == {(ring._structure_constants, ())}


class TestDegree:
    """``degree`` is ``mul(...).s`` in value and type, from the point-class
    slice of the structure constants at every scalar, and the point
    coefficient of ``_reference_mul``."""

    @staticmethod
    def _assert_is_point_coefficient(g, v1, v2):
        got, want = ring.degree(g, v1, v2), mul(g, v1, v2).s
        assert got == want and type(got) is type(want)
        ref = _reference_mul(g, v1, v2).s
        assert got == ref and hash(got) == hash(ref)
        assert type(got) is type(ref) or (g.h == 0 and got is ring._ZERO)

    def test_fraction_factors_on_fresh_geometries(self):
        rng = random.Random(39)
        for g in fresh_geometries():
            vs = list(sample_vectors(rng, g.rank))
            vs += [_degree_part(v, i) for v in vs[3:13] for i in range(4)]
            vs += [fmt.phi(g, v) for v in vs[:6]]
            for v1, v2 in zip(vs, vs[1:] + vs[:1]):
                self._assert_is_point_coefficient(g, v1, v2)
                self._assert_is_point_coefficient(g, v1, v1)
            zero = ChernVector.zero(g.rank)
            assert ring.degree(g, zero, vs[5]) is ring._ZERO
            assert set(g.matrices) >= {(ring._structure_constants, ()), (ring._point_constants, ())}

    def test_other_scalars(self):
        rng = random.Random(40)
        for g in fresh_geometries():
            f, s = _rand_vector(rng, g.rank), _series_vector(g.rank)
            pairs = [(s, f), (f, s), (s, s), (s, ChernVector.zero(g.rank))]
            pairs += [(_mixed_vector(rng, g.rank), _mixed_vector(rng, g.rank)) for _ in range(30)]
            pairs += [(_mixed_vector(rng, g.rank), f) for _ in range(10)]
            for v1, v2 in pairs:
                self._assert_is_point_coefficient(g, v1, v2)
                self._assert_is_point_coefficient(g, v2, v1)

    def test_rank_mismatch(self, g1, g2):
        rng = random.Random(41)
        for g, other in ((g1, _rand_vector(rng, 2)), (g2, _rand_vector(rng, 1))):
            for v1, v2 in ((other, ChernVector.unit(g.rank)), (ChernVector.unit(g.rank), other),
                           (_series_vector(other.rank_lattice), ChernVector.unit(g.rank))):
                with pytest.raises(DimensionError):
                    ring.degree(g, v1, v2)


def test_fields_are_built_one_at_a_time():
    """Reading one field of a vector made from its integer form builds that
    field alone, and the vector keeps the constructor's hash and repr."""
    rng = random.Random(45)
    for g in fresh_geometries():
        flat = list(_rand_vector(rng, g.rank).coordinates())
        public = _coerced(g.rank, flat)
        for name in ("n", "x", "S", "eta", "a", "s"):
            v = ChernVector._ints(*ring._over_common_denominator(flat))
            value = getattr(v, name)
            assert set(v.__dict__) == {"_nums", "_den", name}
            assert value == getattr(public, name) and type(value) is type(getattr(public, name))
            assert hash(v) == hash(public) and repr(v) == repr(public)
            assert shape(v) == shape(public)


def test_tables_leave_geometry_identity_unchanged():
    """The lru_caches keyed on geometries (compute_m) keep hitting once a
    geometry holds its product table and transform matrices."""
    for g in fresh_geometries():
        v = _rand_vector(random.Random(34), g.rank)
        mul(g, v, v)
        mul(g, v, _mixed_vector(random.Random(36), g.rank))
        fmt.phi(g, v)
        fmt.phi_hat(g, v)
        kept = {(ring._structure_constants, ()), (fmt._phi_table, ()), (fmt._phi_hat_table, ())}
        assert set(g.matrices) == kept
        fresh = BaseGeometry(g.rank, g.gram, g.hb, g.h, g.vprime, g.m0)
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        compute_m(g)
        hits = compute_m.cache_info().hits
        assert compute_m(fresh) == compute_m(g)
        assert compute_m.cache_info().hits == hits + 2


def _coerced(rank, c):
    """A vector through the coercing constructors, from flat coordinates."""
    return ChernVector(c[0], c[1], DivisorB(c[2 : 2 + rank]), DivisorB(c[2 + rank : 2 + 2 * rank]), c[-2], c[-1])


def test_vector_arithmetic_matches_the_coercing_constructors():
    for rank in (1, 2):
        dim = 2 * rank + 4
        for cs in (
            [Fraction(k, 3) for k in range(dim)],
            [Poly2({(k % 3, 1): Fraction(k + 1, 2)}) for k in range(dim)],
            [LaurentSeries([(k, Fraction(1, k + 5)), (-2, k)], -3) for k in range(dim)],
        ):
            v, w = _from_flat(rank, cs), _from_flat(rank, cs[::-1])
            assert shape(v + w) == shape(_coerced(rank, [a + b for a, b in zip(cs, cs[::-1])]))
            assert shape(-v) == shape(_coerced(rank, [-a for a in cs]))
            assert shape(v - w) == shape(v + (-w))
            for c in (3, Fraction(-5, 7), cs[1]):
                want = _coerced(rank, [ring._q(c) * a for a in cs])
                assert shape(v.scale(c)) == shape(want) == shape(c * v)
                assert [(type(a), a) for a in v.S.scale(c).coords] == [(type(a), a) for a in want.S.coords]
            assert v == _coerced(rank, cs) and _coerced(rank, cs) == v
            assert v != w and not v == w
        with pytest.raises(DimensionError):
            v.S + DivisorB.zero(rank + 1)
        with pytest.raises(DimensionError):
            v + ChernVector.zero(rank + 1)


def test_mul_laws_bulk():
    """Commutativity, associativity, bilinearity and grading at scale."""
    rng = random.Random(42)
    g = GEOMS[0]
    from ellstab.suites import _rand_vector

    for i in range(10000):
        v1, v2 = _rand_vector(rng, 1), _rand_vector(rng, 1)
        p12 = mul(g, v1, v2)
        assert p12 == mul(g, v2, v1)
        if i % 5 == 0:
            v3 = _rand_vector(rng, 1)
            assert mul(g, p12, v3) == mul(g, v1, mul(g, v2, v3))
            assert mul(g, v1 + v2, v3) == mul(g, v1, v3) + mul(g, v2, v3)


class TestTwist:
    def test_pure_pullback_example(self):
        g = BaseGeometry(1, [[1]], [1], 0)
        v = ChernVector.unit(1)
        out = twist(g, v, DivisorX.pullback(d(1)))
        assert out == cv(1, 0, d(-1), d(0), Fraction(1, 2), 0)

    def test_zero_field_identity(self, g2):
        v = cv(3, -2, d(1, 2), d(0, 1), 5, -7)
        assert twist(g2, v, DivisorX.zero(2)) == v

    def test_half_canonical_closed_form(self, g1):
        v = cv(2, 0, d(0), d(0), 0, 0)
        out = twist(g1, v, g1.half_canonical_bfield())
        assert out == cv(2, 0, d(-1), d(0), Fraction(1, 4), 0)

    @settings(max_examples=150)
    @given(v=vectors(1), b1=rationals, b2=rationals)
    def test_pullback_twists_compose(self, v, b1, b2):
        g = GEOMS[0]
        f1, f2 = DivisorX.pullback(d(b1)), DivisorX.pullback(d(b2))
        both = DivisorX.pullback(d(b1 + b2))
        assert twist(g, twist(g, v, f1), f2) == twist(g, v, both)

    @settings(max_examples=150)
    @given(v=vectors(1), b1=rationals, t1=rationals, b2=rationals, t2=rationals)
    def test_general_twists_compose(self, v, b1, t1, b2, t2):
        g = GEOMS[0]
        f1, f2 = DivisorX(t1, d(b1)), DivisorX(t2, d(b2))
        both = DivisorX(t1 + t2, d(b1 + b2))
        assert twist(g, twist(g, v, f1), f2) == twist(g, v, both)

    @settings(max_examples=100)
    @given(v=vectors(1), b=rationals, t=rationals)
    def test_twist_inverts(self, v, b, t):
        g = GEOMS[0]
        f = DivisorX(t, d(b))
        assert twist(g, twist(g, v, f), -f) == v

    def test_half_canonical_matches_componentwise(self):
        rng = random.Random(11)
        for geo in GEOMS:
            for _ in range(80):
                v = ChernVector(
                    Fraction(rng.randint(-6, 6)),
                    Fraction(rng.randint(-6, 6)),
                    DivisorB([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(geo.rank)]),
                    DivisorB([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(geo.rank)]),
                    Fraction(rng.randint(-6, 6), 2),
                    Fraction(rng.randint(-6, 6), 3),
                )
                tw = twist(geo, v, geo.half_canonical_bfield())
                hb = geo.hb_divisor
                h, hh2 = geo.h, geo.h * geo.h * geo.hb2
                assert tw.n == v.n
                assert tw.x == v.x
                assert tw.S == v.S + hb.scale(v.n * h / 2)
                assert tw.eta == v.eta + hb.scale(v.x * h / 2)
                assert tw.a == v.a + h * pair(geo, hb, v.S) / 2 + hh2 * v.n / 8
                assert tw.s == v.s + h * pair(geo, hb, v.eta) / 2 + hh2 * v.x / 8


def _twist_reference(g, v, B):
    """Twist with exp(-B) assembled from ring products instead of closed forms."""
    b = divisor_vector(g, B)
    b2 = mul(g, b, b)
    b3 = mul(g, b2, b)
    expo = ChernVector.unit(g.rank) - b + b2.scale(Fraction(1, 2)) - b3.scale(Fraction(1, 6))
    return mul(g, expo, v)


def test_twist_matches_product_reference():
    rng = random.Random(23)
    for rank2 in (False, True):
        for h in H_SET_INVOLUTION:
            g = geometry_for(h, rank2)
            for i in range(40):
                v = _rand_vector(rng, g.rank)
                t = Fraction(0) if i % 2 == 0 else _rand_q(rng)
                B = DivisorX(t, _rand_divisor(rng, g.rank))
                out = twist(g, v, B)
                assert out == _twist_reference(g, v, B)
                assert twist(g, ChernVector.unit(g.rank), B) == _twist_reference(g, ChernVector.unit(g.rank), B)
                assert all(type(c) is Fraction for c in out.coordinates())


def test_products_of_sparse_vectors_keep_fraction_scalars():
    rng = random.Random(29)
    for rank2 in (False, True):
        g = geometry_for(Fraction(1, 2), rank2)
        for _ in range(50):
            v1, v2 = _rand_vector(rng, g.rank), _rand_vector(rng, g.rank)
            for i in range(4):
                for j in range(4):
                    out = mul(g, _degree_part(v1, i), _degree_part(v2, j))
                    assert all(type(c) is Fraction for c in out.coordinates())
            assert type(pair_h(g, v1.eta)) is Fraction
            assert pair_h(g, v1.eta) == pair(g, g.hb_divisor, v1.eta)


def _scalar(spec):
    """A Fraction from a string, a Poly2 from a {(i, j): coefficient} dict."""
    if isinstance(spec, dict):
        return Poly2({k: Fraction(c) for k, c in spec.items()})
    return Fraction(spec)


class TestSymbolicProducts:
    """Products at Poly2 scalars against the full expansion's values, with
    w = u*Theta + v*pull(H) on the rank-two lattice, in ``_reference_mul``'s
    per-coordinate scalar types."""

    EXPECTED = {
        "w^2": ("0", {}, {}, {}, {(1, 1): "2", (2, 0): "1/2"}, {}, {(0, 2): "2"}, {}),
        "w^3": ("0", {}, {}, {}, {}, {}, {}, {(1, 2): "6", (2, 1): "3", (3, 0): "1/2"}),
        "w*Theta": ("0", {}, {}, {}, {(0, 1): "1", (1, 0): "1/2"}, {}, "0", {}),
    }

    def test_polarization_products(self, g2):
        w = divisor_vector(g2, DivisorX(Poly2.u(), g2.hb_divisor.scale(Poly2.v())))
        theta = divisor_vector(g2, DivisorX(1, g2.zero_divisor()))
        w2 = mul(g2, w, w)
        got = {"w^2": w2, "w^3": mul(g2, w2, w), "w*Theta": mul(g2, w, theta)}
        references = {"w^2": _reference_mul(g2, w, w), "w^3": _reference_mul(g2, w2, w),
                      "w*Theta": _reference_mul(g2, w, theta)}
        for name, spec in self.EXPECTED.items():
            want = [_scalar(c) for c in spec]
            have = list(got[name].coordinates())
            assert shape(got[name]) == shape(references[name]), name
            assert have == want, name

    def test_chow_remainders(self, g2):
        for a, b in ((Fraction(1), Fraction(2)), (Fraction(3, 2), Fraction(1, 3))):
            rems = chow_identity_symbolic_remainder(g2, TiltCurve(g2.h, a, b))
            assert len(rems) == 8
            assert all(isinstance(r, Poly2) and r.is_zero() for r in rems)


class TestAccessors:
    @settings(max_examples=100)
    @given(v=vectors(1))
    def test_a2_a3_match_twist(self, v):
        from ellstab.fmt import phi

        g = GEOMS[0]
        tw = twist(g, v, g.half_canonical_bfield())
        assert v.a2(g) == tw.S
        assert v.a3(g) == tw.s - v.x * g.h * g.h * g.hb2 / 24
        assert v.a3(g) == phi(g, v).a

    def test_additivity(self, g2):
        v1 = cv(1, 2, d(3, 0), d(0, 1), 4, 5)
        v2 = cv(-1, 0, d(1, 1), d(2, 0), 0, -3)
        g = g2
        assert (v1 + v2).a2(g) == v1.a2(g) + v2.a2(g)
        assert (v1 + v2).a3(g) == v1.a3(g) + v2.a3(g)


# -- fraction-free vectors --------------------------------------------------

FRESH = fresh_geometries()
scalars = st.one_of(st.just(Fraction(0)), rationals)


def _reference_fraction_mul(g, v1, v2):
    """``mul`` at Fraction scalars as it was on Fraction fields: each factor
    put over its lcm at every call, one normalised Fraction per output."""
    table, den, _ = ring._kept(g, ring._structure_constants)
    nums1, den1 = ring._over_common_denominator(v1.coordinates())
    nums2, den2 = ring._over_common_denominator(v2.coordinates())
    totals = [0] * len(nums1)
    for a, row in zip(nums1, table):
        for j, k, c in row:
            totals[k] += a * nums2[j] * c
    den *= den1 * den2
    return _from_flat(g.rank, [Fraction(t, den) if t else Fraction(0) for t in totals])


def _reference_apply(g, v, closed):
    """``fmt._apply`` at Fraction scalars as it was on Fraction fields."""
    rows, den = _reference_read_matrix(g, closed)
    nums, common = ring._over_common_denominator(v.coordinates())
    den *= common
    totals = [sum(a * nums[j] for j, a in row) for row in rows]
    return _from_flat(g.rank, [Fraction(t, den) if t else Fraction(0) for t in totals])


# The coordinate paths that the vector operations took at every scalar but
# Fraction, before every vector held its numerators over one denominator,
# kept verbatim as references at every scalar, with the helpers they used;
# a vector that is not all Fraction stands where they read ``_nums is None``,
# and the numerators of one that is are read off its coordinates.


def _reference_eq(v, w):
    return v.coordinates() == w.coordinates()


def _reference_add(v, w):
    return _from_flat(v.rank_lattice, [a + b for a, b in zip(v.coordinates(), w.coordinates())])


def _reference_neg(v):
    return _from_flat(v.rank_lattice, [-c for c in v.coordinates()])


def _reference_scale(v, c):
    c = ring._q(c)
    return _from_flat(v.rank_lattice, [c * t for t in v.coordinates()])


def _reference_factor(v: ChernVector) -> tuple:
    """A factor of ``_reference_contract``: the integer numerators and
    denominator of a fraction-free vector, else the coordinates, exact zeros
    written 0, over 1."""
    if not _plain_vector(v):
        return [0 if c == 0 else c for c in v.coordinates()], 1
    return ring._over_common_denominator(v.coordinates())


def _reference_contract(table: list, den: int, v1: ChernVector, v2: ChernVector) -> tuple[list, int]:
    (left, d1), (right, d2) = _reference_factor(v1), _reference_factor(v2)
    totals = [0] * len(table)
    for a, row in zip(left, table):
        if a:
            for j, k, c in row:
                b = right[j]
                if b:
                    totals[k] += a * c * b
    return totals, den * d1 * d2


def _reference_table_mul(g: BaseGeometry, v1: ChernVector, v2: ChernVector) -> ChernVector:
    """``mul`` through ``_reference_factor``; its ``.s`` is the reference of
    ``degree``."""
    r = g.rank
    if v1.rank_lattice != r or v2.rank_lattice != r:
        raise DimensionError("vector rank does not match geometry rank")
    table, den, _ = ring._kept(g, ring._structure_constants)
    totals, den = _reference_contract(table, den, v1, v2)
    if not (_plain_vector(v1) and _plain_vector(v2)):
        return _from_flat(r, [ring._divided(t, den) for t in totals])
    return ChernVector._ints(totals, den)


def _reference_pair_h(g: BaseGeometry, d: DivisorB):
    """Pairing H.d with the ample class, through the stored row hb * gram."""
    if d.rank != g.rank:
        raise DimensionError("divisor rank does not match geometry rank")
    return _or_zero(_sum_products(zip(_reference_hb_row(g), _nonzero(d.coords, _plain(d.coords)))))


def _reference_twist(g: BaseGeometry, v: ChernVector, B: DivisorX) -> ChernVector:
    t, D = B.theta, B.base
    dd = pair(g, D, D)
    if t:
        th = t * g.h
        eta = [th * t / 2 * hb + t * c for hb, c in zip(g.hb, D.coords)]
        s = -t * (th * th * g.hb2 + 3 * th * _reference_pair_h(g, D) + 3 * dd) / 6
    else:
        eta, s = g.zero_divisor().coords, ring._ZERO
    expo = _from_flat(g.rank, [Fraction(1), -t, *(-c for c in D.coords), *eta, dd / 2, s])
    return _reference_table_mul(g, expo, v)


def _reference_exp_minus(g: BaseGeometry, B: DivisorX) -> ChernVector:
    """exp(-B) = 1 - B + B^2/2 - B^3/6 from the closed forms of B^2 and B^3
    on the coordinates, as ``ring._exp_minus`` built it before it read
    numerators, kept verbatim as its reference (with the reference pairings)."""
    t, D = B.theta, B.base
    dd = _reference_pair(g, D, D)
    if t:
        th = t * g.h
        eta = [th * t / 2 * hb + t * c for hb, c in zip(g.hb, D.coords)]
        s = -t * (th * th * g.hb2 + 3 * th * _reference_pair_h(g, D) + 3 * dd) / 6
    else:
        eta, s = [0] * g.rank, 0
    return ChernVector._ints(*ring._numerators([1, -t, *(-c for c in D.coords), *eta, dd / 2, s]))


def fractional_geometries():
    """Lattices with a non-integer gram or hb, at fractional h and h = 0,
    ranks 1 and 2."""
    return [
        BaseGeometry(1, [[Fraction(1, 2)]], [Fraction(2, 3)], Fraction(1, 3)),
        BaseGeometry(1, [[Fraction(3, 4)]], [Fraction(1, 2)], 0),
        BaseGeometry(2, [[Fraction(3, 2), Fraction(1, 3)], [Fraction(1, 3), 2]], [Fraction(1, 2), 1], 0),
        BaseGeometry(2, [[Fraction(1, 2), 1], [1, Fraction(5, 4)]], [Fraction(2, 3), Fraction(1, 5)],
                     Fraction(-5, 3), 0, 2),
        BaseGeometry(2, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]], [1, 1], Fraction(3, 2)),
    ]


def signature_geometries():
    """Lattices of the forms <2> (rank 1) and diag(1, -1) (signature
    (1, 1)), with an hb that is a basis vector and one that is not."""
    return [
        BaseGeometry(1, [[2]], [1], Fraction(-1)),
        BaseGeometry(1, [[2]], [Fraction(3, 2)], Fraction(1, 2)),
        BaseGeometry(2, [[1, 0], [0, -1]], [1, 0], Fraction(-1)),
        BaseGeometry(2, [[1, 0], [0, -1]], [2, 1], Fraction(3, 7)),
        BaseGeometry(2, [[1, 0], [0, -1]], [Fraction(3, 2), Fraction(1, 2)], Fraction(-2), 0, 2),
    ]


def table_geometries():
    """The lattices the table writers are pinned on: ``fresh_geometries``,
    ``fractional_geometries`` and ``signature_geometries``, all fresh."""
    return fresh_geometries() + fractional_geometries() + signature_geometries()


def _fields(rng, g):
    """Fields B = t Theta + pull(D) at every scalar: rational with t = 0 and
    t != 0 (zeros of either part included), Poly2 (symbolic, zero, mixed
    with Fractions) and series (truncated and exact, mixed with Fractions)."""
    r = g.rank
    z = g.zero_divisor()
    u, v = Poly2.u(), Poly2.v()
    s1 = LaurentSeries([(1, Fraction(2, 3)), (-1, 5)], -4)
    s2 = LaurentSeries([(0, Fraction(-1, 2)), (-2, 3)], -3)
    exact = LaurentSeries([(2, 1), (0, Fraction(1, 3))])
    series = [s1, s2, exact, LaurentSeries.zero(-2)]
    out = [DivisorX.zero(r), DivisorX(_rand_q(rng) or 1, z), g.half_canonical_bfield()]
    for _ in range(6):
        out += [DivisorX(0, _rand_divisor(rng, r)), DivisorX(_rand_q(rng), _rand_divisor(rng, r))]
    out += [DivisorX(u, g.hb_divisor.scale(v)), DivisorX(0, DivisorB._raw((v,) * r)),
            DivisorX(Poly2(), DivisorB([Poly2()] * r)), DivisorX(u, z),
            DivisorX(_rand_q(rng) or 1, DivisorB._raw((u,) * r)),
            DivisorX(u, _rand_divisor(rng, r)), DivisorX(0, DivisorB._raw((Fraction(0),) * (r - 1) + (u * v,)))]
    for _ in range(4):
        pick = lambda: rng.choice(series + [_rand_q(rng), Fraction(0)])
        out += [DivisorX(rng.choice(series), DivisorB._raw(tuple(pick() for _ in range(r)))),
                DivisorX(_rand_q(rng) or 1, DivisorB._raw(tuple(rng.choice(series) for _ in range(r)))),
                DivisorX(0, DivisorB._raw(tuple(pick() for _ in range(r)))),
                DivisorX(rng.choice(series), _rand_divisor(rng, r))]
    return out


def _storage_forms(rank, flat):
    """The same class held both ways a vector of Fractions can be: fields
    with the integer form (the public constructor), and the integer form
    alone, fields built on first read (``ChernVector._ints``, as results
    are)."""
    return _coerced(rank, flat), ChernVector._ints(*ring._over_common_denominator(flat))


def _assert_canonical(v):
    nums, den = v.__dict__["_nums"], v.__dict__["_den"]
    assert type(den) is int and den > 0 and all(type(t) is int for t in nums)
    assert gcd(den, *nums) == 1
    if not any(nums):
        assert den == 1
    assert [Fraction(t, den) for t in nums] == list(v.coordinates())


def _assert_matches(got, want):
    """Equal values and per-coordinate types, S and eta as DivisorB, and the
    canonical integer form, which every rational result holds."""
    assert shape(got) == shape(want)
    assert type(got.S) is DivisorB and type(got.eta) is DivisorB
    _assert_canonical(got)


@st.composite
def geometry_and_flats(draw):
    g = draw(st.sampled_from(FRESH))
    dim = 2 * g.rank + 4
    flats = [draw(st.lists(scalars, min_size=dim, max_size=dim)) for _ in range(2)]
    return g, flats, draw(scalars)


class TestFractionFree:
    """The integer paths of the rational producers against their Fraction
    field versions, from every storage form of the inputs."""

    @settings(max_examples=300, deadline=None)
    @given(case=geometry_and_flats())
    def test_producers_match_the_fraction_field_references(self, case):
        g, (f1, f2), c = case
        v1, v2 = _coerced(g.rank, f1), _coerced(g.rank, f2)
        for a in _storage_forms(g.rank, f1):
            _assert_matches(fmt.phi(g, a), _reference_apply(g, v1, _reference_phi))
            _assert_matches(fmt.phi_hat(g, a), _reference_apply(g, v1, _reference_phi_hat))
            _assert_matches(-a, _reference_neg(v1))
            for k in (c, 3, 0):
                _assert_matches(a.scale(k), _reference_scale(v1, k))
            for b in _storage_forms(g.rank, f2):
                _assert_matches(mul(g, a, b), _reference_fraction_mul(g, v1, v2))
                _assert_matches(a + b, _reference_add(v1, v2))
                _assert_matches(a - b, _reference_add(v1, _reference_neg(v2)))
                assert (a == b) == (f1 == f2)

    @settings(max_examples=100, deadline=None)
    @given(case=geometry_and_flats())
    def test_integer_inputs_give_integer_results(self, case):
        g, (f1, f2), c = case
        a, b = ChernVector._ints(*ring._over_common_denominator(f1)), _storage_forms(g.rank, f2)[0]
        for out in (mul(g, a, b), fmt.phi(g, a), fmt.phi_hat(g, a), -a, a + b, a - b,
                    a.scale(c)):
            assert set(out.__dict__) == {"_nums", "_den"}
            _assert_canonical(out)


class TestStorageForms:
    """The public contract is the same whichever form a vector holds."""

    def test_eq_hash_repr_agree_across_forms(self):
        rng = random.Random(41)
        for g in fresh_geometries():
            unit = ChernVector.unit(g.rank)
            for v in sample_vectors(rng, g.rank):
                public = _coerced(g.rank, list(v.coordinates()))
                poly = _from_flat(g.rank, [Poly2.const(c) for c in v.coordinates()])
                for produced in (-fmt.phi(g, fmt.phi_hat(g, v)), mul(g, unit, v)):
                    assert set(produced.__dict__) == {"_nums", "_den"}
                    assert produced == public and public == produced
                    assert produced == poly and poly == produced
                    assert produced != public + unit and public + unit != produced
                    assert hash(produced) == hash(public) == hash(poly)
                    assert repr(produced) == repr(public) and str(produced) == str(public)
                    assert shape(produced) == shape(public)

    def test_add_across_ranks_raises(self):
        rng = random.Random(42)
        one = _storage_forms(1, list(_rand_vector(rng, 1).coordinates()))
        two = _storage_forms(2, list(_rand_vector(rng, 2).coordinates()))
        symbolic = _series_vector(2)
        for a in one:
            for b in (*two, symbolic):
                with pytest.raises(DimensionError):
                    a + b
                with pytest.raises(DimensionError):
                    b + a
                assert a != b

    def test_every_rational_vector_holds_its_integer_form(self):
        """Each constructor stores the integer form of a vector of Fractions
        as it makes the vector; a vector of other scalars holds its
        coordinates over 1, with no int among them."""
        rng = random.Random(44)
        for g in fresh_geometries():
            r = g.rank
            flat = list(_rand_vector(rng, r).coordinates())
            made = (
                _coerced(r, flat),
                ChernVector.zero(r),
                ChernVector.unit(r),
                _from_flat(r, flat),
                parse_vector_literal(format_vector(_coerced(r, flat)), r),
            )
            for v in made:
                assert {"_nums", "_den"} <= set(v.__dict__)
                _assert_canonical(v)
            for v in (_from_flat(r, [Poly2.const(c) for c in flat]), _series_vector(r), _mixed_vector(rng, r)):
                if _plain_vector(v):
                    continue
                assert v._den == 1 and type(v._nums[0]) is not int
                assert [(type(t), t) for t in v._nums] == shape(v)

    def test_constructor_coerces_int_and_str(self):
        v = ChernVector(1, "1/2", DivisorB([2, "-3"]), DivisorB(["-3/4", 0]), 0, "5")
        assert shape(v) == shape(_from_flat(2, [Fraction(x) for x in
                                                     (1, "1/2", 2, -3, "-3/4", 0, 0, 5)]))
        assert v == ChernVector._ints([4, 2, 8, -12, -3, 0, 0, 20], 4)


def _every_scalar(rng, rank):
    """Vectors at Fraction (zero and a sparse one included), all-Poly2
    (zeros included), mixed Fraction and Poly2, and series scalars."""
    f = _rand_vector(rng, rank)
    poly = _from_flat(rank, [Poly2({(rng.randint(0, 2), rng.randint(0, 2)): c}) for c in f.coordinates()])
    return [ChernVector.zero(rank), f, _degree_part(_rand_vector(rng, rank), 2), poly,
            _from_flat(rank, [Poly2.const(c) for c in f.coordinates()]),
            _mixed_vector(rng, rank), _mixed_vector(rng, rank), _series_vector(rank), _dense_series_vector(rng, rank)]


def _assert_same(got, want):
    """Coordinate by coordinate, the same value, type and hash."""
    assert [(type(c), c, hash(c)) for c in got.coordinates()] == [(type(c), c, hash(c)) for c in want.coordinates()]


def _is_series(v):
    return any(type(c) is LaurentSeries for c in v.coordinates())


def _compatible(v, w):
    """Whether v and w hold no series and Poly2 pair, which no arithmetic
    combines."""
    types = {type(c) for c in v.coordinates()} | {type(c) for c in w.coordinates()}
    return not {LaurentSeries, Poly2} <= types


class TestOneStorageForm:
    """Every vector holds numerators over one denominator, and each vector
    operation is one formula over them: against the coordinate paths that
    the other scalars took before, in value, type and hash."""

    def test_arithmetic_matches_the_coordinate_paths(self):
        rng = random.Random(46)
        for g in fresh_geometries():
            vs = _every_scalar(rng, g.rank)
            for v in vs:
                _assert_same(-v, _reference_neg(v))
                for c in (3, Fraction(-5, 7), 0, *(() if _is_series(v) else (Poly2.u(),))):
                    _assert_same(v.scale(c), _reference_scale(v, c))
                    _assert_same(c * v, _reference_scale(v, c))
                for w in filter(lambda w: _compatible(v, w), vs):
                    _assert_same(v + w, _reference_add(v, w))
                    _assert_same(v - w, _reference_add(v, _reference_neg(w)))
                    _assert_same(v - w, v + (-w))
                    assert v - w == v + (-w) and hash(v - w) == hash(v + (-w))
                    assert (v == w) == _reference_eq(v, w) and (v != w) != _reference_eq(v, w)

    def test_products_match_the_coordinate_path(self):
        rng = random.Random(47)
        for g in fresh_geometries() + unusual_geometries():
            vs = _every_scalar(rng, g.rank)
            for v1 in vs:
                for v2 in filter(lambda w: _compatible(v1, w), vs):
                    want = _reference_table_mul(g, v1, v2)
                    _assert_same(mul(g, v1, v2), want)
                    got = ring.degree(g, v1, v2)
                    assert (type(got), got, hash(got)) == (type(want.s), want.s, hash(want.s))

    def test_twist_and_pair_h_match_the_coordinate_paths(self):
        rng = random.Random(48)
        for g in fresh_geometries():
            r = g.rank
            symbolic = DivisorX(Poly2.u(), g.hb_divisor.scale(Poly2.v()))
            fields = [DivisorX(0, _rand_divisor(rng, r)), DivisorX(_rand_q(rng), _rand_divisor(rng, r)), symbolic,
                      DivisorX(Poly2(), DivisorB([Poly2()] * r))]
            for v in _every_scalar(rng, r):
                for d in (v.S, v.eta):
                    got, want = pair_h(g, d), _reference_pair_h(g, d)
                    assert (type(got), got, hash(got)) == (type(want), want, hash(want))
                for B in fields[:2] if _is_series(v) else fields:
                    _assert_same(twist(g, v, B), _reference_twist(g, v, B))

    def test_exp_minus_matches_the_closed_form_at_every_scalar(self):
        """exp(-B) from numerators has the value, type, hash and storage form
        of the closed form on the coordinates, for fields with t = 0 and
        t != 0 at every scalar, on lattices with integer and non-integer
        gram and hb, fractional h and h = 0, at ranks 1, 2 and 3."""
        rng = random.Random(51)
        for g in fresh_geometries() + unusual_geometries() + fractional_geometries():
            for B in _fields(rng, g):
                got, want = ring._exp_minus(g, B), _reference_exp_minus(g, B)
                _assert_same(got, want)
                assert (got._nums, got._den) == (want._nums, want._den)
                assert [type(c) for c in got._nums] == [type(c) for c in want._nums]
                if not any(isinstance(c, (Poly2, LaurentSeries)) for c in (B.theta, *B.base.coords)):
                    _assert_canonical(got)
                    v = _rand_vector(rng, g.rank)
                    _assert_same(twist(g, v, B), _reference_table_mul(g, want, v))
        with pytest.raises(DimensionError, match="divisor rank does not match geometry rank"):
            ring._exp_minus(fresh_geometries()[0], DivisorX.zero(2))

    def test_pair_h_skips_exact_zeros_of_every_scalar(self):
        """A Poly2 zero is skipped, as a Fraction zero is, so H.d of a
        divisor of zeros is the Fraction zero; a series is never skipped."""
        for g in fresh_geometries():
            for zero in (Fraction(0), Poly2(), Poly2.const(0)):
                d = DivisorB._raw((zero,) * g.rank)
                for got in (pair_h(g, d), _reference_pair_h(g, d)):
                    assert type(got) is Fraction and got == 0
            floored = LaurentSeries.zero(-2)
            got = pair_h(g, DivisorB._raw((floored,) * g.rank))
            assert type(got) is LaurentSeries and got.trunc == -2

    def test_pair_matches_the_reference_at_every_scalar(self):
        """``pair`` skips exact-zero factors as ``_contract`` does, with the
        value, type and hash of the None-sentinel loop: Fraction, Poly2,
        mixed and series divisors, all-zero divisors of each scalar, and a
        truncated stored zero, which is never skipped and keeps its floor."""
        rng = random.Random(49)
        floored = LaurentSeries.zero(-2)
        for g in fresh_geometries() + unusual_geometries() + fractional_geometries():
            r = g.rank
            divisors = [d for v in _every_scalar(rng, r) for d in (v.S, v.eta)]
            divisors += [DivisorB._raw((zero,) * r) for zero in (Fraction(0), Poly2(), Poly2.const(0), floored)]
            divisors += [DivisorB._raw((floored,) + (Fraction(0),) * (r - 1)), g.hb_divisor]
            for d1 in divisors:
                for d2 in divisors:
                    if {LaurentSeries, Poly2} <= {type(c) for c in d1.coords + d2.coords}:
                        continue
                    got, want = pair(g, d1, d2), _reference_pair(g, d1, d2)
                    assert (type(got), got, hash(got)) == (type(want), want, hash(want))
            for zero in (Fraction(0), Poly2(), Poly2.const(0)):
                got = pair(g, DivisorB._raw((zero,) * r), g.hb_divisor)
                assert type(got) is Fraction and got == 0
            got = pair(g, DivisorB._raw((floored,) + (Fraction(0),) * (r - 1)), g.hb_divisor)
            assert type(got) is LaurentSeries and got.trunc == -2

    def test_hb_row_holds_plain_values(self):
        """(hb * gram)_j is a Fraction, the zero where it vanishes, and
        ``pair_h`` skips a vanishing entry as ``pair`` skips a zero factor."""
        vanishing = [BaseGeometry(2, [[1, 0], [0, -1]], [1, 0], 0), BaseGeometry(2, [[1, 1], [1, -1]], [1, 1], 0)]
        for g in fresh_geometries() + unusual_geometries() + vanishing:
            r = g.rank
            column = [sum(g.hb[i] * g.gram[i][j] for i in range(r)) for j in range(r)]
            assert [(type(c), c) for c in g.hb_row] == [(Fraction, c) for c in column]
            for k in range(r):
                d = DivisorB._raw(tuple(Poly2.u() if j == k else Fraction(0) for j in range(r)))
                got = pair_h(g, d)
                assert got == pair(g, g.hb_divisor, d)
                assert type(got) is (Poly2 if g.hb_row[k] else Fraction)
        assert [g.hb_row for g in vanishing] == [(1, 0), (2, 0)]

    def test_the_references_skip_a_structural_zero_of_hb_row(self):
        """On a lattice whose hb * gram has a structural zero, the references
        skip it as ``pair_h`` and ``mul`` do: the same value and type."""
        rng = random.Random(50)
        for h in (0, -1):
            g = BaseGeometry(2, [[1, 0], [0, -1]], [1, 0], h)
            assert g.hb_row == (1, 0) and _reference_hb_row(g) == (1, None)
            divisors = [DivisorB._raw((Fraction(0), Poly2.u())), DivisorB._raw((Poly2.v(), Poly2.u()))]
            divisors += [d for v in _every_scalar(rng, 2) for d in (v.S, v.eta)]
            for d in divisors:
                got, want = pair_h(g, d), _reference_pair_h(g, d)
                assert (type(got), got, hash(got)) == (type(want), want, hash(want))
            assert type(_reference_pair_h(g, divisors[0])) is Fraction
            theta = divisor_vector(g, DivisorX(1, g.zero_divisor()))
            vs = _every_scalar(rng, 2) + [theta, _from_flat(2, [0, 0, 0, 0, 0, Poly2.u(), 0, 0])]
            for v1 in vs:
                for v2 in filter(lambda w: _compatible(v1, w), vs):
                    _assert_as_reference(g, mul(g, v1, v2), _reference_mul(g, v1, v2))
            got, want = mul(g, theta, vs[-1]), _reference_mul(g, theta, vs[-1])
            assert (type(got.s), type(want.s)) == (Fraction, Fraction)

    def test_a_truncated_stored_zero_keeps_its_floor_through_mul(self):
        """A series coordinate is never skipped as zero, so the floor of a
        truncated stored zero reaches every coordinate it multiplies."""
        for g in fresh_geometries():
            r = g.rank
            floored = LaurentSeries.zero(-3)
            v = _from_flat(r, [floored] + [Fraction(0)] * (2 * r + 3))
            out = mul(g, v, ChernVector.unit(r))
            assert out.n == floored and out.n.trunc == -3
            assert all(c is ring._ZERO or c == 0 for c in out.coordinates()[1:])
            assert mul(g, ChernVector.zero(r), v).n is ring._ZERO  # a zero Fraction factor is skipped
            _assert_same(out, _reference_table_mul(g, v, ChernVector.unit(r)))

    def test_the_constructor_names_divisor_components(self):
        with pytest.raises(TypeError, match="S and eta"):
            ChernVector(1, 0, [1], [0], 0, 0)
        with pytest.raises(TypeError, match="S and eta"):
            ChernVector(1, 0, DivisorB([1]), (0,), 0, 0)


def test_rational_twist_builds_no_fraction(monkeypatch):
    """Once a geometry's integer rows are kept, exp(-B) and ``twist`` of
    rational fields and classes construct no Fraction at all
    (``Fraction.__new__`` counted, so Fraction arithmetic counts too), for
    t = 0 and t != 0; ``pair`` builds one, its value, or none for zero."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(52)
    for g in fresh_geometries() + fractional_geometries():
        r = g.rank
        vs = [_rand_vector(rng, r) for _ in range(4)]
        fields = [DivisorX(0, _rand_divisor(rng, r)), DivisorX(_rand_q(rng) or 1, _rand_divisor(rng, r)),
                  DivisorX(_rand_q(rng) or 1, g.zero_divisor()), DivisorX.zero(r), g.half_canonical_bfield()]
        for B in fields:
            twist(g, vs[0], B)  # the rows, built once per geometry
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for v in vs:
            for B in fields:
                twist(g, v, B)
                ring._exp_minus(g, B)
        monkeypatch.undo()
        assert built == []
        for v in vs:
            d1, d2 = v.S, v.eta  # reading fields builds Fractions
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
            value = pair(g, d1, d2)
            monkeypatch.undo()
            assert len(built) == (1 if value else 0)
            built.clear()


# The writers that read a geometry's integer fields, with their Fraction
# references (``conftest``), the half-canonical field and the fixed slope
# classes apart.
INTEGER_WRITERS = (
    (ring._structure_constants, _reference_fraction_structure_constants),
    (ring._theta_ints, _reference_fraction_theta_ints),
    (fmt._phi_table, _reference_fraction_phi_table),
    (fmt._phi_hat_table, _reference_fraction_phi_hat_table),
    (fmt._a3_table, _reference_fraction_a3_table),
    (charges._reduced_table, _reference_fraction_reduced_table),
)


def integer_field_geometries():
    """``table_geometries`` and a rank-2 lattice with fractional h and hb."""
    return table_geometries() + [BaseGeometry(2, [[2, 1], [1, 3]], [Fraction(3, 2), Fraction(1, 3)], Fraction(-2, 3))]


def _as_given(g):
    """g's constructor arguments as a config gives them: whole values as
    ints, so the constructor builds their Fractions."""
    def given(c):
        return c.numerator if c.denominator == 1 else c
    return g.rank, [[given(c) for c in row] for row in g.gram], [given(c) for c in g.hb], *map(given, (g.h, g.vprime, g.m0))


class TestIntegerFields:
    """Each geometry clears its lattice to integers once, at construction,
    and every table writer reads those: its table is the Fraction writer's,
    bit for bit, and the public values are unchanged."""

    def test_integer_fields_are_the_least_common_denominator_clearing(self):
        for g in integer_field_geometries():
            flat, gd = ring._over_common_denominator([c for row in g.gram for c in row])
            assert g.gram_nums == (tuple(tuple(flat[i * g.rank : (i + 1) * g.rank]) for i in range(g.rank)), gd)
            for (nums, den), values in ((g.hb_nums, g.hb), (g.hb_row_nums, g.hb_row)):
                assert (list(nums), den) == ring._over_common_denominator(values)
            assert g.h_nums == (g.h.numerator, g.h.denominator)
            assert g.hb2_nums == (g.hb2.numerator, g.hb2.denominator)

    def test_public_values_hash_and_equality_are_unchanged(self):
        for g in integer_field_geometries():
            hb2, hb_row = _reference_fraction_lattice(g)
            assert (type(g.hb2), g.hb2) == (Fraction, hb2)
            assert [(type(c), c) for c in g.hb_row] == [(Fraction, c) for c in hb_row]
            assert hash(g) == hash((g.rank, g.gram, g.hb, g.h, g.vprime, g.m0))
            twin = BaseGeometry(*_as_given(g))
            assert twin == g and hash(twin) == hash(g)
            assert (twin.gram, twin.hb, twin.h) == (g.gram, g.hb, g.h)

    def test_tables_are_the_fraction_writers_bit_for_bit(self):
        """Rows in order, den and width, on a fresh geometry for each."""
        for g in integer_field_geometries():
            for writer, reference in INTEGER_WRITERS:
                assert writer(BaseGeometry(*_as_given(g))) == reference(g), (writer.__name__, g)
            fresh = BaseGeometry(*_as_given(g))
            got, want = ring._half_canonical_bfield(fresh), _reference_fraction_half_canonical_bfield(g)
            assert got == want and hash(got) == hash(want)
            assert [type(c) for c in (got.theta, *got.base.coords)] == [Fraction] * (g.rank + 1)
            fresh = BaseGeometry(*_as_given(g))
            got, want = curves._theta_h_products(fresh), _reference_fraction_theta_h_products(g)
            assert [(v._nums, v._den) for v in got[:2]] == [(v._nums, v._den) for v in want[:2]]
            assert got[2:] == want[2:]
            fresh = BaseGeometry(*_as_given(g))
            for name, build in slopes._FIXED.items():
                got, want = build(fresh), _REFERENCE_FRACTION_FIXED[name](g)
                assert (got._nums, got._den) == (want._nums, want._den), name


def test_cold_builds_construct_no_fraction(monkeypatch):
    """On a new geometry, each table written from its integer fields
    constructs no Fraction (``Fraction.__new__`` counted, so Fraction
    arithmetic counts too), the fixed slope classes included once m
    (``compute_m``, Fraction arithmetic on the public values) is known; the
    half-canonical field builds only its coordinates, and ``BaseGeometry``
    no more Fractions than its public fields hold."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    writers = [writer for writer, _ in INTEGER_WRITERS] + [curves._theta_h_products, *slopes._FIXED.values()]
    for g in fresh_geometries() + fractional_geometries():
        r, given = g.rank, _as_given(g)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        BaseGeometry(*given)
        monkeypatch.undo()
        assert 0 < len(built) <= r * r + 2 * r + 4  # gram, hb, h, vprime, m0, hb2 and hb_row
        built.clear()
        for writer in writers:
            fresh = BaseGeometry(*given)
            compute_m(fresh)
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
            writer(fresh)
            monkeypatch.undo()
            assert built == [], writer
        fresh = BaseGeometry(*given)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        ring._half_canonical_bfield(fresh)
        monkeypatch.undo()
        assert len(built) <= r  # its coordinates
        built.clear()


def test_rational_hot_path_builds_no_fraction(monkeypatch):
    """On vectors of Fractions, made by the constructor or produced,
    transforms, negation, products, degree parts and == construct no
    Fraction in ring or fmt."""
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return Fraction(*args, **kwargs)

    rng = random.Random(43)
    for g in fresh_geometries():
        vs = [_rand_vector(rng, g.rank) for _ in range(6)]
        fmt.phi(g, vs[0])
        fmt.phi_hat(g, vs[0])
        mul(g, vs[0], vs[0])  # the tables, built once per geometry
        monkeypatch.setattr(ring, "Fraction", counting)
        monkeypatch.setattr(fmt, "Fraction", counting, raising=False)  # fmt builds none by name
        for v, w in zip(vs, vs[1:]):
            assert fmt.phi_hat(g, fmt.phi(g, v)) == -v
            assert fmt.phi(g, fmt.phi_hat(g, v)) == -v
            p = mul(g, _degree_part(v, 1), w)
            p = mul(g, _degree_part(p, 2), mul(g, v, _degree_part(w, 0)))
            assert mul(g, p, v) == mul(g, v, p)
        assert built == []
        fmt.phi(g, vs[0]).coordinates()  # reading fields builds Fractions, counted
        assert built
        monkeypatch.undo()
        built.clear()
