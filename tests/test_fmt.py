"""Transform closed forms, involution, linearity and the swap rule."""

import random
from fractions import Fraction
from math import lcm

import pytest

from ellstab import fmt, ring
from ellstab.errors import DimensionError, DomainError
from ellstab.fmt import fiber_swap_rule, phi, phi_hat
from ellstab.poly import Poly2
from ellstab.ring import BaseGeometry, ChernVector, DivisorB, DivisorX, twist
from ellstab.series import LaurentSeries
from ellstab.suites import geometry_for, _rand_divisor, _rand_vector

from conftest import (
    _reference_a3_table,
    _reference_matrix_apply,
    _reference_phi,
    _reference_phi_hat,
    _reference_read_matrix,
    _reference_transform_table,
    as_table,
    cv,
    d,
    fresh_geometries,
    sample_vectors,
    shape,
    table_sets,
)
from test_ring import table_geometries


H_SET = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2)]


def test_skyscraper_goes_to_fiber(g1):
    sky = cv(0, 0, d(0), d(0), 0, 1)
    assert phi(g1, sky) == cv(0, 0, d(0), d(0), 1, 0)
    assert phi_hat(g1, sky) == cv(0, 0, d(0), d(0), 1, 0)


def test_structure_sheaf_image(g1):
    v = ChernVector.unit(1)
    assert phi(g1, v) == cv(0, -1, d(0), d(Fraction(1, 2)), 0, Fraction(-1, 6))


def test_zero_maps_to_zero(g2):
    z = ChernVector.zero(2)
    assert phi(g2, z) == z
    assert phi_hat(g2, z) == z


def test_involution_on_structure_sheaf():
    for h in H_SET:
        g = geometry_for(h)
        v = ChernVector.unit(1)
        assert phi_hat(g, phi(g, v)) == -v


def test_involution_random():
    rng = random.Random(3)
    for h in H_SET:
        for rank2 in (False, True):
            g = geometry_for(h, rank2)
            for _ in range(150):
                v = _rand_vector(rng, g.rank)
                assert phi_hat(g, phi(g, v)) == -v
                assert phi(g, phi_hat(g, v)) == -v


def test_linearity():
    rng = random.Random(4)
    g = geometry_for(Fraction(-1), rank2=True)
    for _ in range(50):
        v1, v2 = _rand_vector(rng, 2), _rand_vector(rng, 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert phi(g, v1 + v2) == phi(g, v1) + phi(g, v2)
        assert phi(g, v1.scale(c)) == phi(g, v1).scale(c)
        assert phi_hat(g, v1 + v2) == phi_hat(g, v1) + phi_hat(g, v2)


def test_h_zero_is_pure_row_swap():
    rng = random.Random(5)
    g = geometry_for(Fraction(0))
    for _ in range(100):
        v = _rand_vector(rng, 1)
        out = phi(g, v)
        assert out == ChernVector(v.x, -v.n, v.eta, -v.S, v.s, -v.a)


class TestSwapRule:
    def test_fiber_vector(self, g1):
        v = cv(0, 0, d(0), d(0), 2, 3)
        assert fiber_swap_rule(g1, v) == cv(0, 0, d(0), d(0), 3, -2)

    def test_one_dimensional_vector(self, g1):
        v = cv(0, 0, d(0), d(1), 1, 2)
        assert fiber_swap_rule(g1, v) == cv(0, 0, d(1), d(0), 2, -1)

    def test_rejects_nonzero_rank(self, g1):
        with pytest.raises(DomainError):
            fiber_swap_rule(g1, ChernVector.unit(1))
        with pytest.raises(DomainError):
            fiber_swap_rule(g1, cv(0, 1, d(0), d(0), 0, 0))

    def test_composition_negates(self, g0):
        rng = random.Random(25)
        for _ in range(50):
            v = cv(0, 0, d(0), d(Fraction(rng.randint(-4, 4))), Fraction(rng.randint(-4, 4)),
                   Fraction(rng.randint(-4, 4)))
            assert fiber_swap_rule(g0, fiber_swap_rule(g0, v)) == -v

    def test_integer_path_matches_the_field_path(self):
        """On vectors of Fractions, constructor-made or produced, the
        permuted numerators give the constructor-made field result in
        value, scalar types, hash and repr."""
        rng = random.Random(26)
        for g in fresh_geometries():
            for _ in range(20):
                w = _rand_vector(rng, g.rank)
                flat = ChernVector(0, 0, w.S, w.eta, w.a, w.s)
                for v in (flat, twist(g, flat, DivisorX.pullback(_rand_divisor(rng, g.rank))),
                          ChernVector.zero(g.rank)):
                    want = ChernVector(0, 0, v.eta, -v.S, v.s, -v.a)
                    got = fiber_swap_rule(g, v)
                    assert set(got.__dict__) == {"_nums", "_den"}
                    assert shape(got) == shape(want)
                    assert hash(got) == hash(want) and repr(got) == repr(want)
                poly = ChernVector._ints([Poly2.const(c) for c in flat.coordinates()], 1)
                assert fiber_swap_rule(g, poly) == fiber_swap_rule(g, flat)
                with pytest.raises(DomainError):
                    fiber_swap_rule(g, ChernVector._ints([Poly2.u()] + list(flat.coordinates())[1:], 1))

    def test_numerators_match_the_field_path_at_every_scalar(self):
        """The signed permutation of the numerators is the field formula
        the other scalars took, in value, type and hash, and refuses the
        same classes."""
        rng = random.Random(27)
        floored = LaurentSeries([(1, 2), (-1, 1)], -3)
        for g in fresh_geometries():
            r = g.rank
            for _ in range(10):
                w = _rand_vector(rng, r)
                tail = list(ChernVector(0, 0, w.S, w.eta, w.a, w.s).coordinates())[2:]
                poly = [Poly2({(rng.randint(0, 2), 1): c}) for c in tail]
                mixed = [c if rng.random() < 0.5 else Poly2.const(c) for c in tail]
                series = [c if rng.random() < 0.5 else floored * c for c in tail]
                for zeros in ((Fraction(0),) * 2, (Poly2(),) * 2):
                    for flat in (poly, mixed, series):
                        v = ChernVector._ints([*zeros, *flat], 1)
                        want = _reference_swap(v)
                        got = fiber_swap_rule(g, v)
                        assert [(type(c), c, hash(c)) for c in got.coordinates()] == \
                               [(type(c), c, hash(c)) for c in want.coordinates()]
                for head in ((Poly2.u(), 0), (0, floored), (Fraction(1, 2), Poly2())):
                    with pytest.raises(DomainError):
                        fiber_swap_rule(g, ChernVector._ints([*head, *poly], 1))

    def test_agrees_with_transform_then_twist(self):
        rng = random.Random(6)
        for h in H_SET:
            for rank2 in (False, True):
                g = geometry_for(h, rank2)
                for _ in range(60):
                    w = _rand_vector(rng, g.rank)
                    w = ChernVector(0, 0, w.S, w.eta, w.a, w.s)
                    dd = _rand_divisor(rng, g.rank)
                    dbar = dd - g.hb_divisor.scale(g.h / 2)
                    lhs = fiber_swap_rule(g, twist(g, w, DivisorX.pullback(dbar)))
                    rhs = twist(g, phi(g, w), DivisorX.pullback(dd))
                    assert lhs == rhs


def _germs(v):
    """The coordinates as series, a number as its exact constant series:
    no series equals a number, and where the closed form adds a series
    zero times a coefficient to a Fraction the matrix has the Fraction."""
    return [c if type(c) is LaurentSeries else LaurentSeries.const(c) for c in v.coordinates()]


def _reference_swap(tw):
    """The field formula the swap rule took on vectors not all Fraction."""
    if tw.n != 0 or tw.x != 0:
        raise DomainError("swap rule requires a fiber-degree-trivial class (n = x = 0)")
    return ChernVector(0, 0, tw.eta, -tw.S, tw.s, -tw.a)


def _reference_matrix(g, closed):
    """The basis-vector build that the Poly2 read-off replaced: the closed form
    at each of the 2r + 4 basis vectors gives one column."""
    dim = 2 * g.rank + 4
    basis = ([Fraction(int(i == j)) for i in range(dim)] for j in range(dim))
    cols = [closed(g, ChernVector._ints(e, 1)).coordinates() for e in basis]
    den = lcm(*(c.denominator for col in cols for c in col))
    rows = [[(j, int(col[i] * den)) for j, col in enumerate(cols) if col[i]] for i in range(dim)]
    return rows, den


# Each transform's table writer and the closed form it replaced
# (``conftest._reference_phi``, ``_reference_phi_hat``), its public map, and
# the keys under which ``ring._kept`` holds the two tables.
WRITERS = ((fmt._phi_table, _reference_phi), (fmt._phi_hat_table, _reference_phi_hat))
TRANSFORMS = ((phi, _reference_phi), (phi_hat, _reference_phi_hat))
KEPT = {(fmt._phi_table, ()), (fmt._phi_hat_table, ())}


def _assert_as_closed_form(got, want):
    """``got`` is ``want`` coordinate by coordinate in value, hash and type,
    but for the declared difference of the module docstring: a coordinate
    that only zero coordinates reach is the Fraction zero where the closed
    form has a Poly2 zero."""
    for c, w in zip(got.coordinates(), want.coordinates()):
        if type(w) is Poly2 and w == 0 and type(c) is not Poly2:
            assert c is ring._ZERO
        else:
            assert (type(c), c, hash(c)) == (type(w), w, hash(w))


class TestMatrixPath:
    def test_tables_are_the_reference_reader_s(self):
        """Each written table is, entry for entry, with the same denominator
        and width, the matrix that ``_reference_read_matrix`` reads off its
        closed form and the table that ``_reference_transform_table`` reads
        off it at ``Poly2`` monomials, on lattices with fractional gram and
        hb and of signature (1, 1) too; so is the a3 row."""
        for g in table_geometries():
            for writer, closed in WRITERS:
                rows, den = _reference_read_matrix(g, closed)
                ref = as_table([[(i, 0, c) for i, c in row] for row in rows], den, len(rows))
                assert table_sets(ring._kept(g, writer)) == ref
                assert table_sets(writer(g)) == table_sets(_reference_transform_table(g, closed))
            assert table_sets(ring._kept(g, fmt._a3_table)) == table_sets(_reference_a3_table(g))

    def test_a_cold_build_makes_no_poly2(self, monkeypatch):
        """The writers read the lattice's data alone: building each table
        on a fresh geometry constructs no ``Poly2`` (counted at
        ``Poly2._store``)."""
        built = []
        original = Poly2._store
        monkeypatch.setattr(Poly2, "_store", lambda self, *form: built.append(1) or original(self, *form))
        for g in table_geometries():
            for writer in (fmt._phi_table, fmt._phi_hat_table, fmt._a3_table):
                ring._kept(g, writer)
        assert built == []

    def test_transforms_equal_the_reference_applier(self):
        """Equal in value and hash to ``_reference_matrix_apply``, the row
        sums the table replaced, at Fraction, Poly2 and series scalars; the
        type differs only where the declared difference allows it."""
        rng = random.Random(12)
        for g in fresh_geometries():
            for w in sample_vectors(rng, g.rank):
                flat = w.coordinates()
                poly2 = ChernVector._ints([Poly2({(rng.randint(0, 2), 1): c}) for c in flat], 1)
                series = ChernVector._ints([LaurentSeries([(rng.randint(-2, 2), c)], -3) for c in flat], 1)
                for v in (w, poly2, series):
                    for transform, closed in TRANSFORMS:
                        got, want = transform(g, v), _reference_matrix_apply(g, v, closed)
                        assert got == want and hash(got) == hash(want)
                        for c, x in zip(got.coordinates(), want.coordinates()):
                            assert type(c) is type(x) or (c is ring._ZERO and type(x) is Poly2)

    def test_read_off_equals_the_basis_vector_build(self):
        for g in fresh_geometries():
            phi(g, ChernVector.zero(g.rank))
            phi_hat(g, ChernVector.zero(g.rank))
            for writer, closed in WRITERS:
                ref_rows, ref_den = _reference_matrix(g, closed)
                ref = [[(i, 0, c) for i, c in row] for row in ref_rows]
                assert table_sets(ring._kept(g, writer)) == as_table(ref, ref_den, len(ref))

    def test_equals_closed_forms_in_value_and_type(self):
        rng = random.Random(8)
        for g in fresh_geometries():
            for v in sample_vectors(rng, g.rank):
                assert shape(phi(g, v)) == shape(_reference_phi(g, v))
                assert shape(phi_hat(g, v)) == shape(_reference_phi_hat(g, v))
            assert set(g.matrices) == KEPT

    def test_zero_rows_are_the_shared_zero(self):
        rng = random.Random(9)
        zeros = 0
        for g in fresh_geometries():
            for v in sample_vectors(rng, g.rank):
                for out in (phi(g, v), phi_hat(g, v)):
                    for x in out.coordinates():
                        assert x != 0 or x is ring._ZERO
                        zeros += x == 0
        assert zeros >= 100, zeros

    def test_matrices_compose_to_minus_identity(self):
        """The two written tables, each from its own sign pattern, compose
        to minus the identity in either order, on every fresh geometry and
        on the lattices of ``table_geometries``."""
        for g in fresh_geometries() + table_geometries():
            dim = 2 * g.rank + 4
            phi(g, ChernVector.zero(g.rank))
            phi_hat(g, ChernVector.zero(g.rank))
            dense = {}
            for closed, _ in WRITERS:
                rows, den, _ = ring._kept(g, closed)
                m = [[Fraction(0)] * dim for _ in range(dim)]
                for j, row in enumerate(rows):
                    for _, i, entry in row:
                        m[i][j] = Fraction(entry, den)
                dense[closed] = m
            for first, second in ((fmt._phi_table, fmt._phi_hat_table), (fmt._phi_hat_table, fmt._phi_table)):
                a, b = dense[second], dense[first]
                product = [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
                           for i in range(dim)]
                assert product == [[-int(i == j) for j in range(dim)] for i in range(dim)]

    def test_poly2_coordinates_take_the_matrix(self):
        """Poly2 coordinates go through the table, as Fractions do, and give
        the closed form in value, type and hash, but for the declared
        difference (``_assert_as_closed_form``)."""
        for g in fresh_geometries():
            z = DivisorB.zero(g.rank)
            v = ChernVector(Poly2.u(), Poly2.const(1), DivisorB([Poly2.v()] * g.rank), z.scale(Poly2.u()),
                            Poly2.const(Fraction(1, 2)), Poly2())
            for transform, closed in TRANSFORMS:
                _assert_as_closed_form(transform(g, v), closed(g, v))
            assert set(g.matrices) == KEPT

    def test_equals_closed_forms_at_every_scalar(self):
        """The table gives the closed form's value at every scalar, and its
        type and hash on vectors all of Poly2 (zeros included), but for the
        declared difference.  On a vector that mixes Fraction and Poly2 a
        coordinate can be a Fraction where the closed form's zero terms made
        a Poly2."""
        rng = random.Random(10)

        def poly2(c):
            return Poly2({(rng.randint(0, 2), rng.randint(0, 2)): c, (0, 0): rng.choice((0, c))})

        def series(c):
            return LaurentSeries([(rng.randint(-2, 2), c), (-1, 1)], rng.choice((-4, -2, None)))

        for g in fresh_geometries():
            for w in sample_vectors(rng, g.rank):
                flat = w.coordinates()
                all_poly2 = ChernVector._ints([poly2(c) for c in flat], 1)
                mixed = ChernVector._ints([c if rng.random() < 0.5 else poly2(c) for c in flat], 1)
                truncated = ChernVector._ints([c if rng.random() < 0.3 else series(c) for c in flat], 1)
                for transform, closed in TRANSFORMS:
                    _assert_as_closed_form(transform(g, all_poly2), closed(g, all_poly2))
                    assert list(transform(g, mixed).coordinates()) == list(closed(g, mixed).coordinates())
                    assert _germs(transform(g, truncated)) == _germs(closed(g, truncated))

    def test_rank_mismatch_raises(self):
        g = BaseGeometry(1, [[1]], [1], -1)
        for v in (ChernVector.zero(2), ChernVector(Poly2.u(), 0, DivisorB([0, 0]), DivisorB([0, 0]), 0, 0)):
            for transform in (phi, phi_hat):
                with pytest.raises(DimensionError):
                    transform(g, v)

    def test_matrix_is_built_without_the_public_transforms(self, monkeypatch):
        """A traced call count of phi and phi_hat sees only the caller's calls."""
        calls = []
        for name in ("phi", "phi_hat"):
            original = getattr(fmt, name)
            monkeypatch.setattr(fmt, name, lambda g, v, f=original, n=name: calls.append(n) or f(g, v))
        g = BaseGeometry(2, [[2, 3], [3, -1]], [1, 2], Fraction(-3, 2), 0, 1)
        v = _rand_vector(random.Random(9), 2)
        fmt.phi_hat(g, fmt.phi(g, v))
        assert calls == ["phi", "phi_hat"]
        assert set(g.matrices) == KEPT


def test_geometry_for_shares_one_object_per_geometry():
    assert geometry_for(0) is geometry_for(Fraction(0))
    assert geometry_for(Fraction(1, 2), True) is geometry_for(Fraction(1, 2), rank2=True)
    assert geometry_for(0) is not geometry_for(1)
    assert geometry_for(0) is not geometry_for(0, rank2=True)
