"""Transform closed forms, involution, linearity and the swap rule."""

import random
from fractions import Fraction

import pytest

from ellstab import fmt
from ellstab.errors import DimensionError, DomainError
from ellstab.fmt import fiber_swap_rule, phi, phi_hat
from ellstab.poly import Poly2
from ellstab.ring import BaseGeometry, ChernVector, DivisorB, DivisorX, twist
from ellstab.suites import geometry_for, _rand_divisor, _rand_vector

from conftest import cv, d


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


def _matrix_geometries():
    """Fresh geometries, so each test builds their matrices itself: ranks 1
    and 2 at five values of h, and a rank-2 lattice whose hb is no basis
    vector."""
    out = [BaseGeometry(r, gram, hb, h, 0, 1 if h + 2 > 0 else -h)
           for h in (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1, 3))
           for r, gram, hb in ((1, [[1]], [1]), (2, [[2, 1], [1, 3]], [1, 0]))]
    out.append(BaseGeometry(2, [[2, 3], [3, -1]], [1, 2], Fraction(-3, 2), 0, 1))
    return out


def _vectors(rng, rank):
    z = DivisorB.zero(rank)
    yield ChernVector.zero(rank)
    yield ChernVector(3, -2, DivisorB(range(1, rank + 1)), z, 5, 0)
    eta = DivisorB([Fraction(-5, 12)] * rank)
    yield ChernVector(Fraction(1, 7), 0, z, eta, Fraction(9, 4), Fraction(1, 9))
    for _ in range(40):
        yield _rand_vector(rng, rank)


def _shape(v):
    return [(type(c), c) for c in v.coordinates()]


class TestMatrixPath:
    def test_equals_closed_forms_in_value_and_type(self):
        rng = random.Random(8)
        for g in _matrix_geometries():
            for v in _vectors(rng, g.rank):
                assert _shape(phi(g, v)) == _shape(fmt._phi(g, v))
                assert _shape(phi_hat(g, v)) == _shape(fmt._phi_hat(g, v))
            assert fmt._phi in g.matrices and fmt._phi_hat in g.matrices

    def test_matrices_compose_to_minus_identity(self):
        for g in _matrix_geometries():
            dim = 2 * g.rank + 4
            phi(g, ChernVector.zero(g.rank))
            phi_hat(g, ChernVector.zero(g.rank))
            dense = {}
            for closed in (fmt._phi, fmt._phi_hat):
                rows, den = g.matrices[closed]
                m = [[Fraction(0)] * dim for _ in range(dim)]
                for i, row in enumerate(rows):
                    for j, entry in row:
                        m[i][j] = Fraction(entry, den)
                dense[closed] = m
            for first, second in ((fmt._phi, fmt._phi_hat), (fmt._phi_hat, fmt._phi)):
                a, b = dense[second], dense[first]
                product = [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
                           for i in range(dim)]
                assert product == [[-int(i == j) for j in range(dim)] for i in range(dim)]

    def test_poly2_coordinates_take_the_closed_form(self):
        for g in _matrix_geometries():
            z = DivisorB.zero(g.rank)
            v = ChernVector(Poly2.u(), 1, DivisorB([Poly2.v()] * g.rank), z, Fraction(1, 2), 0)
            assert _shape(phi(g, v)) == _shape(fmt._phi(g, v))
            assert _shape(phi_hat(g, v)) == _shape(fmt._phi_hat(g, v))
            assert not g.matrices

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
        assert set(g.matrices) == {fmt._phi, fmt._phi_hat}


def test_geometry_for_shares_one_object_per_geometry():
    assert geometry_for(0) is geometry_for(Fraction(0))
    assert geometry_for(Fraction(1, 2), True) is geometry_for(Fraction(1, 2), rank2=True)
    assert geometry_for(0) is not geometry_for(1)
    assert geometry_for(0) is not geometry_for(0, rank2=True)
