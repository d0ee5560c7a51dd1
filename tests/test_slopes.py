"""Slope kinds: examples, infinity conventions, decomposition identities."""

import random
from fractions import Fraction

import pytest

from ellstab import ring, slopes
from ellstab.charges import _germ_numerators, _reduced_numerators, _ring_parts
from ellstab.errors import ConfigurationError, DimensionError, DomainError
from ellstab.poly import Poly2
from ellstab.ring import (BaseGeometry, ChernVector, DivisorB, DivisorX, _divided, compute_m, degree,
                          divisor_powers, divisor_vector, mul, pair, twist)
from ellstab.slopes import SlopeKind, SlopeTag, SlopeValue, slope
from ellstab.suites import geometry_for, _rand_vector

from conftest import cv, d, fresh_geometries


def test_mu_f(g1):
    v = cv(2, 3, d(1), d(0), 0, 0)
    assert slope(g1, SlopeKind(SlopeTag.MU_F), v) == SlopeValue(Fraction(3, 2))


def test_mu_f_infinity(g1):
    v = cv(0, 3, d(0), d(0), 0, 0)
    assert slope(g1, SlopeKind(SlopeTag.MU_F), v).is_infinite


def test_mu_star_b_closed_form(g1):
    v = cv(0, 0, d(0), d(2), 7, 5)
    assert slope(g1, SlopeKind.mu_star_b(), v) == SlopeValue(Fraction(2))


def test_mu_star_b_equals_quotient_plus_shift():
    rng = random.Random(7)
    for h in (Fraction(-1), Fraction(0), Fraction(1, 2)):
        g = geometry_for(h)
        for _ in range(60):
            eta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            v = cv(0, 0, d(0), d(eta), Fraction(rng.randint(-5, 5)), s)
            got = slope(g, SlopeKind.mu_star_b(), v)
            heta = pair(g, g.hb_divisor, v.eta)
            assert got == SlopeValue(Fraction(s / heta + h / 2))


def test_mu_star_infinity_on_fiber(g1):
    v = cv(0, 0, d(0), d(0), 1, 3)
    assert slope(g1, SlopeKind(SlopeTag.MU_STAR), v).is_infinite


class TestComputeM:
    def test_examples(self):
        assert compute_m(BaseGeometry(1, [[1]], [1], -1, 0, 1)) == 1
        assert compute_m(BaseGeometry(1, [[2]], [1], 0, 0, 1)) == 1
        assert compute_m(BaseGeometry(1, [[1]], [1], 0, 0, 3)) == Fraction(3, 2)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            BaseGeometry(1, [[1]], [1], -3, 0, 1)


class TestFiberNumeric:
    def test_agrees_with_infinite_slope(self):
        rng = random.Random(8)
        g = geometry_for(Fraction(-1))
        for _ in range(1000):
            eta = d(Fraction(rng.randint(0, 4)))
            v = cv(0, 0, d(0), eta, Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
            fiberish = v.eta.is_zero()
            infinite = slope(g, SlopeKind.mu_star_b(), v).is_infinite
            assert fiberish == infinite


class TestOrdering:
    def test_infinity_tops(self):
        inf, one = SlopeValue.infinity(), SlopeValue(Fraction(1))
        assert one < inf
        assert not inf < one
        assert inf == SlopeValue.infinity()
        assert inf <= SlopeValue.infinity()


class TestDecompositions:
    def test_slope_decomposition_on_total_space(self):
        """w-slope splits into the section-slope and fiber-slope pieces."""
        rng = random.Random(9)
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2)):
            g = geometry_for(h)
            m = compute_m(g)
            for _ in range(120):
                v = _rand_vector(rng, 1)
                if v.n == 0:
                    continue
                u = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                vp = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                om = DivisorX(u, g.hb_divisor.scale(vp))
                zero_b = DivisorX(0, g.zero_divisor())
                mu_om = slope(g, SlopeKind.mu_omega_b(om, zero_b), v).finite
                mu_tm = slope(g, SlopeKind(SlopeTag.MU_THETA_M), v).finite
                mu_f = slope(g, SlopeKind(SlopeTag.MU_F), v).finite
                coeff = u * (h * u + 2 * vp)
                assert mu_om == coeff * mu_tm + (vp * vp * g.hb2 - coeff * m) * mu_f

    def test_slope_decomposition_on_vertical_classes(self):
        rng = random.Random(10)
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2)):
            g = geometry_for(h)
            m = compute_m(g)
            for _ in range(120):
                v = _rand_vector(rng, 1)
                v = ChernVector(0, 0, v.S, v.eta, v.a, v.s)
                dd = d(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                if pair(g, g.hb_divisor, v.S) == 0:
                    continue
                u = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                vp = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                coeff = u * (h * u + 2 * vp)
                if coeff == 0:
                    continue
                om = DivisorX(u, g.hb_divisor.scale(vp))
                lhs = slope(g, SlopeKind(SlopeTag.MU_OMEGA_PD, omega=om, d=dd), v).finite
                mu_tm = slope(g, SlopeKind(SlopeTag.MU_THETA_MPHB_PD, d=dd), v).finite
                mu_ph = slope(g, SlopeKind(SlopeTag.MU_PHB_PD, d=dd), v).finite
                assert coeff * lhs == u * mu_tm + (vp - m * u) * mu_ph

    def test_bfield_shift(self):
        rng = random.Random(11)
        g = geometry_for(Fraction(1, 2), rank2=True)
        from ellstab.ring import divisor_vector, mul

        for _ in range(80):
            v = _rand_vector(rng, 2)
            if v.n == 0:
                continue
            u = Fraction(rng.randint(1, 5))
            vp = Fraction(rng.randint(1, 5))
            om = DivisorX(u, g.hb_divisor.scale(vp))
            bfield = DivisorX(
                Fraction(rng.randint(-3, 3)),
                DivisorB([Fraction(rng.randint(-3, 3)) for _ in range(2)]),
            )
            zero_b = DivisorX(0, g.zero_divisor())
            lhs = slope(g, SlopeKind.mu_omega_b(om, bfield), v).finite
            rhs = slope(g, SlopeKind.mu_omega_b(om, zero_b), v).finite
            omv = divisor_vector(g, om)
            om2b = mul(g, mul(g, omv, omv), divisor_vector(g, bfield)).s
            assert lhs == rhs - om2b

    def test_nu_omega_b_is_the_reduced_charge_ratio_of_the_twisted_class(self):
        """nu = Im / (2 Re) of the reduced charge of the B-twisted class, its
        closed form taken at omega = u Theta + v pull(H); +inf where Re = 0."""
        rng = random.Random(14)
        for h in (Fraction(-1), Fraction(1, 2)):
            g = geometry_for(h, rank2=True)
            for _ in range(60):
                v = _rand_vector(rng, 2)
                if rng.random() < 0.2:
                    v = ChernVector(v.n, 0, DivisorB.zero(2), v.eta, v.a, v.s)
                u, vp = Fraction(rng.randint(1, 5), 2), Fraction(rng.randint(1, 5))
                bfield = DivisorX(Fraction(rng.randint(-3, 3), 2),
                                  DivisorB([Fraction(rng.randint(-3, 3)) for _ in range(2)]))
                re, im = (_divided(*part) for part in
                          _reduced_numerators(g, twist(g, v, bfield), _germ_numerators(g.h, u, vp)))
                kind = SlopeKind(SlopeTag.NU_OMEGA_B, omega=DivisorX(u, g.hb_divisor.scale(vp)), bfield=bfield)
                nu = slope(g, kind, v)
                assert nu == (SlopeValue.infinity() if re == 0 else SlopeValue(im / (2 * re)))

    def test_kind_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            SlopeKind(SlopeTag.MU_F, d=DivisorB([1]))
        with pytest.raises(ConfigurationError):
            SlopeKind.mu_bar(None, None)


def _reference_slope(g, kind, v):
    """``slope`` as written before its fixed classes were kept on the
    geometry: each built through the coercing constructor on every call,
    and every kind with a field twisting v."""
    tag, hb, z = kind.tag, g.hb_divisor, g.zero_divisor()

    def ratio(num, den):
        return SlopeValue.infinity() if den == 0 else SlopeValue(Fraction(num) / Fraction(den))

    if tag is SlopeTag.MU_F:
        return ratio(degree(g, ChernVector(0, 0, z, z, 1, 0), v), v.n)
    if tag is SlopeTag.MU_THETA_M:
        return ratio(degree(g, ChernVector(0, 0, z, hb, compute_m(g), 0), v), v.n)
    if tag is SlopeTag.MU_OMEGA_B:
        tw = twist(g, v, kind.bfield)
        om = divisor_vector(g, kind.omega)
        return ratio(degree(g, mul(g, om, om), tw), tw.n)
    if tag is SlopeTag.NU_OMEGA_B:
        (re, re_den), (im, im_den) = _ring_parts(g, twist(g, v, kind.bfield), divisor_powers(g, kind.omega))
        return ratio(Fraction(im, im_den), 2 * Fraction(re, re_den))
    if tag is SlopeTag.MU_STAR:
        return ratio(v.s, degree(g, ChernVector(0, 0, hb, z, 0, 0), v))
    if tag is SlopeTag.MU_STAR_B:
        tw = twist(g, v, g.half_canonical_bfield())
        return ratio(tw.s, degree(g, ChernVector(0, 0, hb, z, 0, 0), tw))
    if tag is SlopeTag.MU_BAR:
        tw = twist(g, v, DivisorX.pullback(kind.dbar))
        return ratio(tw.s, degree(g, ChernVector(0, kind.omegabar.theta, kind.omegabar.base, z, 0, 0), tw))
    tw = twist(g, v, DivisorX.pullback(kind.d))
    if tag is SlopeTag.MU_OMEGA_PD:
        om = divisor_vector(g, kind.omega)
        return ratio(degree(g, om, tw), degree(g, mul(g, om, om), tw))
    den = degree(g, ChernVector(0, 0, z, hb, 0, 0), tw)
    if tag is SlopeTag.MU_PHB_PD:
        return ratio(degree(g, ChernVector(0, 0, hb, z, 0, 0), tw), den)
    return ratio(degree(g, ChernVector(0, 1, hb.scale(compute_m(g)), z, 0, 0), tw), den)


def _every_kind(rng, g):
    """One kind of each tag, its parameters drawn at random on g."""
    r = g.rank
    dd = DivisorB([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)])
    ob = DivisorX(Fraction(rng.randint(1, 4)), g.hb_divisor.scale(rng.randint(1, 4)))
    bfield = DivisorX(Fraction(rng.randint(-3, 3), 2), DivisorB([Fraction(rng.randint(-3, 3)) for _ in range(r)]))
    kinds = (SlopeKind.mu_omega_b(ob, bfield), SlopeKind(SlopeTag.NU_OMEGA_B, omega=ob, bfield=bfield),
             SlopeKind(SlopeTag.MU_F), SlopeKind(SlopeTag.MU_THETA_M), SlopeKind(SlopeTag.MU_STAR),
             SlopeKind.mu_star_b(), SlopeKind.mu_bar(ob, dd), SlopeKind(SlopeTag.MU_PHB_PD, d=dd),
             SlopeKind(SlopeTag.MU_THETA_MPHB_PD, d=dd), SlopeKind(SlopeTag.MU_OMEGA_PD, omega=ob, d=dd))
    assert {k.tag for k in kinds} == set(SlopeTag)
    return kinds


_PARAMETERLESS = [tag for tag in SlopeTag if not slopes.SLOPE_PARAMETERS[tag]]


class TestFixedClasses:
    """The classes that depend on g alone are numerators kept on g."""

    def test_slopes_equal_the_coercing_constructors(self):
        """Every kind, against the twisting reference, in value and in the
        type and form of ``finite``: random classes of ranks 1 and 2, the
        zero class and classes on which a kind's pairings vanish (infinite
        slopes)."""
        rng = random.Random(15)
        infinite = 0
        for g in fresh_geometries():
            r = g.rank
            z = DivisorB.zero(r)
            special = [ChernVector.zero(r), ChernVector(0, 0, z, z, 1, 3), ChernVector(0, 0, z, z, 0, 2),
                       ChernVector(0, 1, z, z, 0, 0)]
            for v in special + [_rand_vector(rng, r) for _ in range(30)]:
                for kind in _every_kind(rng, g):  # fresh parameters for every class
                    got, want = slope(g, kind, v), _reference_slope(g, kind, v)
                    assert (got, type(got.finite)) == (want, type(want.finite)), (g, kind, v)
                    infinite += got.is_infinite
                    if not got.is_infinite:
                        assert (got.finite.numerator, got.finite.denominator) == (
                            want.finite.numerator, want.finite.denominator)
        assert infinite

    def test_each_is_built_once_per_geometry(self):
        g = BaseGeometry(2, [[2, 1], [1, 3]], [1, 0], Fraction(1, 2))
        v = _rand_vector(random.Random(16), 2)
        for kind in (SlopeKind(SlopeTag.MU_F), SlopeKind(SlopeTag.MU_THETA_M), SlopeKind(SlopeTag.MU_STAR),
                     SlopeKind.mu_star_b(), SlopeKind(SlopeTag.MU_THETA_MPHB_PD, d=DivisorB([1, 2]))):
            slope(g, kind, v)
        kept = {key[0]: value for key, value in g.matrices.items() if key[0] in slopes._FIXED.values()}
        assert len(kept) == len(slopes._FIXED)
        for name, build in slopes._FIXED.items():
            assert slopes._fixed(g, name) is kept[build] == build(g)
        z, hb, m = g.zero_divisor(), g.hb_divisor, compute_m(g)
        assert slopes._fixed(g, "unit") == ChernVector.unit(2)
        assert slopes._fixed(g, "point") == ChernVector(0, 0, z, z, 0, 1)
        assert slopes._fixed(g, "theta_phb_m") == ChernVector(0, 0, z, hb, m, 0)
        assert slopes._fixed(g, "theta_m") == ChernVector(0, 1, hb.scale(m), z, 0, 0)
        exp_half = ring._kept(g, ring._half_canonical_exp)
        assert exp_half is g.matrices[ring._half_canonical_exp, ()]
        assert exp_half == twist(g, ChernVector.unit(2), g.half_canonical_bfield())
        for tag in _PARAMETERLESS:  # their pairs, kept on g
            build = slopes._PAIRS[tag]
            assert g.matrices[build, (None,)] == build(g, None)

    def test_the_half_canonical_field_and_its_exp_are_built_once(self, monkeypatch):
        """``half_canonical_bfield`` is kept on g, and a MU_OMEGA_B kind at
        that field (the same object or an equal one) reads the kept exp(-B),
        with no ``_exp_minus``; another field still builds its own."""
        g = BaseGeometry(2, [[2, 1], [1, 3]], [1, 0], Fraction(-3, 2))
        half = g.half_canonical_bfield()
        assert half is g.half_canonical_bfield()
        assert half == DivisorX(0, g.hb_divisor.scale(Fraction(3, 4)))
        rng = random.Random(17)
        vs = [_rand_vector(rng, 2) for _ in range(5)]
        omega = DivisorX(2, g.hb_divisor.scale(3))
        built, original = [], slopes._exp_minus
        monkeypatch.setattr(slopes, "_exp_minus", lambda g, B: built.append(B) or original(g, B))
        for B in (half, DivisorX(0, DivisorB([Fraction(3, 4), 0]))):
            kind = SlopeKind.mu_omega_b(omega, B)
            for v in vs:
                assert slope(g, kind, v) == _reference_slope(g, kind, v)
        assert built == []
        other = SlopeKind.mu_omega_b(omega, DivisorX(1, g.hb_divisor))
        for v in vs:
            assert slope(g, other, v) == _reference_slope(g, other, v)
        assert built == [other.bfield]

    def test_a_kind_that_needs_no_m_is_untouched_by_a_bad_m(self):
        """m is read only by the kinds that pair with it, as before."""
        g = BaseGeometry(1, [[1]], [1], 1, -1, 0)  # m0 = 0: m = 0
        v = ChernVector(1, 0, DivisorB([1]), DivisorB([2]), 3, 4)
        mu_star = SlopeKind(SlopeTag.MU_STAR)
        assert slope(g, mu_star, v) == _reference_slope(g, mu_star, v)
        with pytest.raises(ConfigurationError):
            slope(g, SlopeKind(SlopeTag.MU_THETA_M), v)


class TestTwoPointPairings:
    """Each kind is two point pairings with classes built once per (g, kind)."""

    def test_a_parameterized_kind_builds_its_classes_once(self, monkeypatch):
        rng = random.Random(17)
        g = BaseGeometry(2, [[2, 1], [1, 3]], [1, 0], Fraction(1, 2))
        v, w = _rand_vector(rng, 2), _rand_vector(rng, 2)
        products = []
        original = slopes.mul
        monkeypatch.setattr(slopes, "mul", lambda *args: products.append(1) or original(*args))
        for kind in _every_kind(rng, g):
            if kind.tag in _PARAMETERLESS:
                continue
            products.clear()
            first = slope(g, kind, v)
            assert products, kind.tag
            products.clear()
            assert (slope(g, kind, w), slope(g, kind, v)) == (_reference_slope(g, kind, w), first)
            assert products == [], kind.tag
            assert list(kind._classes) == [g]

    def test_a_parameterless_kind_runs_no_mul_after_its_first_use(self, monkeypatch):
        rng = random.Random(18)
        g = BaseGeometry(2, [[2, 1], [1, 3]], [1, 0], Fraction(-1))
        cases = [(SlopeKind(tag), _rand_vector(rng, 2)) for tag in _PARAMETERLESS for _ in range(3)]
        want = [_reference_slope(g, kind, v) for kind, v in cases]
        for tag in _PARAMETERLESS:
            slope(g, SlopeKind(tag), _rand_vector(rng, 2))

        def refuse(*args):
            raise AssertionError("a parameterless kind multiplied after its first use")

        monkeypatch.setattr(ring, "mul", refuse)
        monkeypatch.setattr(slopes, "mul", refuse)
        assert [slope(g, kind, v) for kind, v in cases] == want

    def test_no_slope_twists(self, monkeypatch):
        rng = random.Random(19)
        g = BaseGeometry(1, [[1]], [1], Fraction(-1))
        kinds = _every_kind(rng, g)
        vs = [_rand_vector(rng, 1) for _ in range(4)]
        want = [_reference_slope(g, kind, v) for kind in kinds for v in vs]

        def refuse(*args):
            raise AssertionError("a slope twisted a class")

        monkeypatch.setattr(ring, "twist", refuse)
        assert [slope(g, kind, v) for kind in kinds for v in vs] == want

    def test_a_class_that_is_not_rational_is_refused(self):
        g = BaseGeometry(1, [[1]], [1], Fraction(-1))
        z = DivisorB._raw((Poly2(),))
        v = ChernVector(Poly2.u(), 0, z, z, 0, 0)
        for kind in _every_kind(random.Random(20), g):
            with pytest.raises(DomainError, match="rational class"):
                slope(g, kind, v)
        with pytest.raises(DimensionError):
            slope(g, SlopeKind(SlopeTag.MU_F), ChernVector.unit(2))
