"""Theorem-level checks: heart conditions, positivity, identities,
threshold and correspondence biconditionals, h = 0 independence."""

import random
from fractions import Fraction

import pytest

from ellstab import suites
from ellstab.curves import TiltCurve
from ellstab.errors import DomainError
from ellstab.fmt import fiber_swap_rule
from ellstab.ring import ChernVector
from ellstab.suites import geometry_for, _rand_tilt, _rand_vector
from ellstab.verify import (
    ClassTag,
    NumericClass,
    h0_independence_check,
    heart_necessary,
    im_identity_check,
    im_identity_symbolic_remainders,
    onedim_transform_map,
    positivity_check,
    slope_correspondence_check,
    threshold_equiv_check,
)

from conftest import cv, d


class TestHeartNecessary:
    def test_bl_negative_degree_fails(self, g0):
        cls = NumericClass(ClassTag.BL_HEART)
        assert not heart_necessary(g0, cv(0, -1, d(0), d(0), 0, 0), cls)

    def test_bl_zero_vector_passes(self, g0):
        cls = NumericClass(ClassTag.BL_HEART)
        assert heart_necessary(g0, ChernVector.zero(1), cls)

    def test_bp_effective_eta_passes(self, g0):
        cls = NumericClass(ClassTag.BP_HEART, d=d(0))
        assert heart_necessary(g0, cv(0, 0, d(0), d(1), 0, 0), cls)

    def test_bp_rejects_nonzero_rank(self, g0):
        cls = NumericClass(ClassTag.BP_HEART, d=d(0))
        assert not heart_necessary(g0, ChernVector.unit(1), cls)

    def test_non_heart_tag_raises(self, g0):
        with pytest.raises(DomainError):
            heart_necessary(g0, ChernVector.zero(1), NumericClass(ClassTag.FIBER_SHEAF))

    def test_monotone_under_sums(self, g0):
        cls = NumericClass(ClassTag.BL_HEART)
        rng = random.Random(19)
        for _ in range(100):
            v1 = cv(0, Fraction(rng.randint(0, 5)), d(0), d(rng.randint(-3, 3)), 0, 0)
            v2 = cv(0, Fraction(rng.randint(0, 5)), d(0), d(rng.randint(-3, 3)), 0, 0)
            assert heart_necessary(g0, v1, cls) and heart_necessary(g0, v2, cls)
            assert heart_necessary(g0, v1 + v2, cls)


class TestPositivity:
    def test_examples(self, g0):
        assert positivity_check(g0, cv(1, -1, d(0), d(0), 0, 0), 3, 1)
        assert positivity_check(g0, cv(0, 0, d(1), d(1), 0, 0), 2, 0)
        assert not positivity_check(g0, cv(0, 0, d(0), d(0), 1, 0), 1, 0)

    def test_wit_zero_strict(self, g0):
        assert not positivity_check(g0, cv(1, 0, d(0), d(0), 0, 0), 3, 0)
        assert positivity_check(g0, cv(1, 0, d(0), d(0), 0, 0), 3, 1)

    def test_dimension_pattern_enforced(self, g0):
        with pytest.raises(DomainError):
            positivity_check(g0, cv(0, 0, d(0), d(0), 0, 1), 3, 1)
        with pytest.raises(DomainError):
            positivity_check(g0, cv(1, 0, d(0), d(0), 0, 1), 2, 1)
        with pytest.raises(DomainError):
            positivity_check(g0, cv(0, 0, d(0), d(1), 0, 1), 1, 1)

    def test_monotone_under_sums(self, g0):
        rng = random.Random(20)
        for _ in range(100):
            s1, s2 = (Fraction(rng.randint(1, 6)) for _ in range(2))
            v1 = cv(0, 0, d(0), d(0), Fraction(rng.randint(-3, 3)), s1)
            v2 = cv(0, 0, d(0), d(0), Fraction(rng.randint(-3, 3)), s2)
            assert positivity_check(g0, v1, 1, 0) and positivity_check(g0, v2, 1, 0)
            assert positivity_check(g0, v1 + v2, 1, 0)


class TestImIdentity:
    def test_curve_point(self, g0):
        c = TiltCurve(0, 1, 2)
        assert im_identity_check(g0, cv(1, 1, d(0), d(0), 0, 0), c, Fraction(1, 2), 4)

    def test_zero_input(self, g0):
        c = TiltCurve(0, 1, 2)
        assert im_identity_check(g0, ChernVector.zero(1), c, Fraction(1, 2), 4)

    def test_off_curve_fails_for_generic_input(self, g0):
        c = TiltCurve(0, 1, 2)
        e = cv(1, 1, d(1), d(0), 0, 0)
        assert im_identity_check(g0, e, c, Fraction(1, 2), 4)
        assert not im_identity_check(g0, e, c, Fraction(1, 2), 5)

    def test_exact_on_random_curve_points(self):
        rng = random.Random(21)
        g = geometry_for(0)
        for i in range(300):
            c = _rand_tilt(rng, Fraction(0))
            vpar = Fraction(rng.randint(2, 60), rng.randint(1, 4))
            u = (c.b / c.a) / vpar
            e = _rand_vector(rng, 1)
            if i % 3 == 0:
                e = ChernVector(e.n, 0, e.S, e.eta, e.a, e.s)
            if i % 3 == 1:
                e = ChernVector(e.n, -abs(e.x) - 1, e.S, e.eta, e.a, e.s)
            assert im_identity_check(g, e, c, u, vpar)

    def test_symbolic_all_h(self):
        rng = random.Random(22)
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2)):
            g = geometry_for(h)
            c = _rand_tilt(rng, h)
            for _ in range(8):
                e = _rand_vector(rng, 1)
                rems = im_identity_symbolic_remainders(g, e, c)
                assert all(r.is_zero() for r in rems)


class TestThreshold:
    def test_example(self, g1):
        c = TiltCurve(-1, 1, 2)
        t = cv(0, 0, d(0), d(1), 0, 0)
        e = cv(2, 1, d(0), d(0), 0, 0)
        assert threshold_equiv_check(g1, t, e, c)

    def test_scaling_invariance(self, g1):
        c = TiltCurve(-1, 1, 2)
        t = cv(0, 0, d(0), d(1), 0, 0)
        e = cv(2, 1, d(0), d(0), 0, 0)
        assert threshold_equiv_check(g1, t.scale(3), e, c)

    def test_boundary_instance(self, g1):
        # slope of t equals the threshold exactly: mu = s - 1/2 = -2/3
        c = TiltCurve(-1, 1, 2)
        t = cv(0, 0, d(0), d(1), 0, Fraction(-1, 6))
        e = cv(2, 1, d(0), d(0), 0, 0)
        assert threshold_equiv_check(g1, t, e, c)

    def test_preconditions(self, g1):
        c = TiltCurve(-1, 1, 2)
        with pytest.raises(DomainError):
            threshold_equiv_check(g1, cv(0, 0, d(0), d(0), 1, 0), ChernVector.unit(1), c)
        with pytest.raises(DomainError):
            threshold_equiv_check(g1, cv(0, 0, d(0), d(1), 0, 0), cv(0, 1, d(0), d(0), 0, 0), c)

    def test_randomized(self):
        rng = random.Random(23)
        for i in range(120):
            h = (Fraction(-1), Fraction(0), Fraction(1, 2))[i % 3]
            g = geometry_for(h)
            c = _rand_tilt(rng, h)
            t = cv(0, 0, d(0), d(Fraction(rng.randint(1, 5))), Fraction(rng.randint(-4, 4)),
                   Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            e = ChernVector(
                Fraction(rng.randint(1, 4)),
                Fraction(rng.randint(-4, 4)),
                d(Fraction(rng.randint(-4, 4))),
                d(Fraction(rng.randint(-4, 4))),
                Fraction(rng.randint(-4, 4)),
                Fraction(rng.randint(-4, 4)),
            )
            assert threshold_equiv_check(g, t, e, c)


class TestCorrespondence:
    def test_example(self, g0):
        m = cv(0, 0, d(0), d(1), 0, 1)
        n = cv(0, 0, d(0), d(1), 0, 2)
        assert slope_correspondence_check(g0, m, n, 1, 1, d(0))

    def test_equal_inputs(self, g0):
        m = cv(0, 0, d(0), d(1), 0, 1)
        assert slope_correspondence_check(g0, m, m, 1, 1, d(0))

    def test_randomized_both_h(self):
        rng = random.Random(24)
        from ellstab.suites import _rand_onedim_class

        for i in range(200):
            h = (Fraction(-1), Fraction(0))[i % 2]
            g = geometry_for(h)
            y, z = Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 4))
            if h + z / y <= 0:
                continue
            m = _rand_onedim_class(rng, g, y, z)
            n = _rand_onedim_class(rng, g, y, z)
            dbar = d(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
            assert slope_correspondence_check(g, m, n, y, z, dbar)


class TestH0Independence:
    def test_example(self, g0):
        m = cv(0, 0, d(1), d(0), 1, 0)
        n = cv(0, 0, d(1), d(0), 2, 0)
        assert h0_independence_check(g0, m, n, 1, 1, d(0))

    def test_equal_inputs(self, g0):
        m = cv(0, 0, d(1), d(0), 1, 0)
        assert h0_independence_check(g0, m, m, 1, 1, d(0))

    def test_rejects_nonzero_h(self, g1):
        m = cv(0, 0, d(1), d(0), 1, 0)
        with pytest.raises(DomainError):
            h0_independence_check(g1, m, m, 1, 1, d(0))

    def test_custom_samples(self, g0):
        m = cv(0, 0, d(1), d(0), 1, -2)
        n = cv(0, 0, d(2), d(0), -1, 3)
        assert h0_independence_check(g0, m, n, 2, 3, d(1))

    @pytest.mark.parametrize("seed", [45, 387])
    def test_suite_draws_only_classes_with_a_phase(self, seed):
        # these seeds drew a class whose charge lies in the open third
        # quadrant, where compare_phases has no phase to compare
        assert suites.suite_h0(10, seed=seed).passed


class TestTransformMap:
    def test_good_source(self, g0):
        rep = onedim_transform_map(g0, cv(0, 0, d(0), d(1), 1, 2), d(0))
        assert rep.image == cv(0, 0, d(1), d(0), 2, -1)
        assert rep.all_hold

    def test_fiber_source_excluded(self, g0):
        rep = onedim_transform_map(g0, cv(0, 0, d(0), d(0), 0, 1), d(0))
        assert not rep.image_s_nonzero
        assert not rep.all_hold

    def test_zero_fiber_part_ok(self, g0):
        rep = onedim_transform_map(g0, cv(0, 0, d(0), d(1), 0, 1), d(0))
        assert rep.image_a_positive
        assert rep.all_hold

    def test_composition_negates(self, g0):
        rng = random.Random(25)
        for _ in range(50):
            v = cv(0, 0, d(0), d(Fraction(rng.randint(-4, 4))), Fraction(rng.randint(-4, 4)),
                   Fraction(rng.randint(-4, 4)))
            rep = onedim_transform_map(g0, v, d(0))
            back = fiber_swap_rule(g0, rep.image)
            assert back == -v


class TestRunSuite:
    def test_size_seed_and_order_routing(self, monkeypatch):
        """A suite's own default size applies when no size is given, and the
        series order reaches exactly the suites that declare one."""
        seen = {}

        def ordered(cases=3, seed=0, order=8):
            seen["ordered"] = (cases, seed, order)
            return suites.SuiteReport("ordered")

        def plain(cases=5, seed=0):
            seen["plain"] = (cases, seed)
            return suites.SuiteReport("plain")

        monkeypatch.setitem(suites._RUNNERS, "threshold", ordered)
        monkeypatch.setitem(suites._RUNNERS, "swap", plain)
        suites.run_suite("threshold", None, 4, 16)
        suites.run_suite("swap", None, 4, 16)
        assert seen == {"ordered": (3, 4, 16), "plain": (5, 4)}
        suites.run_suite("threshold", 7, 1)
        assert seen["ordered"] == (7, 1, 8)
        with pytest.raises(KeyError):
            suites.run_suite("nope")

    @pytest.mark.parametrize("cases", [0, -4])
    def test_rejects_fewer_than_one_case(self, cases):
        # a run of zero checks must not report a pass
        with pytest.raises(DomainError):
            suites.run_suite("swap", cases, 1, 8)
