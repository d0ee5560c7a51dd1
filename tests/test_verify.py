"""Theorem-level checks: the imaginary-part identity, threshold and
correspondence biconditionals, h = 0 independence, suite routing, and a
guard that every public check has a suite that runs it."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ellstab import asymptotics, charges, curves, ring, suites, verify
from ellstab.curves import TiltCurve, solve_u
from ellstab.fmt import phi
from ellstab.errors import ComputationFault, DimensionError, DomainError
from ellstab.poly import Poly2
from ellstab.ring import BaseGeometry, ChernVector
from ellstab.slopes import SlopeTag, SlopeValue
from ellstab.suites import geometry_for, _rand_tilt, _rand_vector
from ellstab.verify import (
    h0_independence_check,
    im_identity_check,
    im_identity_symbolic_remainders,
    slope_correspondence_check,
    threshold_equiv_check,
)

from conftest import count_symbolic_products, cv, d
from test_asymptotics import _reference_cross_series
from test_charges import _reference_checked_reduced_parts, _reference_powers, _with_entry

SRC = Path(__file__).resolve().parent.parent / "src" / "ellstab"


def _reference_im_identity_sides(g: BaseGeometry, e: ChernVector, c: TiltCurve, u, vpar) -> tuple:
    """``verify._im_identity_sides`` as written before it worked on
    numerators, kept verbatim as its reference (the powers of w built here
    rather than memoized, the ring-checked charge the Fraction-field one)."""
    powers = _reference_powers(g, u, vpar)
    lhs = -_reference_checked_reduced_parts(g, phi(g, e), u, vpar, powers)[1]

    _, _, obar2, theta_obar2 = curves._fixed_cycles(g, c)
    om3_over6 = powers[2] * Fraction(1, 6)
    tw = ring.mul(g, ring._kept(g, ring._half_canonical_exp), e)  # the twist by the half-canonical field
    obar2_ch1b = ring.degree(g, obar2, tw)
    return lhs * theta_obar2, om3_over6 * obar2_ch1b - u * e.a3(g) * theta_obar2


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

    def test_a_symbolic_case_makes_no_poly2_product(self, monkeypatch):
        """A symbolic case applies no table at Poly2 scalars, cold or warm:
        its sides are integer combinations of the rows kept per geometry
        (``charges._symbol_rows``).  A warm case builds one ``Poly2`` (the
        remainder; counted at ``Poly2._store``), and warm sides two."""
        calls = count_symbolic_products(monkeypatch)
        built = []
        original = Poly2._store
        monkeypatch.setattr(Poly2, "_store", lambda self, *form: built.append(1) or original(self, *form))
        rng = random.Random(23)
        for h in (Fraction(-1), Fraction(1, 2)):
            for rank in (1, 2):
                g = BaseGeometry(rank, [[1]] if rank == 1 else [[2, 1], [1, 3]], [1] * rank, h, 0, 1)
                c = _rand_tilt(rng, h)
                counts = []
                for _ in range(3):
                    built.clear()
                    rems = im_identity_symbolic_remainders(g, _rand_vector(rng, rank), c)
                    assert all(r.is_zero() for r in rems)
                    counts.append(len(built))
                assert counts[1:] == [1, 1]
                built.clear()
                usym, vsym = ring._kept(g, charges._germ_rows)[0]
                verify._im_identity_sides(g, _rand_vector(rng, rank), c, usym, vsym)
                assert len(built) == 2
        assert calls == []

    def test_symbolic_sides_refuse_a_class_that_is_not_rational(self, g1):
        c = TiltCurve(-1, 1, 2)
        e = ChernVector(Poly2.u(), 0, d(0), d(0), 0, 1)
        with pytest.raises(DomainError):
            im_identity_symbolic_remainders(g1, e, c)

    def test_the_symbolic_guard_raises_on_a_wrong_table_entry(self, monkeypatch):
        """A wrong coefficient in the reduced table (im's coefficient on u,
        a, read as a + s) disagrees with the ring rows at the symbols, as it
        does with the ring path at a point."""
        monkeypatch.setattr(charges, "_reduced_table", _with_entry(charges._reduced_table, -1, 5))
        g = BaseGeometry(1, [[1]], [1], Fraction(-1), 0, 1)
        c = TiltCurve(-1, 1, 2)
        e = cv(1, 1, d(0), d(0), 0, 1)  # phi(e) has a nonzero s
        usym, vsym = ring._kept(g, charges._germ_rows)[0]
        for sides in (lambda: im_identity_symbolic_remainders(g, e, c),
                      lambda: verify._im_identity_sides(g, e, c, usym, vsym),
                      lambda: verify._im_identity_sides(g, e, c, Fraction(1, 2), 3)):
            with pytest.raises(ComputationFault):
                sides()

    def test_suite_builds_the_point_products_once(self, monkeypatch):
        """Obar^2 and Theta.Obar^2 are built once per curve, and a point
        reads the closed form's monomial rows kept per geometry, so on fresh
        geometries suite_im_identity(50, 7) makes 148 ring products and
        point pairings (``mul`` and ``ring._degree_numerator``, which
        ``degree`` runs): 2 per case (the twist and Obar^2 ch1^B) over 66
        cases and 4 per geometry (``curves._theta_h_products`` and
        ``_omega_products``) over 4 geometries.  No point makes one."""
        calls = []

        def counted(original):
            return lambda g, v1, v2: calls.append(1) or original(g, v1, v2)

        for name in ("mul", "_degree_numerator"):
            product = counted(getattr(ring, name))
            for module in (ring, verify, charges, curves):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, product)
        suites._geometry.cache_clear()
        curves._fixed_cycles.cache_clear()
        report = suites.suite_im_identity(50, 7)
        assert report.passed and report.cases == 66
        assert len(calls) == 148

    def test_sides_match_the_reference_at_rational_points(self):
        """On and off the curve, with x = 0 and x < 0, at ranks 1 and 2:
        the same values, of the same type, as ``_reference_im_identity_sides``."""
        rng = random.Random(24)
        off = 0
        for h in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-2)):
            for rank2 in (False, True):
                g = geometry_for(h, rank2)
                for i in range(40):
                    c = _rand_tilt(rng, h)
                    vpar = Fraction(rng.randint(2, 60), rng.randint(1, 4))
                    u = solve_u(c, vpar, Fraction(1, 2**8)).lo if h else (c.b / c.a) / vpar
                    if i % 4 == 3 or h:
                        u += Fraction(1, rng.randint(1, 9))  # off the curve
                    nums, den = suites._rand_nums(rng, 2 * g.rank + 4)
                    nums[1] = (0, -abs(nums[1]) - den, nums[1])[i % 3]
                    e = ChernVector._ints(nums, den)
                    got = verify._im_identity_sides(g, e, c, u, vpar)
                    want = _reference_im_identity_sides(g, e, c, u, vpar)
                    assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
                    off += got[0] != got[1]
        assert off > 100

    def test_sides_match_the_reference_at_symbols(self):
        rng = random.Random(25)
        usym, vsym = Poly2.u(), Poly2.v()
        for h in (Fraction(-2), Fraction(-1), Fraction(1, 2)):
            for rank2 in (False, True):
                g = geometry_for(h, rank2)
                c = _rand_tilt(rng, h)
                for e in [ChernVector.zero(g.rank)] + [_rand_vector(rng, g.rank) for _ in range(6)]:
                    got = verify._im_identity_sides(g, e, c, usym, vsym)
                    want = _reference_im_identity_sides(g, e, c, usym, vsym)
                    assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
                    assert all(isinstance(x, Poly2) for x in got)

    def test_warm_rational_check_builds_only_its_values(self, monkeypatch):
        """Once a point, a curve and the geometry's tables are warm, a
        rational check builds no Fraction but its two side values
        (``Fraction.__new__`` counted, so Fraction arithmetic counts too)."""
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        rng = random.Random(26)
        for rank2 in (False, True):
            g = geometry_for(Fraction(0), rank2)
            points = suites._rational_tilt_points(rng, 4)
            vectors = [_rand_vector(rng, g.rank) for _ in range(6)] + [ChernVector.zero(g.rank)]
            for c, u, vpar in points:
                im_identity_check(g, vectors[0], c, u, vpar)
                im_identity_check(g, vectors[0], c, u, vpar + 1)
            for c, u, vpar in points:
                for e in vectors:
                    for point in (vpar, vpar + 1):
                        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
                        im_identity_check(g, e, c, u, point)
                        monkeypatch.undo()
                        assert len(built) <= 2
                        built.clear()

    def test_a_curve_of_another_h_raises_at_both_entry_points(self):
        g = BaseGeometry(1, [[1]], [1], -1, 0, 1)
        c = TiltCurve(Fraction(1, 2), 1, 2)
        e = cv(1, 1, d(1), d(0), 0, 0)
        with pytest.raises(DomainError, match="disagree on h"):
            im_identity_check(g, e, c, Fraction(1, 2), 4)
        with pytest.raises(DomainError, match="disagree on h"):
            im_identity_symbolic_remainders(g, e, c)

    def test_symbolic_all_h(self):
        rng = random.Random(22)
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2)):
            g = geometry_for(h)
            c = _rand_tilt(rng, h)
            for _ in range(8):
                e = _rand_vector(rng, 1)
                rems = im_identity_symbolic_remainders(g, e, c)
                assert all(r.is_zero() for r in rems)

    def test_a_point_neither_rational_nor_the_symbols_is_refused(self, g1):
        c = TiltCurve(-1, 1, 2)
        e = cv(1, 1, d(0), d(0), 0, 1)
        u, v = Poly2.u(), Poly2.v()
        for point in ((u + 1, v), (u, Fraction(3)), (Fraction(1, 2), v), (v, u)):
            with pytest.raises(DomainError, match="rational point or at the symbols"):
                im_identity_check(g1, e, c, *point)

    def test_a_class_that_is_not_rational_is_refused_at_a_rational_point(self, g1):
        c = TiltCurve(-1, 1, 2)
        e = ChernVector(Poly2.u(), 0, d(0), d(0), 0, 1)
        with pytest.raises(DomainError, match="rational class"):
            im_identity_check(g1, e, c, Fraction(1, 2), 4)

    def test_a_rational_point_needs_positive_parameters(self, g1):
        c = TiltCurve(-1, 1, 2)
        e = cv(1, 1, d(0), d(0), 0, 1)
        for point, name in (((0, 4), "u"), ((Fraction(1, 2), Fraction(-1)), "vpar")):
            with pytest.raises(DomainError, match=f"^{name} must be positive"):
                im_identity_check(g1, e, c, *point)


class TestOneRingGuard:
    """The reduced closed form has one ring guard, the per-geometry proof
    (``charges._proved_closed_form``): every reader of the closed form runs
    it first, and none checks a point or a class again."""

    def _readers(self, g, rng):
        """Each reader of the closed form on g, as a call with no argument:
        the reduced charge at 20 rational points, the im identity at
        rational points and at the symbols, its symbolic remainders and the
        cross polynomial."""
        c = _rand_tilt(rng, g.h)
        u, v = Poly2.u(), Poly2.v()
        e, m, n = (_rand_vector(rng, g.rank) for _ in range(3))
        readers = []
        for _ in range(20):
            point = Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(rng.randint(1, 9), rng.randint(1, 4))
            readers.append(lambda point=point: charges.reduced_charge(g, e, *point))
        readers += [lambda: im_identity_check(g, e, c, Fraction(1, 2), 4),
                    lambda: im_identity_check(g, m, c, Fraction(3), Fraction(5, 7)),
                    lambda: im_identity_check(g, e, c, u, v),
                    lambda: im_identity_symbolic_remainders(g, n, c),
                    lambda: asymptotics._cross_poly(g, m, n, asymptotics.ChargeKind.REDUCED, None)]
        return readers

    def test_every_reader_runs_the_proof_once_per_geometry(self, monkeypatch):
        proofs = []
        original = charges._proved_closed_form
        monkeypatch.setattr(charges, "_proved_closed_form", lambda g: proofs.append(1) or original(g))
        rng = random.Random(27)
        for rank in (1, 2):
            g = BaseGeometry(rank, [[1]] if rank == 1 else [[2, 1], [1, 3]], [1] * rank, Fraction(-1), 0, 1)
            for reader in self._readers(g, rng):
                reader()
            assert len(proofs) == 1
            proofs.clear()

    def test_a_wrong_table_entry_faults_every_reader_on_every_call(self, monkeypatch):
        """A wrong coefficient in the reduced table (im's coefficient on u,
        a, read as a + s) makes each reader raise ``ComputationFault``,
        every time it is called."""
        monkeypatch.setattr(charges, "_reduced_table", _with_entry(charges._reduced_table, -1, 5))
        g = BaseGeometry(1, [[1]], [1], Fraction(-1), 0, 1)
        for reader in self._readers(g, random.Random(28)):
            for _ in range(2):
                with pytest.raises(ComputationFault, match="closed form disagrees"):
                    reader()


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

    def test_the_cross_carries_no_exponent_above_one(self, monkeypatch):
        """Over the threshold suite's cases, the whole cross series of the
        two germs (``_reference_cross_series``) stores no exponent above
        v^1, so its lead lies below v^1 exactly when its v^1 coefficient,
        which the boundary case read before, vanishes; the lead that the
        check reads (``_germ_verdict``) is the germs' ``_leading_cross``."""
        pairs = []
        original = verify._germ_verdict
        monkeypatch.setattr(verify, "_germ_verdict", lambda *args: pairs.append(args) or original(*args))
        for seed in range(4):
            for order in (8, 16):
                assert suites.suite_threshold(60, seed, order).passed
        assert len(pairs) == 480
        for g, m, n, c, kind, order in pairs:
            acm, acn = (asymptotics.charge_series(g, v, c, kind, order) for v in (m, n))
            x = _reference_cross_series(acm, acn)
            assert x.degree() is None or x.degree() <= 1
            _, lead, _ = asymptotics._leading_cross(acm, acn)
            assert (lead is None or lead < 1) == (x.coefficient(1) == 0)
            assert original(g, m, n, c, kind, order)[1] == lead

    def test_a_twisted_slope_off_its_definition_is_a_fault(self, g1, monkeypatch):
        """mu_{omega,B}(e) is checked against omega^2 . ch1 / ch0 of e twisted
        by exp(-B): a slope that disagrees raises ``ComputationFault``."""
        c = TiltCurve(-1, 1, 2)
        t = cv(0, 0, d(0), d(1), 0, 0)
        e = cv(2, 1, d(0), d(0), 0, 0)
        original = verify.slope

        def off(g, kind, v):
            value = original(g, kind, v)
            return SlopeValue(value.finite + 1) if kind.tag is SlopeTag.MU_OMEGA_B else value

        monkeypatch.setattr(verify, "slope", off)
        with pytest.raises(ComputationFault, match="definition"):
            threshold_equiv_check(g1, t, e, c)

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


def _reference_domain_checks(g, v, y, z):
    """The correspondence check's input tests as first written, on fields,
    with a class of another rank named as a vector."""
    if v.n != 0 or v.x != 0 or not v.S.is_zero():
        raise DomainError("inputs must be one-dimensional classes")
    if v.rank_lattice != g.rank:
        raise DimensionError("vector rank does not match geometry rank")
    den = (g.h * Fraction(y) + Fraction(z)) * ring.pair_h(g, v.eta) + Fraction(y) * v.a
    if den <= 0:
        raise DomainError("inputs require a positive twisted degree")


def _error(f, *args):
    try:
        f(*args)
    except (DomainError, DimensionError) as e:
        return type(e), str(e)
    return None


class TestCorrespondenceDomain:
    def test_numerator_tests_raise_as_the_field_tests(self):
        """The same error, or none, for classes that are one-dimensional or
        not, of twisted degree positive, zero or negative, and of another
        lattice rank."""
        rng = random.Random(25)
        seen = set()
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2)):
            for rank2 in (False, True):
                g = geometry_for(h, rank2)
                for y, z in ((1, 2), (Fraction(3, 2), Fraction(7, 4)), (2, 3)):
                    good = suites._rand_onedim_class(rng, g, y, z)
                    for _ in range(40):
                        r = rng.choice((g.rank, g.rank, 3 - g.rank))
                        lower = [rng.choice((0, 0, 0, 1)) for _ in range(2 + r)]
                        upper = [rng.randint(-2, 2) for _ in range(r + 2)]
                        v = ChernVector._ints(lower + upper, rng.randint(1, 3))
                        want = _error(_reference_domain_checks, g, v, y, z)
                        got = _error(slope_correspondence_check, g, v, good, y, z, d(*[1] * g.rank))
                        assert got == want, (g, v, y, z)
                        seen.add(want)
        assert seen == {None, (DomainError, "inputs must be one-dimensional classes"),
                        (DomainError, "inputs require a positive twisted degree"),
                        (DimensionError, "vector rank does not match geometry rank")}


class TestSymbolicClasses:
    def test_both_checks_refuse_a_class_that_is_not_rational(self, g1):
        """A class with a ``Poly2`` coordinate, in either argument and in any
        field, gets the ``DomainError`` that ``compare_vectors`` raises for
        it, before any comparison."""
        u = Poly2.u()
        rational = "a charge germ needs a rational class (every coordinate a Fraction)"
        tilt = TiltCurve(-1, 1, 2)
        t, e = cv(0, 0, d(0), d(1), 0, 0), cv(2, 1, d(0), d(0), 0, 0)
        m, n = cv(0, 0, d(0), d(1), 0, 1), cv(0, 0, d(0), d(1), 0, 2)
        calls = [
            lambda: threshold_equiv_check(g1, ChernVector(0, 0, d(0), d(u), 0, 0), e, tilt),
            lambda: threshold_equiv_check(g1, ChernVector(0, 0, d(0), d(1), u, 0), e, tilt),
            lambda: threshold_equiv_check(g1, t, ChernVector(u, 1, d(0), d(0), 0, 0), tilt),
            lambda: threshold_equiv_check(g1, t, ChernVector(2, 1, d(0), d(0), 0, u), tilt),
            lambda: slope_correspondence_check(g1, ChernVector(0, 0, d(0), d(u), 0, 1), n, 1, 3, d(0)),
            lambda: slope_correspondence_check(g1, m, ChernVector(0, 0, d(0), d(1), u, 2), 1, 3, d(0)),
            lambda: slope_correspondence_check(g1, m, ChernVector(0, 0, d(0), d(1), 0, u), 1, 3, d(0)),
        ]
        for call in calls:
            with pytest.raises(DomainError) as raised:
                call()
            assert str(raised.value) == rational


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

    def test_decided_over_all_v(self, g0, monkeypatch):
        """A cross whose coefficients along the curve u = q/v are those of
        X(q/v, v) = q v - 8 q + 15 q / v for X = u (v - 3)(v - 5), whose sign
        flips between v = 3 and v = 5, fails the check, though X has the
        predicted sign at v = 2, 10, 100 and 10^4."""
        monkeypatch.setattr(verify, "_cross_coefficients", lambda *args, **kwargs: iter([(1, 1), (0, -8), (-1, 15)]))
        m = cv(0, 0, d(1), d(0), 1, 0)
        assert not h0_independence_check(g0, m, m, 1, 1, d(0))

    def test_zero_charges(self, g0):
        m, zero = cv(0, 0, d(1), d(0), 1, 0), ChernVector.zero(1)
        for pair in ((zero, m), (m, zero), (zero, zero)):
            assert h0_independence_check(g0, *pair, 2, 3, d(1))

    def test_never_reaches_the_symbolic_layer(self, g0, monkeypatch):
        def symbolic(*args):
            raise AssertionError("the h = 0 check reached the symbolic layer")

        monkeypatch.setattr(asymptotics, "_cross_poly", symbolic)
        monkeypatch.setattr(charges, "prove_closed_form", symbolic)
        m = cv(0, 0, d(1), d(0), 1, 0)
        n = cv(0, 0, d(1), d(0), 2, 0)
        assert h0_independence_check(g0, m, n, 1, 1, d(0))
        assert suites.suite_h0(10, seed=45).passed

    @pytest.mark.parametrize("seed", [45, 387])
    def test_suite_draws_only_classes_with_a_phase(self, seed):
        # these seeds drew a class whose charge lies in the open third
        # quadrant, where compare_phases has no phase to compare
        assert suites.suite_h0(10, seed=seed).passed


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


def _verify_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id == "verify":
                yield node.func.attr


def test_every_check_has_a_suite_caller():
    """Every public function of verify is called, as verify.<name>, from
    suites: a check that no suite runs is code that nothing runs."""
    checks = ast.parse((SRC / "verify.py").read_text())
    public = {
        node.name
        for node in checks.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public
    called = set(_verify_calls(ast.parse((SRC / "suites.py").read_text())))
    assert sorted(public - called) == []
