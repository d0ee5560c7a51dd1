"""Central charge values: examples, dual paths, half-plane conditions."""

import random
from fractions import Fraction

import pytest

from ellstab import asymptotics, charges, ring, suites
from ellstab.charges import (
    ChargeKind,
    _full_parts,
    _germ_numerators,
    _reduced_germs,
    _reduced_numerators,
    _ring_parts,
    full_charge,
    in_full_half_plane,
    onedim_transform_charge,
    prove_closed_form,
    reduced_charge,
)
from ellstab.curves import OneDimCurve, TiltCurve, expand_u, solve_u
from ellstab.errors import ComputationFault, DimensionError, DomainError
from ellstab.fmt import phi
from ellstab.poly import Poly2
from ellstab.ring import BaseGeometry, ChernVector, DivisorB, DivisorX, degree, divisor_powers, pair
from ellstab.series import LaurentSeries
from ellstab.suites import geometry_for, _rand_divisor, _rand_vector

from conftest import (
    _reference_full_coefficients,
    _reference_reduced_coefficients,
    count_symbolic_products,
    cv,
    d,
    fresh_geometries,
    table_sets,
)
from test_ring import table_geometries


def in_reduced_half_plane(c) -> bool:
    """Membership in the closed right-rotated half plane used with the
    reduced charge: Re > 0, or Re = 0 with Im >= 0, or zero."""
    return c.re > 0 or (c.re == 0 and c.im >= 0)


class TestReducedCharge:
    def test_theta_class(self, g1):
        v = cv(0, 1, d(0), d(0), 0, 0)
        out = reduced_charge(g1, v, 1, 3)
        assert (out.re, out.im) == (2, 0)

    def test_fiber_class(self, g1):
        v = cv(0, 0, d(0), d(0), 1, 0)
        for u, vp in ((Fraction(1, 3), 2), (5, Fraction(7, 2))):
            out = reduced_charge(g1, v, u, vp)
            assert (out.re, out.im) == (0, u)

    def test_zero_vector(self, g2):
        out = reduced_charge(g2, ChernVector.zero(2), 1, 1)
        assert out.is_zero()

    def test_requires_positive_parameters(self, g1):
        with pytest.raises(DomainError):
            reduced_charge(g1, ChernVector.unit(1), 0, 1)

    def test_a_class_of_another_rank_raises(self, g1, g2):
        """A shorter or a longer class than the geometry's raises
        ``DimensionError``, at a rational point and at the symbols."""
        for g, v in ((g1, ChernVector.unit(2)), (g2, ChernVector.unit(1)), (g2, ChernVector.unit(3))):
            for u, vpar in ((Fraction(1, 2), 3), (Poly2.u(), Poly2.v())):
                with pytest.raises(DimensionError, match="rank"):
                    reduced_charge(g, v, u, vpar)

    def test_dual_paths_on_random_vectors(self):
        # the operation itself asserts agreement; drive it over a spread.
        # The closed forms taken at symbols (u, v) must give the pointwise
        # reduced charge and, for flat classes, the ring-path full charge.
        rng = random.Random(12)
        rng_d = random.Random(112)
        usym, vsym = Poly2.u(), Poly2.v()
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2)):
            for rank2 in (False, True):
                g = geometry_for(h, rank2)
                for _ in range(60):
                    v = _rand_vector(rng, g.rank)
                    u = Fraction(rng.randint(1, 7), rng.randint(1, 5))
                    vp = Fraction(rng.randint(1, 9), rng.randint(1, 5))
                    out = reduced_charge(g, v, u, vp)
                    re, im = (ring._divided(*part) for part in
                              _reduced_numerators(g, v, _germ_numerators(g.h, usym, vsym)))
                    assert (re.eval(u, vp), im.eval(u, vp)) == (out.re, out.im)

                    flat = ChernVector(0, 0, v.S, v.eta, v.a, v.s)
                    dd = _rand_divisor(rng_d, g.rank, -4, 4)
                    om = DivisorX(u, g.hb_divisor.scale(vp))
                    full = full_charge(g, flat, om, DivisorX.pullback(dd))
                    re, im = _full_parts(g, flat, dd, _germ_numerators(g.h, usym, vsym))
                    assert (re.eval(u, vp), im.eval(u, vp)) == (full.re, full.im)


def _reference_proved_closed_form(g: BaseGeometry) -> bool:
    """``charges._proved_closed_form`` as written before the integer record,
    kept as its reference: the ring path on the 2r + 4 basis classes at
    ``Poly2`` symbols, with the bodies of the per-point guard it ran
    (``charges._point`` and ``_checked_reduced_parts``, since deleted)
    written in."""
    u, v = Poly2.u(), Poly2.v()
    germs, powers = _germ_numerators(g.h, u, v), divisor_powers(g, DivisorX(u, g.hb_divisor.scale(v)))
    dim = 2 * g.rank + 4
    for k in range(dim):
        e = ChernVector._ints([int(i == k) for i in range(dim)], 1)
        parts = _reduced_numerators(g, e, germs)
        for (n1, d1), (n2, d2) in zip(parts, _ring_parts(g, e, powers)):
            if n1 * d2 != n2 * d1:
                raise ComputationFault("reduced charge closed form disagrees with ring evaluation")
    return True


def _bumped_constant(i: int, n: int):
    """The structure constant writer with entry n of row i one larger."""
    original = ring._structure_constants

    def mutant(g):
        rows, den, width = original(g)
        rows = [list(row) for row in rows]
        j, k, c = rows[i][n]
        rows[i][n] = (j, k, c + den)
        return rows, den, width

    return mutant


def _faults(check, g) -> bool:
    try:
        check(g)
    except ComputationFault:
        return True
    return False


class TestProveClosedForm:
    def test_a_cold_proof_makes_no_poly2_product(self, monkeypatch):
        """On a fresh geometry the proof applies no table at Poly2 scalars
        (``ring._contract``, which ``mul`` and ``degree`` run): it compares
        two integer matrices, and only the germs are read at the symbols."""
        calls = count_symbolic_products(monkeypatch)
        for rank, gram, hb in ((1, [[1]], [1]), (2, [[2, 3], [3, -1]], [1, 2])):
            g = BaseGeometry(rank, gram, hb, Fraction(-1, 2), 0, 1)
            prove_closed_form(g)
            prove_closed_form(g)
            assert calls == []

    def test_agrees_with_the_reference(self):
        """Both proofs pass on every lattice the table writers are pinned
        on, and the record's two matrices are the closed form and the ring
        path at the symbols, basis class by basis class."""
        usym, vsym = Poly2.u(), Poly2.v()
        for g in table_geometries():
            assert _reference_proved_closed_form(g)
            prove_closed_form(g)
            (closed, cden), (ring_side, rden), (cube, m) = ring._kept(g, charges._symbol_rows)
            powers = divisor_powers(g, DivisorX(usym, g.hb_divisor.scale(vsym)))
            assert Poly2._ints(cube, m) == ring._divided(*powers[2])
            dim = 2 * g.rank + 4
            for k in range(dim):
                e = ChernVector._ints([int(i == k) for i in range(dim)], 1)
                want = _reduced_numerators(g, e, _germ_numerators(g.h, usym, vsym))
                ring_want = _ring_parts(g, e, powers)
                for (matrix, den), parts in (((closed, cden), want), ((ring_side, rden), ring_want)):
                    for part in (0, 1):
                        got = {(i, j): n for (kk, p, i, j), n in matrix.items() if (kk, p) == (k, part)}
                        assert Poly2._ints(got, den) == ring._divided(*parts[part])

    def test_a_bumped_structure_constant_faults_where_the_reference_does(self, monkeypatch):
        """Each of the 59 structure constants at h = -1, rank 1 and at
        h = 1/2, rank 2, one larger on a fresh geometry, makes the integer
        proof raise exactly where the reference raises: on 23 of them (the
        products with the rank coordinate n, which w, ch1 and ch2 never
        carry as a factor, and at rank 2 those along the second basis
        vector, off hb = (1, 0), escape both)."""
        caught = []
        for lattice in ((1, [[1]], [1], Fraction(-1)), (2, [[2, 1], [1, 3]], [1, 0], Fraction(1, 2))):
            rows = ring._structure_constants(BaseGeometry(*lattice))[0]
            for i, row in enumerate(rows):
                for n in range(len(row)):
                    monkeypatch.setattr(ring, "_structure_constants", _bumped_constant(i, n))
                    want = _faults(_reference_proved_closed_form, BaseGeometry(*lattice))
                    assert _faults(prove_closed_form, BaseGeometry(*lattice)) == want, (lattice, i, row[n])
                    monkeypatch.undo()
                    caught.append(want)
        assert (len(caught), sum(caught)) == (59, 23)

    def test_a_mismatch_raises_on_every_call(self, monkeypatch):
        """A wrong reduced table entry (im's coefficient on u, a, read as
        a + s) makes the proof raise on every call, as the reference does."""
        monkeypatch.setattr(charges, "_reduced_table", _with_entry(charges._reduced_table, -1, 5))
        g = BaseGeometry(1, [[1]], [1], Fraction(-1), 0, 1)
        for _ in range(2):
            with pytest.raises(ComputationFault):
                prove_closed_form(g)
        assert _faults(_reference_proved_closed_form, BaseGeometry(1, [[1]], [1], Fraction(-1), 0, 1))


class TestFullCharge:
    def test_skyscraper(self, g1):
        sky = cv(0, 0, d(0), d(0), 0, 1)
        om = DivisorX(1, g1.hb_divisor.scale(2))
        out = full_charge(g1, sky, om, DivisorX.zero(1))
        assert (out.re, out.im) == (-1, 0)

    def test_fiber_vector_with_pullback_field(self, g2):
        v = cv(0, 0, DivisorB([0, 0]), DivisorB([0, 0]), Fraction(3, 2), Fraction(-5, 3))
        u, vp = Fraction(2, 3), Fraction(7)
        om = DivisorX(u, g2.hb_divisor.scale(vp))
        out = full_charge(g2, v, om, DivisorX.pullback(DivisorB([1, -2])))
        assert (out.re, out.im) == (Fraction(5, 3), u * Fraction(3, 2))

    def test_one_dimensional_closed_form(self):
        rng = random.Random(13)
        for h in (Fraction(-1), Fraction(0), Fraction(1, 2)):
            g = geometry_for(h)
            for _ in range(50):
                eta = d(Fraction(rng.randint(-5, 5)))
                v = cv(0, 0, d(0), eta, Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
                u = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                vp = Fraction(rng.randint(1, 8))
                dd = d(Fraction(rng.randint(-4, 4)))
                om = DivisorX(u, g.hb_divisor.scale(vp))
                out = full_charge(g, v, om, DivisorX.pullback(dd))
                heta = pair(g, g.hb_divisor, eta)
                assert out.re == -(v.s - pair(g, dd, eta))
                assert out.im == h * u * heta + u * v.a + vp * heta

    def test_rejects_nonpositive_theta(self, g1):
        with pytest.raises(DomainError):
            full_charge(g1, ChernVector.zero(1), DivisorX(0, g1.hb_divisor), DivisorX.zero(1))


class TestOnedimTransformCharge:
    def test_curve_point_example(self, g0):
        v = cv(0, 0, d(0), d(1), 0, 1)
        out = onedim_transform_charge(g0, v, Fraction(1, 2), 2, d(0))
        assert (out.re, out.im) == (1, Fraction(1, 2))

    def test_pure_fiber_class(self, g1):
        v = cv(0, 0, d(0), d(0), 1, 0)
        out = onedim_transform_charge(g1, v, Fraction(1, 7), 11, d(5))
        assert (out.re, out.im) == (1, 0)

    def test_zero(self, g1):
        v = cv(0, 0, d(0), d(0), 0, 0)
        out = onedim_transform_charge(g1, v, 1, 1, d(0))
        assert out.is_zero()

    def test_shape_enforced(self, g1):
        with pytest.raises(DomainError):
            onedim_transform_charge(g1, ChernVector.unit(1), 1, 1, d(0))

    def test_factored_form_on_curve(self):
        rng = random.Random(14)
        for h in (Fraction(0), Fraction(1, 2)):
            g = geometry_for(h)
            for _ in range(40):
                y = Fraction(rng.randint(1, 4))
                z = Fraction(rng.randint(1, 4))
                c = OneDimCurve(h, y, z)
                vp = Fraction(rng.randint(2, 9))
                root = solve_u(c, vp, Fraction(1, 2**40))
                if not root.exact:
                    continue
                u = root.lo
                eta = d(Fraction(rng.randint(-4, 4)))
                v = cv(0, 0, d(0), eta, Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                dbar = d(Fraction(rng.randint(-3, 3)))
                out = onedim_transform_charge(g, v, u, vp, dbar)
                heta = pair(g, g.hb_divisor, eta)
                num = pair(g, dbar, eta)
                assert out.re == ((h * y + z) * heta + y * v.a) / y
                assert out.im == y * u * (v.s - num) / y

    def test_matches_transform_plus_full_charge(self):
        rng = random.Random(15)
        for h in (Fraction(0), Fraction(-1)):
            g = geometry_for(h)
            for _ in range(60):
                eta = d(Fraction(rng.randint(-5, 5)))
                v = cv(0, 0, d(0), eta, Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
                u = Fraction(rng.randint(1, 5), rng.randint(1, 4))
                vp = Fraction(rng.randint(1, 9))
                dbar = d(Fraction(rng.randint(-3, 3)))
                dd = dbar + g.hb_divisor.scale(h / 2)
                om = DivisorX(u, g.hb_divisor.scale(vp))
                via_transform = full_charge(g, phi(g, v), om, DivisorX.pullback(dd))
                closed = onedim_transform_charge(g, v, u, vp, dbar)
                assert (via_transform.re, via_transform.im) == (closed.re, closed.im)


class TestHeartNecessaryConditions:
    def test_reduced_charges_of_tilt_heart_generators(self):
        """Classes asserted in the tilt-limit heart land in the closed
        right half plane for large curve parameters."""
        g = geometry_for(-1)
        c = TiltCurve(-1, 1, 2)
        generators = [
            cv(0, 1, d(0), d(0), 0, 0),
            cv(0, 0, d(0), d(1), 0, 0),
            cv(0, 0, d(0), d(0), 0, 1),
            cv(0, 0, d(1), d(1), 2, 0),
            cv(-2, 0, d(1), d(0), 0, 0),
        ]
        for vp in (Fraction(100), Fraction(1000)):
            root = solve_u(c, vp, Fraction(1, 2**40))
            u = (root.lo + root.hi) / 2  # interior points suffice for an open condition
            for v in generators:
                out = reduced_charge(g, v, u, vp)
                assert in_reduced_half_plane(out)

    def test_full_charges_of_flat_heart_generators(self):
        g = geometry_for(0)
        dd = d(0)
        generators = [
            cv(0, 0, d(0), d(0), 0, 1),
            cv(0, 0, d(0), d(1), 0, 0),
            cv(0, 0, d(1), d(1), 0, 0),
            cv(0, 0, d(-1), d(1), 0, 0),
        ]
        for vp in (Fraction(10), Fraction(100), Fraction(10**4)):
            u = Fraction(1) / vp
            om = DivisorX(u, g.hb_divisor.scale(vp))
            for v in generators:
                out = full_charge(g, v, om, DivisorX.pullback(dd))
                assert in_full_half_plane(out) or out.is_zero()


def _reference_reduced_germs(h, u, vpar, flat: bool = False) -> tuple:
    """``charges._reduced_germs`` as written before w = hu + vpar, with its
    seven products, kept as its reference; ``flat`` gives the x and n
    germs as the exact zero 0, in the one layout of both kinds."""
    hu = h * u
    w = hu + 2 * vpar
    if flat:
        return (0, u * w), (hu + vpar, u, 0)
    return (
        (hu * w + vpar * vpar, u * w),
        (hu + vpar, u, u * (hu * hu + 3 * hu * vpar + 3 * vpar * vpar)),
    )


def _germ_shape(germs):
    """Each germ with its type, and its floor if it is a series."""
    return [[(type(x), x, getattr(x, "trunc", None)) for x in part] for part in germs]


class TestReducedGerms:
    """The germs around w = hu + vpar equal the seven-product form."""

    def test_germs_match_the_reference(self):
        rng = random.Random(21)
        vpar = LaurentSeries.monomial(1, 1)
        series = 0
        for h in (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            points = [(Poly2.u(), Poly2.v())]
            points += [(Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                       for _ in range(12)]
            curves = []
            while len(curves) < 6:
                a, b = (Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(2))
                for make in (TiltCurve, OneDimCurve):
                    try:
                        curves.append(make(h, a, b))
                    except Exception:
                        pass
            points += [(expand_u(c, order), vpar) for c in curves for order in (4, 8, 16)]
            for u, v in points:
                for flat in (False, True):
                    got, want = _reduced_germs(h, u, v, flat), _reference_reduced_germs(h, u, v, flat)
                    assert _germ_shape(got) == _germ_shape(want), (h, u, v, flat)
                    series += isinstance(u, LaurentSeries)
        assert series >= 5 * 6 * 3 * 2

    def test_a_tilt_germ_build_makes_four_series_products(self, monkeypatch):
        c = TiltCurve(-1, Fraction(3, 2), Fraction(5, 3))
        u, vpar = expand_u(c, 8), LaurentSeries.monomial(1, 1)
        products = []
        original = LaurentSeries.__mul__

        def counted(self, other):
            if isinstance(other, LaurentSeries):
                products.append(1)
            return original(self, other)

        monkeypatch.setattr(LaurentSeries, "__mul__", counted)
        _reduced_germs(c.h, u, vpar)
        assert len(products) == 4
        products.clear()
        _reduced_germs(c.h, u, vpar, flat=True)
        assert len(products) == 1


# The reduced closed form and its ring guard as written before the reduced
# table: the closed form combined on the class's Fraction fields, the ring
# side through ``ring.degree``, kept verbatim as their references.


def _reference_reduced_parts(g: BaseGeometry, v: ChernVector, u, vpar) -> tuple:
    """Closed form of the reduced charge as (re, im), over any scalar."""
    return charges._combine(_reference_reduced_coefficients(g, v), charges._reduced_germs(g.h, u, vpar))


def _reference_full_parts(g: BaseGeometry, v: ChernVector, u, vpar, d: DivisorB) -> tuple:
    """``charges._full_parts`` as written before it twisted the class and
    applied the kept reduced table: the full coefficients combined with the
    germs rebuilt at (u, vpar)."""
    return charges._combine(_reference_full_coefficients(g, v, d), charges._reduced_germs(g.h, u, vpar))


def _reference_ring_parts(g: BaseGeometry, v: ChernVector, powers: tuple) -> tuple:
    """(w^2 ch1 / 2, w ch2 - w^3 ch0 / 6) through ring products, from the
    powers (w, w^2, w^3) of the polarization w (``_reference_powers``)."""
    om, om2, om3 = powers
    return degree(g, om2, v) / 2, degree(g, om, v) - om3 * v.n / 6


def _reference_checked_reduced_parts(g: BaseGeometry, v: ChernVector, u, vpar, powers: tuple) -> tuple:
    """The reduced closed form at (u, vpar), after checking it against the
    ring products at the powers of w = u*Theta + vpar*pull(H)."""
    charges._require_positive("u", u)
    charges._require_positive("vpar", vpar)
    parts = _reference_reduced_parts(g, v, u, vpar)
    if parts != _reference_ring_parts(g, v, powers):
        raise ComputationFault("reduced charge closed form disagrees with ring evaluation")
    return parts


def _reference_powers(g: BaseGeometry, u, vpar) -> tuple:
    """``ring.divisor_powers`` of w = u*Theta + vpar*pull(H), with the
    degree of w^3 as a value, as it was returned."""
    om, om2, om3 = divisor_powers(g, DivisorX(u, g.hb_divisor.scale(vpar)))
    return om, om2, ring._divided(*om3)


def _typed(values) -> list:
    return [(type(x), x) for x in values]


class TestReducedTable:
    """The reduced closed form through the kept table on numerators, and
    ``reduced_charge`` after the per-geometry proof, equal the
    Fraction-field forms (the reference checked against the ring path at
    each point) in value and type, at Fraction points and at Poly2
    symbols; the ring side on numerators equals its reference too."""

    def _cases(self, rng):
        for g in fresh_geometries():
            points = [(Poly2.u(), Poly2.v())]
            points += [(Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                       for _ in range(3)]
            for u, vpar in points:
                vectors = [ChernVector.zero(g.rank)] + [_rand_vector(rng, g.rank) for _ in range(8)]
                vectors[1] = ChernVector._ints([vectors[1]._nums[0], 0, *vectors[1]._nums[2:]], vectors[1]._den)
                for v in vectors:
                    yield g, v, u, vpar

    def test_parts_match_the_reference(self):
        symbolic = 0
        for g, v, u, vpar in self._cases(random.Random(31)):
            want = _typed(_reference_reduced_parts(g, v, u, vpar))
            parts = _reduced_numerators(g, v, _germ_numerators(g.h, u, vpar))
            assert _typed(ring._divided(*part) for part in parts) == want
            out = reduced_charge(g, v, u, vpar)
            assert _typed((out.re, out.im)) == want
            assert want == _typed(_reference_checked_reduced_parts(g, v, u, vpar, _reference_powers(g, u, vpar)))
            symbolic += isinstance(u, Poly2)
        assert symbolic == 11 * 9

    def test_ring_side_matches_the_reference(self):
        for g, v, u, vpar in self._cases(random.Random(32)):
            got = _ring_parts(g, v, divisor_powers(g, DivisorX(u, g.hb_divisor.scale(vpar))))
            want = _reference_ring_parts(g, v, _reference_powers(g, u, vpar))
            assert _typed(ring._divided(*part) for part in got) == _typed(want)

    def test_the_guard_raises_on_a_wrong_table_entry(self, monkeypatch):
        """A wrong coefficient, written into the kept table (im's
        coefficient on u, a, read as a + s), disagrees with the ring side,
        so the reduced charge at a Fraction point raises: the per-geometry
        proof runs before the closed form is read."""
        monkeypatch.setattr(charges, "_reduced_table", _with_entry(charges._reduced_table, -1, 5))
        g = BaseGeometry(1, [[1]], [1], Fraction(-1), 0, 1)
        with pytest.raises(ComputationFault):
            reduced_charge(g, cv(1, 1, d(0), d(0), 0, 1), Fraction(1, 2), 3)


def _with_entry(writer, i: int, k: int, factor: int = 1):
    """A table writer whose table has one more term: factor times class
    coordinate i (a flat index, negative from the end) on output k."""

    def mutant(g):
        rows, den, width = writer(g)
        rows = [list(row) for row in rows]
        rows[i].append((0, k, factor * den))
        return rows, den, width

    return mutant


class TestWrittenTables:
    """The charge tables are written from the lattice's integers: the
    reduced one directly, the full one composed from it and the product by
    exp(-pull(d)) (both pinned against the read-off in
    ``test_asymptotics``)."""

    def test_a_cold_build_makes_no_poly2(self, monkeypatch):
        """Building both charge tables on a fresh geometry constructs no
        ``Poly2`` (counted at ``Poly2._store``)."""
        built = []
        original = Poly2._store
        monkeypatch.setattr(Poly2, "_store", lambda self, *form: built.append(1) or original(self, *form))
        for g in table_geometries():
            for kind in (ChargeKind.FULL, ChargeKind.REDUCED):
                ring._kept(g, charges._charge_table, kind)
        assert built == []

    def test_a_mutated_reduced_writer_changes_the_full_table(self, monkeypatch):
        """The full table keeps no entry of its own: doubling the reduced
        writer's H.S / 2 entries, or giving im's coefficient on u a term in
        s, changes the composed full table on every geometry, as it changes
        the table read off the reduced closed form through the twist."""
        def doubled_hs(g):
            rows, den, width = writer(g)
            return [[(j, k, 2 * c if k == 2 else c) for j, k, c in row] for row in rows], den, width

        writer = charges._reduced_table
        for mutant in (doubled_hs, _with_entry(writer, -1, 5)):
            for g in table_geometries():
                want = ring._kept(g, charges._charge_table, ChargeKind.FULL)
                fresh = BaseGeometry(g.rank, g.gram, g.hb, g.h, g.vprime, g.m0)
                monkeypatch.setattr(charges, "_reduced_table", mutant)
                got = ring._kept(fresh, charges._charge_table, ChargeKind.FULL)
                monkeypatch.undo()
                assert table_sets(got) != table_sets(want)

    def test_the_x_and_n_germs_stay_empty(self, monkeypatch):
        """A reduced table whose coefficient on the x germ (re's first) or
        the n germ (im's last) reaches a class with n = x = 0 makes the full
        table's composition raise."""
        for k in (1, 6):
            monkeypatch.setattr(charges, "_reduced_table", _with_entry(charges._reduced_table, -2, k))
            with pytest.raises(ComputationFault):
                charges._charge_table(BaseGeometry(1, [[1]], [1], Fraction(-1)), ChargeKind.FULL)
            monkeypatch.undo()


class TestFullParts:
    """``_full_parts`` applies the kept full table (``_coefficients``, the
    reduced table composed with the product by exp(-pull(d))), on germ
    numerators at symbols built once per geometry and on the point's at a
    point; it gives what the full coefficients on germs rebuilt per class
    gave, in value and type."""

    def _classes(self, rng, g):
        z = g.zero_divisor()
        yield ChernVector.zero(g.rank)
        yield ChernVector(0, 0, z, z, 0, Fraction(5, 3))
        for _ in range(6):
            v = _rand_vector(rng, g.rank)
            yield v
            yield ChernVector._ints([0, 0, *v._nums[2:]], v._den)

    def test_parts_match_the_reference(self):
        rng = random.Random(51)
        usym, vsym = Poly2.u(), Poly2.v()
        for g in fresh_geometries() + table_geometries()[-5:]:
            symbolic = _germ_numerators(g.h, usym, vsym)
            for v in self._classes(rng, g):
                dd = _rand_divisor(rng, g.rank, -4, 4)
                for u, vpar, germs in ((usym, vsym, symbolic), (Fraction(rng.randint(1, 9), 4), Fraction(7, 3), None)):
                    germs = germs or _germ_numerators(g.h, u, vpar)
                    assert _typed(_full_parts(g, v, dd, germs)) == _typed(_reference_full_parts(g, v, u, vpar, dd))

    def test_onedim_transform_charge_matches_the_reference(self):
        rng = random.Random(52)
        for g in fresh_geometries():
            for _ in range(8):
                eta = _rand_divisor(rng, g.rank, -5, 5)
                v = ChernVector(0, 0, g.zero_divisor(), eta, Fraction(rng.randint(-5, 5), 3), rng.randint(-5, 5))
                u, vpar, dbar = Fraction(rng.randint(1, 9), 5), Fraction(rng.randint(1, 9), 2), _rand_divisor(rng, g.rank)
                got = onedim_transform_charge(g, v, u, vpar, dbar)
                want = _reference_full_parts(g, phi(g, v), u, vpar, dbar + g.hb_divisor.scale(g.h / 2))
                assert _typed((got.re, got.im)) == _typed(want)


def _reference_flat_full_table(g: BaseGeometry) -> tuple[list, int, int]:
    """``charges._full_table`` as written when it covered classes with
    n = x = 0 only, on the right factor (1, d), kept verbatim as its
    reference: the kept reduced table applied to the class twisted by
    pull(d), with -ch3 of the twist as re's constant, the x and n germs left
    out; five outputs, re (const, H.S / 2), im (0, H.eta, a)."""
    rows, den, width = ring._kept(g, ring._structure_constants)
    reduced, rden, _ = ring._kept(g, charges._charge_table, ChargeKind.REDUCED)
    composed: dict = {}
    for b, j, sign in ((0, 0, 1), *((2 + p, p + 1, -1) for p in range(g.rank))):
        for i, k, c in rows[b]:
            if i > 1:
                terms = [(out, sign * c * e) for _, out, e in reduced[k]]
                if k == width - 1:
                    terms.append((0, -sign * c * rden))
                for out, e in terms:
                    composed[i, j, out] = composed.get((i, j, out), 0) + e
    if any(c for (_, _, out), c in composed.items() if out in (1, 6)):
        raise ComputationFault("full charge of a class with n = x = 0 reaches an x or n germ")
    outputs = {0: 0, 2: 1, 3: 2, 4: 3, 5: 4}
    return ring._written([(i, j, outputs[out], c) for (i, j, out), c in composed.items() if out in outputs],
                         width, 5, den * rden)


class TestCoefficients:
    """The full kind's coefficients, the reduced table composed with the
    product by exp(-pull(d)), are those of the class twisted in the ring
    (``_reference_full_coefficients``), for every class."""

    def _classes(self, rng, g):
        r, u, v = g.rank, Poly2.u(), Poly2.v()
        yield ChernVector.zero(r)
        yield ChernVector._ints([Poly2._ints({(i + 1, 0): 1}, 1) for i in range(2 * r + 4)], 1)
        yield ChernVector._ints([u, Fraction(0), *[v] * r, *[u * v] * r, Fraction(3), u], 1)
        for _ in range(4):
            yield _rand_vector(rng, r)

    def test_equal_to_the_ring_twist_in_value_and_type(self):
        """On every lattice of ``table_geometries``, for classes with n and
        x nonzero, at ``Fraction`` and ``Poly2`` coordinates, and random d
        (the reference's exact int zeros read as the ``Fraction`` zero)."""
        rng = random.Random(53)
        full = 0
        for g in table_geometries():
            for v in self._classes(rng, g):
                for dd in (g.zero_divisor(), _rand_divisor(rng, g.rank, -4, 4), _rand_divisor(rng, g.rank, -4, 4)):
                    nums, den = charges._coefficients(g, v, ChargeKind.FULL, dd)
                    (c0, re), (c1, im) = _reference_full_coefficients(g, v, dd)
                    want = [Fraction(x) if type(x) is int else x for x in (c0, *re, c1, *im)]
                    assert _typed(ring._divided(x, den) for x in nums) == _typed(want)
                    full += bool(v.n and v.x)
        assert full >= 4 * len(table_geometries())

    def test_flat_classes_keep_the_flat_only_table(self):
        """On classes with n = x = 0, the outputs other than the x and n
        germs' equal the flat-only table's (``_reference_flat_full_table``)
        on the right factor (1, d), and those two are zero."""
        rng = random.Random(54)
        for g in table_geometries():
            flat_table = _reference_flat_full_table(g)
            for _ in range(6):
                v = _rand_vector(rng, g.rank)
                v = ChernVector._ints([0, 0, *v._nums[2:]], v._den)
                dd = _rand_divisor(rng, g.rank, -4, 4)
                nums, den = charges._coefficients(g, v, ChargeKind.FULL, dd)
                dnums, dden = ring._over_common_denominator(dd.coords)
                want, wden = ring._contract(flat_table, (v._nums, v._den), ((dden, *dnums), dden))
                got = [Fraction(x, den) for x in nums]
                assert got[1] == got[6] == 0
                assert [got[k] for k in (0, 2, 3, 4, 5)] == [Fraction(x, wden) for x in want]

    def test_a_divisor_of_another_rank_raises(self):
        g = geometry_for(Fraction(-1))
        with pytest.raises(DimensionError, match="^divisor rank does not match geometry rank$"):
            charges._coefficients(g, cv(0, 0, d(1), d(2), 3, 4), ChargeKind.FULL, d(1, 2))


def _reference_coefficients(g, v, kind, dd):
    """``_coefficients`` as it was before the right factor was built once
    for several classes: exp(-pull(d)) written for each class, at the zero
    divisor for d = None, with d.d only for a class with n or x nonzero."""
    right = (1,), 1
    if kind is ChargeKind.FULL:
        dd = dd if dd is not None else g.zero_divisor()
        if dd.rank != g.rank:
            raise DimensionError("divisor rank does not match geometry rank")
        ds, L = ring._numerators(dd.coords)
        rows, gd = ring._kept(g, ring._gram_ints)
        s = -2 * gd * L
        q = ring._form(rows, ds, ds) if v._nums[0] or v._nums[1] else 0
        right = [-s * L, 0, *[s * c for c in ds], *[0] * g.rank, q, 0], -s * L
    return ring._contract(ring._kept(g, charges._charge_table, kind), (v._nums, v._den), right)


class TestRightFactor:
    """The right factor is built once for a pair (``charges._right_factor``)
    and is the unit at d = None and d = 0; the coefficients keep their
    values."""

    def test_suite_cases_keep_their_coefficients(self, monkeypatch):
        """Every class coefficient the threshold, correspondence and h0
        suites read, by any route, equals the per-class reference's in value
        and type, and at d = None it is bit for bit the one at d = 0."""
        seen = []
        original = charges._coefficients

        def recording(g, v, kind, dd, right=None):
            out = original(g, v, kind, dd, right)
            seen.append((g, v, kind, dd, out))
            return out

        monkeypatch.setattr(charges, "_coefficients", recording)
        for runner in (suites.suite_threshold, suites.suite_correspondence, suites.suite_h0):
            assert runner(cases=24).passed
        monkeypatch.undo()
        for g in {case[0] for case in seen}:
            unit = (1, *[0] * (2 * g.rank + 3)), 1
            assert all(charges._right_factor(g, ChargeKind.FULL, x, True) == unit for x in (None, g.zero_divisor()))
        kinds = {ChargeKind.REDUCED: 0, ChargeKind.FULL: 0}
        for g, v, kind, dd, (nums, den) in seen:
            want, wden = _reference_coefficients(g, v, kind, dd)
            assert _typed(ring._divided(x, den) for x in nums) == _typed(ring._divided(x, wden) for x in want)
            if kind is ChargeKind.FULL:
                none, zero = (charges._coefficients(g, v, kind, x) for x in (None, g.zero_divisor()))
                assert none == zero
                want, wden = _reference_coefficients(g, v, kind, None)
                got = _typed(ring._divided(x, none[1]) for x in none[0])
                assert got == _typed(ring._divided(x, wden) for x in want)
            kinds[kind] += 1
        assert kinds[ChargeKind.REDUCED] >= 40 and kinds[ChargeKind.FULL] >= 150, kinds

    def test_a_pair_builds_one_factor(self, monkeypatch):
        """``_cross_coefficients`` and ``_cross_poly`` build one right factor
        for both classes, and one with d.d when either class meets f."""
        calls = []
        original = charges._right_factor
        monkeypatch.setattr(charges, "_right_factor", lambda *args: calls.append(args) or original(*args))
        g, rng = geometry_for(Fraction(-1)), random.Random(57)
        c = OneDimCurve(-1, 1, 3)
        flat = [ChernVector._ints([0, 0, *_rand_vector(rng, 1)._nums[2:]], 1) for _ in range(2)]
        dd = _rand_divisor(rng, 1, -4, 4)
        list(asymptotics._cross_coefficients(g, *flat, c, ChargeKind.FULL, 8, dd))
        asymptotics._cross_poly(g, *flat, ChargeKind.FULL, dd)
        m = _rand_vector(rng, 1)
        asymptotics._cross_poly(g, m, flat[0], ChargeKind.FULL, dd)
        full = [fiber for _, kind, _, fiber in calls if kind is ChargeKind.FULL]
        assert full == [False, False, bool(m.n or m.x)]
