"""The suites' case draws and labels: integer draws (vectors and
one-dimensional classes) that equal the Fraction-built ones, and labels
formatted only when a check fails."""

import hashlib
import random
from fractions import Fraction

import pytest

from ellstab import suites
from ellstab.ring import ChernVector, DivisorB, pair_h
from ellstab.suites import (
    SuiteReport,
    _rand_divisor,
    _rand_onedim_class,
    _rand_q,
    _rand_vector,
    geometry_for,
)


def _reference_rand_vector(rng: random.Random, rank: int) -> ChernVector:
    """The generator the integer draws replace: Fractions through the
    coercing constructor."""
    return ChernVector(_rand_q(rng), _rand_q(rng), _rand_divisor(rng, rank), _rand_divisor(rng, rank),
                       _rand_q(rng), _rand_q(rng))


@pytest.mark.parametrize("rank", [1, 2])
def test_rand_vector_draws_as_the_fraction_generator(rank):
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got, want = _rand_vector(rng, rank), _reference_rand_vector(ref, rank)
            assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))
        assert rng.getstate() == ref.getstate()


def _reference_rand_onedim_class(rng: random.Random, g, y, z) -> ChernVector:
    """The one-dimensional draw the integer one replaces: Fractions,
    ``DivisorB`` and the coercing constructor."""
    zd = DivisorB.zero(g.rank)
    while True:
        eta = DivisorB([Fraction(rng.randint(0, 5)) for _ in range(g.rank)])
        a = _rand_q(rng)
        s = _rand_q(rng)
        den = (g.h * y + z) * pair_h(g, eta) + y * a
        if den > 0:
            return ChernVector(0, 0, zd, eta, a, s)


@pytest.mark.parametrize("rank2", [False, True])
@pytest.mark.parametrize("h", [Fraction(-1), Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("y, z", [(1, 2), (3, 1), (Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(5, 4))])
def test_rand_onedim_class_draws_as_the_fraction_generator(rank2, h, y, z):
    g = geometry_for(h, rank2)
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got, want = _rand_onedim_class(rng, g, y, z), _reference_rand_onedim_class(ref, g, y, z)
            assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))
        assert rng.getstate() == ref.getstate()


# Sizes small enough for tier-1 that still reach every branch of a suite:
# im-identity's off-curve checks at i = 0 and 100, h0's n = m at i = 0 and 9.
SIZES = {"involution": 20, "swap": 24, "chow": 5, "im-identity": 101, "threshold": 6,
         "correspondence": 8, "h0": 10, "phases": None}

# sha256 of repr((cases, failures, verdicts)) at seeds 0 and 7, first 16 hex
# digits: as the suites run, and with every check failing so that the
# failures hold the first eight labels.  Taken from the Fraction-built draws
# and the f-string labels that the integer draws and lazy labels replace.
DIGESTS = {
    "involution": (("71210472520b19ae", "71210472520b19ae"), ("1b7b6aea3e94b1f3", "595dd8a66d9caccb")),
    "swap": (("15baf825945ed171", "15baf825945ed171"), ("21b0eaa01e04d6f2", "908826facb0c45a6")),
    "chow": (("b7e82cd989d94df0", "b7e82cd989d94df0"), ("7e91c0ba6647407b", "85f860ffe35beeaf")),
    "im-identity": (("a30684336e595fe8", "a30684336e595fe8"), ("b86da5f4b4ad58c2", "26989001ed524e33")),
    "threshold": (("ce83caa6ed9a7912", "ce83caa6ed9a7912"), ("52efb072a6dbdf19", "d4a46005a614e747")),
    "correspondence": (("5758635812da7040", "5758635812da7040"), ("a83dc524daf93806", "defcf7f2b0dd583a")),
    "h0": (("93c14ba7df89c46f", "a91e4793ad138c50"), ("7b0153f0eb03c7d6", "1ad75f13d3bb7fb9")),
    "phases": (("98a50a21710f05e6", "98a50a21710f05e6"), ("9c2942255410b55f", "9c2942255410b55f")),
}


def _digests(name):
    reports = [suites.run_suite(name, SIZES[name], seed) for seed in (0, 7)]
    return tuple(hashlib.sha256(repr((r.cases, r.failures, r.verdicts)).encode()).hexdigest()[:16]
                 for r in reports)


def _fail_every_check(monkeypatch):
    original = SuiteReport.check
    monkeypatch.setattr(SuiteReport, "check", lambda report, ok, label: original(report, False, label))


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_cases_failures_and_verdicts_are_pinned(name, monkeypatch):
    assert set(DIGESTS) == set(suites.SUITE_NAMES)
    passing, failing = DIGESTS[name]
    assert _digests(name) == passing
    _fail_every_check(monkeypatch)
    assert _digests(name) == failing


# The same digests for the two germ suites at both series orders, at larger
# sizes, taken from the Fraction-built one-dimensional draws, the whole
# cross series and the Fraction closed form of u(v).
GERM_DIGESTS = {
    "correspondence": (30, ("abd7550024924d9e", "abd7550024924d9e"), ("9f909a8a4d7a352c", "6e0fb052b2397ab3")),
    "threshold": (15, ("acf261c6e48e84fd", "acf261c6e48e84fd"), ("026c9361e02f1f21", "05dca2fc031fe6a9")),
}


@pytest.mark.parametrize("order", [8, 16])
@pytest.mark.parametrize("name", sorted(GERM_DIGESTS))
def test_germ_suites_are_pinned_at_both_orders(name, order, monkeypatch):
    size, passing, failing = GERM_DIGESTS[name]

    def digests():
        reports = [suites.run_suite(name, size, seed, order) for seed in (0, 7)]
        return tuple(hashlib.sha256(repr((r.cases, r.failures, r.verdicts)).encode()).hexdigest()[:16]
                     for r in reports)

    assert digests() == passing
    _fail_every_check(monkeypatch)
    assert digests() == failing


class _Unreadable:
    def __str__(self):
        raise AssertionError("a label was formatted on a passing check")


def test_a_passing_check_never_formats_its_label(monkeypatch):
    report = SuiteReport("x")
    report.check(True, _Unreadable())
    assert (report.cases, report.failures) == (1, [])
    monkeypatch.setattr(suites._Label, "__str__", _Unreadable.__str__)
    for name in suites.SUITE_NAMES:
        assert suites.run_suite(name, SIZES[name], 3).passed


def test_a_failing_check_stores_the_old_label_text(monkeypatch):
    _fail_every_check(monkeypatch)
    report = suites.suite_involution(2, seed=5)
    rng = random.Random(5)
    geoms = [geometry_for(h, rank2=(i % 2 == 1)) for i, h in enumerate(suites.H_SET_INVOLUTION)]
    want = [f"case {i} h={g.h} v={_reference_rand_vector(rng, g.rank)}" for i in range(2) for g in geoms]
    assert report.failures == want
    label = suites._Label("case {} e={}", 4, want)
    assert str(label) == f"case {4} e={want}" == f"{label}"
