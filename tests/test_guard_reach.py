"""Guard reach: a wrong closed form or table entry must make a named suite
fail, or raise ``ComputationFault``, at a small size.

Each mutation below perturbs one transcribed quantity.  The table names
the suites that catch it at ``SIZE`` cases, seed 0: a suite catches a
mutation when it reports a failure or raises ``ComputationFault``.  Every
run starts from fresh geometries, with every package ``lru_cache`` (the
shared suite geometries and the germ cache among them) emptied, so no
table or germ built by the unmutated code is reused; the caches are emptied
again afterwards, so no later test sees a table built by a mutant.

The full charge has no entry of its own: its table is the reduced writer's
composed with the product by exp(-pull(d)) read off the structure
constants, so the reduced mutations reach it.
"""

import pytest

from ellstab import asymptotics, charges, curves, fmt, poly, ring, series, slopes, suites, verify
from ellstab.errors import ComputationFault

SIZE = 5
MODULES = (ring, poly, series, fmt, slopes, charges, curves, asymptotics, verify, suites)
SUITES = ("involution", "swap", "chow", "im-identity", "threshold", "correspondence", "h0")


def _empty_caches():
    for module in MODULES:
        for f in list(vars(module).values()):
            if callable(getattr(f, "cache_clear", None)):
                f.cache_clear()


@pytest.fixture
def fresh_package():
    _empty_caches()
    yield
    _empty_caches()


def _coefficient(original):
    """The reduced writer's coefficient on u w, H.S/2, written H.S: every
    entry on re's second germ doubled."""

    def mutant(g):
        rows, den, width = original(g)
        return [[(j, k, 2 * c if k == 2 else c) for j, k, c in row] for row in rows], den, width

    return mutant


def _germ(original):
    """The reduced charge's im germ hu + vpar, written hu + 2 vpar."""

    def mutant(h, u, vpar, flat=False):
        re, (first, *rest) = original(h, u, vpar, flat)
        return re, (first + vpar, *rest)

    return mutant


def _full_constant(original):
    """The composed full table without its -ch3 constant: every entry on
    re's constant dropped."""

    def mutant(g):
        rows, den, width = original(g)
        return [[(j, k, c) for j, k, c in row if k] for row in rows], den, width

    return mutant


def _transform_entry(original):
    """The forward transform writer's (a, s) entry, 1 written 2: its s -> a
    entry bumped by den."""

    def mutant(g):
        rows, den, width = original(g)
        a, s = width - 2, width - 1
        rows = [list(row) for row in rows]
        rows[s] = [(j, k, c + den if k == a else c) for j, k, c in rows[s]]
        return rows, den, width

    return mutant


def _relation(i: int, j: int, k: int):
    """c_kij and c_kji of the product at h = -1, rank 1, each off by one:
    a typo in one relation line behind ``ring._structure_constants``.
    Flat indices at rank 1: n, x, S, eta, a, s = 0 .. 5."""

    def make(original):
        def mutant(g):
            table, den, width = original(g)
            if g.h == -1 and g.rank == 1:
                bumped = {(i, j, k), (j, i, k)}
                table = [[(jj, kk, c + den * ((ii, jj, kk) in bumped)) for jj, kk, c in row]
                         for ii, row in enumerate(table)]
            return table, den, width

        return mutant

    return make


# mutation: (module, attribute, mutant maker, suites that catch it at SIZE).
# "structure constant" is the relation Theta^2 = h Theta pull(H).  The unit
# on a and on s (c_{a,0,a}, c_{s,0,s}) is caught by no suite at SIZE, and
# has no row.  The full table without -ch3 is caught by correspondence and
# not by h0: at h = 0 with eta = 0 the cross is a multiple of 1/v whatever
# the coefficients are.
REACH = {
    "reduced coefficient": (charges, "_reduced_table", _coefficient, ("im-identity", "threshold")),
    "reduced germ": (charges, "_reduced_germs", _germ, ("im-identity", "threshold")),
    "full constant": (charges, "_full_table", _full_constant, ("correspondence",)),
    "transform entry": (fmt, "_phi_table", _transform_entry, ("involution", "swap", "im-identity")),
    "structure constant": (ring, "_structure_constants", _relation(1, 1, 3), ("chow", "im-identity", "threshold")),
    "Theta f = pt": (ring, "_structure_constants", _relation(1, 4, 5), ("chow", "im-identity", "threshold")),
    "Theta pull(A)": (ring, "_structure_constants", _relation(1, 2, 3), ("chow", "im-identity", "threshold")),
    "Theta Theta pull(A)": (ring, "_structure_constants", _relation(1, 3, 5), ("chow", "im-identity", "threshold")),
    "pull(A) pull(B)": (ring, "_structure_constants", _relation(2, 2, 4), ("chow", "im-identity", "threshold")),
    "pull(A) Theta pull(B)": (ring, "_structure_constants", _relation(2, 3, 5),
                              ("chow", "im-identity", "threshold")),
    "unit on x": (ring, "_structure_constants", _relation(0, 1, 1), ("im-identity", "threshold")),
    "unit on eta": (ring, "_structure_constants", _relation(0, 3, 3), ("threshold",)),
}


def _catches(name: str) -> bool:
    _empty_caches()
    try:
        return bool(suites.run_suite(name, SIZE, 0).failures)
    except ComputationFault:
        return True


def test_the_unmutated_suites_pass(fresh_package):
    for name in SUITES:
        assert not _catches(name), name


@pytest.mark.parametrize("mutation", list(REACH))
def test_each_mutation_is_caught_by_its_suites(mutation, monkeypatch, fresh_package):
    module, attribute, make, catching = REACH[mutation]
    monkeypatch.setattr(module, attribute, make(getattr(module, attribute)))
    for name in catching:
        assert _catches(name), f"{name} misses the {mutation} mutation"
