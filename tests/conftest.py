import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ellstab import ring
from ellstab.ring import BaseGeometry, ChernVector, DivisorB
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
    """Record each product (``ring._contract``, which ``mul`` and ``degree``
    run) with a factor that is not all Fraction, and return the list of
    records."""
    calls = []
    original = ring._contract

    def counted(table, den, v1, v2):
        if not all(type(c) is Fraction for c in v1.coordinates() + v2.coordinates()):
            calls.append(1)
        return original(table, den, v1, v2)

    monkeypatch.setattr(ring, "_contract", counted)
    return calls


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
