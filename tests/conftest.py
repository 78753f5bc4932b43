import contextlib
import math
from fractions import Fraction
from unittest import mock

import pytest

# perfbench/oracle.py, the benchmark's brute force, imports nothing from
# fracpack: every expected count, value and sign in these tests comes from
# it.  pyproject.toml puts perfbench on the path.
import oracle
from fracpack import IFSSystem, LacunarySequence, SymbolicPoint, make_lacunary

MASTER_SEED = 0x5EED

# The finite sequence of lam_toy: u = 4**-2 + 4**-6 + 4**-14.
TOY = "explicit:2,6,14"


@pytest.fixture(scope="session")
def lam_paper():
    return make_lacunary("paper")


@pytest.fixture(scope="session")
def lam_toy():
    return make_lacunary(TOY)


@pytest.fixture(scope="session")
def lam_toy4():
    return make_lacunary("explicit:2,6,14,30")


@pytest.fixture(scope="session")
def sys_paper(lam_paper):
    return IFSSystem(lam_paper)


@pytest.fixture(scope="session")
def sys_toy(lam_toy):
    return IFSSystem(lam_toy)


def u_value(desc) -> Fraction:
    """u of a finite sequence, as oracle.U sums it."""
    u = oracle.U(desc)
    assert u.exact, f"u is irrational under {desc}"
    return Fraction(u.lo, u.den)


def word_point(word) -> SymbolicPoint:
    """A word's projection p + q*u, by oracle.project."""
    P, Q, L = oracle.project(word)
    return SymbolicPoint(Fraction(P, 4 ** L), Fraction(Q, 4 ** L))


def exact_value(point, desc) -> Fraction:
    """Collapse p + q*u to a plain rational; desc must be a finite sequence."""
    return point.p + point.q * u_value(desc)


def span_counts(desc, n, lo, hi, width) -> tuple[int, int]:
    """(inside, meeting): level-n words whose span lies inside, or meets, [lo, hi].

    A word at x spans [x, x + width*4**-n]: width 0 is a point (a ball
    count), width 1 its level-n cylinder.  The ends are (p, q) pairs of
    rationals standing for p + q*u.  oracle.level counts the words below
    each end, with ends and spans in units of 4**-n over one denominator k.
    """
    k = math.lcm(*(Fraction(x).denominator for x in (*lo, *hi)))
    (A0, B0), (A1, B1) = ([int(Fraction(x) * k * 4 ** n) for x in end] for end in (lo, hi))
    lv = oracle.level(desc, n)
    w = width * k
    inside = max(0, lv.count(A1 - w, B1, k, False) - lv.count(A0, B0, k, True))
    return inside, lv.count(A1, B1, k, False) - lv.count(A0 - w, B0, k, True)


@contextlib.contextmanager
def walker_only():
    """Close the below-grid gate, so ball and cylinder counts take the
    prefix-tree walk instead of the rank path."""
    with mock.patch.object(LacunarySequence, "below_grid", return_value=False):
        yield


# The level-key tests run on these.  explicit:1,600 puts a 1200-bit step
# into every key past level 0.
LEVEL_SEQUENCES = ["paper", "geometric:b=3,start=3", "geometric:b=3,start=4",
                   "explicit:1", "explicit:2,6,14", "explicit:1,3,7", "explicit:1,600"]


def full_level_keys(sys, n, keep_q=False):
    """(L, N, T, shift, levels) with every level 0..n built in full.

    The key form of _level_keys, built the other way: level k adds the
    digit 0, 1 or u at weight 4**(n-k) to level k-1.  With keep_q a level
    is a sorted list, (V << 2n) | Q for irrational u, or V deduped on
    every level but the last; otherwise it is the set of distinct V.
    Only the key form is checked against it; value order and counts come
    from oracle.level.
    """
    L, N, T = sys.lam.truncation((4 ** n - 1) // 3)
    exact = sys.lam.u_is_rational
    shift = 2 * n if keep_q and not exact else 0
    one, u = 1 << 2 * L + shift, (N << shift) | (shift > 0)
    keys = [0] if keep_q else {0}
    levels = [keys]
    for k in range(1, n + 1):
        w = 4 ** (n - k)
        digits = (0, one * w, u * w)
        if keep_q:
            keys = keys + [v + d for d in digits[1:] for v in keys]
            keys.sort()
            if exact and k < n:
                keys[1:] = [b for a, b in zip(keys, keys[1:]) if a != b]
        else:
            keys = {v + d for v in keys for d in digits}
        levels.append(keys)
    return L, N, T, shift, levels