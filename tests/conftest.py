import contextlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest

from fracpack import IFSSystem, LacunarySequence, make_lacunary, project
from fracpack.numeric import affine_sign_scaled

MASTER_SEED = 0x5EED


@pytest.fixture(scope="session")
def lam_paper():
    return make_lacunary("paper")


@pytest.fixture(scope="session")
def lam_toy():
    return make_lacunary("explicit:2,6,14")


@pytest.fixture(scope="session")
def lam_toy4():
    return make_lacunary("explicit:2,6,14,30")


@pytest.fixture(scope="session")
def sys_paper(lam_paper):
    return IFSSystem(lam_paper)


@pytest.fixture(scope="session")
def sys_toy(lam_toy):
    return IFSSystem(lam_toy)


def exact_value(point, lam) -> Fraction:
    """Collapse p + q*u to a plain rational; only valid when u is rational."""
    u = lam.u_exact()
    return point.p + point.q * u


@contextlib.contextmanager
def walker_only():
    """Close the below-grid gate, so ball and cylinder counts take the
    prefix-tree walk instead of the rank path."""
    with mock.patch.object(LacunarySequence, "below_grid", return_value=False):
        yield


def rational_sign(a, b, lam) -> int:
    """Exact sign of a + b*u for rationals a, b, scaled to a common denominator."""
    a, b = Fraction(a), Fraction(b)
    d = math.lcm(a.denominator, b.denominator)
    return affine_sign_scaled(int(a * d), int(b * d), lam)


def span_count_oracle(lam, n, lo, hi, width) -> tuple[int, int]:
    """(inside, meeting) over all 3**n words, one word at a time.

    The reference for count_span, which takes the same ends as integers
    over one denominator, and for count_in_ball and measure_bounds: a word
    at x spans [x, x + width*4**-n], and each end of that span is placed
    against the rational (p, q) ends lo and hi by one exact sign test.
    """
    w = Fraction(width, 4 ** n)
    inside = meeting = 0
    for t in itertools.product("01u", repeat=n):
        x = project("".join(t))
        if (rational_sign(x.p - hi[0], x.q - hi[1], lam) <= 0
                and rational_sign(x.p + w - lo[0], x.q - lo[1], lam) >= 0):
            meeting += 1
            inside += (rational_sign(x.p - lo[0], x.q - lo[1], lam) >= 0
                       and rational_sign(x.p + w - hi[0], x.q - hi[1], lam) <= 0)
    return inside, meeting


def influence_scan_oracle(w: str, j: int, lam) -> list[tuple[int, int]]:
    """(i, k) of every position influencing j, tested one position at a time.

    The reference for the bitmask scan: i influences j through the window
    k with lam_k < j - i <= lam_{k+1} when it shows u and i + lam_1, ...,
    i + lam_k show 0; a distance past a finite list's last term has no
    window.
    """
    out = []
    for i in range(1, j):
        k = len(lam.terms_below(j - i))
        if lam.term_or_none(k + 1) is None:
            continue
        if w[i - 1] == "u" and all(w[i - 1 + lam.term(m)] == "0" for m in range(1, k + 1)):
            out.append((i, k))
    return out
