import contextlib
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from fracpack import IFSSystem, LacunarySequence, make_lacunary, project
from fracpack.numeric import affine_sign_scaled

MASTER_SEED = 0x5EED

# perfbench/oracle.py, the benchmark's brute force, imports nothing from
# fracpack; tests import it in place as "oracle".
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))


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


# The level-key oracle tests run on these.  explicit:1,600 puts a 1200-bit
# step into every key past level 0.
LEVEL_SEQUENCES = ["paper", "geometric:b=3,start=3", "geometric:b=3,start=4",
                   "explicit:1", "explicit:2,6,14", "explicit:1,3,7", "explicit:1,600"]


def full_level_keys(sys, n, keep_q=False):
    """(L, N, T, shift, levels) with every level 0..n built in full.

    The level enumeration that pack, boxcount and distinct_level_points
    used before level n was read as three runs of level n-1, kept as their
    oracle: level k adds the digit 0, 1 or u at weight 4**(n-k) to level
    k-1.  With keep_q a level is a sorted list, (V << 2n) | Q for
    irrational u, or V deduped on every level but the last; otherwise it
    is the set of distinct V.
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
