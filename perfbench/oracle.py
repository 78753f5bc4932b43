"""Brute-force reference answers, written independently of fracpack.

Every level-n word over {0, 1, u} is enumerated as the integer pair
(P, Q) with projection (P + Q*u) / 4**n.  Rational u (finite explicit
sequences) is evaluated exactly.  Irrational u is replaced by the strict
enclosure  lo < u < lo + 4**-E / 3,  where lo sums the terms up to E and
the tail of later terms is positive and below (4/3) * 4**-(E+1).  A
decision whose answer differs between the two ends of that enclosure
raises Undecided instead of guessing.

Nothing here imports fracpack; the descriptor grammar and the definitions
(ball counts, grid cells, greedy packing, cylinder counts, influence
records, binomial tails) are re-derived from their documented meaning.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import lru_cache


class Undecided(ArithmeticError):
    """The enclosure of u is too coarse to decide a comparison."""


def _terms(desc: str, bound: int) -> tuple[list[int], bool]:
    """Exponents up to bound (every term of a finite list), and whether the list is infinite."""
    if desc == "paper":
        out, j = [], 1
        while 3 ** (3 ** j) <= bound:
            out.append(3 ** (3 ** j))
            j += 1
        return out, True
    if desc.startswith("geometric:"):
        params = dict(part.split("=") for part in desc[len("geometric:"):].split(","))
        b, start = int(params["b"]), int(params["start"])
        out, t = [], start
        while t <= bound:
            out.append(t)
            t *= b
        return out, True
    if desc.startswith("explicit:"):
        return [int(t) for t in desc[len("explicit:"):].split(",")], False
    raise ValueError(f"unknown descriptor {desc!r}")


class U:
    """u as lo/den < u < hi/den, or exactly lo/den when lo == hi."""

    def __init__(self, desc: str, E: int = 120):
        ts, infinite = _terms(desc, E)
        if infinite:
            self.den = 3 * 4 ** E
            self.lo = 3 * sum(4 ** (E - t) for t in ts)
            self.hi = self.lo + 1
        else:
            top = ts[-1]
            self.den = 4 ** top
            self.lo = self.hi = sum(4 ** (top - t) for t in ts)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def sign(self, A: int, B: int) -> int:
        """Sign of A + B*u over every admissible u."""
        s_lo = _sgn(A * self.den + B * self.lo)
        if self.exact:
            return s_lo
        s_hi = _sgn(A * self.den + B * self.hi)
        # The value is linear in u and u lies strictly inside the enclosure,
        # so a zero at one end takes the sign of the other end.
        if s_lo == s_hi or s_hi == 0:
            return s_lo
        if s_lo == 0:
            return s_hi
        raise Undecided(f"sign of {A} + {B}*u")

    def floor(self, P: int, Q: int) -> int:
        """floor(P + Q*u) for Q >= 0."""
        f = (P * self.den + Q * self.lo) // self.den
        if self.exact or Q == 0:
            return f
        # Q*u ranges over an open interval, so a top end of exactly f + 1 is fine.
        if P * self.den + Q * self.hi > (f + 1) * self.den:
            raise Undecided(f"floor of {P} + {Q}*u")
        return f


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


class Level:
    """The 3**n level-n words of one sequence as (P, Q) pairs, sorted by value."""

    def __init__(self, desc: str, n: int):
        u = self.u = U(desc)
        P, Q = [0], [0]
        for k in range(1, n + 1):
            c = 4 ** (n - k)
            P = [p + d for p in P for d in (0, c, 0)]
            Q = [q + d for q in Q for d in (0, 0, c)]
        self.pairs = sorted(zip(P, Q), key=lambda pq: (pq[0] * u.den + pq[1] * u.lo, pq[1]))
        # keys[i] <= value * den <= keys[i] + slack for every word
        self.keys = [p * u.den + q * u.lo for p, q in self.pairs]
        self.slack = max(Q) * (u.hi - u.lo)

    def count(self, A: int, B: int, k: int, strict: bool) -> int:
        """Words whose value is below (A + B*u) / k, or at most it unless strict.

        Values are in units of 4**-n and k > 0.  Words far from the
        threshold are counted by position in the sorted keys; the few
        whose enclosure overlaps the threshold's are decided exactly.
        """
        u = self.u
        ends = (A * u.den + B * u.lo, A * u.den + B * u.hi)
        i0 = bisect.bisect_left(self.keys, min(ends) // k - self.slack)
        i1 = bisect.bisect_right(self.keys, -(-max(ends) // k))
        total = i0
        for P, Q in self.pairs[i0:i1]:
            s = u.sign(k * P - A, k * Q - B)
            total += s < 0 or (s == 0 and not strict)
        return total


@lru_cache(maxsize=None)
def level(desc: str, n: int) -> Level:
    return Level(desc, n)


def project(word: str) -> tuple[int, int, int]:
    """(P, Q, L): the word's projection is (P + Q*u) / 4**L."""
    L = len(word)
    P = sum(4 ** (L - 1 - i) for i, ch in enumerate(word) if ch == "1")
    Q = sum(4 ** (L - 1 - i) for i, ch in enumerate(word) if ch.lower() == "u")
    return P, Q, L


def ball_count(desc: str, n: int, center: str, C: Fraction) -> int:
    """Level-n words whose projection lies within C * 4**-n of the centre word's."""
    Pc, Qc, L = project(center)
    # Centre and radius in units of 4**-n, over the common denominator k.
    up, down = 4 ** max(0, n - L), 4 ** max(0, L - n)
    k = C.denominator * down
    A, B, R = Pc * up * C.denominator, Qc * up * C.denominator, C.numerator * down
    lv = level(desc, n)
    return lv.count(A + R, B, k, strict=False) - lv.count(A - R, B, k, strict=True)


def box_cells(desc: str, n: int) -> int:
    """Occupied half-open cells [m, m+1) * 4**-n at level n."""
    lv = level(desc, n)
    return len({lv.u.floor(P, Q) for P, Q in lv.pairs})


def pack_accepted(desc: str, n: int, delta: Fraction) -> int:
    """Greedy sweep over the distinct level-n points in increasing order."""
    lv = level(desc, n)
    u = lv.u
    if u.exact:
        # Exact values scaled by 4**n * den; every point has Q = 0 from here on.
        pts = [(v, 0) for v in sorted(set(lv.keys))]
        scale = u.den
    else:
        # 1 and u are rationally independent, so distinct pairs are distinct points.
        pts = lv.pairs
        for (P1, Q1), (P2, Q2) in zip(pts, pts[1:]):
            if u.sign(P2 - P1, Q2 - Q1) <= 0:
                raise Undecided("point order")
        scale = 1
    dn, dd = delta.numerator, delta.denominator
    accepted, last = 0, None
    for P, Q in pts:
        # (P - last_P + (Q - last_Q) * u) / 4**n > delta, scaled by 4**n * dd.
        if last is None or u.sign((P - last[0]) * dd - dn * 4 ** n * scale,
                                  (Q - last[1]) * dd) > 0:
            accepted += 1
            last = (P, Q)
    return accepted


def cylinder_counts(desc: str, n: int, lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """(contained, intersecting) level-n cylinders [x, x + 4**-n] against [lo, hi]."""
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = int(lo * 4 ** n * d), int(hi * 4 ** n * d)
    lv = level(desc, n)
    # A cylinder meets [lo, hi] when lo - 4**-n <= x <= hi, and lies inside
    # it when lo <= x <= hi - 4**-n.
    meet = lv.count(b, 0, d, strict=False) - lv.count(a - d, 0, d, strict=True)
    inner = lv.count(b - d, 0, d, strict=False) - lv.count(a, 0, d, strict=True)
    return max(0, inner), meet


def influence_positions(desc: str, word: str, j: int) -> list[tuple[int, int]]:
    """(i, k) records: lam_k < j - i <= lam_{k+1}, a u at i and 0 at i + lam_1..i + lam_k."""
    all_terms, infinite = _terms(desc, j)
    out = []
    for i in range(1, j):
        d = j - i
        k = sum(1 for t in all_terms if t < d)
        if not infinite and k >= len(all_terms):
            continue  # the finite list has no window containing d
        if word[i - 1] == "u" and all(word[i - 1 + all_terms[m]] == "0" for m in range(k)):
            out.append((i, k))
    return out


def binom_tail(N: int, p: Fraction, M: int) -> Fraction:
    """P[Binomial(N, p) <= M] as an exact fraction."""
    a, b = p.numerator, p.denominator
    M = min(M, N)
    num = sum(math.comb(N, m) * a ** m * (b - a) ** (N - m) for m in range(M + 1))
    return Fraction(num, b ** N)


def binom_pmf(N: int, p: Fraction) -> list[Fraction]:
    a, b = p.numerator, p.denominator
    return [Fraction(math.comb(N, m) * a ** m * (b - a) ** (N - m), b ** N)
            for m in range(N + 1)]
