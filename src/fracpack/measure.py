"""Certified measure, density and packing estimates for the attractor.

The natural measure assigns mass 3**(-n) to each level-n cylinder, so
for an interval J the number of level-n cylinders inside J (resp.
meeting J) times 3**(-n) is a certified lower (resp. upper) bound for
its mass.  Density ratios use the exact identity 4**(n*s) = 3**n for
s = log 3 / log 4: a count M inside radius C * 4**(-n) certifies the
ratio M / (2*(C+1))**s against the enclosing ball of radius
(C+1) * 4**(-n), with no rounding in the exponent bookkeeping.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .numeric import (
    CapError,
    LacunarySequence,
    SymbolicPoint,
    affine_sign_scaled,
    rational_str,
)
from .ifs import (
    IFSSystem,
    S_DIM,
    _level_keys,
    _over_one_den,
    count_in_ball,
    count_span,
    project,
    validate_word,
)


def _float(x: Fraction, what: str) -> float:
    """float(x), or CapError when x lies beyond float range."""
    try:
        return float(x)
    except OverflowError:
        raise CapError(f"{what} is beyond float range") from None


def _power_scaled(count: int, x: Fraction, sign: int, what: str) -> float:
    """count * x**(sign*s) as a float, for an exact x > 0 and s = S_DIM.

    The float expression count * float(x)**s (sign 1) or
    count / float(x)**s (sign -1) answers whenever x and count convert to
    floats and float(x) is not 0.0.  Past that, the logs of count and of
    x's numerator and denominator give the result, and CapError is raised
    when it lies beyond float range.
    """
    try:
        f = float(x) ** S_DIM
        if f:
            return count * f if sign > 0 else count / f
    except OverflowError:
        pass
    if not count:
        return 0.0
    log = math.log(count) + sign * S_DIM * (math.log(x.numerator) - math.log(x.denominator))
    try:
        return math.exp(log)
    except OverflowError:
        raise CapError(f"{what} is beyond float range") from None


@dataclass(frozen=True)
class MeasureBounds:
    """Certified cylinder-counting mass bounds for one interval and level."""

    n: int
    contained: int
    intersecting: int
    lower: Fraction
    upper: Fraction

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "contained": self.contained,
            "intersecting": self.intersecting,
            "lower": rational_str(self.lower),
            "upper": rational_str(self.upper),
        }


def measure_bounds(sys: IFSSystem, lo: SymbolicPoint, hi: SymbolicPoint,
                   n: int) -> MeasureBounds:
    """Count level-n cylinders inside and meeting the closed interval [lo, hi].

    count_span at width 1, on the four parts of the ends as integer
    numerators over the lcm of their denominators: a cylinder inside
    [lo, hi] counts all its 3**(n-m) descendants both ways, and a leaf
    that crosses an endpoint counts only as meeting [lo, hi].  Lower
    bounds are nondecreasing in n because each contained cylinder splits
    into three contained children.  Past the
    enumeration cap, only a count that would walk raises
    EnumerationCapError; the O(n) rank path answers at any level.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    ends, den = _over_one_den(lo.p, lo.q, hi.p, hi.q)
    contained, intersecting = count_span(sys, n, ends, den, 1, capped=True)
    return MeasureBounds(
        n=n,
        contained=contained,
        intersecting=intersecting,
        lower=Fraction(contained, 3 ** n),
        upper=Fraction(intersecting, 3 ** n),
    )


@dataclass(frozen=True)
class DensityEntry:
    """One certified density bound: M points within C * 4**(-n) of x.

    The bound ratio_bound = M / (2*(C+1))**s certifies
    mass(B(x, r)) / (2*r)**s >= ratio_bound at r = (C+1) * 4**(-n):
    the M cylinders sit inside B(x, r) and carry mass M * 3**(-n),
    while (2*r)**s = (2*(C+1))**s * 3**(-n) exactly.
    """

    n: int
    C: Fraction
    count: int

    @property
    def radius(self) -> Fraction:
        return (self.C + 1) * Fraction(1, 4 ** self.n)

    @property
    def ratio_bound(self) -> float:
        return _power_scaled(self.count, 2 * (self.C + 1), -1, "ratio_bound")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "radius": rational_str(self.radius),
            "count": self.count,
            "ratio_bound": self.ratio_bound,
        }


def density_ratio(sys: IFSSystem, x: SymbolicPoint, n: int,
                  C: Fraction = Fraction(3)) -> DensityEntry:
    """Certified density entry at level n around x.

    Counts, with count_in_ball, the length-n words projecting into the
    closed ball of radius C * 4**(-n) around x.  Requires C >= 1 so that,
    when x truncates a longer word at depth at least n + 1, the word's own
    prefix is always counted and the ratio is at least (2*(C+1))**(-s).
    """
    C = Fraction(C)
    if C < 1:
        raise ValueError("C must be >= 1")
    M = count_in_ball(sys, n, x, C * Fraction(1, 4 ** n)).count
    return DensityEntry(n=n, C=C, count=M)


@dataclass(frozen=True)
class DensityProfile:
    word: str
    C: Fraction
    entries: tuple[DensityEntry, ...]

    def to_dict(self) -> dict:
        return {
            "word": self.word,
            "C": rational_str(self.C),
            "entries": [e.to_dict() for e in self.entries],
        }

    def csv_rows(self) -> list[list]:
        rows = [["n", "radius", "M", "ratio_bound"]]
        for e in self.entries:
            rows.append([e.n, _float(e.radius, "radius"), e.count, e.ratio_bound])
        return rows


def recommended_word_length(lam: LacunarySequence, n_max: int) -> int:
    """Word length that keeps all patterns relevant up to n_max intact.

    Twice the largest exponent step at or below n_max is added as guard;
    with no step that small the minimum n_max + 1 (needed so truncation
    error stays below 4**(-n_max)) is returned.
    """
    terms = lam.terms_below(n_max + 1)
    if not terms:
        return n_max + 1
    gaps = [terms[0]] + [b - a for a, b in zip(terms, terms[1:])]
    nxt = lam.term_or_none(len(terms) + 1)
    if nxt is not None and nxt <= 2 * n_max:
        gaps.append(nxt - terms[-1])
    return n_max + 2 * max(gaps)


def density_profile(sys: IFSSystem, word: str, n_max: int,
                    C: Fraction = Fraction(3)) -> DensityProfile:
    """Density entries at levels 1..n_max around the projection of word.

    The word must be longer than n_max: the center is the exact
    projection of the whole word, and one extra digit already bounds the
    truncation gap at level n by (2/3) * 4**(-n-1), absorbed by the +1 in
    the profile radius.  recommended_word_length gives a comfortable
    margin that also preserves influence patterns.
    """
    w = validate_word(word)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if len(w) < n_max + 1:
        raise ValueError(
            f"word length {len(w)} too short for n_max = {n_max}; "
            f"need at least {n_max + 1}")
    x = project(w)
    entries = tuple(density_ratio(sys, x, n, C) for n in range(1, n_max + 1))
    return DensityProfile(w, Fraction(C), entries)


@dataclass(frozen=True)
class PackingEstimate:
    """Greedy delta-separated center count and the value count * delta**s."""

    n: int
    delta: Fraction
    accepted: int

    @property
    def value(self) -> float:
        return _power_scaled(self.accepted, self.delta, 1, "value")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": rational_str(self.delta),
            "accepted": self.accepted,
            "value": self.value,
        }


def packing_premeasure_estimate(sys: IFSSystem, n: int,
                                delta: Fraction) -> PackingEstimate:
    """Greedy packing count among distinct level-n points.

    Sweeps the level-n keys in order, accepting a point whenever its
    distance to the last accepted one (minimal over all accepted points)
    exceeds delta.  Level n is never built: its keys are the three sorted
    runs D, D + u*4**(n-1) and D + 4**(n-1) of the level-(n-1) keys D of
    _level_keys, the last above the others.  The accepted centers support
    disjoint closed balls of radius delta/2, so accepted * delta**s
    estimates the packing pre-measure sum at gauge delta.

    With delta * 4**n = dnum/dden, that distance exceeds delta exactly
    when X + dQ*4**L*(u - u_J)*dden > 0 for the integer X = dV*dden -
    dnum*4**L and 0 < u - u_J < (4/3)*4**-lam_{J+1} (0 for rational u).
    So X <= -dden rejects: each accepted key jumps past those keys.  X's
    sign decides (dQ's if X == 0) unless X and dQ differ in sign and
    3*|X|*4**m < 4*|dQ|*dden, m = T - L for the tail exponent T = lam_{J+1}
    from _level_keys: affine_sign_scaled does.  An X < 0 that decides
    for the largest |dQ| jumps past its V's block.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    L, N, T, shift, levels, steps = _level_keys(sys, n, keep_q=True)
    for keys in levels:
        pass
    mask = (1 << shift) - 1
    dnum, dden = (delta * 4 ** n).as_integer_ratio()
    gap = dnum << 2 * L
    lam, exact = sys.lam, sys.lam.u_is_rational
    step = gap // dden + exact  # first dV with X > 0 (exact u) or X > -dden
    if not exact:
        # Either m gives 3 * 4**m >= 4*|dQ|, so X >= dden always decides.
        m = min(T - L, shift + dden.bit_length())
        reach = 4 * (mask // 3) * dden  # 4*|dQ|*dden at the largest |dQ|
    # end lies past every level-n key and every x looked up: it ends each run.
    end = (keys[-1] + max(steps) >> shift) + step + 1 << shift
    keys.append(end)
    ceiling = _runs_ceiling(keys, steps).send
    ceiling(None)
    accepted, key = 0, keys[0]
    while key < end:
        accepted, last_V, last_Q = accepted + 1, key >> shift, key & mask
        key = ceiling(last_V + step << shift)
        while not exact and key < end:
            X = ((key >> shift) - last_V) * dden - gap
            if X < 0 and 3 * -X << 2 * m >= reach:
                key = ceiling((key >> shift) + 1 << shift)
                continue
            dQ = (key & mask) - last_Q
            if X * dQ < 0 and 3 * abs(X) << 2 * m < 4 * abs(dQ) * dden:
                # X - dQ*N*dden = 4**L * (dP*dden - dnum); the sign is not 0.
                X = affine_sign_scaled((X - dQ * N * dden) >> 2 * L, dQ * dden, lam)
            if (X or dQ) > 0:
                break
            key = ceiling(key + 1)
    return PackingEstimate(n=n, delta=delta, accepted=accepted)


def _runs_ceiling(keys: list, steps: tuple):
    """Coroutine whose send(x), after one send(None), gives the smallest
    key >= x, below no earlier x, of the sorted runs keys + d, d in steps,
    for keys[0] == 0 and a last key past every other run key and every x.
    A run whose head lies below x moves one or two keys on, and bisects
    only when that is not enough: a sweep that accepts most keys then
    bisects on few lookups."""
    d0, d1, d2 = h0, h1, h2 = steps
    i0 = i1 = i2 = 0
    x = yield
    while True:
        if h0 < x:
            i0 = (i0 + 1 if keys[i0 + 1] + d0 >= x else i0 + 2 if keys[i0 + 2] + d0 >= x
                  else bisect_left(keys, x - d0, i0 + 3))
            h0 = keys[i0] + d0
        if h1 < x:
            i1 = (i1 + 1 if keys[i1 + 1] + d1 >= x else i1 + 2 if keys[i1 + 2] + d1 >= x
                  else bisect_left(keys, x - d1, i1 + 3))
            h1 = keys[i1] + d1
        if h2 < x:
            i2 = (i2 + 1 if keys[i2 + 1] + d2 >= x else i2 + 2 if keys[i2 + 2] + d2 >= x
                  else bisect_left(keys, x - d2, i2 + 3))
            h2 = keys[i2] + d2
        x = yield h0 if h0 < h1 and h0 < h2 else h1 if h1 < h2 else h2


@dataclass(frozen=True)
class BoxCountRow:
    n: int
    cells: int

    @property
    def dim_estimate(self) -> float:
        return math.log(self.cells) / (self.n * math.log(4.0))

    def to_dict(self) -> dict:
        return {"n": self.n, "cells": self.cells, "dim_estimate": self.dim_estimate}


@dataclass(frozen=True)
class BoxCountProfile:
    rows: tuple[BoxCountRow, ...]

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    def csv_rows(self) -> list[list]:
        rows = [["n", "cells", "dim_estimate"]]
        for r in self.rows:
            rows.append([r.n, r.cells, r.dim_estimate])
        return rows


def box_counting_profile(sys: IFSSystem, n_max: int) -> BoxCountProfile:
    """Occupied half-open grid cells [m * 4**(-n), (m+1) * 4**(-n)) per level.

    Row n reads the sorted distinct _level_keys keys v of level n-1, so
    level n_max is never built: a point x there lies in the level-n cell
    c = floor(4**n * x) = (v << 2) >> 2L (a grid-aligned x in the cell it
    starts), which holds its digit-0 child; the digit 1 adds exactly one
    cell, and the digit u less than a third of one (u < 1/3), so the
    occupied cells are those c and c + 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    L, _, _, _, levels, _ = _level_keys(sys, n_max)
    rows = tuple(BoxCountRow(n, _next_level_cells(keys, 2 * L))
                 for n, keys in enumerate(levels, 1))
    return BoxCountProfile(rows)


def _next_level_cells(keys, s: int) -> int:
    """Number of cells c and c + 1 over c = (v << 2) >> s for the keys v."""
    cells = {v << 2 >> s for v in keys}
    return len(cells) + sum(1 for c in cells if c + 1 not in cells)
