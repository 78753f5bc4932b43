"""Tests for certified measure bounds, density ratios, packing and box counts."""

import functools
import itertools
import math
from bisect import bisect_left
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracpack import (
    CapError,
    EnumerationCapError,
    IFSSystem,
    S_DIM,
    SymbolicPoint,
    box_counting_profile,
    density_profile,
    density_ratio,
    influence_count,
    make_lacunary,
    measure_bounds,
    packing_premeasure_estimate,
    project,
    recommended_word_length,
)
from fracpack import measure
from fracpack.numeric import _u_enclosure_info, affine_sign_scaled
from conftest import (exact_value, full_level_keys, rational_sign, span_count_oracle,
                      walker_only)

ZERO = SymbolicPoint(F(0), F(0))


def rational_ends(a, b) -> tuple[SymbolicPoint, SymbolicPoint]:
    return SymbolicPoint(F(a), F(0)), SymbolicPoint(F(b), F(0))


def point_order(lam):
    """Sort key that orders points p + q*u by value."""
    return functools.cmp_to_key(lambda s, t: rational_sign(s.p - t.p, s.q - t.q, lam))


dyadics = st.integers(0, 16).map(lambda k: F(k, 16))
quarters = st.integers(0, 4).map(lambda k: F(k, 4))


def brute_cylinders(lam, n, lo: F, hi: F) -> tuple[int, int]:
    """(contained, intersecting) over all 3**n cylinders [x, x + 4**-n]."""
    width = F(1, 4 ** n)
    contained = intersecting = 0
    for t in itertools.product("01u", repeat=n):
        x = exact_value(project("".join(t)), lam)
        if x <= hi and lo <= x + width:
            intersecting += 1
            contained += lo <= x and x + width <= hi
    return contained, intersecting


def level_pairs(n):
    """Scaled (P, Q) of every length-n word."""
    return [(int(x.p * 4 ** n), int(x.q * 4 ** n))
            for x in (project("".join(t)) for t in itertools.product("01u", repeat=n))]


def sign_test_oracle(lam, n, delta):
    """Greedy pack count at level n and cells at levels 1..n, irrational u.

    Sorts points by affine_sign_scaled comparisons, accepts by one sign
    test per step, and floors P + Q*u by refining enclosures of u until
    both ends share a floor.
    """
    def floor(P, Q):
        J = 1
        while Q:
            lo, hi = (Q * e.numerator // e.denominator
                      for e in _u_enclosure_info(lam, J)[:2])
            if lo == hi:
                return P + lo
            J += 1
        return P

    pts = sorted(level_pairs(n), key=functools.cmp_to_key(
        lambda a, b: affine_sign_scaled(a[0] - b[0], a[1] - b[1], lam)))
    dnum, dden = (delta * 4 ** n).as_integer_ratio()
    accepted, last = 0, None
    for P, Q in pts:
        if last is None or affine_sign_scaled(
                (P - last[0]) * dden - dnum, (Q - last[1]) * dden, lam) > 0:
            accepted, last = accepted + 1, (P, Q)
    cells = [len({floor(P, Q) for P, Q in level_pairs(m)}) for m in range(1, n + 1)]
    return accepted, cells


def full_level_pack(sys, n, delta):
    """Greedy pack count by the sweep over the fully built sorted level n.

    The sweep as it stood before level n was read as three runs: one
    bisect past every key that X <= -dden rejects, then, for irrational u,
    key-by-key integer tests with the exact sign test as the fallback.
    """
    L, N, T, shift, levels = full_level_keys(sys, n, keep_q=True)
    keys = levels[-1]
    mask = (1 << shift) - 1
    dnum, dden = (delta * 4 ** n).as_integer_ratio()
    gap = dnum << 2 * L
    lam, exact = sys.lam, sys.lam.u_is_rational
    step = gap // dden + exact
    if not exact:
        m = min(T - L, shift + dden.bit_length())
        reach = 4 * (mask // 3) * dden
    accepted = i = 0
    while i < len(keys):
        accepted, last_V, last_Q = accepted + 1, keys[i] >> shift, keys[i] & mask
        i = bisect_left(keys, last_V + step << shift, i + 1)
        while not exact and i < len(keys):
            key = keys[i]
            X = ((key >> shift) - last_V) * dden - gap
            if X < 0 and 3 * -X << 2 * m >= reach:
                i = bisect_left(keys, (key >> shift) + 1 << shift, i + 1)
                continue
            dQ = (key & mask) - last_Q
            if X * dQ < 0 and 3 * abs(X) << 2 * m < 4 * abs(dQ) * dden:
                X = affine_sign_scaled((X - dQ * N * dden) >> 2 * L, dQ * dden, lam)
            if (X or dQ) > 0:
                break
            i += 1
    return accepted


def full_level_cells(sys, n_max):
    """Occupied cells at levels 1..n_max, each read off its own full level."""
    L, _, _, _, levels = full_level_keys(sys, n_max)
    return [len({v >> 2 * (L + n_max - n) for v in keys})
            for n, keys in enumerate(levels) if n]


# explicit:1,600 puts a 1200-bit step into every key past level 0.
LEVEL_SEQUENCES = ["paper", "geometric:b=3,start=3", "geometric:b=3,start=4",
                   "explicit:1", "explicit:2,6,14", "explicit:1,3,7", "explicit:1,600"]
# k/4**j ties a level gap exactly; a free denominator mostly does not.
gauges = st.one_of(
    st.builds(lambda k, j: F(k, 4 ** j), st.integers(1, 16), st.integers(0, 11)),
    st.builds(F, st.integers(1, 200), st.integers(1, 4 ** 9)))


class TestLevelRuns:
    """pack and boxcount read level n as three runs of level n-1; the
    fully built levels are the oracle."""

    @given(desc=st.sampled_from(LEVEL_SEQUENCES), n=st.integers(0, 8), delta=gauges)
    @example(desc="paper", n=0, delta=F(1, 4))
    @example(desc="explicit:1", n=1, delta=F(1, 4))
    @example(desc="explicit:1", n=8, delta=F(1, 4 ** 9))        # coincident points
    @example(desc="explicit:1,3,7", n=8, delta=F(1, 4 ** 8))    # ties the level gap
    @example(desc="explicit:2,6,14", n=7, delta=F(3, 4 ** 7))
    @example(desc="geometric:b=3,start=3", n=8, delta=F(1, 4 ** 8))
    @example(desc="geometric:b=3,start=4", n=8, delta=F(1, 4 ** 13))  # step 0: dV = 0 passes
    @example(desc="paper", n=8, delta=F(1, 4 ** 9))
    @example(desc="paper", n=8, delta=F(1000))                  # one point accepted
    @example(desc="explicit:1,600", n=1, delta=F(1, 4))         # a lookup past the end
    @example(desc="explicit:1,600", n=6, delta=F(1, 4 ** 7))
    @settings(max_examples=80, deadline=None)
    def test_pack_matches_full_level_sweep(self, desc, n, delta):
        sys = IFSSystem(make_lacunary(desc))
        assert (packing_premeasure_estimate(sys, n, delta).accepted
                == full_level_pack(sys, n, delta))

    @pytest.mark.parametrize("desc", LEVEL_SEQUENCES)
    def test_boxcount_matches_full_levels(self, desc):
        sys = IFSSystem(make_lacunary(desc))
        for n_max in range(1, 9):
            assert ([r.cells for r in box_counting_profile(sys, n_max).rows]
                    == full_level_cells(sys, n_max))


class TestMeasureBounds:
    def test_unit_interval_has_full_mass(self, sys_paper):
        for n in (0, 1, 3):
            mb = measure_bounds(sys_paper, *rational_ends(0, 1), n)
            assert mb.lower == mb.upper == 1

    def test_first_cylinder_interval(self, sys_paper):
        # Only the 0-branch cylinder fits inside; the other two touch it.
        mb = measure_bounds(sys_paper, *rational_ends(0, F(1, 4)), 1)
        assert (mb.lower, mb.upper) == (F(1, 3), 1)
        assert (mb.contained, mb.intersecting) == (1, 3)

    def test_gap_interval(self, sys_paper):
        mb = measure_bounds(sys_paper, *rational_ends(F(3, 8), F(1, 2)), 1)
        assert (mb.lower, mb.upper) == (0, F(1, 3))

    def test_symbolic_endpoint(self, sys_toy):
        mb = measure_bounds(sys_toy, ZERO, SymbolicPoint(F(0), F(1)), 1)
        assert (mb.lower, mb.upper) == (0, F(2, 3))

    def test_reversed_endpoints_rejected(self, sys_toy):
        with pytest.raises(ValueError):
            measure_bounds(sys_toy, *rational_ends(F(1, 2), F(1, 4)), 1)

    def test_reversed_by_u_tail_rejected(self, sys_paper):
        # u = 4**-27 + (a tail below 4**-19683): only u's tail orders the ends.
        u, grid = SymbolicPoint(F(0), F(1)), SymbolicPoint(F(1, 4 ** 27), F(0))
        with pytest.raises(ValueError, match="out of order"):
            measure_bounds(sys_paper, u, grid, 1)
        # The cylinders of 0 and u both hold the whole interval [4**-27, u].
        mb = measure_bounds(sys_paper, grid, u, 1)
        assert (mb.contained, mb.intersecting) == (0, 2)

    def test_level_validation(self, sys_toy):
        with pytest.raises(ValueError):
            measure_bounds(sys_toy, *rational_ends(0, 1), -1)
        with pytest.raises(EnumerationCapError):
            measure_bounds(sys_toy, *rational_ends(0, 1), 16)

    def test_cap_binds_walks_only(self, sys_paper):
        # Under paper, n = 20 > enum_cap = 15 is below the grid for [0, 1/4]:
        # the rank path answers.  An end at 2**-61 puts den*g past 4**27, so
        # that count would walk, and the cap stops it.
        mb = measure_bounds(sys_paper, *rational_ends(0, F(1, 4)), 20)
        assert (mb.contained, mb.intersecting) == (2 * 3 ** 19, 2 * 3 ** 19 + 1)
        with pytest.raises(EnumerationCapError):
            measure_bounds(sys_paper, *rational_ends(0, F(1, 2 ** 61)), 20)
        with pytest.raises(EnumerationCapError):
            measure_bounds(sys_paper, *rational_ends(0, F(1, 4)), 28)

    def test_serialization(self, sys_paper):
        d = measure_bounds(sys_paper, *rational_ends(0, F(1, 4)), 1).to_dict()
        assert d == {"n": 1, "contained": 1, "intersecting": 3,
                     "lower": "1/3", "upper": "1"}

    @given(a=dyadics, b=dyadics, n=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_sandwich(self, a, b, n, sys_toy):
        lo, hi = min(a, b), max(a, b)
        mb = measure_bounds(sys_toy, *rational_ends(lo, hi), n)
        assert 0 <= mb.lower <= mb.upper <= 1
        assert mb.lower * 3 ** n == mb.contained

    @given(a=dyadics, b=dyadics, qa=quarters, qb=quarters, n=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_cylinders(self, a, b, qa, qb, n, sys_toy, lam_toy):
        ends = sorted([SymbolicPoint(a, qa), SymbolicPoint(b, qb)],
                      key=lambda x: exact_value(x, lam_toy))
        mb = measure_bounds(sys_toy, *ends, n)
        lo, hi = (exact_value(x, lam_toy) for x in ends)
        assert (mb.contained, mb.intersecting) == brute_cylinders(lam_toy, n, lo, hi)

    @given(desc=st.sampled_from(["paper", "geometric:b=3,start=12"]),
           n=st.integers(0, 10), a=st.text(alphabet="01u", max_size=16),
           b=st.text(alphabet="01u", max_size=16), shift=st.integers(0, 5))
    @example(desc="geometric:b=3,start=12", n=3, a="0u", b="1", shift=2)    # gate holds
    @example(desc="geometric:b=3,start=12", n=10, a="u" * 16, b="1", shift=0)  # gate fails
    @settings(max_examples=80, deadline=None)
    def test_rank_path_matches_walker(self, desc, n, a, b, shift):
        lam = make_lacunary(desc)
        sys = IFSSystem(lam)
        x, y = project(a[:n + 6]), project(b[:n + 6])
        y = SymbolicPoint(y.p + F(shift, 4 ** (n + 1)), y.q)
        J = sorted([x, y], key=point_order(lam))
        with walker_only():
            walked = measure_bounds(sys, *J, n)
        assert measure_bounds(sys, *J, n) == walked

    @given(desc=st.sampled_from(["geometric:b=3,start=1", "geometric:b=3,start=3"]),
           n=st.integers(0, 6), a=st.text(alphabet="01u", max_size=8),
           b=st.text(alphabet="01u", max_size=8), sa=st.integers(0, 5),
           sb=st.integers(0, 5))
    # A cylinder whose right end is hi; a leaf crossing lo; level 0.
    @example(desc="geometric:b=3,start=3", n=4, a="", b="1u01", sa=0, sb=4)
    @example(desc="geometric:b=3,start=1", n=4, a="u10u", b="1", sa=2, sb=0)
    @example(desc="geometric:b=3,start=1", n=0, a="u", b="1", sa=1, sb=0)
    @settings(max_examples=60, deadline=None)
    def test_walk_past_gate_matches_brute_force(self, desc, n, a, b, sa, sb):
        # The gate shuts from n = 2 (start=1) or n = 4 (start=3) on.
        lam = make_lacunary(desc)
        ends = [SymbolicPoint(x.p + F(s, 4 ** (n + 1)), x.q)
                for x, s in ((project(a[:n + 2]), sa), (project(b[:n + 2]), sb))]
        lo, hi = sorted(ends, key=point_order(lam))
        mb = measure_bounds(IFSSystem(lam), lo, hi, n)
        want = span_count_oracle(lam, n, (lo.p, lo.q), (hi.p, hi.q), 1)
        assert (mb.contained, mb.intersecting) == want

    # Ends pa/(4*da) + q*u: any denominators, and ends below 0, since
    # measure_bounds puts both ends over one den.
    @given(desc=st.sampled_from(["explicit:2,6,14", "explicit:1,3,7", "paper",
                                 "geometric:b=3,start=1", "geometric:b=3,start=3"]),
           n=st.integers(0, 5), pa=st.integers(-14, 14), pb=st.integers(-14, 14),
           da=st.sampled_from([1, 3, 5, 6, 7]), db=st.sampled_from([1, 3, 5, 6, 7]),
           qa=st.sampled_from([F(0), F(1, 3), F(1)]), qb=st.sampled_from([F(0), F(2, 5)]))
    @example(desc="paper", n=2, pa=0, pb=4, da=1, db=3, qa=F(0), qb=F(0))        # [0, 1/3]
    @example(desc="paper", n=2, pa=-4, pb=4, da=3, db=3, qa=F(0), qb=F(0))       # [-1/3, 1/3]
    @example(desc="explicit:2,6,14", n=3, pa=-7, pb=2, da=7, db=7, qa=F(1), qb=F(0))
    @settings(max_examples=120, deadline=None)
    def test_any_rational_ends_match_brute_force(self, desc, n, pa, pb, da, db, qa, qb):
        lam = make_lacunary(desc)
        ends = sorted([SymbolicPoint(F(pa, 4 * da), qa), SymbolicPoint(F(pb, 4 * db), qb)],
                      key=point_order(lam))
        mb = measure_bounds(IFSSystem(lam), *ends, n)
        want = span_count_oracle(lam, n, (ends[0].p, ends[0].q), (ends[1].p, ends[1].q), 1)
        assert (mb.contained, mb.intersecting) == want

    @given(a=dyadics, b=dyadics, n=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_refines_upward(self, a, b, n, sys_toy):
        lo, hi = min(a, b), max(a, b)
        J = rational_ends(lo, hi)
        assert measure_bounds(sys_toy, *J, n + 1).lower >= measure_bounds(sys_toy, *J, n).lower


class TestDensity:
    def test_three_points_at_unit_C(self, sys_paper):
        entry = density_ratio(sys_paper, ZERO, 1, F(1))
        assert entry.count == 3
        # 3 / 4**s = 1 up to float rounding of the exponent.
        assert entry.ratio_bound == pytest.approx(1.0, rel=1e-12)
        assert entry.radius == F(1, 2)

    def test_empty_ball(self, sys_paper):
        entry = density_ratio(sys_paper, SymbolicPoint(F(10), F(0)), 2, F(1))
        assert entry.count == 0 and entry.ratio_bound == 0.0

    def test_C_below_one_rejected(self, sys_paper):
        with pytest.raises(ValueError):
            density_ratio(sys_paper, ZERO, 1, F(1, 2))

    @given(n=st.integers(1, 6), C=st.sampled_from([F(1), F(2), F(3)]))
    @settings(max_examples=40, deadline=None)
    def test_count_to_ratio_roundtrip(self, n, C, sys_toy):
        entry = density_ratio(sys_toy, project("u10110"[:n] * 2), n, C)
        back = entry.ratio_bound * (2.0 * float(C + 1)) ** S_DIM
        assert back == pytest.approx(entry.count, rel=1e-12)

    def test_profile_self_witness_floor(self, sys_toy):
        word = "u0110u01101"
        prof = density_profile(sys_toy, word, 10, F(3))
        assert len(prof.entries) == 10
        # The word's own prefix always lands in the ball.
        assert all(e.count >= 1 for e in prof.entries)
        floor = 1.0 / 8.0 ** S_DIM
        assert all(e.ratio_bound >= floor - 1e-15 for e in prof.entries)

    def test_profile_blow_up_with_planted_records(self, sys_toy, lam_toy):
        # Records at j = 10: leader 4 in the window of size 6, leader 8 in
        # the first window; both certify extra words inside the ball.
        word = list("0" * 12)
        word[3] = "u"
        word[7] = "u"
        word = "".join(word)
        S = influence_count(word, 10, lam_toy).count
        assert S == 2
        prof = density_profile(sys_toy, word, 10, F(3))
        assert prof.entries[9].n == 10
        assert prof.entries[9].count >= S + 1

    def test_profile_guards(self, sys_toy):
        with pytest.raises(ValueError, match="too short"):
            density_profile(sys_toy, "u10", 5)
        with pytest.raises(ValueError):
            density_profile(sys_toy, "u10", 0)

    def test_profile_serialization(self, sys_toy):
        prof = density_profile(sys_toy, "u10110", 2, F(3))
        rows = prof.csv_rows()
        assert rows[0] == ["n", "radius", "M", "ratio_bound"]
        assert len(rows) == 3
        d = prof.to_dict()
        assert d["schema"] == 1 and d["C"] == "3"
        assert set(d["entries"][0]) == {"n", "radius", "count", "ratio_bound"}

    def test_recommended_word_length(self, lam_toy, lam_paper):
        assert recommended_word_length(lam_toy, 13) == 29
        assert recommended_word_length(lam_paper, 13) == 14
        assert recommended_word_length(make_lacunary("explicit:20,41"), 5) == 6


class TestPacking:
    def test_quarter_gauge(self, sys_paper):
        est = packing_premeasure_estimate(sys_paper, 1, F(1, 4))
        assert est.accepted == 1
        assert est.value == pytest.approx(1 / 3, rel=1e-12)

    def test_eighth_gauge(self, sys_paper):
        est = packing_premeasure_estimate(sys_paper, 1, F(1, 8))
        assert est.accepted == 2
        assert est.value == pytest.approx(2 * 0.125 ** S_DIM, rel=1e-12)

    def test_everything_within_huge_gauge(self, sys_paper):
        est = packing_premeasure_estimate(sys_paper, 3, F(2))
        assert est.accepted == 1
        assert est.value == pytest.approx(2.0 ** S_DIM, rel=1e-12)

    def test_nonpositive_gauge_rejected(self, sys_paper):
        with pytest.raises(ValueError):
            packing_premeasure_estimate(sys_paper, 1, F(0))

    def test_cap(self, sys_toy):
        with pytest.raises(EnumerationCapError):
            packing_premeasure_estimate(sys_toy, 16, F(1, 4))

    def test_monotone_in_gauge(self, sys_toy):
        gauges = [F(1, 256), F(1, 64), F(1, 16), F(1, 4), F(1)]
        counts = [packing_premeasure_estimate(sys_toy, 5, d).accepted for d in gauges]
        assert counts == [25, 10, 4, 2, 1]
        assert counts == sorted(counts, reverse=True)

    @given(desc=st.sampled_from(["explicit:2,6,14", "explicit:1", "explicit:1,3,7"]),
           n=st.integers(0, 5), num=st.integers(1, 64))
    @example(desc="explicit:1", n=4, num=1)
    @example(desc="explicit:1,3,7", n=3, num=1)
    @example(desc="explicit:1", n=5, num=5)        # duplicate keys on the last level
    @example(desc="explicit:2,6,14", n=3, num=1)   # dV*dden == gap: distance == delta, rejected
    @example(desc="explicit:1,3,7", n=0, num=1)    # one point
    @example(desc="explicit:1,3,7", n=5, num=64)   # delta above the whole span
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_greedy_oracle(self, desc, n, num):
        # explicit:1 and explicit:1,3,7 make distinct words share a point.
        lam = make_lacunary(desc)
        delta = F(num, 64)
        est = packing_premeasure_estimate(IFSSystem(lam), n, delta)
        u = lam.u_exact()
        vals = sorted({x.p + x.q * u for x in
                       (project("".join(t)) for t in itertools.product("01u", repeat=n))})
        accepted, last = 0, None
        for v in vals:
            if last is None or v - last > delta:
                accepted, last = accepted + 1, v
        assert est.accepted == accepted

    @pytest.mark.parametrize("n,delta,expected", [(3, F(1, 64), 9),
                                                  (4, F(1, 100), 14),
                                                  (5, F(3, 1024), 39)])
    def test_irrational_comparator_branch(self, n, delta, expected):
        # term_1 = 1 puts u past the grid: these keys truncate u after two terms.
        sys_g = IFSSystem(make_lacunary("geometric:b=3,start=1"))
        assert packing_premeasure_estimate(sys_g, n, delta).accepted == expected

    @given(desc=st.sampled_from(["paper", "geometric:b=3,start=1", "geometric:b=3,start=2",
                                 "geometric:b=3,start=3", "geometric:b=3,start=12"]),
           n=st.integers(1, 7), num=st.integers(1, 64), k=st.integers(0, 10))
    @example(desc="geometric:b=3,start=3", n=7, num=1, k=6)   # J = 2, tie windows
    @example(desc="geometric:b=3,start=1", n=7, num=1, k=6)   # J = 3, tie windows
    @example(desc="geometric:b=3,start=1", n=4, num=5, k=8)   # J = 2, tie windows
    @example(desc="geometric:b=3,start=2", n=6, num=5, k=8)   # J = 2, tie windows
    @example(desc="geometric:b=3,start=1", n=2, num=1, k=4)   # J = 1, the gate's edge
    @example(desc="paper", n=5, num=1, k=6)                   # ties on V = P
    @example(desc="paper", n=2, num=1, k=2)                   # order within a tie
    @example(desc="paper", n=1, num=1, k=1)                   # distance == delta, rejected
    @example(desc="paper", n=0, num=1, k=3)                   # one point
    @example(desc="geometric:b=3,start=1", n=5, num=2, k=0)   # delta above the whole span
    @example(desc="paper", n=7, num=1, k=8)                   # every key in a tie window
    @example(desc="geometric:b=3,start=1", n=6, num=17, k=10)  # J = 2, 12 fallback sign tests
    @settings(max_examples=30, deadline=None)
    def test_keys_match_sign_test_oracle(self, desc, n, num, k):
        lam = make_lacunary(desc)
        sys = IFSSystem(lam)
        delta = F(num, 4 ** k)
        accepted, cells = sign_test_oracle(lam, n, delta)
        assert packing_premeasure_estimate(sys, n, delta).accepted == accepted
        if n:  # box counts start at level 1
            assert [r.cells for r in box_counting_profile(sys, n).rows] == cells

    @pytest.mark.parametrize("n,k,accepted", [(7, 8, 128), (10, 12, 1024)])
    def test_tail_bound_settles_paper_ties(self, sys_paper, n, k, accepted):
        # Every pair with equal V = P lands in |X| < dden here; the tail
        # bound 4**-lam_1 decides all of them in integers.
        with mock.patch("fracpack.measure.affine_sign_scaled",
                        wraps=affine_sign_scaled) as sign:
            est = packing_premeasure_estimate(sys_paper, n, F(1, 4 ** k))
        assert (est.accepted, sign.call_count) == (accepted, 0)

    def test_tiny_value_takes_the_log_path(self, sys_paper):
        # float(delta) is 0.0, but 9 * delta**s is a subnormal float.
        delta = F(1, 10 ** 400)
        est = packing_premeasure_estimate(sys_paper, 2, delta)
        logs = math.log(9) + S_DIM * (math.log(delta.numerator) - math.log(delta.denominator))
        assert est.accepted == 9
        assert 0 < est.value == pytest.approx(math.exp(logs), rel=1e-6)
        with pytest.raises(CapError):
            measure._power_scaled(1, delta, -1, "value")

    def test_rejected_equal_v_blocks_skipped(self, sys_paper):
        # At delta = 4**-9 the tail bound rejects the rest of every V = P
        # block at once: one ceiling lookup per accepted key and one per
        # block, plus the first, each at most one bisect in each of the
        # three runs that make up level 8.  A key-by-key scan makes one
        # lookup per key, 6561 or more, and its one-key moves bisect no
        # run, so the lookups themselves are counted.
        lookups = 0

        def counting_runs(*args):
            nonlocal lookups
            runs = runs_ceiling(*args)
            x = yield runs.send(None)
            while True:
                lookups += 1
                x = yield runs.send(x)

        runs_ceiling = measure._runs_ceiling
        with mock.patch.object(measure, "_runs_ceiling", counting_runs), \
                mock.patch("fracpack.measure.bisect_left", wraps=bisect_left) as bisects:
            est = packing_premeasure_estimate(sys_paper, 8, F(1, 4 ** 9))
        assert est.accepted == 256
        assert lookups <= 2 * 256 + 1
        assert bisects.call_count <= 3 * lookups


class TestBoxCounting:
    def test_paper_cells_double_per_level(self, sys_paper):
        prof = box_counting_profile(sys_paper, 8)
        assert [r.cells for r in prof.rows] == [2 ** n for n in range(1, 9)]
        for r in prof.rows:
            assert r.dim_estimate == pytest.approx(0.5, rel=1e-12)

    def test_rational_u_matches_floor_oracle(self):
        sys_r = IFSSystem(make_lacunary("explicit:1"))
        prof = box_counting_profile(sys_r, 6)
        u = F(1, 4)
        oracle = []
        for n in range(1, 7):
            cells = {int((x.p + x.q * u) * 4 ** n) for x in
                     (project("".join(t)) for t in itertools.product("01u", repeat=n))}
            oracle.append(len(cells))
        assert [r.cells for r in prof.rows] == oracle == [2, 5, 13, 34, 89, 233]

    def test_geometric_profile_frozen(self):
        sys_g = IFSSystem(make_lacunary("geometric:b=3,start=3"))
        prof = box_counting_profile(sys_g, 12)
        assert [r.cells for r in prof.rows] == [
            2, 4, 8, 20, 50, 125, 325, 845, 2197, 6084, 16848, 46656]

    def test_validation_and_cap(self, sys_toy):
        with pytest.raises(ValueError):
            box_counting_profile(sys_toy, 0)
        with pytest.raises(EnumerationCapError):
            box_counting_profile(sys_toy, 16)

    def test_csv_shape(self, sys_toy):
        rows = box_counting_profile(sys_toy, 3).csv_rows()
        assert rows[0] == ["n", "cells", "dim_estimate"]
        assert len(rows) == 4
