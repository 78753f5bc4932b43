"""Tests for the similitude system: dimension, projections, cylinders, counting."""

import itertools
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracpack import (
    EnumerationCapError,
    IFSSystem,
    S_DIM,
    SymbolicPoint,
    count_in_ball,
    distinct_level_points,
    make_lacunary,
    project,
    similarity_dimension,
    validate_word,
)
import fracpack.ifs
import oracle
from fracpack.cli import main
from fracpack.ifs import _level_keys, _lex_rank, count_span
from conftest import (LEVEL_SEQUENCES, TOY, exact_value, full_level_keys, span_counts,
                      u_value, walker_only, word_point)

ZERO = SymbolicPoint(F(0), F(0))

words = st.text(alphabet="01u", min_size=0, max_size=12)


class TestDimension:
    def test_three_quarter_maps(self):
        s = similarity_dimension([F(1, 4)] * 3)
        assert abs(s - math.log(3) / math.log(4)) <= 1e-12
        assert abs(s - S_DIM) <= 1e-12

    def test_two_halves_is_one(self):
        assert similarity_dimension([F(1, 2), F(1, 2)]) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_ratios_unit_sum(self):
        # 1/2 + 1/4 + 1/4 = 1 at s = 1.
        s = similarity_dimension([F(1, 2), F(1, 4), F(1, 4)])
        assert abs(s - 1.0) <= 1e-12

    def test_accepts_rational_strings(self):
        assert abs(similarity_dimension(["1/2", "1/2"]) - 1.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            similarity_dimension([])

    @pytest.mark.parametrize("bad", [F(3, 2), F(0), F(1), F(-1, 4)])
    def test_ratio_out_of_range(self, bad):
        with pytest.raises(ValueError, match="out of"):
            similarity_dimension([bad])

    @given(st.lists(st.integers(1, 15), min_size=1, max_size=6))
    def test_residual_property(self, nums):
        ratios = [F(a, 16) for a in nums]
        s = similarity_dimension(ratios)
        residual = math.fsum(float(r) ** s for r in ratios) - 1.0
        assert abs(residual) <= 1e-12

    def test_defining_identity(self):
        assert abs(4.0 ** S_DIM - 3.0) <= 1e-12


class TestWordsAndMaps:
    def test_validate_normalizes_case(self):
        assert validate_word("0U1") == "0u1"

    def test_validate_rejects_alien_symbols(self):
        with pytest.raises(ValueError, match="alphabet"):
            validate_word("012")

    @given(word=st.text(alphabet="01uU", max_size=40), data=st.data())
    def test_validate_lowers_or_names_bad_symbol(self, word, data):
        assert validate_word(word) == word.lower()
        bad = data.draw(st.characters().filter(
            lambda ch: len(ch.lower()) == 1 and ch.lower() not in "01u"), label="bad")
        i = data.draw(st.integers(0, len(word)), label="i")
        with pytest.raises(ValueError) as info:
            validate_word(word[:i] + bad + word[i:])
        assert str(info.value) == (f"invalid code symbol {bad.lower()!r}; "
                                   "alphabet is 0, 1, u")

    def test_project_examples(self):
        assert project("000") == ZERO
        assert project("1") == SymbolicPoint(F(1, 4), F(0))
        assert project("u1") == SymbolicPoint(F(1, 16), F(1, 4))
        assert project("") == ZERO

    @given(words)
    def test_project_matches_map_composition(self, w):
        # The three maps x/4, (x+1)/4 and (x+u)/4 on p + q*u, innermost last.
        maps = {"0": lambda x: SymbolicPoint(x.p / 4, x.q / 4),
                "1": lambda x: SymbolicPoint((x.p + 1) / 4, x.q / 4),
                "u": lambda x: SymbolicPoint(x.p / 4, (x.q + 1) / 4)}
        x = ZERO
        for ch in reversed(w):
            x = maps[ch](x)
        assert x == project(w)

    @given(words)
    def test_project_coordinates_in_unit_range(self, w):
        x = project(w)
        assert 0 <= x.p < 1 and 0 <= x.q < 1


class TestCylinders:
    @given(w=words.filter(bool), ch=st.sampled_from("01u"))
    def test_child_nested_in_parent(self, w, ch):
        # The cylinder of a word v is [project(v), project(v) + 4**-len(v)].
        lo_o = exact_value(project(w), TOY)
        hi_o = lo_o + F(1, 4 ** len(w))
        lo_i = exact_value(project(w + ch), TOY)
        assert lo_o <= lo_i and lo_i + F(1, 4 ** (len(w) + 1)) <= hi_o

    @given(w=words, n=st.integers(0, 12))
    def test_truncation_error_bound(self, w, n):
        n = min(n, len(w))
        full = exact_value(project(w), TOY)
        trunc = exact_value(project(w[:n]), TOY)
        assert abs(full - trunc) <= F(1, 3) * F(1, 4 ** n)


def brute_hits(n, center: F, radius: F) -> list[str]:
    """Unpruned oracle under TOY: all 3**n words in the ball, in 0, 1, u order."""
    candidates = ("".join(t) for t in itertools.product("01u", repeat=n))
    return [w for w in candidates
            if abs(exact_value(word_point(w), TOY) - center) <= radius]


class TestCounting:
    def test_unit_radius_ball_at_origin(self, sys_paper):
        got = count_in_ball(sys_paper, 1, ZERO, F(1, 4))
        assert got.count == 3

    def test_half_radius_excludes_one_branch(self, sys_paper):
        # 1/4 is outside B(0, 1/8); 0 and u/4 stay inside.
        got = count_in_ball(sys_paper, 1, ZERO, F(1, 8))
        assert got.count == 2

    def test_point_ball_hits_single_word(self, sys_paper):
        got = count_in_ball(sys_paper, 2, SymbolicPoint(F(5, 16), F(0)), F(0))
        assert got.count == 1

    def test_witnesses_deterministic(self, sys_paper):
        a = count_in_ball(sys_paper, 1, ZERO, F(1, 4), witnesses=True)
        b = count_in_ball(sys_paper, 1, ZERO, F(1, 4), witnesses=True)
        assert a.witnesses == b.witnesses == ("0", "1", "u")
        assert a.count == len(a.witnesses)

    def test_negative_depth_rejected(self, sys_paper):
        with pytest.raises(ValueError):
            count_in_ball(sys_paper, -1, ZERO, F(1))

    def test_negative_radius_rejected(self, sys_paper):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            count_in_ball(sys_paper, 1, ZERO, F(-1, 4))

    @given(
        w=st.text(alphabet="01u", min_size=0, max_size=5),
        n=st.integers(0, 5),
        num=st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_pruned_matches_brute_force(self, w, n, num, sys_toy):
        # Center at a projected word; radius num/2 * 4^-n covers C in {0,...,4}.
        center = exact_value(word_point(w), TOY)
        radius = F(num, 2) * F(1, 4 ** n)
        got = count_in_ball(sys_toy, n, SymbolicPoint(center, F(0)), radius)
        assert got.count == len(brute_hits(n, center, radius))

    @given(w=st.text(alphabet="01u", min_size=0, max_size=4), n=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_witness_list_matches_count(self, w, n, sys_toy):
        center = exact_value(word_point(w), TOY)
        radius = F(1, 4 ** n)
        got = count_in_ball(sys_toy, n, SymbolicPoint(center, F(0)), radius, witnesses=True)
        assert len(got.witnesses) == got.count == len(set(got.witnesses))
        assert all(len(v) == n for v in got.witnesses)
        assert got.witnesses == tuple(brute_hits(n, center, radius))


# Both keep u irrational; start=12 puts the below-grid gate inside the
# drawn range (n <= 10, centre words up to n + 6 symbols long).
gated_lams = st.sampled_from(["paper", "geometric:b=3,start=12"])


def level_pq(n):
    """Scaled (P, Q) of every length-n word: digits 1 and u at weight 4**(n-k)."""
    return [(sum(4 ** (n - k) for k, ch in enumerate(t, 1) if ch == "1"),
             sum(4 ** (n - k) for k, ch in enumerate(t, 1) if ch == "u"))
            for t in itertools.product("01u", repeat=n)]


class TestLexRank:
    # X and Y sit on a word's scaled P and Q (offset 0) or between them;
    # offsets below -P*den give negative X, and most offsets leave X//den
    # with a base-4 digit past 1, no word's P.
    @given(n=st.integers(0, 6), den=st.sampled_from([1, 2, 3, 7]), strict=st.booleans(),
           a=st.integers(0, 728), b=st.integers(0, 728),
           dx=st.integers(-15, 15), dy=st.integers(-15, 15))
    @example(n=0, den=1, strict=True, a=0, b=0, dx=0, dy=0)     # the empty word's own point
    @example(n=3, den=7, strict=False, a=5, b=5, dx=0, dy=0)    # X, Y on one word
    @example(n=3, den=3, strict=True, a=0, b=0, dx=-4, dy=0)    # negative X
    @example(n=2, den=1, strict=False, a=1, b=3, dx=1, dy=-1)   # X//den = 2: no word's P
    @example(n=6, den=2, strict=True, a=728, b=364, dx=15, dy=-15)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, n, den, strict, a, b, dx, dy):
        pairs = level_pq(n)
        X = pairs[a % len(pairs)][0] * den + dx
        Y = pairs[b % len(pairs)][1] * den + dy
        want = sum(1 for P, Q in pairs
                   if (P * den, Q * den) < (X, Y) or (not strict and (P * den, Q * den) == (X, Y)))
        assert _lex_rank(n, den, X, Y, strict) == want


class TestRankPath:
    def test_gate_edge_at_lam1(self, lam_paper):
        # Ball B(0, 4**-n): den = 1 and no q-part at the ends, so the gate
        # asks for the largest q-part g = (4**n - 1)//3 below the grid.
        assert lam_paper.below_grid((4 ** 27 - 1) // 3)
        assert not lam_paper.below_grid((4 ** 28 - 1) // 3)

    @given(desc=gated_lams, n=st.integers(0, 10),
           w=st.text(alphabet="01u", max_size=16), num=st.integers(0, 14))
    @example(desc="geometric:b=3,start=12", n=3, w="u1", num=6)        # gate holds
    @example(desc="geometric:b=3,start=12", n=10, w="u" * 16, num=6)   # gate fails
    @settings(max_examples=80, deadline=None)
    def test_rank_path_matches_walker(self, desc, n, w, num):
        sys = IFSSystem(make_lacunary(desc))
        center, radius = word_point(w[:n + 6]), F(num, 6) * F(1, 4 ** n)
        with walker_only():
            walked = count_in_ball(sys, n, center, radius).count
        assert count_in_ball(sys, n, center, radius).count == walked


# Irrational u with lam_1 = 1 or 3: the gate shuts from n = 2 or 4 on, so
# there the walk answers, and here it answers to a brute force.
walked_lams = st.sampled_from(["geometric:b=3,start=1", "geometric:b=3,start=3"])


class TestWalkPastGate:
    @given(desc=walked_lams, n=st.integers(0, 6), w=st.text(alphabet="01u", max_size=8),
           shift=st.integers(0, 5), num=st.integers(0, 12))
    @example(desc="geometric:b=3,start=1", n=3, w="u10", shift=0, num=4)  # a point on hi
    @example(desc="geometric:b=3,start=3", n=5, w="u0u1", shift=3, num=5)
    @example(desc="geometric:b=3,start=1", n=0, w="1", shift=1, num=2)
    @settings(max_examples=60, deadline=None)
    def test_ball_matches_brute_force(self, desc, n, w, shift, num):
        x = word_point(w[:n + 2])
        center = SymbolicPoint(x.p + F(shift, 4 ** (n + 1)), x.q)
        radius = F(num, 4) * F(1, 4 ** n)
        lo = (center.p - radius, center.q)
        hi = (center.p + radius, center.q)
        want, _ = span_counts(desc, n, lo, hi, 0)
        assert count_in_ball(IFSSystem(make_lacunary(desc)), n, center, radius).count == want


class TestBallEnds:
    # count_in_ball puts the centre's parts and the radius over one lcm.
    # The centre word runs up to 6 symbols past n and moves by a/b of a
    # level-n cell; the radius is num/den cells, any denominators.
    @given(desc=st.sampled_from(["explicit:2,6,14", "explicit:1,3,7", "paper",
                                 "geometric:b=3,start=1", "geometric:b=3,start=3"]),
           n=st.integers(0, 6), w=st.text(alphabet="01u", max_size=12),
           a=st.integers(-6, 6), b=st.integers(1, 30),
           num=st.integers(0, 40), den=st.integers(1, 30))
    @example(desc="paper", n=3, w="0" * 9, a=0, b=1, num=1, den=1)
    @example(desc="explicit:2,6,14", n=4, w="1u0u1u", a=5, b=7, num=9, den=14)
    @example(desc="geometric:b=3,start=1", n=5, w="u1u0", a=-1, b=12, num=35, den=24)
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, desc, n, w, a, b, num, den):
        x = word_point(w[:n + 6])
        center = SymbolicPoint(x.p + F(a, b * 4 ** n), x.q)
        radius = F(num, den * 4 ** n)
        lo = (center.p - radius, center.q)
        hi = (center.p + radius, center.q)
        got = count_in_ball(IFSSystem(make_lacunary(desc)), n, center, radius).count
        assert got == span_counts(desc, n, lo, hi, 0)[0]


# Rational u, where the walk compares integer keys.  Under explicit:1,3,7
# three terms are active, so digit sums carry and distinct words can meet.
keyed_lams = st.sampled_from(["explicit:2,6,14", "explicit:1,3,7"])


def inside_words(desc, n, lo, hi, width) -> list[str]:
    """Unpruned oracle: the words whose span lies inside [lo, hi], in 0, 1, u order."""
    u = u_value(desc)
    lo, hi = (p + q * u for p, q in (lo, hi))
    candidates = ("".join(t) for t in itertools.product("01u", repeat=n))
    return [w for w in candidates
            if lo <= exact_value(word_point(w), desc) <= hi - F(width, 4 ** n)]


def int_ends(lo, hi) -> tuple[list[int], int]:
    """count_span's integer ends for the (p, q) ends lo and hi, and their den."""
    den = math.lcm(*(x.denominator for x in (*lo, *hi)))
    return [int(x * den) for x in (*lo, *hi)], den


def expand(heads, n) -> list[str]:
    return [h + "".join(t) for h in heads for t in itertools.product("01u", repeat=n - len(h))]


class TestKeyedWalk:
    # Each end is a projected word shifted by k/3 * 4**-n: q-parts, den 3.
    @given(desc=keyed_lams, n=st.integers(0, 6), width=st.integers(0, 1),
           a=st.text(alphabet="01u", max_size=8), b=st.text(alphabet="01u", max_size=8),
           ka=st.integers(-6, 6), kb=st.integers(-6, 6))
    # Ends exactly on level points (k = 0) ...
    @example(desc="explicit:2,6,14", n=2, width=0, a="u1", b="1u", ka=0, kb=0)
    @example(desc="explicit:1,3,7", n=3, width=1, a="0u", b="u1", ka=0, kb=0)
    # ... on a cylinder's right end: hi = project("11") tops the cylinder of "10".
    @example(desc="explicit:2,6,14", n=2, width=1, a="", b="1", ka=0, kb=3)
    # ... and one third of a grid cell off them.
    @example(desc="explicit:1,3,7", n=4, width=0, a="u0u", b="1u1", ka=-1, kb=2)
    @example(desc="explicit:2,6,14", n=0, width=1, a="", b="u", ka=0, kb=1)
    @settings(max_examples=80, deadline=None)
    def test_span_matches_brute_force(self, desc, n, width, a, b, ka, kb):
        sys = IFSSystem(make_lacunary(desc))
        u = u_value(desc)
        ends = [(x.p + F(k, 3 * 4 ** n), x.q)
                for x, k in ((word_point(a[:n + 2]), ka), (word_point(b[:n + 2]), kb))]
        lo, hi = sorted(ends, key=lambda e: e[0] + e[1] * u)
        ends, den = int_ends(lo, hi)
        heads = []
        got = count_span(sys, n, ends, den, width, heads)
        assert got == span_counts(desc, n, lo, hi, width)
        assert count_span(sys, n, ends, den, width) == got
        assert expand(heads, n) == inside_words(desc, n, lo, hi, width)

    # Radii k/3 * 4**-n around a centre with a q-part.
    @given(desc=keyed_lams, n=st.integers(0, 6), w=st.text(alphabet="01u", max_size=8),
           k=st.integers(0, 9))
    @example(desc="explicit:2,6,14", n=2, w="1", k=3)   # hi = project("11")
    @example(desc="explicit:1,3,7", n=3, w="u1u", k=0)  # a point ball on a level point
    @settings(max_examples=60, deadline=None)
    def test_witnesses_match_brute_force(self, desc, n, w, k):
        center = word_point(w[:n + 2])
        radius = F(k, 3 * 4 ** n)
        lo = (center.p - radius, center.q)
        hi = (center.p + radius, center.q)
        got = count_in_ball(IFSSystem(make_lacunary(desc)), n, center, radius, witnesses=True)
        assert got.witnesses == tuple(inside_words(desc, n, lo, hi, 0))
        assert got.count == span_counts(desc, n, lo, hi, 0)[0]

    def test_reversed_by_q_part_rejected(self, sys_toy):
        # u = 1/16 + 4**-6 + 4**-14: only the q-part orders the ends.
        u, grid = (F(0), F(1)), (F(1, 16), F(0))
        with pytest.raises(ValueError, match="out of order"):
            count_span(sys_toy, 2, *int_ends(u, grid), 1)
        assert (count_span(sys_toy, 2, *int_ends(grid, u), 0)
                == span_counts(TOY, 2, grid, u, 0))


# The walk against perfbench's oracle, which shares no code with fracpack:
# three irrational u (sign tests) and two rational u (integer keys).  An
# oracle.Undecided raised here fails the test.
oracle_lams = st.sampled_from(["paper", "geometric:b=3,start=3", "geometric:b=3,start=4",
                               "explicit:2,6,14", "explicit:1,3,7"])


def symbol_order(word):
    return word.translate(str.maketrans("01u", "012"))


class TestWalkAgainstOracle:
    # Balls: both ends share the centre's q-part, so the walk's wide-span
    # rule applies.  The centre is a word moved by a/3 of a level-n cell,
    # and the radius is num/den cells.
    @given(desc=oracle_lams, n=st.integers(0, 7), w=st.text(alphabet="01u", max_size=10),
           a=st.integers(-6, 6), num=st.integers(0, 30), den=st.integers(1, 12))
    @example(desc="geometric:b=3,start=3", n=7, w="u000u0uu00", a=0, num=1, den=1)
    @example(desc="paper", n=7, w="0", a=0, num=3, den=1)
    @example(desc="explicit:1,3,7", n=4, w="u1u1", a=2, num=0, den=1)
    @settings(max_examples=150, deadline=None)
    def test_ball_counts_and_witnesses(self, desc, n, w, a, num, den):
        P, Q, L = oracle.project(w[:n + 3])
        center = SymbolicPoint(F(P, 4 ** L) + F(a, 3 * 4 ** n), F(Q, 4 ** L))
        radius = F(num, den * 4 ** n)
        with walker_only():
            got = count_in_ball(IFSSystem(make_lacunary(desc)), n, center, radius,
                                witnesses=True)
        lo, hi = (center.p - radius, center.q), (center.p + radius, center.q)
        assert got.count == span_counts(desc, n, lo, hi, 0)[0]
        # Centre and radius in units of 4**-n over k = 3*den*4**L.
        k = 3 * den * 4 ** L
        A, B, R = 3 * den * P * 4 ** n + a * den * 4 ** L, 3 * den * Q * 4 ** n, 3 * num * 4 ** L
        # The witnesses are distinct, in 0, 1, u order, and each lies in the ball.
        assert list(got.witnesses) == sorted(set(got.witnesses), key=symbol_order)
        sign = oracle.level(desc, n).u.sign
        for word in got.witnesses:
            Pw, Qw, _ = oracle.project(word)
            assert sign(k * Pw - A + R, k * Qw - B) >= 0 >= sign(k * Pw - A - R, k * Qw - B)

    # Ends that each take a word's q-part; where the two differ, the
    # wide-span rule does not apply.  Each end is the word moved by k/3 of
    # a level-n cell, over den = 3*4**(n+2).
    @given(desc=oracle_lams, n=st.integers(0, 7), width=st.integers(0, 1),
           a=st.text(alphabet="01u", max_size=9), b=st.text(alphabet="01u", max_size=9),
           ka=st.integers(-6, 6), kb=st.integers(-6, 6))
    @example(desc="geometric:b=3,start=3", n=4, width=0, a="0u", b="u1", ka=0, kb=0)
    # [0, 4**-3] is exactly as wide as the cell it holds.
    @example(desc="geometric:b=3,start=3", n=3, width=1, a="", b="", ka=0, kb=3)
    # [0, u/4] has no width in p but holds the cell [0, 4**-4].
    @example(desc="geometric:b=3,start=3", n=4, width=1, a="", b="u", ka=0, kb=0)
    @example(desc="paper", n=3, width=1, a="u", b="1u", ka=-2, kb=3)
    @example(desc="explicit:2,6,14", n=2, width=1, a="", b="1", ka=0, kb=3)
    @settings(max_examples=150, deadline=None)
    def test_span_counts(self, desc, n, width, a, b, ka, kb):
        den = 3 * 4 ** (n + 2)
        ends = []
        for word, shift in ((a, ka), (b, kb)):
            P, Q, L = oracle.project(word[:n + 2])
            ends.append((3 * P * 4 ** (n + 2 - L) + 16 * shift, 3 * Q * 4 ** (n + 2 - L)))
        (lp, lq), (hp, hq) = ends
        if oracle.level(desc, n).u.sign(hp - lp, hq - lq) < 0:
            (lp, lq), (hp, hq) = (hp, hq), (lp, lq)
        sys = IFSSystem(make_lacunary(desc))
        heads = []
        with walker_only():
            got = count_span(sys, n, [lp, lq, hp, hq], den, width)
            listed = count_span(sys, n, [lp, lq, hp, hq], den, width, heads)
        want = span_counts(desc, n, (F(lp, den), F(lq, den)), (F(hp, den), F(hq, den)), width)
        assert got == listed == want
        assert sum(3 ** (n - len(h)) for h in heads) == want[0]


class TestWalkSignTests:
    def test_children_take_one_miss_test(self, capsys):
        # A split node passed both miss tests, so its 0 child takes only the
        # test below lo and its 1 child only the test above hi, and with
        # equal q-parts a hull wider than the ball skips the inside tests.
        # Two miss tests per child made 2090 sign calls here; either rule
        # alone leaves more than 1700, and both leave 1352.
        argv = ["count", "--lambda", "geometric:b=3,start=3", "--n", "22",
                "--center", "u000u0uu00u00000000000", "--C", "1"]
        with mock.patch.object(fracpack.ifs, "affine_sign_scaled",
                               wraps=fracpack.ifs.affine_sign_scaled) as sign:
            assert main(argv) == 0
        assert '"count": 86' in capsys.readouterr().out
        assert sign.call_count <= 1400


class TestDistinctPoints:
    def test_irrational_mode_counts_are_powers_of_three(self, sys_paper):
        assert distinct_level_points(sys_paper, 0) == 1
        assert distinct_level_points(sys_paper, 1) == 3
        assert distinct_level_points(sys_paper, 5) == 243

    def test_rational_collisions_shrink_count(self):
        # u = 1/4 makes word 'u' collide with word '1' one level down.
        sys = IFSSystem(make_lacunary("explicit:1"))
        assert distinct_level_points(sys, 3) == 21

    @pytest.mark.parametrize("desc", LEVEL_SEQUENCES)
    def test_matches_full_last_level(self, desc):
        # Level n is level n-1 and its copies shifted by the first digits u
        # and 1.  Under irrational u, distinct words are distinct points.
        sys = IFSSystem(make_lacunary(desc))
        for n in range(0, 9):
            lv = oracle.level(desc, n)
            assert distinct_level_points(sys, n) == len(set(lv.keys if lv.u.exact else lv.pairs))

    def test_enumeration_cap_enforced(self, sys_paper):
        with pytest.raises(EnumerationCapError):
            distinct_level_points(sys_paper, 16)

    def test_cap_is_configurable(self, lam_paper):
        tight = IFSSystem(lam_paper, enumeration_cap=3)
        with pytest.raises(EnumerationCapError):
            distinct_level_points(tight, 4)
        assert distinct_level_points(tight, 3) == 27


class TestLevelKeys:
    @pytest.mark.parametrize("keep_q", [False, True])
    @pytest.mark.parametrize("desc", LEVEL_SEQUENCES)
    def test_levels_match_full_levels(self, desc, keep_q):
        # Level k is built in its own scale by prepending digits, the oracle
        # in level n's scale by appending them: they differ by 4**(n-k).
        sys = IFSSystem(make_lacunary(desc))
        for n in range(0, 9):
            *_, shift, levels, steps = _level_keys(sys, n, keep_q)
            *_, full = full_level_keys(sys, n, keep_q)
            levels = list(levels)
            assert len(levels) == max(n, 1)
            for k, keys in enumerate(levels):
                assert keys == sorted(keys)
                if not shift:
                    assert all(a < b for a, b in zip(keys, keys[1:]))
                assert [v * 4 ** (n - k) for v in keys] == sorted(full[k])
            assert {v + d for v in levels[-1] for d in steps} == set(full[n])
