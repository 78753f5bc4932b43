"""Tests for binomial tails, Hoeffding bounds, scale tables and simulation."""

import math
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpack import (
    CapError,
    binom_pmf,
    binom_tail,
    block_decomposition,
    block_success_count,
    borel_cantelli_table,
    empirical_X_law,
    hoeffding_bound,
    influence_count,
    make_lacunary,
    monte_carlo_growth,
    sample_sequence,
    tail_report,
)
from fracpack import stats
from fracpack.stats import (
    EXACT_BINOMIAL_LIMIT,
    LOG_DOMAIN_REL_TOL,
    CheckpointStats,
    empirical_quantile,
)
import oracle
from conftest import MASTER_SEED

probs = st.builds(F, st.integers(0, 8), st.integers(8, 9))


class TestBinomial:
    def test_pmf_small_case(self):
        assert binom_pmf(2, F(1, 3)) == [F(4, 9), F(4, 9), F(1, 9)]

    @given(N=st.integers(0, 40), p=probs)
    def test_pmf_sums_to_one(self, N, p):
        assert sum(binom_pmf(N, p)) == 1

    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            binom_pmf(3, F(3, 2))
        with pytest.raises(ValueError):
            binom_pmf(-1, F(1, 2))

    def test_tail_examples(self):
        assert binom_tail(4, F(1, 3), 0) == F(16, 81)
        assert binom_tail(9, F(1, 3), 9) == 1
        assert binom_tail(3, F(1, 3), 1) == F(20, 27)

    def test_tail_clamps_large_M(self):
        assert binom_tail(3, F(1, 3), 7) == 1

    def test_tail_is_exact_fraction_in_range(self):
        assert isinstance(binom_tail(EXACT_BINOMIAL_LIMIT, F(1, 3), 2), F)

    def test_log_domain_branch_accuracy(self):
        # Incremental exact oracle: P(m+1) = P(m) * (N-m)/(m+1) * p/(1-p).
        N, p, M = EXACT_BINOMIAL_LIMIT + 1, F(1, 3), 3200
        term = (1 - p) ** N
        exact = term
        for m in range(M):
            term *= F(N - m, m + 1) * p / (1 - p)
            exact += term
        got = binom_tail(N, p, M)
        assert isinstance(got, float)
        assert abs(got - float(exact)) <= LOG_DOMAIN_REL_TOL * float(exact)

    @given(N=st.integers(0, 50), p=probs, M=st.integers(0, 50))
    def test_tail_monotone_in_M(self, N, p, M):
        assert binom_tail(N, p, M) <= binom_tail(N, p, M + 1)

    @given(data=st.data(), N=st.integers(0, 60), b=st.integers(1, 9))
    @settings(max_examples=300)
    def test_matches_comb_sum(self, data, N, b):
        # p = 0, p = 1 and M >= N are all in range.
        a = data.draw(st.integers(0, b), label="a")
        M = data.draw(st.integers(0, N + 10), label="M")
        p = F(a, b)
        pmf = [F(math.comb(N, m) * a ** m * (b - a) ** (N - m), b ** N)
               for m in range(N + 1)]
        assert binom_pmf(N, p) == pmf
        assert binom_tail(N, p, M) == sum(pmf[:M + 1], F(0))

    @pytest.mark.parametrize("N, p, M", [
        (3000, F(5, 7), 2100),  # mid-size N with a > 1
        (3000, F(5, 7), 0),
        (3000, F(5, 7), 2999),  # M = N - 1
        (3000, F(1), 2999),  # p = 1 with M < N: no mass at or below M
    ])
    def test_tail_matches_comb_sum(self, N, p, M):
        a, b = p.numerator, p.denominator
        exact = F(sum(math.comb(N, m) * a ** m * (b - a) ** (N - m)
                      for m in range(M + 1)), b ** N)
        assert binom_tail(N, p, M) == exact

    def test_matches_comb_sum_at_exact_limit(self):
        N, M = EXACT_BINOMIAL_LIMIT, 1000
        exact = F(sum(math.comb(N, m) * 8 ** (N - m) for m in range(M + 1)), 9 ** N)
        assert binom_tail(N, F(1, 9), M) == exact


class TestHoeffding:
    def test_closed_forms(self):
        assert hoeffding_bound(9, F(1, 3), 1) == math.exp(-8 / 9)
        assert hoeffding_bound(27, F(1, 9), 0) == math.exp(-2 / 3)

    def test_vacuous_gap_returns_one(self):
        # N*p - M = 0 carries no information.
        assert hoeffding_bound(3, F(1, 3), 1) == 1.0

    def test_requires_positive_N(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0, F(1, 3), 0)

    def test_float_overflow_is_cap_error(self):
        # (N*p)**2 = 10**400 / 9 overflows a float.
        with pytest.raises(CapError, match="beyond float range"):
            hoeffding_bound(10 ** 200, F(1, 3), 0)

    @given(N=st.integers(1, 60), p=st.sampled_from([F(1, 3), F(1, 9), F(1, 27)]),
           M=st.integers(0, 10))
    def test_dominates_exact_tail(self, N, p, M):
        bound = hoeffding_bound(N, p, M)
        assert float(binom_tail(N, p, M)) <= bound * (1 + 1e-12)


class TestTailReport:
    def test_fields_and_serialization(self):
        rep = tail_report(3, F(1, 3), 1)
        assert rep.exact_tail == F(20, 27) and rep.flagged
        assert (rep.N, rep.p, rep.M) == (3, F(1, 3), 1)

    def test_unflagged_case(self):
        rep = tail_report(9, F(1, 3), 1)
        assert not rep.flagged and rep.hoeffding == math.exp(-8 / 9)


class TestScaleTable:
    def test_small_explicit_table(self):
        lam = make_lacunary("explicit:2,6,14,30,62")
        table = borel_cantelli_table(lam, 0, 2)
        assert [r.k for r in table.rows] == [0, 1, 2]
        assert [(r.j_lo, r.j_hi) for r in table.rows] == [(2, 6), (6, 14), (14, 30)]
        assert [r.count for r in table.rows] == [4, 8, 16]
        assert [r.N for r in table.rows] == [1, 1, 1]
        assert [r.p for r in table.rows] == [F(1, 3), F(1, 9), F(1, 27)]
        assert [r.contribution for r in table.rows] == pytest.approx(
            [3.2029496116672322, 7.804887840518766, 15.956164411018774], rel=1e-12)

    def test_cumulative_is_running_sum(self):
        lam = make_lacunary("explicit:2,6,14,30,62")
        table = borel_cantelli_table(lam, 0, 2)
        assert table.cumulative == pytest.approx(
            [3.2029496116672322, 11.007837452185997, 26.96400186320477], rel=1e-12)
        assert table.cumulative == sorted(table.cumulative)

    def test_flagged_scale_has_no_bound(self):
        lam = make_lacunary("explicit:2,6,14,30")
        row = borel_cantelli_table(lam, 1, 1).rows[0]
        # N*p = 1/3 <= M = 1: the exponential bound is vacuous there.
        assert row.flagged and row.hoeffding == 1.0
        assert row.contribution == 4.0 and row.log10_contribution is None

    def test_infinite_sequence_rows(self, lam_paper):
        table = borel_cantelli_table(lam_paper, 1, 1)
        r0, r1 = table.rows
        assert (r0.count, r0.N) == (19656, 13)
        assert (r1.count, r1.N) == (7625597465304, 702)
        assert r0.contribution == pytest.approx(3557.225637806827, rel=1e-12)
        assert r1.contribution == pytest.approx(351791.48247429833, rel=1e-12)
        assert not (r0.flagged or r1.flagged)

    def test_explicit_sequence_exhaustion(self, lam_toy):
        with pytest.raises(ValueError, match="term"):
            borel_cantelli_table(lam_toy, 0, 2)
        assert len(borel_cantelli_table(lam_toy, 0, 1).rows) == 2

    def test_validation(self, lam_toy):
        with pytest.raises(ValueError):
            borel_cantelli_table(lam_toy, -1, 0)
        with pytest.raises(ValueError):
            borel_cantelli_table(lam_toy, 0, -1)

    def test_serialization_shape(self, lam_toy):
        d = borel_cantelli_table(lam_toy, 0, 1).to_dict()
        assert len(d["rows"]) == 2 and d["rows"][0]["p"] == "1/3"

    @pytest.mark.parametrize("M, k_max", [(1, 650), (0, 646)])
    def test_contribution_is_a_float_where_one_exists(self, M, k_max):
        # M = 1 flags every row from k = 628 on, M = 0 none; the counts
        # reach 2**1024 at k = 645, where the float first overflows.
        rows = borel_cantelli_table(make_lacunary("geometric:b=3,start=2"), M, k_max).rows
        assert all(r.flagged == (M == 1) for r in rows[628:])
        for r in rows[628:]:
            if r.count.bit_length() <= 1024:
                # A flagged row's hoeffding is 1.0.
                assert r.contribution == pytest.approx(r.count * r.hoeffding, rel=1e-12)
            else:
                assert r.contribution == math.inf
        assert [r.k for r in rows if r.contribution == math.inf] == list(range(645, k_max + 1))


class TestQuantile:
    def test_nearest_rank(self):
        assert empirical_quantile([1, 2, 3, 4], 0.5) == 2
        assert empirical_quantile([1, 2, 3, 4, 5], 0.5) == 3

    def test_extreme_fractions(self):
        assert empirical_quantile([7, 8, 9], 0.0) == 7
        assert empirical_quantile([7, 8, 9], 1.0) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)


class TestGrowthSimulation:
    def test_deterministic(self, lam_toy):
        a = monte_carlo_growth(lam_toy, (2, 6, 13), 200, MASTER_SEED)
        b = monte_carlo_growth(lam_toy, (2, 6, 13), 200, MASTER_SEED)
        assert a == b

    def test_frozen_small_run(self, lam_toy):
        rep = monte_carlo_growth(lam_toy, (2, 6, 13), 200, MASTER_SEED)
        got = [(s.j, s.min, s.p50, s.max, s.mean) for s in rep.stats]
        assert got == [(2, 0, 0, 1, 0.33), (6, 0, 1, 3, 0.99), (13, 0, 1, 4, 1.265)]

    def test_quantiles_ordered(self, lam_toy):
        for s in monte_carlo_growth(lam_toy, (2, 6, 13), 150, 7).stats:
            assert s.min <= s.p10 <= s.p25 <= s.p50 <= s.p75 <= s.p90 <= s.max
            assert s.min <= s.mean <= s.max

    @pytest.mark.parametrize("lam", ["paper", "geometric:b=3,start=1", "geometric:b=3,start=3",
                                     "explicit:2,6,14,30,62", "explicit:1"])
    def test_counts_match_per_position_scan(self, lam):
        seq = make_lacunary(lam)
        rep = monte_carlo_growth(seq, (1, 9, 28, 70), 40, MASTER_SEED)
        words = [sample_sequence(f"{MASTER_SEED}:{t}", 70) for t in range(40)]
        for s in rep.stats:
            xs = sorted(len(oracle.influence_positions(lam, w, s.j)) for w in words)
            assert (s.min, s.p25, s.p50, s.p90, s.max, s.mean) == (
                xs[0], empirical_quantile(xs, 0.25), empirical_quantile(xs, 0.5),
                empirical_quantile(xs, 0.9), xs[-1], sum(xs) / len(xs))

    def test_repeated_checkpoint_sampled_once(self, lam_toy):
        # Every quantile is taken over exactly one value per trial, and a
        # repeated checkpoint is reported at each place it is listed.
        sizes = []

        def quantile(xs, frac):
            sizes.append(len(xs))
            return empirical_quantile(xs, frac)

        with mock.patch.object(stats, "empirical_quantile", quantile):
            rep = monte_carlo_growth(lam_toy, (6, 6, 2), 30, MASTER_SEED)
        assert sizes and set(sizes) == {30}
        assert [s.j for s in rep.stats] == [6, 6, 2] and rep.stats[0] == rep.stats[1]
        assert rep.stats[1:] == monte_carlo_growth(lam_toy, (6, 2), 30, MASTER_SEED).stats

    def test_word_past_materialize_cap(self):
        lam = make_lacunary("geometric:b=3,start=1", materialize_cap=50)
        with pytest.raises(CapError, match="materialize_cap"):
            monte_carlo_growth(lam, (5, 51), 10, MASTER_SEED)
        assert monte_carlo_growth(lam, (5, 50), 10, MASTER_SEED).checkpoints == (5, 50)

    def test_zero_trials_gives_empty_report(self, lam_toy):
        rep = monte_carlo_growth(lam_toy, (2, 6), 0, MASTER_SEED)
        assert rep.trials == 0 and rep.stats == ()

    def test_validation(self, lam_toy):
        with pytest.raises(ValueError):
            monte_carlo_growth(lam_toy, (), 10, MASTER_SEED)
        with pytest.raises(ValueError):
            monte_carlo_growth(lam_toy, (0, 5), 10, MASTER_SEED)
        with pytest.raises(ValueError):
            monte_carlo_growth(lam_toy, (2,), -1, MASTER_SEED)

    def test_csv_shape(self, lam_toy):
        rows = monte_carlo_growth(lam_toy, (2, 6), 50, MASTER_SEED).csv_rows()
        assert rows[0] == ["j", "min", "p10", "p25", "p50", "p75", "p90", "max", "mean"]
        assert len(rows) == 3


class TestXLaw:
    def test_single_block_parameters(self, lam_toy):
        rep = empirical_X_law(lam_toy, 6, 2000, MASTER_SEED)
        assert (rep.N, rep.k, rep.p) == (1, 1, F(1, 9))
        assert sum(rep.histogram.values()) == 2000
        assert rep.tv_distance == pytest.approx(0.008611111111111111, rel=1e-12)

    def test_tv_shrinks_with_more_trials(self, lam_toy):
        small = empirical_X_law(lam_toy, 10, 1000, MASTER_SEED)
        large = empirical_X_law(lam_toy, 10, 10000, MASTER_SEED)
        assert large.tv_distance < small.tv_distance < 0.02

    def test_csv_histogram(self, lam_toy):
        rep = empirical_X_law(lam_toy, 6, 500, MASTER_SEED)
        assert all(0 <= value <= rep.N for value in rep.histogram)
        assert sum(rep.histogram.values()) == 500

    def test_word_past_materialize_cap(self):
        lam = make_lacunary("geometric:b=3,start=1", materialize_cap=50)
        with pytest.raises(CapError, match="materialize_cap"):
            empirical_X_law(lam, 51, 10, MASTER_SEED)
        assert empirical_X_law(lam, 50, 10, MASTER_SEED).trials == 10

    def test_validation(self, lam_toy):
        with pytest.raises(ValueError):
            empirical_X_law(lam_toy, 6, 0, MASTER_SEED)


# lam_1 = 27, a finite list that ends the windows, and a dense infinite kind.
TRIAL_LAMS = ["paper", "explicit:2,6,14,30,62", "geometric:b=3,start=3"]


class TestTrialLoops:
    """Each trial loop against one public call per trial on the same words."""

    @given(lam=st.sampled_from(TRIAL_LAMS), data=st.data(), trials=st.integers(1, 12),
           seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_xlaw_histogram_matches_per_trial_count(self, lam, data, trials, seed):
        seq = make_lacunary(lam)
        top = 150 if seq.length is None else seq.term(seq.length) - 1
        j = data.draw(st.integers(seq.term(1), top), label="j")
        dec = block_decomposition(j, seq)
        want = Counter(block_success_count(sample_sequence(f"{seed}:{t}", j), dec, seq)
                       for t in range(trials))
        assert empirical_X_law(seq, j, trials, seed).histogram == dict(want)

    @given(lam=st.sampled_from(TRIAL_LAMS),
           checkpoints=st.lists(st.integers(1, 150), min_size=1, max_size=4),
           trials=st.integers(1, 12), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_growth_stats_match_per_trial_influence(self, lam, checkpoints, trials, seed):
        seq = make_lacunary(lam)
        rep = monte_carlo_growth(seq, checkpoints, trials, seed)
        words = [sample_sequence(f"{seed}:{t}", max(checkpoints)) for t in range(trials)]
        want = []
        for j in checkpoints:
            xs = sorted(influence_count(w, j, seq).count for w in words)
            want.append(CheckpointStats(
                j, xs[0], *(empirical_quantile(xs, f) for f in (0.1, 0.25, 0.5, 0.75, 0.9)),
                xs[-1], sum(xs) / len(xs)))
        assert rep.stats == tuple(want)
