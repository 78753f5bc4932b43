"""Tests for code-space combinatorics: influence, blocks, perturbations."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracpack import (
    InfluenceRecord,
    InfluenceSummary,
    block_decomposition,
    block_success_count,
    influence_count,
    is_influenced,
    make_lacunary,
    perturb,
    perturbation_family,
    sample_sequence,
)
import oracle
from conftest import MASTER_SEED, TOY, exact_value, word_point

# Infinite kinds with lam_1 = 27, 1 and 3, and two finite lists whose last
# window ends the scan.
ORACLE_LAMS = ["paper", "geometric:b=3,start=1", "geometric:b=3,start=3",
               "explicit:2,6,14,30,62", "explicit:1"]


def draw_symbol_oracle(rng: random.Random) -> str:
    """One symbol by two-bit rejection: the reference for the bulk sampler."""
    while True:
        v = rng.getrandbits(2)
        if v < 3:
            return "01u"[v]


def leader_oracle(w: str, dec, lam) -> int:
    """Block leaders showing (u, 0, ..., 0), tested one leader at a time."""
    return sum(1 for i in dec.leaders
               if w[i - 1] == "u"
               and all(w[i - 1 + lam.term(m)] == "0" for m in range(1, dec.k + 1)))


class TestCodeSequence:
    """sample_sequence: a seed's word, drawn in bulk from one stream."""

    def test_reproducible_from_seed(self):
        a = sample_sequence(MASTER_SEED, 50)
        assert a == sample_sequence(MASTER_SEED, 50) and len(a) == 50

    def test_extension_preserves_prefix(self):
        head = sample_sequence(MASTER_SEED, 10)
        assert sample_sequence(MASTER_SEED, 40)[:10] == head

    def test_prefix_materializes(self):
        assert len(sample_sequence("fresh", 7)) == 7

    def test_alphabet(self):
        assert set(sample_sequence(MASTER_SEED, 200)) <= set("01u")

    def test_roughly_uniform(self):
        word = sample_sequence(MASTER_SEED, 3000)
        for sym in "01u":
            assert 900 <= word.count(sym) <= 1100

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            sample_sequence(MASTER_SEED, -1)

    @given(seed=st.integers(0, 10**6), lengths=st.lists(st.integers(0, 300), max_size=4))
    @example(seed="rej:117", lengths=[1, 2, 6])  # the first four outputs are rejected
    @example(seed=MASTER_SEED, lengths=[0])      # empty word
    @example(seed=MASTER_SEED, lengths=[40, 7, 41])
    @example(seed=1, lengths=[(1 << 16) + 3])    # more than one bulk round
    @example(seed=2, lengths=[43679, 43680, 43681])  # rounds of 2**16 - 2, 2**16, capped
    @settings(max_examples=60, deadline=None)
    def test_bulk_draw_matches_symbol_loop(self, seed, lengths):
        # The reference draws one getrandbits(2) per try, so the words of
        # one seed share its stream: each is a prefix of every longer one.
        rng, stream = random.Random(str(seed)), ""
        for length in lengths:
            while len(stream) < length:
                stream += draw_symbol_oracle(rng)
            assert sample_sequence(seed, length) == stream[:length]


class TestInfluence:
    def test_shallow_record(self, lam_toy):
        # Distance 4 falls in the second window, so one probe at i + 2.
        rec = is_influenced("u1011", 1, 5, lam_toy)
        assert rec == InfluenceRecord(1, 1)
        assert rec.probes(lam_toy) == [1, 3]
        assert rec.to_dict() == {"i": 1, "k": 1}

    def test_depth_zero_record(self, lam_toy):
        assert is_influenced("u1", 1, 2, lam_toy) == InfluenceRecord(1, 0)

    def test_pattern_violation_is_none(self, lam_toy):
        # Probe at position 3 must read 0.
        assert is_influenced("u1111", 1, 5, lam_toy) is None

    def test_equal_positions_never_influence(self, lam_toy):
        assert is_influenced("u" * 5, 3, 3, lam_toy) is None

    def test_distance_past_last_window_is_none(self, lam_toy):
        word = "u" + "0" * 15
        assert is_influenced(word, 1, 16, lam_toy) is None

    def test_bad_positions_rejected(self, lam_toy):
        with pytest.raises(ValueError):
            is_influenced("u10", 3, 2, lam_toy)
        with pytest.raises(ValueError):
            is_influenced("u10", 1, 4, lam_toy)

    def test_all_zero_word_has_no_influence(self, lam_toy):
        assert influence_count("0" * 12, 12, lam_toy).count == 0

    def test_count_matches_records(self, lam_toy):
        summary = influence_count("u1011", 5, lam_toy)
        assert summary.count == len(summary.records) == 1

    @given(data=st.data(),
           lam=st.sampled_from(["paper", "geometric:b=3,start=3",
                                "explicit:2,6,14", "explicit:1"]),
           w=st.text(alphabet="01u", min_size=1, max_size=120))
    @settings(max_examples=200)
    def test_count_matches_per_pair_oracle(self, data, lam, w):
        # explicit:2,6,14 and explicit:1 leave distances past the last term.
        j = data.draw(st.integers(1, len(w)), label="j")
        seq = make_lacunary(lam)
        oracle = [is_influenced(w, i, j, seq) for i in range(1, j + 1)]
        oracle = tuple(rec for rec in oracle if rec is not None)
        assert influence_count(w, j, seq) == InfluenceSummary(len(oracle), oracle)

    @given(w=st.text(alphabet="01u", min_size=1, max_size=25))
    @settings(max_examples=80)
    def test_records_probe_inside_word(self, w, lam_toy):
        j = len(w)
        for rec in influence_count(w, j, lam_toy).records:
            probes = rec.probes(lam_toy)
            assert probes == sorted(probes)
            assert probes[0] == rec.i and probes[-1] < j
            assert w[rec.i - 1] == "u"
            assert all(w[p - 1] == "0" for p in probes[1:])


class TestBitmaskScans:
    @given(lam=st.sampled_from(ORACLE_LAMS), w=st.text(alphabet="01u", max_size=150),
           j=st.integers(1, 150))
    @example(lam="paper", w="u" + "0" * 27, j=28)   # j - i == lam_1: window 0
    @example(lam="paper", w="u" + "0" * 28, j=29)   # j - i == lam_1 + 1: window 1
    @example(lam="geometric:b=3,start=1", w="u0u0000000", j=10)  # j - i == lam_3
    @example(lam="explicit:2,6,14,30,62", w="u" + "0" * 62, j=63)  # last window's edge
    @example(lam="explicit:2,6,14,30,62", w="u" + "0" * 63, j=64)  # past the last term
    @example(lam="explicit:1", w="uuu", j=3)        # only distance 1 has a window
    @example(lam="paper", w="u0", j=1)
    @example(lam="geometric:b=3,start=3", w="u1u0u", j=5)  # j == len(word)
    @example(lam="paper", w="10" * 20, j=40)        # no u
    @example(lam="paper", w="", j=1)                # empty word
    @settings(max_examples=200, deadline=None)
    def test_influence_matches_per_position_scan(self, lam, w, j):
        seq = make_lacunary(lam)
        if not w:
            with pytest.raises(ValueError):
                influence_count(w, j, seq)
            return
        j = (j - 1) % len(w) + 1
        got = [(r.i, r.k) for r in influence_count(w, j, seq).records]
        assert got == oracle.influence_positions(lam, w, j)

    @given(lam=st.sampled_from(ORACLE_LAMS[:4]), j=st.integers(1, 200),
           w=st.text(alphabet="01u", min_size=202, max_size=202), extra=st.integers(0, 2))
    @example(lam="geometric:b=3,start=1", j=1, w="", extra=0)  # empty word, no blocks
    @example(lam="paper", j=27, w="u" * 26, extra=0)           # all 13 leaders succeed
    @example(lam="paper", j=60, w=("u" + "0" * 27) * 3, extra=0)  # leader 57 succeeds
    @example(lam="explicit:2,6,14,30,62", j=61, w="0" * 30 + "u" + "0" * 30,
             extra=0)                                         # k = 3, leader 31 succeeds
    @example(lam="geometric:b=3,start=3", j=30, w="1" * 29, extra=0)  # no u
    @settings(max_examples=150, deadline=None)
    def test_block_successes_match_leader_loop(self, lam, j, w, extra):
        seq = make_lacunary(lam)
        lam1 = seq.term(1)
        hi = 200 if seq.length is None else seq.term(seq.length) - 1
        j = lam1 + (j - lam1) % (hi - lam1 + 1)  # lam_1 <= j, below a finite list's end
        dec = block_decomposition(j, seq)
        w = w[:j - 1 + extra]
        assert block_success_count(w, dec, seq) == leader_oracle(w, dec, seq)


class TestBlocks:
    def test_two_block_example(self, lam_toy):
        dec = block_decomposition(10, lam_toy)
        assert (dec.k, dec.N) == (1, 2)
        assert dec.leaders == (4, 7)
        assert dec.blocks == (range(4, 7), range(7, 10))
        assert dec.success_probability == F(1, 9)

    def test_single_block_absorbs_remainder(self, lam_toy):
        dec = block_decomposition(6, lam_toy)
        assert (dec.k, dec.N) == (1, 1)
        assert dec.blocks == (range(1, 6),)

    def test_first_window(self, lam_toy):
        dec = block_decomposition(3, lam_toy)
        assert (dec.k, dec.N) == (0, 1)
        assert dec.blocks == (range(1, 3),)
        assert dec.success_probability == F(1, 3)

    def test_undersized_block_at_first_term(self, lam_toy):
        dec = block_decomposition(2, lam_toy)
        assert dec.N == 1 and dec.blocks == (range(1, 2),)

    def test_below_first_term_rejected(self, lam_toy):
        with pytest.raises(ValueError, match="lam_1"):
            block_decomposition(1, lam_toy)

    def test_final_window_of_explicit_sequence_rejected(self, lam_toy):
        with pytest.raises(ValueError, match="final window"):
            block_decomposition(14, lam_toy)

    def test_block_index_bounds(self, lam_toy):
        dec = block_decomposition(10, lam_toy)
        with pytest.raises(IndexError):
            dec.block(2)

    @given(j=st.integers(2, 29))
    def test_blocks_tile_the_range(self, j, lam_toy4):
        dec = block_decomposition(j, lam_toy4)
        flat = [i for blk in dec.blocks for i in blk]
        assert flat == list(range(dec.lo, dec.hi + 1))

    @given(j=st.integers(2, 29))
    def test_block_lengths_bounded(self, j, lam_toy4):
        dec = block_decomposition(j, lam_toy4)
        sizes = [len(blk) for blk in dec.blocks]
        assert all(sz == dec.base for sz in sizes[:-1])
        if dec.N > 1:
            assert dec.base <= sizes[-1] <= 2 * dec.base - 1

    @given(j=st.integers(2, 29))
    def test_leader_probes_stay_in_own_block(self, j, lam_toy4):
        dec = block_decomposition(j, lam_toy4)
        for t, blk in enumerate(dec.blocks):
            rec = InfluenceRecord(dec.leaders[t], dec.k)
            assert all(p in blk for p in rec.probes(lam_toy4))


class TestBlockSuccesses:
    def test_pattern_example(self, lam_toy):
        # Leader 4 shows (u, 0); leader 7 is blocked by the 1 at position 7.
        word = "000u001000"
        dec = block_decomposition(10, lam_toy)
        assert block_success_count(word, dec, lam_toy) == 1

    def test_all_zero_word_scores_zero(self, lam_toy):
        dec = block_decomposition(10, lam_toy)
        assert block_success_count("0" * 10, dec, lam_toy) == 0

    def test_short_word_rejected(self, lam_toy):
        dec = block_decomposition(10, lam_toy)
        with pytest.raises(ValueError):
            block_success_count("0" * 5, dec, lam_toy)

    @given(w=st.text(alphabet="01u", min_size=2, max_size=29))
    @settings(max_examples=120)
    def test_block_successes_bounded_by_influence(self, w, lam_toy4):
        j = len(w)
        dec = block_decomposition(j, lam_toy4)
        x = block_success_count(w, dec, lam_toy4)
        summary = influence_count(w, j, lam_toy4)
        assert 0 <= x <= summary.count
        # Each successful leader is an influencing position in its own right.
        winners = {
            i for i in dec.leaders
            if w[i - 1] == "u"
            and all(w[i - 1 + lam_toy4.term(m)] == "0" for m in range(1, dec.k + 1))
        }
        assert winners <= {rec.i for rec in summary.records}


class TestPerturb:
    def test_flip_rule(self):
        lam = make_lacunary("explicit:2,6")
        assert perturb("u1000", InfluenceRecord(1, 1), lam) == "01100"

    def test_projection_moves_by_exact_tail(self):
        lam = make_lacunary("explicit:2,6")
        before = exact_value(word_point("u1000"), "explicit:2,6")
        after = exact_value(word_point(perturb("u1000", InfluenceRecord(1, 1), lam)),
                            "explicit:2,6")
        assert before - after == F(1, 16384)

    def test_depth_zero_only_drops_the_u(self, lam_toy):
        assert perturb("u10", InfluenceRecord(1, 0), lam_toy) == "010"

    def test_invalid_records_rejected(self, lam_toy):
        with pytest.raises(ValueError):
            perturb("0100", InfluenceRecord(1, 0), lam_toy)  # not a u
        with pytest.raises(ValueError):
            perturb("u1100", InfluenceRecord(1, 1), lam_toy)  # probe not 0
        with pytest.raises(ValueError):
            perturb("u1", InfluenceRecord(1, 1), lam_toy)  # probe past end

    @given(w=st.text(alphabet="01u", min_size=1, max_size=20))
    @settings(max_examples=80)
    def test_exact_move_identity(self, w, lam_toy):
        j = len(w)
        for rec in influence_count(w, j, lam_toy).records:
            moved = perturb(w, rec, lam_toy)
            diff = exact_value(word_point(w), TOY) - exact_value(word_point(moved), TOY)
            tail = sum(
                (F(1, 4 ** (rec.i + lam_toy.term(m))) for m in range(rec.k + 1, 4)),
                F(0),
            )
            assert diff == tail
            assert 0 < diff <= F(4, 3) * F(1, 4 ** (rec.i + lam_toy.term(rec.k + 1)))


class TestPerturbationFamily:
    def test_cardinality_and_distinctness(self, lam_toy):
        word = sample_sequence(f"{MASTER_SEED}:family", 13)
        fam = perturbation_family(word, 13, lam_toy)
        s = influence_count(word, 13, lam_toy).count
        assert len(fam) == s + 1 == len(set(fam))
        assert all(len(member) == 13 for member in fam)

    def test_no_influence_gives_singleton(self, lam_toy):
        fam = perturbation_family("0" * 8, 8, lam_toy)
        assert fam == ["0" * 8]

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_family_members_cluster_near_base(self, seed, lam_toy):
        word = sample_sequence(f"prop:{seed}", 13)
        fam = perturbation_family(word, 13, lam_toy)
        assert len(fam) == len(set(fam))
        base = exact_value(word_point(fam[0]), TOY)
        for member in fam[1:]:
            val = exact_value(word_point(member), TOY)
            assert abs(val - base) <= F(4, 3) * F(1, 4 ** 13)
