"""End-to-end command-line tests: outputs, config resolution, exit codes."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracpack import (
    IFSSystem,
    S_DIM,
    density_ratio,
    make_lacunary,
    project,
    sample_sequence,
)
from fracpack.cli import _read_plain, _render_json, build_parser, main, parse_args
from conftest import LEVEL_SEQUENCES, span_counts
import workloads


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDimension:
    def test_canonical_ratios(self, capsys):
        code, out, _ = run(capsys, "dimension", "--ratios", "1/4,1/4,1/4")
        assert code == 0 and out == "0.792481250360578\n"

    def test_two_halves(self, capsys):
        code, out, _ = run(capsys, "dimension", "--ratios", "1/2,1/2")
        assert code == 0 and out == "1.0\n"

    def test_bad_ratio_exits_2(self, capsys):
        code, _, err = run(capsys, "dimension", "--ratios", "1.5")
        assert code == 2 and "out of (0,1)" in err

    @pytest.mark.parametrize("ratios", ["1e-400", "1/4,1e-400", "0.99999999999999999999"])
    def test_ratio_whose_float_rounds_out_exits_2(self, ratios, capsys):
        # Inside (0, 1) exactly, but the float is 0.0 or 1.0: the input is named.
        code, out, err = run(capsys, "dimension", "--ratios", ratios)
        bad = ratios.split(",")[-1]
        assert code == 2 and out == "" and f"ratio {bad} rounds to the float" in err

    @pytest.mark.parametrize("source", ["config", "env"])
    def test_config_format_csv(self, source, capsys, tmp_path, monkeypatch):
        argv = ["dimension", "--ratios", "1/4,1/4,1/4"]
        if source == "config":
            (tmp_path / "run.cfg").write_text("format = csv\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        else:
            monkeypatch.setenv("FRACPACK_FORMAT", "csv")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "dimension\n0.792481250360578\n"

    @pytest.mark.parametrize("source", ["config", "env"])
    def test_config_out_dir(self, source, capsys, tmp_path, monkeypatch):
        argv = ["dimension", "--ratios", "1/4,1/4,1/4"]
        if source == "config":
            (tmp_path / "run.cfg").write_text(f"out_dir = {tmp_path}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        else:
            monkeypatch.setenv("FRACPACK_OUT_DIR", str(tmp_path))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == ""
        payload = json.loads((tmp_path / "dimension.json").read_text())
        assert payload["dimension"] == 0.792481250360578

    def test_json_format_opt_in(self, capsys):
        code, out, _ = run(capsys, "dimension", "--ratios", "1/4,1/4,1/4",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["dimension"] == 0.792481250360578
        assert payload["ratios"] == ["1/4", "1/4", "1/4"]


class TestCount:
    def test_three_in_unit_C(self, capsys):
        code, out, _ = run(capsys, "count", "--lambda", "paper", "--n", "1",
                           "--center", "000000", "--C", "1")
        assert code == 0 and json.loads(out)["count"] == 3

    def test_half_C(self, capsys):
        code, out, _ = run(capsys, "count", "--lambda", "paper", "--n", "1",
                           "--center", "000000", "--C", "0.5")
        assert code == 0 and json.loads(out)["count"] == 2

    def test_depth_past_materialize_cap_exit_3(self, capsys, monkeypatch):
        # Refused before the radius C*4**-n is built.
        code, out, err = run(capsys, "count", "--lambda", "paper", "--n", str(10 ** 30),
                             "--center", "0")
        assert code == 3 and out == "" and "materialize_cap" in err
        monkeypatch.setenv("FRACPACK_MATERIALIZE_CAP", "14")
        argv = ("count", "--lambda", "explicit:2,6,14", "--center", "1", "--n")
        code, out, err = run(capsys, *argv, "15")
        assert code == 3 and out == "" and err == (
            "error: depth 15 exceeds materialize_cap = 14\n")
        code, out, _ = run(capsys, *argv, "14")
        assert code == 0 and json.loads(out)["n"] == 14

    def test_exact_hit(self, capsys):
        code, out, _ = run(capsys, "count", "--lambda", "explicit:2,6", "--n", "2",
                           "--center", "11", "--C", "0")
        assert code == 0 and json.loads(out)["count"] == 1

    def test_witnesses(self, capsys):
        code, out, _ = run(capsys, "count", "--lambda", "paper", "--n", "1",
                           "--center", "000000", "--C", "1", "--witnesses")
        assert code == 0 and json.loads(out)["witnesses"] == ["0", "1", "u"]

    def test_witness_list_past_cap_exits_3_fast(self, capsys, monkeypatch):
        # The ball holds all 3**9 words; the cap allows 3**5.
        monkeypatch.setenv("FRACPACK_ENUM_CAP", "5")
        t0 = time.perf_counter()
        code, out, err = run(capsys, "count", "--lambda", "explicit:2,6,14", "--n", "9",
                             "--center", "0", "--C", "100000", "--witnesses")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert time.perf_counter() - t0 < 1

    def test_witness_list_capped_on_symbols(self, capsys, monkeypatch):
        # 7962624 words, under 3**15 words but past 3**15 symbols at n = 20.
        monkeypatch.delenv("FRACPACK_ENUM_CAP", raising=False)
        code, out, err = run(capsys, "count", "--lambda", "paper", "--n", "20",
                             "--center", "0", "--C", "1000", "--witnesses")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "symbols" in err

    def test_short_witness_list_past_cap_depth(self, capsys, monkeypatch):
        # The cap bounds the list, not the depth: n = 16 > 5 still answers.
        monkeypatch.setenv("FRACPACK_ENUM_CAP", "5")
        code, out, _ = run(capsys, "count", "--lambda", "explicit:2,6,14", "--n", "16",
                           "--center", "1", "--C", "1", "--witnesses")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == len(payload["witnesses"]) == 5

    def test_deep_walk_does_not_recurse(self, capsys):
        # Depth 1200 is far past the interpreter's recursion limit.
        code, out, _ = run(capsys, "count", "--lambda", "explicit:2,6,14", "--n", "1200",
                           "--center", "1", "--C", "1")
        assert code == 0 and json.loads(out)["count"] == 5

    def test_deep_walk_memory_stays_flat(self, capsys):
        # Along the all-1 path every sibling misses the ball, so the walk
        # stacks no node beside the path; stacking the siblings with their
        # parent's 2n-bit key grew as n**2 (4.6 MB at n = 4000).
        argv = ["count", "--lambda", "explicit:2,6,14", "--n", "4000",
                "--center", "1" * 4000, "--C", "1"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0 and json.loads(out)["count"] == 3
        assert peak < 2 ** 20

    def test_paper_count_long_center_reduces_den(self, capsys):
        # The radius 4**-27 puts the ends over 4**27, which scaling by 4**27
        # cancels to den 1; the rank gate needs that reduced den.  Over
        # 4**27 it would shut, and the walk would visit about 2**27 nodes.
        t0 = time.perf_counter()
        with mock.patch("fracpack.ifs._prefix_walk", side_effect=AssertionError("walked")):
            code, out, _ = run(capsys, "count", "--lambda", "paper", "--n", "27",
                               "--center", "0" * 30, "--C", "1")
        assert code == 0 and json.loads(out)["count"] == 2 ** 27 + 1
        assert time.perf_counter() - t0 < 1

    def test_paper_count_at_lam1(self, capsys):
        # n = lam_1 = 27: u stays below the grid, so the count is O(n) digit
        # steps where the walk would visit about 2**27 nodes.  The hits are
        # P = 0 with any q-part (2**27 words) and the word 0...01 at 1.
        code, out, _ = run(capsys, "count", "--lambda", "paper", "--n", "27",
                           "--center", "0", "--C", "1")
        assert code == 0 and json.loads(out)["count"] == 2 ** 27 + 1

    def test_malformed_word_exits_2(self, capsys):
        code, _, err = run(capsys, "count", "--lambda", "paper", "--n", "1",
                           "--center", "012", "--C", "1")
        assert code == 2 and "alphabet" in err


class TestInfluence:
    def test_shallow_record(self, capsys):
        code, out, _ = run(capsys, "influence", "--lambda", "explicit:2,6,14",
                           "--word", "u1011", "--j", "5")
        payload = json.loads(out)
        assert code == 0 and payload["S"] == 1
        assert payload["records"] == [{"i": 1, "k": 1}]

    def test_all_zero_word(self, capsys):
        code, out, _ = run(capsys, "influence", "--lambda", "explicit:2,6,14",
                           "--word", "000000")
        assert code == 0 and json.loads(out)["S"] == 0

    def test_depth_zero_window(self, capsys):
        code, out, _ = run(capsys, "influence", "--lambda", "explicit:2,6,14",
                           "--word", "u1", "--j", "2")
        payload = json.loads(out)
        assert code == 0 and payload["records"] == [{"i": 1, "k": 0}]


class TestSimulate:
    def test_deterministic_without_explicit_seed(self, capsys):
        args = ("simulate", "--lambda", "explicit:2,6,14",
                "--checkpoints", "2,6,13", "--trials", "100")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        payload = json.loads(out1)
        assert out1 == out2
        assert payload["seed"] == 0x5EED and payload["trials"] == 100

    def test_non_integer_checkpoint_exit_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--lambda", "explicit:2,6,14",
                             "--checkpoints", "3,x", "--trials", "10")
        assert (code, out) == (2, "")
        assert err == "error: checkpoints must contain integers, got '3,x'\n"

    def test_empty_checkpoints_exit_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--lambda", "explicit:2,6,14",
                           "--checkpoints", ",", "--trials", "10")
        assert code == 2 and "checkpoints" in err

    def test_trials_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "simulate", "--lambda", "explicit:2,6,14",
                           "--checkpoints", "2", "--trials", "2000000")
        assert code == 3 and "trials_cap" in err

    def test_checkpoint_past_materialize_cap_exit_3(self, capsys, monkeypatch):
        # Position j weighs 4**-j, so a sampled word obeys the exponent cap.
        monkeypatch.setenv("FRACPACK_MATERIALIZE_CAP", "100")
        argv = ("simulate", "--lambda", "paper", "--trials", "10", "--checkpoints")
        code, out, err = run(capsys, *argv, "5,101")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out, _ = run(capsys, *argv, "5,100")
        assert code == 0 and json.loads(out)["checkpoints"] == [5, 100]

    def test_huge_checkpoint_exits_3_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--lambda", "paper",
                             "--checkpoints", "10000000")
        assert code == 3 and out == "" and "materialize_cap" in err
        assert time.perf_counter() - t0 < 1


class TestDensity:
    def test_csv_column_contract(self, capsys):
        code, out, _ = run(capsys, "density", "--lambda", "explicit:2,6,14",
                           "--n-max", "3", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n,radius,M,ratio_bound"
        assert len(lines) == 4

    def test_default_word_is_all_zeros(self, capsys):
        code, out, _ = run(capsys, "density", "--lambda", "explicit:2,6,14",
                           "--n-max", "3")
        payload = json.loads(out)
        assert code == 0
        assert set(payload["word"]) == {"0"} and len(payload["word"]) == 11
        # Self-witness floor: the center's own prefix is always inside.
        assert all(e["count"] >= 1 for e in payload["entries"])

    def test_depth_and_default_word_past_materialize_cap_exit_3(self, capsys, monkeypatch):
        # Refused before the default word of 10**30 symbols is built.
        code, out, err = run(capsys, "density", "--lambda", "explicit:2,6",
                             "--n-max", str(10 ** 30))
        assert code == 3 and out == "" and "materialize_cap" in err
        # At n_max = 3 the default word has 3 + 2*(6 - 2) = 11 symbols.
        argv = ("density", "--lambda", "explicit:2,6", "--n-max", "3")
        monkeypatch.setenv("FRACPACK_MATERIALIZE_CAP", "10")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err == (
            "error: word length 11 exceeds materialize_cap = 10\n")
        monkeypatch.setenv("FRACPACK_MATERIALIZE_CAP", "11")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["word"]) == 11


class TestBlowup:
    ARGS = ("blowup", "--lambda", "explicit:2,6,14,30", "--j", "13")

    def test_default_study_figures(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--C", "3", "--min-successes", "2",
                           "--samples", "200")
        payload = json.loads(out)
        assert code == 0 and payload["word_length"] == 29
        assert len(payload["entries"]) == 80
        assert round(payload["min_ratio"], 6) == 2.116951

    @pytest.mark.parametrize("lam,j", [("explicit:2,6,14,30", "13"),
                                       ("geometric:b=3,start=3", "12")])
    @pytest.mark.parametrize("C", ["3", "5/3"])
    def test_every_count_beats_family(self, lam, j, C, capsys):
        code, out, _ = run(capsys, "blowup", "--lambda", lam, "--j", j, "--C", C,
                           "--min-successes", "0", "--samples", "40")
        entries = json.loads(out)["entries"]
        assert code == 0 and len(entries) == 40
        assert all(e["count"] >= e["S"] + 1 for e in entries)
        assert all(e["ratio_bound"] >= e["floor"] for e in entries)

    def test_family_escapes_ball_below_five_thirds(self, capsys):
        argv = self.ARGS + ("--samples", "20", "--min-successes", "2")
        code, out, _ = run(capsys, *argv, "--C", "5/3")
        entry = json.loads(out)["entries"][-1]
        assert code == 0 and (entry["trial"], entry["S"], entry["count"]) == (19, 2, 5)
        # At C = 1 trial 19's ball holds only its own prefix, not S + 1 = 3 words.
        lam = make_lacunary("explicit:2,6,14,30")
        word = sample_sequence(f"{0x5EED}:cond:19", 29)
        assert word == "0uu1u1u10uu111u1110u00u1uu100"
        assert density_ratio(IFSSystem(lam), project(word), 13, Fraction(1)).count == 1
        code, out, err = run(capsys, *argv, "--C", "1")
        assert code == 2 and out == "" and "5/3" in err

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--samples", "5", "--format", "csv")
        assert code == 0 and out.splitlines()[0] == "trial,S,count,ratio_bound,floor"

    def test_no_kept_word_gives_null_minimum(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--samples", "5", "--min-successes", "99")
        payload = json.loads(out)
        assert code == 0 and payload["entries"] == [] and payload["min_ratio"] is None

    @pytest.mark.parametrize("argv", [("--lambda", "bogus"), ("--C", "0"), ("--C", "1"),
                                      ("--j", "0"), ("--samples", "-1")],
                             ids=lambda a: "".join(a))
    def test_bad_input_exits_2(self, argv, capsys):
        code, out, err = run(capsys, *self.ARGS, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_samples_past_trials_cap_exit_3(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--samples", "2000000")
        assert code == 3 and out == "" and "trials_cap" in err

    def test_word_past_materialize_cap_exit_3(self, capsys, monkeypatch):
        # At j = 12 the recommended word has 12 + 2*(9 - 3) = 24 symbols.
        argv = ("blowup", "--lambda", "geometric:b=3,start=3", "--j", "12",
                "--samples", "3")
        monkeypatch.setenv("FRACPACK_MATERIALIZE_CAP", "23")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "materialize_cap" in err
        monkeypatch.setenv("FRACPACK_MATERIALIZE_CAP", "24")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["word_length"] == 24


class TestFloatRange:
    """A float column past float range: the value from logs, or exit 3."""

    PACK = ("pack", "--lambda", "paper", "--n", "3", "--delta", "1e400")
    DENSITY = ("density", "--lambda", "paper", "--n-max", "2", "--C", "1e400")
    BLOWUP = ("blowup", "--lambda", "paper", "--j", "3", "--C", "1e400",
              "--samples", "2", "--min-successes", "0")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pack_value_exits_3(self, fmt, capsys):
        # 1 * (10**400)**s is about 10**317.
        code, out, err = run(capsys, *self.PACK, "--format", fmt)
        assert (code, out, err) == (3, "", "error: value is beyond float range\n")

    def test_pack_value_from_logs(self, capsys):
        # delta = 10**380 has no float, but 1 * delta**s does.
        argv = self.PACK[:-1] + ("1e380",)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.exp(S_DIM * 380 * math.log(10)))
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, out, err) == (3, "", "error: delta is beyond float range\n")

    def test_density_json_answers(self, capsys):
        code, out, _ = run(capsys, *self.DENSITY)
        entries = json.loads(out)["entries"]
        assert code == 0 and [e["count"] for e in entries] == [3, 9]
        assert all(0 < e["ratio_bound"] < 1e-300 for e in entries)

    def test_density_csv_radius_exits_3(self, capsys):
        code, out, err = run(capsys, *self.DENSITY, "--format", "csv")
        assert (code, out, err) == (3, "", "error: radius is beyond float range\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_blowup_answers(self, fmt, capsys):
        code, out, _ = run(capsys, *self.BLOWUP, "--format", fmt)
        assert code == 0
        if fmt == "json":
            entries = json.loads(out)["entries"]
        else:
            head, *lines = out.splitlines()
            entries = [dict(zip(head.split(","), map(float, line.split(","))))
                       for line in lines]
        assert len(entries) == 2
        assert all(0 < e["floor"] <= e["ratio_bound"] < 1e-300 for e in entries)


class TestMeasurePackBoxcount:
    def test_measure_interval(self, capsys):
        code, out, _ = run(capsys, "measure", "--lambda", "paper", "--lo", "0",
                           "--hi", "1/4", "--n", "1")
        payload = json.loads(out)
        assert code == 0
        assert (payload["lower"], payload["upper"]) == ("1/3", "1")

    @pytest.mark.parametrize("ends", [("0", "1/3"), ("-1/4", "1/4"), ("-1/3", "-1/5")])
    def test_measure_any_rational_ends(self, ends, capsys):
        # Ends need not be dyadic or nonnegative.
        code, out, _ = run(capsys, "measure", "--lambda", "paper", f"--lo={ends[0]}",
                           f"--hi={ends[1]}", "--n", "3")
        payload = json.loads(out)
        lo, hi = (Fraction(e) for e in ends)
        want = span_counts("paper", 3, (lo, 0), (hi, 0), 1)
        assert code == 0 and (payload["lo"], payload["hi"]) == ends
        assert (payload["contained"], payload["intersecting"]) == want

    def test_measure_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "measure", "--lambda", "explicit:2,6", "--lo", "0",
                           "--hi", "1", "--n", "40")
        assert code == 3 and "cap" in err

    def test_measure_past_cap_on_rank_path(self, capsys):
        # Under paper, n = 27 = lam_1 is below the grid: the O(n) rank answers,
        # so the enumeration cap (15) does not apply.  Every word starting
        # with 0 or u lies inside [0, 1/4]; 1000...0 meets it at 1/4.
        code, out, _ = run(capsys, "measure", "--lambda", "paper", "--lo", "0",
                           "--hi", "1/4", "--n", "27")
        payload = json.loads(out)
        assert code == 0
        assert (payload["contained"], payload["intersecting"]) == (2 * 3 ** 26,
                                                                    2 * 3 ** 26 + 1)
        assert payload["lower"] == "2/3"

    def test_pack_level_one(self, capsys):
        code, out, _ = run(capsys, "pack", "--lambda", "paper", "--n", "1",
                           "--delta", "1/4")
        payload = json.loads(out)
        assert code == 0 and payload["accepted"] == 1
        assert payload["value"] == pytest.approx(1 / 3, rel=1e-12)

    def test_boxcount_first_level(self, capsys):
        code, out, _ = run(capsys, "boxcount", "--lambda", "paper", "--n-max", "1")
        payload = json.loads(out)
        assert code == 0 and payload["rows"][0]["cells"] == 2

    def test_boxcount_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "boxcount", "--lambda", "paper", "--n-max", "16")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("argv", [("pack", "--n", "8", "--delta", "1/8192"),
                                      ("boxcount", "--n-max", "8")], ids=lambda a: a[0])
    def test_truncation_past_materialize_cap_exit_3(self, argv, capsys, monkeypatch):
        # Level 8 needs u truncated at lam_2 = 9, past the cap of 5.
        monkeypatch.setenv("FRACPACK_MATERIALIZE_CAP", "5")
        code, out, err = run(capsys, *argv, "--lambda", "geometric:b=3,start=3")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_verify_toy_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--lambda", "explicit:2,6,14,30,62",
                           "--M", "0", "--k-max", "2")
        payload = json.loads(out)
        assert code == 0
        contributions = [row["contribution"] for row in payload["rows"]]
        assert contributions == pytest.approx(
            [3.2029496116672322, 7.804887840518766, 15.956164411018774], rel=1e-12)

    def test_verify_past_float_range_exit_3(self, capsys):
        # The paper sequence's block count at scale k = 5 has 771 bits.
        code, out, err = run(capsys, "verify", "--lambda", "paper", "--k-max", "5")
        assert code == 3 and out == ""
        assert err == "error: scale k = 5: N has 771 bits, beyond float range\n"

    def test_verify_flagged_rows_stay_finite(self, capsys):
        # Rows k = 630..640 count 2**1001 to 2**1017 words, inside float range.
        code, out, _ = run(capsys, "verify", "--lambda", "geometric:b=3,start=2",
                           "--M", "1", "--k-max", "640")
        payload = json.loads(out)
        assert code == 0 and "Infinity" not in out
        assert all(r["contribution"] == float(r["count"]) for r in payload["rows"][630:])
        assert payload["cumulative"][-1] == pytest.approx(1.3669551670974012e306, rel=1e-12)

    def test_verify_csv_header(self, capsys):
        code, out, _ = run(capsys, "verify", "--lambda", "explicit:2,6,14",
                           "--M", "0", "--k-max", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == ("k,j_lo,j_hi,count,N,p,M,flagged,"
                                       "hoeffding,contribution,log10_contribution")


def choice(*strategies):
    """A draw from one of the strategies, each equally likely (st.one_of
    does not weight its branches equally)."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


def mostly(good, bad):
    """Three draws from good to one from bad."""
    return choice(good, good, good, bad)


# Text for a rational option: small ratios, ratios and decimal exponents
# near and far past both ends of float range, exponents too long to
# expand, and words Fraction refuses.
powers_of_ten = choice(st.integers(-20, 20), st.integers(300, 400), st.integers(-400, -300),
                       st.integers(-5000, 5000))
rational_texts = mostly(
    choice(
        st.builds(lambda a, j: f"{a}/{4 ** j}", st.integers(-20, 20), st.integers(0, 12)),
        st.builds(lambda a, e, b: f"{a}{'0' * max(e, 0)}/{b}{'0' * max(-e, 0)}",
                  st.integers(-9, 9), powers_of_ten, st.integers(1, 9)),
        st.builds("{}e{}".format, st.integers(-99, 99),
                  mostly(powers_of_ten, st.integers(-10 ** 9, 10 ** 9)))),
    st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1/0", "", " ", "1e",
                     "1/-3", "0x10", "one", "1e0_100000"]))
depths = mostly(st.integers(-3, 9).map(str),
                st.sampled_from(["", "x", "1.5", "1e3", "0x3", str(10 ** 30)]))
descriptors = mostly(
    st.sampled_from(LEVEL_SEQUENCES),
    choice(st.sampled_from([
        "explicit:2,3", "explicit:", "explicit:0", "explicit:-1", "explicit:3,2",
        "explicit:1,2000000", "explicit:1," + "9" * 40, "geometric:b=2,start=1",
        "geometric:b=3", "geometric:b=3,start=0", "paper:1", "nope", ""]),
        st.text(max_size=12)))
level_argvs = choice(
    st.builds(lambda n, d: ["pack", "--n", n, "--delta", d], depths, rational_texts),
    st.builds(lambda n: ["boxcount", "--n-max", n], depths),
    st.builds(lambda lo, hi, n: ["measure", "--lo", lo, "--hi", hi, "--n", n],
              rational_texts, rational_texts, depths))


def assert_exits_cleanly(argv, env):
    """main(argv) under env exits 0, 2 or 3 with no traceback, and writes
    stdout exactly when it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (out.getvalue() != "")


class TestLevelCommandsExitCleanly:
    @given(argv=level_argvs, desc=descriptors, fmt=st.sampled_from(["json", "csv"]))
    # Fraction would build 10**100000000, which takes over 20 s.
    @example(argv=["pack", "--n", "2", "--delta", "1e100000000"], desc="paper", fmt="json")
    @example(argv=["measure", "--lo", "nan", "--hi", "1", "--n", "2"], desc="paper",
             fmt="json")
    @settings(max_examples=1000, deadline=None)
    def test_exit_code_without_traceback(self, argv, desc, fmt):
        # Depths past the small enumeration cap exit 3 instead of running.
        assert_exits_cleanly([*argv, f"--lambda={desc}", "--format", fmt],
                             {"FRACPACK_ENUM_CAP": "6"})


# Drawn depths stay below 10: count, density and blowup have no work cap
# past lam_1, so a deep request under the materialization cap runs instead
# of exiting 3.  A depth past that cap exits 3 before any word or power of
# 4 is built, as the @examples at 10**30 check.
bad_ints = st.sampled_from(["", "x", "1.5", "1e3", "0x3", "2**4"])
small_ints = mostly(st.integers(-3, 9).map(str), bad_ints)
sizes = mostly(st.integers(-3, 40).map(str), bad_ints)
seeds = mostly(st.integers(-9, 2 ** 70).map(str), bad_ints)
words = mostly(st.text("01u", max_size=14), st.text(max_size=6))
checkpoint_lists = mostly(
    st.lists(choice(st.integers(-3, 60), st.integers(650, 750)), min_size=1,
             max_size=4).map(lambda js: ",".join(map(str, js))),
    st.sampled_from(["", ",", "3,x", "1.5", " 2 , 7 ", "1e3", "7,,9"]))


# Half of the draws are radii that density (C >= 1) or blowup (C >= 5/3) accepts.
radius_coefficients = choice(rational_texts, st.sampled_from(["1", "5/3", "3", "1e9"]))


def optional(flag, values):
    """No flag, or the flag and one of values."""
    return choice(st.just([]), values.map(lambda v: [flag, v]))


other_argvs = choice(
    st.builds(lambda n, w, C, wit: ["count", "--n", n, "--center", w, "--C", C, *wit],
              small_ints, words, radius_coefficients, st.sampled_from([[], ["--witnesses"]])),
    st.builds(lambda n, C, w: ["density", "--n-max", n, "--C", C, *w],
              small_ints, radius_coefficients, optional("--word", words)),
    st.builds(lambda j, C, m, k, seed: ["blowup", "--j", j, "--C", C, "--min-successes", m,
                                        "--samples", k, *seed],
              small_ints, radius_coefficients, small_ints, sizes, optional("--seed", seeds)),
    st.builds(lambda cps, k, seed: ["simulate", "--checkpoints", cps, "--trials", k, *seed],
              checkpoint_lists, sizes, optional("--seed", seeds)),
    st.builds(lambda M, k: ["verify", "--M", M, "--k-max", k], small_ints, small_ints),
    st.builds(lambda w, j: ["influence", "--word", w, *j], words, optional("--j", small_ints)),
    st.builds(lambda rs: ["dimension", "--ratios", ",".join(rs)],
              st.lists(choice(rational_texts, st.builds("{}/{}".format, st.integers(1, 9),
                                                        st.integers(10, 99))),
                       min_size=1, max_size=3)))


class TestOtherCommandsExitCleanly:
    """The seven commands that TestLevelCommandsExitCleanly leaves out."""

    @given(argv=other_argvs, desc=descriptors,
           fmt=st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    # Bad in two ways at once: the descriptor is reported first.
    @example(argv=["blowup", "--j", "0", "--C", "1", "--min-successes", "2",
                   "--samples", "-1"], desc="bogus", fmt=[])
    @example(argv=["simulate", "--checkpoints", "3,x", "--trials", "99"], desc="explicit:",
             fmt=["--format", "csv"])
    @example(argv=["verify", "--M", "0", "--k-max", "5"], desc="paper", fmt=[])
    @example(argv=["count", "--n", "9", "--center", "0", "--C", "1e300", "--witnesses"],
             desc="explicit:2,6,14", fmt=[])
    # 4**n, 4**-n and a default word of 10**30 symbols are never built.
    @example(argv=["count", "--n", str(10 ** 30), "--center", "0"], desc="paper", fmt=[])
    @example(argv=["count", "--n", str(-10 ** 30), "--center", "0"], desc="paper", fmt=[])
    @example(argv=["density", "--n-max", str(10 ** 30)], desc="explicit:2,6", fmt=[])
    @settings(max_examples=1000, deadline=None)
    def test_exit_code_without_traceback(self, argv, desc, fmt):
        lam = [] if argv[0] == "dimension" else [f"--lambda={desc}"]
        assert_exits_cleanly([*argv, *lam, *fmt],
                             {"FRACPACK_ENUM_CAP": "6", "FRACPACK_TRIALS_CAP": "25",
                              "FRACPACK_MATERIALIZE_CAP": "700"})


class TestConfigResolution:
    def test_config_file_sets_format(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv  # plot-ready\n")
        code, out, _ = run(capsys, "count", "--config", str(cfg), "--lambda",
                           "explicit:2,6", "--n", "1", "--center", "0", "--C", "1")
        assert code == 0 and out == "count\n3\n"

    def test_env_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv\n")
        monkeypatch.setenv("FRACPACK_FORMAT", "json")
        code, out, _ = run(capsys, "count", "--config", str(cfg), "--lambda",
                           "explicit:2,6", "--n", "1", "--center", "0", "--C", "1")
        assert code == 0 and json.loads(out)["count"] == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACPACK_FORMAT", "csv")
        code, out, _ = run(capsys, "count", "--format", "json", "--lambda",
                           "explicit:2,6", "--n", "1", "--center", "0", "--C", "1")
        assert code == 0 and json.loads(out)["count"] == 3

    def test_env_lambda_default(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACPACK_LAMBDA", "explicit:2,6")
        code, out, _ = run(capsys, "count", "--n", "1", "--center", "0", "--C", "1")
        assert code == 0 and json.loads(out)["lambda"] == "explicit:2,6"

    def test_out_dir_names_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_dir = {tmp_path}\n")
        code, out, _ = run(capsys, "boxcount", "--config", str(cfg), "--lambda",
                           "explicit:2,6", "--n-max", "2")
        assert code == 0 and out == ""
        target = tmp_path / "boxcount.json"
        assert target.exists()
        assert json.loads(target.read_text())["rows"][1]["cells"] == 4

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("colour = blue\n")
        code, _, err = run(capsys, "count", "--config", str(cfg), "--lambda",
                           "explicit:2,6", "--n", "1", "--center", "0")
        assert code == 2 and "unknown config key" in err

    def test_bad_seed_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACPACK_SEED", "abc")
        code, out, err = run(capsys, "count", "--lambda", "explicit:2,6", "--n", "1",
                             "--center", "0")
        assert (code, out) == (2, "")
        assert err == "error: config key seed needs an integer, got 'abc'\n"

    def test_bad_format_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run(capsys, "count", "--config", str(cfg), "--lambda",
                             "explicit:2,6", "--n", "1", "--center", "0")
        assert (code, out, err) == (2, "", "error: format must be json or csv, got 'xml'\n")

    def test_config_line_without_equals_exit_2(self, capsys, tmp_path):
        # Line 2 is blank and skipped; line 3 names no key=value.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n\nformat csv\n")
        code, out, err = run(capsys, "count", "--config", str(cfg), "--lambda",
                             "explicit:2,6", "--n", "1", "--center", "0")
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:3: expected key=value, got 'format csv'\n"

    def test_missing_config_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "count", "--config", str(tmp_path / "nope.cfg"),
                           "--lambda", "explicit:2,6", "--n", "1", "--center", "0")
        assert code == 2

    def test_bad_lambda_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "--lambda", "bogus", "--n", "1",
                           "--center", "0")
        assert code == 2 and "descriptor" in err

    def test_empty_lambda_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACPACK_LAMBDA", "explicit:2,6")
        code, _, err = run(capsys, "count", "--lambda", "", "--n", "1",
                           "--center", "0")
        assert code == 2 and "descriptor" in err

    def test_growth_gate_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "--lambda", "explicit:2,4", "--n", "1",
                           "--center", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("count", "--n", "2", "--center", "0", "--C", "1/0"),
        ("measure", "--n", "2", "--hi", "1", "--lo", "1/0"),
        ("measure", "--n", "2", "--lo", "0", "--hi", "1/0"),
        ("pack", "--n", "2", "--delta", "1/0"),
        ("density", "--n-max", "2", "--C", "1/0"),
        ("dimension", "--ratios", "1/4,1/0"),
    ], ids=lambda a: a[0] + a[-2])
    def test_zero_denominator_exit_2(self, argv, capsys):
        lam = () if argv[0] == "dimension" else ("--lambda", "explicit:2,6")
        code, _, err = run(capsys, *argv, *lam)
        assert code == 2 and "zero denominator" in err


class TestNegativeValues:
    """A bare negative fraction after an option is its value, not an option."""

    def test_every_subparser_reads_fractions(self):
        subs = build_parser()._subparsers._group_actions[0].choices
        for parser in (build_parser(), *subs.values()):
            matcher = parser._negative_number_matcher
            assert all(matcher.match(v) for v in ("-1/4", "-1", "-0.25", "-.5",
                                                  "-1e-3", "-2.5E+2", "-.5e1", "-1_000"))
            assert not any(matcher.match(v) for v in ("-1/", "--lo", "-e3", "-1e", "-1/4e2"))

    @pytest.mark.parametrize("bare, joined", [
        (("--lo", "-1/4", "--hi", "1/4"), ("--lo=-1/4", "--hi=1/4")),
        (("--lo", "-0.25", "--hi", "1/4"), ("--lo=-1/4", "--hi=1/4")),
        (("--lo", "-1e-3", "--hi", "1/4"), ("--lo=-1/1000", "--hi=1/4")),
        (("--lo", "-2.5E-1", "--hi", "1/4"), ("--lo=-1/4", "--hi=1/4")),
    ])
    def test_lo(self, bare, joined, capsys):
        base = ("measure", "--lambda", "paper", "--n", "2")
        code, out, _ = run(capsys, *base, *bare)
        assert (code, out) == run(capsys, *base, *joined)[:2] and code == 0

    def test_hi(self, capsys):
        base = ("measure", "--lambda", "paper", "--n", "3", "--lo=-1/3")
        for hi, text in (("-1/5", "-1/5"), ("-2e-1", "-1/5"), ("-1e-3", "-1/1000")):
            code, out, _ = run(capsys, *base, "--hi", hi)
            assert (code, out) == run(capsys, *base, f"--hi={hi}")[:2] and code == 0
            assert json.loads(out)["hi"] == text

    @pytest.mark.parametrize("C", ["-1/2", "-1", "-1e-3", "-5E0"])
    def test_C(self, C, capsys):
        code, _, err = run(capsys, "count", "--lambda", "paper", "--n", "2",
                           "--center", "0", "--C", C)
        assert code == 2 and err == "error: radius must be nonnegative\n"

    def test_delta(self, capsys):
        for delta in ("-1/4", "-1e-3", "-.25e1"):
            code, _, err = run(capsys, "pack", "--lambda", "paper", "--n", "2",
                               "--delta", delta)
            assert code == 2 and err == "error: delta must be positive\n"

    def test_negative_int_still_parses(self, capsys):
        code, _, err = run(capsys, "count", "--lambda", "paper", "--n", "-1",
                           "--center", "0")
        assert code == 2 and err == "error: depth must be >= 0\n"


SUBCOMMANDS = build_parser()._subparsers._group_actions[0].choices
option_texts = st.sampled_from(["0", "2", "-1", "1_000", "1/4", "-1/4", "-.5", "-1e-3", "-1e",
                                "", "-", "-1 2", "x", "paper", "explicit:2,6", "u01",
                                "json", "csv", "xml", "--", "-h", "--n"])


@st.composite
def option_argvs(draw):
    """A subcommand with most of its required options and some optional
    ones, in any order, each followed by a value where it takes one; then
    up to three edits: a token spliced in, one or two dropped, one
    abbreviated, or two joined with "="."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    # -h comes first and is left to the splices.  An optional option is
    # kept half the time, a required one fifteen times in sixteen.
    actions = [a for a in SUBCOMMANDS[name]._actions[1:]
               if draw(st.integers(0, 15 if a.required else 1))]
    argv = [name]
    for action in draw(st.permutations(actions)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            fits = (st.sampled_from(action.choices) if action.choices else
                    st.integers(-3, 9).map(str) if action.type is int else option_texts)
            argv.append(draw(mostly(fits, option_texts)))
    for _ in range(draw(choice(st.just(0), st.integers(1, 3)))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["splice", "drop", "abbreviate", "join"]))
        if edit == "splice":
            argv.insert(i, draw(st.sampled_from(sorted(
                SUBCOMMANDS[name]._option_string_actions)) | option_texts))
        elif i < len(argv) and edit == "drop":
            del argv[i:i + draw(st.integers(1, 2))]
        elif i < len(argv) and edit == "abbreviate":
            argv[i] = argv[i][:draw(st.integers(1, max(1, len(argv[i]) - 1)))]
        elif i + 1 < len(argv):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
    return argv


def parse_outcome(parse, argv):
    """parse(argv), or its exit code with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestParseOnce:
    """parse_args reads a plain argv itself, and answers as the top-level
    parser does."""

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["count", "-h"],
        ["cnt", "--n", "2"],
        ["count", "--lambda", "paper", "--n", "2", "--center", "0", "--bogus"],
        ["count", "--lambda", "paper", "--center", "0"],
        ["count", "--lambda", "paper", "--n", "x", "--center", "0"],
        # Each parses past the form named, then misses --center or --hi.
        ["count", "--lambda", "paper", "--n=3"],
        ["count", "--lam", "paper", "--n", "2"],
        ["measure", "--lambda", "paper", "--lo", "-1/4", "--n", "2"],
        ["count", "--lambda", "paper", "--n", "2", "--center", "0", "--witnesses", "x"],
        ["count", "--lambda", "paper", "--n", "2", "--center", "0", "--witnesses=x"],
        ["count", "--lambda", "paper", "--n", "2", "--center", "0", "--"],
        ["count", "--lambda", "paper", "--n", "2", "--", "--center", "0"],
        ["count", "--lambda", "paper", "--n", "", "--center", "0"],
        ["count", "--lambda", "paper", "--n", "2", "--center"],
        ["count", "--lambda", "paper", "--n", "2", "--center", "--C"],
        ["count", "--lambda", "paper", "--n", "2", "--center", "0", "--format", "xml"],
    ], ids=repr)
    def test_exit_matches_top_level_parser(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert (code, out, err) == (exc.value.code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", [
        ["count", "--lambda", "paper", "--n=3", "--center", "0"],
        ["count", "--lam", "paper", "--n", "2", "--center", "01", "--C", "1/2"],
        ["measure", "--lambda", "paper", "--lo", "-1/4", "--hi", "1/4", "--n", "2"],
        ["dimension", "--ratios", "1/4,1/4,1/4"],
        # The last of a repeated option wins.
        ["count", "--lambda", "paper", "--n", "2", "--n", "3", "--center", "0",
         "--center", "1"],
        ["count", "--lambda", "paper", "--n", "2", "--center", "0", "--witnesses"],
        ["count", "--lambda", "paper", "--n", "2", "--center", "0", "--witnesses",
         "--witnesses"],
        ["count", "--lambda", "", "--n", "2", "--center", "0"],
        ["influence", "--lambda", "paper", "--word", "-"],
        ["measure", "--lambda", "paper", "--lo", "-1 2", "--hi", "1", "--n", "2"],
        ["count", "--lambda", "paper", "--n", "1_000", "--center", "0"],
        # Each subcommand with its optional flags left out.
        ["dimension", "--ratios", "1/4"],
        ["count", "--n", "2", "--center", "0"],
        ["influence", "--word", "u"],
        ["simulate", "--checkpoints", "2"],
        ["density", "--n-max", "3"],
        ["blowup", "--j", "3"],
        ["measure", "--lo", "0", "--hi", "1", "--n", "2"],
        ["pack", "--n", "2", "--delta", "1/4"],
        ["boxcount", "--n-max", "3"],
        ["verify"],
    ], ids=repr)
    def test_namespace_matches_top_level_parser(self, argv):
        assert parse_args(argv) == build_parser().parse_args(argv)

    @given(argv=option_argvs())
    @example(argv=["measure", "--lo", "-1/4", "--hi=1/4", "--n", "2"])
    @example(argv=["influence", "--lambda", "paper", "--word"])
    @settings(max_examples=500, deadline=None)
    def test_edited_argv_answers_as_top_level_parser(self, argv):
        expected = parse_outcome(build_parser().parse_args, argv)
        assert parse_outcome(parse_args, argv) == expected

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_argvs_take_the_plain_reader(self, workload, seed):
        # An option change that sent these back through argparse would slow
        # every benchmark op without failing any other test.
        for op in workloads.build(workload, seed):
            if op["kind"] == "cli":
                args = _read_plain(op["argv"])
                assert args is not None, op["argv"]
                assert args == build_parser().parse_args(op["argv"])


ALL_COMMANDS = [
    ("dimension", "--ratios", "1/4,1/4,1/4", "--format", "json"),
    ("count", "--lambda", "explicit:2,6", "--n", "2", "--center", "11", "--C", "0"),
    ("influence", "--lambda", "explicit:2,6,14", "--word", "u1011"),
    ("simulate", "--lambda", "explicit:2,6,14", "--checkpoints", "2,6",
     "--trials", "50"),
    ("density", "--lambda", "explicit:2,6,14", "--n-max", "3"),
    ("measure", "--lambda", "explicit:2,6", "--lo", "0", "--hi", "1/4", "--n", "2"),
    ("pack", "--lambda", "explicit:2,6", "--n", "3", "--delta", "1/16"),
    ("boxcount", "--lambda", "explicit:2,6", "--n-max", "4"),
    ("verify", "--lambda", "explicit:2,6,14", "--M", "0", "--k-max", "1"),
    ("blowup", "--lambda", "explicit:2,6,14,30", "--j", "13", "--samples", "20"),
]


class TestOutputContracts:
    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_reruns_byte_identical(self, argv, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(list(argv) + ["--out", str(first)]) == 0
        assert main(list(argv) + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert not list(tmp_path.glob("*.partial"))

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_json_round_trip(self, argv, capsys):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
        assert payload["schema"] == 1
        if "--lambda" in argv:
            desc = argv[argv.index("--lambda") + 1]
            assert payload["lambda"] == make_lacunary(desc).descriptor()
        else:
            assert "lambda" not in payload

    def test_lambda_echo_is_canonical(self, capsys):
        code, out, _ = run(capsys, "count", "--lambda", "explicit:2, 6", "--n", "2",
                           "--center", "11")
        assert code == 0 and json.loads(out)["lambda"] == "explicit:2,6"

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
    def test_csv_variant_renders(self, argv, capsys):
        code, out, _ = run(capsys, *(argv[0],) + tuple(argv[1:]) + ("--format", "csv"))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) >= 1 and out.endswith("\n")


# Every JSON value a payload can hold; st.floats() includes inf, -inf and nan.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10)


class TestJsonWriter:
    """_render_json against the json module it stands in for."""

    @given(payload=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=6))
    @example(payload={"flagged": True, "off": False, "one": 1, "zero": 0})
    @example(payload={"contribution": math.inf, "low": -math.inf, "nan": math.nan,
                      "neg0": -0.0, "tiny": 5e-324, "big": 1e300})
    @example(payload={"log10_contribution": None, "min_ratio": None})
    @example(payload={"word": 'q"b\\s/\n\t\x00\x1f\x7f \u00e9 \u221e \U0001d11e',
                      "\u00fc\n": "key escaped"})
    @example(payload={"t": (1, (2.5, [])), "e": {}, "l": [], "d": {"b": [{}], "a": ()}})
    @example(payload={})
    @settings(max_examples=150, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert _render_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_unsupported_value_raises_type_error(self):
        for render in (_render_json, lambda p: json.dumps(p, sort_keys=True, indent=2)):
            with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
                render({"p": Fraction(1, 2)})


class TestInstalledScript:
    def test_console_entry_point(self):
        exe = shutil.which("fracpack")
        assert exe, "console script not installed"
        proc = subprocess.run([exe, "dimension", "--ratios", "1/4,1/4,1/4"],
                              capture_output=True, text=True, env=dict(os.environ))
        assert proc.returncode == 0 and proc.stdout == "0.792481250360578\n"
