"""Acceptance checks for the whole package.

Each test prints one summary line, visible even under capture, then
asserts.  The checks exercise the library end to end at desk scale:
exact counting oracles, the perturbation mechanism, concentration
bounds, certified measure arithmetic, and CLI reproducibility.
"""

import math
import random
from fractions import Fraction as F

import pytest

from fracpack import (
    IFSSystem,
    S_DIM,
    SymbolicPoint,
    binom_tail,
    block_decomposition,
    block_success_count,
    box_counting_profile,
    count_in_ball,
    density_ratio,
    distinct_level_points,
    empirical_X_law,
    hoeffding_bound,
    influence_count,
    make_lacunary,
    measure_bounds,
    monte_carlo_growth,
    perturbation_family,
    project,
    recommended_word_length,
    sample_sequence,
    similarity_dimension,
)
import oracle
from conftest import MASTER_SEED, TOY, exact_value, word_point
from test_cli import ALL_COMMANDS, main


def announce(capsys, num: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")


def test_01_similarity_dimension(capsys):
    s = similarity_dimension([F(1, 4)] * 3)
    ok = abs(s - math.log(3) / math.log(4)) <= 1e-12
    announce(capsys, 1, "similarity dimension", ok)
    assert ok


def test_02_counting_oracle(capsys, sys_toy):
    rng = random.Random(f"{MASTER_SEED}:balls")
    mismatches = 0
    for _ in range(100):
        n = rng.randint(1, 10)
        word = "".join(rng.choice("01u") for _ in range(n))
        C = rng.choice([F(1, 2), F(1), F(2), F(3)])
        pruned = count_in_ball(sys_toy, n, word_point(word), C * F(1, 4 ** n)).count
        if pruned != oracle.ball_count(TOY, n, word, C):
            mismatches += 1
    ok = mismatches == 0
    announce(capsys, 2, "pruned counting matches full enumeration", ok)
    assert ok


def test_03_perturbation_family(capsys, lam_toy):
    j = 13
    L = recommended_word_length(lam_toy, j)
    tail_bound = F(4, 3) * F(1, 4 ** j)
    cluster_bound = 3 * F(1, 4 ** j)
    violations = 0
    for t in range(1000):
        word = sample_sequence(f"{MASTER_SEED}:pert:{t}", L)
        full = exact_value(word_point(word), TOY)
        fam = perturbation_family(word, j, lam_toy)
        s_count = influence_count(word, j, lam_toy).count
        if len(fam) != s_count + 1 or len(set(fam)) != len(fam):
            violations += 1
            continue
        base = exact_value(word_point(fam[0]), TOY)
        for member in fam[1:]:
            val = exact_value(word_point(member), TOY)
            if abs(base - val) > tail_bound:
                violations += 1
        for member in fam:
            val = exact_value(word_point(member), TOY)
            if abs(val - full) > cluster_bound:
                violations += 1
    ok = violations == 0
    announce(capsys, 3, "perturbation family: distance, injectivity, cluster", ok)
    assert ok


def test_04_binomial_law(capsys, lam_toy):
    j, trials = 10, 10 ** 5
    report = empirical_X_law(lam_toy, j, trials, MASTER_SEED)
    ok_tv = report.N == 2 and report.p == F(1, 9) and report.tv_distance <= 0.01
    dec = block_decomposition(j, lam_toy)
    s_at_most = {0: 0, 1: 0}
    x_at_most = {0: 0, 1: 0}
    for t in range(trials):
        word = sample_sequence(f"{MASTER_SEED}:{t}", j)
        s = influence_count(word, j, lam_toy).count
        x = block_success_count(word, dec, lam_toy)
        for M in (0, 1):
            s_at_most[M] += s <= M
            x_at_most[M] += x <= M
    ok_contain = all(
        s_at_most[M] / trials <= x_at_most[M] / trials + 0.01 for M in (0, 1))
    ok = ok_tv and ok_contain
    announce(capsys, 4, "block successes follow the binomial law", ok)
    assert ok


def test_05_hoeffding_domination(capsys):
    violations = 0
    for p in (F(1, 3), F(1, 9), F(1, 27)):
        for N in range(1, 201):
            for M in range(math.ceil(N * p)):
                if N * p - M <= 0:
                    continue
                if float(binom_tail(N, p, M)) > hoeffding_bound(N, p, M):
                    violations += 1
    ok = violations == 0
    announce(capsys, 5, "exact binomial tail below Hoeffding bound", ok)
    assert ok


def test_06_influence_growth(capsys):
    lam = make_lacunary("explicit:2,6,14,30,62")
    checkpoints = (6, 14, 30, 62)
    report = monte_carlo_growth(lam, checkpoints, 2000, MASTER_SEED)
    p10s = [s.p10 for s in report.stats]
    ok = p10s == sorted(p10s) and report.stats[-1].p50 >= 2
    announce(capsys, 6, "influence counts grow along checkpoints", ok)
    assert ok


def test_07_measure_bounds(capsys, sys_toy):
    rng = random.Random(f"{MASTER_SEED}:intervals")
    violations = 0
    for _ in range(50):
        k = rng.randint(1, 6)
        a = rng.randint(0, 2 ** k - 1)
        b = rng.randint(a + 1, 2 ** k)
        lo, hi = SymbolicPoint(F(a, 2 ** k), F(0)), SymbolicPoint(F(b, 2 ** k), F(0))
        prev_lower = None
        for n in range(0, 11):
            mb = measure_bounds(sys_toy, lo, hi, n)
            if not 0 <= mb.lower <= mb.upper <= 1:
                violations += 1
            if prev_lower is not None and mb.lower < prev_lower:
                violations += 1
            prev_lower = mb.lower
    for n in range(0, 11):
        mb = measure_bounds(sys_toy, SymbolicPoint(F(0), F(0)), SymbolicPoint(F(1), F(0)), n)
        if not (mb.lower == mb.upper == 1):
            violations += 1
    ok = violations == 0
    announce(capsys, 7, "certified measure bounds stay ordered and sharp", ok)
    assert ok


def test_08_density_mechanism(capsys):
    lam = make_lacunary("explicit:2,6,14,30")
    sys4 = IFSSystem(lam)
    j = 13
    L = recommended_word_length(lam, j)
    identity_ok = True
    conditioned = []
    t = 0
    while len(conditioned) < 60 and t < 500:
        word = sample_sequence(f"{MASTER_SEED}:cond:{t}", L)
        if influence_count(word, j, lam).count >= 2:
            conditioned.append(word)
        t += 1
    ratio_ok = len(conditioned) >= 50
    floor = 3.0 / 8.0 ** S_DIM
    for word in conditioned:
        entry = density_ratio(sys4, project(word), j, F(3))
        back = entry.ratio_bound * (2.0 * float(entry.C + 1)) ** S_DIM
        if abs(back - entry.count) > 1e-9 * max(1, entry.count):
            identity_ok = False
        if entry.ratio_bound < floor - 1e-12:
            ratio_ok = False
    ok = identity_ok and ratio_ok
    announce(capsys, 8, "density ratios certify the planted blow-up", ok)
    assert ok


def test_09_no_total_overlaps(capsys, sys_paper):
    ok = all(distinct_level_points(sys_paper, n) == 3 ** n for n in range(0, 13))
    announce(capsys, 9, "level points all distinct under the builtin sequence", ok)
    assert ok


def test_10_box_counting_slope(capsys, sys_paper):
    profile = box_counting_profile(sys_paper, 12)
    pts = [(r.n * math.log(4.0), math.log(r.cells))
           for r in profile.rows if 4 <= r.n <= 12]
    xbar = math.fsum(x for x, _ in pts) / len(pts)
    ybar = math.fsum(y for _, y in pts) / len(pts)
    slope = (math.fsum((x - xbar) * (y - ybar) for x, y in pts)
             / math.fsum((x - xbar) ** 2 for x, _ in pts))
    ok = 0.75 <= slope <= 0.85
    announce(capsys, 10, f"box-count slope {slope:.4f} within [0.75, 0.85]", ok)
    assert ok, (
        f"slope = {slope}: occupied cells double per level (2**n for n <= 12), "
        "so the log-log slope is 0.5; the first lacunary exponent 27 keeps every "
        "u-digit below the 4**-12 grid and the box dimension only emerges at "
        "depths past the enumeration cap")


def test_11_cli_reproducibility(capsys, tmp_path):
    ok = True
    for argv in ALL_COMMANDS:
        first = tmp_path / f"{argv[0]}.a"
        second = tmp_path / f"{argv[0]}.b"
        if main(list(argv) + ["--out", str(first)]) != 0:
            ok = False
            continue
        if main(list(argv) + ["--out", str(second)]) != 0:
            ok = False
            continue
        if first.read_bytes() != second.read_bytes():
            ok = False
    capsys.readouterr()
    announce(capsys, 11, "CLI outputs byte-identical across reruns", ok)
    assert ok
