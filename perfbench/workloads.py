"""Seeded op lists for the three benchmark workloads.

An op is a plain dict, so the parent (which checks outputs) and the child
(which runs them) build the identical list from the same seed without
importing fracpack.  Keys:

  key     unique text, used for the recorded stdout digests
  kind    "cli" (one in-process call of fracpack.cli.main) or "call"
          (one call of a public library function)
  argv    for "cli": the argument list
  func    for "call": "module.function"; args in "args"
  expect  list of acceptable exit codes ("cli" only)
  check   what the output check verifies; see checks.py
  known   true for an op that is expected to fail at this commit and is
          kept visible in fail_rate rather than dropped

Sizes are fixed per slot and only the inputs (centres, words, grids,
intervals, gauges, seeds) come from the seed, so every seed asks for
comparable work; where the work depends on the input itself, the input
follows a fixed template (see ball_dfs).  Each pass has at least 100 ops,
so the 90th latency percentile has ten samples beyond it.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("ball-dfs", "level-enum", "codes-stats")

PAPER = "paper"
GEOMETRIC = "geometric:b=3,start=3"
EXPLICIT = "explicit:2,6,14"
CARRY = "explicit:1,3,7"          # three active terms can carry
EXPLICIT5 = "explicit:2,6,14,30,62"

# Deepest level the brute-force oracle enumerates (3**10 words).
ORACLE_N = 10

# The one op that fails at this commit: the recursive DFS overflows the
# interpreter stack.  Every workload issues it once per pass so fail_rate
# reads the same defect on all three (and is never zero while it stands).
CANARY_ARGV = ["count", "--lambda", EXPLICIT, "--n", "1200", "--center", "1", "--C", "1"]


def _cli(argv, check, expect=(0,), known=False):
    return {"key": " ".join(argv), "kind": "cli", "argv": list(argv),
            "expect": list(expect), "check": check, "known": known}


def _call(func, args, check):
    key = func + "(" + ",".join(f"{k}={v}" for k, v in sorted(args.items())) + ")"
    return {"key": key, "kind": "call", "func": func, "args": args, "check": check,
            "known": False}


def _word(rng: random.Random, n: int, template: str = "z") -> str:
    """n symbols repeating `template`: x draws 0 or u, z draws 0, 1 or u,
    any other letter stands for itself."""
    draw = {"x": "0u", "z": "01u"}
    return "".join(rng.choice(draw.get(ch, ch)) for ch in (template * n)[:n])


def _count(lam, n, center, C):
    C = str(C)
    return _cli(["count", "--lambda", lam, "--n", str(n), "--center", center, "--C", C],
                {"type": "count", "lam": lam, "n": n, "center": center, "C": C})


def _common_tail(ops, bad_argv):
    ops.append(_cli(bad_argv, {"type": "error"}, expect=(2,)))
    ops.append(_cli(CANARY_ARGV, {"type": "clean"}, expect=(0, 3), known=True))


def ball_dfs(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    shrink = 8 if tiny else 0
    # About 60 cheap ops (rational u, oracle sizes) put the median inside a
    # cluster of like ops; paper counts make up the top tenth.
    paper_n = [14, 15, 16, 17, 18, 19, 20] * 4
    geo_n = list(range(16, 25))
    exp_n = list(range(16, 29)) * 4
    # Work per count depends on the centre.  Under paper (u far below the
    # grid) it doubles with every non-1 symbol and shifts with where the 1s
    # sit, so paper centres keep a 1 at every third place and the seed draws
    # the 0/u symbols.  Under the geometric sequence a u shadows a 1 three
    # places later; dense centres swing the work a hundredfold between seeds,
    # so its centres keep every third symbol 0.
    for lam, sizes, template in ((PAPER, paper_n, "x1x"), (GEOMETRIC, geo_n, "xx0"),
                                 (EXPLICIT, exp_n, "z")):
        seen = set()
        for n in sizes:
            center = _word(rng, n - shrink, template)
            while center in seen:
                center = _word(rng, n - shrink, template)
            seen.add(center)
            ops.append(_count(lam, n - shrink, center, 1))
        for n in (8, 9, 10):
            n -= shrink // 2
            C = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
            ops.append(_count(lam, n, _word(rng, n + 3), C))
    for lam, n_max in ((PAPER, 16), (PAPER, 17), (EXPLICIT, 18), (PAPER, ORACLE_N),
                       (EXPLICIT, ORACLE_N)):
        n_max -= shrink
        word = _word(rng, n_max + 6, "x1x")
        argv = ["density", "--lambda", lam, "--n-max", str(n_max), "--word", word]
        ops.append(_cli(argv, {"type": "density", "lam": lam, "n_max": n_max,
                               "word": word, "C": "3"}))
    _common_tail(ops, ["count", "--lambda", "explicit:2,3", "--n", "5", "--center", "1"])
    rng.shuffle(ops)
    return ops


def _dyadic(rng: random.Random, bits: int) -> tuple[Fraction, Fraction]:
    """A random closed interval inside [0, 1/3] with power-of-4 denominators."""
    den = 4 ** bits
    a, b = sorted(rng.sample(range(0, den // 3 + 1), 2))
    return Fraction(a, den), Fraction(b, den)


def level_enum(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    shrink = 5 if tiny else 0
    # paper --n-max 11 materialises 3**11 points and sets peak_rss_mb.
    box = [(PAPER, 11), (PAPER, 9), (PAPER, 7), (GEOMETRIC, 9), (GEOMETRIC, 7),
           (EXPLICIT, 9), (EXPLICIT, 7), (CARRY, 9), (CARRY, 8)]
    # The geometric pack sorts with the exact sign comparator; keep n <= 8.
    # The eight n = 9 packs under rational u cost about the same and sit
    # around the 90th percentile, so it does not jump between unlike ops.
    pack = [(PAPER, 10), (PAPER, 8), (GEOMETRIC, 8), (GEOMETRIC, 7), (EXPLICIT, 10),
            (EXPLICIT, 8), (CARRY, 10), (CARRY, 7)] + [(EXPLICIT, 9), (CARRY, 9)] * 4
    for lam, n in box:
        n = max(2, n - shrink)
        ops.append(_cli(["boxcount", "--lambda", lam, "--n-max", str(n)],
                        {"type": "boxcount", "lam": lam, "n_max": n}))
    deltas = set()
    for lam, n in pack:
        n = max(2, n - shrink)
        delta = Fraction(rng.randint(1, 8), 4 ** (n - 1))
        while (lam, n, delta) in deltas:
            delta = Fraction(rng.randint(1, 8), 4 ** (n - 1))
        deltas.add((lam, n, delta))
        argv = ["pack", "--lambda", lam, "--n", str(n), "--delta", str(delta)]
        ops.append(_cli(argv, {"type": "pack", "lam": lam, "n": n, "delta": str(delta)}))
    for lam in (PAPER, GEOMETRIC, EXPLICIT, CARRY):
        for n in range(7, 14):
            n_op = max(2, n - shrink)
            intervals = set()
            while len(intervals) < 3:
                intervals.add(_dyadic(rng, rng.randint(3, n_op + 3)))
            for lo, hi in sorted(intervals):
                argv = ["measure", "--lambda", lam, "--lo", str(lo), "--hi", str(hi),
                        "--n", str(n_op)]
                ops.append(_cli(argv, {"type": "measure", "lam": lam, "n": n_op,
                                       "lo": str(lo), "hi": str(hi)}))
    ops.append(_cli(["boxcount", "--lambda", PAPER, "--n-max", "16"],
                    {"type": "error"}, expect=(3,)))
    _common_tail(ops, ["boxcount", "--lambda", "explicit:2,3", "--n-max", "4"])
    rng.shuffle(ops)
    return ops


def codes_stats(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    trials = 20 if tiny else 200
    for lam, cps in ((PAPER, [27, 60, 120, 250]), (EXPLICIT5, [14, 62, 126, 250])):
        cps = [j - rng.randint(0, 9) for j in cps]
        if tiny:
            cps = [j for j in cps if j <= 60]
        argv = ["simulate", "--lambda", lam, "--checkpoints", ",".join(map(str, cps)),
                "--trials", str(trials), "--seed", str(rng.randrange(10**6))]
        ops.append(_cli(argv, {"type": "simulate", "lam": lam, "checkpoints": cps,
                               "trials": trials}))
    for lam, k_max in ((PAPER, 2), (PAPER, 3), (GEOMETRIC, 3), (GEOMETRIC, 4)):
        for M in rng.sample(range(8), 3):
            argv = ["verify", "--lambda", lam, "--M", str(M), "--k-max", str(k_max)]
            ops.append(_cli(argv, {"type": "verify", "lam": lam, "M": M, "k_max": k_max}))
    # The exact sum has M + 1 terms; M sits a little under the mean N/9.
    # N = 2*10**4 takes the floating branch.
    grid = {100: 1, 300: 1} if tiny else {1000: 3, 3000: 2, 10**4: 1}
    grid[2 * 10**4] = 1
    for N, M in [(N, M) for N, k in grid.items()
                 for M in rng.sample(range(N // 9 - N // 90, N // 9 + 1), k)]:
        ops.append(_call("stats.tail_report", {"N": N, "p": "1/9", "M": M},
                         {"type": "tail", "N": N, "p": "1/9", "M": M}))
    for lam, j in ((PAPER, 27), (PAPER, 40), (EXPLICIT5, 14), (EXPLICIT5, 30)):
        args = {"lam": lam, "j": j + rng.randint(0, 9), "trials": 60 if tiny else 400,
                "seed": rng.randrange(10**6)}
        ops.append(_call("stats.empirical_X_law", args, dict(args, type="xlaw")))
    # The scan costs about j * length symbol reads, so each slot fixes both
    # and the seed draws only the word.
    for t in range(75):
        lam = (PAPER, EXPLICIT5, GEOMETRIC)[t % 3]
        length = (60 if tiny else 200) + 2 * (t // 3)
        word = _word(rng, length)
        j = length - t % 3 * 20
        argv = ["influence", "--lambda", lam, "--word", word, "--j", str(j)]
        ops.append(_cli(argv, {"type": "influence", "lam": lam, "word": word, "j": j}))
    ops.append(_cli(["simulate", "--lambda", PAPER, "--checkpoints", "10",
                     "--trials", "2000000"], {"type": "error"}, expect=(3,)))
    _common_tail(ops, ["simulate", "--lambda", "explicit:2,3", "--checkpoints", "5"])
    rng.shuffle(ops)
    return ops


_BUILDERS = {"ball-dfs": ball_dfs, "level-enum": level_enum, "codes-stats": codes_stats}


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The op list of one pass over a workload, generated from the seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    ops = _BUILDERS[workload](rng, tiny)
    keys = [op["key"] for op in ops]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate op keys")
    return ops
