"""Output checks: each op's output against the oracle or against invariants.

check(op, out) raises CheckError when the output is wrong.  Levels up to
workloads.ORACLE_N are compared with brute-force enumeration; deeper
results are held to invariants here and to the recorded stdout digests
(see run.py).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import oracle
from workloads import ORACLE_N

S_DIM = math.log(3) / math.log(4)


class CheckError(AssertionError):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _count(c, p):
    _expect(p["lambda"] == c["lam"] and p["n"] == c["n"] and p["center"] == c["center"], "echo")
    got = p["count"]
    _expect(isinstance(got, int) and 0 <= got <= 3 ** c["n"], f"count {got} out of range")
    if c["n"] <= ORACLE_N:
        want = oracle.ball_count(c["lam"], c["n"], c["center"], Fraction(c["C"]))
        _expect(got == want, f"count {got} != oracle {want}")


def _density(c, p):
    C = Fraction(c["C"])
    entries = p["entries"]
    _expect([e["n"] for e in entries] == list(range(1, c["n_max"] + 1)), "levels")
    for e in entries:
        n, got = e["n"], e["count"]
        _expect(Fraction(e["radius"]) == (C + 1) / 4 ** n, f"radius at n={n}")
        _expect(_close(e["ratio_bound"], got / (2 * float(C + 1)) ** S_DIM), f"ratio at n={n}")
        if n <= ORACLE_N:
            want = oracle.ball_count(c["lam"], n, c["word"], C)
            _expect(got == want, f"density count {got} != oracle {want} at n={n}")


def _boxcount(c, p):
    rows = p["rows"]
    _expect([r["n"] for r in rows] == list(range(1, c["n_max"] + 1)), "levels")
    for r in rows:
        n, cells = r["n"], r["cells"]
        _expect(1 <= cells <= 3 ** n, f"cells {cells} out of range at n={n}")
        _expect(_close(r["dim_estimate"], math.log(cells) / (n * math.log(4.0))), "dim")
        if n <= ORACLE_N:
            want = oracle.box_cells(c["lam"], n)
            _expect(cells == want, f"cells {cells} != oracle {want} at n={n}")


def _pack(c, p):
    delta = Fraction(c["delta"])
    got = p["accepted"]
    _expect(1 <= got <= 3 ** c["n"] and Fraction(p["delta"]) == delta, "accepted/delta")
    _expect(_close(p["value"], got * float(delta) ** S_DIM), "value")
    if c["n"] <= ORACLE_N:
        want = oracle.pack_accepted(c["lam"], c["n"], delta)
        _expect(got == want, f"accepted {got} != oracle {want}")


def _measure(c, p):
    n, inner, meet = c["n"], p["contained"], p["intersecting"]
    _expect(0 <= inner <= meet <= 3 ** n, "contained <= intersecting <= 3**n")
    _expect(Fraction(p["lower"]) == Fraction(inner, 3 ** n), "lower")
    _expect(Fraction(p["upper"]) == Fraction(meet, 3 ** n), "upper")
    if n <= ORACLE_N:
        want = oracle.cylinder_counts(c["lam"], n, Fraction(c["lo"]), Fraction(c["hi"]))
        _expect((inner, meet) == want, f"({inner}, {meet}) != oracle {want}")


def _simulate(c, p):
    _expect(p["trials"] == c["trials"] and p["checkpoints"] == c["checkpoints"], "echo")
    for s, j in zip(p["stats"], c["checkpoints"]):
        order = [s[k] for k in ("min", "p10", "p25", "p50", "p75", "p90", "max")]
        _expect(s["j"] == j and order == sorted(order), f"quantiles out of order at j={j}")
        _expect(0 <= s["min"] <= s["mean"] <= s["max"] < j, f"range at j={j}")


def _verify(c, p):
    rows = p["rows"]
    _expect([r["k"] for r in rows] == list(range(c["k_max"] + 1)) and p["M"] == c["M"], "rows")
    total = 0.0
    for r, cum in zip(rows, p["cumulative"]):
        prob = Fraction(1, 3 ** (r["k"] + 1))
        _expect(Fraction(r["p"]) == prob and r["N"] >= 1, f"p or N at k={r['k']}")
        _expect(r["flagged"] == (r["N"] * prob <= c["M"]), f"flag at k={r['k']}")
        total += r["contribution"]
        _expect(_close(cum, total), f"cumulative at k={r['k']}")


def _tail(c, p):
    N, M, prob = c["N"], c["M"], Fraction(c["p"])
    want = oracle.binom_tail(N, prob, M)
    got = p["exact_tail"]
    if isinstance(got, list):
        _expect(Fraction(int(got[0], 16), int(got[1], 16)) == want, "exact tail")
    else:
        _expect(_close(got, float(want), 1e-9), f"float tail {got} vs {float(want)}")
    gap = N * prob - M
    hoeff = 1.0 if gap <= 0 else math.exp(-2.0 * float(gap * gap) / N)
    _expect(_close(p["hoeffding"], hoeff) and p["flagged"] == (gap <= 0), "hoeffding")


def _xlaw(c, p):
    hist = {int(k): v for k, v in p["histogram"].items()}
    _expect(sum(hist.values()) == c["trials"] and p["j"] == c["j"], "histogram total")
    prob = Fraction(1, 3 ** (p["k"] + 1))
    _expect(Fraction(p["p"]) == prob, "p")
    pmf = oracle.binom_pmf(p["N"], prob)
    tv = sum(abs(Fraction(hist.get(m, 0), c["trials"]) - pmf[m]) for m in range(p["N"] + 1))
    tv += sum(Fraction(v, c["trials"]) for m, v in hist.items() if m > p["N"])
    _expect(_close(p["tv_distance"], float(tv / 2)), "total variation")


def _influence(c, p):
    want = oracle.influence_positions(c["lam"], c["word"], c["j"])
    got = [(r["i"], r["k"]) for r in p["records"]]
    _expect(got == want and p["S"] == len(want), f"records {got} != oracle {want}")


def _clean(c, p):
    _expect(isinstance(p["count"], int), "count")


_CHECKS = {"count": _count, "density": _density, "boxcount": _boxcount, "pack": _pack,
           "measure": _measure, "simulate": _simulate, "verify": _verify, "tail": _tail,
           "xlaw": _xlaw, "influence": _influence, "clean": _clean}


def check(op: dict, code, out: str) -> None:
    """Raise CheckError unless (exit code, output) is right for the op."""
    c = op["check"]
    if op["kind"] == "cli":
        _expect(code in op["expect"], f"exit {code}, expected {op['expect']}")
        if code != 0:
            _expect(out == "", "output on a failed command")
            return
    try:
        payload = json.loads(out)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc
    try:
        _CHECKS[c["type"]](c, payload)
    except (KeyError, TypeError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from exc
