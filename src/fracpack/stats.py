"""Tail bounds and seeded simulation for the block success counts.

Binomial arithmetic is exact rational up to N = 10**4.  The
Binomial(N, a/b) probabilities are integers over b**N, and one exact
integer recurrence yields them in turn; a tail is one Horner sum in
b - a over short integers and one product of Fractions.  Beyond
N = 10**4 a log-domain floating evaluation is used (documented relative
tolerance 1e-9, far tighter in practice).  It stays because the exact
tail still grows like N**2: near M = N/9 it takes about 10 ms at
N = 2*10**4 and 0.2 s at N = 10**5 on a 2-core Xeon, against 4 to 15 ms
for the float branch.

Scale-table entries combine an exact per-scale block count with the
Hoeffding bound exp(-2 * (N*p - M)**2 / N), flagged whenever N*p <= M
since the bound then says nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numeric import CapError, LacunarySequence, rational_str
from .codespace import (
    _pattern_masks,
    _windows,
    block_decomposition,
    sample_sequence,
)

EXACT_BINOMIAL_LIMIT = 10**4
LOG_DOMAIN_REL_TOL = 1e-9


def binom_pmf(N: int, p: Fraction) -> list[Fraction]:
    """Exact Binomial(N, p) probabilities for m = 0..N.

    With p = a/b and c = b - a, the m-th is t_m * c**(N - m) / b**N, on
    the short integers t_m = C(N, m) * a**m that binom_tail's Horner sum
    reads.  At p = 0 only t_0 is nonzero; at p = 1 only c**0 is.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if N < 0:
        raise ValueError("N must be >= 0")
    a, b = p.numerator, p.denominator
    c = b - a
    den = b ** N
    pmf = []
    t = 1
    for m in range(N + 1):
        pmf.append(Fraction(t * c ** (N - m), den))
        t = t * ((N - m) * a) // (m + 1)
    return pmf


def binom_tail(N: int, p: Fraction, M: int):
    """P[Binomial(N, p) <= M], exact Fraction for N <= 10**4 else float.

    With p = a/b and c = b - a, the exact branch returns H / b**M times
    (c/b)**(N - M), where H = sum_{m <= M} C(N, m) a**m c**(M - m) is
    taken by Horner's rule in c on the short integers t = C(N, m) * a**m;
    t * (N - m) * a // (m + 1) divides exactly.  As c/b is in lowest
    terms, its power needs no reduction, and the product reduces through
    gcds with the short H and b**M only.  At p = 0, c = b and the tail is
    1; at p = 1, c = 0 and with M < N it is 0.
    The floating branch sums term logs via lgamma; its relative error is
    bounded by LOG_DOMAIN_REL_TOL on the supported range.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if N < 0 or M < 0:
        raise ValueError("N and M must be >= 0")
    M = min(M, N)
    if N <= EXACT_BINOMIAL_LIMIT:
        if M >= N:
            return Fraction(1)
        a, b = p.numerator, p.denominator
        c = b - a
        acc = t = 1
        for m in range(M):
            t = t * ((N - m) * a) // (m + 1)
            acc = acc * c + t
        return Fraction(acc, b ** M) * Fraction(c, b) ** (N - M)
    if p == 0:
        return 1.0
    if p == 1:
        return 1.0 if M >= N else 0.0
    lp = math.log(p.numerator) - math.log(p.denominator)
    lq = math.log(p.denominator - p.numerator) - math.log(p.denominator)
    logs = [math.lgamma(N + 1) - math.lgamma(m + 1) - math.lgamma(N - m + 1)
            + m * lp + (N - m) * lq
            for m in range(M + 1)]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def hoeffding_bound(N: int, p: Fraction, M: int) -> float:
    """exp(-2 * (N*p - M)**2 / N); returns 1.0 when N*p <= M (vacuous)."""
    p = Fraction(p)
    if N < 1:
        raise ValueError("N must be >= 1")
    gap = N * p - M
    if gap <= 0:
        return 1.0
    return math.exp(_hoeffding_exponent(gap, N, "Hoeffding bound"))


def _hoeffding_exponent(gap: Fraction, N: int, where: str) -> float:
    """-2 * gap**2 / N in floats; CapError when gap**2 or N overflows a float."""
    try:
        return -2.0 * float(gap * gap) / N
    except OverflowError:
        raise CapError(f"{where}: N has {N.bit_length()} bits, "
                       "beyond float range") from None


@dataclass(frozen=True)
class TailReport:
    """Exact binomial tail next to its Hoeffding bound for one (N, p, M)."""

    N: int
    p: Fraction
    M: int
    exact_tail: object
    hoeffding: float
    flagged: bool


def tail_report(N: int, p: Fraction, M: int) -> TailReport:
    p = Fraction(p)
    return TailReport(
        N=N, p=p, M=M,
        exact_tail=binom_tail(N, p, M),
        hoeffding=hoeffding_bound(N, p, M),
        flagged=(N * p <= M),
    )


def _or_inf(f, x) -> float:
    """f(x) for a float-valued f, or inf where that float overflows."""
    try:
        return f(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ScaleRow:
    """One scale of the summability table.

    The row covers all j with j_lo <= j < j_hi (j_lo = lam_{k+1}); N is
    the minimum block count over that range, attained at j = j_lo, and
    the contribution bounds the sum over the range of the per-j tail
    bound by count * hoeffding.  Flagged rows carry no usable bound.
    """

    k: int
    j_lo: int
    j_hi: int
    count: int
    N: int
    p: Fraction
    M: int
    flagged: bool
    hoeffding: float
    contribution: float
    log10_contribution: Optional[float]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "j_lo": self.j_lo,
            "j_hi": self.j_hi,
            "count": self.count,
            "N": self.N,
            "p": rational_str(self.p),
            "M": self.M,
            "flagged": self.flagged,
            "hoeffding": self.hoeffding,
            "contribution": self.contribution,
            "log10_contribution": self.log10_contribution,
        }


@dataclass(frozen=True)
class ScaleTable:
    M: int
    rows: tuple[ScaleRow, ...]

    @property
    def cumulative(self) -> list[float]:
        out = []
        total = 0.0
        for row in self.rows:
            total += row.contribution
            out.append(total)
        return out

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "rows": [r.to_dict() for r in self.rows],
            "cumulative": self.cumulative,
        }


def borel_cantelli_table(lam: LacunarySequence, M: int, k_max: int) -> ScaleTable:
    """Per-scale tail-bound contributions for k = 0..k_max.

    Row k covers j in [lam_{k+1}, lam_{k+2}); the block count N is taken
    at the representative j = lam_{k+1}, where it is minimal over the
    range (the clamped range length min(lam_{k+1}, j-1) and hence the
    block count are nondecreasing in j).  Requires N >= 1 at every scale
    and, for explicit sequences, k_max + 2 available terms.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if M < 0:
        raise ValueError("M must be >= 0")
    rows = []
    for k in range(k_max + 1):
        if lam.term_or_none(k + 2) is None:
            raise ValueError(
                f"k_max = {k_max} needs term {k_max + 2}; sequence ends earlier")
        j_lo = lam.term(k + 1)
        j_hi = lam.term(k + 2)
        dec = block_decomposition(j_lo, lam)
        if dec.N < 1:
            raise ValueError(f"no blocks at scale k = {k} (j = {j_lo})")
        N = dec.N
        p = Fraction(1, 3 ** (k + 1))
        count = j_hi - j_lo
        gap = N * p - M
        flagged = gap <= 0
        if flagged:
            h = 1.0
            contribution = _or_inf(float, count)
            log10c = None
        else:
            log_h = _hoeffding_exponent(gap, N, f"scale k = {k}")
            h = math.exp(log_h)
            logc = math.log(count) + log_h
            contribution = _or_inf(math.exp, logc)
            log10c = logc / math.log(10.0)
        rows.append(ScaleRow(k=k, j_lo=j_lo, j_hi=j_hi, count=count, N=N, p=p,
                             M=M, flagged=flagged, hoeffding=h,
                             contribution=contribution, log10_contribution=log10c))
    return ScaleTable(M, tuple(rows))


def empirical_quantile(sorted_xs: list, frac: float):
    """Nearest-rank quantile on a pre-sorted sample."""
    if not sorted_xs:
        raise ValueError("empty sample")
    idx = max(0, math.ceil(frac * len(sorted_xs)) - 1)
    return sorted_xs[min(idx, len(sorted_xs) - 1)]


@dataclass(frozen=True)
class CheckpointStats:
    j: int
    min: int
    p10: int
    p25: int
    p50: int
    p75: int
    p90: int
    max: int
    mean: float

    def to_dict(self) -> dict:
        return {"j": self.j, "min": self.min, "p10": self.p10, "p25": self.p25,
                "p50": self.p50, "p75": self.p75, "p90": self.p90,
                "max": self.max, "mean": self.mean}


@dataclass(frozen=True)
class GrowthReport:
    seed: int
    trials: int
    checkpoints: tuple[int, ...]
    stats: tuple[CheckpointStats, ...]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "checkpoints": list(self.checkpoints),
            "stats": [s.to_dict() for s in self.stats],
        }

    def csv_rows(self) -> list[list]:
        header = ["j", "min", "p10", "p25", "p50", "p75", "p90", "max", "mean"]
        rows = [header]
        for s in self.stats:
            rows.append([s.j, s.min, s.p10, s.p25, s.p50, s.p75, s.p90, s.max, s.mean])
        return rows


def monte_carlo_growth(lam: LacunarySequence, checkpoints, trials: int,
                       seed: int) -> GrowthReport:
    """Sampled distribution of the influence count S at several positions.

    Each trial draws one uniform word of length max(checkpoints) from a
    deterministically derived per-trial generator, so reports are
    reproducible and embarrassingly parallel in principle.  Each distinct
    checkpoint is scored once per trial, and a repeated one is reported
    at every place it is listed.  A word longer than lam.materialize_cap
    raises CapError: positions are exponents of 4.
    """
    cps = tuple(int(j) for j in checkpoints)
    if not cps or any(j < 1 for j in cps):
        raise ValueError("checkpoints must be a nonempty list of positions >= 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if trials == 0:
        return GrowthReport(seed, 0, cps, ())
    top = max(cps)
    if top > lam.materialize_cap:
        raise CapError(f"word length {top} exceeds materialize_cap = {lam.materialize_cap}")
    terms = lam.terms_below(top)
    windows = {j: _windows(j, lam) for j in cps}
    samples: dict[int, list[int]] = {j: [] for j in cps}
    for t in range(trials):
        pats = _pattern_masks(sample_sequence(f"{seed}:{t}", top), terms)
        for j, masks in windows.items():
            samples[j].append(sum((pats[k] & mask).bit_count() for k, mask in masks))
    stats = []
    for j in cps:
        xs = sorted(samples[j])
        stats.append(CheckpointStats(
            j=j, min=xs[0],
            p10=empirical_quantile(xs, 0.10),
            p25=empirical_quantile(xs, 0.25),
            p50=empirical_quantile(xs, 0.50),
            p75=empirical_quantile(xs, 0.75),
            p90=empirical_quantile(xs, 0.90),
            max=xs[-1],
            mean=sum(xs) / len(xs),
        ))
    return GrowthReport(seed, trials, cps, tuple(stats))


@dataclass(frozen=True)
class XLawReport:
    """Empirical block-success histogram against its exact binomial law."""

    lam_descriptor: str
    j: int
    k: int
    N: int
    p: Fraction
    trials: int
    seed: int
    histogram: dict[int, int]
    tv_distance: float

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "lambda": self.lam_descriptor,
            "j": self.j,
            "k": self.k,
            "N": self.N,
            "p": rational_str(self.p),
            "trials": self.trials,
            "seed": self.seed,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "tv_distance": self.tv_distance,
        }


def empirical_X_law(lam: LacunarySequence, j: int, trials: int,
                    seed: int) -> XLawReport:
    """Total-variation distance of sampled block successes from Binomial(N, p).

    Trial t counts the block successes of sample_sequence(f"{seed}:{t}", j),
    as block_success_count would: the set bits of P_k & dec.leader_mask.
    The terms lam_1..lam_k and the leader mask are taken once per call, and
    sampled words need no validation, so a trial costs its draw and one
    pattern scan.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dec = block_decomposition(j, lam)
    if dec.N < 1:
        raise ValueError(f"no blocks at j = {j}")
    if j > lam.materialize_cap:
        raise CapError(f"word length {j} exceeds materialize_cap = {lam.materialize_cap}")
    p = dec.success_probability
    terms = [lam.term(m) for m in range(1, dec.k + 1)]
    leaders = dec.leader_mask
    hist: dict[int, int] = {}
    for t in range(trials):
        pats = _pattern_masks(sample_sequence(f"{seed}:{t}", j), terms)
        x = (pats[-1] & leaders).bit_count()
        hist[x] = hist.get(x, 0) + 1
    pmf = binom_pmf(dec.N, p)
    tv = Fraction(0)
    for m in range(dec.N + 1):
        emp = Fraction(hist.get(m, 0), trials)
        tv += abs(emp - pmf[m])
    return XLawReport(lam.descriptor(), j, dec.k, dec.N, p, trials, seed,
                      hist, float(tv / 2))
