"""Combinatorics on code words: influence records, blocks, perturbations.

Positions inside words are 1-indexed throughout, matching the usual
convention for digit expansions.  Position j is "influenced" from
position i when, for the unique k >= 0 with lam_k < j - i <= lam_{k+1}
(lam_0 = 0), the word shows the pattern u at i and 0 at i + lam_1, ...,
i + lam_k.  The count S(word, j) of influencing positions controls how
many distinct same-length words project into a small ball around the
point of the word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numeric import LacunarySequence
from .ifs import validate_word

# Top two bits of a 32-bit output: 0, 1 or u, rejected when 3 (exactly uniform).
_TOP_BITS = bytes(b"01u"[v >> 6] if v < 192 else 0 for v in range(256))
_REJECTED = bytes(range(192, 256))
_U_BITS, _Z_BITS = str.maketrans("u01", "100"), str.maketrans("0u1", "100")


def sample_sequence(seed, length: int) -> str:
    """The uniform code word of a seed, drawn to the given length.

    The symbols come from random.Random(str(seed)), which seeds by the
    SHA-512 of the text, stable across platforms and interpreter versions:
    each is one getrandbits(2) try, rejected when 3, so it is exactly
    uniform.  Byte 3 of each little-endian 32-bit word of
    getrandbits(32*need) is an output's top byte, whose top two bits
    getrandbits(2) returns.  A round draws half again as many outputs as
    symbols are missing, plus 16, at most 2**16, so one round almost
    always finishes the word.  The generator is the word's own, so the
    surplus outputs past its last symbol are discarded unread: the word is
    the first `length` symbols of the one-output-per-try stream, no word
    changes, and a word is the prefix of every longer word of the same seed.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    rng = random.Random(str(seed))
    word = ""
    while len(word) < length:
        missing = length - len(word)
        need = min(missing + (missing >> 1) + 16, 1 << 16)
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        word += raw[3::4].translate(_TOP_BITS, _REJECTED).decode()
    return word[:length]


@dataclass(frozen=True)
class InfluenceRecord:
    """Influencing position i with its window index k."""

    i: int
    k: int

    def probes(self, lam: LacunarySequence) -> list[int]:
        """Positions whose symbols the pattern constrains: i, then i + lam_m."""
        return [self.i] + [self.i + lam.term(m) for m in range(1, self.k + 1)]

    def to_dict(self) -> dict:
        return {"i": self.i, "k": self.k}


def is_influenced(word: str, i: int, j: int,
                  lam: LacunarySequence) -> Optional[InfluenceRecord]:
    """Record for the pair (i, j), or None.

    Requires 1 <= i <= j <= len(word).  The window index k is unique
    because the intervals (lam_k, lam_{k+1}] tile the positive integers;
    i = j never matches (the distance 0 lies in no window).  For finite
    explicit sequences, distances beyond the last term have no window
    and yield None.
    """
    w = validate_word(word)
    if not (1 <= i <= j <= len(w)):
        raise ValueError(f"need 1 <= i <= j <= len(word), got i={i}, j={j}, len={len(w)}")
    k = lam.window_index(j - i)
    if k is None or not _shows_pattern(w, i, k, lam):
        return None
    return InfluenceRecord(i, k)


def _shows_pattern(w: str, i: int, k: int, lam: LacunarySequence) -> bool:
    """u at position i and 0 at i + lam_1, ..., i + lam_k of a validated word."""
    return w[i - 1] == "u" and all(w[i - 1 + lam.term(m)] == "0"
                                   for m in range(1, k + 1))


@dataclass(frozen=True)
class InfluenceSummary:
    count: int
    records: tuple[InfluenceRecord, ...]


def influence_count(word: str, j: int, lam: LacunarySequence) -> InfluenceSummary:
    """All influence records for position j, in increasing i.

    Equal to collecting is_influenced(word, i, j, lam) for i = 1..j, but
    each window is one AND of bitmasks (see _windows), not a probe of
    every position.
    """
    w = validate_word(word)
    if not (1 <= j <= len(w)):
        raise ValueError(f"need 1 <= j <= len(word), got j={j}, len={len(w)}")
    pats = _pattern_masks(w[:j], lam.terms_below(j))
    records = []
    for k, mask in _windows(j, lam):  # largest k first, so i increases
        x = pats[k] & mask
        while x:
            low = x & -x
            records.append(InfluenceRecord(low.bit_length(), k))
            x ^= low
    return InfluenceSummary(len(records), tuple(records))


def _pattern_masks(w: str, terms) -> list[int]:
    """P_0, ..., P_K of a validated word, for terms = [lam_1, ..., lam_K].

    Bit i - 1 of P_k is set when the word shows u at position i and 0 at
    i + lam_1, ..., i + lam_k: P_k = U & (Z >> lam_1) & ... & (Z >> lam_k).
    """
    r = w[::-1]
    pats = [int("0" + r.translate(_U_BITS), 2)]
    Z = int("0" + r.translate(_Z_BITS), 2)
    for t in terms:
        pats.append(pats[-1] & (Z >> t))
    return pats


def _windows(j: int, lam: LacunarySequence) -> list[tuple[int, int]]:
    """(k, bitmask of window k) for position j, largest k first.

    Window k holds the i with lam_k < j - i <= lam_{k+1} (lam_0 = 0), so
    the set bits of P_k & mask are its influencing positions.  For a finite
    explicit list the distances past its last term lie in no window.
    """
    terms = lam.terms_below(j)  # every lam_k <= j - 1, the largest distance
    top = len(terms)
    if lam.term_or_none(top + 1) is None:
        top -= 1
    edges = [0] + terms + [j - 1]
    return [(k, (1 << j - 1 - edges[k]) - (1 << j - 1 - edges[k + 1]))
            for k in range(top, -1, -1)]


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of the influence range of j into leader blocks.

    k is the scale index with lam_{k+1} <= j < lam_{k+2}.  The positions
    max(1, j - lam_{k+1}) .. j - 1 are split greedily into consecutive
    blocks of base size lam_k + 1 (lam_0 is taken as 1 for sizing); the
    remainder is absorbed into the final block, so block lengths stay in
    [lam_k + 1, 2*(lam_k + 1) - 1].  When the whole range is shorter than
    the base size (possible only for k = 0 at j = lam_1 <= 2) a single
    undersized block is emitted, and an empty range yields no blocks.
    """

    j: int
    k: int
    lo: int
    hi: int
    base: int
    N: int

    def block(self, t: int) -> range:
        """t-th block (0-indexed); the last one absorbs the remainder."""
        if not 0 <= t < self.N:
            raise IndexError(f"block index {t} out of range(0, {self.N})")
        start = self.lo + t * self.base
        stop = start + self.base if t < self.N - 1 else self.hi + 1
        return range(start, stop)

    @property
    def blocks(self) -> tuple[range, ...]:
        return tuple(self.block(t) for t in range(self.N))

    @property
    def leaders(self) -> tuple[int, ...]:
        return tuple(self.lo + t * self.base for t in range(self.N))

    @property
    def leader_mask(self) -> int:
        """Bit i - 1 set for each leader i: a repunit in base 2**base."""
        return ((1 << self.base * self.N) - 1) // ((1 << self.base) - 1) << self.lo - 1

    @property
    def success_probability(self) -> Fraction:
        """Per-block pattern probability under uniform symbols: 3**-(k+1)."""
        return Fraction(1, 3 ** (self.k + 1))


def block_decomposition(j: int, lam: LacunarySequence) -> BlockDecomposition:
    lam1 = lam.term(1)
    if j < lam1:
        raise ValueError(f"j must be >= lam_1 = {lam1}, got {j}")
    k = len(lam.terms_below(j + 1)) - 1  # lam_{k+1} <= j
    if lam.term_or_none(k + 2) is None:
        raise ValueError(
            f"j = {j} reaches the final window of an explicit sequence; "
            f"no term lam_{k + 2} exists")
    lo = max(1, j - lam.term(k + 1))
    hi = j - 1
    if hi < lo:
        return BlockDecomposition(j, k, lo, hi, 1, 0)
    base = (lam.term(k) if k >= 1 else 1) + 1
    N = max(1, (hi - lo + 1) // base)
    return BlockDecomposition(j, k, lo, hi, base, N)


def block_success_count(word: str, dec: BlockDecomposition,
                        lam: LacunarySequence) -> int:
    """Number of block leaders showing the full (u, 0, ..., 0) pattern.

    The count is the set bits of P_k & dec.leader_mask (see
    _pattern_masks), the one test that stats.empirical_X_law also runs per
    trial.  Each leader probes itself plus k offsets that stay inside its
    own block, so distinct blocks probe disjoint symbol sets and the count
    is binomial with N = number of blocks and p = 3**-(k+1) under uniform
    words.  Every successful leader is an influencing position for j,
    hence the count never exceeds S(word, j).
    """
    w = validate_word(word)
    if len(w) < dec.j - 1:
        raise ValueError(f"word length {len(w)} < j - 1 = {dec.j - 1}")
    pats = _pattern_masks(w[:dec.j], [lam.term(m) for m in range(1, dec.k + 1)])
    return (pats[-1] & dec.leader_mask).bit_count()


def perturb(word: str, rec: InfluenceRecord, lam: LacunarySequence) -> str:
    """Word with the pattern of rec flipped: u -> 0 and the k zeros -> 1.

    The projection moves by exactly u * 4**(-i) - sum_{m<=k} 4**(-i-lam_m),
    which equals the tail sum_{m>k} 4**(-i-lam_m) and in particular is
    nonnegative and at most (4/3) * 4**(-i-lam_{k+1}).
    """
    w = validate_word(word)
    probes = rec.probes(lam)
    if probes[-1] > len(w) or rec.i < 1:
        raise ValueError(f"record {rec} out of range for word of length {len(w)}")
    if not _shows_pattern(w, rec.i, rec.k, lam):
        raise ValueError(f"record {rec} invalid: no u, 0, ..., 0 pattern at {probes}")
    out = list(w)
    out[rec.i - 1] = "0"
    for pos in probes[1:]:
        out[pos - 1] = "1"
    return "".join(out)


def perturbation_family(word: str, j: int, lam: LacunarySequence) -> list[str]:
    """The truncated word plus one perturbation per influence record.

    All members have length j and are pairwise distinct: each perturbed
    word differs from the base at its own record position i, and two
    records have distinct i (window uniqueness), so the member with the
    smaller i shows 0 where the other still shows u.
    """
    w = validate_word(word)
    summary = influence_count(w, j, lam)
    family = [w[:j]]
    for rec in summary.records:
        family.append(perturb(w, rec, lam)[:j])
    return family
