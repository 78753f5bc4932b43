"""The three-map system x/4, (x+1)/4, (x+u)/4 and exact counting on it.

Code words are strings over the alphabet {0, 1, u}; position n of a word
contributes 4**(-n) times its digit value (0, 1 or the translation
parameter u) to the projected point.  All counting here is exact: ball
membership and cylinder inclusion are decided by integer affine sign
tests, and tree pruning is conservative, so pruned counts agree with
full enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numeric import (
    EnclosureCapError,
    EnumerationCapError,
    LacunarySequence,
    SymbolicPoint,
    affine_sign_scaled,
    parse_rational,
)

ALPHABET = "01u"
DEFAULT_ENUMERATION_CAP = 15

# log 3 / log 4, the similarity dimension of three ratio-1/4 maps.
S_DIM = math.log(3) / math.log(4)


def validate_word(word: str) -> str:
    """Normalize a code word to lowercase and check its alphabet."""
    w = word.lower()
    if w.strip(ALPHABET):
        bad = next(ch for ch in w if ch not in ALPHABET)
        raise ValueError(f"invalid code symbol {bad!r}; alphabet is 0, 1, u")
    return w


@dataclass(frozen=True)
class IFSSystem:
    """Three similitudes of ratio 1/4 with translations 0, 1 and u."""

    lam: LacunarySequence
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP


def similarity_dimension(ratios) -> float:
    """Solve sum_j r_j**s = 1 for s by bisection.

    The ratios are Fractions, or text that parse_rational reads.  Each
    must lie strictly inside (0, 1), and so must its float; the left side
    is then strictly decreasing in s, so the root is unique.  The
    bisection runs until the bracket collapses to adjacent floats, so the
    result is within one ulp of the true root (far below the 1e-12
    contract).
    """
    rs = []
    for r in ratios:
        x = parse_rational(r) if isinstance(r, str) else Fraction(r)
        if not 0 < x < 1:
            raise ValueError(f"ratio {r} out of (0,1)")
        rs.append(float(x))
        if not 0.0 < rs[-1] < 1.0:
            raise ValueError(f"ratio {r} rounds to the float {rs[-1]}")
    if not rs:
        raise ValueError("need at least one contraction ratio")

    def f(s: float) -> float:
        return math.fsum(r ** s for r in rs) - 1.0

    if f(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def project(word: str) -> SymbolicPoint:
    """Left endpoint of the cylinder of a word: sum_n digit_n * 4**(-n)."""
    w = validate_word(word)
    n = len(w)
    scale = 4 ** n
    P = 0
    Q = 0
    c = scale
    for ch in w:
        c //= 4
        if ch == "1":
            P += c
        elif ch == "u":
            Q += c
    return SymbolicPoint(Fraction(P, scale), Fraction(Q, scale))


@dataclass(frozen=True)
class BallCount:
    count: int
    witnesses: Optional[tuple[str, ...]] = None


def _prefix_walk(n: int, lo: tuple[int, int], hi: tuple[int, int], den: int,
                 width: int, lam: LacunarySequence):
    """Classify the level-n prefix tree against the interval [lo, hi].

    Points are scaled by 4**n, and N/4**L is lam.truncation(0): u itself
    when u is rational, 0 (L = N = 0) when it is not.  A length-m prefix
    with partial sums P and Q spans [P + Q*u, P + g + width + Q*u] with
    g = (4**(n-m) - 1)//3, the sum of the weights below it.  Its node
    (m, K, Q) carries the integer key K = 3*(P*4**L + Q*N)*den: its value
    scaled by 3*den*4**L when u is rational, its p-part so scaled when u
    is irrational.  The ends are (key, q) pairs over den, as count_span
    builds them.  A node whose span provably misses the interval is
    pruned, one whose span lies inside it is yielded as (m, K, Q, True)
    without descending, and a leaf crossing an endpoint is yielded as
    (m, K, Q, False); other nodes split into their 0, 1 and u children.
    Nodes come out in depth-first 0, 1, u order, from an explicit stack,
    so the depth is not limited by the interpreter's recursion limit.
    Children take the miss tests when their parent splits; the inside
    test runs when a node is visited.  The u and 1 children that pass are
    stacked, each as its own (m, K, Q), and a 0 child that passes is
    visited at once.  So a walk down one narrow path of the tree holds a
    node per depth only where a sibling survives.

    Every node the walk visits passes both miss tests, by test or by the
    rules below: its span starts at or below hi and ends at or above lo.
    Its 0 child starts where it starts, so that child can miss only
    below lo and takes that test alone.  Its 1 child ends where it ends
    (the 1 step plus the child's hull is the parent's hull), so that
    child can miss only above hi and takes that test alone.  The u child,
    like the root, takes both.  When the ends have equal q-parts, as
    every ball and every measure interval does, a span inside the
    interval is no wider than it; a node whose hull is wider (the
    integer test top > HT - LK) is not inside, and under irrational u
    skips the two inside sign tests.  Each rule is exact for either kind
    of u.

    A child adds its digit's step to K, 3*4**L*den for a 1 and 3*N*den
    for a u (0 when u is irrational), shifted to its weight once per
    split: no multiplication per node.  The factor 3 makes the hull a
    shift as well: 3*(g + width)*4**L*den = (4**L*den << 2*(n-m)) + c
    with c = (3*width - 1)*4**L*den, and c moves onto the ends.  For
    rational u the miss and inside tests compare K and the hull top with
    the ends' keys as plain integers.  For irrational u each test is an
    affine_sign_scaled call on the key and q-part differences, until one
    exact integer model of u replaces them.
    """
    L, N, _ = lam.truncation(0)
    keyed = lam.u_is_rational
    one, den3 = den << 2 * L, 3 * den
    step_1, step_u = 3 * one, N * den3
    c = (3 * width - 1) * one
    LK, HK = 3 * lo[0], 3 * hi[0]
    LT, HT = LK - c, HK - c  # the hull top is compared with these
    LQ, HQ = 3 * lo[1], 3 * hi[1]
    stack = []
    m, s, K, Q = 0, 2 * n, 0, 0
    top = one << s
    # No hull wider than the interval lies inside it when the q-parts are
    # equal; otherwise no hull is too wide, as none passes the root's.
    widest = HT - LK if LQ == HQ else top
    # A miss is a span minimum above hi, or a maximum below lo.  The root
    # takes both tests, as a u child does.
    if keyed:
        if HK < 0 or top < LT:
            return
    elif (affine_sign_scaled(-HK, -HQ, lam) > 0
          or affine_sign_scaled(top - LT, -LQ, lam) < 0):
        return
    while True:
        T = K + top
        if keyed:
            whole = K >= LK and T <= HT
        else:
            b = Q * den3
            # A point span that is not missed is inside; skip the two tests.
            whole = (not (s or width)
                     or (top <= widest
                         and affine_sign_scaled(K - LK, b - LQ, lam) >= 0
                         and affine_sign_scaled(T - HT, b - HQ, lam) <= 0))
        if whole or m == n:
            yield m, K, Q, whole
        else:
            # The u and 1 children that pass wait on the stack, the 1 child
            # on top; a 0 child that passes is visited at once.
            m, s, top = m + 1, s - 2, top >> 2
            ku, qu, k1 = K + (step_u << s), Q + (1 << s), K + (step_1 << s)
            if keyed:
                if ku <= HK and ku + top >= LT:
                    stack.append((m, ku, qu))
                if k1 <= HK:
                    stack.append((m, k1, Q))
                if K + top >= LT:
                    continue
            else:
                bu = qu * den3  # b is Q * den3, from the inside test
                if (affine_sign_scaled(ku - HK, bu - HQ, lam) <= 0
                        and affine_sign_scaled(ku + top - LT, bu - LQ, lam) >= 0):
                    stack.append((m, ku, qu))
                if affine_sign_scaled(k1 - HK, b - HQ, lam) <= 0:
                    stack.append((m, k1, Q))
                if affine_sign_scaled(K + top - LT, b - LQ, lam) >= 0:
                    continue
        if not stack:
            return
        m, K, Q = stack.pop()
        s = 2 * (n - m)
        top = one << s


def _lex_rank(n: int, den: int, X: int, Y: int, strict: bool) -> int:
    """Number of length-n words with (P*den, Q*den) <= (X, Y) in lex order.

    P and Q are a word's partial sums scaled by 4**n: sums of the
    weights 4**(n-k) on disjoint positions, the set bits of g.  With
    strict, counts (P*den, Q*den) < (X, Y) instead.  One digit chain
    (_sums_at_most) counts, in O(n) steps each:

    - the words with P <= (X - 1)//den, where each position adds nothing
      to P in two ways (0 or u) and has three symbols;
    - only when X//den is a valid P, the words with that P and
      Q*den <= Y (or < Y), where each free position of P adds nothing to
      Q in one way (0) and has two symbols (0 or u).
    """
    g = ((1 << 2 * n) - 1) // 3
    count = _sums_at_most((X - 1) // den, g, 2)
    P, r = divmod(X, den)
    if r == 0 and P | g == g:  # false for P < 0
        count += _sums_at_most((Y - 1) // den if strict else Y // den, g ^ P, 1)
    return count


def _sums_at_most(T: int, weights: int, skips: int) -> int:
    """Ways to fill the positions at the set bits of weights with a sum <= T.

    The set bits are powers of 4, so each exceeds the sum of those below
    it.  A position w adds w in one way or nothing in skips ways.
    Walking the weights from the top: when w fits in what is left of T,
    adding nothing leaves any fill of the lower positions below T, and
    adding w takes w from T; when w does not fit, the position must add
    nothing.
    """
    if T < 0:
        return 0
    fills = skips + 1
    count, ways, rest = 0, 1, fills ** weights.bit_count()
    while weights:
        w = 1 << weights.bit_length() - 1
        weights ^= w
        rest //= fills
        if T >= w:
            count += skips * ways * rest
            T -= w
        else:
            ways *= skips
    return count + ways


def _prefix_word(n: int, m: int, P: int, Q: int) -> str:
    """The length-m prefix whose partial sums, scaled by 4**n, are P and Q."""
    out = []
    for k in range(1, m + 1):
        shift = 2 * (n - k)
        out.append("1" if (P >> shift) & 3 else "u" if (Q >> shift) & 3 else "0")
    return "".join(out)


def _over_one_den(*xs: Fraction) -> tuple[list[int], int]:
    """The numerators of xs over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def count_span(sys: IFSSystem, n: int, ends: list[int], den: int, width: int,
               accepted: Optional[list[str]] = None,
               capped: bool = False) -> tuple[int, int]:
    """(inside, meeting): length-n words whose span lies inside, or meets, [lo, hi].

    The ends are integers [lo_p, lo_q, hi_p, hi_q] over any den > 0, and
    stand for lo = (lo_p + lo_q*u)/den and hi = (hi_p + hi_q*u)/den.  A
    word at x spans [x, x + width*4**-n]: width 0 is a point (a ball
    count), width 1 its level-n cylinder.  Scaled by 4**n, the
    descendants of a depth-m prefix at P + Q*u lie in
    [P + Q*u, P + g + width + Q*u] with g = (4**(n-m) - 1)//3, the walk's
    hull: as 0 < u < 1, a digit adds at most its weight.  This is the one
    place that chooses between the O(n) rank and the prefix walk.

    Scaling by 4**n shifts each numerator left by 2n, and one gcd with den
    reduces them: den // gcd(den, scaled numerators) is the lcm of the
    scaled parts' own denominators, as at every prime p both have the
    exponent v_p(den) - min(v_p(den), v_p of each numerator).  When
    lam.below_grid(max(g*den at the root, q-parts of the ends)) on that
    reduced den (an unreduced one could shut the gate) and no list is
    asked for, value order is lexicographic (P, Q) order, so a span at v
    lies inside exactly when lo <= v <= hi - width and meets exactly when
    lo - width <= v <= hi: differences of _lex_rank values.  Otherwise the
    walk decides, in time proportional to its surviving nodes; for
    rational u it compares integer keys, with no sign test per node (see
    _prefix_walk).  A list accepted receives the prefix of every inside
    node, in 0, 1, u order, and EnumerationCapError stops it before those
    prefixes stand for more than 3**enumeration_cap symbols (words times
    n).  With capped, a walk at n > enumeration_cap raises
    EnumerationCapError before it starts; the rank path has no such cap.
    As the gate needs irrational u and n <= lam_1, a capped count that
    fails those stops before it scales by 4**n.
    """
    lam = sys.lam
    capped = capped and n > sys.enumeration_cap
    depth_cap = f"level {n} exceeds enumeration cap {sys.enumeration_cap}"
    if capped and (lam.u_is_rational or n > lam.term(1)):
        raise EnumerationCapError(depth_cap)
    ends = [x << 2 * n for x in ends]
    g = math.gcd(den, *ends)
    den //= g
    LP, LQ, HP, HQ = (x // g for x in ends)
    # The walk's (key, q) ends.  The key p*4**L + q*N, with N/4**L =
    # truncation(0), is the whole value scaled by 4**L for rational u, so
    # the q-part folds in; for irrational u it is p (L = N = 0).
    L, N, _ = lam.truncation(0)
    lo_key, hi_key = (((p << 2 * L) + q * N, 0 if lam.u_is_rational else q)
                      for p, q in ((LP, LQ), (HP, HQ)))
    if affine_sign_scaled(hi_key[0] - lo_key[0], hi_key[1] - lo_key[1], lam) < 0:
        raise ValueError("interval endpoints out of order")
    if accepted is None and lam.below_grid(max(((1 << 2 * n) - 1) // 3 * den, LQ, HQ)):
        shift = width * den
        inside = max(0, _lex_rank(n, den, HP - shift, HQ, False)
                     - _lex_rank(n, den, LP, LQ, True))
        if not width:  # a point meets the interval exactly when it lies inside
            return inside, inside
        return inside, (_lex_rank(n, den, HP, HQ, False)
                         - _lex_rank(n, den, LP - shift, LQ, True))
    if capped:
        raise EnumerationCapError(depth_cap)
    cap = 3 ** sys.enumeration_cap
    inside = meeting = 0
    for m, K, Q, whole in _prefix_walk(n, lo_key, hi_key, den, width, lam):
        words = 3 ** (n - m)  # a leaf crossing an end has m == n
        meeting += words
        if whole:
            inside += words
            if accepted is not None:
                if inside * n > cap:
                    raise EnumerationCapError(
                        f"witness list passes 3**{sys.enumeration_cap} symbols "
                        f"(enumeration cap {sys.enumeration_cap})")
                P = (K // (3 * den) - Q * N) >> 2 * L  # K = 3*(P*4**L + Q*N)*den
                accepted.append(_prefix_word(n, m, P, Q))
    return inside, meeting


def count_in_ball(sys: IFSSystem, n: int, center: SymbolicPoint, radius: Fraction,
                  witnesses: bool = False) -> BallCount:
    """Exact number of length-n words whose projection lies in the closed
    ball B(center, radius), radius >= 0.

    count_span at width 0: a level-n point is a span of width 0, so the
    rank path covers every depth up to about lam_1 (n = 27 under the
    paper sequence) in O(n) digit steps.  The ends c.p -+ r and c.q go
    to count_span as integer numerators over the lcm of the centre's
    and the radius's denominators, with no Fraction arithmetic.  With
    witnesses, the accepted words are listed in lexicographic 0, 1, u
    order; they take the walk, whose running time is proportional to the
    number of surviving nodes, not 3**n, and a list past
    3**enumeration_cap symbols raises EnumerationCapError.  On the walk,
    centers that align with the attractor's finest structure (e.g. 0
    itself) can make the count genuinely exponential.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if n < 0:
        raise ValueError("depth must be >= 0")
    (p, q, r), den = _over_one_den(center.p, center.q, radius)
    heads: Optional[list[str]] = [] if witnesses else None
    count, _ = count_span(sys, n, [p - r, q, p + r, q], den, 0, heads)
    if heads is None:
        return BallCount(count)
    return BallCount(count, tuple(
        head + "".join(tail) for head in heads
        for tail in itertools.product(ALPHABET, repeat=n - len(head))))


def _level_keys(sys: IFSSystem, n: int, keep_q: bool = False):
    """Exact integer keys of the points of levels 0..n-1, and level n's steps.

    u_J = N / 4**L is lam.truncation(g) for the largest q-part g =
    (4**n - 1)//3, so a length-k word (k <= n) at P + Q*u, scaled by 4**k,
    has 4**L * (P + Q*u) = V + theta with the integer V = P*4**L + Q*N
    and 0 <= theta < 1 (0 for rational u or Q = 0): the int order of
    (V << shift) | Q is value order, and for rational u, V is the value.
    Returns (L, N, T, shift, levels, steps), with T = lam_{J+1} the
    truncation's tail exponent (None for rational u).  levels yields the
    sorted keys of levels 0..n-1, each in its own scale: level k puts the
    digit 0, 1 or u in front of level k-1 at weight w = 4**(k-1).  As
    level k-1 lies below w/3 and u < 1/3, level k is the merge of D and
    D + u*w, then D + w.  Level n is never built: it is the three sorted
    runs D + d of the last level D, d in steps, the first digits at weight
    4**(n-1) (for n = 0, levels yields level 0 alone, and each step is 0).
    Keys are (V << 2n) | Q, one per word, with keep_q for irrational u;
    otherwise the distinct V (shift 0), as equal-V words stay equal under
    every extension; there a level-k point's level-(k+1) cell is
    (V << 2) >> 2L, as 4*V is the V of its digit-0 child.  Raises
    EnclosureCapError for a truncation past the materialization cap.
    """
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n > sys.enumeration_cap:
        raise EnumerationCapError(
            f"level {n} exceeds enumeration cap {sys.enumeration_cap}")
    t = sys.lam.truncation((4 ** n - 1) // 3)
    if t is None:
        raise EnclosureCapError(
            f"level {n} needs a truncation of u past the materialization cap")
    L, N, T = t
    shift = 2 * n if keep_q and not sys.lam.u_is_rational else 0
    one, u = 1 << 2 * L + shift, (N << shift) | (shift > 0)

    def levels():
        keys = [0]
        yield keys
        for k in range(1, n):
            d1, du = one << 2 * k - 2, u << 2 * k - 2
            low = keys + [v + du for v in keys]
            low.sort()
            if not shift:
                low[1:] = [b for a, b in zip(low, low[1:]) if a != b]
            low += [v + d1 for v in keys]
            keys = low
            yield keys

    return L, N, T, shift, levels(), (0, one << 2 * n - 2, u << 2 * n - 2) if n else (0, 0, 0)


def distinct_level_points(sys: IFSSystem, n: int) -> int:
    """Number of distinct projections among all 3**n length-n words.

    Counts the distinct keys D + d over level n's first-digit steps d,
    for the sorted level-(n-1) keys D of _level_keys (q-part kept).
    Irrational-mode counts are always exactly 3**n because the digit
    supports of p and q recover the word.
    """
    *_, levels, steps = _level_keys(sys, n, keep_q=True)
    for keys in levels:
        pass
    return len({v + d for v in keys for d in steps})
