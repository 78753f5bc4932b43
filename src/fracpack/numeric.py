"""Exact arithmetic for points of the form p + q*u.

Here u = sum_j 4**(-lam_j) for a sparse, strictly increasing exponent
sequence lam_1 < lam_2 < ... subject to the growth gate
lam_{k+1} >= 2*lam_k + 1.  For the built-in infinite families the series
is non-terminating and u has a non-periodic base-4 expansion, hence is
irrational; a point is then uniquely determined by the rational pair
(p, q).  Finite explicit sequences make u rational: u is its full
truncation N/4**L, and a sign test is one integer comparison.

u's partial sums are stored once, as the integer rows (lam_J, N_J) of
LacunarySequence._partial_sum; truncation and the sign test's rational
enclosures are both read from them.  Powers 4**(-lam) are never
materialized for exponents above a configurable cap (default 10**6);
enclosures are clamped instead, which only widens them and never breaks
soundness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

DEFAULT_MATERIALIZE_CAP = 10**6

# Exponent of the builtin triple-exponential family: term(j) = 3 ** (3 ** j).
_PAPER_BASE = 3


class CapError(RuntimeError):
    """A configured resource cap was exceeded."""


class EnclosureCapError(CapError):
    """A comparison could not be decided within the materialization cap."""


class EnumerationCapError(CapError):
    """An enumeration request exceeded the configured depth cap."""


def _sgn(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


# 10**500: each chunk has at most 500 digits, below the smallest int-string
# limit the interpreter accepts (640).
_DIGIT_CHUNK = 10 ** 500

_INT_RATIO = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")
_LONG_EXPONENT = re.compile(r".*[eE][-+]?[0_]*[1-9](_?[0-9]){5}")


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b', decimal or integer text into an exact Fraction.

    Plain [-]digits[/digits] text, the form rational_str writes, is read
    in 500-digit chunks, so it parses at any length; everything else goes
    to Fraction(text) unchanged.  A zero denominator or a decimal exponent
    of six or more digits (a number of that many digits) raises ValueError.
    """
    text = text.strip()
    if _LONG_EXPONENT.match(text):
        raise ValueError(f"exponent in {text!r} has more than five digits")
    m = _INT_RATIO.fullmatch(text)
    try:
        if m is None:
            return Fraction(text)
        sign, num, den = m.groups()
        value = Fraction(_parse_int(num), _parse_int(den) if den else 1)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return -value if sign else value


def _parse_int(digits: str) -> int:
    """int(digits) at any length, the inverse of _int_str."""
    value = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _int_str(n: int) -> str:
    """Decimal text of n at any size, identical to str(n).

    str() refuses ints past the interpreter's int-string limit (4300
    digits by default); converting 500-digit chunks stays under any
    limit without changing the process-wide setting.
    """
    if n < 0:
        return "-" + _int_str(-n)
    chunks = []
    while n >= _DIGIT_CHUNK:
        n, r = divmod(n, _DIGIT_CHUNK)
        chunks.append(f"{r:0500d}")
    return str(n) + "".join(reversed(chunks))


def rational_str(x: Fraction) -> str:
    """Compact exact encoding, inverse of parse_rational."""
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


class LacunarySequence:
    """Strictly increasing exponent sequence with lam_{k+1} >= 2*lam_k + 1.

    Kinds:
      paper      lam_j = 3**(3**j), an infinite doubly exponential family
      geometric  lam_j = start * b**(j-1) for b >= 3 (b = 2 violates the gate)
      explicit   a finite validated list; u is then rational

    Terms are 1-indexed arbitrary-size integers.  Term access is memoized.
    """

    def __init__(self, kind: str, *, b: int = 0, start: int = 0,
                 terms: tuple[int, ...] = (),
                 materialize_cap: int = DEFAULT_MATERIALIZE_CAP):
        self.kind = kind
        self.b = b
        self.start = start
        self.materialize_cap = materialize_cap
        self._terms: list[int] = list(terms)
        self._enclosures: dict[int, tuple[Fraction, Fraction, bool, bool]] = {}
        self._coarse: Optional[tuple[int, int, int]] = None
        self._truncations: list[tuple[int, int]] = [(0, 0)]
        if kind == "explicit":
            self._validate_explicit()

    # -- construction -------------------------------------------------

    @classmethod
    def paper(cls, materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> "LacunarySequence":
        return cls("paper", materialize_cap=materialize_cap)

    @classmethod
    def geometric(cls, b: int, start: int,
                  materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> "LacunarySequence":
        if b < 2 or start < 1:
            raise ValueError(f"geometric sequence needs b >= 2 and start >= 1, got b={b}, start={start}")
        if start * (b - 2) < 1:
            # lam_{k+1} - (2*lam_k + 1) = start*b**(k-1)*(b-2) - 1 is increasing in k,
            # so the k = 1 step decides the whole gate.
            raise ValueError(f"geometric b={b}, start={start} violates lam2 >= 2*lam1 + 1")
        return cls("geometric", b=b, start=start, materialize_cap=materialize_cap)

    @classmethod
    def explicit(cls, terms, materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> "LacunarySequence":
        return cls("explicit", terms=tuple(int(t) for t in terms),
                   materialize_cap=materialize_cap)

    def _validate_explicit(self) -> None:
        terms = self._terms
        if not terms:
            raise ValueError("explicit sequence needs at least one term")
        if terms[0] < 1:
            raise ValueError("exponents must be >= 1")
        for a, b in zip(terms, terms[1:]):
            if b <= a:
                raise ValueError(f"terms must be strictly increasing, got {a} then {b}")
            if b < 2 * a + 1:
                raise ValueError(f"growth gate violated: {b} < 2*{a} + 1")
        if terms[-1] > self.materialize_cap:
            raise ValueError(
                f"explicit exponent {terms[-1]} exceeds the materialization cap "
                f"{self.materialize_cap}; exact rational u would be unrepresentable")

    # -- term access ---------------------------------------------------

    def term(self, k: int) -> int:
        """k-th exponent, 1-indexed."""
        t = self.term_or_none(k)
        if t is None:
            raise IndexError(f"sequence has no term {k}")
        return t

    def term_or_none(self, k: int) -> Optional[int]:
        if k < 1:
            raise IndexError("terms are 1-indexed")
        if self.kind == "explicit":
            return self._terms[k - 1] if k <= len(self._terms) else None
        while len(self._terms) < k:
            j = len(self._terms) + 1
            if self.kind == "paper":
                self._terms.append(_PAPER_BASE ** (_PAPER_BASE ** j))
            else:
                self._terms.append(self.start * self.b ** (j - 1))
        return self._terms[k - 1]

    @property
    def length(self) -> Optional[int]:
        """Number of terms for explicit kind, None for infinite kinds."""
        return len(self._terms) if self.kind == "explicit" else None

    def terms_below(self, bound: int) -> list[int]:
        """All terms strictly less than bound, in order."""
        out = []
        k = 1
        while True:
            t = self.term_or_none(k)
            if t is None or t >= bound:
                return out
            out.append(t)
            k += 1

    def window_index(self, d: int) -> Optional[int]:
        """The k >= 0 with lam_k < d <= lam_{k+1}, taking lam_0 = 0.

        Returns None when d < 1 or when the sequence is exhausted before
        a window containing d exists (finite explicit lists only).
        """
        if d < 1:
            return None
        k = len(self.terms_below(d))
        return k if self.term_or_none(k + 1) is not None else None

    # -- u as a number -------------------------------------------------

    @property
    def u_is_rational(self) -> bool:
        return self.kind == "explicit"

    def u_exact(self) -> Fraction:
        """Exact u = N/4**L, truncation(0); only for finite explicit sequences."""
        if not self.u_is_rational:
            raise ValueError("u is irrational for infinite sequence kinds")
        L, N, _ = self.truncation(0)
        return Fraction(N, 4 ** L)

    def coarse_u_scale(self) -> tuple[int, int, int]:
        """Integers (lo, hi, K) with lo/K < u < hi/K, cheap to multiply by.

        Derived from 4**(-lam1) < u < (4/3) * 4**(-lam1); the lower bound
        degrades to 0 when lam1 exceeds the materialization cap.
        """
        if self._coarse is None:
            lam1 = self.term(1)
            if lam1 <= self.materialize_cap:
                self._coarse = (3, 4, 3 * 4 ** lam1)
            else:
                self._coarse = (0, 4, 3 * 4 ** self.materialize_cap)
        return self._coarse

    def _partial_sum(self, J: int) -> tuple[int, int, int]:
        """(depth, L, N): u truncated after depth terms is N / 4**L, L = lam_depth.

        The one store of u's partial sums: row j is (lam_j, N_j), with
        N_j = N_{j-1} * 4**(lam_j - lam_{j-1}) + 1.  depth is J unless
        the list ends first (explicit kinds) or term depth + 1 lies past
        the materialization cap.
        """
        rows = self._truncations
        while len(rows) <= J:
            t = self.term_or_none(len(rows))
            if t is None or t > self.materialize_cap:
                break
            L, N = rows[-1]
            rows.append((t, (N << 2 * (t - L)) | 1))
        depth = min(J, len(rows) - 1)
        return (depth, *rows[depth])

    def truncation(self, q: int) -> Optional[tuple[int, int, Optional[int]]]:
        """(L, N, T): u truncated after J terms is N / 4**L, L = lam_J.

        Rational u keeps every term, and T is None.  Irrational u takes
        the smallest J with 4*q*4**L <= 3*4**T, T = lam_{J+1}; since u -
        u_J < (4/3) * 4**-T, every P + Q*u with 0 <= Q <= q then has
        4**L * (P + Q*u) = V + theta with the integer V = P*4**L + Q*N
        and 0 <= theta < 1, zero only at Q = 0: value order is (V, Q)
        order and floor(P + Q*u) = V >> 2L.  T is only compared as an
        exponent, so it may lie past the cap.  None when that J has L
        past the cap.
        """
        J = self.length or 0
        while True:
            depth, L, N = self._partial_sum(J)
            if depth < J:
                return None
            T = self.term_or_none(J + 1)
            # 4*q <= 3 * 4**m; past m = q.bit_length() it holds anyway.
            if T is None or 4 * q <= 3 << 2 * min(T - L, q.bit_length()):
                return L, N, T
            J += 1

    def below_grid(self, q: int) -> bool:
        """True when truncation(q) keeps no term (J = 0): u irrational, q*u < 1.

        A q-part of at most q then moves a point scaled by 4**n by less
        than one level-n grid cell, so for integers A and |B| <= q the
        sign of A + B*u is the sign of A, or of B when A == 0: value
        order is lexicographic (P, Q) order and floor(P + Q*u) is P.
        """
        t = self.truncation(q)
        return t is not None and t[0] == 0

    def descriptor(self) -> str:
        if self.kind == "paper":
            return "paper"
        if self.kind == "geometric":
            return f"geometric:b={self.b},start={self.start}"
        return "explicit:" + ",".join(str(t) for t in self._terms)

    def __repr__(self) -> str:
        return f"LacunarySequence({self.descriptor()!r})"


def make_lacunary(descriptor: str,
                  materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> LacunarySequence:
    """Build a sequence from its text descriptor.

    Grammar: 'paper' | 'geometric:b=B,start=S' | 'explicit:t1,t2,...'.
    Raises ValueError on malformed input or a growth-gate violation.
    """
    text = descriptor.strip()
    if text == "paper":
        return LacunarySequence.paper(materialize_cap)
    if text.startswith("geometric:"):
        params = {}
        for part in text[len("geometric:"):].split(","):
            if "=" not in part:
                raise ValueError(f"bad geometric parameter {part!r}")
            key, _, val = part.partition("=")
            params[key.strip()] = int(val)
        if set(params) != {"b", "start"}:
            raise ValueError(f"geometric descriptor needs b= and start=, got {text!r}")
        return LacunarySequence.geometric(params["b"], params["start"], materialize_cap)
    if text.startswith("explicit:"):
        body = text[len("explicit:"):]
        try:
            terms = [int(t) for t in body.split(",") if t.strip()]
        except ValueError as exc:
            raise ValueError(f"bad explicit term in {body!r}") from exc
        return LacunarySequence.explicit(terms, materialize_cap)
    raise ValueError(f"unknown sequence descriptor {descriptor!r}")


def _u_enclosure_info(lam: LacunarySequence,
                      J: int) -> tuple[Fraction, Fraction, bool, bool]:
    """(lo, hi, exact, capped) for u truncated after J terms.

    lo = N / 4**L is the row lam._partial_sum(J) and hi = lo + (4/3) *
    4**(-lam_{depth+1}), so lo <= u <= hi, strictly on both sides for
    infinite kinds.  A tail exponent above the materialization cap is
    clamped, which only widens the interval.  exact means lo == hi == u
    (explicit kinds with J >= length).  capped means the cap limited the
    depth or the tail exponent, so no further refinement is possible.
    """
    if J < 0:
        raise ValueError("truncation depth must be >= 0")
    cached = lam._enclosures.get(J)
    if cached is not None:
        return cached
    depth, L, N = lam._partial_sum(J)
    lo = Fraction(N, 4 ** L)
    nxt = lam.term_or_none(depth + 1)
    if nxt is None:
        result = (lo, lo, True, False)
    else:
        cap = lam.materialize_cap
        result = (lo, lo + Fraction(4, 3 * 4 ** min(nxt, cap)), False, nxt > cap)
    lam._enclosures[J] = result
    return result


@dataclass(frozen=True)
class SymbolicPoint:
    """Exact point p + q*u with rationals p and q >= 0.

    Any denominators will do: count_in_ball and measure_bounds put the
    parts over one lcm for count_span.  A nonnegative q keeps every
    q-difference of a level point and an end within max(g*den, q-parts
    of the ends), the bound that the rank gate tests.
    """

    p: Fraction
    q: Fraction

    def __post_init__(self):
        for name in ("p", "q"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
        if self.q < 0:
            raise ValueError("q must be nonnegative")


def affine_sign_scaled(A: int, B: int, lam: LacunarySequence) -> int:
    """Exact sign of A + B*u for integers A, B.

    Rational u = N/4**L (truncation(0)) gives the sign of the integer
    A*4**L + B*N.  Otherwise a cheap cached bound
    pair decides almost every query with two big-integer products; the
    residual cases refine the enclosures _u_enclosure_info reads off the
    truncation rows, using the fact that u lies strictly between every
    truncation and its tail bound.  Raises
    EnclosureCapError if the sign is still ambiguous at the cap (only
    possible for inputs within 4**(-cap) of u itself).
    """
    if B == 0:
        return _sgn(A)
    if lam.u_is_rational:
        L, N, _ = lam.truncation(0)
        return _sgn((A << 2 * L) + B * N)
    lo_n, hi_n, K = lam.coarse_u_scale()
    s_lo = _sgn(A * K + B * lo_n)
    s_hi = _sgn(A * K + B * hi_n)
    if s_lo == s_hi and s_lo != 0:
        return s_lo
    if s_lo == 0:
        return _sgn(B)   # u strictly exceeds the lower coarse bound
    if s_hi == 0:
        return -_sgn(B)  # u is strictly below the upper coarse bound
    J = 1
    while True:
        lo, hi, exact, capped = _u_enclosure_info(lam, J)
        at_lo = A + B * lo
        at_hi = A + B * hi
        if at_lo == 0:
            return _sgn(B)   # -A/B is exactly the truncation; the tail decides
        if at_hi == 0:
            return -_sgn(B)  # the tail bound is strict
        if (at_lo > 0) == (at_hi > 0):
            return _sgn(at_lo)
        if exact or capped:
            raise EnclosureCapError(
                "sign undecidable within the materialization cap")
        J += 1
