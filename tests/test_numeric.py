"""Symbolic p + q*u arithmetic: sequences, enclosures, exact sign decisions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fracpack.numeric import (
    DEFAULT_MATERIALIZE_CAP,
    CapError,
    EnclosureCapError,
    LacunarySequence,
    SymbolicPoint,
    _u_enclosure_info,
    affine_sign_scaled,
    make_lacunary,
    parse_rational,
    rational_str,
)
import oracle
from conftest import u_value

F = Fraction


def gap_ok(terms) -> bool:
    return all(b >= 2 * a + 1 for a, b in zip(terms, terms[1:]))


# Strictly increasing tuples satisfying the spacing gate lam_{k+1} >= 2*lam_k + 1.
def lacunary_terms(max_len=5, max_start=6):
    def build(draw):
        first = draw(st.integers(1, max_start))
        terms = [first]
        for _ in range(draw(st.integers(0, max_len - 1))):
            terms.append(2 * terms[-1] + 1 + draw(st.integers(0, 8)))
        return tuple(terms)
    return st.composite(lambda draw: build(draw))()


def explicit(terms) -> str:
    return "explicit:" + ",".join(map(str, terms))


# u's exponents lam_1, lam_2, ...: paper's 3**3**j, and start*3**(j-1) for
# the geometric kinds, as far as the near-ties below reach.
IRRATIONAL_TERMS = {"paper": [27, 19683],
                    **{f"geometric:b=3,start={s}": [s * 3 ** j for j in range(7)]
                       for s in range(1, 6)}}


def irrational_u(desc, B) -> oracle.U:
    """An oracle.U whose enclosure decides the sign of A + B*u for every A.

    With |B| < 4**b and lam_M the first term at or above b, a rational
    -A/B other than u's truncation after M terms lies more than
    (2/3) * 4**-(b + lam_M) from u, as lam_{M+1} >= 2*lam_M + 1 puts the
    tail below a third of that; an enclosure 4**-E/3 wide with
    E >= b + lam_M then decides it.  At the truncation itself, the
    enclosure's lower end is the truncation or lies above it.
    """
    b = abs(B).bit_length() // 2 + 1
    return oracle.U(desc, max(120, b + next(t for t in IRRATIONAL_TERMS[desc] if t >= b)))


@st.composite
def sign_queries(draw):
    """(desc, A, B): a free pair, or a near-tie at a truncation depth J.

    A near-tie puts A + B*u at d + k*4**L_J*(u - N_J/4**L_J) for u's
    truncation N_J/4**L_J after J terms and d in {-1, 0, 1}: the coarse
    bracket and the first enclosures cannot decide it, so the refinement
    loop runs.
    """
    desc = draw(st.sampled_from(sorted(IRRATIONAL_TERMS)))
    if not draw(st.booleans()):
        free = st.integers(-(2 ** 64), 2 ** 64)
        return desc, draw(free), draw(free)
    terms = IRRATIONAL_TERMS[desc]
    J = draw(st.integers(0, len(terms) - 1))
    L = terms[J - 1] if J else 0
    N = sum(4 ** (L - t) for t in terms[:J])
    k = draw(st.integers(1, 2 ** 32)) * draw(st.sampled_from([1, -1]))
    d = draw(st.sampled_from([-1, 0, 1]))
    return desc, -k * N + d, k * 4 ** L


class TestParsing:
    def test_parse_rational(self):
        assert parse_rational("1/4") == F(1, 4)
        assert parse_rational("0.5") == F(1, 2)
        assert parse_rational("3") == 3
        with pytest.raises(ValueError):
            parse_rational("one half")

    def test_rational_str_roundtrip(self):
        for x in (F(1, 4), F(0), F(7), F(-3, 8)):
            assert parse_rational(rational_str(x)) == x

    def test_roundtrip_past_int_string_limit(self):
        # 5001 digits, past the interpreter's default 4300-digit limit.
        for x in (F(10 ** 5000 + 1, 3), F(-(10 ** 5000) - 7, 3 ** 9000), F(7 ** 6000)):
            assert parse_rational(rational_str(x)) == x

    def test_rational_str_matches_str_across_chunks(self):
        # Interior runs of zeros cross the 500-digit chunk boundaries.
        for num in (10 ** 500, 10 ** 1200 + 7, -(3 ** 2000)):
            x = F(num, 7 ** 900)
            assert rational_str(x) == f"{x.numerator}/{x.denominator}"


class TestLacunarySequence:
    def test_paper_terms(self, lam_paper):
        assert lam_paper.term(1) == 27
        assert lam_paper.term(2) == 19683
        assert lam_paper.term(3) == 3 ** 27
        assert lam_paper.length is None
        assert not lam_paper.u_is_rational

    def test_paper_terms_satisfy_gap(self, lam_paper):
        terms = [lam_paper.term(k) for k in range(1, 5)]
        assert gap_ok(terms)

    def test_explicit_validation(self):
        assert make_lacunary("explicit:2,6,14").length == 3
        with pytest.raises(ValueError):
            make_lacunary("explicit:2,4")  # 4 < 2*2 + 1
        with pytest.raises(ValueError):
            make_lacunary("explicit:6,2")
        with pytest.raises(ValueError):
            make_lacunary("explicit:")
        with pytest.raises(ValueError):
            make_lacunary("explicit:0,5")

    def test_explicit_terms_above_cap_rejected(self):
        with pytest.raises(ValueError):
            LacunarySequence.explicit((2, 2_000_001), materialize_cap=10 ** 6)

    def test_geometric_gate(self):
        lam = make_lacunary("geometric:b=3,start=3")
        assert [lam.term(k) for k in (1, 2, 3)] == [3, 9, 27]
        with pytest.raises(ValueError):
            make_lacunary("geometric:b=2,start=5")
        with pytest.raises(ValueError):
            make_lacunary("geometric:b=3,start=0")

    def test_descriptor_roundtrip(self):
        for desc in ("paper", "geometric:b=3,start=3", "explicit:2,6,14"):
            assert make_lacunary(desc).descriptor() == desc
        with pytest.raises(ValueError):
            make_lacunary("fibonacci")
        with pytest.raises(ValueError):
            make_lacunary("geometric:b=3")

    def test_term_indexing(self, lam_toy):
        with pytest.raises(IndexError):
            lam_toy.term(0)
        assert lam_toy.term_or_none(4) is None
        assert lam_toy.terms_below(7) == [2, 6]

    @given(lacunary_terms())
    def test_window_index_unique(self, terms):
        lam = LacunarySequence.explicit(terms)
        for d in range(1, terms[-1] + 1):
            k = lam.window_index(d)
            assert k is not None
            lo = terms[k - 1] if k >= 1 else 0
            assert lo < d <= terms[k]
        assert lam.window_index(terms[-1] + 1) is None
        assert lam.window_index(0) is None

    def test_u_exact(self):
        lam = make_lacunary("explicit:2,6")
        assert lam.u_exact() == F(1, 16) + F(1, 4096) == F(257, 4096)
        assert lam.u_is_rational

    def test_u_exact_requires_finite(self, lam_paper):
        with pytest.raises(ValueError):
            lam_paper.u_exact()


def resummed_enclosure(lam, J):
    """(lo, hi, exact, capped) by re-adding 4**-lam_j term by term.

    A Fraction model of u independent of the truncation rows: the oracle
    that _u_enclosure_info's view of the rows must match.
    """
    cap = lam.materialize_cap
    lo = F(0)
    depth = 0
    capped = False
    for j in range(1, J + 1):
        t = lam.term_or_none(j)
        if t is None:
            break
        if t > cap:
            capped = True
            break
        lo += F(1, 4 ** t)
        depth = j
    nxt = lam.term_or_none(depth + 1)
    if nxt is None:
        return lo, lo, True, False
    return lo, lo + F(4, 3 * 4 ** min(nxt, cap)), False, capped or nxt > cap


@st.composite
def capped_sequences(draw):
    """A sequence under the default cap or caps 7 and 30; explicit terms fit it."""
    cap = draw(st.sampled_from([DEFAULT_MATERIALIZE_CAP, 7, 30]))
    desc = draw(st.sampled_from(["explicit", "geometric:b=3,start=1",
                                 "geometric:b=3,start=3", "geometric:b=3,start=5",
                                 "paper"]))
    if desc == "explicit":
        return LacunarySequence.explicit(
            [t for t in draw(lacunary_terms()) if t <= cap], cap)
    return make_lacunary(desc, cap)


class TestEnclosures:
    def test_enclosure_contains_exact_u(self):
        lam = make_lacunary("explicit:2,6,14")
        u = u_value("explicit:2,6,14")
        for J in range(0, 4):
            lo, hi, _, _ = _u_enclosure_info(lam, J)
            assert lo <= u <= hi

    def test_enclosure_tail_is_strict(self):
        # The tail sum_{j>J} 4**-lam_j stays strictly below (4/3)*4**-lam_{J+1}.
        lam = make_lacunary("explicit:2,6,14")
        u = u_value("explicit:2,6,14")
        for J in range(0, 3):
            lo, hi, _, _ = _u_enclosure_info(lam, J)
            assert lo < u if J < 3 else lo == u
            assert u < hi

    @given(lacunary_terms())
    def test_enclosures_nest(self, terms):
        lam = LacunarySequence.explicit(terms)
        prev = _u_enclosure_info(lam, 0)
        for J in range(1, len(terms) + 1):
            enc = _u_enclosure_info(lam, J)
            assert prev[0] <= enc[0] and enc[1] <= prev[1]
            prev = enc

    def test_enclosure_width_bound(self, lam_paper):
        lo, hi, _, _ = _u_enclosure_info(lam_paper, 1)
        assert hi - lo <= F(4, 3) * F(1, 4) ** 19683

    @settings(max_examples=60, deadline=None)
    @given(capped_sequences(), st.integers(0, 6))
    # Depth stopped by the cap: lam_2 = 15 > 7 ends the sum after lam_1.
    @example(make_lacunary("geometric:b=3,start=5", 7), 2)
    # Full depth, but the next term lam_2 = 15 lies past the cap of 7.
    @example(make_lacunary("geometric:b=3,start=5", 7), 1)
    # A term equal to the cap is materialized: neither capped.
    @example(LacunarySequence.explicit([3, 7], 7), 1)
    @example(LacunarySequence.explicit([3, 7], 7), 2)
    def test_matches_resummation(self, lam, J):
        assert _u_enclosure_info(lam, J) == resummed_enclosure(lam, J)

    @given(st.sampled_from(["explicit:2,6,14", "geometric:b=3,start=1",
                            "geometric:b=3,start=5", "paper"]),
           st.integers(0, 4 ** 40))
    def test_view_of_truncation(self, desc, q):
        # The enclosure at the truncation's depth starts at its N / 4**L,
        # the sum of u's terms up to L (all of them for a finite list).
        lam = make_lacunary(desc)
        L, N, _ = lam.truncation(q)
        J = len(lam.terms_below(L + 1))
        u = oracle.U(desc, L)
        assert _u_enclosure_info(lam, J)[0] == F(N, 4 ** L) == F(u.lo, u.den)


class TestTruncation:
    def test_tail_exponent_under_cap(self):
        lam = make_lacunary("geometric:b=3,start=5", 7)
        assert lam.truncation(100) == (0, 0, 5)
        # T = lam_2 = 15 is only compared as an exponent: past the cap is fine.
        assert lam.truncation(10 ** 4) == (5, 1, 15)
        assert lam.truncation(10 ** 7) is None

    @given(lacunary_terms(), st.integers(0, 4 ** 40))
    def test_rational_has_no_tail(self, terms, q):
        lam = LacunarySequence.explicit(terms)
        L, N, T = lam.truncation(q)
        assert T is None and F(N, 4 ** L) == u_value(explicit(terms))


class TestSymbolicPoint:
    def test_validation(self):
        SymbolicPoint(F(1, 4), F(3, 8))
        with pytest.raises(ValueError):
            SymbolicPoint(F(1, 4), F(-1, 4))


class TestAffineSign:
    @given(lacunary_terms(max_len=4), st.integers(-300, 300), st.integers(-300, 300))
    def test_matches_exact_rational(self, terms, A, B):
        lam = LacunarySequence.explicit(terms)
        assert affine_sign_scaled(A, B, lam) == oracle.U(explicit(terms)).sign(A, B)

    @given(sign_queries())
    # -A/B is u's truncation after two terms, 4**-3 + 4**-9, or three.
    @example(("geometric:b=3,start=3", -(4 ** 6 + 1), 4 ** 9))
    @example(("geometric:b=3,start=3", -(4 ** 24 + 4 ** 18 + 1), 4 ** 27))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_irrational_u(self, query):
        desc, A, B = query
        assert affine_sign_scaled(A, B, make_lacunary(desc)) == irrational_u(desc, B).sign(A, B)

    def test_irrational_boundary_shortcut(self, lam_paper):
        # A + B*u with A = -B*4**-27 scaled: the value is exactly the
        # positive tail, decided without materializing 4**-19683.
        assert affine_sign_scaled(-1, 4 ** 27, lam_paper) == 1
        assert affine_sign_scaled(1, -(4 ** 27), lam_paper) == -1
        assert affine_sign_scaled(0, 7, lam_paper) == 1
        assert affine_sign_scaled(0, 0, lam_paper) == 0

    def test_cap_raises_when_undecidable(self):
        lam = LacunarySequence("paper", materialize_cap=30)
        # Strictly inside the capped enclosure hull on both sides.
        with pytest.raises(EnclosureCapError):
            affine_sign_scaled(-(4 ** 3) - 1, 4 ** 30, lam)

    def test_cap_error_is_cap_error(self):
        assert issubclass(EnclosureCapError, CapError)

    def test_affine_sign_fractions(self, lam_paper):
        # a + b*u for rationals a, b: scale both by a common denominator.
        # -4**-27 + u and 1/8 - u/2, scaled by 4**27 and by 8.
        assert affine_sign_scaled(-1, 4 ** 27, lam_paper) == 1
        assert affine_sign_scaled(1, -4, lam_paper) == 1


class TestCompareEval:
    """Two points compare as the sign of their difference, scaled to integers."""

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_compare_matches_exact(self, p1, q1, p2, q2):
        lam = make_lacunary("explicit:2,6")
        u = u_value("explicit:2,6")
        va, vb = F(p1, 16) + F(q1, 16) * u, F(p2, 16) + F(q2, 16) * u
        assert affine_sign_scaled(p1 - p2, q1 - q2, lam) == (va > vb) - (va < vb)

    def test_trichotomy_on_irrational(self, lam_paper):
        # 1/4 against u/4, scaled by 4.
        assert affine_sign_scaled(1, -1, lam_paper) == 1
        assert affine_sign_scaled(-1, 1, lam_paper) == -1
        assert affine_sign_scaled(0, 0, lam_paper) == 0

