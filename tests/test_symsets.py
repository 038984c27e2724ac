import random
from bisect import bisect_right
from itertools import permutations, product
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from plorder.plante import MINUS_INFINITY
from plorder.plgroup import PLMap, ball
from plorder.preorders import Sign
from plorder.symsets import (
    NonDyadicMap,
    _children,
    _hull,
    SymbolicEngine,
    TailSet,
    WordPair,
    alpha,
    cancellation_check,
    line_generators,
    ok_compare,
    property_o_spot,
)


# ---------------------------------------------------------------------------
# The Fraction oracle: hulls, the canonical form, images and the comparison
# as they were before each piece's hull became one integer quotient
# computed once, and before the constructor and the comparison relied on
# the canonical pieces being ascending instead of sorting them again
# ---------------------------------------------------------------------------

PAIRS = [("10001", "01110"), ("1000", "0011")]


def ref_hull(d, k, pair):
    s = F(1, 1 << k)
    return d + s * pair.bottom, d + s * pair.top


def ref_children(d, k, pair):
    s = F(1, 1 << k)
    return [(d + s * off, k + pair.width) for off in pair.child_offsets]


def ref_canonical(pair, lo, hi, pieces):
    """(lo, hi, pieces) of TailSet(pair, lo, hi, pieces): sort by hull, merge
    siblings (restarting after each merge), sort again, absorb translates."""
    def key(p):
        return ref_hull(*p, pair)
    pieces = sorted(((F(d), k) for d, k in pieces), key=key)
    changed = True
    while changed:
        changed = False
        for i in range(len(pieces) - 1):
            (d1, k1), (d2, k2) = pieces[i], pieces[i + 1]
            if k1 != k2 or k1 < pair.width:
                continue
            kp = k1 - pair.width
            s = F(1, 1 << kp)
            dp = d1 - s * pair.child_offsets[0]
            if d2 == dp + s * pair.child_offsets[1]:
                pieces[i:i + 2] = [(dp, kp)]
                changed = True
                break
    pieces.sort(key=key)
    while pieces and pieces[0] == (lo, 0) and \
            (len(pieces) == 1 or key(pieces[1])[0] >= lo + 1):
        pieces.pop(0)
        lo += 1
    while pieces and pieces[-1] == (hi - 1, 0) and \
            (len(pieces) == 1 or key(pieces[-2])[1] < hi - 1):
        pieces.pop()
        hi -= 1
    if lo == hi:
        lo = hi = 0
    return lo, hi, tuple(pieces)


def ref_image(s, g):
    """(lo, hi, pieces) of g(S), splitting pieces by Fraction hulls."""
    exps = [(F(x).numerator.bit_length() - F(x).denominator.bit_length()) for x in g.slopes]
    if not g.breakpoints:
        m = int(g.offsets[0])
        return ref_canonical(s.pair, s.lo + m, s.hi + m, [(d + m, k) for d, k in s.pieces])
    ext_lo = min(s.lo, int(min(g.breakpoints) // 1))
    ext_hi = max(s.hi, int(max(g.breakpoints) // 1) + 1)
    stack = list(s.pieces) + [(F(n), 0) for n in range(ext_lo, s.lo)] \
        + [(F(n), 0) for n in range(s.hi, ext_hi)]
    bps = list(g.breakpoints)
    out = []
    while stack:
        d, k = stack.pop()
        h0, h1 = ref_hull(d, k, s.pair)
        i, j = bisect_right(bps, h0), bisect_right(bps, h1)
        if i != j or k < exps[i]:
            stack.extend(ref_children(d, k, s.pair))
            continue
        out.append((g.slopes[i] * d + g(h0) - g.slopes[i] * h0, k - exps[i]))
    return ref_canonical(s.pair, ext_lo + int(g.offsets[0]), ext_hi + int(g.offsets[-1]), out)


def ref_compare(a, b):
    """(sign, alpha) from materialized pieces sorted by Fraction hulls."""
    pair = a.pair
    floor_n, top_n = min(a.lo, b.lo), max(a.hi, b.hi)

    def materialize(s):
        out = [(F(n), 0) for n in range(floor_n, s.lo)] + list(s.pieces) \
            + [(F(n), 0) for n in range(s.hi, top_n)]
        return sorted(out, key=lambda p: ref_hull(*p, pair))

    la, lb = materialize(a), materialize(b)
    while la or lb:
        if la and lb and la[-1] == lb[-1]:
            la.pop()
            lb.pop()
            continue
        ta = ref_hull(*la[-1], pair)[1] if la else None
        tb = ref_hull(*lb[-1], pair)[1] if lb else None
        if la and lb and ta == tb:
            side = la if la[-1][1] < lb[-1][1] else lb
            side[-1:] = ref_children(*side[-1], pair)
            continue
        if not la:
            return -1, tb
        if not lb or ta > tb:
            return 1, ta
        return -1, tb
    return 0, MINUS_INFINITY


@pytest.fixture(scope="module", params=PAIRS, ids="/".join)
def pair_ball(request):
    """The r4 ball of the line generators with its images under one pair."""
    base = TailSet.base(WordPair(*request.param))
    elements = list(ball(line_generators(), 4))
    return base, elements, [base.image(g) for g in elements]


class TestAgainstFractionOracle:
    def test_image(self, pair_ball):
        base, elements, images = pair_ball
        for g, img in zip(elements, images):
            assert (img.lo, img.hi, img.pieces) == ref_image(base, g)

    def test_compare_and_alpha_on_all_pairs(self, pair_ball):
        _, _, images = pair_ball
        for A in images:
            for B in images:
                sign, top = ref_compare(A, B)
                assert ok_compare(A, B) == sign
                assert alpha(A, B) == top

    def test_integer_children_are_fraction_children(self, pair_ball):
        # the images' pieces, their children and the unit cells that tails
        # split into
        base, _, images = pair_ball
        pair = base.pair
        pieces = {p for img in images for p in img.pieces}
        pieces |= {c for p in pieces for c in ref_children(*p, pair)}
        pieces |= {(F(n), 0) for img in images for n in range(img.lo - 1, img.hi + 1)}
        assert len(pieces) > 100
        for d, k in pieces:
            assert _children(d, k, pair) == ref_children(d, k, pair)

    @given(n=st.integers(-10 ** 6, 10 ** 6), e=st.integers(0, 40),
           k=st.integers(0, 80), which=st.sampled_from(PAIRS))
    def test_integer_hull_is_fraction_hull(self, n, e, k, which):
        pair = WordPair(*which)
        d = F(n, 1 << e)
        assert _hull(d, k, pair) == ref_hull(d, k, pair)

    def test_unreduced_block_values(self):
        # top 8/15 and bottom 3/15 = 1/5: the reduced denominators differ
        pair = WordPair("1000", "0011")
        assert (pair.top, pair.bottom) == (F(8, 15), F(1, 5))
        assert _hull(F(1, 2), 3, pair) == (F(1, 2) + F(1, 40), F(1, 2) + F(1, 15))


class TestTailSetInvariants:
    """The three constructor checks; each used to go untested."""

    def test_negative_depth(self):
        # checked before any hull is computed (a hull would fail on the shift)
        with pytest.raises(ValueError, match="piece depth must be nonnegative"):
            TailSet(WordPair(), 0, 2, [(F(1, 2), -1)])

    @pytest.mark.parametrize("pieces", [
        [(F(0), 3), (F(0), 3)],                       # a duplicate
        [(F(0), 0), (F(14, 32), 5)],                  # a piece and its low child
        [(F(0), 1), (F(3, 16), 3)],                   # hulls that overlap
        # two siblings merge into (0, 0), which holds the third piece
        [(F(14, 32), 5), (F(17, 32), 5), (F(17, 32) + F(17, 1024), 10)],
    ])
    def test_overlapping_pieces(self, pieces):
        with pytest.raises(ValueError, match="pieces must be disjoint and sorted"):
            TailSet(WordPair(), 0, 1, pieces)

    @pytest.mark.parametrize("lo, hi, pieces", [
        (0, 1, [(F(1), 3)]),
        (0, 2, [(F(-1), 2)]),
        (0, 1, [(F(1, 2), 0)]),
    ])
    def test_piece_outside_the_gap(self, lo, hi, pieces):
        with pytest.raises(ValueError, match=r"pieces must lie inside \[lo, hi\)"):
            TailSet(WordPair(), lo, hi, pieces)


@pytest.fixture(scope="module")
def ok_ball():
    """Radius-4 ball of the line generators with the images of the base set."""
    gens = line_generators()
    base = TailSet.base()
    elements = list(ball(gens, 4))
    return {"gens": gens, "base": base, "elements": elements,
            "images": {g: base.image(g) for g in elements}}


def dfs_has_infinite_run(p: str, w1: str, w2: str) -> bool:
    """The oracle: depth-first search of the overhang automaton from p for
    a state still on its stack, as the check ran before it became a
    three-step reachability test."""
    W = len(w1)
    n = len(p)
    succ: dict[str, set[str]] = {}

    def outs(q: str) -> set[str]:
        if q not in succ:
            out = set()
            for b in (w1, w2):
                if q + b[:W - n] in (w1, w2):
                    out.add(b[W - n:])
            succ[q] = out
        return succ[q]

    color: dict[str, int] = {}

    def has_cycle(q: str) -> bool:
        color[q] = 1
        for r in outs(q):
            c = color.get(r, 0)
            if c == 1 or (c == 0 and has_cycle(r)):
                return True
        color[q] = 2
        return False

    return has_cycle(p)


class TestCancellation:
    def test_three_steps_match_the_dfs(self):
        # every ordered pair of distinct binary words of length <= 7
        checked = failed = 0
        for length in range(1, 8):
            words = ["".join(bits) for bits in product("01", repeat=length)]
            for w1, w2 in permutations(words, 2):
                starts = {w[:i] for w in (w1, w2) for i in range(1, length)}
                want = not any(dfs_has_infinite_run(p, w1, w2) for p in starts)
                assert cancellation_check(w1, w2) == want, (w1, w2)
                checked += 1
                failed += not want
        assert checked == sum(4 ** k - 2 ** k for k in range(1, 8))
        assert 0 < failed < checked

    def test_known_pairs(self):
        assert cancellation_check("0", "1", bound=20)
        assert cancellation_check("10001", "01110", bound=20)

    def test_dependent_pair_fails(self):
        # 01 and 10: the streams ...010101... admit two parsings
        assert not cancellation_check("01", "10", bound=20)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cancellation_check("01", "011")
        with pytest.raises(ValueError):
            cancellation_check("01", "01")


class TestWordPair:
    def test_tail_values(self):
        pair = WordPair("10001", "01110")
        assert pair.top == F(17, 31)      # 0.(10001 10001 ...)
        assert pair.bottom == F(14, 31)   # 0.(01110 01110 ...)
        assert pair.width == 5

    def test_contains_unit(self):
        pair = WordPair()
        assert pair.contains_unit(pair.top)
        assert pair.contains_unit(pair.bottom)
        # 0.(10001 01110 10001 01110 ...) = (17*32 + 14) / (32^2 - 1)
        mixed = F(17 * 32 + 14, 32 ** 2 - 1)
        assert pair.contains_unit(mixed)
        assert not pair.contains_unit(F(1, 2))
        assert not pair.contains_unit(F(16, 31))

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            WordPair("11", "10")     # same first bit after normalization
        with pytest.raises(ValueError):
            WordPair("10", "01")     # fails cancellation


class TestTailSet:
    def test_base_membership(self):
        s = TailSet.base()
        pair = s.pair
        for n in (-2, 0, 5):
            assert s.contains(n + pair.top)
            assert s.contains(n + pair.bottom)
        assert not s.contains(F(1, 2))

    def test_translation_fixes_base(self):
        # the base set is the union of all integer translates
        gens = line_generators()
        s = TailSet.base()
        assert s.image(gens["t"]) == s
        assert s.image(gens["t"] ** -3) == s

    def test_gap_between_tails_is_kept(self):
        # x - 2 below 0 and the identity above 1/4: the image drops the
        # translates -2 + K0 and -1 + K0, leaving a gap with no pieces
        s = TailSet.base()
        g = PLMap.from_text("line;1,-2;0:16,-2;1/8:2,-1/4;1/4:1,0")
        img = s.image(g)
        assert (img.lo, img.hi, img.pieces) == (-2, 0, ())
        assert img != s
        assert not img.contains(-1 + s.pair.top)
        assert ok_compare(img, s) == -1
        assert TailSet(s.pair, 3, 3) == s

    def test_image_respects_membership(self, ok_ball):
        rng = random.Random(0)
        base, pair = ok_ball["base"], ok_ball["base"].pair
        probes = [n + off for n in (-2, 0, 1, 3)
                  for off in (pair.top, pair.bottom, F(1, 2))]
        for g in rng.sample(ok_ball["elements"], 25):
            img = ok_ball["images"][g]
            for x in probes:
                assert img.contains(g(x)) == base.contains(x)

    def test_image_rejects_non_dyadic(self):
        s = TailSet.base()
        bad = PLMap("line", [F(0)], [F(1), F(3)], [F(0), F(0)])
        with pytest.raises(NonDyadicMap):
            s.image(bad)

    def test_image_is_functorial(self, ok_ball):
        rng = random.Random(1)
        base = ok_ball["base"]
        els = ok_ball["elements"]
        for _ in range(30):
            g, h = rng.choice(els), rng.choice(els)
            assert base.image(g * h) == base.image(h).image(g)


class TestAlphaKernel:
    def test_frozen_values(self, ok_ball):
        base, h = ok_ball["base"], ok_ball["gens"]["h"]
        assert alpha(base.image(h), base) == F(48, 31)
        assert alpha(base.image(h.inverse()), base) == F(24, 31)
        assert alpha(base, base) == MINUS_INFINITY

    def test_ultrametric_on_sampled_triples(self, ok_ball):
        rng = random.Random(2)
        sets = list(ok_ball["images"].values())
        for _ in range(300):
            A, B, C = (rng.choice(sets) for _ in range(3))
            assert alpha(A, B) <= max(alpha(A, C), alpha(C, B))
            assert alpha(A, B) == alpha(B, A)

    def test_equivariance(self, ok_ball):
        rng = random.Random(3)
        base = ok_ball["base"]
        els = ok_ball["elements"]
        for _ in range(300):
            g1, g2, h = (rng.choice(els) for _ in range(3))
            a = alpha(ok_ball["images"][g1], ok_ball["images"][g2])
            ah = alpha(base.image(h * g1), base.image(h * g2))
            if a == MINUS_INFINITY:
                assert ah == MINUS_INFINITY
            else:
                assert ah == h(a)


class TestOkCompare:
    def test_total_order_on_ball(self, ok_ball):
        sets = list(ok_ball["images"].values())
        # antisymmetry and the equality case, all pairs
        for A in sets:
            for B in sets:
                s = ok_compare(A, B)
                assert s in (-1, 0, 1)
                assert s == -ok_compare(B, A)
                assert (s == 0) == (A == B)

    def test_tail_set_is_its_own_key(self, pair_ball):
        # structural == and the total_ordering operators agree with
        # ok_compare on every pair of r4 images, for both word pairs
        _, _, images = pair_ball
        for A in images:
            for B in images:
                s = ok_compare(A, B)
                assert (A == B) == (s == 0)
                assert (A < B, A > B) == (s < 0, s > 0)
        assert len(set(images)) == len({(A.lo, A.hi, A.pieces) for A in images})

    def test_transitivity_sampled(self, ok_ball):
        rng = random.Random(4)
        sets = list(ok_ball["images"].values())
        for _ in range(300):
            A, B, C = (rng.choice(sets) for _ in range(3))
            if ok_compare(A, B) <= 0 and ok_compare(B, C) <= 0:
                assert ok_compare(A, C) <= 0

    def test_group_invariance(self, ok_ball):
        rng = random.Random(5)
        base = ok_ball["base"]
        els = ok_ball["elements"]
        for _ in range(300):
            g1, g2, h = (rng.choice(els) for _ in range(3))
            assert ok_compare(ok_ball["images"][g1], ok_ball["images"][g2]) \
                == ok_compare(base.image(h * g1), base.image(h * g2))

    def test_separation_spot_check(self, ok_ball):
        rng = random.Random(6)
        base = ok_ball["base"]
        for g in rng.sample(ok_ball["elements"], 100):
            assert property_o_spot(ok_ball["images"][g], base)


class TestSymbolicEngine:
    def test_generator_signs(self):
        eng = SymbolicEngine()
        gens = line_generators()
        assert eng.sign(gens["t"]) == Sign.RESIDUE
        assert eng.sign(gens["h"]) == Sign.NEGATIVE
        assert eng.sign(gens["h"].inverse()) == Sign.POSITIVE

    def test_cone_axioms_on_ball(self, ok_ball):
        from plorder.preorders import axioms_report
        eng = SymbolicEngine()
        r = axioms_report(eng, ok_ball["elements"], pair_limit=1500)
        assert r["pass"], r["failures"][:3]
