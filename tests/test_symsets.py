import random
from fractions import Fraction as F

import pytest

from plorder.plante import MINUS_INFINITY
from plorder.plgroup import PLMap, ball
from plorder.preorders import Sign
from plorder.symsets import (
    NonDyadicMap,
    SymbolicEngine,
    TailSet,
    WordPair,
    alpha,
    cancellation_check,
    line_generators,
    ok_compare,
    property_o_spot,
)


@pytest.fixture(scope="module")
def ok_ball():
    """Radius-4 ball of the line generators with the images of the base set."""
    gens = line_generators()
    base = TailSet.base()
    elements = list(ball(gens, 4))
    return {"gens": gens, "base": base, "elements": elements,
            "images": {g: base.image(g) for g in elements}}


class TestCancellation:
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
