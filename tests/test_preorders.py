import random
from fractions import Fraction as F

import pytest

from plorder.exactnum import LatticePreorder, SlopeGroup
from plorder.plgroup import PLMap, bs_g_plus, f_big_generator, translation
from plorder.preorders import (
    DiscreteInvariantSet,
    EscapingContext,
    EscapingEngine,
    JumpEngine,
    NotInFPlus,
    PrimeJumpEngine,
    RestrictionEngine,
    Sign,
    restriction_sign,
    xg,
)


class TestSign:
    def test_negation(self):
        assert -Sign.POSITIVE == Sign.NEGATIVE
        assert -Sign.RESIDUE == Sign.RESIDUE


class TestDiscreteInvariantSet:
    def test_contains_orbit_points(self):
        f0 = f_big_generator()
        K = DiscreteInvariantSet(f0)
        # the orbit of the seed 1/2 from the top down to f0^-1(1/2) = 1/4
        below = []
        for x in K.points_desc(F(15, 16)):
            if x < F(1, 4):
                break
            below.append(x)
        assert below == [f0(f0(F(1, 2))), f0(F(1, 2)), F(1, 2), F(1, 4)]
        assert F(1, 3) not in below
        # no largest K-point lies below 1 (or none at all below 0)
        for upper in (F(1), F(2), F(0)):
            with pytest.raises(ValueError):
                next(K.points_desc(upper))

    def test_orbit_is_indexed_upward(self):
        # an anchor and its inverse give one orbit, walked upward either way
        f0 = f_big_generator()
        for anchor in (f0, f0.inverse()):
            K = DiscreteInvariantSet(anchor, F(1, 3))
            assert K.s(0) == F(1, 3)
            assert [K.s(n) for n in range(-3, 4)] == \
                [(f0 ** n)(F(1, 3)) for n in range(-3, 4)]
            assert list(zip(range(3), K.points_desc(K.s(2)))) == \
                [(0, K.s(1)), (1, K.s(0)), (2, K.s(-1))]

    def test_index_is_least_n_reaching_x(self):
        # on orbit points, just above and just below them, on both sides of
        # the seed
        K = DiscreteInvariantSet(f_big_generator(), F(1, 3))
        for n in range(-6, 7):
            x = K.s(n)
            assert K.index(x) == n
            assert K.index(x + F(1, 10 ** 9)) == n + 1
            assert K.index(x - F(1, 10 ** 9)) == n

    @pytest.mark.parametrize("seed", [0, 1, F(3, 2), F(-1, 2)])
    def test_rejects_seed_outside_the_interval(self, seed):
        with pytest.raises(ValueError, match="must lie in"):
            DiscreteInvariantSet(f_big_generator(), seed)

    def test_rejects_bad_anchor(self):
        a = PLMap.from_points(
            "unit", [(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 8)),
                     (F(3, 4), F(3, 4)), (1, 1)])
        with pytest.raises(ValueError):
            DiscreteInvariantSet(a)  # interior fixed points


class TestRestriction:
    def test_anchor_orbit_signs(self, f_pair):
        a, b = f_pair
        K = DiscreteInvariantSet(f_big_generator())
        # frozen: a moves its top K-point 1/2 to 9/16
        assert xg(a, K) == F(1, 2)
        assert a(F(1, 2)) == F(9, 16)
        assert restriction_sign(a, K) == Sign.POSITIVE
        assert restriction_sign(a.inverse(), K) == Sign.NEGATIVE
        assert restriction_sign(PLMap.identity("unit"), K) == Sign.RESIDUE

    def test_requires_trivial_right_germ(self, f_pair):
        _, b = f_pair
        K = DiscreteInvariantSet(f_big_generator())
        with pytest.raises(NotInFPlus):
            restriction_sign(b, K)

    def test_conjugation_invariance_and_xg_laws(self, balls5):
        # conjugating by the anchor preserves the sign and transports x_g;
        # x_{gh} <= max(x_g, x_h), with equality when they differ
        f0 = f_big_generator()
        f0i = f0.inverse()
        K = DiscreteInvariantSet(f0)
        samples = balls5["fplus"]
        signs = {g: restriction_sign(g, K) for g in samples}
        xs = {g: xg(g, K) for g in samples}
        rng = random.Random(7)
        lo = F(-1)  # stand-in for -infinity below every K-point
        for _ in range(500):
            g, h = rng.choice(samples), rng.choice(samples)
            gh = g * h
            xgh = xg(gh, K)
            m = max(xs[g] or lo, xs[h] or lo)
            assert (xgh or lo) <= m
            if (xs[g] or lo) != (xs[h] or lo):
                assert (xgh or lo) == m
            conj = f0 * g * f0i
            assert restriction_sign(conj, K) == signs[g]
            if xs[g] is not None:
                assert xg(conj, K) == f0(xs[g])


class TestJump:
    def test_single_breakpoint_sign(self):
        # g+(0,2) jumps from slope 1 to 2 at 0: the right scan sees the
        # ratio 1/2, which is negative under the standard order on <2>
        g = bs_g_plus(0, 2)
        right, left = JumpEngine("right").sign, JumpEngine("left").sign
        assert right(g) == Sign.NEGATIVE
        assert right(g.inverse()) == Sign.POSITIVE
        assert left(g) == Sign.POSITIVE

    def test_opposite_order_flips(self, balls5):
        std = JumpEngine(side="right")
        opp = JumpEngine(side="right", group=SlopeGroup([2]),
                         order=LatticePreorder([(-1,)]))
        for g in balls5["bs2"][:80]:
            assert opp.sign(g) == -std.sign(g)

    def test_translations_are_residue(self):
        assert JumpEngine("right").sign(translation(F(7, 3))) == Sign.RESIDUE

    @pytest.mark.parametrize("side", ["up", "Right", ""])
    def test_rejects_unknown_side(self, side):
        # any side but "right" used to key silently as the left engine
        with pytest.raises(ValueError) as e:
            JumpEngine(side)
        assert str(e.value) == f"side must be 'right' or 'left', got {side!r}"


class TestPrimeJump:
    def test_pure_powers(self):
        g2 = bs_g_plus(0, 2)
        two, three = PrimeJumpEngine(2).sign, PrimeJumpEngine(3).sign
        assert two(g2) == Sign.POSITIVE
        assert two(g2.inverse()) == Sign.NEGATIVE
        assert three(g2) == Sign.RESIDUE

    def test_mixed_slope(self):
        two, three = PrimeJumpEngine(2).sign, PrimeJumpEngine(3).sign
        g6 = bs_g_plus(0, 6)
        assert two(g6) == Sign.POSITIVE
        assert three(g6) == Sign.POSITIVE
        g23 = bs_g_plus(0, F(2, 3))
        assert two(g23) == Sign.POSITIVE
        assert three(g23) == Sign.NEGATIVE


class TestEscaping:
    def test_anchor_signs(self, f_pair):
        a, b = f_pair
        eng = EscapingEngine(EscapingContext())
        # frozen oracle values on the standard pair
        assert eng.sign(a) == Sign.POSITIVE
        assert eng.sign(b) == Sign.NEGATIVE
        assert eng.sign(f_big_generator()) == Sign.RESIDUE

    def test_sequence_cache(self):
        ctx = EscapingContext()
        f0 = ctx.f0
        assert ctx.s(0) == F(1, 2)
        assert ctx.s(2) == f0(f0(F(1, 2)))
        assert f0(ctx.s(-1)) == ctx.s(0)
        assert ctx.s(5) > ctx.s(4) > ctx.s(0) > ctx.s(-3)

    def test_context_is_the_orbit_of_its_seed(self):
        # one orbit: the context is a discrete invariant set, with no second
        # orbit of its own
        ctx = EscapingContext(s0=F(1, 3))
        assert isinstance(ctx, DiscreteInvariantSet)
        assert (ctx.anchor, ctx.seed, ctx.s0) == (ctx.f0, F(1, 3), F(1, 3))
        assert not hasattr(ctx, "orbit")
        with pytest.raises(ValueError, match="tau1 = 1"):
            EscapingContext(f_big_generator().inverse())

    def test_compare_is_translation_of_sign(self, f_pair):
        a, b = f_pair
        eng = EscapingEngine(EscapingContext())
        # the sequence order is invariant, so keys compare like b^-1 a
        assert eng.key(a) > eng.key(b)
        assert eng.key(b) < eng.key(a)
        assert eng.key(a) == eng.key(a)
        assert eng.sign(b.inverse() * a) == Sign.POSITIVE


class TestAxioms:
    """Cone axioms for every engine on its radius-5 sample ball."""

    def test_all_engines_pass(self, axiom_reports):
        for name, report in axiom_reports.items():
            assert report["pass"], (name, report["failures"][:3])
            assert report["samples"] > 50

    def test_detects_broken_engine(self, balls5):
        class Broken:
            def sign(self, g):
                # not inverse-symmetric: constant positive off the identity
                return Sign.RESIDUE if g.is_identity() else Sign.POSITIVE

        from plorder.preorders import axioms_report
        r = axioms_report(Broken(), balls5["bs2"][:40])
        assert not r["pass"]
