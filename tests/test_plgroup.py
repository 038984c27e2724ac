import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from plorder.plgroup import (
    PRODUCT_BUDGET,
    BudgetExceeded,
    FixedStructure,
    HypothesisFailed,
    NoWitness,
    PLMap,
    ball,
    bs_g,
    bs_g_minus,
    bs_g_plus,
    commutator,
    f_big_generator,
    jump_cocycle,
    relator_defects,
    standard_generators,
    tau1,
    thompson_f_pair,
    translation,
    two_chain_witness,
    verify_relators,
)
from plorder.cli import _FAMILIES
from plorder.plante import WreathElement
from test_compose import maps, odd_pair


class TestPLMap:
    def test_identity(self):
        e = PLMap.identity("unit")
        assert e.is_identity()
        assert e(F(1, 3)) == F(1, 3)

    def test_eval_and_inverse(self):
        f = f_big_generator()
        assert f(F(0)) == 0 and f(F(1)) == 1
        assert f(F(1, 8)) == F(1, 4)
        g = f.inverse()
        for x in (F(0), F(1, 7), F(1, 3), F(5, 8), F(1)):
            assert g(f(x)) == x

    def test_composition_associative(self):
        a, b = thompson_f_pair()
        f0 = f_big_generator()
        assert (a * b) * f0 == a * (b * f0)

    def test_composition_is_function_composition(self):
        a, b = thompson_f_pair()
        for x in (F(1, 5), F(1, 2), F(7, 9)):
            assert (a * b)(x) == a(b(x))

    def test_from_points_roundtrip(self):
        f = PLMap.from_points("unit", [(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
        assert f(F(1, 2)) == F(1, 4)
        assert f(F(3, 4)) == F(5, 8)

    @pytest.mark.parametrize("args, reason", [
        (("circle", [], [1], [0]), "unknown model 'circle'"),
        (("line", [1], [1], [0]), "need one piece per interval"),
        (("line", [], [0], [0]), "slopes must be positive"),
        (("line", [2, 1], [1, 2, 1], [0, -2, -1]), "must be strictly increasing"),
        (("line", [1], [1, 2], [0, 0]), "discontinuous at 1"),
        (("unit", [F(3, 2)], [1, 2], [0, F(-3, 2)]), "breakpoints must lie in (0,1)"),
        (("unit", [], [1], [F(1, 2)]), "must fix 0"),
        (("unit", [], [2], [0]), "must fix 1"),
    ], ids=["model", "pieces", "slope", "order", "continuity", "unit-breakpoint",
            "unit-0", "unit-1"])
    def test_refusals(self, args, reason):
        with pytest.raises(ValueError) as e:
            PLMap(*args)
        assert reason in str(e.value)

    def test_from_points_needs_two_points(self):
        with pytest.raises(ValueError, match="need at least two points"):
            PLMap.from_points("line", [(0, 0)])

    def test_serialization_roundtrip(self):
        for g in (f_big_generator(), translation(F(3, 2)), bs_g_plus(0, 2)):
            assert PLMap.from_text(g.to_text()) == g

    def test_pow(self):
        t = translation(1)
        assert (t ** 3)(F(0)) == 3
        assert (t ** -2)(F(0)) == -2
        assert (t ** 0).is_identity()

    def test_germ_and_tau(self):
        f0 = f_big_generator()
        assert tau1(f0) == 1          # slope 1/2 at 1 (tau1 = -log2 slope)
        a, b = thompson_f_pair()
        assert tau1(a) == 0 and tau1(b) == 1

    def test_fixed_structure(self):
        g = bs_g_plus(0, 2)
        fs = g.fixed_structure()
        assert fs.support == [(F(0), None)]
        assert fs.fixed == [(None, F(0))]

    def test_support_of_bump(self):
        f = PLMap.from_points(
            "unit", [(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(9, 16)),
                     (F(5, 8), F(5, 8)), (1, 1)])
        assert f.support() == [(F(1, 4), F(5, 8))]


# ---------------------------------------------------------------------------
# The Fraction oracle: fixed_structure as it was before it read _fixed(),
# a walk over the pieces' Fraction views
# ---------------------------------------------------------------------------

def fraction_piece_domains(g: PLMap):
    """Yield (lo, hi, slope, offset); lo/hi None for +-inf."""
    lo = F(0) if g.model == "unit" else None
    bounds = list(g.breakpoints) + [F(1) if g.model == "unit" else None]
    for (s, o), hi in zip(zip(g.slopes, g.offsets), bounds):
        yield lo, hi, s, o
        lo = hi


def fraction_fixed_structure(g: PLMap) -> FixedStructure:
    fixed = []
    for lo, hi, s, o in fraction_piece_domains(g):
        if s == 1:
            if o == 0:
                fixed.append((lo, hi))
            continue
        x = o / (1 - s)
        if (lo is None or lo <= x) and (hi is None or x <= hi):
            fixed.append((x, x))
    # merge adjacent fixed parts sharing an endpoint
    merged = []
    for part in fixed:
        if merged and merged[-1][1] == part[0]:
            merged[-1] = (merged[-1][0], part[1])
        else:
            merged.append(part)
    # support components = complement of the fixed set within the domain
    support = []
    left = F(0) if g.model == "unit" else None
    for lo, hi in merged:
        if lo is None:
            left = hi
            continue
        if left is None or left < lo:
            support.append((left, lo))
        left = hi
    right_end = F(1) if g.model == "unit" else None
    if left is not None and (right_end is None or left < right_end):
        support.append((left, right_end))
    elif not merged:
        support.append((left, right_end))
    return FixedStructure(merged, support)


def _off_dyadic() -> dict:
    """Slopes 3 and 1/2 and a breakpoint at 1/3: fixed points off the dyadics."""
    return {"t": translation(1), "g": bs_g(0, 3), "g+": bs_g_plus(F(1, 3), 3),
            "g-": bs_g_minus(2, F(1, 2))}


def _assert_fixed_matches(g: PLMap):
    want = fraction_fixed_structure(g)
    assert g.fixed_structure() == want, g
    assert g.support() == want.support, g
    for lo, hi in g._fixed():  # the storage form: lowest terms, d > 0
        for x in (lo, hi):
            assert x is None or (x[1] > 0 and F(*x).as_integer_ratio() == x), g


class TestFixedStructure:
    """fixed_structure reads the integer pieces through _fixed(); the
    Fraction walk above is its oracle."""

    @pytest.mark.parametrize("family, radius, size", [
        ("bs2", 5, 475), ("thompsonF", 5, 485), ("fplus", 5, 475), ("line", 4, 161),
        ("offDyadic", 3, 451)])
    def test_matches_fraction_oracle_on_balls(self, family, radius, size):
        gens = _off_dyadic() if family == "offDyadic" else _FAMILIES[family]()
        elements = list(ball(gens, radius))
        assert len(elements) == size
        for g in elements:
            _assert_fixed_matches(g)
        assert sum(len(g.support()) > 1 for g in elements) > 10

    @given(st.sampled_from(["unit", "line"]).flatmap(maps))
    def test_matches_fraction_oracle_on_dyadic_maps(self, g):
        _assert_fixed_matches(g)

    @given(odd_pair())
    def test_matches_fraction_oracle_off_the_dyadics(self, fg):
        for g in fg:
            _assert_fixed_matches(g)

    def test_unit_ends_and_the_whole_line(self):
        assert PLMap.identity("unit")._fixed() == [((0, 1), (1, 1))]
        assert f_big_generator()._fixed() == [((0, 1),) * 2, ((1, 1),) * 2]
        assert PLMap.identity("line")._fixed() == [(None, None)]
        assert translation(1)._fixed() == []
        assert translation(1).support() == [(None, None)]
        assert bs_g(2, F(1, 2))._fixed() == [((2, 1),) * 2]
        assert bs_g_minus(2, F(1, 2))._fixed() == [((2, 1), None)]


# one element of each kind ** shares: a unit map, a line map, a wreath element
POWER_BASES = {
    "unit": thompson_f_pair()[0] * f_big_generator().inverse(),
    "line": bs_g_plus(0, 2) * translation(F(1, 3)),
    "wreath": WreathElement({-1: 2, 1: -1}, shift=1),
}


class TestPower:
    """PLMap and WreathElement ** share one square-and-multiply routine."""

    @pytest.mark.parametrize("kind", sorted(POWER_BASES))
    def test_matches_repeated_product(self, kind):
        x = POWER_BASES[kind]
        one = x * x.inverse()
        for n in range(-5, 10):
            want = one
            for _ in range(abs(n)):
                want = want * (x if n > 0 else x.inverse())
            assert x ** n == want, n

    @pytest.mark.parametrize("kind", sorted(POWER_BASES))
    def test_product_counts(self, kind, monkeypatch):
        # no product with the identity and no square after the top bit
        x = POWER_BASES[kind]
        cls = type(x)
        mul, calls = cls.__mul__, []

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(cls, "__mul__", counting)
        for n, products in ((1, 0), (-1, 0), (2, 1), (7, 4), (8, 3)):
            calls.clear()
            x ** n
            assert len(calls) == products, n


class TestWorkBudget:
    """power refuses a product past PRODUCT_BUDGET before forming it."""

    def test_square_over_the_breakpoint_budget(self):
        # a^n has n + 3 breakpoints: the square of a^2048 would pass 4096
        a, _ = thompson_f_pair()
        with pytest.raises(BudgetExceeded, match="4102 breakpoints"):
            a ** 100000

    def test_product_over_the_breakpoint_budget(self):
        # 4095 = 2^12 - 1: every square fits, the last product a^2047 * a^2048
        # does not
        a, _ = thompson_f_pair()
        with pytest.raises(BudgetExceeded, match="4101 breakpoints"):
            a ** 4095
        assert len((a ** 2000)._b) == 2003

    def test_square_over_the_denominator_budget(self):
        x = translation(F(1, 2 ** 3000))
        with pytest.raises(BudgetExceeded, match="6002-bit"):
            x ** 2
        assert PRODUCT_BUDGET < 6002

    def test_wreath_powers_have_no_budget(self):
        t = WreathElement.shift_by(1)
        assert t ** 100000 == WreathElement.shift_by(100000)


class TestRelators:
    def test_f_presentation(self):
        a, b = thompson_f_pair()
        assert verify_relators(a, b)
        d1, d2 = relator_defects(a, b)
        assert d1.is_identity() and d2.is_identity()

    def test_broken_pair_fails(self):
        a, _ = thompson_f_pair()
        assert not verify_relators(a, a)


class TestJumpCocycle:
    def test_chain_rule_sampled(self, bs_gens, jump_ball6):
        # j(fg, x) = j(f, g x) j(g, x) on 1000 random pairs from the ball
        els = list(jump_ball6)
        rng = random.Random(0)
        pts = [F(0), F(1, 2), F(-3, 4), F(5, 8), F(2)]
        for _ in range(1000):
            f, g = rng.choice(els), rng.choice(els)
            x = rng.choice(pts)
            assert jump_cocycle(f * g, x) == \
                jump_cocycle(f, g(x)) * jump_cocycle(g, x)

    def test_identity_has_no_jumps(self):
        e = PLMap.identity("line")
        assert jump_cocycle(e, F(0)) == 1


class TestStandardGenerators:
    def test_families(self):
        fam = standard_generators("thompsonF")
        assert set(fam) == {"a", "b", "f0"}
        bs = standard_generators("bieriStrebel")
        assert "t(1)" in bs and "g+(0,2)" in bs
        with pytest.raises(ValueError):
            standard_generators("nope")

    def test_bs_maps(self):
        assert bs_g(0, 2)(F(3)) == 6
        assert bs_g_plus(0, 2)(F(-1)) == -1
        assert bs_g_plus(0, 2)(F(1)) == 2
        assert bs_g_minus(0, 2)(F(-1)) == -2
        assert bs_g_minus(0, 2)(F(1)) == 1


class TestBall:
    def test_radius_one(self):
        t = translation(1)
        els = ball({"t": t}, 1)
        assert set(els.values()) == {"", "t", "t^-1"}

    def test_growth_and_words(self, bs_gens):
        b2 = ball(bs_gens, 2)
        b3 = ball(bs_gens, 3)
        assert set(b2) <= set(b3)
        for el, word in b2.items():
            if word:
                # replay the word
                acc = None
                for name in word.split("*"):
                    base = bs_gens[name.removesuffix("^-1")]
                    gen = base.inverse() if name.endswith("^-1") else base
                    acc = gen if acc is None else acc * gen
                assert acc == el


def bfs_ball(generators: dict, radius: int, identity=None) -> dict:
    """The ball as it was before backtracking products were skipped: every
    element of the last sphere times every generator and inverse."""
    gens = {}
    for name, el in generators.items():
        gens[name] = el
        inv = el.inverse()
        if inv != el:
            gens[f"{name}^-1"] = inv
    if identity is None:
        some = next(iter(generators.values()))
        identity = some * some.inverse()
    seen = {identity: ""}
    frontier = [identity]
    for _ in range(radius):
        new = []
        for el in frontier:
            for name, gen in gens.items():
                cand = el * gen
                if cand not in seen:
                    seen[cand] = name if seen[el] == "" else seen[el] + "*" + name
                    new.append(cand)
        frontier = new
    return seen


class Perm:
    """A permutation of range(n) as the tuple of images; p * q is p after q."""

    def __init__(self, images):
        self.images = tuple(images)

    def __mul__(self, other):
        return Perm(self.images[i] for i in other.images)

    def inverse(self):
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm(out)

    def __eq__(self, other):
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)


def _same_ball(generators, radius, identity=None):
    fast = ball(generators, radius, identity=identity)
    slow = bfs_ball(generators, radius, identity=identity)
    assert list(fast.items()) == list(slow.items())
    return fast


class TestBallSkipsBacktracking:
    """ball against the unpruned breadth-first search: the same elements
    with the same words, in the same order."""

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_cli_families(self, family):
        identity = WreathElement.identity() if family == "plante" else None
        for radius in range(1, 6):
            _same_ball(_FAMILIES[family](), radius, identity)

    def test_plante_radius_six(self):
        gens = _FAMILIES["plante"]()
        assert len(_same_ball(gens, 6, WreathElement.identity())) == 1125

    def test_involution(self):
        # the transposition s is its own undoer; S4 is reached at radius 5
        s, r = Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])
        for radius in range(1, 7):
            _same_ball({"s": s, "r": r}, radius)
        assert len(ball({"s": s, "r": r}, 6)) == 24

    def test_generator_and_inverse_under_two_names(self):
        t = translation(1)
        gens = {"t": t, "u": t.inverse(), "g+": bs_g_plus(0, 2)}
        for radius in range(1, 6):
            _same_ball(gens, radius)

    def test_generator_named_like_an_inverse(self):
        # "t^-1" names g+ here and takes over the inverse name of t
        gens = {"t": translation(1), "t^-1": bs_g_plus(0, 2)}
        for radius in range(1, 6):
            _same_ball(gens, radius)

    def test_products_made(self, bs_gens, monkeypatch):
        # one product for the identity, then none that undoes the last step:
        # at radius 4 the unpruned search makes 213, at radius 5 it makes 645
        calls = []
        mul = PLMap.__mul__
        monkeypatch.setattr(PLMap, "__mul__", lambda f, g: calls.append(1) or mul(f, g))
        assert len(ball(bs_gens, 4)) == 161 and len(calls) == 161
        calls.clear()
        assert len(ball(bs_gens, 5)) == 475 and len(calls) == 485

    def test_identity_generator(self):
        gens = {"e": PLMap.identity("line"), "t": translation(1)}
        for radius in range(1, 5):
            _same_ball(gens, radius)


F_BUMP = PLMap.from_points(
    "unit", [(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(9, 16)),
             (F(5, 8), F(5, 8)), (1, 1)])
G_BUMP = PLMap.from_points(
    "unit", [(0, 0), (F(1, 2), F(1, 2)), (F(5, 8), F(11, 16)),
             (F(7, 8), F(7, 8)), (1, 1)])


class TestTwoChain:
    def test_minimal_witness(self):
        # frozen oracle: g(f(1/2)) = 19/32 <= 5/8 but g^2(f(1/2)) = 41/64 > 5/8
        assert two_chain_witness(F_BUMP, G_BUMP) == 2
        assert verify_relators(F_BUMP, G_BUMP ** 2)

    def test_witness_minimality_replay(self):
        c, d = F(1, 2), F(5, 8)
        y = F_BUMP(c)
        assert G_BUMP(y) <= d
        assert G_BUMP(G_BUMP(y)) > d

    def test_hypothesis_i_identity(self):
        e = PLMap.identity("unit")
        with pytest.raises(HypothesisFailed) as ei:
            two_chain_witness(F_BUMP, e)
        assert ei.value.which == "i"

    def test_hypothesis_i_disjoint_order(self):
        far = PLMap.from_points(
            "unit", [(0, 0), (F(3, 4), F(3, 4)), (F(13, 16), F(27, 32)),
                     (F(7, 8), F(7, 8)), (1, 1)])
        with pytest.raises(HypothesisFailed) as ei:
            two_chain_witness(F_BUMP, far)
        assert ei.value.which == "i"

    def test_hypothesis_ii_fixed_endpoint(self):
        # g's support ends exactly at d = sup supp(f), so g fixes d
        g = PLMap.from_points(
            "unit", [(0, 0), (F(1, 2), F(1, 2)), (F(9, 16), F(19, 32)),
                     (F(5, 8), F(5, 8)), (1, 1)])
        with pytest.raises(HypothesisFailed) as ei:
            two_chain_witness(F_BUMP, g)
        assert ei.value.which == "ii"

    def test_hypothesis_ii_swapped_pair(self):
        # swapping the chain makes f fix c = inf supp(g)
        with pytest.raises(HypothesisFailed) as ei:
            two_chain_witness(G_BUMP, F_BUMP)
        assert ei.value.which == "ii" 


class TestCommutator:
    def test_commutator_identity_when_commuting(self):
        t = translation(1)
        assert commutator(t, t ** 5).is_identity()
