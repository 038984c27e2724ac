"""Orbit keys against the compose-then-sign path they replace.

The reference signs below are the slow paths: each compares u with v by
forming v^-1 u and scanning it.  For every engine, the key order must be
that sign: key(u) < key(v) iff sign(v^-1 u) is Negative, equal iff Residue.
The action on orbit points has its own oracle: act(g)(key(x)) must be
key(g * x), the key of the product that act avoids forming.
"""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, strategies as st

from plorder.exactnum import LatticePreorder
from plorder.plante import PlanteEngine, WreathElement, plante_sign
from plorder.plgroup import PLMap, ball, bs_g, bs_g_plus, tau1, translation
from plorder.preorders import (
    EscapingEngine,
    JumpEngine,
    NotInFPlus,
    PrimeJumpEngine,
    RestrictionEngine,
    Sign,
    SlopeNotInGroup,
)
from plorder.symsets import SymbolicEngine, line_generators, ok_compare


# ---------------------------------------------------------------------------
# Reference signs (compose, then scan the product)
# ---------------------------------------------------------------------------

def ref_jump_sign(g, side, group, order):
    """Sign at the outermost breakpoint whose cumulative jump is not residue."""
    items = list(enumerate(g.breakpoints))
    if side == "right":
        items.reverse()
    acc = Fraction(1)
    for i, _ in items:
        left, right = g.slopes[i], g.slopes[i + 1]
        acc *= Fraction(left) / right if side == "right" else Fraction(right) / left
        s = order.sign_of(group.decompose(acc))
        if s != 0:
            return Sign(s)
    return Sign.RESIDUE


def ref_prime_sign(g, q):
    """Sign of the q-adic valuation of the topmost slope where it is nonzero."""
    for slope in reversed(g.slopes):
        v, n, d = 0, slope.numerator, slope.denominator
        while n % q == 0:
            n //= q
            v += 1
        while d % q == 0:
            d //= q
            v -= 1
        if v:
            return Sign.POSITIVE if v > 0 else Sign.NEGATIVE
    return Sign.RESIDUE


def ref_xg(g, K):
    """Top moved K-point, scanning K down through the support of g."""
    if tau1(g) != 0:
        raise NotInFPlus(f"tau1 = {tau1(g)}")
    if g.is_identity():
        return None
    supp = g.support()
    lo, hi = supp[0][0], supp[-1][1]
    for x in K.points_desc(hi):
        if x <= lo:
            break
        if g(x) != x:
            return x
    return None


def ref_restriction_sign(g, K):
    x = ref_xg(g, K)
    if x is None:
        return Sign.RESIDUE
    return Sign.POSITIVE if g(x) > x else Sign.NEGATIVE


def ref_escaping_sign(g, ctx):
    """Kill the right germ with f0^-tau1(g), then read the top moved orbit point."""
    v = ctx.f0 ** (-tau1(g)) * g
    return ref_restriction_sign(v, ctx.orbit)


def reference(engine):
    """The slow sign function of an engine."""
    if isinstance(engine, JumpEngine):
        return lambda g: ref_jump_sign(g, engine.side, engine.group, engine.order)
    if isinstance(engine, PrimeJumpEngine):
        return lambda g: ref_prime_sign(g, engine.q)
    if isinstance(engine, RestrictionEngine):
        return lambda g: ref_restriction_sign(g, engine.K)
    if isinstance(engine, EscapingEngine):
        return lambda g: ref_escaping_sign(g, engine.ctx)
    if isinstance(engine, SymbolicEngine):
        return lambda g: Sign(ok_compare(engine.base.image(g), engine.base))
    return lambda g: plante_sign(g, engine.order)


def _cmp(a, b):
    return (a > b) - (a < b)


# ---------------------------------------------------------------------------
# Cases: the nine axiom engines plus the symbolic engine
# ---------------------------------------------------------------------------

PAIRS = 1000
ELEMENTS = 400


@pytest.fixture(scope="module")
def cases(axiom_engines, balls5):
    out = {name: (eng, balls5[pool]) for name, (eng, pool) in axiom_engines.items()}
    out["ok"] = (SymbolicEngine(), list(ball(line_generators(), 4)))
    return out


CASE_NAMES = ["restriction", "jump:right,lex", "jump:right,opp", "jump:left,lex",
              "jump:left,opp", "prime:2", "prime:3", "plante", "escaping", "ok"]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_key_order_is_reference_sign(cases, name):
    engine, pool = cases[name]
    ref = reference(engine)
    rng = random.Random(f"keys/{name}")
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(PAIRS)]
    pairs += [(u, u) for u in rng.sample(pool, 20)]
    for u, v in pairs:
        assert _cmp(engine.key(u), engine.key(v)) == ref(v.inverse() * u).value, (u, v)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_sign_is_reference_sign(cases, name):
    engine, pool = cases[name]
    ref = reference(engine)
    rng = random.Random(f"signs/{name}")
    for g in rng.sample(pool, min(ELEMENTS, len(pool))):
        assert engine.sign(g) == ref(g), g


def test_restriction_keys_beyond_fplus(axiom_engines, balls5):
    # maps with equal nonzero right germs compare like their quotient in F_+
    engine = axiom_engines["restriction"][0]
    rng = random.Random(5)
    by_germ = {}
    for g in balls5["f"]:
        by_germ.setdefault(tau1(g), []).append(g)
    checked = 0
    for t, group in sorted(by_germ.items()):
        if t == 0 or len(group) < 2:
            continue
        for _ in range(20):
            u, v = rng.choice(group), rng.choice(group)
            assert _cmp(engine.key(u), engine.key(v)) == \
                ref_restriction_sign(v.inverse() * u, engine.K).value
            checked += 1
    assert checked


def test_restriction_keys_reject_different_germs(axiom_engines, f_pair):
    engine = axiom_engines["restriction"][0]
    a, b = f_pair
    assert tau1(a) != tau1(b)
    with pytest.raises(NotInFPlus):
        engine.key(a) < engine.key(b)
    with pytest.raises(NotInFPlus):
        engine.sign(b)


def test_jump_keys_reject_slopes_outside_the_group():
    # the old scan stopped at the first non-residue jump and never saw the 3
    g = bs_g_plus(0, 3) * bs_g_plus(1, 2)
    for side in ("right", "left"):
        with pytest.raises(SlopeNotInGroup):
            JumpEngine(side=side).key(g)


def test_jump_memo_keeps_ratios_not_slopes():
    # slopes 3 and 6 lie outside <2>, but their ratio 1/2 does not
    g = bs_g(0, 3) * bs_g_plus(0, 2)
    engine = JumpEngine(side="right")
    engine.key(bs_g_plus(0, 2))  # warm the memo
    assert engine.sign(g) is Sign.NEGATIVE
    assert engine.sign(g) is Sign.NEGATIVE
    assert set(engine._values) == {1, Fraction(1, 2)}


def _in_two(ratio):
    return all(n & (n - 1) == 0 for n in (ratio.numerator, ratio.denominator))


def test_jump_memo_refuses_slopes_outside_the_group_every_time():
    # slopes 1, 3, 6: the ratio 1/6 (right) or 3 (left) is outside <2>
    bad = bs_g_plus(0, 3) * bs_g_plus(1, 2)
    for side in ("right", "left"):
        engine = JumpEngine(side=side)
        engine.key(bs_g_plus(0, 2) * bs_g_plus(1, 2) ** -1)  # a warm memo
        for _ in range(2):  # a failed lookup leaves nothing behind
            with pytest.raises(SlopeNotInGroup):
                engine.key(bad)
            with pytest.raises(SlopeNotInGroup):
                engine.act(bad)
            with pytest.raises(SlopeNotInGroup):
                engine._value(Fraction(3))
        assert all(_in_two(ratio) for ratio in engine._values)
        good = bs_g_plus(0, 2) * bs_g(1, 4)
        assert engine.key(good) == JumpEngine(side=side).key(good)


# ---------------------------------------------------------------------------
# The action on orbit points: act(g)(key(x)) == key(g * x)
# ---------------------------------------------------------------------------

ACT_PAIRS = 1000
ACT_TRIPLES = 200


@pytest.fixture(scope="module")
def act_cases(cases, balls5):
    out = dict(cases)
    out["plante:opp"] = (PlanteEngine(order=LatticePreorder([(-1,)])), balls5["plante"])
    return out


def _identity(pool):
    some = pool[0]
    return some * some.inverse()


@pytest.mark.parametrize("name", CASE_NAMES + ["plante:opp"])
def test_act_is_key_of_product(act_cases, name):
    engine, pool = act_cases[name]
    rng = random.Random(f"act/{name}")
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(ACT_PAIRS)]
    e = _identity(pool)
    pairs += [(e, x) for x in rng.sample(pool, 20)]
    pairs += [(g, g.inverse()) for g in rng.sample(pool, 20)]
    for g, x in pairs:
        assert engine.act(g)(engine.key(x)) == engine.key(g * x), (g, x)


@pytest.mark.parametrize("name", CASE_NAMES + ["plante:opp"])
def test_act_is_an_action(act_cases, name):
    engine, pool = act_cases[name]
    rng = random.Random(f"act-law/{name}")
    for _ in range(ACT_TRIPLES):
        g, h, x = (rng.choice(pool) for _ in range(3))
        k = engine.key(x)
        assert engine.act(g)(engine.act(h)(k)) == engine.act(g * h)(k), (g, h, x)


_BS2_ATOMS = [translation(1), bs_g_plus(0, 2), translation(-1), bs_g_plus(0, 2) ** -1,
              bs_g_plus(1, 2), translation(Fraction(1, 2))]
bs2_words = st.lists(st.sampled_from(_BS2_ATOMS), max_size=7).map(
    lambda atoms: reduce(mul, atoms, PLMap.identity("line")))


_JUMP_ENGINES = [JumpEngine(side="right"), JumpEngine(side="left"),
                 JumpEngine(side="right", order=LatticePreorder([(-1,)])),
                 JumpEngine(side="left", order=LatticePreorder([(-1,)])),
                 PrimeJumpEngine(2)]


@given(bs2_words, bs2_words)
def test_act_on_random_bs2_words(g, x):
    for engine in _JUMP_ENGINES:
        assert engine.act(g)(engine.key(x)) == engine.key(g * x)
