"""Orbit keys against the compose-then-sign path they replace.

The reference signs below are the slow paths: each compares u with v by
forming v^-1 u and scanning it.  For every engine, the key order must be
that sign: key(u) < key(v) iff sign(v^-1 u) is Negative, equal iff Residue.
The action on orbit points has its own oracle: act(g)(key(x)) must be
key(g * x), the key of the product that act avoids forming.
"""

import hashlib
import json
import random
from fractions import Fraction
from collections import Counter
from functools import partial, reduce
from operator import mul

import pytest
from hypothesis import example, given, strategies as st

from plorder.cli import _DEFAULT_FAMILY, _FAMILIES, parse_engine
from plorder.exactnum import LatticePreorder, SlopeGroup, valuation
from plorder.plante import PlanteEngine, WreathElement
from plorder.plgroup import (
    PLMap,
    ball,
    bs_g,
    bs_g_plus,
    f_big_generator,
    tau1,
    thompson_f_pair,
    translation,
)
from plorder.preorders import (
    DiscreteInvariantSet,
    EscapingContext,
    EscapingEngine,
    JumpEngine,
    NotInFPlus,
    PrimeJumpEngine,
    RestrictionEngine,
    Sign,
    SlopeNotInGroup,
    _position,
    xg,
)
from plorder.realize import build_frame, classify_empirical, induced_map, orbit_frame
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
    return ref_restriction_sign(v, ctx)


def ref_plante_sign(w, order):
    """Sign of the lamp value at the top of the support; Residue for pure
    shifts (zero configuration)."""
    if not w.lamp:
        return Sign.RESIDUE
    s = order.sign_of(w.lamp[max(w.lamp)])
    if s == 0:
        raise ValueError("order must be total on nonzero top values")
    return Sign(s)


def reference(engine):
    """The slow sign function of an engine."""
    if isinstance(engine, JumpEngine):
        return lambda g: ref_jump_sign(g, engine.side, engine.group, engine.order)
    if isinstance(engine, PrimeJumpEngine):
        return lambda g: ref_prime_sign(g, engine.q)
    if isinstance(engine, RestrictionEngine):
        return lambda g: ref_restriction_sign(g, engine.ctx)
    if isinstance(engine, EscapingEngine):
        return lambda g: ref_escaping_sign(g, engine.ctx)
    if isinstance(engine, SymbolicEngine):
        return lambda g: Sign(ok_compare(engine.base.image(g), engine.base))
    return lambda g: ref_plante_sign(g, engine.order)


def _cmp(a, b):
    return (a > b) - (a < b)


# ---------------------------------------------------------------------------
# Cases: the nine axiom engines, the symbolic engine, and jump engines on
# <2, 3>, whose values have rank 2 under lex(2) and rank 1 under the
# non-total order [(1, 0)]
# ---------------------------------------------------------------------------

PAIRS = 1000
ELEMENTS = 400


@pytest.fixture(scope="module")
def cases(axiom_engines, balls5):
    out = {name: (eng, balls5[pool]) for name, (eng, pool) in axiom_engines.items()}
    out["ok"] = (SymbolicEngine(), list(ball(line_generators(), 4)))
    bs23 = list(ball({"t(1)": translation(1), "g+(0,2)": bs_g_plus(0, 2),
                      "g+(0,3)": bs_g_plus(0, 3)}, 4))
    for name, order in (("lex", LatticePreorder.lex(2)),
                        ("ker", LatticePreorder([(1, 0)]))):
        out[f"jump23:{name}"] = (JumpEngine(group=SlopeGroup([2, 3]), order=order), bs23)
    return out


CASE_NAMES = ["restriction", "jump:right,lex", "jump:right,opp", "jump:left,lex",
              "jump:left,opp", "prime:2", "prime:3", "plante", "escaping", "ok",
              "jump23:lex", "jump23:ker"]


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
    # restriction keys exist on F_+ only: key, act and sign refuse every
    # map with a nontrivial right germ, and line maps
    engine = axiom_engines["restriction"][0]
    rng = random.Random(5)
    inside = balls5["fplus"]
    outside = [g for g in balls5["f"] if tau1(g) != 0]
    for g in rng.sample(outside, 40) + [translation(1)]:
        k = engine.key(rng.choice(inside))
        for refused in (lambda: engine.key(g), lambda: engine.act(g)(k),
                        lambda: engine.sign(g)):
            with pytest.raises(NotInFPlus):
                refused()


def test_restriction_is_escaping_on_one_germ():
    # the identity the restriction engine rests on: on two maps with the same
    # right germ the escaping order shifts both sequences alike, so it is
    # the restriction order of their quotient; checked on every equal-germ
    # pair of the F r4 ball, and on F_+ the two engines' keys coincide
    a, b = thompson_f_pair()
    restriction = RestrictionEngine(DiscreteInvariantSet(f_big_generator()))
    escaping = EscapingEngine(EscapingContext())
    by_germ = {}
    for g in ball({"a": a, "b": b}, 4):
        by_germ.setdefault(tau1(g), []).append((g, escaping.key(g)))
    pairs = 0
    for members in by_germ.values():
        for u, ku in members:
            for v, kv in members:
                assert _cmp(ku, kv) == \
                    ref_restriction_sign(v.inverse() * u, restriction.ctx).value
                pairs += 1
    for g, k in by_germ[0]:
        assert restriction.key(g) == k, g
    assert len(by_germ) == 9 and pairs == 4185


# sha256 of [frame rank of each element, sign of each element] over the F_+
# elements of the F r4 ball (in ball order) for the restriction engine on
# the orbit of 1/3, recorded before the engine became the escaping scan
FROZEN_ANCHORS = {
    "f0^-1": "b2105b02cd1e562ee1d874ce9b0bcd81c78b73e05fd46eafcd4177e2eb62c1be",
    "f0^2": "6a61d861b1a9f183a1288b88a335924d593b0608295bd7632ce6586352741d68",
    "a*f0": "d69fabc3072e435f94c4ea2656b78bc54b7da2612ceb60b08f4df5c9fb1c8d31",
}


@pytest.mark.parametrize("name", sorted(FROZEN_ANCHORS))
def test_restriction_anchors(name):
    # an anchor and its inverse have one orbit; f0^2 walks every other point
    # of it, and a*f0 has an orbit of its own
    a, b = thompson_f_pair()
    f0 = f_big_generator()
    anchor = {"f0^-1": f0.inverse(), "f0^2": f0 ** 2, "a*f0": a * f0}[name]
    K = DiscreteInvariantSet(anchor, Fraction(1, 3))
    engine = RestrictionEngine(K)
    pool = [g for g in ball({"a": a, "b": b}, 4) if tau1(g) == 0]
    keys = [engine.key(g) for g in pool]
    for u, ku in zip(pool, keys):
        for v, kv in zip(pool, keys):
            assert _cmp(ku, kv) == ref_restriction_sign(v.inverse() * u, K).value
    order = sorted(range(len(pool)), key=keys.__getitem__)
    rank = {order[0]: 0}
    for i, j in zip(order, order[1:]):
        rank[j] = rank[i] + (keys[i] < keys[j])
    signs = [engine.sign(g).value for g in pool]
    digest = hashlib.sha256(
        json.dumps([[rank[i] for i in range(len(pool))], signs]).encode()).hexdigest()
    assert digest == FROZEN_ANCHORS[name]


@pytest.mark.parametrize("seed", [Fraction(1, 2), Fraction(1, 3)])
def test_escaping_scan_starts_above_every_anchor_breakpoint(seed):
    # u (tau1 1) and v (tau1 2) break only at or below 1/4, the anchor's
    # first breakpoint, but their entries differ where the orbit passes
    # between its breakpoints 1/4 and 1/2; a scan bounded by the first
    # anchor breakpoint alone starts below them and misorders the keys
    u = PLMap("unit", [Fraction(1, 8), Fraction(1, 4)],
              [Fraction(4), Fraction(1), Fraction(1, 2)],
              [Fraction(0), Fraction(3, 8), Fraction(1, 2)])
    v = PLMap("unit", [Fraction(3, 16), Fraction(1, 4)],
              [Fraction(4), Fraction(1), Fraction(1, 4)],
              [Fraction(0), Fraction(9, 16), Fraction(3, 4)])
    ctx = EscapingContext(f_big_generator(), seed)
    assert ctx.anchor.breakpoints == (Fraction(1, 4), Fraction(1, 2))
    assert (tau1(u), tau1(v)) == (1, 2)
    engine = EscapingEngine(ctx)
    for x, y in ((u, v), (v, u), (u, u * v), (v * u, v)):
        assert _cmp(engine.key(x), engine.key(y)) \
            == ref_escaping_sign(y.inverse() * x, ctx).value


@pytest.mark.parametrize("seed", [Fraction(1, 2), Fraction(1, 3)])
def test_xg_is_reference_scan(balls5, seed):
    # xg scans g against the identity on its own; the oracle scans the support
    K = DiscreteInvariantSet(f_big_generator(), seed)
    for g in balls5["fplus"]:
        assert xg(g, K) == ref_xg(g, K), g


@pytest.fixture(scope="module")
def f_ball4():
    a, b = thompson_f_pair()
    return list(ball({"a": a, "b": b}, 4))


def top_disagreement(ku, kv):
    """(sign, n) for n the top index where the sequences keyed by ku and kv
    differ, sign > 0 when ku's is the larger there; (0, None) when they
    agree.  Read off the first entry where the keys differ: the higher of
    its two raw positions, the terminal (0,) having none."""
    for a, b in zip(ku, kv):
        if a != b:
            return _cmp(a, b), max(e[3] for e in (a, b) if len(e) == 4)
    return 0, None


def test_scan_top_index_is_equivariant(f_ball4):
    # (g.u)_n = g(u_{n - tau1(g)}), and g is increasing, so g.u and g.v
    # first differ tau1(g) indices above where u and v do, in the same sense
    engine = EscapingEngine(EscapingContext())
    rng = random.Random("scan-index")
    nones = 0
    for _ in range(2000):
        u, v, g = (rng.choice(f_ball4) for _ in range(3))
        sign, n = top_disagreement(engine.key(u), engine.key(v))
        moved = top_disagreement(engine.key(g * u), engine.key(g * v))
        assert moved == (sign, None if n is None else n + tau1(g)), (u, v, g)
        nones += n is None
    assert 0 < nones < 2000


@pytest.mark.parametrize("seed, cosets", [
    (Fraction(1, 2), (273, 69)), (Fraction(1, 3), (375, 113))])
def test_key_order_is_the_scan_order(f_pair, seed, cosets):
    # the F r5 ball by escaping key and the F_+ r4 ball (generated by a and
    # c = b^-1 a b) by restriction key: sorted, each element is Residue
    # against the next one in its coset and Negative against the first one
    # of the next coset
    a, b = f_pair
    f_ball5 = ball({"a": a, "b": b}, 5)
    for engine, pool, ref in (
            (EscapingEngine(EscapingContext(s0=seed)), f_ball5, ref_escaping_sign),
            (RestrictionEngine(DiscreteInvariantSet(f_big_generator(), seed)),
             list(ball({"a": a, "c": b.inverse() * a * b}, 4)),
             ref_restriction_sign)):
        keyed = sorted(((engine.key(g), g) for g in pool), key=lambda kg: kg[0])
        count = 1
        for (ku, u), (kv, v) in zip(keyed, keyed[1:]):
            assert ref(v.inverse() * u, engine.ctx) == \
                (Sign.RESIDUE if ku == kv else Sign.NEGATIVE), (u, v)
            count += ku != kv
        assert count == cosets[isinstance(engine, RestrictionEngine)]


@pytest.mark.parametrize("name", ["escaping", "restriction"])
def test_signs_evaluate_only_g(f_ball4, name, monkeypatch):
    # the identity's entries are the orbit itself: sign(g) evaluates g and
    # nothing else, once the orbit points it reads are cached
    if name == "escaping":
        engine, pool = EscapingEngine(EscapingContext()), f_ball4
    else:
        engine = RestrictionEngine(DiscreteInvariantSet(f_big_generator()))
        pool = [g for g in f_ball4 if tau1(g) == 0]
    signs = [engine.sign(g) for g in pool]  # walks the orbit into its cache
    call, seen = PLMap.__call__, []

    def recording(f, x):
        seen.append(f)
        return call(f, x)

    monkeypatch.setattr(PLMap, "__call__", recording)
    for g, sign in zip(pool, signs):
        seen.clear()
        assert engine.sign(g) == sign
        assert all(f is g for f in seen), g
        assert seen or g.is_identity(), g


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


def _ratios(engine):
    """The memo's ratios, kept as integer pairs (n, d) in lowest terms."""
    return {Fraction(n, d) for n, d in engine._values}


def test_jump_memo_keeps_ratios_not_slopes():
    # slopes 3 and 6 lie outside <2>, but their ratio 1/2 does not; the
    # memo holds one ratio per breakpoint, D^-g(b) / D^+g(b), in lowest
    # terms, so the slope pairs (1, 2) and (3, 6) share one entry
    g = bs_g(0, 3) * bs_g_plus(0, 2)
    engine = JumpEngine(side="right")
    engine.key(bs_g_plus(0, 2))  # warm the memo
    assert engine.sign(g) is Sign.NEGATIVE
    assert engine.sign(g) is Sign.NEGATIVE
    assert set(engine._values) == {(1, 2)}


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
                engine._value((3, 1))
        assert all(_in_two(ratio) for ratio in _ratios(engine))
        good = bs_g_plus(0, 2) * bs_g(1, 4)
        assert engine.key(good) == JumpEngine(side=side).key(good)


# ---------------------------------------------------------------------------
# Integer keys against the Fraction profiles they replace
# ---------------------------------------------------------------------------

def _decode(c):
    """The continued-fraction terms a0, a1, ... of a code, and the value."""
    terms = [a * (-1) ** i for i, a in enumerate(c[1::2])]
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return terms, value


_BIG = 2 ** 64
rationals = st.builds(
    Fraction,
    st.integers(-40, 40) | st.integers(-_BIG ** 2, _BIG ** 2),
    st.sampled_from([1, 2, 3, 64, _BIG, _BIG + 1, 3 * _BIG]) | st.integers(1, _BIG ** 2))


@given(rationals, rationals)
@example(Fraction(0), Fraction(-1))
@example(Fraction(2), Fraction(5, 2))
@example(Fraction(1, _BIG + 1), Fraction(1, _BIG))
def test_code_is_the_order_of_the_rationals(x, y):
    cx, cy = (_position(*z.as_integer_ratio())[0] for z in (x, y))
    assert (cx < cy) == (x < y) and (cx == cy) == (x == y)


def test_code_sorts_every_small_rational():
    # one code may extend another (1/2 = [0; 2] and 2/5 = [0; 2, 2]); the
    # closing sign orders such pairs
    pool = sorted({Fraction(n, d) for n in range(-30, 31) for d in range(1, 13)})
    codes = [_position(*x.as_integer_ratio())[0] for x in pool]
    assert codes == sorted(codes) and len(set(codes)) == len(pool)


@given(rationals)
@example(Fraction(0))
@example(Fraction(-7))
@example(Fraction(-1, 3 * _BIG))
def test_code_decodes_to_its_rational(x):
    c, n, d = _position(x.numerator * 3, x.denominator * 3)
    assert (n, d) == x.as_integer_ratio()
    terms, value = _decode(c)
    assert value == x
    assert c[::2] == (0,) * len(terms) + (-(-1) ** (len(terms) - 1),)
    assert all(a >= 1 for a in terms[1:])
    assert len(terms) == 1 or terms[-1] >= 2


def fraction_profile(outer: tuple, jumps) -> tuple:
    """The step-profile key with Fraction positions: (outer, (s, s*t, v),
    ..., (0,)) for the nonzero jumps v at t, in decreasing t."""
    zero = (0,) * len(outer)
    out = [outer]
    for t, v in jumps:
        if v != zero:
            s = 1 if v > zero else -1
            out.append((s, s * t, v))
    out.append((0,))
    return tuple(out)


def fraction_breaks(g, side):
    """(t, inner slope, outer slope) per breakpoint b of g as Fractions,
    read from the outer end: t = g(b) on the right and -g(b) on the left."""
    slopes, bps = g.slopes, g.breakpoints
    ys = [s * b + c for s, b, c in zip(slopes, bps, g.offsets)]
    if side == "right":
        return zip(reversed(ys), slopes[-2::-1], slopes[:0:-1])
    return zip([-y for y in ys], slopes[1:], slopes)


def fraction_jump_key(engine, g):
    return fraction_profile((0,) * len(engine.order.rows),
                            [(t, engine.order.values(engine.group.decompose(a / b)))
                             for t, a, b in fraction_breaks(g, engine.side)])


def fraction_prime_key(q, g):
    return fraction_profile((valuation(g.slopes[-1], q),),
                            [(t, (valuation(a, q) - valuation(b, q),))
                             for t, a, b in fraction_breaks(g, "right")])


def assert_keys_are_the_fraction_keys(key, oracle, pool):
    # the pool sorts alike under both keys, with the same equality classes,
    # and each entry holds the oracle's sign, value and position t = n/d
    keys, refs = [key(g) for g in pool], [oracle(g) for g in pool]
    order = sorted(range(len(pool)), key=keys.__getitem__)
    assert order == sorted(range(len(pool)), key=refs.__getitem__)
    for i, j in zip(order, order[1:]):
        assert (keys[i] == keys[j]) == (refs[i] == refs[j]), (pool[i], pool[j])
    for g, k, ref in zip(pool, keys, refs):
        assert k[0] == ref[0] and len(k) == len(ref), g
        for (s, _, v, (_, n, d)), (rs, rst, rv) in zip(k[1:-1], ref[1:-1]):
            assert (s, v, (n, d)) == (rs, rv, (rs * rst).as_integer_ratio()), g


@pytest.mark.parametrize("engine", [
    *map(parse_engine, ["jump:right,lex", "jump:right,opp",
                        "jump:left,lex", "jump:left,opp"]),
    JumpEngine(group=SlopeGroup([2, 3])),
    JumpEngine(side="left", group=SlopeGroup([2, 3])),
], ids=repr)
def test_jump_keys_match_the_fraction_formula(engine, balls5):
    if engine.group.rank == 1:  # BS(2), radius 5
        pool = balls5["bs2"]
    else:  # <2, 3>, radius 4
        pool = list(ball({"t(1)": translation(1), "g+(0,2)": bs_g_plus(0, 2),
                          "g+(0,3)": bs_g_plus(0, 3)}, 4))
    assert_keys_are_the_fraction_keys(engine.key, partial(fraction_jump_key, engine), pool)


@pytest.mark.parametrize("q", [2, 3])
def test_prime_keys_match_the_fraction_formula(q):
    # the PL_Q ball of t(1) and g(0,6) holds affine maps only, so g+(0,3/2)
    # puts breakpoints with rational slopes on either side into it
    gens = {"t": translation(1), "g6": bs_g(0, 6), "g+": bs_g_plus(0, Fraction(3, 2))}
    elements = list(ball(gens, 4))
    assert any(g.breakpoints for g in elements)
    assert_keys_are_the_fraction_keys(PrimeJumpEngine(q).key,
                                      partial(fraction_prime_key, q), elements)


@pytest.mark.parametrize("desc", ["jump:right,lex", "jump:left,opp", "prime:2"])
def test_frames_compare_no_fractions(desc, monkeypatch):
    # keys, their sort, the bisect of act's images and the escape walks are
    # integer work: with the engine's memo warm, a frame build (from the
    # ball or by the key-space search), induced maps and classifications
    # build no Fraction and compare none
    engine, gens = parse_engine(desc), _FAMILIES["bs2"]()
    elements = list(ball(gens, 2))
    build_frame(engine, gens, radius=4)  # warms the jump-value memo
    calls = Counter()
    for name in ("__new__", "__eq__", "__lt__", "__gt__", "__le__", "__ge__"):
        def counting(*args, _name=name, _f=getattr(Fraction, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(Fraction, name, counting)
    assert Fraction(1, 2) == Fraction(1, 2) and sum(calls.values()) == 3  # counted
    for build in (build_frame, orbit_frame):
        calls.clear()
        frame = build(engine, gens, radius=4)
        assert not calls, (build.__name__, dict(calls))
        for g in elements:
            induced_map(frame, g)
            classify_empirical(frame, g)
        assert not calls, (build.__name__, dict(calls))
        assert len(frame) > 50


# ---------------------------------------------------------------------------
# The action on orbit points: act(g)(key(x)) == key(g * x)
# ---------------------------------------------------------------------------

ACT_PAIRS = 1000
ACT_TRIPLES = 200


@pytest.fixture(scope="module")
def act_cases(cases, balls5):
    out = dict(cases)
    out["plante:opp"] = (PlanteEngine(order=LatticePreorder([(-1,)])), balls5["plante"])
    lamps2 = {"t": WreathElement.shift_by(1, k=2),
              "h0": WreathElement.lamp_at(0, (1, 0), k=2),
              "h1": WreathElement.lamp_at(0, (0, 1), k=2)}
    out["plante:k2"] = (PlanteEngine(k=2),
                        list(ball(lamps2, 4, identity=WreathElement.identity(k=2))))
    return out


def _identity(pool):
    some = pool[0]
    return some * some.inverse()


@pytest.mark.parametrize("name", CASE_NAMES + ["plante:opp", "plante:k2"])
def test_act_is_key_of_product(act_cases, name):
    engine, pool = act_cases[name]
    rng = random.Random(f"act/{name}")
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(ACT_PAIRS)]
    e = _identity(pool)
    pairs += [(e, x) for x in rng.sample(pool, 20)]
    pairs += [(g, g.inverse()) for g in rng.sample(pool, 20)]
    for g, x in pairs:
        assert engine.act(g)(engine.key(x)) == engine.key(g * x), (g, x)


@pytest.mark.parametrize("name", CASE_NAMES + ["plante:opp", "plante:k2"])
def test_act_is_an_action(act_cases, name):
    engine, pool = act_cases[name]
    rng = random.Random(f"act-law/{name}")
    for _ in range(ACT_TRIPLES):
        g, h, x = (rng.choice(pool) for _ in range(3))
        k = engine.key(x)
        assert engine.act(g)(engine.act(h)(k)) == engine.act(g * h)(k), (g, h, x)


@pytest.mark.parametrize("name", ["escaping", "restriction"])
def test_act_forms_no_product(f_ball4, name, monkeypatch):
    # act reads x's entries off its key and evaluates g on them: with the
    # group law and inverses refusing to run, it still gives key(g x)
    if name == "escaping":
        engine, pool = EscapingEngine(EscapingContext()), f_ball4
    else:
        engine = RestrictionEngine(DiscreteInvariantSet(f_big_generator()))
        pool = [g for g in f_ball4 if tau1(g) == 0]
    rng = random.Random(f"act-no-product/{name}")
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(200)]
    expected = [engine.key(g * x) for g, x in pairs]

    def refuse(*args):
        raise AssertionError("act formed a product")

    monkeypatch.setattr(PLMap, "__mul__", refuse)
    monkeypatch.setattr(PLMap, "inverse", refuse)
    for (g, x), k in zip(pairs, expected):
        assert engine.act(g)(engine.key(x)) == k, (g, x)


@pytest.mark.parametrize("desc", ["jump:right,lex", "jump:right,opp", "jump:left,lex",
                                  "jump:left,opp", "prime:2", "prime:3", "escaping",
                                  "restriction", "plante"])
def test_keys_are_hashable(desc):
    # a frame's cosets are the distinct keys of its ball, so a dict of the
    # keys has one entry per frame point; the symbolic engine, left out,
    # still keys by a comparison of tail sets
    engine = parse_engine(desc)
    gens = _FAMILIES[_DEFAULT_FAMILY[desc.partition(":")[0]]]()
    frame = build_frame(engine, gens, radius=4)
    keys = {engine.key(g): g for g in ball(gens, 4)}
    assert len(keys) == len(frame)


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
