import random
from fractions import Fraction as F
from operator import itemgetter

import pytest

from plorder import cli, realize
from plorder.cli import _DEFAULT_FAMILY, _FAMILIES, main, parse_engine
from plorder.exactnum import SlopeGroup
from plorder.plante import CSet, PlanteEngine, WreathElement
from plorder.plgroup import (
    PLMap,
    ball,
    bs_g_minus,
    bs_g_plus,
    f_big_generator,
    nesting_forest,
    translation,
)
from plorder.preorders import JumpEngine, PrimeJumpEngine, _position
from plorder.realize import (
    DynType,
    OrbitFrame,
    build_frame,
    cf_cover_check,
    classify_empirical,
    classify_predicted,
    consistent,
    induced_map,
    orbit_frame,
)
from test_plgroup import fraction_fixed_structure


class TestConsistency:
    def test_exact_match(self):
        for t in DynType:
            assert consistent(t, t)

    def test_inconclusive_always_allowed(self):
        for t in DynType:
            assert consistent(t, DynType.INCONCLUSIVE)

    def test_weaker_evidence_allowed(self):
        assert consistent(DynType.HOMOTHETY_EXPANDING,
                          DynType.EXPANDING_PSEUDOHOMOTHETY)
        assert consistent(DynType.HOMOTHETY_CONTRACTING,
                          DynType.CONTRACTING_PSEUDOHOMOTHETY)

    def test_opposites_rejected(self):
        assert not consistent(DynType.HOMOTHETY_EXPANDING,
                              DynType.CONTRACTING_PSEUDOHOMOTHETY)
        assert not consistent(DynType.TOTALLY_BOUNDED,
                              DynType.HOMOTHETY_EXPANDING)
        assert not consistent(DynType.EXPANDING_PSEUDOHOMOTHETY,
                              DynType.HOMOTHETY_EXPANDING)


class TestOrbitFrame:
    def test_sorted_exhaustive(self, jump_frames):
        frame = jump_frames[3]
        pts = frame.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert frame.cmp_elements(pts[i], pts[j]) < 0

    def test_locate_finds_members(self, jump_frames):
        frame = jump_frames[3]
        for i, x in enumerate(frame.points):
            assert frame.locate(x) == (i, True)
            assert frame.index_of(x) == i

    def test_deterministic_build(self, bs_gens, jump_frames):
        from plorder.preorders import JumpEngine
        again = build_frame(JumpEngine(side="right"), bs_gens, radius=3)
        frame = jump_frames[3]
        assert again.points == frame.points
        assert [again.word_of(i) for i in range(len(again))] == \
            [frame.word_of(i) for i in range(len(frame))]

    def test_coordinates_and_words(self, jump_frames):
        frame = jump_frames[3]
        assert "e" in {frame.word_of(i) for i in range(len(frame))}

    def test_plante_frame_sorted(self, plante_frames):
        frame = plante_frames[3]
        pts = frame.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert frame.cmp_elements(pts[i], pts[j]) < 0


def keyed_frame(engine, generators, basepoint=None, radius=3) -> OrbitFrame:
    """build_frame without the skip rule: every ball element is keyed, in
    (word length, word) order, and stably sorted by key."""
    items = sorted(ball(generators, radius, identity=basepoint).items(),
                   key=lambda kv: (len(kv[1]), kv[1]))
    keyed = sorted(((engine.key(el), el, word) for el, word in items),
                   key=itemgetter(0))
    points, words, keys = [], {}, []
    for k, el, word in keyed:
        if not keys or keys[-1] != k:
            points.append(el)
            words[el] = word or "e"
            keys.append(k)
    return OrbitFrame(engine, keys, points, words)


TEN_ENGINES = ["jump:right,lex", "jump:right,opp", "jump:left,lex", "jump:left,opp",
               "prime:2", "prime:3", "escaping", "plante", "restriction", "ok"]


def _family(desc):
    return _FAMILIES[_DEFAULT_FAMILY[desc.partition(":")[0]]]()


def _same_frame(engine, gens, radius, basepoint=None):
    fast = build_frame(engine, gens, basepoint=basepoint, radius=radius)
    slow = keyed_frame(engine, gens, basepoint=basepoint, radius=radius)
    assert fast.points == slow.points
    assert fast.words == slow.words
    assert fast.keys == slow.keys
    assert all(k == engine.key(x) for k, x in zip(fast.keys, fast.points))
    return fast


class TestInheritedKeys:
    """build_frame's skip rule against keying every element.  An element
    reached by a generator that fixes the basepoint's orbit point inherits
    its parent's key and has a longer word, so build_frame skips it
    unkeyed."""

    @pytest.mark.parametrize("desc", TEN_ENGINES)
    def test_ten_engines(self, desc):
        for radius in (2, 3, 4):
            _same_frame(parse_engine(desc), _family(desc), radius)

    @pytest.mark.parametrize("desc", TEN_ENGINES[:4])
    def test_jump_engines_radius_five(self, desc):
        _same_frame(parse_engine(desc), _family(desc), 5)

    @pytest.mark.parametrize("desc", ["prime:2", "prime:3"])
    def test_prime_engines_radius_five(self, desc):
        _same_frame(parse_engine(desc), _family(desc), 5)

    def test_plante_with_basepoint(self, plante_gens):
        _same_frame(PlanteEngine(), plante_gens, 5, WreathElement.identity())

    def test_plante_radius_six(self, plante_gens):
        _same_frame(PlanteEngine(), plante_gens, 6, WreathElement.identity())

    @pytest.mark.parametrize("desc, fewer", [
        ("jump:right,lex", True), ("prime:3", True), ("plante", True), ("ok", True),
        ("escaping", False), ("restriction", False)])
    def test_keys_computed(self, desc, fewer, monkeypatch):
        # t(1), wreath t and line t fix the basepoint; F's generators do not
        engine, gens = parse_engine(desc), _family(desc)
        calls = []
        key = engine.key
        monkeypatch.setattr(engine, "key", lambda x: calls.append(1) or key(x))
        build_frame(engine, gens, radius=4)
        n = len(ball(gens, 4))
        assert len(calls) < n / 2 + 10 if fewer else len(calls) == n

    def test_star_in_a_name_keys_every_element(self, bs_gens, monkeypatch):
        # "g*t" would read as "g" times the fixing generator "t"
        engine = JumpEngine()
        gens = {"t": bs_gens["t"], "g*t": bs_gens["g+"]}
        calls = []
        key = engine.key
        monkeypatch.setattr(engine, "key", lambda x: calls.append(1) or key(x))
        build_frame(engine, gens, radius=3)
        assert len(calls) == len(ball(gens, 3))
        monkeypatch.undo()
        _same_frame(engine, gens, 3)

    def test_first_failure_is_unchanged(self):
        # slope 3 lies outside <2>: the first element keyed with it raises,
        # and so does the key search's act of g3
        engine = JumpEngine()
        gens = {"t": translation(1), "g3": bs_g_plus(0, 3)}
        messages = []
        for build in (build_frame, keyed_frame, orbit_frame):
            with pytest.raises(ValueError) as e:
                build(engine, gens, radius=3)
            messages.append(str(e.value))
        assert messages[0] == messages[1] == messages[2]


class TestOrbitSearch:
    """orbit_frame's key-space search against build_frame's ball: the same
    sorted keys, with no ball composed."""

    @pytest.mark.parametrize("desc", TEN_ENGINES)
    def test_ten_engines(self, desc):
        engine, gens = parse_engine(desc), _family(desc)
        for radius in (2, 3, 4, 5):
            assert orbit_frame(engine, gens, radius).keys == \
                build_frame(engine, gens, radius=radius).keys

    def test_plante_radius_six(self, plante_gens):
        engine = PlanteEngine()
        assert orbit_frame(engine, plante_gens, 6).keys == \
            build_frame(engine, plante_gens, WreathElement.identity(), radius=6).keys

    @pytest.mark.parametrize("engine", [
        PrimeJumpEngine(2), PrimeJumpEngine(3),
        *(JumpEngine(side, SlopeGroup([2, 3])) for side in ("right", "left"))], ids=repr)
    def test_bs23(self, engine):
        gens = {"t(1)": translation(1), "g+(0,2)": bs_g_plus(0, 2),
                "g+(0,3)": bs_g_plus(0, 3)}
        for radius in (2, 3, 4):
            assert orbit_frame(engine, gens, radius).keys == \
                build_frame(engine, gens, radius=radius).keys

    def test_inverse_name_taken_over(self):
        # "x^-1" names g+(0,2), not t(1)^-1, so t(1)^-1 is no generator;
        # adding every inverse would find 9 cosets at r2 and 27 at r3
        engine = JumpEngine()
        gens = {"x": translation(1), "x^-1": bs_g_plus(0, 2)}
        for radius, size in ((2, 7), (3, 17)):
            frame = orbit_frame(engine, gens, radius)
            assert len(frame) == size
            assert frame.keys == build_frame(engine, gens, radius=radius).keys

    def test_composes_no_ball(self, bs_gens, monkeypatch):
        products = []
        mul = PLMap.__mul__
        monkeypatch.setattr(PLMap, "__mul__",
                            lambda a, b: products.append(1) or mul(a, b))
        frame = orbit_frame(JumpEngine(), bs_gens, 5)
        assert len(frame) == 227 and len(products) == 1  # the identity
        assert frame.points is None and frame.words is None
        assert repr(frame).startswith("OrbitFrame(227 points")


# a family each engine does not act on, or acts on without being made for it
FOREIGN = {"jump": "line", "prime": "thompsonF", "escaping": "bs2",
           "restriction": "thompsonF", "plante": "bs2", "ok": "bs2"}


@pytest.mark.parametrize("desc", TEN_ENGINES)
def test_classify_reads_the_same_from_either_frame(desc, monkeypatch, capsys):
    name = desc.partition(":")[0]
    runs = []
    for family in (_DEFAULT_FAMILY[name], FOREIGN[name]):
        words = [w for w in ball(_FAMILIES[family](), 2).values() if w][:5]
        runs += [["classify", "--engine", desc, "--family", family, "--radius", "3",
                  "--word", w] for w in ["e", *words]]

    def outputs():
        out = []
        for argv in runs:
            rc = main(argv)
            captured = capsys.readouterr()
            out.append((rc, captured.out, captured.err))
        return out

    searched = outputs()
    monkeypatch.setattr(cli, "orbit_frame",
                        lambda engine, gens, radius: build_frame(engine, gens, radius=radius))
    assert searched == outputs()
    assert {rc for rc, _, _ in searched} <= {0, 2}


class TestInducedMap:
    def test_strictly_monotone(self, jump_frames, bs_gens):
        frame = jump_frames[4]
        for g in bs_gens.values():
            for h in (g, g.inverse()):
                m = induced_map(frame, h)
                items = sorted(m.items())
                for (i1, j1), (i2, j2) in zip(items, items[1:]):
                    assert i1 < i2 and j1 < j2

    def test_identity_is_identity_map(self, jump_frames):
        frame = jump_frames[3]
        m = induced_map(frame, PLMap.identity("line"))
        assert m == {i: i for i in range(len(frame))}


@pytest.mark.parametrize("fixture,levels", [
    ("jump_frames", (3, 4, 5)),
    ("escaping_frames", (3, 4, 5)),
    ("plante_frames", (3, 4, 5)),
])
class TestFrameRefinement:
    def test_order_restriction(self, fixture, levels, request):
        # frame(L) must be exactly the restriction of frame(L+1): every
        # point is found in the finer frame, at increasing positions
        frames = request.getfixturevalue(fixture)
        for L in levels:
            coarse, fine = frames[L], frames[L + 1]
            positions = []
            for x in coarse.points:
                i, found = fine.locate(x)
                assert found, f"radius-{L} point missing at radius {L + 1}"
                positions.append(i)
            assert positions == sorted(positions)
            assert len(set(positions)) == len(positions)


class TestClassifyPredicted:
    def test_unit_model_anchors(self, f_pair):
        a, b = f_pair
        f0 = f_big_generator()
        assert classify_predicted(f0) == DynType.HOMOTHETY_EXPANDING
        assert classify_predicted(f0.inverse()) == DynType.HOMOTHETY_CONTRACTING
        assert classify_predicted(a) == DynType.TOTALLY_BOUNDED
        assert classify_predicted(b) == DynType.EXPANDING_PSEUDOHOMOTHETY
        assert classify_predicted(b.inverse()) == \
            DynType.CONTRACTING_PSEUDOHOMOTHETY
        assert classify_predicted(PLMap.identity("unit")) == \
            DynType.TOTALLY_BOUNDED

    def test_line_model_anchors(self, bs_gens):
        t, gp = bs_gens["t"], bs_gens["g+"]
        assert classify_predicted(t) == DynType.HOMOTHETY_EXPANDING
        assert classify_predicted(t.inverse()) == DynType.HOMOTHETY_CONTRACTING
        assert classify_predicted(gp) == DynType.EXPANDING_PSEUDOHOMOTHETY
        # trivial germ at +infinity: totally bounded
        w = gp * t * gp.inverse() * t ** -2
        assert classify_predicted(w) == DynType.TOTALLY_BOUNDED

    def test_left_side_anchors(self, bs_gens):
        # the germ at -infinity decides; each verdict is also the r4
        # empirical one on the left jump engine
        frame = build_frame(JumpEngine(side="left"), bs_gens, radius=4)
        for g, expected in [
                (bs_gens["t"], DynType.HOMOTHETY_CONTRACTING),
                (bs_gens["g+"], DynType.TOTALLY_BOUNDED),
                (bs_g_minus(0, 2), DynType.EXPANDING_PSEUDOHOMOTHETY)]:
            assert classify_predicted(g, "left") == expected
            assert classify_empirical(frame, g) == expected
        # unit model: the germ at 0; f0 pushes points away from 0
        assert classify_predicted(f_big_generator(), "left") == \
            DynType.HOMOTHETY_CONTRACTING
        with pytest.raises(ValueError):
            classify_predicted(bs_gens["t"], "sideways")


def _mirror(g: PLMap) -> PLMap:
    """r g r for the reflection r: x -> -x (line) or x -> 1 - x (unit); its
    germ at the right end is g's germ at the left end, turned around."""
    c = 0 if g.model == "line" else 1
    return PLMap(g.model, [c - b for b in reversed(g.breakpoints)],
                 list(reversed(g.slopes)),
                 [c - c * s - o for s, o in zip(reversed(g.slopes), reversed(g.offsets))])


def mirrored_predicted(g: PLMap, side: str = "right") -> DynType:
    """classify_predicted read off validated maps: the left end is the right
    end of the mirror image, the germ comes from the Fraction views and the
    fixed points from the Fraction walk fraction_fixed_structure."""
    if side == "left":
        g = _mirror(g)
    if g.is_identity():
        return DynType.TOTALLY_BOUNDED
    s, c = g.slopes[-1], g.offsets[-1]
    if g.model == "unit":
        trivial, expanding = s == 1, s < 1
        fixed_free = not any(hi > 0 and lo < 1 for lo, hi in fraction_fixed_structure(g).fixed)
    else:
        trivial, expanding = s == 1 and c == 0, s > 1 or (s == 1 and c > 0)
        fixed_free = not fraction_fixed_structure(g).fixed
    if trivial:
        return DynType.TOTALLY_BOUNDED
    if expanding:
        return (DynType.HOMOTHETY_EXPANDING if fixed_free
                else DynType.EXPANDING_PSEUDOHOMOTHETY)
    return (DynType.HOMOTHETY_CONTRACTING if fixed_free
            else DynType.CONTRACTING_PSEUDOHOMOTHETY)


@pytest.mark.parametrize("family, radius, size", [
    ("bs2", 5, 475), ("thompsonF", 5, 485), ("fplus", 5, 475), ("line", 4, 161)])
def test_prediction_reads_the_end_piece(family, radius, size):
    # the germ rule on g's integer end piece against the mirror oracle
    elements = list(ball(_FAMILIES[family](), radius))
    assert len(elements) == size
    for side in ("right", "left"):
        assert [classify_predicted(g, side) for g in elements] == \
            [mirrored_predicted(g, side) for g in elements]


class TestPredictionSweep:
    """Every radius-3 word of each engine's default family against its
    frames: the empirical verdict never contradicts the prediction at the
    engine's focal end.  These are the engines classify prints a
    prediction for: the four jump engines (BS(2)), escaping (F, focused at
    1) and ok (the line pair, focused at +infinity).
    """

    @pytest.mark.parametrize("desc, radius", [
        ("jump:left,lex", 4), ("jump:left,lex", 5), ("jump:left,opp", 4),
        ("jump:left,opp", 5), ("jump:right,lex", 4), ("jump:right,lex", 5),
        ("jump:right,opp", 4), ("jump:right,opp", 5),
        ("escaping", 4), ("escaping", 5), ("ok", 4), ("ok", 5)])
    def test_consistent(self, desc, radius):
        engine = parse_engine(desc)
        gens = _FAMILIES[_DEFAULT_FAMILY[desc.partition(":")[0]]]()
        frame = build_frame(engine, gens, radius=radius)
        words = [(g, w) for g, w in ball(gens, 3).items() if w]
        assert len(words) == 52
        side = getattr(engine, "side", "right")
        bad = [w for g, w in words
               if not consistent(classify_predicted(g, side),
                                 classify_empirical(frame, g))]
        assert bad == []

    # x = 4 is the only fixed point of both words.  The right engines' r4
    # frame reaches 4 and no further, and both words used to read opposite
    # to the prediction there; the r5 frame reaches 8 and reads them
    @pytest.mark.parametrize("desc", ["jump:right,lex", "jump:right,opp"])
    @pytest.mark.parametrize("word", ["t(1)*t(1)*g+(0,2)^-1",
                                      "g+(0,2)*t(1)^-1*t(1)^-1"])
    def test_fixed_point_at_the_horizon(self, desc, word):
        engine, gens = parse_engine(desc), _FAMILIES["bs2"]()
        g = cli.parse_family_word(word, gens)
        assert [x for x, _ in g.fixed_structure().fixed] == [4]
        frames = {radius: orbit_frame(engine, gens, radius) for radius in (4, 5)}
        for radius, horizon in ((4, 4), (5, 8)):
            keys = frames[radius].keys
            assert max(k[1][3] for k in keys if len(k) > 2) == _position(horizon, 1)
        assert classify_empirical(frames[4], g) is DynType.INCONCLUSIVE
        emp = classify_empirical(frames[5], g)
        assert emp.conclusive and consistent(classify_predicted(g, "right"), emp)


class TestOutermostFixed:
    @pytest.mark.parametrize("family", ["bs2", "thompsonF", "line"])
    def test_matches_fixed_structure(self, family):
        # the oracle: the outer end of the Fraction walk's outermost part,
        # skipped when it reaches the focal end; the unit interval's ends,
        # fixed by every map, do not count
        checked = 0
        for g in ball(_FAMILIES[family](), 4):
            fixed = fraction_fixed_structure(g).fixed
            if g.model == "unit":
                fixed = [(lo, hi) for lo, hi in fixed if hi > 0 and lo < 1]
            outer = {"right": fixed[-1][1], "left": fixed[0][0]} if fixed else {}
            for side, e, end in (("right", 1, 1), ("left", -1, 0)):
                x = outer.get(side)
                if x is None or (g.model == "unit" and x == end):
                    expected = None
                else:
                    expected = _position(e * x.numerator, x.denominator)
                assert realize._outermost_fixed(g, side) == expected, (g, side)
                checked += expected is not None
        assert checked > 50


def test_sample_indices_round_exactly():
    # the oracle rounds i * (n - 1) / 47 as a Fraction; it never ties
    for n in range(5001):
        want = (sorted({round(F(i * (n - 1), 47)) for i in range(48)}) if n > 48
                else list(range(n)))
        assert realize._sample_indices(n) == want, n


class TestClassifyEmpirical:
    def test_jump_anchors(self, jump_frames, bs_gens):
        frame = jump_frames[6]
        t, gp = bs_gens["t"], bs_gens["g+"]
        assert classify_empirical(frame, t) == DynType.HOMOTHETY_EXPANDING
        assert classify_empirical(frame, t.inverse()) == \
            DynType.HOMOTHETY_CONTRACTING
        assert classify_empirical(frame, gp) == \
            DynType.EXPANDING_PSEUDOHOMOTHETY
        assert classify_empirical(frame, PLMap.identity("line")) == \
            DynType.TOTALLY_BOUNDED
        w = gp * t * gp.inverse() * t ** -2
        assert classify_empirical(frame, w) == DynType.TOTALLY_BOUNDED

    def test_escaping_anchors(self, escaping_frames, f_pair):
        frame = escaping_frames[5]
        a, b = f_pair
        f0 = f_big_generator()
        assert classify_empirical(frame, f0) == DynType.HOMOTHETY_EXPANDING
        assert classify_empirical(frame, b) == \
            DynType.EXPANDING_PSEUDOHOMOTHETY
        assert classify_empirical(frame, a) == DynType.TOTALLY_BOUNDED

    def test_plante_shift_is_expanding_homothety(self, plante_frames,
                                                 plante_gens):
        frame = plante_frames[6]
        t, h0 = plante_gens["t"], plante_gens["h0"]
        assert classify_empirical(frame, t) == DynType.HOMOTHETY_EXPANDING
        assert classify_empirical(frame, t.inverse()) == \
            DynType.HOMOTHETY_CONTRACTING
        assert classify_empirical(frame, h0) == DynType.TOTALLY_BOUNDED

    def test_plante_shift_fixes_exactly_identity(self, plante_frames,
                                                 plante_gens):
        frame = plante_frames[6]
        t = plante_gens["t"]
        fixed = [i for i, x in enumerate(frame.points)
                 if frame.cmp_elements(t * x, x) == 0]
        e_index = frame.index_of(WreathElement.identity())
        assert fixed == [e_index]


def crosses(a, b, c, d) -> bool:
    """Open intervals (a,b), (c,d) with finite ends cross: overlap without
    containment."""
    return a < c < b < d or c < a < d < b


def crossing_pair(intervals) -> tuple[int, int] | None:
    """Indices (i, j), i < j, of the lexicographically first crossing pair
    of open intervals with finite ends, or None when all pairs are nested
    or disjoint: the all-pairs oracle for the nesting forest."""
    ivs = list(intervals)
    return next(((i, j) for i in range(len(ivs)) for j in range(i + 1, len(ivs))
                 if crosses(*ivs[i], *ivs[j])), None)


def rand_closed_family(rng):
    """0-8 closed index intervals with ends in 0..8, in either order, with
    single points and repeats (also reversed)."""
    out = []
    for _ in range(rng.randint(0, 8)):
        if out and rng.random() < 0.2:
            out.append(rng.choice(out)[::rng.choice((1, -1))])
        else:
            a = rng.randint(0, 8)
            out.append((a, a if rng.random() < 0.2 else rng.randint(0, 8)))
    return out


class TestCrossFreeCovers:
    def test_sweep_matches_pairwise_oracle(self, jump_frames):
        rng = random.Random("nesting")
        seen = set()
        for _ in range(10000):
            family = rand_closed_family(rng)
            ivs = [(min(iv), max(iv) + 1) for iv in family]
            r = cf_cover_check(jump_frames[3], family)
            parent, crossing = nesting_forest(ivs)
            assert crossing == r["witness"]
            assert r["crossFree"] == (crossing_pair(ivs) is None)
            seen.add(r["crossFree"])
            if crossing is not None:
                i, j = crossing
                assert i < j and crosses(*ivs[i], *ivs[j]), (family, crossing)
                continue

            def holders(i):
                """The other intervals that contain interval i, less its later
                copies: equal intervals nest in index order."""
                return [j for j, (a, b) in enumerate(ivs) if a <= ivs[i][0]
                        and ivs[i][1] <= b and (j < i or ivs[j] != ivs[i])]

            size = [b - a for a, b in ivs]
            for i, p in enumerate(parent):
                if p is None:
                    assert not holders(i), (family, i)
                else:
                    assert p in holders(i), (family, i)
                    assert size[p] == min(size[j] for j in holders(i)), (family, i)
                node = i
                for _ in ivs:  # the parent chain ends at a root
                    node = node if node is None else parent[node]
                assert node is None, (family, i)
            roots = [ivs[i] for i, p in enumerate(parent) if p is None]
            assert all(a[1] <= b[0] or b[1] <= a[0]
                       for n, a in enumerate(roots) for b in roots[n + 1:]), family
        assert seen == {True, False}

    def test_crossing_predicate(self, jump_frames):
        frame = jump_frames[3]
        r = cf_cover_check(frame, [(0, 3), (2, 5)])
        assert not r["crossFree"] and r["witness"] == (0, 1)
        r = cf_cover_check(frame, [(0, len(frame) - 1), (2, 5)])
        assert r["crossFree"] and r["covering"]
        r = cf_cover_check(frame, [(0, 2), (5, 6)])
        assert r["crossFree"] and not r["covering"]
        # closed index intervals sharing an index cross
        r = cf_cover_check(frame, [(0, 3), (3, 5)])
        assert not r["crossFree"] and r["witness"] == (0, 1)
        # adjacent closed intervals are disjoint
        assert cf_cover_check(frame, [(0, 2), (3, 5)])["crossFree"]
        # the witness is the first crossing that the (a, -b) pass meets
        r = cf_cover_check(frame, [(0, 1), (2, 5), (4, 8)])
        assert not r["crossFree"] and r["witness"] == (1, 2)
        # equal intervals, and single indices inside an interval, are nested
        assert cf_cover_check(frame, [(2, 4), (2, 4)])["crossFree"]
        assert cf_cover_check(frame, [(2, 4), (4, 4), (2, 2)])["crossFree"]
        # endpoints may come in either order
        assert cf_cover_check(frame, [(4, 2), (3, 3)])["crossFree"]

    def test_f_action_has_crossed_intervals(self, escaping_frames, f_pair):
        # the orbit of a frame interval under the standard action produces a
        # crossed pair: evidence for the non-focal side of the dichotomy
        frame = escaping_frames[4]
        a, b = f_pair
        n = len(frame)
        base = (n // 3, 2 * n // 3)
        intervals = [base]
        for g in (a, b, a.inverse(), b.inverse(), a * b, b * a):
            ends = []
            for e in base:
                i, found = frame.locate(g * frame.points[e])
                ends.append(i if found else min(i, n - 1))
            intervals.append(tuple(sorted(ends)))
        r = cf_cover_check(frame, intervals)
        assert not r["crossFree"]

    def test_plante_csets_are_cross_free_intervals(self, plante_frames,
                                                   plante_gens):
        # C-set traces on the frame are pairwise non-crossing index intervals
        frame = plante_frames[4]
        elements = list(ball(plante_gens, 3,
                             identity=WreathElement.identity()))
        intervals = []
        for sigma in elements:
            for cut in (-1, 0, 1):
                c = CSet(sigma, cut)
                hit = [i for i, x in enumerate(frame.points) if c.contains(x)]
                if hit:
                    assert hit == list(range(hit[0], hit[-1] + 1))
                    intervals.append((hit[0], hit[-1]))
        r = cf_cover_check(frame, intervals)
        assert r["crossFree"]


@pytest.mark.parametrize("desc", ["jump:right,lex", "jump:left,opp", "prime:2"])
def test_key_frames_fill_no_view(desc, monkeypatch):
    # a jump or prime frame composes, hashes and keys its ball on the
    # integer storage: no map builds its Fraction views
    fill, filled = PLMap.__getattr__, []

    def counting(m, name):
        if name in PLMap._VIEWS:
            filled.append(name)
        return fill(m, name)

    monkeypatch.setattr(PLMap, "__getattr__", counting)
    gens = {"t(1)": translation(1), "g+(0,2)": bs_g_plus(0, 2)}
    frame = build_frame(parse_engine(desc), gens, radius=4)
    assert len(frame) > 1 and filled == []
    assert frame.points[-1].slopes and filled == ["slopes"]  # a cold reader
