import random

import pytest

from plorder import plante
from plorder.exactnum import LatticePreorder
from plorder.plante import (
    MINUS_INFINITY,
    CSet,
    PlanteEngine,
    WreathElement,
    _block,
    _nesting_forest,
    cset_family_cross_free,
    delta_kernel,
)
from plorder.plgroup import ball
from plorder.preorders import Sign


def rand_element(rng, k=1, span=4, values=3):
    lamp = {x: rng.randint(-values, values)
            for x in range(-span, span + 1) if rng.random() < 0.4}
    return WreathElement(lamp, rng.randint(-span, span), k)


class TestWreathAlgebra:
    def test_identity_and_inverse(self):
        rng = random.Random(0)
        e = WreathElement.identity()
        for _ in range(50):
            w = rand_element(rng)
            assert w * w.inverse() == e
            assert w.inverse() * w == e
            assert w * e == w and e * w == w

    def test_associativity(self):
        rng = random.Random(1)
        for _ in range(50):
            a, b, c = (rand_element(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_shift_acts_on_lamps(self):
        t = WreathElement.shift_by(1)
        h0 = WreathElement.lamp_at(0)
        h3 = t ** 3 * h0 * t ** -3
        assert h3 == WreathElement.lamp_at(3)

    def test_conjugate_lamps_commute(self):
        t = WreathElement.shift_by(1)
        h0 = WreathElement.lamp_at(0)
        hs = [t ** n * h0 * t ** -n for n in range(-3, 7)]
        for x in hs:
            for y in hs:
                assert x * y == y * x

    def test_pow_matches_repeated_product(self):
        rng = random.Random(2)
        w = rand_element(rng)
        acc = WreathElement.identity()
        for n in range(6):
            assert w ** n == acc
            acc = acc * w
        assert w ** -3 == (w ** 3).inverse()

    def test_lamp_normalization(self):
        w = WreathElement({0: 1, 1: 0, 2: -2})
        assert set(w.lamp) == {0, 2}
        assert w.top() == 2
        assert WreathElement.identity().top() == MINUS_INFINITY


def ref_mul(a, b):
    """The product through the validating constructor: lamps added as
    k-tuples, zero sums left for WreathElement() to drop."""
    lamp = dict(a.lamp)
    for x, v in b.lamp.items():
        u = lamp.get(x + a.shift, (0,) * a.k)
        lamp[x + a.shift] = tuple(p + q for p, q in zip(u, v))
    return WreathElement(lamp, a.shift + b.shift, a.k)


def ref_inverse(a):
    return WreathElement({x - a.shift: tuple(-c for c in v) for x, v in a.lamp.items()},
                         -a.shift, a.k)


class TestTrustedProducts:
    """Products and inverses skip validation; they must equal, and hash
    like, the elements the validating constructor builds."""

    def assert_same(self, w, ref):
        assert w == ref and hash(w) == hash(ref)
        assert w.lamp == ref.lamp and all(any(v) for v in w.lamp.values())
        assert list(w.lamp) == sorted(w.lamp, reverse=True)

    def test_on_radius_six_ball(self, plante_gens):
        elements = list(ball(plante_gens, 6, identity=WreathElement.identity()))
        rng = random.Random(7)
        for x in elements:
            self.assert_same(x.inverse(), ref_inverse(x))
            self.assert_same(x * x.inverse(), WreathElement.identity())
            for y in rng.sample(elements, 8) + list(plante_gens.values()):
                self.assert_same(x * y, ref_mul(x, y))

    def test_rank_two_lamps_cancel_to_zero(self):
        rng = random.Random(8)
        for _ in range(200):
            a = WreathElement({x: (rng.randint(-1, 1), rng.randint(-1, 1))
                               for x in range(-2, 3)}, rng.randint(-2, 2), k=2)
            b = WreathElement({x: (rng.randint(-1, 1), rng.randint(-1, 1))
                               for x in range(-2, 3)}, rng.randint(-2, 2), k=2)
            self.assert_same(a * b, ref_mul(a, b))
            self.assert_same(a.inverse(), ref_inverse(a))

    def test_lamp_times_its_inverse_is_the_identity(self):
        h0 = WreathElement.lamp_at(0)
        e = WreathElement.identity()
        self.assert_same(h0 * h0.inverse(), e)


class TestPlanteSign:
    def test_basic_signs(self):
        sign = PlanteEngine().sign
        assert sign(WreathElement.lamp_at(0)) == Sign.POSITIVE
        assert sign(WreathElement.lamp_at(0, -1)) == Sign.NEGATIVE
        assert sign(WreathElement.shift_by(5)) == Sign.RESIDUE

    def test_top_lamp_decides(self):
        sign = PlanteEngine().sign
        w = WreathElement({0: -7, 3: 1})
        assert sign(w) == Sign.POSITIVE
        assert sign(w.inverse()) == Sign.NEGATIVE

    def test_rank_two_lex(self):
        order = LatticePreorder([(1, 0), (0, 1)])
        eng = PlanteEngine(k=2, order=order)
        assert eng.sign(WreathElement({0: (0, 3)}, 0, k=2)) == Sign.POSITIVE
        assert eng.sign(WreathElement({0: (-1, 3)}, 0, k=2)) == Sign.NEGATIVE

    def test_config_compare(self):
        a = WreathElement({0: 1, 2: 1})
        b = WreathElement({0: 5, 2: 1})
        # keys compare configurations at the top disagreement; shifts are ignored
        eng = PlanteEngine()
        assert eng.key(a) < eng.key(b)
        assert eng.key(b) > eng.key(a)
        assert eng.key(a) == eng.key(WreathElement({0: 1, 2: 1}, shift=3))


def ref_delta(a, b):
    """Top position of the set of positions where the lamps differ."""
    zero = (0,) * a.k
    diff = [x for x in set(a.lamp) | set(b.lamp)
            if a.lamp.get(x, zero) != b.lamp.get(x, zero)]
    return max(diff) if diff else MINUS_INFINITY


def ref_contains(c, tau):
    """Lamp by lamp above the cut, through dicts."""
    zero = (0,) * c.k
    want = dict(c.pattern)
    return all(tau.lamp.get(x, zero) == want.get(x, zero)
               for x in set(want) | {x for x in tau.lamp if x > c.cut})


def ref_relation(c, d):
    """The patterns compared lamp by lamp above the higher cut."""
    lo, hi = (c, d) if c.cut >= d.cut else (d, c)
    zero = (0,) * c.k
    wl, wh = dict(lo.pattern), dict(hi.pattern)
    if any(wl.get(x, zero) != wh.get(x, zero)
           for x in set(wl) | set(wh) if x > lo.cut):
        return "disjoint"
    if c.cut == d.cut:
        return "equal"
    return "superset" if c is lo else "subset"


def block_relation(c, d):
    """CSet.relation's verdict read off the key blocks, or 'crossing'."""
    (a, b), (x, y) = _block(c), _block(d)
    if (a, b) == (x, y):
        return "equal"
    if x <= a and b <= y:
        return "subset"
    if a <= x and y <= b:
        return "superset"
    return "disjoint" if b <= x or y <= a else "crossing"


def check_blocks(family, probes, rng):
    """Block membership of the probes' lex Plante keys is CSet.contains, on
    seeded draws; block nesting and disjointness is CSet.relation, on
    seeded pairs, the diagonal and the first 60 C-sets against all."""
    key = PlanteEngine(family[0].k).key
    keyed = [(tau, key(tau)) for tau in probes]
    hits = 0
    for _ in range(20000):
        c, (tau, k) = rng.choice(family), rng.choice(keyed)
        lo, hi = _block(c)
        assert (lo <= k < hi) == c.contains(tau), (c, tau)
        hits += c.contains(tau)
    assert 0 < hits < 20000
    pairs = [(rng.choice(family), rng.choice(family)) for _ in range(2000)]
    pairs += [(c, c) for c in family]
    pairs += [(c, d) for c in family[:60] for d in family]
    verdicts = set()
    for c, d in pairs:
        verdicts.add(c.relation(d))
        assert block_relation(c, d) == c.relation(d), (c, d)
    assert verdicts == {"equal", "subset", "superset", "disjoint"}


class TestTopDownReaders:
    """delta, membership and relation read top-down listings; the oracles
    rebuild dicts and sets from the configurations."""

    @pytest.fixture(scope="class")
    def ball6(self, plante_gens):
        return list(ball(plante_gens, 6, identity=WreathElement.identity()))

    @pytest.fixture(scope="class")
    def family7(self, ball6):
        return sorted({CSet(sigma, cut) for sigma in ball6 for cut in (-2, -1, 0, 1)},
                      key=repr)

    def test_delta_on_ball_pairs(self, ball6):
        rng = random.Random("delta")
        for _ in range(2000):
            a, b = rng.choice(ball6), rng.choice(ball6)
            assert delta_kernel(a, b) == ref_delta(a, b), (a, b)
            assert delta_kernel(a, a) == MINUS_INFINITY

    def test_patterns_run_top_down(self, family7):
        for c in family7:
            xs = [x for x, _ in c.pattern]
            assert xs == sorted(xs, reverse=True) and all(x > c.cut for x in xs)

    def test_contains_on_criterion7_family(self, ball6, family7):
        rng = random.Random("contains")
        for c in family7:
            for tau in rng.sample(ball6, 3):
                assert c.contains(tau) == ref_contains(c, tau), (c, tau)
        hits = 0
        for _ in range(2000):
            c, tau = rng.choice(family7), rng.choice(ball6)
            hits += c.contains(tau)
            assert c.contains(tau) == ref_contains(c, tau), (c, tau)
        assert hits

    def test_relation_on_criterion7_family(self, family7):
        rng = random.Random("relation")
        pairs = [(rng.choice(family7), rng.choice(family7)) for _ in range(2000)]
        pairs += [(c, c) for c in family7]
        pairs += [(c, d) for c in family7[:60] for d in family7]
        verdicts = set()
        for c, d in pairs:
            verdicts.add(c.relation(d))
            assert c.relation(d) == ref_relation(c, d), (c, d)
        assert verdicts == {"equal", "subset", "superset", "disjoint"}

    def test_blocks_on_criterion7_family(self, ball6, family7):
        check_blocks(family7, ball6, random.Random("blocks"))

    def test_blocks_on_rand_family(self):
        rng = random.Random("blocks2")
        family = sorted(set(rand_family(rng, 2, 40)), key=repr)

        def near(c):
            """c's pattern over seeded lamps at cut - 2 .. cut + 1."""
            low = {x: (rng.randint(-1, 1), rng.randint(-1, 1))
                   for x in range(c.cut - 2, c.cut + 2)}
            return WreathElement(dict(c.pattern) | low, 0, 2)

        check_blocks(family, [near(c) for c in family for _ in range(4)], rng)


class TestDeltaKernel:
    def test_agreeing_configs(self):
        a = WreathElement({1: 2}, shift=3)
        b = WreathElement({1: 2}, shift=-1)
        assert delta_kernel(a, b) == MINUS_INFINITY

    def test_top_disagreement(self):
        a = WreathElement({0: 1, 2: 5})
        b = WreathElement({0: 1, 2: 4, -3: 1})
        assert delta_kernel(a, b) == 2

    def test_ultrametric_on_random_triples(self):
        rng = random.Random(3)
        for _ in range(1000):
            a, b, c = (rand_element(rng) for _ in range(3))
            dab = delta_kernel(a, b)
            assert dab <= max(delta_kernel(a, c), delta_kernel(c, b))
            assert dab == delta_kernel(b, a)

    def test_shift_equivariance(self):
        rng = random.Random(4)
        t = WreathElement.shift_by(1)
        for _ in range(200):
            a, b = rand_element(rng), rand_element(rng)
            d = delta_kernel(a, b)
            ds = delta_kernel(t * a, t * b)
            if d == MINUS_INFINITY:
                assert ds == MINUS_INFINITY
            else:
                assert ds == d + 1


class TestCSets:
    def test_membership(self):
        sigma = WreathElement({1: 1, 3: 2})
        c = CSet(sigma, 0)
        assert c.contains(sigma)
        assert c.contains(WreathElement({1: 1, 3: 2, 0: 9, -5: 1}))
        assert not c.contains(WreathElement({1: 1}))
        assert not c.contains(WreathElement({1: 1, 3: 2, 2: 1}))

    def test_relations(self):
        sigma = WreathElement({1: 1, 3: 2})
        outer = CSet(sigma, 2)
        inner = CSet(sigma, 0)
        assert inner.relation(outer) == "subset"
        assert outer.relation(inner) == "superset"
        assert inner.relation(CSet(sigma, 0)) == "equal"
        other = CSet(WreathElement({1: 2, 3: 2}), 0)
        assert inner.relation(other) == "disjoint"

    def test_family_cross_free(self, plante_gens):
        elements = list(ball(plante_gens, 4,
                             identity=WreathElement.identity()))
        csets = [CSet(sigma, cut) for sigma in elements for cut in (-1, 0, 1)]
        assert cset_family_cross_free(csets)

    def test_membership_consistent_with_relation(self):
        # exhaustive: relation verdicts agree with sampled membership
        rng = random.Random(5)
        csets = [CSet(rand_element(rng, span=2, values=1), rng.randint(-2, 2))
                 for _ in range(25)]
        probes = [rand_element(rng, span=3, values=1) for _ in range(120)]
        for A in csets:
            for B in csets:
                rel = A.relation(B)
                inA = {p for p in probes if A.contains(p)}
                inB = {p for p in probes if B.contains(p)}
                if rel == "disjoint":
                    assert not (inA & inB)
                elif rel == "subset":
                    assert inA <= inB
                elif rel == "superset":
                    assert inB <= inA
                elif rel == "equal":
                    assert inA == inB


def rand_family(rng, k, size):
    """Seeded C-sets over small lamps with repeated cuts in -3..2, so that
    many of them share patterns and nest."""
    def value():
        v = tuple(rng.randint(-1, 1) for _ in range(k))
        return v if k > 1 else v[0]
    sigmas = [WreathElement({x: value() for x in range(-3, 4) if rng.random() < 0.5},
                            0, k) for _ in range(size)]
    return [CSet(rng.choice(sigmas), rng.randint(-3, 2)) for _ in range(3 * size)]


def ancestors(forest, node):
    out = []
    while forest[node] is not None:
        node = forest[node]
        out.append(node)
    return out


class TestNestingForest:
    """The pairwise relation table is the oracle for the forest."""

    def check_against_relation(self, family):
        forest = _nesting_forest(family)
        assert set(forest) == set(family)
        nodes = list(forest)
        above = {n: set(ancestors(forest, n)) for n in nodes}
        for i, a in enumerate(nodes):
            assert a.relation(a) == "equal"
            for b in nodes[i + 1:]:
                if b in above[a]:
                    want = "subset"
                elif a in above[b]:
                    want = "superset"
                else:
                    want = "disjoint"
                assert a.relation(b) == want, (a, b)
        return forest

    @pytest.mark.parametrize("k, seed", [(1, 0), (1, 1), (2, 2), (2, 3)])
    def test_ancestry_matches_relation(self, k, seed):
        family = rand_family(random.Random(seed), k, 40)
        forest = self.check_against_relation(family)
        assert len(forest) < len(family)
        assert any(parent is not None for parent in forest.values())

    def test_ancestry_matches_relation_on_criterion7_family(self, plante_gens):
        elements = ball(plante_gens, 6, identity=WreathElement.identity())
        family = {CSet(sigma, cut) for sigma in elements for cut in (-2, -1, 0, 1)}
        forest = self.check_against_relation(family)
        assert (len(forest), sum(p is None for p in forest.values())) == (692, 41)

    def test_parent_is_smallest_larger_cset(self):
        sigma = WreathElement({1: 1, 3: 2})
        family = [CSet(sigma, c) for c in (-1, 2, 0)] + [CSet(WreathElement(), 5)]
        forest = _nesting_forest(family)
        assert forest[CSet(sigma, -1)] == CSet(sigma, 0)
        assert forest[CSet(sigma, 0)] == CSet(sigma, 2)
        assert forest[CSet(sigma, 2)] == CSet(sigma, 5)
        assert forest[CSet(sigma, 5)] is None

    @pytest.mark.parametrize("corrupt", ["edge", "siblings"])
    def test_misreported_relation_fails(self, corrupt, plante_gens, monkeypatch):
        """The verdict is read off the key blocks: a block misreported so that
        a child ends past its parent ('edge'), or so that two roots overlap
        without nesting ('siblings'), makes the family fail."""
        elements = ball(plante_gens, 3, identity=WreathElement.identity())
        family = [CSet(sigma, cut) for sigma in elements for cut in (-1, 0, 1)]
        assert cset_family_cross_free(family)
        forest = _nesting_forest(family)
        if corrupt == "edge":
            node = next(n for n, p in forest.items() if p is not None)
            lo, hi = _block(node)[0], _block(forest[node])[1] + ((0,),)
        else:
            node, other = sorted((n for n, p in forest.items() if p is None),
                                 key=_block)[:2]
            lo, hi = _block(node)[0], _block(other)[0] + ((0,),)
        assert lo < _block(node)[1] < hi
        monkeypatch.setattr(plante, "_block", lambda c: (lo, hi) if c == node
                            else _block(c))
        assert not cset_family_cross_free(family)

    def test_equal_csets_collapse(self):
        a = CSet(WreathElement({0: 5, 2: 1}), 0)
        b = CSet(WreathElement({-3: 1, 2: 1}), 0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != CSet(WreathElement({0: 5, 2: 1}), 1)
