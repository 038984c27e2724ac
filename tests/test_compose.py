"""PLMap composition by ordered merge, against the sample-based oracle.

`sample_compose` and `sample_inverse` are the group law as it was before
the merge: a fully validated inverse, the union of candidate breakpoints,
one sample point per piece and the validating constructor.  They stay here
as the slow path that the merge must agree with exactly.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from plorder.plgroup import PLMap, ball, bs_g_plus, thompson_f_pair, translation


def sample_inverse(g: PLMap) -> PLMap:
    return PLMap(g.model, [g(b) for b in g.breakpoints],
                 [1 / s for s in g.slopes],
                 [-o / s for s, o in zip(g.slopes, g.offsets)])


def _samples(model: str, bps: list) -> list:
    """One interior sample point per piece of a breakpoint list."""
    if not bps:
        return [F(1, 2)] if model == "unit" else [F(0)]
    inner = [(b1 + b2) / 2 for b1, b2 in zip(bps, bps[1:])]
    if model == "unit":
        return [bps[0] / 2] + inner + [(bps[-1] + 1) / 2]
    return [bps[0] - 1] + inner + [bps[-1] + 1]


def sample_compose(f: PLMap, g: PLMap) -> PLMap:
    """(f * g)(x) = f(g(x)), one sample point per piece of the product."""
    ginv = sample_inverse(g)
    cand = set(g.breakpoints)
    cand.update(ginv(b) for b in f.breakpoints)
    if f.model == "unit":
        cand = {b for b in cand if 0 < b < 1}
    bps = sorted(cand)
    slopes, offsets = [], []
    for x in _samples(f.model, bps):
        gx = g(x)
        s = f.slopes[f.piece_index(gx)] * g.slopes[g.piece_index(x)]
        slopes.append(s)
        offsets.append(f(gx) - s * x)
    return PLMap(f.model, bps, slopes, offsets)


# ---------------------------------------------------------------------------
# Random dyadic maps
# ---------------------------------------------------------------------------

DEN = 64
unit_points = st.integers(1, DEN - 1).map(lambda n: F(n, DEN))
line_points = st.integers(-4 * DEN, 4 * DEN).map(lambda n: F(n, DEN))


@st.composite
def maps(draw, model: str):
    """A unit map through up to 4 dyadic knots, or a line map through 2-5."""
    if model == "unit":
        points, n = unit_points, draw(st.integers(0, 4))
    else:
        points, n = line_points, draw(st.integers(2, 5))
    knots = st.lists(points, min_size=n, max_size=n, unique=True)
    xs, ys = sorted(draw(knots)), sorted(draw(knots))
    return PLMap.from_points(model, zip(xs, ys))


@st.composite
def same_model(draw, k: int):
    model = draw(st.sampled_from(["unit", "line"]))
    return tuple(draw(maps(model)) for _ in range(k))


def probe_points(f: PLMap, g: PLMap) -> list:
    """Every breakpoint of both maps, the midpoints between them and points
    beyond the outermost ones (the endpoints, for the unit model)."""
    knots = sorted(set(f.breakpoints) | set(g.breakpoints))
    if f.model == "unit":
        knots = [F(0)] + knots + [F(1)]
    elif knots:
        knots = [knots[0] - 1] + knots + [knots[-1] + 1]
    else:
        knots = [F(-1), F(1)]
    return knots + [(x + y) / 2 for x, y in zip(knots, knots[1:])]


class TestMergeProperties:
    @given(same_model(3))
    def test_associative(self, fgh):
        f, g, h = fgh
        assert (f * g) * h == f * (g * h)

    @given(same_model(1))
    def test_inverse_is_two_sided(self, fs):
        (f,) = fs
        assert (f * f.inverse()).is_identity()
        assert (f.inverse() * f).is_identity()

    @given(same_model(2))
    def test_is_function_composition(self, fg):
        f, g = fg
        fg_map = f * g
        for x in probe_points(f, g):
            assert fg_map(x) == f(g(x))

    @given(same_model(2))
    def test_trusted_results_pass_the_validator(self, fg):
        f, g = fg
        for m in (f * g, f.inverse(), (f * g).inverse()):
            validated = PLMap(m.model, m.breakpoints, m.slopes, m.offsets)
            assert validated == m and hash(validated) == hash(m)

    @given(same_model(2))
    def test_lazy_hash_is_the_hash_of_equal_maps(self, fg):
        # the hash is computed on first use, so maps built by the validating
        # constructor, by _trusted products and by inverse() must still agree
        f, g = fg
        fg_map = f * g
        built = PLMap(fg_map.model, fg_map.breakpoints, fg_map.slopes, fg_map.offsets)
        via_inverses = (g.inverse() * f.inverse()).inverse()
        assert built == fg_map == via_inverses
        assert hash(built) == hash(fg_map) == hash(via_inverses)
        assert hash(fg_map) == hash(fg_map)
        assert len({built, fg_map, via_inverses}) == 1

    @given(same_model(2))
    def test_matches_sample_oracle(self, fg):
        f, g = fg
        assert f * g == sample_compose(f, g)
        assert f.inverse() == sample_inverse(f)

    @given(same_model(1))
    def test_text_roundtrip(self, fs):
        (f,) = fs
        assert PLMap.from_text(f.to_text()) == f


# ---------------------------------------------------------------------------
# Pair by pair on the benchmark balls
# ---------------------------------------------------------------------------

def _assert_same_products(pairs):
    for g, h in pairs:
        assert g * h == sample_compose(g, h), (g, h)


def test_oracle_on_bs2_ball_radius4():
    elements = list(ball({"t": translation(1), "g+": bs_g_plus(0, 2)}, 4))
    _assert_same_products((g, h) for g in elements for h in elements)
    assert all(g.inverse() == sample_inverse(g) for g in elements)


def test_oracle_on_f_ball_radius5():
    """Every element of the radius-5 ball of F against four seeded
    partners on each side (every pair would take minutes)."""
    a, b = thompson_f_pair()
    elements = list(ball({"a": a, "b": b}, 5))
    rng = random.Random(5)
    pairs = []
    for g in elements:
        for h in rng.sample(elements, 4):
            pairs += [(g, h), (h, g)]
    _assert_same_products(pairs)
    assert all(g.inverse() == sample_inverse(g) for g in elements)


def test_lazy_hash_keeps_maps_immutable():
    g = translation(1) * bs_g_plus(0, 2)
    h = hash(g)
    assert hash(g) == h and {g: 1}[bs_g_plus(1, 2) * translation(1)] == 1
    for attr in ("slopes", "_hash"):
        with pytest.raises(AttributeError):
            setattr(g, attr, None)
    assert hash(g) == h
