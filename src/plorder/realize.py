"""Finite-scale dynamical realizations of preorder engines.

A frame is the radius-L ball of the group as sorted, deduplicated engine
keys (one key per residue coset, i.e. per orbit point).  An element g acts
on the frame's orbit points through engine.act(g), which maps key(x) to
key(g x) without forming g x; classify_empirical reads off the dynamical
type of g from the trajectories of the frame extremes, and
classify_predicted derives the expected type from exact germ data.

Two builders make the same keys.  orbit_frame searches the orbit in key
space and composes no element: it serves classification, which reads keys
only.  build_frame composes the ball and keeps a representative element
and its word per coset: it serves realizations, which print them.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import groupby

from .plgroup import PLMap, ball, expand_generators, nesting_forest
from .preorders import _position


class DynType(enum.Enum):
    TOTALLY_BOUNDED = "TotallyBounded"
    EXPANDING_PSEUDOHOMOTHETY = "ExpandingPseudohomothety"
    CONTRACTING_PSEUDOHOMOTHETY = "ContractingPseudohomothety"
    HOMOTHETY_EXPANDING = "Homothety(expanding)"
    HOMOTHETY_CONTRACTING = "Homothety(contracting)"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self):
        return self.value

    @property
    def conclusive(self) -> bool:
        return self is not DynType.INCONCLUSIVE


_COMPATIBLE = {
    (DynType.HOMOTHETY_EXPANDING, DynType.EXPANDING_PSEUDOHOMOTHETY),
    (DynType.HOMOTHETY_CONTRACTING, DynType.CONTRACTING_PSEUDOHOMOTHETY),
}


def consistent(predicted: DynType, empirical: DynType) -> bool:
    """Empirical evidence may be weaker than the prediction, never opposite."""
    return (empirical is DynType.INCONCLUSIVE or predicted == empirical
            or (predicted, empirical) in _COMPATIBLE)


# ---------------------------------------------------------------------------
# Orbit frames
# ---------------------------------------------------------------------------

def _cmp(a, b) -> int:
    return (a > b) - (a < b)


class OrbitFrame:
    """The sorted engine keys of a ball's residue cosets.

    points (one representative element per key, in key order), words
    ({point: word}) and word_of exist only on build_frame frames; on an
    orbit_frame frame points and words are None.
    """

    def __init__(self, engine, keys: list, points: list | None = None,
                 words: dict | None = None):
        self.engine = engine
        self.keys = keys
        self.points = points
        self.words = words

    def __len__(self):
        return len(self.keys)

    def cmp_elements(self, u, v) -> int:
        """>0 iff the coset of u lies above the coset of v."""
        return _cmp(self.engine.key(u), self.engine.key(v))

    def locate(self, x) -> tuple[int, bool]:
        """(insertion index, found) of x's orbit point."""
        return self.locate_key(self.engine.key(x))

    def locate_key(self, k) -> tuple[int, bool]:
        """(insertion index, found): binary search on the keys."""
        i = bisect_left(self.keys, k)
        return i, i < len(self.keys) and self.keys[i] == k

    def index_of(self, x):
        i, found = self.locate(x)
        return i if found else None

    def word_of(self, i: int) -> str:
        return self.words[self.points[i]]

    def __repr__(self):
        return f"OrbitFrame({len(self.keys)} points, engine={self.engine!r})"


def build_frame(engine, generators: dict, basepoint=None, radius: int = 3) -> OrbitFrame:
    """Radius-L ball deduplicated into cosets and sorted by the engine's keys.

    Deterministic: each coset keeps the ball element whose word (ball's
    word, the first one breadth-first search finds) has the fewest
    characters, ties broken by string order.  One sort of the tuples
    (key, len(word), word, element) does both at once.

    The ball is walked once, in breadth-first order.  A generator h with
    key(h) = key(basepoint) fixes the basepoint's orbit point, so by left
    invariance key(x h) = act(x)(key(h)) = key(x).  The word of x h is x's
    word, "*" and h's name, which is longer, so x h never represents its
    coset: every element reached by such a generator is skipped unkeyed.
    The generator is read off the word's last name, so nothing is skipped
    when a generator name is empty or contains "*".
    """
    elements = ball(generators, radius, identity=basepoint)
    skip = all(name and "*" not in name for name in generators)
    fixes = set()  # generator names that fix the basepoint's orbit point
    keyed = []
    for el, word in elements.items():
        star, name = word.rpartition("*")[1:]
        if name in fixes:
            continue
        k = engine.key(el)
        keyed.append((k, len(word), word, el))
        if skip and word and not star and k == keyed[0][0]:
            fixes.add(name)
    keyed.sort()
    points, words, keys = [], {}, []
    for k, _, word, el in keyed:
        if not keys or keys[-1] != k:
            points.append(el)
            words[el] = word or "e"
            keys.append(k)
    return OrbitFrame(engine, keys, points, words)


def orbit_frame(engine, generators: dict, radius: int = 3) -> OrbitFrame:
    """The keys of build_frame(engine, generators, radius=radius), by a
    breadth-first search in key space; a keys-only frame.

    The radius-r ball is the radius-(r - 1) ball and its products h x by a
    generator or inverse h on the left, and key(h x) = act(h)(key(x)); so
    applying each generator's act to the keys of the last sphere, from the
    identity's key, reaches every key of the ball and no other.  The
    generators are ball's (expand_generators), and so is the identity.  A
    key reached by act(h) skips act(h^-1), which leads back to its parent's
    key.  Composes no element, and sorts the distinct keys once.
    """
    gens, undo = expand_generators(generators)
    some = next(iter(generators.values()))
    start = engine.key(some * some.inverse())
    acts = {name: engine.act(h) for name, h in gens.items()}
    seen = {start}
    frontier = [(start, None)]
    for _ in range(radius):
        new = []
        for k, back in frontier:
            for name, act in acts.items():
                if name != back:
                    c = act(k)
                    if c not in seen:
                        seen.add(c)
                        new.append((c, undo.get(name)))
        frontier = new
    return OrbitFrame(engine, sorted(seen))


def induced_map(frame: OrbitFrame, g) -> dict[int, int]:
    """Partial self-map of frame indices: i -> j when g . points[i] lands on
    a frame coset; strictly monotone where defined."""
    act = frame.engine.act(g)
    out = {}
    for i, k in enumerate(frame.keys):
        j, found = frame.locate_key(act(k))
        if found:
            out[i] = j
    return out


# ---------------------------------------------------------------------------
# Empirical classification
# ---------------------------------------------------------------------------

_SAMPLES = 48  # the frame indices classify_empirical reads first


def _sample_indices(n: int) -> list[int]:
    if n <= _SAMPLES:
        return list(range(n))
    step = (n - 1) / (_SAMPLES - 1)
    return sorted({round(i * step) for i in range(_SAMPLES)})


def _escape(frame: OrbitFrame, act, i: int, power_bound: int) -> str:
    """'up'/'down' when the orbit of points[i] under act (an engine's
    act(g)) leaves the frame span, else 'bounded' (includes reaching a
    fixed coset).

    Escape is relative to the frame: an orbit that is bounded in the full
    order but overshoots the deepest ball elements still reads as escaping
    at this radius.
    """
    lo, hi = frame.keys[0], frame.keys[-1]
    ky = frame.keys[i]
    for _ in range(power_bound):
        kz = act(ky)
        if kz == ky:
            return "bounded"
        ky = kz
        if ky > hi:
            return "up"
        if ky < lo:
            return "down"
    return "bounded"


def _outermost_fixed(g: PLMap, side: str):
    """The raw position of g's outermost fixed point in a jump engine's
    target on side (x on the right, -x on the left), read from g's integer
    pieces from the focal end in; None when there is none or g's fixed set
    reaches that end.  The unit interval's ends, fixed by all, do not count."""
    e, ends = (1 if side == "right" else -1), [None, *g._b, None]
    for i in range(len(g._p))[::-e]:
        (sn, sd, on, od), lo, hi = g._p[i], ends[i], ends[i + 1]
        if sn == sd and not on:  # an identity piece: its outer end
            x = hi if e > 0 else lo
            return x and _position(e * x[0], x[1])
        n, d = on * sd, od * (sd - sn)  # x = o / (1 - s); none when d = 0
        n, d = (n, d) if d > 0 else (-n, -d)
        if (d and (lo is None or lo[0] * d <= n * lo[1])
                and (hi is None or n * hi[1] <= hi[0] * d)
                and (g.model == "line" or 0 < n < d)):
            return _position(e * n, d)
    return None


def classify_empirical(frame: OrbitFrame, g, power_bound: int = 8) -> DynType:
    """Ordinal certificate for the dynamics of g on the realized order.

    On a jump engine's frame, g is Inconclusive when it fixes a point at
    or beyond the horizon, the outermost raw position of a key's top entry
    (the frame sees g no further out).  Fixed extreme cosets bracket every
    orbit (TotallyBounded); a one-sided drift is TotallyBounded when
    interior quartile orbits stay inside the frame span for power_bound
    steps in both directions.  Otherwise the orbit of the top coset
    decides: escaping upward is expanding, escaping upward under the
    inverse is contracting.  A clean single sign change in the direction
    pattern with exactly one fixed coset upgrades a pseudohomothety to a
    homothety.  Anything else is Inconclusive.
    """
    engine, keys = frame.engine, frame.keys
    side = getattr(engine, "side", None)
    outer = side and _outermost_fixed(g, side)
    if outer and outer >= max((k[1][3] for k in keys if len(k) > 2), default=outer):
        return DynType.INCONCLUSIVE
    act = engine.act(g)
    n = len(keys)
    idx = _sample_indices(n)
    dirs = [_cmp(act(keys[i]), keys[i]) for i in idx]
    if dirs[0] == 0 and dirs[-1] == 0:
        # the extremes are fixed cosets, so every orbit stays between them
        return DynType.TOTALLY_BOUNDED
    back = engine.act(g.inverse())
    if len({d for d in dirs if d != 0}) == 1:
        # one-sided drift: bounded iff interior orbits stay inside the span
        interior = {n // 4, n // 2, (3 * n) // 4}
        if all(_escape(frame, h, i, power_bound) == "bounded"
               for i in interior for h in (act, back)):
            return DynType.TOTALLY_BOUNDED
        return DynType.INCONCLUSIVE

    fwd = _escape(frame, act, n - 1, power_bound)
    bwd = _escape(frame, back, n - 1, power_bound)
    if fwd == "up" and bwd != "up":
        expanding = True
    elif bwd == "up" and fwd != "up":
        expanding = False
    else:
        return DynType.INCONCLUSIVE

    clean = ([-1, 1], [-1, 0, 1]) if expanding else ([1, -1], [1, 0, -1])
    fixed = -1
    if [d for d, _ in groupby(dirs)] in clean:
        # zoom into the sign transition and count fixed cosets exactly
        sgn = -1 if expanding else 1
        a = max(i for i, d in zip(idx, dirs) if d == sgn)
        b = min(i for i, d in zip(idx, dirs) if d == -sgn)
        fixed = sum(1 for i in range(a, b + 1) if act(keys[i]) == keys[i])
    if expanding:
        return (DynType.HOMOTHETY_EXPANDING if fixed == 1
                else DynType.EXPANDING_PSEUDOHOMOTHETY)
    return (DynType.HOMOTHETY_CONTRACTING if fixed == 1
            else DynType.CONTRACTING_PSEUDOHOMOTHETY)


# ---------------------------------------------------------------------------
# Predicted classification from exact germ and fixed-point data
# ---------------------------------------------------------------------------

def classify_predicted(g: PLMap, side: str = "right") -> DynType:
    """Expected dynamical type of g in a realization focused at one end.

    side is the focal end in JumpEngine.side's terms: "right" is +infinity
    (line model) or 1 (unit model), "left" is -infinity or 0.  The germ at
    the focal end, g's last or first piece x -> s*x + o, decides: trivial
    germ means TotallyBounded; a germ moving points toward the end is
    expanding, away is contracting (unit model: s < 1 expands at either
    end; line model: s > 1, or s = 1 with o moving points toward the end,
    expands); a pseudohomothety upgrades to a homothety when g has no fixed
    points in the model (interior fixed points, for the unit model).
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    sn, sd, on, _ = g._p[-1] if side == "right" else g._p[0]
    if g.model == "unit":
        trivial, expanding = sn == sd, sn < sd
    else:
        toward = on if side == "right" else -on
        trivial, expanding = sn == sd and on == 0, sn > sd or (sn == sd and toward > 0)
    if trivial:
        return DynType.TOTALLY_BOUNDED
    fixed_free = _outermost_fixed(g, side) is None  # the germ is not trivial
    if expanding:
        return (DynType.HOMOTHETY_EXPANDING if fixed_free
                else DynType.EXPANDING_PSEUDOHOMOTHETY)
    return (DynType.HOMOTHETY_CONTRACTING if fixed_free
            else DynType.CONTRACTING_PSEUDOHOMOTHETY)


# ---------------------------------------------------------------------------
# Cross-free covers
# ---------------------------------------------------------------------------

def cf_cover_check(frame: OrbitFrame, intervals) -> dict:
    """Pairwise non-crossing verdict and span coverage for closed index
    intervals [a, b].

    [a, b] and [c, d] are disjoint iff b + 1 <= c or d + 1 <= a, and nested
    iff [a, b + 1) and [c, d + 1) are, so their nesting forest decides; the
    witness is the first crossing (i, j), i < j, its (a, -b) pass meets.
    """
    intervals = [tuple(sorted(map(int, iv))) for iv in intervals]
    _, crossing = nesting_forest((a, b + 1) for a, b in intervals)
    covered: set[int] = set()
    for a, b in intervals:
        covered.update(range(a, b + 1))
    return {"crossFree": crossing is None,
            "witness": crossing,
            "covering": set(range(len(frame))) <= covered}
