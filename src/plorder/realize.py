"""Finite-scale dynamical realizations of preorder engines.

A frame is the radius-L ball of the group as sorted, deduplicated engine
keys (one key per residue coset, i.e. per orbit point).  An element g acts
on the frame's orbit points through engine.act(g), which maps key(x) to
key(g x) without forming g x; classify_empirical reads off the dynamical
type of g from the trajectories of the frame extremes, and
classify_predicted derives the expected type from exact germ data.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import groupby
from operator import itemgetter

from .plgroup import PLMap, ball, crossing_pair


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
    if empirical is DynType.INCONCLUSIVE or predicted == empirical:
        return True
    return (predicted, empirical) in _COMPATIBLE


# ---------------------------------------------------------------------------
# Orbit frames
# ---------------------------------------------------------------------------

def _cmp(a, b) -> int:
    return (a > b) - (a < b)


class OrbitFrame:
    """Sorted residue-coset representatives of a ball, with their words and
    their engine keys."""

    def __init__(self, engine, points, words: dict, keys):
        self.engine = engine
        self.points = list(points)
        self.words = dict(words)
        self.keys = list(keys)

    def __len__(self):
        return len(self.points)

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
        return f"OrbitFrame({len(self.points)} points, engine={self.engine!r})"


def build_frame(engine, generators: dict, basepoint=None, radius: int = 3) -> OrbitFrame:
    """Radius-L ball deduplicated into cosets and sorted by the engine's keys.

    Deterministic: ball elements are ordered by (word length, word) and
    stably sorted by key, and the first representative of each coset
    (hence a shortest word) is kept.
    """
    elements = ball(generators, radius, identity=basepoint)
    items = sorted(elements.items(), key=lambda kv: (len(kv[1]), kv[1]))
    keyed = sorted(((engine.key(el), el, word) for el, word in items),
                   key=itemgetter(0))
    points, words, keys = [], {}, []
    for k, el, word in keyed:
        if not keys or keys[-1] != k:
            points.append(el)
            words[el] = word or "e"
            keys.append(k)
    return OrbitFrame(engine, points, words, keys)


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

def _sample_indices(n: int, budget: int = 48) -> list[int]:
    if n <= budget:
        return list(range(n))
    step = (n - 1) / (budget - 1)
    return sorted({round(i * step) for i in range(budget)})


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


def classify_empirical(frame: OrbitFrame, g, power_bound: int = 8) -> DynType:
    """Ordinal certificate for the dynamics of g on the realized order.

    Fixed extreme cosets bracket every orbit (TotallyBounded); a one-sided
    drift is TotallyBounded when interior quartile orbits stay inside the
    frame span for power_bound steps in both directions.  Otherwise the
    orbit of the top coset decides: escaping upward is expanding, escaping
    upward under the inverse is contracting.  A clean single sign change in
    the direction pattern with exactly one fixed coset upgrades a
    pseudohomothety to a homothety.  Anything else is Inconclusive.
    """
    engine, keys = frame.engine, frame.keys
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

def _mirror(g: PLMap) -> PLMap:
    """r g r for the reflection r: x -> -x (line) or x -> 1 - x (unit); its
    germ at the right end is g's germ at the left end, turned around."""
    c = 0 if g.model == "line" else 1
    return PLMap(g.model, [c - b for b in reversed(g.breakpoints)],
                 list(reversed(g.slopes)),
                 [c - c * s - o for s, o in zip(reversed(g.slopes), reversed(g.offsets))])


def classify_predicted(g: PLMap, side: str = "right") -> DynType:
    """Expected dynamical type of g in a realization focused at one end.

    side is the focal end in JumpEngine.side's terms: "right" is +infinity
    (line model) or 1 (unit model), "left" is -infinity or 0, read as the
    right end of the mirror image of g.  The germ at the focal end decides:
    trivial germ means TotallyBounded; a germ moving points toward the end
    is expanding, away is contracting (unit model at 1: slope < 1 expands;
    line model at +infinity: slope > 1, or slope 1 with positive offset,
    expands); a pseudohomothety upgrades to a homothety when g has no fixed
    points in the model (interior fixed points, for the unit model).
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if side == "left":
        g = _mirror(g)
    if g.is_identity():
        return DynType.TOTALLY_BOUNDED
    if g.model == "unit":
        s = g.slopes[-1]
        trivial, expanding = s == 1, s < 1
        fixed_free = not any(hi > 0 and lo < 1 for lo, hi in g.fixed_structure().fixed)
    else:
        s, c = g.germ("+inf")
        trivial, expanding = s == 1 and c == 0, s > 1 or (s == 1 and c > 0)
        fixed_free = not g.fixed_structure().fixed
    if trivial:
        return DynType.TOTALLY_BOUNDED
    if expanding:
        return (DynType.HOMOTHETY_EXPANDING if fixed_free
                else DynType.EXPANDING_PSEUDOHOMOTHETY)
    return (DynType.HOMOTHETY_CONTRACTING if fixed_free
            else DynType.CONTRACTING_PSEUDOHOMOTHETY)


# ---------------------------------------------------------------------------
# Cross-free covers and homothety evidence
# ---------------------------------------------------------------------------

def cf_cover_check(frame: OrbitFrame, intervals) -> dict:
    """Pairwise non-crossing verdict and span coverage for closed index
    intervals [a, b].

    [a, b] and [c, d] are disjoint iff b + 1 <= c or d + 1 <= a, and nested
    iff (a, b + 1) and (c, d + 1) are, so the open-interval check decides.
    """
    intervals = [tuple(sorted(map(int, iv))) for iv in intervals]
    crossing = crossing_pair((a, b + 1) for a, b in intervals)
    covered: set[int] = set()
    for a, b in intervals:
        covered.update(range(a, b + 1))
    return {"crossFree": crossing is None,
            "witness": crossing,
            "covering": set(range(len(frame))) <= covered}


class NoFixedPoint(ValueError):
    pass


def homothety_witness(engine, g, test_points, fixed_point=None,
                      max_power: int = 16) -> bool:
    """Homothetic-type evidence: around a fixed coset of g, every other test
    point is eventually pushed past all the rest by some power of g (or of
    its inverse, for the contracting direction).

    When fixed_point is given it must be fixed by g (NoFixedPoint
    otherwise); when omitted, a fixed test point is searched for, and False
    is returned if there is none.
    """
    pts = list(test_points)
    keys = [engine.key(x) for x in pts]
    act = engine.act(g)
    if fixed_point is not None:
        center = engine.key(fixed_point)
        if act(center) != center:
            raise NoFixedPoint("g does not fix the designated point")
    else:
        center = next((k for k in keys if act(k) == k), None)
        if center is None:
            return False

    def escapes(h_act) -> bool:
        for x, kx in zip(pts, keys):
            side = _cmp(kx, center)
            if side == 0:
                continue
            ky = kx
            for _ in range(max_power):
                ky = h_act(ky)
                if all(_cmp(ky, kp) == side
                       for p, kp in zip(pts, keys) if p is not x):
                    break
            else:
                return False
        return True

    return escapes(act) or escapes(engine.act(g.inverse()))
