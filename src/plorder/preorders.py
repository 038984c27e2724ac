"""Left-invariant preorder engines on PL groups.

Every engine exposes sign(g) -> Sign with the cone contract: the Positive
set is a semigroup, sign(g^-1) = -sign(g), the Residue set is a subgroup,
and Residue * Positive * Residue stays Positive.  Every engine also gives
each element g an orbit point key(g) whose order is the preorder:
key(u) < key(v) iff sign(v^-1 u) is Negative, and equal iff it is Residue.
The group acts on the orbit points: act(g) is the map key(x) -> key(g x),
so a realization moves its points without forming the products g x.
Four constructions are provided: restriction to a discrete invariant set,
jump cocycles against a lattice preorder, prime jumps for rational-slope
maps, and escaping orbit sequences for cyclic-germ groups.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from fractions import Fraction
from functools import cmp_to_key
from operator import add

from .exactnum import LatticePreorder, NotInGroup, SlopeGroup, is_prime, valuation
from .plgroup import PLMap, f_big_generator, tau1


class Sign(enum.Enum):
    NEGATIVE = -1
    RESIDUE = 0
    POSITIVE = 1

    def __neg__(self):
        return Sign(-self.value)


class NotInFPlus(ValueError):
    """The element is not a unit-interval map with trivial germ at 1."""


class SlopeNotInGroup(ValueError):
    pass


# ---------------------------------------------------------------------------
# Restriction preorder on F_+
# ---------------------------------------------------------------------------

class DiscreteInvariantSet:
    """K = union of anchor-orbits of finitely many seeds, discrete in (0,1).

    The anchor must have no interior fixed points; each orbit then
    accumulates only at the endpoints, so K meets every compact subinterval
    of (0,1) in a finite computable set.
    """

    def __init__(self, anchor: PLMap, seeds=(Fraction(1, 2),)):
        if anchor.model != "unit":
            raise ValueError("anchor must be a unit-interval map")
        fixed = anchor.fixed_structure().fixed
        if fixed != [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]:
            raise ValueError("anchor must fix only the endpoints")
        seeds = tuple(Fraction(s) for s in seeds)
        if not seeds or any(not 0 < s < 1 for s in seeds):
            raise ValueError("seeds must lie in (0,1)")
        s0 = min(seeds)
        top = anchor(s0) if anchor(s0) > s0 else anchor.inverse()(s0)
        if any(not (s0 <= s < top) for s in seeds):
            raise ValueError("seeds must lie in one fundamental domain")
        self.anchor = anchor
        self.seeds = seeds
        self._up = anchor if anchor(s0) > s0 else anchor.inverse()
        self._down = self._up.inverse()

    def points_desc(self, upper: Fraction):
        """K-points strictly below upper, in decreasing order (lazy).  K
        accumulates at 0 and 1, so upper must lie in (0, 1)."""
        if not 0 < upper < 1:
            raise ValueError(f"upper = {upper} must lie in (0, 1)")
        down = self._down
        heads = []
        for s in self.seeds:
            x = s
            while x < upper:
                x = self._up(x)
            while x >= upper:
                x = down(x)
            heads.append(x)
        while True:
            i = max(range(len(heads)), key=lambda j: heads[j])
            yield heads[i]
            heads[i] = down(heads[i])


def _top_disagreement(u: PLMap, v: PLMap, K: DiscreteInvariantSet):
    """Highest x in K with u(x) != v(x), or None when u and v agree on K.

    Needs tau1(u) = tau1(v): the two maps then share their last piece and
    agree above their highest breakpoint.  Below their lowest breakpoint
    both are linear through 0, so the first K-point there decides.
    """
    if u.model != "unit" or v.model != "unit":
        raise NotInFPlus("unit-interval maps only")
    t = tau1(u) - tau1(v)
    if t:
        raise NotInFPlus(f"tau1 = {t}")
    if u == v:
        return None
    bu, bv = u.breakpoints, v.breakpoints
    lo = min(bu[:1] + bv[:1])
    for x in K.points_desc(max(bu[-1:] + bv[-1:])):
        if u(x) != v(x):
            return x
        if x <= lo:
            return None


_UNIT = PLMap.identity("unit")


def xg(g: PLMap, K: DiscreteInvariantSet):
    """sup{x in K : g(x) != x}, or None when g fixes K pointwise.
    Requires tau1(g) = 0 (trivial right germ)."""
    return _top_disagreement(g, _UNIT, K)


def restriction_sign(g: PLMap, K: DiscreteInvariantSet) -> Sign:
    """Positive iff g moves its outermost moved K-point up."""
    x = xg(g, K)
    if x is None:
        return Sign.RESIDUE
    return Sign.POSITIVE if g(x) > x else Sign.NEGATIVE


class RestrictionEngine:
    """The key of u orders it by u(x) at the top K-point where two maps
    differ (maps with the same right germ only)."""

    def __init__(self, K: DiscreteInvariantSet):
        self.K = K
        self.key = cmp_to_key(self._compare)

    def _compare(self, u: PLMap, v: PLMap) -> int:
        x = _top_disagreement(u, v, self.K)
        if x is None:
            return 0
        return 1 if u(x) > v(x) else -1

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x); the key wraps x itself."""
        key = self.key
        return lambda k: key(g * k.obj)

    def sign(self, g: PLMap) -> Sign:
        return restriction_sign(g, self.K)

    def __repr__(self):
        return f"RestrictionEngine(seeds={self.K.seeds})"


# ---------------------------------------------------------------------------
# Jump preorders: keys are slope profiles read from the outer end
# ---------------------------------------------------------------------------

def _profile_key(g: PLMap, side: str, value) -> tuple:
    """Step profile y -> value(slope of g at g^-1(y)), read from the outer end.

    The key is (value(outer slope), (s, s*y, v), ..., (0,)): one entry per
    point y = g(b) where the value changes, to v, in direction s = +-1
    (-s*y on the left side, where values are read to the right of b).
    By the chain rule the slope of v^-1 u at u^-1(y) is the slope of u at
    u^-1(y) over that of v at v^-1(y), so for a value additive in the slope
    the tuple order of two keys is the sign of v^-1 u at its outermost jump.
    """
    bps, slopes, offsets = g.breakpoints, g.slopes, g.offsets
    if side == "right":
        order, d, sy = range(len(bps) - 1, -1, -1), 0, 1
    else:
        order, d, sy = range(len(bps)), 1, -1
    prev = value(slopes[-1] if side == "right" else slopes[0])
    out = [prev]
    for i in order:
        v = value(slopes[i + d])
        if v != prev:
            s = 1 if v > prev else -1
            out.append((s, s * sy * (slopes[i] * bps[i] + offsets[i]), v))
            prev = v
    out.append((0,))
    return tuple(out)


def _profile_act(g: PLMap, gkey: tuple, side: str):
    """k -> the profile key of g x for k = the profile key of x.

    By the chain rule (g x)' = g'(x) x', so for a value additive in the
    slope the profile of g x at z is g's profile at z plus x's at g^-1(z):
    x's steps move to their images under g and merge with g's steps.  A
    step (s, c, v) lies at t = s*c, which is y (right side) or -y (left
    side), and steps are read in decreasing t.
    """
    bps, slopes, offsets = g.breakpoints, g.slopes, g.offsets
    if side == "right":
        def push(t):
            i = bisect_right(bps, t)
            return slopes[i] * t + offsets[i]
    else:
        def push(t):  # t = -y goes to -g(y)
            i = bisect_right(bps, -t)
            return slopes[i] * t - offsets[i]
    gsteps = [(s * c, v) for s, c, v in gkey[1:-1]]
    ng, g0 = len(gsteps), gkey[0]

    def act(k: tuple) -> tuple:
        xsteps = [(push(s * c), v) for s, c, v in k[1:-1]]
        nx = len(xsteps)
        vg, vx = g0, k[0]
        prev = tuple(map(add, vg, vx))
        out = [prev]
        i = j = 0
        while i < ng or j < nx:
            if j == nx or (i < ng and gsteps[i][0] >= xsteps[j][0]):
                t, vg = gsteps[i]
                i += 1
                if j < nx and xsteps[j][0] == t:
                    vx = xsteps[j][1]
                    j += 1
            else:
                t, vx = xsteps[j]
                j += 1
            v = tuple(map(add, vg, vx))
            if v != prev:
                s = 1 if v > prev else -1
                out.append((s, s * t, v))
                prev = v
        out.append((0,))
        return tuple(out)

    return act


def _key_sign(key: tuple) -> Sign:
    """Sign of g from its profile key: the identity's key is (0-value, (0,))."""
    ident = ((0,) * len(key[0]), (0,))
    return Sign((key > ident) - (key < ident))


def jump_sign(g: PLMap, side: str = "right",
              group: SlopeGroup | None = None,
              order: LatticePreorder | None = None) -> Sign:
    """Sign of j^side(g, .) at its outermost non-residue point."""
    return JumpEngine(side, group, order).sign(g)


class JumpEngine:
    """Jump preorder; by default on <2> with the lexicographic order.  The
    key values a slope by the row values of slope / outer slope, memoised
    per engine by that ratio (a ratio outside the group raises and is not
    stored)."""

    def __init__(self, side: str = "right",
                 group: SlopeGroup | None = None,
                 order: LatticePreorder | None = None):
        self.side = side
        self.group = group or SlopeGroup([2])
        self.order = order or LatticePreorder.lex(self.group.rank)
        self._values = {}

    def _value(self, ratio) -> tuple[int, ...]:
        v = self._values.get(ratio)
        if v is None:
            try:
                v = self.order.values(self.group.decompose(ratio))
            except NotInGroup as e:
                raise SlopeNotInGroup(str(e)) from None
            self._values[ratio] = v
        return v

    def key(self, g: PLMap) -> tuple:
        outer = g.slopes[-1] if self.side == "right" else g.slopes[0]
        return _profile_key(g, self.side, lambda slope: self._value(slope / outer))

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x), by the chain rule."""
        return _profile_act(g, self.key(g), self.side)

    def sign(self, g: PLMap) -> Sign:
        return _key_sign(self.key(g))

    def __repr__(self):
        return f"JumpEngine(side={self.side!r}, group={self.group!r})"


# ---------------------------------------------------------------------------
# Prime-jump preorders on PL_Q
# ---------------------------------------------------------------------------

def _prime_key(g: PLMap, q: int) -> tuple:
    """Profile of nu_q of the left derivative, read from the top; the left
    derivative is constant on each piece's half-open interval."""
    return _profile_key(g, "right", lambda slope: (valuation(slope, q),))


def prime_jump_sign(g: PLMap, q: int) -> Sign:
    """Sign of D_q^- g at the largest x where it differs from 1, where
    D_q^- g(x) = q^{nu_q(D^- g(x))}."""
    return _key_sign(_prime_key(g, q))


class PrimeJumpEngine:
    def __init__(self, q: int):
        q = int(q)
        if not is_prime(q):
            raise ValueError(f"prime:q needs a prime q >= 2, got {q}")
        self.q = q

    def key(self, g: PLMap) -> tuple:
        return _prime_key(g, self.q)

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x); nu_q is additive in the slope."""
        return _profile_act(g, self.key(g), "right")

    def sign(self, g: PLMap) -> Sign:
        return prime_jump_sign(g, self.q)

    def __repr__(self):
        return f"PrimeJumpEngine(q={self.q})"


# ---------------------------------------------------------------------------
# Escaping-sequence order for F
# ---------------------------------------------------------------------------

class EscapingContext:
    """The bi-infinite sequence s_n = f0^n(s0)."""

    def __init__(self, f0: PLMap | None = None, s0=Fraction(1, 2)):
        f0 = f0 or f_big_generator()
        if tau1(f0) != 1:
            raise ValueError("base element must have tau1 = 1")
        self.f0 = f0
        self.s0 = Fraction(s0)
        # rejects an f0 with interior fixed points and s0 outside (0,1); the
        # escaping scan bounds rely on both
        self.orbit = DiscreteInvariantSet(f0, (self.s0,))
        self._down = f0.inverse()
        self._cache = {0: self.s0}

    def s(self, n: int) -> Fraction:
        cache, m = self._cache, n
        step, f = (1, self.f0) if n > 0 else (-1, self._down)
        while m not in cache:
            m -= step
        while m != n:
            cache[m + step] = f(cache[m])
            m += step
        return cache[n]


class EscapingEngine:
    """Order of the sequences g.s, (g.s)_n = g(s_{n - tau1(g)}), compared at
    their top disagreement index.

    Above every breakpoint of u, v and f0 a map with tau1 = t agrees with
    f0^t, so both entries equal s_n there; below every breakpoint both maps
    and f0 are linear, so the entries keep a constant ratio and the first
    index there decides.  The order is invariant under the action, so
    key(u) < key(v) iff v^-1 u is Negative.
    """

    def __init__(self, ctx: EscapingContext | None = None):
        self.ctx = ctx or EscapingContext()
        self._key = cmp_to_key(self._compare)
        self._identity = self._bounds(_UNIT)

    def _bounds(self, g: PLMap):
        """(g, tau1(g), hi, lo): the entry of g is s_n for every n >= hi, and
        for n <= lo its orbit point lies below every breakpoint."""
        s, t = self.ctx.s, tau1(g)
        bps = g.breakpoints + self.ctx.f0.breakpoints
        hi = lo = 0
        while s(hi) < max(bps):
            hi += 1
        while s(lo) > min(bps):
            lo -= 1
        return g, t, hi + max(t, 0), lo + t

    def _compare(self, a, b) -> int:
        (u, tu, hu, lu), (v, tv, hv, lv) = a, b
        s = self.ctx.s
        for n in range(max(hu, hv) - 1, min(lu, lv) - 1, -1):
            x, y = u(s(n - tu)), v(s(n - tv))
            if x != y:
                return 1 if x > y else -1
        return 0

    def key(self, g: PLMap):
        return self._key(self._bounds(g))

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x); the key wraps (x, ...)."""
        key = self.key
        return lambda k: key(g * k.obj[0])

    def sign(self, g: PLMap) -> Sign:
        return Sign(self._compare(self._bounds(g), self._identity))

    def __repr__(self):
        return f"EscapingEngine(s0={self.ctx.s0})"


# ---------------------------------------------------------------------------
# Cone-axiom checker
# ---------------------------------------------------------------------------

def axioms_report(engine, samples, pair_limit: int = 4000, seed: int = 0) -> dict:
    """Check the four cone axioms on a sample of group elements.

    Verifies, on all samples and (up to pair_limit) sampled pairs:
    sign(g^-1) = -sign(g); P.P in P; Residue closed under products;
    Residue.P and P.Residue in P.  Returns {'pass': bool, 'failures': [...]}.
    """
    samples = list(samples)
    failures = []
    signs = {}
    for g in samples:
        s = engine.sign(g)
        signs[g] = s
        if engine.sign(g.inverse()) != -s:
            failures.append(("inverse-symmetry", g))
    n = len(samples)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if len(pairs) > pair_limit:
        pairs = random.Random(seed).sample(pairs, pair_limit)
    for i, j in pairs:
        g, h = samples[i], samples[j]
        sg, sh = signs[g], signs[h]
        sgh = engine.sign(g * h)
        if sg == Sign.POSITIVE and sh == Sign.POSITIVE and sgh != Sign.POSITIVE:
            failures.append(("semigroup", g, h))
        elif sg == Sign.RESIDUE and sh == Sign.RESIDUE and sgh != Sign.RESIDUE:
            failures.append(("residue-subgroup", g, h))
        elif Sign.RESIDUE in (sg, sh) and Sign.POSITIVE in (sg, sh) \
                and sgh != Sign.POSITIVE:
            failures.append(("residue-sandwich", g, h))
    return {"pass": not failures, "failures": failures,
            "samples": n, "pairs": len(pairs)}
