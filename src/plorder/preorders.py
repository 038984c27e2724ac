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
from bisect import bisect_left
from fractions import Fraction
from itertools import count
from operator import add

from .exactnum import LatticePreorder, NotInGroup, SlopeGroup, is_prime, valuation
from .plgroup import ModelMismatch, PLMap, _lowest, f_big_generator, tau1


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
# The orbit of one seed, and the restriction preorder on F_+
# ---------------------------------------------------------------------------

class DiscreteInvariantSet:
    """K = {s(n)}, the anchor-orbit of one seed, discrete in (0,1) and
    indexed upward: s(0) is the seed and s(n + 1) > s(n).

    The anchor must have no interior fixed points; the orbit then
    accumulates only at the endpoints, so K meets every compact subinterval
    of (0,1) in a finite computable set.
    """

    def __init__(self, anchor: PLMap, seed=Fraction(1, 2)):
        if anchor.model != "unit":
            raise ValueError("anchor must be a unit-interval map")
        fixed = anchor.fixed_structure().fixed
        if fixed != [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]:
            raise ValueError("anchor must fix only the endpoints")
        seed = Fraction(seed)
        if not 0 < seed < 1:
            raise ValueError("seeds must lie in (0,1)")
        self.anchor, self.seed = anchor, seed
        self._up = anchor if anchor(seed) > seed else anchor.inverse()
        self._down = self._up.inverse()
        # the walked orbit: s(0), s(1), ... rising and s(0), s(-1), ... falling
        self._above, self._below = [seed], [seed]

    def s(self, n: int) -> Fraction:
        """The n-th orbit point, cached with every point walked to reach it."""
        pts, f, m = (self._above, self._up, n) if n >= 0 else (self._below, self._down, -n)
        while len(pts) <= m:
            pts.append(f(pts[-1]))
        return pts[m]

    def index(self, x: Fraction) -> int:
        """The least n with s(n) >= x, for x in (0, 1): a bisection of the
        walked orbit, which walks on only past its ends."""
        if x > self.seed:
            while self._above[-1] < x:
                self.s(len(self._above))
            return bisect_left(self._above, x)
        while self._below[-1] >= x:
            self.s(-len(self._below))
        return 1 - bisect_left(self._below, True, key=lambda y: y < x)

    def points_desc(self, upper: Fraction):
        """K-points strictly below upper, in decreasing order (lazy).  K
        accumulates at 0 and 1, so upper must lie in (0, 1)."""
        if not 0 < upper < 1:
            raise ValueError(f"upper = {upper} must lie in (0, 1)")
        yield from map(self.s, count(self.index(upper) - 1, -1))


def xg(g: PLMap, K: DiscreteInvariantSet):
    """sup{x in K : g(x) != x}, or None when g fixes K pointwise: s(n) for
    n the index of the first jump of g's restriction walk.  Requires
    tau1(g) = 0 (trivial right germ)."""
    n = next(RestrictionEngine(K)._walk(g, IDENTITY_KEY), (None,))[0]
    return None if n is None else K.s(n)


def restriction_sign(g: PLMap, K: DiscreteInvariantSet) -> Sign:
    """Positive iff g moves its outermost moved K-point up."""
    return RestrictionEngine(K).sign(g)


# ---------------------------------------------------------------------------
# Step-profile keys: signed jumps read from the outer end
# ---------------------------------------------------------------------------
# The jump and prime engines key g by the step profile y -> value(slope of g
# at g^-1(y)) for a value additive in the slope, and the Plante engine keys
# a wreath element by its lamps.  By the chain rule the slope of v^-1 u at
# u^-1(y) is the slope of u at u^-1(y) over that of v at v^-1(y), so the
# sign of v^-1 u is the order of the profiles of u and v at their outermost
# difference, and (g x)' = g'(x) x' makes the profile of g x at z g's at z
# plus x's at g^-1(z).

def _profile(outer: tuple, jumps, signed=None) -> tuple:
    """The key (outer, (s, c, v, p), ..., (0,)) of a step profile: its
    outer value, then one entry per nonzero jump v at raw position p, for
    (p, v) in decreasing position, where s = +-1 is the sign of v and c
    sorts as s*t: s*p for integer positions, else signed(s, p), a code.

    Two profiles that agree above a point have the same entries there, and
    at that point comparing the jumps compares the summed values, so tuple
    order is the order of the profiles at their outermost difference.
    """
    zero = (0,) * len(outer)
    out = [outer]
    for p, v in jumps:
        if v != zero:
            s = 1 if v > zero else -1
            out.append((s, s * p if signed is None else signed(s, p), v, p))
    out.append((0,))
    return tuple(out)


def _profile_act(gkey: tuple, push, signed=None):
    """k -> the key of g x for gkey = key(g) and k = key(x), when the
    profile of g x is g's plus x's moved by g: x's jumps go to their raw
    positions' images under push and merge with g's (raw positions compare
    as positions), jumps on one point add, and the outer values add."""
    g0, gents = gkey[0], gkey[1:-1]
    zero = (0,) * len(g0)
    gps = [e[3] for e in gents]
    ng = len(gps)

    def act(k: tuple) -> tuple:
        out = [tuple(map(add, g0, k[0]))]
        i = 0
        for s, _, v, p in k[1:-1]:
            p = push(p)
            while i < ng and gps[i] > p:
                out.append(gents[i])
                i += 1
            if i < ng and gps[i] == p:
                v = tuple(map(add, gents[i][2], v))
                i += 1
                if v == zero:
                    continue
                s = 1 if v > zero else -1
            out.append((s, s * p if signed is None else signed(s, p), v, p))
        out += gents[i:]
        out.append((0,))
        return tuple(out)

    return act


def _key_sign(key: tuple) -> Sign:
    """Sign of g from its profile key: the identity's key is (0-value, (0,))."""
    ident = ((0,) * len(key[0]), (0,))
    return Sign((key > ident) - (key < ident))


def _position(n: int, d: int) -> tuple:
    """The raw position (code, n, d) of n/d, d > 0, in lowest terms.  The
    code lists the continued-fraction terms from Euclid's algorithm as
    0, +-a_i, signs alternating from +, closed by the sign opposite the
    last term's for the infinite term after it: tuple order is the order
    of the rationals, one code each.  Euclid's last divisor is gcd(n, d)."""
    code, s, a, b = [], 1, n, d
    while b:
        q, r = divmod(a, b)
        code += 0, s * q
        a, b, s = b, r, -s
    return (*code, s), n // a, d // a


def _signed_code(s: int, p: tuple) -> tuple:
    """The code of s*t, for p the raw position of t."""
    return p[0] if s > 0 else _position(-p[1], p[2])[0]


def _breaks(g: PLMap, side: str) -> list:
    """(p, (n, d)) per breakpoint b of g, read from the outer end: p is the
    raw position of t = g(b) on the right and -g(b) on the left, and n/d,
    not reduced, is the inner slope over the outer one, the one on b's side
    toward the outer end.  Read from g's integer pieces; no Fraction."""
    out = []
    for (xn, xd), (sn, sd, on, od), (rn, rd, _, _) in zip(g._b, g._p, g._p[1:]):
        n, d = sn * xn * od + on * sd * xd, sd * xd * od
        out.append((_position(n, d), (sn * rd, sd * rn)) if side == "right"
                   else (_position(-n, d), (rn * sd, rd * sn)))
    return out[::-1] if side == "right" else out


def _focal(side: str) -> int:
    """+1 for the focal end "right", -1 for "left"; any other side raises."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return 1 if side == "right" else -1


def _push(g: PLMap, side: str):
    """p -> the raw position of g(y), for p that of y = +-n/d, through g's
    integer pieces: the piece found by cross-multiplication."""
    e, bps, pieces = _focal(side), g._b, g._p

    def push(p: tuple) -> tuple:
        n, d = e * p[1], p[2]
        sn, sd, on, od = pieces[sum(bn * d <= n * bd for bn, bd in bps)]
        return _position(e * (sn * n * od + on * sd * d), sd * d * od)

    return push


class JumpEngine:
    """Jump preorder; by default on <2> with the lexicographic order.  The
    key reads slopes relative to the outer slope, so its outer value is 0,
    and its jump at a breakpoint b is the row values of D^-g(b) / D^+g(b)
    on the right side (the factor jump_cocycle multiplies) or
    D^+g(b) / D^-g(b) on the left, memoised per engine on that ratio as an
    integer pair in lowest terms (a ratio outside the group raises and is
    not stored)."""

    def __init__(self, side: str = "right",
                 group: SlopeGroup | None = None,
                 order: LatticePreorder | None = None):
        _focal(side)
        self.side = side
        self.group = group or SlopeGroup([2])
        self.order = order or LatticePreorder.lex(self.group.rank)
        self._values = {}

    def _value(self, ratio) -> tuple[int, ...]:
        """The row values of n/d for ratio = (n, d), d > 0."""
        ratio = _lowest(*ratio)
        v = self._values.get(ratio)
        if v is None:
            try:
                v = self.order.values(self.group.decompose(Fraction(*ratio)))
            except NotInGroup as e:
                raise SlopeNotInGroup(str(e)) from None
            self._values[ratio] = v
        return v

    def key(self, g: PLMap) -> tuple:
        jumps = [(p, self._value(r)) for p, r in _breaks(g, self.side)]
        return _profile((0,) * len(self.order.rows), jumps, _signed_code)

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x): by the chain rule x's jumps move
        through g and add to g's."""
        return _profile_act(self.key(g), _push(g, self.side), _signed_code)

    def sign(self, g: PLMap) -> Sign:
        return _key_sign(self.key(g))

    def __repr__(self):
        return (f"JumpEngine(side={self.side!r}, group={self.group!r}, "
                f"order={self.order!r})")


# ---------------------------------------------------------------------------
# Prime-jump preorders on PL_Q
# ---------------------------------------------------------------------------

class PrimeJumpEngine:
    """Sign of D_q^- g at the largest x where it differs from 1, where
    D_q^- g(x) = q^{nu_q(D^- g(x))}."""

    def __init__(self, q: int):
        q = int(q)
        if not is_prime(q):
            raise ValueError(f"prime:q needs a prime q >= 2, got {q}")
        self.q = q

    def key(self, g: PLMap) -> tuple:
        """Profile of nu_q of the left derivative, read from the top: the
        outer value is nu_q of the last slope, and each jump the difference
        of nu_q on the two pieces at a breakpoint."""
        q = self.q
        sn, sd, _, _ = g._p[-1]
        return _profile((valuation(sn, q) - valuation(sd, q),),
                        [(p, (valuation(n, q) - valuation(d, q),))
                         for p, (n, d) in _breaks(g, "right")], _signed_code)

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x); nu_q is additive in the slope."""
        return _profile_act(self.key(g), _push(g, "right"), _signed_code)

    def sign(self, g: PLMap) -> Sign:
        return _key_sign(self.key(g))

    def __repr__(self):
        return f"PrimeJumpEngine(q={self.q})"


# ---------------------------------------------------------------------------
# Escaping-sequence order for F
# ---------------------------------------------------------------------------

class EscapingContext(DiscreteInvariantSet):
    """The bi-infinite sequence s_n = f0^n(s0) of a base element f0 with
    tau1(f0) = 1, checked as a discrete invariant set."""

    def __init__(self, f0: PLMap | None = None, s0=Fraction(1, 2)):
        f0 = f0 or f_big_generator()
        if tau1(f0) != 1:
            raise ValueError("base element must have tau1 = 1")
        super().__init__(f0, s0)
        self.f0, self.s0 = f0, self.seed


IDENTITY_KEY = ((0,), (0,))  # the identity's entries are the orbit itself


class EscapingEngine:
    """Order of the sequences g.s, (g.s)_n = g(s_{n - tau1(g)}), compared at
    their top disagreement index.  g's key is the step profile from the top
    of r(n) = (g.s)_n / s_n: its nonzero jumps r(n) - r(n + 1) at orbit
    indices n.  s_n > 0, so two profiles first differ where the sequences
    do, in the same sense, and key(u) < key(v) iff v^-1 u is Negative."""

    def __init__(self, ctx: DiscreteInvariantSet | None = None):
        self.ctx = ctx or EscapingContext()
        bps = self.ctx.anchor.breakpoints  # low: the top index with s below bps[0]
        self._top, self._low, self._hi = bps[-1], self.ctx.index(bps[0]) - 1, {}

    def _tau(self, g: PLMap) -> int:
        if g.model != "unit":
            raise ModelMismatch("unit-interval maps only")
        return tau1(g)

    def _walk(self, g: PLMap, k: tuple):
        """The nonzero jumps (n, (r(n) - r(n + 1),)) of r(n) = (g.x.s)_n / s_n
        from the top down, for k = key(x): (g.x.s)_n = g((x.s)_{n - t}),
        t = tau1(g), and (x.s)_m is s_m (1 + k's jumps at indices >= m).
        r(n) = 1 from max(hi + max(t, 0), x's top jump + t + 1) up, hi the
        least index with s_hi >= every breakpoint of g and the anchor, above
        which g is the anchor's power t.  It stops after the first n with
        (1) n <= low + min(t, 0): s_n and s_{n - t} lie in the anchor's linear
        germ at 0, in a constant ratio from n down; (2) every jump of k
        consumed: x's ratio is constant from n - t down; (3) x's entry at
        n - t below g's first breakpoint: g is linear on x's entries from
        there down.  Each is monotone in n, so r is constant below that n."""
        t, s, bps = self._tau(g), self.ctx.s, g._b
        xjumps = [(p, v) for _, _, (v,), p in k[1:-1]]
        top = bps[-1] if bps else (0, 1)
        hi = self._hi.get(top)  # memoised per top breakpoint
        if hi is None:
            hi = self._hi[top] = self.ctx.index(max(self._top, Fraction(*top)))
        n = max([hi + max(t, 0)] + [m + t + 1 for m, _ in xjumps[:1]])
        low, i, rx, r = self._low + min(t, 0), 0, 1, 1
        while True:
            n -= 1
            while i < len(xjumps) and xjumps[i][0] >= n - t:
                rx += xjumps[i][1]
                i += 1
            y = rx * s(n - t) if i else s(n - t)
            gy, sn = g(y), s(n)
            rn = 1 if gy == sn else gy / sn
            if rn != r:
                yield n, (rn - r,)
                r = rn
            if n <= low and i == len(xjumps) and (not bps or y < Fraction(*bps[0])):
                return

    def key(self, g: PLMap) -> tuple:
        return _profile((0,), self._walk(g, IDENTITY_KEY))

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x), read off x's entries: no product."""
        return lambda k: _profile((0,), self._walk(g, k))

    def sign(self, g: PLMap) -> Sign:
        """The sign of the first jump of g's walk."""
        for _, (v,) in self._walk(g, IDENTITY_KEY):
            return Sign.POSITIVE if v > 0 else Sign.NEGATIVE
        return Sign.RESIDUE

    def __repr__(self):
        return f"{type(self).__name__}(s0={self.ctx.seed})"


class RestrictionEngine(EscapingEngine):
    """The restriction preorder on F_+: u is above v iff u(x) > v(x) at the
    top K-point x where they differ, the escaping order over K's orbit (any
    anchor) on tau1 = 0.  Build it as RestrictionEngine(K), K its ctx; key,
    act and sign raise NotInFPlus off F_+."""

    def _tau(self, g: PLMap) -> int:
        if g.model != "unit":
            raise NotInFPlus("unit-interval maps only")
        if tau1(g):
            raise NotInFPlus(f"tau1 = {tau1(g)}")
        return 0

    sign = EscapingEngine.sign  # in the class body, where perfbench's tracer patches it


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
