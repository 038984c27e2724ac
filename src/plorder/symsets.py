"""Symbolic tail sets: self-similar subsets of the line and their order.

A word pair (w1, w2) of equal length with distinct first bits generates a
Cantor set K0 = {0.b1 b2 ... : the bit stream is an infinite concatenation
of w1 and w2}.  The base tail set is the union of all integer translates
n + K0.  Images under PL maps with power-of-two slopes, dyadic breakpoints
and integer-translation end germs stay in the same class and admit a finite
canonical form: two implicit integer tails plus finitely many explicit
pieces d + 2^-k * K0.

Two such sets are compared from the right: canonical pieces are matched
top-down (splitting a piece into its two children when tops tie), and the
first unmatched piece decides.  Its supremum is alpha, the top disagreement
point; alpha(. , .) is an ultrametric kernel and the comparison is
invariant under the group action, which is what makes sign(g) =
compare(g(K), K) a left-invariant preorder.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import total_ordering
from operator import itemgetter

from .plante import MINUS_INFINITY
from .plgroup import BudgetExceeded, PLMap, int_log2
from .preorders import Sign


class NonDyadicMap(ValueError):
    pass


class DepthExceeded(BudgetExceeded):
    """An image or a comparison split pieces past its refinement guard."""


_IMAGE_DEPTH, _COMPARE_DEPTH = 500, 2000  # the piece depth and split guards


# ---------------------------------------------------------------------------
# Word pairs and the cancellation property
# ---------------------------------------------------------------------------

def cancellation_check(w1: str, w2: str, bound: int | None = None) -> bool:
    """True iff every finite word carrying one infinite concatenation of
    (w1, w2) onto another is itself such a concatenation.

    A failure is witnessed by a proper nonempty prefix p of w1 or w2 from
    which the overhang automaton (states: the |p| pending bits carried into
    the next parsed block) admits an infinite run.  The automaton is exact;
    `bound` is accepted for interface compatibility and ignored.
    """
    W = len(w1)
    if len(w2) != W or w1 == w2:
        raise ValueError("need two distinct words of equal length")
    starts = {w[:i] for w in (w1, w2) for i in range(1, W)}
    for p in starts:
        if _has_infinite_run(p, w1, w2):
            return False
    return True


def _has_infinite_run(p: str, w1: str, w2: str) -> bool:
    W = len(w1)
    n = len(p)
    succ: dict[str, set[str]] = {}

    def outs(q: str) -> set[str]:
        if q not in succ:
            out = set()
            for b in (w1, w2):
                if q + b[:W - n] in (w1, w2):
                    out.add(b[W - n:])
            succ[q] = out
        return succ[q]

    # an infinite run exists iff p reaches a cycle: depth-first search from
    # p meets a state still on its stack
    color: dict[str, int] = {}

    def has_cycle(q: str) -> bool:
        color[q] = 1
        for r in outs(q):
            c = color.get(r, 0)
            if c == 1 or (c == 0 and has_cycle(r)):
                return True
        color[q] = 2
        return False

    return has_cycle(p)


class WordPair:
    """Validated generator pair for a tail-set system.

    Requires equal length, distinct first bits, the cancellation property,
    and disjoint child windows (so every point has a unique block stream).
    """

    __slots__ = ("w1", "w2", "width", "top", "bottom", "child_offsets", "hull_ints")

    def __init__(self, w1: str = "10001", w2: str = "01110"):
        if not set(w1 + w2) <= {"0", "1"}:
            raise ValueError("binary words only")
        if len(w1) != len(w2):
            raise ValueError("words must have equal length")
        if w1[0] == w2[0]:
            raise ValueError("first bits must differ")
        if w1[0] == "0":
            w1, w2 = w2, w1
        W = len(w1)
        top = Fraction(int(w1, 2), (1 << W) - 1)      # value of 0.(w1 w1 ...)
        bottom = Fraction(int(w2, 2), (1 << W) - 1)
        if not 0 < bottom < top < 1:
            raise ValueError("tail values must lie in (0,1)")
        off1 = Fraction(int(w1, 2), 1 << W)
        off2 = Fraction(int(w2, 2), 1 << W)
        scale = Fraction(1, 1 << W)
        # children of the unit cell, lowest first
        if off2 + scale * top >= off1 + scale * bottom:
            raise ValueError("child windows overlap")
        if not cancellation_check(w1, w2):
            raise ValueError("word pair fails the cancellation property")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "width", W)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "child_offsets", (off2, off1))
        # (M, B, T) = (2^W - 1, int(w2, 2), int(w1, 2)), unreduced, for _hull
        object.__setattr__(self, "hull_ints", ((1 << W) - 1, int(w2, 2), int(w1, 2)))

    def __setattr__(self, *a):
        raise AttributeError("WordPair is immutable")

    def __eq__(self, other):
        if not isinstance(other, WordPair):
            return NotImplemented
        return (self.w1, self.w2) == (other.w1, other.w2)

    def __hash__(self):
        return hash((self.w1, self.w2))

    def __repr__(self):
        return f"WordPair({self.w1!r}, {self.w2!r})"

    def contains_unit(self, t: Fraction) -> bool:
        """Membership of t in K0, by descending block choices with cycle
        detection (a revisited value has a periodic valid stream)."""
        W = self.width
        seen = set()
        while True:
            if t == self.top or t == self.bottom:
                return True
            if not self.bottom < t < self.top:
                return False
            if t in seen:
                return True
            seen.add(t)
            scale = Fraction(1, 1 << W)
            for off in self.child_offsets:
                lo = off + scale * self.bottom
                hi = off + scale * self.top
                if lo <= t <= hi:
                    t = (t - off) * (1 << W)
                    break
            else:
                return False


# ---------------------------------------------------------------------------
# Tail sets
# ---------------------------------------------------------------------------

_Piece = tuple[Fraction, int]  # d + 2^-k * K0


@total_ordering
class TailSet:
    """Canonical form: implicit integer translates n + K0 for n < lo and
    n >= hi, plus explicit pieces inside [lo, hi).

    Invariant: the canonical pieces are spatially ascending, pairwise
    disjoint and lie strictly inside [lo, hi), so the tails below lo, the
    pieces and the tails from hi on are already in order (_materialize).
    A set has one canonical form, so == is ok_compare(a, b) == 0, and < is
    ok_compare(a, b) < 0: a tail set is its own sort key."""

    __slots__ = ("pair", "lo", "hi", "pieces")

    def __init__(self, pair: WordPair, lo: int = 0, hi: int = 0, pieces=()):
        pieces = [(Fraction(d), int(k)) for d, k in pieces]
        if any(k < 0 for _, k in pieces):
            raise ValueError("piece depth must be nonnegative")
        # spatial order: offsets alone misorder pieces of different depths.
        # One hull per piece; a list keeps duplicates, which the disjointness
        # check below rejects
        hulls = sorted(((_hull(*p, pair), p) for p in pieces), key=itemgetter(0))
        hulls = _merge_siblings(hulls, pair)
        lo, hi = int(lo), int(hi)
        # absorb extreme integer translates into the implicit tails, but only
        # when no other explicit piece shares their unit cell
        while hulls and hulls[0][1] == (lo, 0) and \
                (len(hulls) == 1 or hulls[1][0][0] >= lo + 1):
            hulls.pop(0)
            lo += 1
        while hulls and hulls[-1][1] == (hi - 1, 0) and \
                (len(hulls) == 1 or hulls[-2][0][1] < hi - 1):
            hulls.pop()
            hi -= 1
        if lo == hi:
            # no pieces and no gap between the tails: the base set itself
            lo = hi = 0
        for (h1, _), (h2, _) in zip(hulls, hulls[1:]):
            if h1[1] >= h2[0]:
                raise ValueError("pieces must be disjoint and sorted")
        if hulls and not (lo <= hulls[0][0][0] and hulls[-1][0][1] < hi):
            raise ValueError("pieces must lie inside [lo, hi)")
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "pieces", tuple(p for _, p in hulls))

    def __setattr__(self, *a):
        raise AttributeError("TailSet is immutable")

    @classmethod
    def base(cls, pair: WordPair | None = None) -> "TailSet":
        return cls(pair or WordPair())

    def __eq__(self, other):
        if not isinstance(other, TailSet):
            return NotImplemented
        return (self.pair, self.lo, self.hi, self.pieces) == \
            (other.pair, other.lo, other.hi, other.pieces)

    def __lt__(self, other):
        if not isinstance(other, TailSet):
            return NotImplemented
        return _compare(self, other)[0] < 0

    def __hash__(self):
        return hash((self.pair, self.lo, self.hi, self.pieces))

    def __repr__(self):
        return f"TailSet(lo={self.lo}, hi={self.hi}, pieces={list(self.pieces)})"

    # -- membership ---------------------------------------------------------

    def contains(self, x) -> bool:
        x = Fraction(x)
        for d, k in self.pieces:
            h0, h1 = _hull(d, k, self.pair)
            if h0 <= x <= h1:
                return self.pair.contains_unit((x - d) * (1 << k)
                                               if k else x - d)
        n = _floor(x)
        if self.lo <= n < self.hi:
            return False
        return self.pair.contains_unit(x - n)

    # -- image --------------------------------------------------------------

    def image(self, g: PLMap) -> "TailSet":
        """g(S) for a line map with power-of-two slopes, dyadic breakpoints
        and integer-translation end germs."""
        if g.model != "line":
            raise NonDyadicMap("line-model maps only")
        exps = []
        for s in g.slopes:
            try:
                exps.append(int_log2(s))
            except ValueError:
                raise NonDyadicMap(f"slope {s} is not a power of two") from None
        for b in g.breakpoints:
            if b.denominator & (b.denominator - 1):
                raise NonDyadicMap(f"breakpoint {b} is not dyadic")
        for i in (0, -1):
            if g.slopes[i] != 1 or g.offsets[i].denominator != 1:
                raise NonDyadicMap("end germs must be integer translations")
        m_low, m_high = int(g.offsets[0]), int(g.offsets[-1])
        bps = g.breakpoints
        if not bps:
            return TailSet(self.pair, self.lo + m_low, self.hi + m_low,
                           [(d + m_low, k) for d, k in self.pieces])
        ext_lo = min(self.lo, _floor(bps[0]))
        ext_hi = max(self.hi, _floor(bps[-1]) + 1)
        tails = [*range(ext_lo, self.lo), *range(self.hi, ext_hi)]
        stack = list(self.pieces) + [(Fraction(n), 0) for n in tails]
        out = []
        while stack:
            d, k = stack.pop()
            if k > _IMAGE_DEPTH:
                raise DepthExceeded("image refinement guard hit")
            h0, h1 = _hull(d, k, self.pair)
            i, j = bisect_right(bps, h0), bisect_right(bps, h1)
            a = exps[i]
            if i != j or k < a:
                stack.extend(_children(d, k, self.pair))
                continue
            out.append((g.slopes[i] * d + g.offsets[i], k - a))
        return TailSet(self.pair, ext_lo + m_low, ext_hi + m_high, out)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _hull(d: Fraction, k: int, pair: WordPair) -> tuple[Fraction, Fraction]:
    """[d + 2^-k bottom, d + 2^-k top] as one quotient per end: for d = n/q
    and (M, B, T) = pair.hull_ints, (n M 2^k + B q) / (q M 2^k) and the
    same with T."""
    M, B, T = pair.hull_ints
    n, q = d.numerator, d.denominator
    den, base = q * M << k, n * M << k
    return Fraction(base + B * q, den), Fraction(base + T * q, den)


def _children(d: Fraction, k: int, pair: WordPair) -> list[_Piece]:
    """The two children d + 2^-k off of the piece, lowest first, each one
    quotient: for d = n/q and off = c / 2^W (c = B, then T of
    pair.hull_ints), (n 2^K + c q) / (q 2^K) with K = k + W."""
    _, B, T = pair.hull_ints
    n, q = d.numerator, d.denominator
    K = k + pair.width
    base, den = n << K, q << K
    return [(Fraction(base + B * q, den), K), (Fraction(base + T * q, den), K)]


def _merge_siblings(hulls: list, pair: WordPair) -> list:
    """Replace adjacent siblings (at depth k >= W, (T - B) / 2^k apart) by
    their parent, repeatedly, in an ascending list of (hull, piece).  The
    parent takes their place and its hull spans theirs, so the order holds."""
    _, B, T = pair.hull_ints
    out = []
    for h, (d, k) in hulls:
        while out and out[-1][1][1] == k >= pair.width \
                and (d - out[-1][1][0]) * (1 << k) == T - B:
            h0, (d0, _) = out.pop()
            h, d, k = (h0[0], h[1]), d0 - Fraction(B, 1 << k), k - pair.width
        out.append((h, (d, k)))
    return out


# ---------------------------------------------------------------------------
# Comparison and the alpha kernel
# ---------------------------------------------------------------------------

def _materialize(s: TailSet, floor_n: int, top_n: int) -> list[_Piece]:
    """Ascending explicit pieces covering [floor_n, top_n), tails expanded;
    ascending as built, by the TailSet invariant."""
    return [(Fraction(n), 0) for n in range(floor_n, s.lo)] + list(s.pieces) \
        + [(Fraction(n), 0) for n in range(s.hi, top_n)]


def _compare(a: TailSet, b: TailSet):
    """(sign, alpha): sign > 0 when a owns the topmost unmatched piece."""
    if a.pair != b.pair:
        raise ValueError("mismatched word pairs")
    pair = a.pair
    floor_n = min(a.lo, b.lo)
    top_n = max(a.hi, b.hi)
    la = _materialize(a, floor_n, top_n)
    lb = _materialize(b, floor_n, top_n)
    guard = _COMPARE_DEPTH
    while la or lb:
        if la and lb and la[-1] == lb[-1]:
            la.pop()
            lb.pop()
            continue
        ta = _hull(*la[-1], pair)[1] if la else None
        tb = _hull(*lb[-1], pair)[1] if lb else None
        if la and lb and ta == tb:
            # tops tie only along the ancestor spine: refine the coarser,
            # whose top child keeps its top, until the two pieces agree
            while la[-1] != lb[-1]:
                guard -= 1
                if guard <= 0:
                    raise DepthExceeded("comparison refinement guard hit")
                side = la if la[-1][1] < lb[-1][1] else lb
                side[-1:] = _children(*side[-1], pair)
            continue
        if not la:
            return -1, tb
        if not lb or ta > tb:
            return 1, ta
        return -1, tb
    return 0, MINUS_INFINITY


def ok_compare(a: TailSet, b: TailSet) -> int:
    """-1 / 0 / +1: order of the two sets (first top-down divergence)."""
    return _compare(a, b)[0]


def alpha(a: TailSet, b: TailSet):
    """Supremum of the symmetric difference (the top disagreement point);
    MINUS_INFINITY for equal sets.  Ultrametric and action-equivariant."""
    return _compare(a, b)[1]


def property_o_spot(a: TailSet, b: TailSet) -> bool:
    """Spot-check of the separation property at alpha: the top disagreement
    point must belong to exactly one of the two sets."""
    s, al = _compare(a, b)
    if s == 0:
        return True
    return a.contains(al) != b.contains(al)


# ---------------------------------------------------------------------------
# The induced preorder engine
# ---------------------------------------------------------------------------

def line_generators() -> dict[str, PLMap]:
    """t: x -> x+1 and h: identity below 0, 2x on [0,1], x+1 above."""
    t = PLMap("line", [], [1], [1])
    h = PLMap("line", [Fraction(0), Fraction(1)],
              [Fraction(1), Fraction(2), Fraction(1)],
              [Fraction(0), Fraction(0), Fraction(1)])
    return {"t": t, "h": h}


class SymbolicEngine:
    """sign(g) = comparison of g(K) against K for the base tail set K; the
    key of g is the tail set g(K), which orders itself by ok_compare."""

    def __init__(self, pair: WordPair | None = None):
        self.pair = pair or WordPair()
        self.base = TailSet.base(self.pair)

    def key(self, g: PLMap) -> TailSet:
        return self.base.image(g)

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x): g x (K) is the image of x(K)."""
        return lambda k: k.image(g)

    def sign(self, g: PLMap) -> Sign:
        return Sign(ok_compare(self.base.image(g), self.base))

    def __repr__(self):
        return f"SymbolicEngine({self.pair!r})"
