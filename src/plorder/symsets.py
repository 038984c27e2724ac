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
from functools import cmp_to_key

from .plante import MINUS_INFINITY
from .plgroup import PLMap, int_log2
from .preorders import Sign


class NonDyadicMap(ValueError):
    pass


class DepthExceeded(RuntimeError):
    """An image or a comparison split pieces past its refinement guard."""


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

    __slots__ = ("w1", "w2", "width", "top", "bottom", "child_offsets")

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


class TailSet:
    """Canonical form: implicit integer translates n + K0 for n < lo and
    n >= hi, plus explicit pieces inside [lo, hi)."""

    __slots__ = ("pair", "lo", "hi", "pieces")

    def __init__(self, pair: WordPair, lo: int = 0, hi: int = 0, pieces=()):
        # spatial order: offsets alone misorder pieces of different depths
        pieces = sorted(((Fraction(d), int(k)) for d, k in pieces),
                        key=lambda p: _hull(*p, pair))
        if any(k < 0 for _, k in pieces):
            raise ValueError("piece depth must be nonnegative")
        pieces = _merge_siblings(pieces, pair)
        lo, hi = int(lo), int(hi)
        # absorb extreme integer translates into the implicit tails, but only
        # when no other explicit piece shares their unit cell
        while pieces and pieces[0] == (Fraction(lo), 0) and \
                (len(pieces) == 1 or _hull(*pieces[1], pair)[0] >= lo + 1):
            pieces.pop(0)
            lo += 1
        while pieces and pieces[-1] == (Fraction(hi - 1), 0) and \
                (len(pieces) == 1 or _hull(*pieces[-2], pair)[1] < hi - 1):
            pieces.pop()
            hi -= 1
        if lo == hi:
            # no pieces and no gap between the tails: the base set itself
            lo = hi = 0
        for (d1, k1), (d2, k2) in zip(pieces, pieces[1:]):
            if _hull(d1, k1, pair)[1] >= _hull(d2, k2, pair)[0]:
                raise ValueError("pieces must be disjoint and sorted")
        if pieces and not (lo <= _hull(*pieces[0], pair)[0]
                           and _hull(*pieces[-1], pair)[1] < hi):
            raise ValueError("pieces must lie inside [lo, hi)")
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "pieces", tuple(pieces))

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

    def image(self, g: PLMap, depth: int = 500) -> "TailSet":
        """g(S) for a line map with power-of-two slopes, dyadic breakpoints
        and integer-translation end germs."""
        if g.model != "line":
            raise NonDyadicMap("line-model maps only")
        exps = []
        for s in g.slopes:
            try:
                exps.append(int_log2(Fraction(s)))
            except ValueError:
                raise NonDyadicMap(f"slope {s} is not a power of two") from None
        for b in g.breakpoints:
            if Fraction(b).denominator & (Fraction(b).denominator - 1):
                raise NonDyadicMap(f"breakpoint {b} is not dyadic")
        for i in (0, -1):
            if g.slopes[i] != 1 or Fraction(g.offsets[i]).denominator != 1:
                raise NonDyadicMap("end germs must be integer translations")
        m_low = int(g.offsets[0])
        m_high = int(g.offsets[-1])
        if not g.breakpoints:
            return TailSet(self.pair, self.lo + m_low, self.hi + m_low,
                           [(d + m_low, k) for d, k in self.pieces])
        L = _floor(min(g.breakpoints))
        R = _floor(max(g.breakpoints)) + 1
        ext_lo = min(self.lo, L)
        ext_hi = max(self.hi, R)
        stack = list(self.pieces)
        stack += [(Fraction(n), 0) for n in range(ext_lo, self.lo)]
        stack += [(Fraction(n), 0) for n in range(self.hi, ext_hi)]
        bps = list(g.breakpoints)
        out = []
        while stack:
            d, k = stack.pop()
            if k > depth:
                raise DepthExceeded("image refinement guard hit")
            h0, h1 = _hull(d, k, self.pair)
            i = bisect_right(bps, h0)
            j = bisect_right(bps, h1)
            a = exps[i]
            if i != j or k < a:
                stack.extend(_children(d, k, self.pair))
                continue
            b = g(h0) - Fraction(g.slopes[i]) * h0
            out.append((Fraction(g.slopes[i]) * d + b, k - a))
        return TailSet(self.pair, ext_lo + m_low, ext_hi + m_high, out)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _hull(d: Fraction, k: int, pair: WordPair) -> tuple[Fraction, Fraction]:
    s = Fraction(1, 1 << k)
    return d + s * pair.bottom, d + s * pair.top


def _children(d: Fraction, k: int, pair: WordPair) -> list[_Piece]:
    s = Fraction(1, 1 << k)
    return [(d + s * off, k + pair.width) for off in pair.child_offsets]


def _merge_siblings(pieces: list[_Piece], pair: WordPair) -> list[_Piece]:
    pieces = sorted(pieces, key=lambda p: _hull(*p, pair))
    changed = True
    while changed:
        changed = False
        for i in range(len(pieces) - 1):
            (d1, k1), (d2, k2) = pieces[i], pieces[i + 1]
            if k1 != k2 or k1 < pair.width:
                continue
            kp = k1 - pair.width
            s = Fraction(1, 1 << kp)
            dp = d1 - s * pair.child_offsets[0]
            if d2 == dp + s * pair.child_offsets[1]:
                pieces[i:i + 2] = [(dp, kp)]
                changed = True
                break
    return sorted(pieces, key=lambda p: _hull(*p, pair))


# ---------------------------------------------------------------------------
# Comparison and the alpha kernel
# ---------------------------------------------------------------------------

def _materialize(s: TailSet, floor_n: int, top_n: int) -> list[_Piece]:
    """Ascending explicit pieces covering [floor_n, top_n), tails expanded."""
    out = [(Fraction(n), 0) for n in range(floor_n, s.lo)]
    out += list(s.pieces)
    out += [(Fraction(n), 0) for n in range(s.hi, top_n)]
    return sorted(out, key=lambda p: _hull(*p, s.pair))


def _compare(a: TailSet, b: TailSet, depth: int = 2000):
    """(sign, alpha): sign > 0 when a owns the topmost unmatched piece."""
    if a.pair != b.pair:
        raise ValueError("mismatched word pairs")
    pair = a.pair
    floor_n = min(a.lo, b.lo)
    top_n = max(a.hi, b.hi)
    la = _materialize(a, floor_n, top_n)
    lb = _materialize(b, floor_n, top_n)
    guard = depth
    while la or lb:
        if la and lb and la[-1] == lb[-1]:
            la.pop()
            lb.pop()
            continue
        ta = _hull(*la[-1], pair)[1] if la else None
        tb = _hull(*lb[-1], pair)[1] if lb else None
        if la and lb and ta == tb:
            # tops tie only along the ancestor spine: refine the coarser
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


_ok_key = cmp_to_key(ok_compare)


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
    key of g is g(K), compared with ok_compare."""

    def __init__(self, pair: WordPair | None = None):
        self.pair = pair or WordPair()
        self.base = TailSet.base(self.pair)

    def key(self, g: PLMap):
        return _ok_key(self.base.image(g))

    def act(self, g: PLMap):
        """k -> key(g x) for k = key(x): g x (K) is the image of x(K)."""
        return lambda k: _ok_key(k.obj.image(g))

    def sign(self, g: PLMap) -> Sign:
        return Sign(ok_compare(self.base.image(g), self.base))

    def __repr__(self):
        return f"SymbolicEngine({self.pair!r})"
