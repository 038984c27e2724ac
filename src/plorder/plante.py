"""Lamplighter-style wreath elements and the Plante preorder.

Elements are pairs (lamp, shift): a finitely supported configuration
lamp : Z -> Z^k together with an integer shift acting by translation.
The Plante sign of an element reads the lamp value at the top of its
support through a lattice preorder on Z^k.  The top disagreement point
gives an ultrametric kernel delta on configurations, and the agreement set
C(sigma, cut) ("configurations matching sigma strictly above the cut") is
the ball {tau : delta(sigma, tau) <= cut}.  Any two such balls are nested
or disjoint, so a family of them is a nesting forest: a finite piece of the
planar real tree on which the wreath product acts.
"""

from __future__ import annotations

from functools import total_ordering
from operator import add

from .exactnum import LatticePreorder
from .preorders import Sign


@total_ordering
class _MinusInfinity:
    def __lt__(self, other):
        return not isinstance(other, _MinusInfinity)

    def __eq__(self, other):
        return isinstance(other, _MinusInfinity)

    def __hash__(self):
        return hash("-inf")

    def __repr__(self):
        return "-Infinity"


MINUS_INFINITY = _MinusInfinity()


def _as_value(v, k: int) -> tuple[int, ...]:
    if isinstance(v, int):
        if k != 1:
            raise ValueError(f"expected a {k}-tuple")
        return (v,)
    v = tuple(int(c) for c in v)
    if len(v) != k:
        raise ValueError(f"expected a {k}-tuple")
    return v


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


class WreathElement:
    """(lamp, shift) in (Z^k wr Z); lamp maps positions to Z^k values."""

    __slots__ = ("lamp", "shift", "k")

    def __init__(self, lamp=None, shift: int = 0, k: int = 1):
        clean = {}
        for x, v in (lamp or {}).items():
            v = _as_value(v, k)
            if any(v):
                clean[int(x)] = v
        object.__setattr__(self, "lamp", clean)
        object.__setattr__(self, "shift", int(shift))
        object.__setattr__(self, "k", int(k))

    def __setattr__(self, *a):
        raise AttributeError("WreathElement is immutable")

    @classmethod
    def identity(cls, k: int = 1) -> "WreathElement":
        return cls({}, 0, k)

    @classmethod
    def lamp_at(cls, x: int, value=1, k: int = 1) -> "WreathElement":
        return cls({x: value}, 0, k)

    @classmethod
    def shift_by(cls, n: int, k: int = 1) -> "WreathElement":
        return cls({}, n, k)

    def is_identity(self) -> bool:
        return not self.lamp and self.shift == 0

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.k != other.k:
            raise ValueError("mixed lamp dimensions")
        lamp = dict(self.lamp)
        for x, v in other.lamp.items():
            y = x + self.shift
            lamp[y] = _vadd(lamp.get(y, (0,) * self.k), v)
        return WreathElement(lamp, self.shift + other.shift, self.k)

    def inverse(self) -> "WreathElement":
        lamp = {x - self.shift: tuple(-c for c in v) for x, v in self.lamp.items()}
        return WreathElement(lamp, -self.shift, self.k)

    def __pow__(self, n: int) -> "WreathElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = WreathElement.identity(self.k)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, WreathElement):
            return NotImplemented
        return (self.lamp, self.shift, self.k) == (other.lamp, other.shift, other.k)

    def __hash__(self):
        return hash((frozenset(self.lamp.items()), self.shift, self.k))

    def top(self):
        """Max of the lamp support, or MINUS_INFINITY for the zero config."""
        return max(self.lamp) if self.lamp else MINUS_INFINITY

    def __repr__(self):
        items = ", ".join(f"{x}:{v if self.k > 1 else v[0]}"
                          for x, v in sorted(self.lamp.items()))
        return f"WreathElement({{{items}}}, shift={self.shift})"


# ---------------------------------------------------------------------------
# Plante sign
# ---------------------------------------------------------------------------

def plante_sign(w: WreathElement, order: LatticePreorder | None = None) -> Sign:
    """Sign of the lamp value at the top of the support; Residue for pure
    shifts (zero configuration)."""
    order = order or LatticePreorder.lex(w.k)
    if not w.lamp:
        return Sign.RESIDUE
    s = order.sign_of(w.lamp[max(w.lamp)])
    if s == 0:
        raise ValueError("order must be total on nonzero top values")
    return Sign(s)


class PlanteEngine:
    def __init__(self, k: int = 1, order: LatticePreorder | None = None):
        self.k = k
        self.order = order or LatticePreorder.lex(k)

    def key(self, w: WreathElement) -> tuple:
        """The lamp configuration read from the top: one (s, s*x, values)
        entry per lamp x, where s is the lamp's sign, then (0,).  Tuple order
        is the order of the values at the top disagreement, i.e. the sign
        of v^-1 u; the shift is ignored.  Needs a total order."""
        zero = (0,) * len(self.order.rows)
        out = []
        for x in sorted(w.lamp, reverse=True):
            vals = self.order.values(w.lamp[x])
            if vals == zero:
                raise ValueError("order must be total on nonzero lamp values")
            s = 1 if vals > zero else -1
            out.append((s, s * x, vals))
        out.append((0,))
        return tuple(out)

    def act(self, w: WreathElement):
        """k -> key(w x) for k = key(x): w x lights x's lamps moved by
        w.shift plus w's own lamps, and lamp values add.  Needs a total
        order, as key does."""
        own = {s * c: v for s, c, v in self.key(w)[:-1]}
        shift = w.shift
        zero = (0,) * len(self.order.rows)

        def act(k: tuple) -> tuple:
            lamps = dict(own)
            for s, c, v in k[:-1]:
                x = s * c + shift
                u = lamps.get(x)
                lamps[x] = v if u is None else tuple(map(add, u, v))
            out = []
            for x in sorted(lamps, reverse=True):
                v = lamps[x]
                if v != zero:
                    s = 1 if v > zero else -1
                    out.append((s, s * x, v))
            out.append((0,))
            return tuple(out)

        return act

    def sign(self, w: WreathElement) -> Sign:
        return plante_sign(w, self.order)

    def __repr__(self):
        return f"PlanteEngine(k={self.k})"


# ---------------------------------------------------------------------------
# Ultrametric kernel
# ---------------------------------------------------------------------------

def delta_kernel(a: WreathElement, b: WreathElement, iota=None):
    """iota(top disagreement position) of the two configurations;
    MINUS_INFINITY when the configurations agree.  Satisfies the strong
    triangle inequality and shift-equivariance for order-preserving iota."""
    zero = (0,) * a.k
    diff = [x for x in set(a.lamp) | set(b.lamp)
            if a.lamp.get(x, zero) != b.lamp.get(x, zero)]
    if not diff:
        return MINUS_INFINITY
    top = max(diff)
    return top if iota is None else iota(top)


# ---------------------------------------------------------------------------
# Agreement sets
# ---------------------------------------------------------------------------

class CSet:
    """Configurations whose lamp agrees with sigma strictly above the cut."""

    __slots__ = ("cut", "pattern", "k")

    def __init__(self, sigma: WreathElement, cut: int):
        pattern = tuple(sorted((x, v) for x, v in sigma.lamp.items() if x > cut))
        object.__setattr__(self, "cut", int(cut))
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "k", sigma.k)

    def __setattr__(self, *a):
        raise AttributeError("CSet is immutable")

    def contains(self, tau: WreathElement) -> bool:
        zero = (0,) * self.k
        want = dict(self.pattern)
        for x in set(want) | {x for x in tau.lamp if x > self.cut}:
            if tau.lamp.get(x, zero) != want.get(x, zero):
                return False
        return True

    def relation(self, other: "CSet") -> str:
        """'equal' | 'subset' | 'superset' | 'disjoint'.

        Two agreement sets are balls of delta, hence nested or disjoint.  The
        patterns are compared above the higher cut; if they agree there,
        the set with the lower cut (the stronger constraint) is inside the
        other, and otherwise the sets are disjoint.
        """
        lo, hi = (self, other) if self.cut >= other.cut else (other, self)
        # hi has the lower cut, hence the stronger constraint
        zero = (0,) * self.k
        wl, wh = dict(lo.pattern), dict(hi.pattern)
        for x in {x for x in set(wl) | set(wh) if x > lo.cut}:
            if wl.get(x, zero) != wh.get(x, zero):
                return "disjoint"
        if self.cut == other.cut:
            return "equal"
        return "superset" if self is lo else "subset"

    def __eq__(self, other):
        if not isinstance(other, CSet):
            return NotImplemented
        return (self.cut, self.pattern, self.k) == (other.cut, other.pattern, other.k)

    def __hash__(self):
        return hash((self.cut, self.pattern))

    def __repr__(self):
        return f"CSet(cut={self.cut}, pattern={self.pattern})"


def _nesting_forest(csets) -> dict:
    """{C-set: its parent, or None for a root} over the family's distinct
    C-sets.  C(sigma, c) lies strictly inside C(tau, d) iff d > c and the
    patterns agree above d, so the parent of (c, p) is (d, p above d) for
    the smallest family cut d > c at which that node exists."""
    nodes = {(c.cut, c.pattern, c.k): c for c in csets}
    cuts = sorted({cut for cut, _, _ in nodes})
    forest = {}
    for (cut, pattern, k), node in nodes.items():
        larger = (nodes.get((d, tuple(e for e in pattern if e[0] > d), k))
                  for d in cuts if d > cut)
        forest[node] = next((p for p in larger if p is not None), None)
    return forest


def cset_family_cross_free(csets) -> bool:
    """True iff the C-sets are pairwise nested or disjoint, certified on
    their nesting forest through CSet.relation: each C-set is a 'subset' of
    its parent, and the children of each node (the roots among them) are
    pairwise 'disjoint'.  Two C-sets with no ancestor link then lie in
    distinct disjoint siblings, so this is exactly laminarity.
    """
    children = {}
    for node, parent in _nesting_forest(csets).items():
        if parent is not None and node.relation(parent) != "subset":
            return False
        children.setdefault(parent, []).append(node)
    return all(a.relation(b) == "disjoint"
               for sibs in children.values()
               for i, a in enumerate(sibs) for b in sibs[i + 1:])
