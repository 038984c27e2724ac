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

from functools import partial, total_ordering
from itertools import takewhile, zip_longest
from operator import add

from .exactnum import LatticePreorder
from .plgroup import nesting_forest, power
from .preorders import Sign, _key_sign, _profile, _profile_act


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


class WreathElement:
    """(lamp, shift) in (Z^k wr Z); lamp maps positions to nonzero Z^k
    values and iterates from the top position down."""

    __slots__ = ("lamp", "shift", "k", "_hash")

    def __init__(self, lamp=None, shift: int = 0, k: int = 1):
        clean = {int(x): w for x, v in (lamp or {}).items()
                 if any(w := _as_value(v, k))}
        object.__setattr__(self, "lamp", dict(sorted(clean.items(), reverse=True)))
        object.__setattr__(self, "shift", int(shift))
        object.__setattr__(self, "k", int(k))

    @classmethod
    def _trusted(cls, lamp: dict, shift: int, k: int) -> "WreathElement":
        """An element from int positions, top-down, to nonzero int k-tuples,
        unchecked: the product or inverse of valid elements.  The hash waits
        for its first use; every outside input goes through WreathElement()."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "lamp", lamp)
        object.__setattr__(obj, "shift", shift)
        object.__setattr__(obj, "k", k)
        return obj

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
        lamp, shift = self.lamp, self.shift
        if other.lamp:  # merge other's lamps, moved by shift, into self's
            mine, lamp = list(reversed(lamp.items())), {}  # pop() gives the top
            for y, v in other.lamp.items():
                y += shift
                while mine and mine[-1][0] >= y:
                    x, u = mine.pop()
                    if x > y:
                        lamp[x] = u
                    else:
                        v = tuple(map(add, u, v))
                if any(v):
                    lamp[y] = v
            lamp.update(reversed(mine))
        return WreathElement._trusted(lamp, shift + other.shift, self.k)

    def inverse(self) -> "WreathElement":
        lamp = {x - self.shift: tuple(-c for c in v) for x, v in self.lamp.items()}
        return WreathElement._trusted(lamp, -self.shift, self.k)

    def __pow__(self, n: int) -> "WreathElement":
        return power(self, n, lambda: WreathElement.identity(self.k))

    def __eq__(self, other):
        if not isinstance(other, WreathElement):
            return NotImplemented
        return (self.lamp, self.shift, self.k) == (other.lamp, other.shift, other.k)

    def __hash__(self):
        # computed on first use and kept, like PLMap's
        try:
            return self._hash
        except AttributeError:
            h = hash((tuple(self.lamp.items()), self.shift, self.k))
            object.__setattr__(self, "_hash", h)
            return h

    def top(self):
        """Max of the lamp support, or MINUS_INFINITY for the zero config."""
        return next(iter(self.lamp), MINUS_INFINITY)

    def __repr__(self):
        items = ", ".join(f"{x}:{v if self.k > 1 else v[0]}"
                          for x, v in reversed(self.lamp.items()))
        return f"WreathElement({{{items}}}, shift={self.shift})"


# ---------------------------------------------------------------------------
# Plante preorder
# ---------------------------------------------------------------------------

class PlanteEngine:
    def __init__(self, k: int = 1, order: LatticePreorder | None = None):
        self.k = k
        self.order = order or LatticePreorder.lex(k)

    def key(self, w: WreathElement) -> tuple:
        """The lamp configuration as a step profile read from the top: one
        jump order.values(lamp) at each lamp position x, and outer value 0,
        so tuple order is the order of the values at the top disagreement,
        i.e. the sign of v^-1 u; the shift is ignored.  Needs a total
        order."""
        key = _profile((0,) * len(self.order.rows),
                       zip(w.lamp, map(self.order.values, w.lamp.values())))
        if len(key) != len(w.lamp) + 2:  # _profile dropped a zero value
            raise ValueError("order must be total on nonzero lamp values")
        return key

    def act(self, w: WreathElement):
        """k -> key(w x) for k = key(x): w x lights x's lamps moved by
        w.shift plus w's own lamps, and lamp values add."""
        return _profile_act(self.key(w), partial(add, w.shift))

    def sign(self, w: WreathElement) -> Sign:
        return _key_sign(self.key(w))

    def __repr__(self):
        return f"PlanteEngine(k={self.k}, order={self.order!r})"


# ---------------------------------------------------------------------------
# Ultrametric kernel
# ---------------------------------------------------------------------------

def delta_kernel(a: WreathElement, b: WreathElement):
    """The top position where the configurations differ, read off the first
    difference of their top-down listings; MINUS_INFINITY when they agree.
    Ultrametric and shift-equivariant."""
    for p, q in zip_longest(a.lamp.items(), b.lamp.items(), fillvalue=(MINUS_INFINITY,)):
        if p != q:
            return max(p[0], q[0])
    return MINUS_INFINITY


# ---------------------------------------------------------------------------
# Agreement sets
# ---------------------------------------------------------------------------

def _above(items, cut: int) -> tuple:
    """The prefix of a top-down lamp listing strictly above the cut."""
    return tuple(takewhile(lambda e: e[0] > cut, items))


class CSet:
    """Configurations whose lamp agrees with sigma strictly above the cut.
    The pattern is sigma's lamps above the cut, top-down."""

    __slots__ = ("cut", "pattern", "k")

    def __init__(self, sigma: WreathElement, cut: int):
        object.__setattr__(self, "cut", int(cut))
        object.__setattr__(self, "pattern", _above(sigma.lamp.items(), cut))
        object.__setattr__(self, "k", sigma.k)

    def __setattr__(self, *a):
        raise AttributeError("CSet is immutable")

    def contains(self, tau: WreathElement) -> bool:
        return _above(tau.lamp.items(), self.cut) == self.pattern

    def relation(self, other: "CSet") -> str:
        """'equal' | 'subset' | 'superset' | 'disjoint'.

        Two agreement sets are balls of delta, hence nested or disjoint.  The
        patterns are compared above the higher cut; if they agree there,
        the set with the lower cut (the stronger constraint) is inside the
        other, and otherwise the sets are disjoint.
        """
        lo, hi = (self, other) if self.cut >= other.cut else (other, self)
        # hi has the lower cut, hence the stronger constraint
        if _above(hi.pattern, lo.cut) != lo.pattern:
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


def _block(c: CSet) -> tuple:
    """C(sigma, cut) as the half-open block of its members' lex Plante keys:
    they start with P, the pattern's key less its closing (0,), then go on
    with the close or a jump at p <= cut, entry (1, p, ...) or (-1, -p, ...)."""
    p = _profile((0,) * c.k, c.pattern)[:-1]
    return p + ((-1, -c.cut),), p + ((1, c.cut + 1),)


def _nesting_forest(csets) -> dict | None:
    """{C-set: its parent, or None for a root} over the family's distinct
    C-sets, from their key blocks; None if two blocks cross."""
    nodes = list(dict.fromkeys(csets))
    parent, _ = nesting_forest(map(_block, nodes))
    if parent is None:
        return None
    return {n: p if p is None else nodes[p] for n, p in zip(nodes, parent)}


def cset_family_cross_free(csets) -> bool:
    """True iff the C-sets are pairwise nested or disjoint, that is iff
    their key blocks have a nesting forest."""
    return _nesting_forest(csets) is not None
