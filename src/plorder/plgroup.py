"""Exact piecewise-linear homeomorphism algebra.

PLMap is a finitary orientation-preserving PL bijection of [0,1] (fixing the
endpoints) or of the line (with affine end germs).  On top of the group law
the module provides the tau1 germ homomorphism, jump cocycles, fixed-point
structure, standard generating sets (Thompson's F, Bieri-Strebel groups),
relator verification, 2-chain witnesses and the interval nesting forest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from .exactnum import format_rational, parse_rational


class ModelMismatch(ValueError):
    pass


class OutOfDomain(ValueError):
    pass


class HypothesisFailed(ValueError):
    def __init__(self, which: str, detail: str = ""):
        self.which = which
        super().__init__(f"hypothesis ({which}) fails" + (f": {detail}" if detail else ""))


class NoWitness(ValueError):
    pass


def int_log2(r: Fraction) -> int:
    """Exact base-2 logarithm of a rational power of two."""
    r = Fraction(r)
    return _log2(r.numerator, r.denominator)


def _log2(n: int, d: int) -> int:
    """int_log2 of n/d in lowest terms."""
    m = d if n == 1 else n
    if m <= 0 or m & (m - 1) or 1 not in (n, d):
        raise ValueError(f"{Fraction(n, d)} is not a power of 2")
    return (m.bit_length() - 1) * (-1 if n == 1 else 1)


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


class FixedStructure(NamedTuple):
    fixed: list        # closed maximal fixed intervals (lo, hi); None = +-inf
    support: list      # open support components (lo, hi); None = +-inf


class PLMap:
    """Orientation-preserving PL homeomorphism in canonical form.

    model "unit": domain [0,1], fixes 0 and 1.
    model "line": domain R; the first/last pieces are the affine end germs.

    Storage: _b holds the breakpoints as pairs (n, d) and _p the pieces
    x -> s*x + o as (sn, sd, on, od), each pair in lowest terms with d > 0,
    no two adjacent pieces equal.  The group law, equality, hashing and
    evaluation read these integers; the Fraction views breakpoints, slopes
    and offsets, and the hash, are filled on their first read.
    """

    _VIEWS = ("breakpoints", "slopes", "offsets")
    __slots__ = ("model", "_b", "_p") + _VIEWS + ("_hash",)

    def __init__(self, model: str, breakpoints, slopes, offsets):
        if model not in ("unit", "line"):
            raise ValueError(f"unknown model {model!r}")
        bps = [Fraction(b) for b in breakpoints]
        sl = [Fraction(s) for s in slopes]
        off = [Fraction(o) for o in offsets]
        if not (len(sl) == len(off) == len(bps) + 1):
            raise ValueError("need one piece per interval")
        if any(s <= 0 for s in sl):
            raise ValueError("slopes must be positive")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for i, b in enumerate(bps):
            if sl[i] * b + off[i] != sl[i + 1] * b + off[i + 1]:
                raise ValueError(f"discontinuous at {b}")
        # canonical: drop breakpoints whose adjacent pieces coincide
        keep = [i for i in range(len(bps)) if (sl[i], off[i]) != (sl[i + 1], off[i + 1])]
        bps = [bps[i] for i in keep]
        sl, off = ([v[0]] + [v[i + 1] for i in keep] for v in (sl, off))
        if model == "unit":
            if any(not (0 < b < 1) for b in bps):
                raise ValueError("unit-model breakpoints must lie in (0,1)")
            if off[0] != 0:
                raise ValueError("unit-model map must fix 0")
            if sl[-1] + off[-1] != 1:
                raise ValueError("unit-model map must fix 1")
        self._set(model, [(b.numerator, b.denominator) for b in bps],
                  [(s.numerator, s.denominator, o.numerator, o.denominator)
                   for s, o in zip(sl, off)])

    @classmethod
    def _trusted(cls, model: str, bps: list, pieces: list) -> "PLMap":
        """Build a map from canonical pieces without validating them.

        Invariant: the callers pass the pieces of an already-valid map (the
        composite or inverse of valid maps) in the storage form, each pair
        in lowest terms with d > 0, with positive slopes, strictly
        increasing breakpoints, continuity, no breakpoint between two equal
        pieces, and for the unit model breakpoints in (0,1) and the
        endpoints fixed.  Every outside input goes through PLMap().
        """
        obj = object.__new__(cls)
        obj._set(model, bps, pieces)
        return obj

    def _set(self, model, bps, pieces):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "_b", tuple(bps))
        object.__setattr__(self, "_p", tuple(pieces))

    def __getattr__(self, name):
        # missing attributes get here: fill the hash, or all three views
        if name == "_hash":
            object.__setattr__(self, name, hash((self.model, self._b, self._p)))
        elif name in self._VIEWS:
            pairs = (self._b, [q[:2] for q in self._p], [q[2:] for q in self._p])
            for view, ps in zip(self._VIEWS, pairs):
                object.__setattr__(self, view, tuple(Fraction(n, d) for n, d in ps))
        else:
            raise AttributeError(name)
        return object.__getattribute__(self, name)

    def __setattr__(self, *a):
        raise AttributeError("PLMap is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, model: str = "unit") -> "PLMap":
        return cls(model, [], [1], [0])

    @classmethod
    def from_points(cls, model: str, points: Iterable) -> "PLMap":
        """Interpolate breakpoints given as (x, y) pairs.

        For the unit model, (0,0) and (1,1) are appended automatically; for
        the line model the first and last segments extend as end germs.
        """
        pts = sorted((Fraction(x), Fraction(y)) for x, y in points)
        if model == "unit":
            if not pts or pts[0][0] != 0:
                pts.insert(0, (Fraction(0), Fraction(0)))
            if pts[-1][0] != 1:
                pts.append((Fraction(1), Fraction(1)))
        if len(pts) < 2:
            raise ValueError("need at least two points")
        slopes, offsets = [], []
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            s = (y2 - y1) / (x2 - x1)
            slopes.append(s)
            offsets.append(y1 - s * x1)
        # interior knots only; for the line model the outer segments are germs
        bps = [x for x, _ in pts[1:-1]]
        return cls(model, bps, slopes, offsets)

    @classmethod
    def affine(cls, slope, offset) -> "PLMap":
        return cls("line", [], [slope], [offset])

    # -- basic queries ------------------------------------------------------

    def is_identity(self) -> bool:
        return not self._b and self._p[0] == (1, 1, 0, 1)

    def piece_index(self, x: Fraction) -> int:
        """The number of breakpoints at or below x."""
        n, d = x.numerator, x.denominator
        return sum(bn * d <= n * bd for bn, bd in self._b)

    def __call__(self, x) -> Fraction:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        n, d = x.numerator, x.denominator
        if self.model == "unit" and not (0 <= n <= d):
            raise OutOfDomain(f"{x} outside [0,1]")
        sn, sd, on, od = self._p[self.piece_index(x)]
        return Fraction(sn * n * od + on * sd * d, sd * d * od)

    # -- group law ----------------------------------------------------------

    # The group law reads and writes the storage pairs: comparisons
    # cross-multiply (denominators stay positive), and each output value is
    # reduced with one gcd.

    def inverse(self) -> "PLMap":
        """x -> (x - o)/s on the image s*b + o of each piece of the map."""
        bps = [_lowest(sn * bn * od + on * sd * bd, sd * bd * od)
               for (bn, bd), (sn, sd, on, od) in zip(self._b, self._p)]
        pieces = [(sd, sn, *_lowest(-on * sd, od * sn)) for sn, sd, on, od in self._p]
        return PLMap._trusted(self.model, bps, pieces)

    def __mul__(self, other: "PLMap") -> "PLMap":
        """(f * g)(x) = f(g(x)), by one ordered merge of the two piece lists.

        Walk g's pieces x -> a*x + c from left to right.  Inside each piece,
        every breakpoint b of f strictly inside the piece's image gives a
        breakpoint (b - c)/a of the product; between consecutive breakpoints
        the product is f's piece (s, o) after g's, i.e. slope s*a and
        offset s*c + o.  A piece equal to the one before it is merged into
        it on the spot, so the result is canonical.  No inverse is built
        and no point is evaluated.
        """
        if not isinstance(other, PLMap):
            return NotImplemented
        if self.model != other.model:
            raise ModelMismatch(f"{self.model} vs {other.model}")
        fb, fp, gb = self._b, self._p, other._b
        nf, ng = len(fb), len(gb)
        bps, pieces = [], []
        ln = ld = lon = lod = 0  # the last piece kept
        cut = None  # the breakpoint before the next piece, as (n, d)
        j = 0  # f's piece at the image of the current point
        for i, (an, ad, cn, cd) in enumerate(other._p):
            if i < ng:
                # image of the piece's right end; the last piece reaches the
                # end of the domain, which no breakpoint of f lies beyond
                bn, bd = gb[i]
                tn, td = an * bn * cd + cn * ad * bd, ad * bd * cd
            while True:
                sn, sd, on, od = fp[j]
                pn, pd = sn * an, sd * ad
                qn, qd = sn * cn * od + on * sd * cd, sd * cd * od
                if cut is None or pn * ld != ln * pd or qn * lod != lon * qd:
                    if cut is not None:
                        bps.append(_lowest(*cut))
                    pieces.append(_lowest(pn, pd) + _lowest(qn, qd))
                    ln, ld, lon, lod = pn, pd, qn, qd
                if j < nf:
                    xn, xd = fb[j]
                    if i == ng or xn * td < tn * xd:
                        cut = ((xn * cd - cn * xd) * ad, xd * cd * an)
                        j += 1
                        continue
                break
            if i < ng:
                cut = gb[i]
                if j < nf and fb[j][0] * td == tn * fb[j][1]:
                    j += 1
        return PLMap._trusted(self.model, bps, pieces)

    def __pow__(self, n: int) -> "PLMap":
        return power(self, n, lambda: PLMap.identity(self.model))

    def __eq__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.model == other.model and self._b == other._b and self._p == other._p

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PLMap.from_text({self.to_text()!r})"

    # -- structure ----------------------------------------------------------

    def _ends(self) -> tuple:
        """The domain's ends as storage pairs; None for -inf/+inf."""
        return ((0, 1), (1, 1)) if self.model == "unit" else (None, None)

    def _fixed(self) -> list:
        """The closed maximal fixed intervals (lo, hi) in increasing order,
        each end a pair (n, d) in lowest terms, d > 0, or None for -inf/+inf:
        the identity pieces, and the point o/(1 - s) of each piece
        x -> s*x + o, s != 1, that lies on the piece; parts sharing an end
        merge.  The unit interval's ends are included."""
        start, end = self._ends()
        ends, out = [start, *self._b, end], []
        for (sn, sd, on, od), lo, hi in zip(self._p, ends, ends[1:]):
            if sn != sd:
                n, d = on * sd, od * (sd - sn)
                n, d = (n, d) if d > 0 else (-n, -d)
                if (lo and lo[0] * d > n * lo[1]) or (hi and n * hi[1] > hi[0] * d):
                    continue
                lo = hi = _lowest(n, d)
            elif on:
                continue
            if out and out[-1][1] == lo:
                lo = out.pop()[0]
            out.append((lo, hi))
        return out

    def fixed_structure(self) -> FixedStructure:
        """_fixed() in Fractions; the support is the gaps between its parts
        and the domain's ends (all of the line when nothing is fixed)."""
        def frac(x):
            return x and Fraction(*x)
        fixed = [(frac(lo), frac(hi)) for lo, hi in self._fixed()]
        start, end = map(frac, self._ends())
        gaps = zip([start] + [hi for _, hi in fixed], [lo for lo, _ in fixed] + [end])
        return FixedStructure(fixed, [(a, b) for a, b in gaps if a != b or not fixed])

    def support(self) -> list:
        return self.fixed_structure().support

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        parts = [self.model,
                 f"{format_rational(self.slopes[0])},{format_rational(self.offsets[0])}"]
        for b, s, o in zip(self.breakpoints, self.slopes[1:], self.offsets[1:]):
            parts.append(f"{format_rational(b)}:{format_rational(s)},{format_rational(o)}")
        return ";".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "PLMap":
        parts = [p.strip() for p in text.strip().split(";")]
        model = parts[0]
        s0, o0 = parts[1].split(",")
        bps, slopes, offsets = [], [parse_rational(s0)], [parse_rational(o0)]
        for p in parts[2:]:
            b, so = p.split(":")
            s, o = so.split(",")
            bps.append(parse_rational(b))
            slopes.append(parse_rational(s))
            offsets.append(parse_rational(o))
        return cls(model, bps, slopes, offsets)


def power(x, n: int, identity):
    """x ** n by square-and-multiply, identity() for n = 0.  No product has
    an identity factor and no square follows n's top bit; every product
    stays within the work budget."""
    if n < 0:
        x, n = x.inverse(), -n
    out = None
    while n:
        if n & 1:
            out = x if out is None else budget_mul(out, x)
        n >>= 1
        if n:
            x = budget_mul(x, x)
    return identity() if out is None else out


class BudgetExceeded(ValueError):
    """A product of PL maps would pass the work budget: its breakpoint
    bound len(x._b) + len(y._b), or the sum of the factors' largest
    denominator bit lengths, exceeds PRODUCT_BUDGET."""


PRODUCT_BUDGET = 1 << 12  # radius-6 balls reach 11 breakpoints and 13-bit denominators


def budget_mul(x, y):
    """x * y, after checking the work budget when x and y are PL maps."""
    if isinstance(x, PLMap) and isinstance(y, PLMap):
        nb = len(x._b) + len(y._b)
        bits = sum(max(max(v[1::2]) for v in m._b + m._p).bit_length() for m in (x, y))
        if max(nb, bits) > PRODUCT_BUDGET:
            raise BudgetExceeded(f"a product of up to {nb} breakpoints and {bits}-bit "
                                 f"denominators passes the work budget {PRODUCT_BUDGET}")
    return x * y


# ---------------------------------------------------------------------------
# The germ homomorphism at 1 for F (unit model, slopes in <2>)
# ---------------------------------------------------------------------------

def tau1(g: PLMap) -> int:
    """-log2 D^- g(1)."""
    return -_log2(*g._p[-1][:2])


# ---------------------------------------------------------------------------
# Jump cocycles
# ---------------------------------------------------------------------------

def jump_cocycle(f: PLMap, x, side: str = "right") -> Fraction:
    """j^+(f,x) = prod_{y >= x} D^-f(y)/D^+f(y); j^- over y <= x."""
    x = Fraction(x)
    out = Fraction(1)
    for i, b in enumerate(f.breakpoints):
        left, right = f.slopes[i], f.slopes[i + 1]
        if side == "right" and b >= x:
            out *= Fraction(left, 1) / right
        elif side == "left" and b <= x:
            out *= Fraction(right, 1) / left
    return out


# ---------------------------------------------------------------------------
# Standard generators
# ---------------------------------------------------------------------------

def f_big_generator() -> PLMap:
    """The positive generator: 2x on [0,1/4], x+1/4 on [1/4,1/2], x/2+1/2 on [1/2,1].

    Note: the source formula prints the third branch as x/2, which is
    discontinuous with the middle branch; continuity forces x/2 + 1/2.
    """
    return PLMap.from_points("unit", [(Fraction(1, 4), Fraction(1, 2)),
                                      (Fraction(1, 2), Fraction(3, 4))])


def thompson_f_pair() -> tuple[PLMap, PLMap]:
    """A standard generating pair (a, b) of F satisfying the two relators.

    a is supported on (0, 5/8), b on (1/2, 1); (ba)(supp b) and
    (ba)^2(supp b) are disjoint from supp a, which is what makes the
    relators vanish.
    """
    a = PLMap.from_points("unit", [(Fraction(1, 8), Fraction(1, 4)),
                                   (Fraction(3, 8), Fraction(1, 2)),
                                   (Fraction(5, 8), Fraction(5, 8))])
    b = PLMap.from_points("unit", [(Fraction(1, 2), Fraction(1, 2)),
                                   (Fraction(5, 8), Fraction(3, 4)),
                                   (Fraction(3, 4), Fraction(7, 8))])
    return a, b


def translation(a) -> PLMap:
    return PLMap.affine(1, a)


def bs_g(a, lam) -> PLMap:
    """g(a, lam): x -> lam*x + (1-lam)*a, the affine map fixing a."""
    a, lam = Fraction(a), Fraction(lam)
    return PLMap.affine(lam, (1 - lam) * a)


def bs_g_plus(a, lam) -> PLMap:
    """Identity on (-inf, a], g(a, lam) on [a, +inf)."""
    a, lam = Fraction(a), Fraction(lam)
    return PLMap("line", [a], [1, lam], [0, (1 - lam) * a])


def bs_g_minus(a, lam) -> PLMap:
    """g(a, lam) on (-inf, a], identity on [a, +inf); equals g * g_plus^-1."""
    a, lam = Fraction(a), Fraction(lam)
    return PLMap("line", [a], [lam, 1], [(1 - lam) * a, 0])


def standard_generators(family: str) -> dict:
    """Named generating sets.

    family "thompsonF": the pair (a, b) plus the one-bump generator f0.
    family "bieriStrebel": the translation t(1) plus g(0,2), g+(0,2).
    """
    if family == "thompsonF":
        a, b = thompson_f_pair()
        return {"a": a, "b": b, "f0": f_big_generator()}
    if family == "bieriStrebel":
        return {"t(1)": translation(1), "g(0,2)": bs_g(0, 2),
                "g+(0,2)": bs_g_plus(0, 2)}
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Relators and 2-chains
# ---------------------------------------------------------------------------

def commutator(x: PLMap, y: PLMap) -> PLMap:
    return x * y * x.inverse() * y.inverse()


def relator_defects(a: PLMap, b: PLMap) -> tuple[PLMap, PLMap]:
    """The two F-relator commutators [a, (ba)b(ba)^-1], [a, (ba)^2 b(ba)^-2]."""
    r = b * a
    x1 = r * b * r.inverse()
    x2 = r * r * b * r.inverse() * r.inverse()
    return commutator(a, x1), commutator(a, x2)


def verify_relators(a: PLMap, b: PLMap) -> bool:
    """True iff both F-relators vanish exactly and <a,b> is non-abelian."""
    d1, d2 = relator_defects(a, b)
    return (d1.is_identity() and d2.is_identity()
            and not commutator(a, b).is_identity())


def two_chain_witness(f: PLMap, g: PLMap, max_power: int = 10000) -> int:
    """Smallest N >= 1 with g^N(f(c)) > d, where d = sup supp(f), c = inf supp(g).

    Checks the three chain hypotheses first and asserts that (f, g^N)
    satisfies the F-relators before returning.
    """
    if f.model != g.model:
        raise ModelMismatch(f"{f.model} vs {g.model}")
    sf = f.support()
    sg = g.support()
    if not sf or not sg:
        raise HypothesisFailed("i", "one of the maps is the identity")
    d = sf[-1][1]
    c = sg[0][0]
    if c is None or d is None:
        raise HypothesisFailed("i", "unbounded support")
    if not c < d:
        raise HypothesisFailed("i", f"inf supp(g) = {c} >= sup supp(f) = {d}")
    if f(c) == c:
        raise HypothesisFailed("ii", f"f fixes c = {c}")
    if g(d) == d:
        raise HypothesisFailed("ii", f"g fixes d = {d}")
    comp = next(((u, v) for u, v in sg
                 if (u is None or u < d) and (v is None or d < v)), None)
    if comp is None:
        raise HypothesisFailed("iii", "d not in supp(g)")
    u, v = comp
    fc = f(c)
    if not ((u is None or u < fc) and (v is None or fc < v)):
        raise HypothesisFailed("iii", "f(c) and d in different components of supp(g)")
    y = fc
    for n in range(1, max_power + 1):
        y2 = g(y)
        if y2 <= y and y <= d:
            raise NoWitness("g moves points downward in the component")
        y = y2
        if y > d:
            gN = g ** n
            if not verify_relators(f, gN):
                raise NoWitness("relators fail despite the chain hypotheses")
            return n
    raise NoWitness(f"no N up to {max_power}")


# ---------------------------------------------------------------------------
# Interval combinatorics
# ---------------------------------------------------------------------------

def nesting_forest(intervals) -> tuple:
    """One stack pass over half-open intervals [lo, hi), lo < hi, with
    comparable ends, in (lo, -hi) order: pop the intervals that end at or
    before the current start; the current one then lies in the top one or
    crosses it.  Returns (parent, None), parent[i] the smallest interval
    holding interval i (an equal one counts) or None, or else (None, (i, j)),
    i < j, the first crossing pair met."""
    ivs = list(intervals)
    order = sorted(range(len(ivs)), key=lambda i: ivs[i][1], reverse=True)
    order.sort(key=lambda i: ivs[i][0])  # stable, so (lo, -hi), then index
    parent, stack = [None] * len(ivs), []
    for i in order:
        while stack and ivs[stack[-1]][1] <= ivs[i][0]:
            stack.pop()
        if stack and ivs[stack[-1]][1] < ivs[i][1]:
            return None, tuple(sorted((stack[-1], i)))
        parent[i] = stack[-1] if stack else None
        stack.append(i)
    return parent, None


# ---------------------------------------------------------------------------
# Ball enumeration (generic over group elements with * and .inverse())
# ---------------------------------------------------------------------------

def expand_generators(generators: dict) -> tuple[dict, dict]:
    """(gens, undo): the generators with their inverses, in the order ball
    multiplies by them, and the name of the generator that undoes each.

    Each inverse is named by suffixing "^-1" and comes right after its
    generator; an involution gets no second name.  A later generator named
    like an inverse ("x^-1") takes over that name, and then x has no
    inverse in gens and no undoer.
    """
    gens, pairs = {}, []
    for name, el in generators.items():
        gens[name] = el
        inv = el.inverse()
        if inv != el:
            gens[f"{name}^-1"] = inv
            pairs.append((name, el, f"{name}^-1", inv))
        else:
            pairs.append((name, el, name, el))
    undo = {}
    for name, el, inv_name, inv in pairs:
        if gens[name] is el and gens[inv_name] is inv:
            undo[name], undo[inv_name] = inv_name, name
    return gens, undo


def ball(generators: dict, radius: int, identity=None) -> dict:
    """Elements of the ball of the given radius, as {element: word}.

    generators: {name: element}; inverses are added by expand_generators.
    Breadth-first search multiplies each element of the last sphere on the
    right by every generator in that order, and an element gets the word of
    the first product that reaches it: its parent's word, "*", and the
    generator's name.  So words have the fewest generators, but not always
    the fewest characters.  A product by the generator that undoes the one
    an element was reached by is skipped: x * g * g^-1 = x is already seen.
    """
    gens, undo = expand_generators(generators)
    if identity is None:
        some = next(iter(generators.values()))
        identity = some * some.inverse()
    seen = {identity: ""}
    frontier = [(identity, "", None)]
    for _ in range(radius):
        new = []
        for el, word, back in frontier:
            prefix = word + "*" if word else ""
            for name, gen in gens.items():
                if name == back:
                    continue
                cand = el * gen
                if cand not in seen:
                    seen[cand] = cand_word = prefix + name
                    new.append((cand, cand_word, undo.get(name)))
        frontier = new
    return seen
