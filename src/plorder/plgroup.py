"""Exact piecewise-linear homeomorphism algebra.

PLMap is a finitary orientation-preserving PL bijection of [0,1] (fixing the
endpoints) or of the line (with affine end germs).  On top of the group law
the module provides germ data, jump cocycles, fixed-point structure, standard
generating sets (Thompson's F, Bieri-Strebel groups), relator verification,
2-chain witnesses and the cross-free predicate.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
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
    if r.numerator == 1:
        n = r.denominator
        sign = -1
    elif r.denominator == 1:
        n = r.numerator
        sign = 1
    else:
        raise ValueError(f"{r} is not a power of 2")
    e = n.bit_length() - 1
    if n != (1 << e):
        raise ValueError(f"{r} is not a power of 2")
    return sign * e


class FixedStructure(NamedTuple):
    fixed: list        # closed maximal fixed intervals (lo, hi); None = +-inf
    support: list      # open support components (lo, hi); None = +-inf


class PLMap:
    """Orientation-preserving PL homeomorphism in canonical form.

    model "unit": domain [0,1], fixes 0 and 1.
    model "line": domain R; the first/last pieces are the affine end germs.
    """

    __slots__ = ("model", "breakpoints", "slopes", "offsets", "_hash")

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
        self._fill(model, bps, sl, off)
        if model == "unit":
            if any(not (0 < b < 1) for b in self.breakpoints):
                raise ValueError("unit-model breakpoints must lie in (0,1)")
            if off[0] != 0:
                raise ValueError("unit-model map must fix 0")
            if sl[-1] + off[-1] != 1:
                raise ValueError("unit-model map must fix 1")

    @classmethod
    def _trusted(cls, model: str, bps: list, slopes: list, offsets: list) -> "PLMap":
        """Build a map from pieces without validating them.

        Invariant: the callers pass the pieces of an already-valid map (the
        composite or inverse of valid maps): Fractions, positive slopes,
        strictly increasing breakpoints, continuity, and for the unit model
        breakpoints in (0,1) and the endpoints fixed.  Only canonicalization
        is done here (the hash waits for its first use); every outside input
        goes through PLMap().
        """
        obj = object.__new__(cls)
        obj._fill(model, bps, slopes, offsets)
        return obj

    def _fill(self, model, bps, slopes, offsets):
        # canonical: drop breakpoints whose adjacent pieces coincide
        keep_b, keep_s, keep_o = [], [slopes[0]], [offsets[0]]
        for b, s, o in zip(bps, slopes[1:], offsets[1:]):
            if s != keep_s[-1] or o != keep_o[-1]:
                keep_b.append(b)
                keep_s.append(s)
                keep_o.append(o)
        keep_b, keep_s, keep_o = tuple(keep_b), tuple(keep_s), tuple(keep_o)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "breakpoints", keep_b)
        object.__setattr__(self, "slopes", keep_s)
        object.__setattr__(self, "offsets", keep_o)

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
        return not self.breakpoints and self.slopes[0] == 1 and self.offsets[0] == 0

    def piece_index(self, x: Fraction) -> int:
        return bisect_right(self.breakpoints, x)

    def __call__(self, x) -> Fraction:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if self.model == "unit" and not (0 <= x <= 1):
            raise OutOfDomain(f"{x} outside [0,1]")
        i = self.piece_index(x)
        return self.slopes[i] * x + self.offsets[i]

    # -- group law ----------------------------------------------------------

    def inverse(self) -> "PLMap":
        bps = [s * b + o for b, s, o in zip(self.breakpoints, self.slopes, self.offsets)]
        slopes = [1 / s for s in self.slopes]
        offsets = [-o / s for s, o in zip(self.slopes, self.offsets)]
        return PLMap._trusted(self.model, bps, slopes, offsets)

    def __mul__(self, other: "PLMap") -> "PLMap":
        """(f * g)(x) = f(g(x)), by one ordered merge of the two piece lists.

        Walk g's pieces x -> a*x + c from left to right.  Inside each piece,
        every breakpoint b of f strictly inside the piece's image gives a
        breakpoint (b - c)/a of the product; between consecutive breakpoints
        the product is f's piece (fs, fo) after g's, i.e. slope fs*a and
        offset fs*c + fo.  No inverse is built and no point is evaluated.
        """
        if not isinstance(other, PLMap):
            return NotImplemented
        if self.model != other.model:
            raise ModelMismatch(f"{self.model} vs {other.model}")
        fb, fs, fo = self.breakpoints, self.slopes, self.offsets
        gb = other.breakpoints
        nf, ng = len(fb), len(gb)
        bps, slopes, offsets = [], [], []
        j = 0  # f's piece at the image of the current point
        for i, (a, c) in enumerate(zip(other.slopes, other.offsets)):
            # image of the piece's right end; the last piece reaches the end
            # of the domain, which no breakpoint of f lies beyond
            top = a * gb[i] + c if i < ng else None
            while j < nf and (top is None or fb[j] < top):
                s = fs[j]
                slopes.append(s * a)
                offsets.append(s * c + fo[j])
                bps.append((fb[j] - c) / a)
                j += 1
            s = fs[j]
            slopes.append(s * a)
            offsets.append(s * c + fo[j])
            if top is not None:
                bps.append(gb[i])
                if j < nf and fb[j] == top:
                    j += 1
        return PLMap._trusted(self.model, bps, slopes, offsets)

    def __pow__(self, n: int) -> "PLMap":
        if n < 0:
            return self.inverse() ** (-n)
        out = PLMap.identity(self.model)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return (self.model == other.model
                and self.breakpoints == other.breakpoints
                and self.slopes == other.slopes
                and self.offsets == other.offsets)

    def __hash__(self):
        # computed on first use: most products are never hashed
        try:
            return self._hash
        except AttributeError:
            h = hash((self.model, self.breakpoints, self.slopes, self.offsets))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"PLMap.from_text({self.to_text()!r})"

    # -- structure ----------------------------------------------------------

    def _piece_domains(self):
        """Yield (lo, hi, slope, offset); lo/hi None for +-inf."""
        lo = Fraction(0) if self.model == "unit" else None
        bounds = list(self.breakpoints) + [Fraction(1) if self.model == "unit" else None]
        for (s, o), hi in zip(zip(self.slopes, self.offsets), bounds):
            yield lo, hi, s, o
            lo = hi

    def fixed_structure(self) -> FixedStructure:
        fixed = []
        for lo, hi, s, o in self._piece_domains():
            if s == 1:
                if o == 0:
                    fixed.append((lo, hi))
                continue
            x = o / (1 - s)
            if (lo is None or lo <= x) and (hi is None or x <= hi):
                fixed.append((x, x))
        # merge adjacent fixed parts sharing an endpoint
        merged = []
        for part in fixed:
            if merged and merged[-1][1] == part[0]:
                merged[-1] = (merged[-1][0], part[1])
            else:
                merged.append(list(part) if isinstance(part, tuple) else part)
        merged = [tuple(p) for p in merged]
        # support components = complement of the fixed set within the domain
        support = []
        left = Fraction(0) if self.model == "unit" else None
        for lo, hi in merged:
            if lo is None:
                left = hi
                continue
            if left is None or left < lo:
                support.append((left, lo))
            left = hi
        right_end = Fraction(1) if self.model == "unit" else None
        if left is not None and (right_end is None or left < right_end):
            support.append((left, right_end))
        elif not merged:
            support.append((left, right_end))
        return FixedStructure(merged, support)

    def support(self) -> list:
        return self.fixed_structure().support

    def germ(self, endpoint):
        """Affine germ (slope, translation) at an endpoint.

        endpoint: 0 or 1 (unit model), "-inf" or "+inf" (line model).
        """
        if self.model == "unit":
            if endpoint == 0:
                return (self.slopes[0], Fraction(0))
            if endpoint == 1:
                return (self.slopes[-1], self.offsets[-1])
            raise OutOfDomain("endpoint must be 0 or 1")
        if endpoint in ("-inf", "-oo"):
            return (self.slopes[0], self.offsets[0])
        if endpoint in ("+inf", "+oo"):
            return (self.slopes[-1], self.offsets[-1])
        raise OutOfDomain("endpoint must be '-inf' or '+inf'")

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


# ---------------------------------------------------------------------------
# Germ homomorphisms for F (unit model, slopes in <2>)
# ---------------------------------------------------------------------------

def tau0(g: PLMap) -> int:
    """-log2 D^+ g(0)."""
    return -int_log2(g.slopes[0])


def tau1(g: PLMap) -> int:
    """-log2 D^- g(1)."""
    return -int_log2(g.slopes[-1])


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


def standard_generators(family: str, module_gens=(1,), slope_gens=(2,)) -> dict:
    """Named generating sets.

    family "thompsonF": the pair (a, b) plus the one-bump generator f0.
    family "bieriStrebel": translations t_a plus g(0,lam), g+(0,lam).
    """
    if family == "thompsonF":
        a, b = thompson_f_pair()
        return {"a": a, "b": b, "f0": f_big_generator()}
    if family == "bieriStrebel":
        out = {}
        for a in module_gens:
            out[f"t({a})"] = translation(a)
        for lam in slope_gens:
            out[f"g(0,{lam})"] = bs_g(0, lam)
            out[f"g+(0,{lam})"] = bs_g_plus(0, lam)
        return out
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

def _crosses(a, b, c, d) -> bool:
    """Open intervals (a,b), (c,d) cross: overlap without containment.

    None is -inf as a left end and +inf as a right end.
    """
    if (b is not None and c is not None and b <= c) or \
       (d is not None and a is not None and d <= a):
        return False  # disjoint

    def contains(p, q, r, s):  # (p,q) contains (r,s)
        return ((p is None or (r is not None and p <= r))
                and (q is None or (s is not None and s <= q)))
    return not (contains(a, b, c, d) or contains(c, d, a, b))


def crossing_pair(intervals) -> tuple[int, int] | None:
    """Indices (i, j), i < j, of the lexicographically first crossing pair
    of open intervals, or None when all pairs are nested or disjoint."""
    ivs = list(intervals)
    return next(((i, j) for i in range(len(ivs)) for j in range(i + 1, len(ivs))
                 if _crosses(*ivs[i], *ivs[j])), None)


def cross_free(intervals) -> bool:
    """True iff all pairs are nested or disjoint."""
    return crossing_pair(intervals) is None


# ---------------------------------------------------------------------------
# Ball enumeration (generic over group elements with * and .inverse())
# ---------------------------------------------------------------------------

def ball(generators: dict, radius: int, identity=None) -> dict:
    """Elements of the ball of the given radius, as {element: shortest word}.

    generators: {name: element}; inverses are added automatically with
    names suffixed by "^-1".  Words are "*"-joined generator names.
    """
    gens = {}
    for name, el in generators.items():
        gens[name] = el
        inv = el.inverse()
        if inv != el:
            gens[f"{name}^-1"] = inv
    if identity is None:
        some = next(iter(generators.values()))
        identity = some * some.inverse()
    seen = {identity: ""}
    frontier = [identity]
    for _ in range(radius):
        new = []
        for el in frontier:
            for name, gen in gens.items():
                cand = el * gen
                if cand not in seen:
                    word = name if seen[el] == "" else seen[el] + "*" + name
                    seen[cand] = word
                    new.append(cand)
        frontier = new
    return seen
