"""Left-invariant preorder engines on PL groups.

Every engine exposes sign(g) -> Sign with the cone contract: the Positive
set is a semigroup, sign(g^-1) = -sign(g), the Residue set is a subgroup,
and Residue * Positive * Residue stays Positive.  Four constructions are
provided: restriction to a discrete invariant set, jump cocycles against a
lattice preorder, prime jumps for rational-slope maps, and escaping orbit
sequences for cyclic-germ groups.
"""

from __future__ import annotations

import enum
import random
from fractions import Fraction

from .exactnum import LatticePreorder, NotInGroup, SlopeGroup, factorize, is_prime
from .plgroup import PLMap, f_big_generator, tau1


class Sign(enum.Enum):
    NEGATIVE = -1
    RESIDUE = 0
    POSITIVE = 1

    def __neg__(self):
        return Sign(-self.value)


class NotInFPlus(ValueError):
    """The element has a nontrivial germ at the right endpoint."""


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
        """K-points strictly below upper, in decreasing order (lazy)."""
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

    def points_between(self, lo: Fraction, hi: Fraction) -> list[Fraction]:
        """Sorted list of K-points in (lo, hi)."""
        out = []
        for x in self.points_desc(hi):
            if x <= lo:
                break
            out.append(x)
        return sorted(out)

    def contains(self, x) -> bool:
        x = Fraction(x)
        if not 0 < x < 1:
            return False
        for p in self.points_desc((1 + x) / 2):
            if p == x:
                return True
            if p < x:
                return False


def xg(g: PLMap, K: DiscreteInvariantSet):
    """sup{x in K : g(x) != x}, or None when g fixes K pointwise.

    Requires tau1(g) = 0 (trivial right germ); scans K downward from the
    top of supp(g) and stops below its bottom.
    """
    if tau1(g) != 0:
        raise NotInFPlus(f"tau1 = {tau1(g)}")
    if g.is_identity():
        return None
    supp = g.support()
    lo = supp[0][0]
    hi = supp[-1][1]
    for x in K.points_desc(hi):
        if x <= lo:
            break
        if g(x) != x:
            return x
    return None


def restriction_sign(g: PLMap, K: DiscreteInvariantSet) -> Sign:
    """Positive iff g moves its outermost moved K-point up."""
    x = xg(g, K)
    if x is None:
        return Sign.RESIDUE
    return Sign.POSITIVE if g(x) > x else Sign.NEGATIVE


class RestrictionEngine:
    def __init__(self, K: DiscreteInvariantSet):
        self.K = K

    def sign(self, g: PLMap) -> Sign:
        return restriction_sign(g, self.K)

    def __repr__(self):
        return f"RestrictionEngine(seeds={self.K.seeds})"


# ---------------------------------------------------------------------------
# Jump preorders for Bieri-Strebel groups
# ---------------------------------------------------------------------------

def _jump_scan(g: PLMap, side: str, group: SlopeGroup, order: LatticePreorder):
    """(x, cumulative jump value, its sign) at the outermost non-residue
    breakpoint, or None when every cumulative jump lies in the residue."""
    items = list(enumerate(g.breakpoints))
    if side == "right":
        items.reverse()
    acc = Fraction(1)
    for i, b in items:
        left, right = g.slopes[i], g.slopes[i + 1]
        acc *= Fraction(left) / right if side == "right" else Fraction(right) / left
        try:
            vec = group.decompose(acc)
        except NotInGroup as e:
            raise SlopeNotInGroup(str(e)) from None
        s = order.sign_of(vec)
        if s != 0:
            return b, acc, s
    return None


def jump_sign(g: PLMap, side: str = "right",
              group: SlopeGroup | None = None,
              order: LatticePreorder | None = None) -> Sign:
    """Sign of j^side(g, .) at its outermost non-residue point."""
    return JumpEngine(side, group, order).sign(g)


class JumpEngine:
    """Jump preorder; by default on <2> with the lexicographic order."""

    def __init__(self, side: str = "right",
                 group: SlopeGroup | None = None,
                 order: LatticePreorder | None = None):
        self.side = side
        self.group = group or SlopeGroup([2])
        self.order = order or LatticePreorder.lex(self.group.rank)

    def sign(self, g: PLMap) -> Sign:
        hit = _jump_scan(g, self.side, self.group, self.order)
        return Sign.RESIDUE if hit is None else Sign(hit[2])

    def critical_point(self, g: PLMap):
        """x_{g,Lambda_0}, or None for residue elements."""
        hit = _jump_scan(g, self.side, self.group, self.order)
        return None if hit is None else hit[0]

    def __repr__(self):
        return f"JumpEngine(side={self.side!r}, group={self.group!r})"


# ---------------------------------------------------------------------------
# Prime-jump preorders on PL_Q
# ---------------------------------------------------------------------------

def _nu(q: int, r: Fraction) -> int:
    """q-adic valuation of a positive rational."""
    v = 0
    n = r.numerator
    while n % q == 0:
        n //= q
        v += 1
    n = r.denominator
    while n % q == 0:
        n //= q
        v -= 1
    return v


def prime_jump_sign(g: PLMap, q: int) -> Sign:
    """Sign of D_q^- g at the largest x where it differs from 1.

    D_q^- g(x) = q^{nu_q(D^- g(x))}; the left derivative is constant on each
    piece's half-open interval, so the scan runs over pieces from the top.
    """
    for slope in reversed(g.slopes):
        v = _nu(q, Fraction(slope))
        if v > 0:
            return Sign.POSITIVE
        if v < 0:
            return Sign.NEGATIVE
    return Sign.RESIDUE


def slope_primes(g: PLMap) -> set[int]:
    out: set[int] = set()
    for s in g.slopes:
        s = Fraction(s)
        out.update(factorize(s.numerator))
        out.update(factorize(s.denominator))
    return out


def combined_prime_sign(g: PLMap) -> Sign:
    """Sign under the preorder of the largest prime occurring in g's slopes."""
    primes = slope_primes(g)
    if not primes:
        return Sign.RESIDUE
    return prime_jump_sign(g, max(primes))


class PrimeJumpEngine:
    def __init__(self, q: int):
        q = int(q)
        if not is_prime(q):
            raise ValueError(f"prime:q needs a prime q >= 2, got {q}")
        self.q = q

    def sign(self, g: PLMap) -> Sign:
        return prime_jump_sign(g, self.q)

    def __repr__(self):
        return f"PrimeJumpEngine(q={self.q})"


class CombinedPrimeEngine:
    def sign(self, g: PLMap) -> Sign:
        return combined_prime_sign(g)

    def __repr__(self):
        return "CombinedPrimeEngine()"


# ---------------------------------------------------------------------------
# Escaping-sequence order for F
# ---------------------------------------------------------------------------

class EscapingContext:
    """The bi-infinite sequence s_n = f0^n(s0) and the germ cocycle tau1."""

    def __init__(self, f0: PLMap | None = None, s0=Fraction(1, 2)):
        f0 = f0 or f_big_generator()
        if tau1(f0) != 1:
            raise ValueError("base element must have tau1 = 1")
        self.f0 = f0
        self.s0 = Fraction(s0)
        self.orbit = DiscreteInvariantSet(f0, (self.s0,))
        self._cache = {0: self.s0}

    def s(self, n: int) -> Fraction:
        if n not in self._cache:
            if n > 0:
                self._cache[n] = self.f0(self.s(n - 1))
            else:
                self._cache[n] = self.f0.inverse()(self.s(n + 1))
        return self._cache[n]

    def tau(self, g: PLMap) -> int:
        return tau1(g)


class EscapingEngine:
    """Sign of g via the action on the escaping sequence s.

    (g.s)_n = g(s_{n - tau(g)}); with v = f0^{-tau(g)} g (which has trivial
    right germ), the top disagreement index of g.s against s is the
    outermost orbit point moved by v, and the entry comparison there has
    the sign of v(x) - x.
    """

    def __init__(self, ctx: EscapingContext | None = None):
        self.ctx = ctx or EscapingContext()
        self._germ_inverse = {}  # t -> f0^-t, the factor that kills g's right germ

    def sign(self, g: PLMap) -> Sign:
        t = self.ctx.tau(g)
        h = self._germ_inverse.get(t)
        if h is None:
            h = self._germ_inverse[t] = self.ctx.f0 ** (-t)
        v = h * g
        x = xg(v, self.ctx.orbit)
        if x is None:
            return Sign.RESIDUE
        return Sign.POSITIVE if v(x) > x else Sign.NEGATIVE

    def __repr__(self):
        return f"EscapingEngine(s0={self.ctx.s0})"


def escaping_compare(g: PLMap, h: PLMap, ctx: EscapingContext | None = None) -> str:
    """Compare the sequences g.s and h.s: 'Less', 'Equal' or 'Greater'.

    The sequence order is invariant under the action, so the comparison
    reduces to the sign of h^-1 g.
    """
    engine = EscapingEngine(ctx)
    s = engine.sign(h.inverse() * g)
    return {Sign.NEGATIVE: "Less", Sign.RESIDUE: "Equal", Sign.POSITIVE: "Greater"}[s]


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
