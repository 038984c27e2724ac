"""Exact number types and lattice-order plumbing.

Dyadic rationals num/2^exp in canonical form, exact rationals (stdlib
Fraction with a fixed text format), finitely generated multiplicative
slope groups with exponent decomposition, lexicographic preorders on
integer lattices, and the module index |A / (lambda-1)A| for lambda = p/q.
"""

from __future__ import annotations

import math
from fractions import Fraction


class NotInGroup(ValueError):
    """A rational is not a product of the slope-group generators."""


class IndependenceViolation(ValueError):
    """Slope-group generators are multiplicatively dependent."""


class DimensionMismatch(ValueError):
    pass


class DegenerateSlope(ValueError):
    pass


# ---------------------------------------------------------------------------
# Dyadic rationals
# ---------------------------------------------------------------------------

class Dyadic:
    """num / 2^exp with exp >= 0, canonical: exp == 0 or num odd."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        num = int(num)
        exp = int(exp)
        if exp < 0:
            num <<= -exp
            exp = 0
        while exp > 0 and num % 2 == 0:
            num //= 2
            exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, *a):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_fraction(cls, x) -> "Dyadic":
        x = Fraction(x)
        d = x.denominator
        exp = d.bit_length() - 1
        if d != (1 << exp):
            raise ValueError(f"{x} is not dyadic")
        return cls(x.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def is_integer(self) -> bool:
        return self.exp == 0

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Dyadic):
            return self.num == other.num and self.exp == other.exp
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.as_fraction())

    def _cmp_key(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            if isinstance(other, Fraction):
                return self.as_fraction(), other
            return NotImplemented, None
        e = max(self.exp, o.exp)
        return self.num << (e - self.exp), o.num << (e - o.exp)

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        if a is NotImplemented:
            return a
        return a < b

    def __le__(self, other):
        a, b = self._cmp_key(other)
        if a is NotImplemented:
            return a
        return a <= b

    def __gt__(self, other):
        a, b = self._cmp_key(other)
        if a is NotImplemented:
            return a
        return a > b

    def __ge__(self, other):
        a, b = self._cmp_key(other)
        if a is NotImplemented:
            return a
        return a >= b

    # -- text form ----------------------------------------------------------

    def __str__(self):
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        text = text.strip()
        if "/2^" in text:
            num, exp = text.split("/2^")
            return cls(int(num), int(exp))
        if "/" in text:
            return cls.from_fraction(Fraction(text))
        return cls(int(text))


# ---------------------------------------------------------------------------
# Exact rationals: stdlib Fraction + fixed text form
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', 'p', or dyadic 'num/2^exp' into an exact Fraction."""
    text = text.strip()
    try:
        if "/2^" in text:
            return Dyadic.parse(text).as_fraction()
        return Fraction(text)
    except (ZeroDivisionError, ValueError) as e:
        raise ValueError(f"not a rational: {text!r}") from e


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale."""
    if n <= 0:
        raise ValueError("positive integers only")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_TEST_LIMIT (Miller-Rabin; the first
    thirteen primes are witnesses for every composite below that bound,
    Sorenson and Webster 2015)."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality of {n} is not decided above {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def exponent_vector(r: Fraction, primes: list[int]) -> list[int]:
    """Prime-exponent vector of r over the given primes.

    Raises NotInGroup if r involves a prime outside the list.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("positive rationals only")
    vec = [0] * len(primes)
    index = {p: i for i, p in enumerate(primes)}
    for n, sgn in ((r.numerator, 1), (r.denominator, -1)):
        for p, e in factorize(n).items():
            if p not in index:
                raise NotInGroup(f"prime {p} not available")
            vec[index[p]] += sgn * e
    return vec


def _solve_integer_system(cols: list[list[int]], target: list[int]) -> list[int]:
    """Solve sum_j x_j * cols[j] = target for integer x, or raise NotInGroup.

    Exact Gaussian elimination over Q; the caller guarantees the columns are
    linearly independent so any solution is unique.
    """
    m = len(target)
    k = len(cols)
    # augmented matrix, rows = primes
    rows = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(m)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < k:
        raise IndependenceViolation("generators are multiplicatively dependent")
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = rows[i][k]
    # consistency: zero rows must have zero rhs
    for i in range(r, m):
        if rows[i][k] != 0:
            raise NotInGroup("no exponent vector exists")
    if any(s.denominator != 1 for s in sol):
        raise NotInGroup("exponent vector is not integral")
    return [int(s) for s in sol]


class SlopeGroup:
    """Finitely generated multiplicative subgroup of Q_{>0}."""

    def __init__(self, generators):
        gens = [Fraction(g) for g in generators]
        if not gens:
            raise ValueError("need at least one generator")
        if any(g <= 0 for g in gens):
            raise ValueError("generators must be positive")
        primes = sorted({p for g in gens
                         for n in (g.numerator, g.denominator)
                         for p in factorize(n)})
        self.generators = gens
        self.primes = primes
        self._cols = [exponent_vector(g, primes) for g in gens]
        # independence check: solving for 0 must give the zero vector, and
        # the columns must have full rank
        _solve_integer_system(self._cols, [0] * len(primes))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def decompose(self, r) -> tuple[int, ...]:
        r = Fraction(r)
        if r <= 0:
            raise ValueError("positive rationals only")
        target = exponent_vector(r, self.primes)
        return tuple(_solve_integer_system(self._cols, target))

    def contains(self, r) -> bool:
        try:
            self.decompose(r)
            return True
        except NotInGroup:
            return False

    def product(self, vec) -> Fraction:
        if len(vec) != self.rank:
            raise DimensionMismatch(f"expected {self.rank} exponents")
        out = Fraction(1)
        for g, e in zip(self.generators, vec):
            out *= g ** e
        return out

    def __repr__(self):
        return f"SlopeGroup({[str(g) for g in self.generators]})"


def slope_decompose(r, group: SlopeGroup) -> tuple[int, ...]:
    return group.decompose(r)


class LatticePreorder:
    """Lexicographic stack of integer functionals on Z^k.

    Sign of v is the sign of the first row with nonzero value; the common
    kernel of all rows is the residue subgroup.
    """

    def __init__(self, rows, k: int | None = None):
        rows = [tuple(int(c) for c in row) for row in rows]
        if k is None:
            if not rows:
                raise ValueError("need k when rows are empty")
            k = len(rows[0])
        if any(len(row) != k for row in rows):
            raise DimensionMismatch("rows of unequal dimension")
        self.rows = rows
        self.k = k

    def sign_of(self, vec) -> int:
        vec = tuple(vec)
        if len(vec) != self.k:
            raise DimensionMismatch(f"expected dimension {self.k}")
        for row in self.rows:
            s = sum(r * v for r, v in zip(row, vec))
            if s > 0:
                return 1
            if s < 0:
                return -1
        return 0

    def opposite(self) -> "LatticePreorder":
        return LatticePreorder([tuple(-c for c in row) for row in self.rows],
                               self.k)

    def __repr__(self):
        return f"LatticePreorder({self.rows})"


def lattice_sign(vec, preorder: LatticePreorder) -> int:
    """-1 / 0 / +1 per the first-nonzero-row rule (0 = residue)."""
    return preorder.sign_of(vec)


# ---------------------------------------------------------------------------
# Module index |A / (lambda - 1) A| for lambda = p/q
# ---------------------------------------------------------------------------

def _in_submodule(x: Fraction, p: int, q: int) -> bool:
    """x in (lambda-1)A where A = Z[1/(pq)] and lambda = p/q.

    (lambda-1)A = (p-q)A since q is a unit of A, and membership of a reduced
    c/d (d | (pq)^m) comes down to (p-q) | c because gcd(p-q, pq) = 1.
    """
    d = x.denominator
    # denominator must divide a power of pq
    while d > 1:
        g = math.gcd(d, p * q)
        if g == 1:
            return False
        d //= g
    return x.numerator % (p - q) == 0


def module_index(p: int, q: int) -> int:
    """|A / I_Lambda A| for lambda = p/q, by brute-force residue enumeration.

    Enumerates residues of a/(pq)^m with doubling bounds until the count of
    distinct classes stabilizes over two consecutive rounds.
    """
    p, q = int(p), int(q)
    if p == q:
        raise DegenerateSlope("p = q")
    if not (p > q >= 1):
        raise ValueError("need p > q >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError("need gcd(p, q) = 1")

    def classes(m_bound: int, a_bound: int) -> int:
        reps: list[Fraction] = []
        base = p * q
        for m in range(m_bound + 1):
            den = base ** m
            for a in range(a_bound):
                x = Fraction(a, den)
                if not any(_in_submodule(x - r, p, q) for r in reps):
                    reps.append(x)
        return len(reps)

    m_bound, a_bound = 1, p - q + 1
    prev = classes(m_bound, a_bound)
    while True:
        m_bound += 1
        a_bound *= 2
        cur = classes(m_bound, a_bound)
        if cur == prev:
            return cur
        prev = cur
