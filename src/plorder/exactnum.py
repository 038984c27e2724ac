"""Exact rationals and lattice-order plumbing.

Exact rationals (stdlib Fraction with a fixed text format; 'n/2^e' text
is accepted), finitely generated multiplicative slope groups with exponent
decomposition, lexicographic preorders on integer lattices, and the module
index |A / (lambda-1)A| for lambda = p/q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul


class NotInGroup(ValueError):
    """A rational is not a product of the slope-group generators."""


class IndependenceViolation(ValueError):
    """Slope-group generators are multiplicatively dependent."""


class DimensionMismatch(ValueError):
    pass


class DegenerateSlope(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exact rationals: stdlib Fraction + fixed text form
# ---------------------------------------------------------------------------

MAX_EXPONENT = 1 << 24


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', 'p', or 'n/2^e' (e may be negative) into an exact Fraction.

    |e| is refused above MAX_EXPONENT before anything is shifted, so text
    cannot allocate an integer of more than 2^24 bits.
    """
    text = text.strip()
    try:
        if "/2^" in text:
            num, exp = text.split("/2^")
            n, e = int(num), int(exp)
        else:
            return Fraction(text)
    except (ZeroDivisionError, ValueError) as err:
        raise ValueError(f"not a rational: {text!r}") from err
    if abs(e) > MAX_EXPONENT:
        raise ValueError(f"exponent {e} in {text!r} exceeds the budget "
                         f"|e| <= {MAX_EXPONENT}")
    return Fraction(n, 1 << e) if e >= 0 else Fraction(n << -e)


def format_rational(x: Fraction) -> str:
    """'p/q', or 'p' for an integer: Fraction's own text form."""
    return str(Fraction(x))


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


def valuation(r: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational: the exponent of p in r."""
    if p < 2 or r == 0:
        raise ValueError("need p >= 2 and a nonzero rational")
    v = 0
    for n, step in ((r.numerator, 1), (r.denominator, -1)):
        while n % p == 0:
            n //= p
            v += step
    return v


def exponent_vector(r: Fraction, primes: list[int]) -> list[int]:
    """Prime-exponent vector of r over the given primes.

    Raises NotInGroup if r involves a prime outside the list.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("positive rationals only")
    vec = [valuation(r, p) for p in primes]
    num, den = r.numerator, r.denominator
    for p, v in zip(primes, vec):
        if v > 0:
            num //= p ** v
        else:
            den //= p ** -v
    if num != 1 or den != 1:
        raise NotInGroup(f"factor {Fraction(num, den)} of {r} not available "
                         f"over the primes {primes}")
    return vec


def _solve_integer_system(cols: list[list[int]], target: list[int]) -> list[int]:
    """Solve sum_j x_j * cols[j] = target for integer x, or raise NotInGroup.

    Fraction-free Gauss-Jordan on ints (Bareiss 1968): column c pivots in
    row c, and every other row becomes row * pivot - row[c] * pivot_row,
    divided exactly by the previous pivot.  Each row stays a nonzero multiple
    of the one elimination over Q makes, so the two raise alike; x_i is one
    exact division.  Independent columns make any solution unique.
    """
    k, prev = len(cols), 1
    rows = [list(row) for row in zip(*cols, target)]  # augmented, one row per prime
    for c in range(k):
        pr = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pr is None:
            raise IndependenceViolation("generators are multiplicatively dependent")
        rows[c], rows[pr] = rows[pr], rows[c]
        piv, p = rows[c], rows[c][c]
        rows = [row if row is piv else
                [(a * p - row[c] * b) // prev for a, b in zip(row, piv)] for row in rows]
        prev = p
    if any(row[k] for row in rows[k:]):  # consistency: zero rows have zero rhs
        raise NotInGroup("no exponent vector exists")
    sol = [divmod(row[k], row[i]) for i, row in enumerate(rows[:k])]
    if any(rem for _, rem in sol):
        raise NotInGroup("exponent vector is not integral")
    return [x for x, _ in sol]


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
        # independence check: the columns must have full rank
        _solve_integer_system(self._cols, [0] * len(primes))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def decompose(self, r) -> tuple[int, ...]:
        return tuple(_solve_integer_system(self._cols, exponent_vector(r, self.primes)))

    def product(self, vec) -> Fraction:
        if len(vec) != self.rank:
            raise DimensionMismatch(f"expected {self.rank} exponents")
        return math.prod((g ** e for g, e in zip(self.generators, vec)), start=Fraction(1))

    def __repr__(self):
        return f"SlopeGroup({[str(g) for g in self.generators]})"


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
        self._lex = rows == [tuple(int(i == j) for j in range(k)) for i in range(k)]

    @classmethod
    def lex(cls, k: int) -> "LatticePreorder":
        """The lexicographic order on Z^k: identity rows, trivial residue."""
        return cls([tuple(int(i == j) for j in range(k)) for i in range(k)], k)

    def values(self, vec) -> tuple[int, ...]:
        """Row values of vec; u precedes v iff values(u) < values(v) as tuples.
        The identity rows of lex(k) give vec itself."""
        vec = tuple(vec)
        if len(vec) != self.k:
            raise DimensionMismatch(f"expected dimension {self.k}")
        return vec if self._lex else tuple(sum(map(mul, row, vec)) for row in self.rows)

    def sign_of(self, vec) -> int:
        for s in self.values(vec):
            if s:
                return 1 if s > 0 else -1
        return 0

    def __repr__(self):
        return f"LatticePreorder({self.rows})"


# ---------------------------------------------------------------------------
# Module index |A / (lambda - 1) A| for lambda = p/q
# ---------------------------------------------------------------------------

def module_index(p: int, q: int) -> int:
    """|A / I_Lambda A| for lambda = p/q, in closed form: p - q.

    With A = Z[1/(pq)], (lambda-1)A = (p-q)A since q is a unit of A.  As
    gcd(p-q, pq) = 1, a reduced c/d in A (d | (pq)^m) lies in (p-q)A iff
    (p-q) | c, and d is invertible modulo p-q, so every element of A is
    congruent to an integer; hence A/(p-q)A = Z/(p-q).
    """
    p, q = int(p), int(q)
    if p == q:
        raise DegenerateSlope("p = q")
    if not (p > q >= 1):
        raise ValueError("need p > q >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError("need gcd(p, q) = 1")
    return p - q
