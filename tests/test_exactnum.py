import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from plorder.exactnum import (
    IndependenceViolation,
    LatticePreorder,
    NotInGroup,
    PRIME_TEST_LIMIT,
    SlopeGroup,
    _solve_integer_system,
    exponent_vector,
    factorize,
    format_rational,
    is_prime,
    module_index,
    parse_rational,
    valuation,
)


class TestRationalIO:
    @pytest.mark.parametrize("text,value", [
        ("1/2", Fraction(1, 2)),
        ("-3", Fraction(-3)),
        ("7/4", Fraction(7, 4)),
        ("0", Fraction(0)),
        ("3/2^2", Fraction(3, 4)),
        ("6/2^3", Fraction(3, 4)),
        ("1/2^-1", Fraction(2)),
        ("-5/2^0", Fraction(-5)),
        # one shift, not a loop over the exponent
        ("0/2^10000000", Fraction(0)),
    ])
    def test_roundtrip(self, text, value):
        assert parse_rational(text) == value
        assert parse_rational(format_rational(value)) == value

    def test_rejects_garbage(self):
        for text in ("1/0", "x", "1/2^x", "1/2^2/2^3"):
            with pytest.raises(ValueError):
                parse_rational(text)

    @pytest.mark.parametrize("text", ["1/2^1000000000", "3/2^-16777217"])
    def test_refuses_exponent_over_budget(self, text):
        # refused before the shift: 2^1000000000 would be a 125 MB integer
        with pytest.raises(ValueError, match="exceeds the budget"):
            parse_rational(text)


class TestFactorize:
    def test_small(self):
        assert factorize(12) == {2: 2, 3: 1}
        assert factorize(1) == {}
        assert factorize(97) == {97: 1}

    @given(st.integers(1, 10000))
    def test_product_recovers(self, n):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            prod *= p ** e
        assert prod == n


class TestIsPrime:
    def test_matches_trial_division(self):
        assert [n for n in range(-2, 5000) if is_prime(n)] == \
            [n for n in range(2, 5000) if factorize(n) == {n: 1}]

    def test_strong_pseudoprimes(self):
        # composites that pass Miller-Rabin for the bases 2..7, 2..23, 2..37
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)
        assert not is_prime(318665857834031151167461)
        assert is_prime(1000000000000000003)

    def test_refuses_beyond_bound(self):
        with pytest.raises(ValueError):
            is_prime(PRIME_TEST_LIMIT)


def _fraction_solve(cols: list[list[int]], target: list[int]) -> list[int]:
    """The oracle: Gauss-Jordan elimination over Q, raising as the solver
    does.  Column c pivots in row c; the row is divided by its pivot."""
    m, k = len(target), len(cols)
    rows = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(m)]
    for c in range(k):
        pr = next((i for i in range(c, m) if rows[i][c] != 0), None)
        if pr is None:
            raise IndependenceViolation("generators are multiplicatively dependent")
        rows[c], rows[pr] = rows[pr], rows[c]
        pv = rows[c][c]
        rows[c] = [v / pv for v in rows[c]]
        for i in range(m):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(rows[i][k] for i in range(k, m)):
        raise NotInGroup("no exponent vector exists")
    sol = [rows[i][k] for i in range(k)]
    if any(s.denominator != 1 for s in sol):
        raise NotInGroup("exponent vector is not integral")
    return [int(s) for s in sol]


def _outcome(f, *args):
    """f's result, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


class TestSlopeGroup:
    def test_decompose_single(self):
        g = SlopeGroup([2])
        assert g.decompose(Fraction(8)) == (3,)
        assert g.decompose(Fraction(1, 4)) == (-2,)
        with pytest.raises(NotInGroup):
            g.decompose(Fraction(3))

    def test_decompose_rank_two(self):
        g = SlopeGroup([2, 3])
        assert g.decompose(Fraction(12)) == (2, 1)
        assert g.decompose(Fraction(9, 8)) == (-3, 2)

    def test_rejects_dependent_generators(self):
        # 4 = 2^2 is multiplicatively dependent on 2
        with pytest.raises(IndependenceViolation):
            SlopeGroup([2, 4])
        with pytest.raises(IndependenceViolation):  # a zero column
            SlopeGroup([1])
        # dependent columns, and more columns than primes, fail as the oracle does
        for cols in ([[1], [2]], [[0]], [[1, 0], [0, 0]], [[1, 1], [2, 2]],
                     [[1, 0], [0, 1], [1, 1]]):
            expected = _outcome(_fraction_solve, cols, [0] * len(cols[0]))
            assert expected[0] is IndependenceViolation
            assert _outcome(_solve_integer_system, cols, [0] * len(cols[0])) == expected

    @pytest.mark.parametrize("gen, outcomes", [
        (2, {"solved"}),
        (4, {"solved", "exponent vector is not integral"}),
        (Fraction(3, 2), {"solved", "no exponent vector exists"}),
        (6, {"solved", "no exponent vector exists"})])
    def test_rank_one_division_is_elimination(self, gen, outcomes):
        # every exponent vector in a box over the generator's primes: the
        # integral multiples of its column, the vectors on its line that are
        # not integral multiples, and the vectors off its line
        gen = Fraction(gen)
        primes = sorted(factorize(gen.numerator) | factorize(gen.denominator))
        col, group = exponent_vector(gen, primes), SlopeGroup([gen])
        seen = set()
        for target in map(list, product(range(-4, 5), repeat=len(primes))):
            expected = _outcome(_fraction_solve, [col], target)
            assert _outcome(_solve_integer_system, [col], target) == expected, target
            seen.add(expected[1] if isinstance(expected, tuple) else "solved")
            if isinstance(expected, list):
                assert group.decompose(group.product(expected)) == tuple(expected)
        assert seen == outcomes
        with pytest.raises(NotInGroup, match="not available"):
            group.decompose(Fraction(5, 7))

    @pytest.mark.parametrize("gens", [
        [2], [4], [Fraction(3, 2)], [6], [2, 3], [2, Fraction(3, 2)], [6, 10],
        [4, 9], [12, 18], [2, 3, 5], [3, 2]], ids=lambda gens: ",".join(map(str, gens)))
    def test_integer_elimination_is_fraction_elimination(self, gens):
        # every exponent vector in the box [-4, 4]^m over the generators'
        # primes: the same solution, or the same error type and message
        group = SlopeGroup(gens)
        for target in map(list, product(range(-4, 5), repeat=len(group.primes))):
            expected = _outcome(_fraction_solve, group._cols, target)
            assert _outcome(_solve_integer_system, group._cols, target) == expected, target
            if isinstance(expected, list):
                r = group.product(expected)
                assert exponent_vector(r, group.primes) == target
                assert group.decompose(r) == tuple(expected)
            else:
                assert expected[0] is NotInGroup

    def test_integer_elimination_on_random_systems(self):
        # seeded integer systems, 1-3 columns over 1-4 rows: singular ones,
        # zero pivots that need a row swap, and targets on and off the lattice
        rng = random.Random(0)
        for _ in range(3000):
            m, k, r = rng.randint(1, 4), rng.randint(1, 3), rng.choice([1, 2, 3])
            cols = [[rng.randint(-r, r) for _ in range(m)] for _ in range(k)]
            target = [rng.randint(-6, 6) for _ in range(m)]
            if rng.random() < 0.5:  # a lattice point
                x = [rng.randint(-3, 3) for _ in range(k)]
                target = [sum(xj * col[i] for xj, col in zip(x, cols)) for i in range(m)]
            got = _outcome(_solve_integer_system, cols, target)
            assert got == _outcome(_fraction_solve, cols, target), (cols, target)

    def test_decompose_exhaustive_oracle(self):
        # oracle: exhaustive search over small exponent boxes
        gens = [Fraction(2), Fraction(3, 2)]
        g = SlopeGroup(gens)
        for e1 in range(-3, 4):
            for e2 in range(-3, 4):
                r = gens[0] ** e1 * gens[1] ** e2
                assert g.product(g.decompose(r)) == r

    def test_valuation(self):
        assert valuation(Fraction(12, 5), 2) == 2
        assert valuation(Fraction(3, 8), 2) == -3
        assert valuation(Fraction(-25, 3), 5) == 2
        assert valuation(Fraction(7), 3) == 0
        with pytest.raises(ValueError):
            valuation(Fraction(0), 2)

    def test_exponent_vector(self):
        assert exponent_vector(Fraction(12), [2, 3]) == [2, 1]
        with pytest.raises(NotInGroup):
            exponent_vector(Fraction(5), [2, 3])


class TestLatticePreorder:
    def test_lex_sign(self):
        p = LatticePreorder([(1, 0), (0, 1)])
        assert p.sign_of((2, -5)) == 1
        assert p.sign_of((0, -5)) == -1
        assert p.sign_of((0, 0)) == 0
        assert LatticePreorder.lex(2).rows == p.rows
        assert LatticePreorder.lex(1).rows == [(1,)]

    def test_opposite(self):
        p = LatticePreorder([(-1,)])
        assert p.sign_of((3,)) == -1

    def test_residue_is_kernel(self):
        p = LatticePreorder([(1, -1)])
        assert p.sign_of((2, 2)) == 0
        assert p.sign_of((3, 2)) == 1

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    def test_antisymmetric(self, v):
        p = LatticePreorder([(1, 0), (0, 1)])
        assert p.sign_of(tuple(-c for c in v)) == -p.sign_of(v)


def _in_submodule(x: Fraction, p: int, q: int) -> bool:
    """x in (lambda-1)A where A = Z[1/(pq)] and lambda = p/q."""
    d = x.denominator
    # denominator must divide a power of pq
    while d > 1:
        g = math.gcd(d, p * q)
        if g == 1:
            return False
        d //= g
    return x.numerator % (p - q) == 0


def _enumerated_index(p: int, q: int) -> int:
    """|A / (lambda-1)A| by residue enumeration: classes of a/(pq)^m with
    doubling bounds until the count is the same over two rounds."""
    def classes(m_bound: int, a_bound: int) -> int:
        reps: list[Fraction] = []
        for m in range(m_bound + 1):
            den = (p * q) ** m
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


class TestModuleIndex:
    # the closed form p - q against residue enumeration
    @pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (5, 2), (5, 3)])
    def test_closed_form(self, p, q):
        assert module_index(p, q) == _enumerated_index(p, q) == p - q

    def test_matches_enumeration_below_40(self):
        pairs = [(p, q) for p in range(2, 40) for q in range(1, p)
                 if math.gcd(p, q) == 1]
        assert all(module_index(p, q) == _enumerated_index(p, q) for p, q in pairs)

    @pytest.mark.parametrize("p,q", [(2, 2), (1, 2), (4, 2), (3, 0)])
    def test_rejects_bad_pairs(self, p, q):
        with pytest.raises(ValueError):
            module_index(p, q)
