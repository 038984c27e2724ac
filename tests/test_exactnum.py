from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plorder.exactnum import (
    LatticePreorder,
    NotInGroup,
    PRIME_TEST_LIMIT,
    SlopeGroup,
    exponent_vector,
    factorize,
    format_rational,
    is_prime,
    module_index,
    parse_rational,
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
        from plorder.exactnum import IndependenceViolation
        with pytest.raises(IndependenceViolation):
            SlopeGroup([2, 4])

    def test_decompose_exhaustive_oracle(self):
        # oracle: exhaustive search over small exponent boxes
        gens = [Fraction(2), Fraction(3, 2)]
        g = SlopeGroup(gens)
        for e1 in range(-3, 4):
            for e2 in range(-3, 4):
                r = gens[0] ** e1 * gens[1] ** e2
                assert g.product(g.decompose(r)) == r

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


class TestModuleIndex:
    # brute-force enumeration vs the closed form p - q
    @pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (5, 2), (5, 3)])
    def test_closed_form(self, p, q):
        assert module_index(p, q) == p - q
