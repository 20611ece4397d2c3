"""Exact Laurent-polynomial arithmetic: ring axioms on random inputs, gcd
properties, the balanced-digit decoding of packed integers, and the integer
Bareiss determinant and the Laurent determinant built on it against a
cofactor oracle."""

import random
import time

import pytest

from sginv.laurent import (LaurentPoly, VariableMismatch, bareiss_det,
                           from_packed, integer_det, laurent_gcd,
                           laurent_gcd_many, minors_gcd)

from helpers import cofactor_det, divides, random_laurent, random_unit


def test_construction_drops_zero_coefficients():
    p = LaurentPoly({2: 0, -1: 3, 0: 0})
    assert p.terms() == [(-1, 3)]
    assert LaurentPoly({}).is_zero()
    assert LaurentPoly.constant(0).is_zero()


def test_ring_axioms_randomized():
    rng = random.Random(20250824)
    zero = LaurentPoly.zero()
    one = LaurentPoly.constant(1)
    for _ in range(300):
        p = random_laurent(rng)
        q = random_laurent(rng)
        r = random_laurent(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p
        assert p * one == p
        assert p * zero == zero
        assert p - p == zero
        assert -(-p) == p


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(40):
        p = random_laurent(rng)
        acc = LaurentPoly.constant(1)
        for n in range(5):
            assert p ** n == acc
            acc = acc * p
    with pytest.raises(ValueError):
        LaurentPoly.constant(2) ** -1


def test_shift_and_subs_int():
    p = LaurentPoly({0: 1, 1: -3, 2: 1})
    assert p.shift(2) == LaurentPoly({2: 1, 3: -3, 4: 1})
    assert p.shift(-1, coeff=2) == LaurentPoly({-1: 2, 0: -6, 1: 2})
    assert p.subs_int(-1) == 5
    assert LaurentPoly({-2: 3, 0: 1}).subs_int(-1) == 4
    with pytest.raises(ValueError):
        LaurentPoly({-1: 1}).subs_int(0)


def test_variable_mismatch_rejected():
    with pytest.raises(VariableMismatch):
        LaurentPoly({0: 1}, "t") + LaurentPoly({0: 1}, "A")
    with pytest.raises(VariableMismatch):
        LaurentPoly({0: 1}, "t") * LaurentPoly({0: 1}, "A")


def test_rendering():
    p = LaurentPoly({-2: -1, -1: -1, 0: -2, 1: -1, 2: -1}, "A")
    assert str(p) == "-A^-2 - A^-1 - 2 - A - A^2"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({0: 1, 1: -1, 2: 1})) == "1 - t + t^2"
    assert str(LaurentPoly({4: -2, 1: 1}, "A")) == "A - 2A^4"
    assert p.to_pairs() == [[-2, -1], [-1, -1], [0, -2], [1, -1], [2, -1]]


def test_normalize_units():
    rng = random.Random(99)
    for _ in range(200):
        p = random_laurent(rng)
        n = p.normalize_units()
        if p.is_zero():
            assert n.is_zero()
            continue
        # lowest term is a positive constant, and renormalizing is idempotent
        assert n.min_degree == 0
        assert n.coeff(0) > 0
        assert n.normalize_units() == n
        # unit multiples all normalize to the same representative
        u = random_unit(rng)
        assert (u * p).normalize_units() == n


def test_gcd_divides_and_respects_factors():
    rng = random.Random(5)
    for _ in range(60):
        p = random_laurent(rng, max_terms=3, span=3)
        q = random_laurent(rng, max_terms=3, span=3)
        g = laurent_gcd(p, q)
        if p.is_zero() and q.is_zero():
            assert g.is_zero()
            continue
        assert divides(g, p) and divides(g, q)
        # common factor survives in the gcd
        f = random_laurent(rng, max_terms=3, span=2)
        if f.is_zero():
            continue
        gf = laurent_gcd(p * f, q * f)
        if not gf.is_zero():
            assert divides(f.normalize_units(), gf)


def test_gcd_edge_cases_and_unit_invariance():
    rng = random.Random(31)
    zero = LaurentPoly.zero()
    assert laurent_gcd(zero, zero).is_zero()
    p = LaurentPoly({0: 2, 1: 4})
    assert laurent_gcd(p, zero) == p.normalize_units()
    for _ in range(60):
        a = random_laurent(rng)
        b = random_laurent(rng)
        u, v = random_unit(rng), random_unit(rng)
        assert laurent_gcd(u * a, v * b) == laurent_gcd(a, b)
    assert laurent_gcd_many([]) == zero
    many = laurent_gcd_many([LaurentPoly({0: 6}), LaurentPoly({2: 4}),
                             LaurentPoly({-1: 10})])
    assert many == LaurentPoly({0: 2})


def test_bareiss_against_cofactor_oracle():
    rng = random.Random(424242)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = [[random_laurent(rng, max_terms=2, span=2, cmax=3)
              for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == cofactor_det(m)
    assert bareiss_det([]) == LaurentPoly.constant(1)


def product_matrix(a, b):
    """The product of an n x r and an r x m matrix, singular when r < n, m."""
    return [[sum((x * y for x, y in zip(row, col)), 0 * row[0])
             for col in zip(*b)] for row in a]


def test_integer_det_against_cofactor_oracle():
    """Sizes 0-7: dense and zero-rich matrices, a zero leading pivot (a row
    swap), a zero leading column, and products through a narrower middle,
    whose determinant is 0."""
    rng = random.Random(1968)
    for trial in range(400):
        n = trial % 8
        kind = trial // 8 % 5
        pool = (range(-30, 31) if kind == 0
                else (0, 0, 0, 0, 1, -1, 2, -3, 5, 7))
        m = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if kind == 2 and n > 1:
            m[0][0] = 0
            m[rng.randrange(1, n)][0] = rng.choice((1, -4))
        elif kind == 3 and n:
            for row in m:
                row[0] = 0
        elif kind == 4 and n > 1:
            r = rng.randrange(1, n)
            m = product_matrix(
                [[rng.randrange(-9, 10) for _ in range(r)] for _ in range(n)],
                [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(r)])
            assert integer_det(m) == 0, (trial, m)
        assert integer_det(m) == cofactor_det(m), (trial, m)


def random_row(rng, n):
    """n entries of one of four shapes: short and small, coefficients up to
    +-10^6 at exponents -40...40, positive exponents only, or monomials."""
    shape = rng.randrange(4)
    if shape == 0:
        return [random_laurent(rng, max_terms=3, span=3, cmax=3)
                for _ in range(n)]
    if shape == 1:
        return [random_laurent(rng, max_terms=3, span=40, cmax=10 ** 6)
                for _ in range(n)]
    if shape == 2:
        return [LaurentPoly({rng.randrange(1, 41): rng.randrange(-50, 51)
                             for _ in range(rng.randrange(3))})
                for _ in range(n)]
    return [LaurentPoly.monomial(rng.randrange(-10 ** 6, 10 ** 6 + 1),
                                 rng.randrange(-40, 41)) if rng.random() < 0.4
            else LaurentPoly.zero() for _ in range(n)]


def test_bareiss_against_cofactor_oracle_at_the_bit_bound():
    """Sizes 1-6 with every row shape of random_row; signed permutation
    matrices of monomials, whose determinant reaches the coefficient bound
    of bareiss_det; a zero row; and singular products."""
    rng = random.Random(2009)
    zero = LaurentPoly.zero()
    for trial in range(420):
        n = 1 + trial % 6
        kind = trial // 6 % 5
        if kind == 1:
            perm = rng.sample(range(n), n)
            m = [[LaurentPoly.monomial(rng.choice((1, -1))
                                       * rng.randrange(1, 10 ** 6),
                                       rng.randrange(-40, 41))
                  if j == perm[i] else zero for j in range(n)]
                 for i in range(n)]
        elif kind == 4 and n > 1:
            r = rng.randrange(1, n)
            m = product_matrix([random_row(rng, r) for _ in range(n)],
                               [random_row(rng, n) for _ in range(r)])
        else:
            m = [random_row(rng, n) for _ in range(n)]
            if kind == 2:
                m[rng.randrange(n)] = [zero] * n
        det = bareiss_det(m)
        assert det == cofactor_det(m), (trial, m)
        if kind == 2 or kind == 4 and n > 1:
            assert det.is_zero()


def test_from_packed_round_trip():
    """Balanced digits: a negative top digit, zero digits in the middle,
    both ends of the digit range, and a nonzero lowest exponent."""
    bits = 4
    for low, p in ((-4, LaurentPoly({-4: 3, -1: -5, 1: -7}, "A")),
                   (2, LaurentPoly({2: 7, 3: -8, 6: -8, 7: 1})),
                   (5, LaurentPoly({5: -1, 9: -2}))):
        packed = sum(c << bits * (e - low) for e, c in p.terms())
        assert from_packed(packed, bits, low, p.var) == p
    assert from_packed(0, bits, 3, "A") == LaurentPoly.zero("A")
    rng = random.Random(68)
    for _ in range(200):
        bits = rng.randrange(2, 40)
        half = 1 << (bits - 1)
        p = LaurentPoly({e: rng.randrange(-half, half)
                         for e in rng.sample(range(-20, 21), 6)})
        if p.is_zero():
            continue
        low = p.min_degree
        packed = sum(c << bits * (e - low) for e, c in p.terms())
        assert from_packed(packed, bits, low, "t") == p


def _pack(digits, bits):
    """The sum of digits[k] << bits * k, halving the list at each step so
    that building a long packing stays fast."""
    if len(digits) == 1:
        return digits[0]
    mid = len(digits) // 2
    return (_pack(digits[:mid], bits)
            + (_pack(digits[mid:], bits) << bits * mid))


def test_from_packed_is_linear():
    """10^5 balanced digits, both ends of the range among them, read back
    in well under a second: the decode must not copy the packed integer
    once per digit."""
    rng = random.Random(10 ** 5)
    bits = 48
    half = 1 << (bits - 1)
    digits = [rng.choice((-half, half - 1, 0, -1, rng.randrange(-half, half)))
              for _ in range(10 ** 5)]
    packed = _pack(digits, bits)
    start = time.perf_counter()
    got = from_packed(packed, bits, -7, "A")
    assert time.perf_counter() - start < 1.0
    assert got == LaurentPoly({k - 7: d for k, d in enumerate(digits)}, "A")


def test_bareiss_multiplicativity_on_triangular():
    d1 = LaurentPoly({1: 2})
    d2 = LaurentPoly({-1: 3, 0: 1})
    m = [[d1, LaurentPoly({0: 5})], [LaurentPoly.zero(), d2]]
    assert bareiss_det(m) == d1 * d2


def test_minors_gcd_basics():
    zero = LaurentPoly.zero()
    one = LaurentPoly.constant(1)
    t = LaurentPoly.monomial(1, 1)
    assert minors_gcd([[t]], 0) == one
    assert minors_gcd([[zero, zero]], 1) == zero
    # 1x1 minors of [2t, 4t^2] have gcd 2t -> normalized 2
    assert minors_gcd([[LaurentPoly({1: 2}), LaurentPoly({2: 4})]], 1) == \
        LaurentPoly({0: 2})
    m = [[one, t], [t, t * t]]
    assert minors_gcd(m, 2) == zero  # singular
    assert minors_gcd(m, 1) == one
