"""Exact Laurent-polynomial arithmetic: ring axioms on random inputs, gcd
properties, and the fraction-free determinant against a cofactor oracle."""

import random

import pytest

from sginv.laurent import (LaurentPoly, VariableMismatch, bareiss_det,
                           laurent_gcd, laurent_gcd_many, minors_gcd)

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
