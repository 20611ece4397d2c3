"""The unit-pivot reduction over Z[t^+-1] against the exhaustive
`minors_gcd`, and the invariant factors behind `integer_minors_gcd` against
an exhaustive `_int_det` gcd over Z, on random matrices, the explicit 9x10
matrix, the fixtures and seeded braid closures; and `minors_gcd` on
zero-padded matrices against a gcd over every minor."""

import random
from itertools import combinations
from math import gcd

import pytest

from sginv import catalog
from sginv.alexander import (_int_det, alexander_polynomial,
                             build_alexander_matrix, gcd_of_minors,
                             graph_determinant, uniform_weights)
from sginv.diagram import parse_document
from sginv.laurent import (LaurentPoly, bareiss_det, integer_minors_gcd,
                           invariant_factors, laurent_gcd_many, minors_gcd,
                           reduce_unit_pivots)

from helpers import (balanced_theta_weights, nine_by_ten_matrix, random_laurent,
                     random_unit, read_fixture)


def int_minors_gcd(matrix, k):
    """Exhaustive gcd of the absolute k x k minors of an integer matrix."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    g = 0
    for rset in combinations(range(rows), k):
        for cset in combinations(range(cols), k):
            g = gcd(g, abs(_int_det([[matrix[i][j] for j in cset]
                                     for i in rset])))
    return g


def random_entry(rng, unit_share):
    roll = rng.random()
    if roll < unit_share:
        return random_unit(rng, span=2)
    if roll < unit_share + 0.25:
        return LaurentPoly.zero()
    return random_laurent(rng, max_terms=2, span=2, cmax=3)


def random_matrix(rng, rows, cols, unit_share=0.5):
    return [[random_entry(rng, unit_share) for _ in range(cols)]
            for _ in range(rows)]


def rank_deficient(rng, rows, cols, rank):
    """A rows x cols product of random rows x rank and rank x cols factors,
    so every minor larger than rank vanishes."""
    a = random_matrix(rng, rows, rank)
    b = random_matrix(rng, rank, cols)
    return [[sum((a[i][q] * b[q][j] for q in range(rank)), LaurentPoly.zero())
             for j in range(cols)] for i in range(rows)]


def at_minus_one(matrix):
    return [[e.subs_int(-1) for e in row] for row in matrix]


def test_reduction_shape_and_unit_counting():
    t = LaurentPoly.monomial(1, 1)
    two = LaurentPoly.constant(2)
    core, k = reduce_unit_pivots([[t, two], [two, two]], 2)
    # pivot on t at (0, 0): core [[2 - 2 t^-1 2]]
    assert k == 1 and core == [[two - two * t ** -1 * two]]
    assert reduce_unit_pivots([[two, two]], 1) == ([[two, two]], 1)
    assert reduce_unit_pivots([[t]], 0) == ([[t]], 0)
    assert reduce_unit_pivots([], 0) == ([], 0)
    assert reduce_unit_pivots([[], [], []], 0) == ([[], [], []], 0)
    with pytest.raises(ValueError):
        reduce_unit_pivots([[t, t]], 2)
    with pytest.raises(ValueError):
        reduce_unit_pivots([[t]], -1)
    # over Z the reduction runs on to the invariant factors
    assert invariant_factors([[1, 3], [3, 1]]) == [1, 8]
    assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert invariant_factors([[4, 6]]) == [2]
    assert invariant_factors([[6, 0], [0, 4]]) == [2, 12]
    assert invariant_factors([[0, -3], [0, 0]]) == [3]
    assert invariant_factors([[0, 0]]) == []
    assert invariant_factors([[], [], []]) == []
    assert invariant_factors([]) == []


def assert_integer_engine(m, label):
    """integer_minors_gcd against the exhaustive gcd for every minor size,
    and the invariant factors form a divisibility chain of positive ints."""
    s = invariant_factors(m)
    assert all(a > 0 for a in s), (label, s)
    assert all(b % a == 0 for a, b in zip(s, s[1:])), (label, s)
    for k in range(min(len(m), len(m[0]) if m else 0) + 2):
        assert integer_minors_gcd(m, k) == int_minors_gcd(m, k), (label, k)


def test_random_laurent_matrices_against_minors_gcd():
    rng = random.Random(3141)
    for trial in range(150):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_matrix(rng, rows, cols, unit_share=rng.choice((0.2, 0.5, 0.8)))
        for k in range(min(rows, cols) + 1):
            assert minors_gcd(*reduce_unit_pivots(m, k)) == minors_gcd(m, k), \
                (trial, k)


def test_random_integer_matrices_against_int_det_gcd():
    """Unit-rich matrices at t = -1, then matrices with few or no units,
    where the pivots must give way to smaller remainders."""
    rng = random.Random(2718)
    for trial in range(150):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        assert_integer_engine(at_minus_one(random_matrix(rng, rows, cols)),
                              trial)
    for trial in range(300):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        pool = rng.choice(((0, 0, 2, -2, 3, 4, 6, 8, 9, -12),
                           (0, 0, 0, 6, 10, 15, -4, 9, 25),
                           (0, 1, -1, 2, 3, -5, 7)))
        m = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
        assert_integer_engine(m, (trial, m))


def test_degenerate_matrices():
    rng = random.Random(1618)
    zero = LaurentPoly.zero()
    one = LaurentPoly.constant(1)
    for rows, cols in ((1, 1), (2, 3), (4, 2)):
        m = [[zero] * cols for _ in range(rows)]
        for k in range(1, min(rows, cols) + 1):
            assert minors_gcd(*reduce_unit_pivots(m, k)) == zero
            assert integer_minors_gcd(at_minus_one(m), k) == 0
        assert minors_gcd(*reduce_unit_pivots(m, 0)) == one
    for trial in range(40):
        rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
        m = rank_deficient(rng, rows, cols, rng.randrange(1, min(rows, cols)))
        # a zero row and a zero column on top
        m.insert(rng.randrange(rows + 1), [zero] * cols)
        for row in m:
            row.insert(rng.randrange(cols + 1), zero)
        for k in range(min(rows, cols) + 2):
            assert minors_gcd(*reduce_unit_pivots(m, k)) == minors_gcd(m, k), \
                (trial, k)
        assert_integer_engine(at_minus_one(m), trial)


def every_minor_gcd(matrix, k):
    """laurent_gcd_many over every k x k minor, zero ones included (k > 0)."""
    return laurent_gcd_many(
        bareiss_det([[matrix[i][j] for j in cset] for i in rset])
        for rset in combinations(range(len(matrix)), k)
        for cset in combinations(range(len(matrix[0])), k))


def pad_with_zeros(rng, m, extra_rows, extra_cols):
    """m with all-zero rows and columns inserted at random places."""
    zero = LaurentPoly.zero()
    m = [list(row) for row in m]
    for _ in range(extra_cols):
        j = rng.randrange(len(m[0]) + 1)
        for row in m:
            row.insert(j, zero)
    for _ in range(extra_rows):
        m.insert(rng.randrange(len(m) + 1), [zero] * len(m[0]))
    return m


def test_zero_padded_matrices_keep_their_gcd():
    """A minor through an all-zero row or column vanishes, so zero padding
    leaves every minor gcd as it was, and gives 0 past the unpadded size."""
    rng = random.Random(577)
    zero, one = LaurentPoly.zero(), LaurentPoly.constant(1)
    for trial in range(60):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = random_matrix(rng, rows, cols)
        padded = pad_with_zeros(rng, m, rng.randrange(3), rng.randrange(3))
        assert minors_gcd(padded, 0) == one
        for k in range(1, min(len(padded), len(padded[0])) + 1):
            assert minors_gcd(padded, k) == every_minor_gcd(padded, k), \
                (trial, k)
        big = pad_with_zeros(rng, m, 40, 40)
        for k in range(1, min(rows, cols) + 1):
            assert minors_gcd(big, k) == every_minor_gcd(m, k), (trial, k)
        assert minors_gcd(big, min(rows, cols) + 1) == zero


def test_nine_by_ten_matrix_against_exhaustive():
    m = nine_by_ten_matrix()
    assert gcd_of_minors(m, 8) == minors_gcd(m, 8)
    im = at_minus_one(m)
    assert integer_minors_gcd(im, 8) == int_minors_gcd(im, 8)


def exhaustive_invariants(d, weights):
    """(Alexander polynomial, determinant) by full minor enumeration."""
    m = build_alexander_matrix(d, weights)
    r = m.row_count
    if r == 0:
        return LaurentPoly.constant(1), 1
    rows = [list(row) for row in m.rows]
    k = r - 1
    g = minors_gcd(rows, k)
    det = int_minors_gcd(at_minus_one(rows), k) if k else 1
    return g if g.is_zero() else g.normalize_units(), det


def assert_matches_exhaustive(d, weights, label):
    expected = exhaustive_invariants(d, weights)
    got = (alexander_polynomial(d, weights), graph_determinant(d, weights))
    assert got == expected, label


# every diagram fixture; k7 (42 relations over 56 arcs) is out of reach of
# the exhaustive engines
FIXTURES = ("figure_eight", "kink_neg", "kink_pos", "knot_5_2", "theta_5_3",
            "theta_5_4", "theta_trivial", "theta_weighted", "torus_2_5",
            "trefoil", "unknot")


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_against_exhaustive(name):
    d, weights = parse_document(read_fixture(f"{name}.json"))
    if weights is None:
        weights = (balanced_theta_weights(d) if d.vertices
                   else uniform_weights(d))
    assert_matches_exhaustive(d, weights, name)


def test_braid_closures_against_exhaustive():
    rng = random.Random(9)
    for strands, length in ((3, 9), (3, 10), (4, 11), (3, 12)):
        word = [rng.choice((1, -1)) * rng.randrange(1, strands)
                for _ in range(length)]
        d = catalog.braid_closure(strands, word)
        assert_matches_exhaustive(d, uniform_weights(d), (strands, word))
