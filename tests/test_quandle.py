"""Finite quandles and coloring counts: axioms, an exhaustive Fox-coloring
oracle, move invariance, constant-coloring behavior, and the linear dihedral
and closed-form trivial counts against the search, the invariant-factor
kernel count against enumeration, and Miller-Rabin primality against trial
division."""

import random
from itertools import product
from math import gcd, prod

import pytest

from sginv import catalog
from sginv.diagram import Diagram, derive_arcs, parse_document
from sginv.laurent import invariant_factors
from sginv.moves import R2_VARIANTS, apply_r1, apply_r2, disjoint_union
from sginv.quandle import (PRIME_LIMIT, FiniteQuandle, QuandleError,
                           count_colorings, count_dihedral_colorings,
                           count_trivial_colorings, dihedral_quandle,
                           is_p_colorable, is_prime, trivial_quandle,
                           verify_quandle)

from helpers import (count_constant_colorings, read_fixture, small_corpus,
                     trial_division_is_prime)


def test_builtin_families_satisfy_axioms():
    for n in range(1, 8):
        assert verify_quandle(dihedral_quandle(n).op) == []
        assert verify_quandle(trivial_quandle(n).op) == []


def test_perturbed_table_fails_axioms():
    q = dihedral_quandle(5)
    op = [list(row) for row in q.op]
    op[1][3] = (op[1][3] + 1) % 5
    assert verify_quandle(tuple(tuple(r) for r in op)) != []
    # idempotence violation specifically
    op = [list(row) for row in trivial_quandle(3).op]
    op[0][0] = 1
    violations = verify_quandle(tuple(tuple(r) for r in op))
    assert any(axiom == 1 for axiom, _ in violations)


def test_inverse_operation():
    rng = random.Random(12)
    for n in (3, 4, 5):
        q = dihedral_quandle(n)
        for _ in range(30):
            x, y = rng.randrange(n), rng.randrange(n)
            assert q.apply(q.apply(x, y, 1), y, -1) == x
            assert q.apply(q.apply(x, y, -1), y, 1) == x


def test_from_op_derives_inverse():
    q = FiniteQuandle.from_op(dihedral_quandle(7).op)
    assert q.inv == dihedral_quandle(7).inv


def test_bad_orders_rejected():
    with pytest.raises(QuandleError):
        dihedral_quandle(0)
    with pytest.raises(QuandleError):
        trivial_quandle(-2)


def fox_coloring_count(d, p):
    """Exhaustive oracle: assignments to arcs with c = 2b - a (mod p) at
    every crossing, where b is the over arc and a, c the under arcs."""
    arcs = derive_arcs(d)
    count = 0
    for colors in product(range(p), repeat=len(arcs)):
        ok = True
        for c in d.crossings:
            b = colors[arcs.index_of(c.over_in)]
            a = colors[arcs.index_of(c.under_in)]
            cc = colors[arcs.index_of(c.under_out)]
            if (a + cc - 2 * b) % p:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_trefoil_coloring_counts():
    tre = catalog.trefoil()
    assert count_colorings(tre, dihedral_quandle(3)) == 9
    assert count_colorings(tre, dihedral_quandle(5)) == 5
    assert fox_coloring_count(tre, 3) == 9
    assert fox_coloring_count(tre, 5) == 5


def test_counts_match_fox_oracle_on_knots():
    for d in (catalog.kinked_unknot(1), catalog.trefoil(),
              catalog.figure_eight()):
        for p in (3, 5, 7):
            assert count_colorings(d, dihedral_quandle(p)) == \
                fox_coloring_count(d, p)


def test_trivial_quandle_counts_components():
    # trivial quandle: every arc may be colored freely but crossings force
    # under arcs equal, so the count is n^(number of link components)
    tre = catalog.trefoil()
    for n in (2, 3, 4):
        assert count_colorings(tre, trivial_quandle(n)) == n


def test_count_invariance_under_moves():
    rng = random.Random(2718)
    for name, d in small_corpus().items():
        segs = sorted(d.segment_ids())
        for q in (dihedral_quandle(3), dihedral_quandle(5)):
            base = count_colorings(d, q)
            for seg in segs:
                assert count_colorings(apply_r1(d, seg, 1), q) == base
                assert count_colorings(apply_r1(d, seg, -1), q) == base
            if len(segs) >= 2:
                for _ in range(3):
                    s1, s2 = rng.sample(segs, 2)
                    d2 = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
                    assert count_colorings(d2, q) == base, (name, s1, s2)


def test_constant_colorings():
    for name, d in small_corpus().items():
        if not derive_arcs(d).classes:
            continue  # no arcs: only the empty coloring exists
        for q in (dihedral_quandle(3), dihedral_quandle(5),
                  trivial_quandle(4)):
            constants = count_constant_colorings(d, q)
            assert constants == q.n, name
            assert count_colorings(d, q) >= constants


def test_p_colorability():
    assert is_p_colorable(catalog.trefoil(), 3)
    assert not is_p_colorable(catalog.trefoil(), 5)
    assert is_p_colorable(catalog.figure_eight(), 5)
    assert not is_p_colorable(catalog.figure_eight(), 3)
    assert not is_p_colorable(catalog.unknot(), 3)
    with pytest.raises(QuandleError):
        is_p_colorable(catalog.trefoil(), 4)


# every diagram fixture but k7, whose search is out of reach
FIXTURES = ("closure3x18", "figure_eight", "kink_neg", "kink_pos", "knot_5_2",
            "theta_5_3", "theta_5_4", "theta_trivial", "theta_weighted",
            "torus_2_5", "trefoil", "unknot")


def fixture_diagrams():
    return {name: parse_document(read_fixture(f"{name}.json"))[0]
            for name in FIXTURES}


def seeded_moves(rng, d, count):
    for _ in range(count):
        segs = sorted(d.segment_ids())
        if rng.random() < 0.5:
            d = apply_r1(d, rng.choice(segs), rng.choice((1, -1)))
        else:
            s1, s2 = rng.sample(segs, 2)
            d = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
    return d


def assert_dihedral_matches_search(d, orders, label):
    for n in orders:
        assert count_dihedral_colorings(d, n) == \
            count_colorings(d, dihedral_quandle(n)), (label, n)


@pytest.mark.parametrize("name", FIXTURES)
def test_dihedral_count_matches_search_on_fixtures(name):
    assert_dihedral_matches_search(fixture_diagrams()[name], range(1, 10),
                                   name)


def test_dihedral_count_matches_search_after_moves():
    """K4 and the thetas have degree-3 vertices: odd n gives the n constant
    colorings, even n more.  K4's search grows fast with n."""
    rng = random.Random(4242)
    for name, d, orders in (
            ("K4", catalog.complete_graph_moment_curve(4), range(1, 5)),
            ("theta_5_4", catalog.theta_5_4(), range(1, 10)),
            ("theta_5_3", catalog.theta_5_3(), range(1, 10)),
            ("theta_trivial", catalog.theta_trivial(), range(1, 10))):
        for trial in range(3):
            assert_dihedral_matches_search(seeded_moves(rng, d, trial + 1),
                                           orders, (name, trial))


def test_dihedral_count_matches_search_with_free_loops():
    tre, th54 = catalog.trefoil(), catalog.theta_5_4()
    k4 = catalog.complete_graph_moment_curve(4)
    for label, d, top in (
            ("loops", Diagram(free_loops=3), 9),
            ("trefoil", Diagram((), tre.crossings, 2), 9),
            ("theta", Diagram(th54.vertices, th54.crossings, 1), 9),
            ("k4", Diagram(k4.vertices, k4.crossings, 1), 4),
            ("trefoil+theta", disjoint_union(tre, catalog.theta_trivial()), 9),
            ("empty", Diagram(), 9)):
        assert_dihedral_matches_search(d, range(1, top + 1), label)


def test_dihedral_count_matches_search_on_long_closures():
    """Seeded 3- and 4-strand closures of 40-100 crossings, at the orders
    whose search stays under about a second."""
    rng = random.Random(77)
    for strands, length, top in ((3, 40, 5), (3, 70, 5), (3, 100, 6),
                                 (4, 40, 4), (4, 70, 3), (4, 100, 3)):
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(length)]
        assert_dihedral_matches_search(catalog.braid_closure(strands, word),
                                       range(1, top + 1), (strands, word))


def test_dihedral_count_on_even_degree_graphs():
    """K5 (degree 4) has the linear kernel 3^6 and 5^6 of fact (d)."""
    k5 = catalog.complete_graph_moment_curve(5)
    assert count_dihedral_colorings(k5, 3) == 3 ** 6
    assert count_dihedral_colorings(k5, 5) == 5 ** 6
    assert_dihedral_matches_search(k5, (1, 2, 3), "K5")


def test_kernel_size_against_enumeration():
    """The kernel mod q read off the invariant factors s_i, as
    q^(cols - rank) prod gcd(s_i, q), against counting every vector, on
    small random integer matrices with repeated prime factors in the
    entries, for prime powers and composite q."""
    rng = random.Random(31)
    for trial in range(200):
        rows, cols = rng.randrange(0, 4), rng.randrange(0, 4)
        m = [[rng.choice((0, 0, 1, -1, 2, -2, 3, 4, 6, 8, 9, -12))
              for _ in range(cols)] for _ in range(rows)]
        s = invariant_factors(m)
        for q in (2, 8, 3, 9, 5, 6, 12):
            brute = sum(all(sum(a * x for a, x in zip(row, v)) % q == 0
                            for row in m)
                        for v in product(range(q), repeat=cols))
            assert q ** (cols - len(s)) * prod(gcd(f, q) for f in s) == \
                brute, (trial, m, q)


def test_trivial_count_matches_search():
    diagrams = fixture_diagrams()
    diagrams.update(loops=Diagram(free_loops=2), empty=Diagram(),
                    k4=catalog.complete_graph_moment_curve(4))
    for name, d in diagrams.items():
        for n in (1, 2, 3):
            assert count_trivial_colorings(d, n) == \
                count_colorings(d, trivial_quandle(n)), (name, n)


def test_p_colorability_matches_search():
    diagrams = fixture_diagrams()
    diagrams.update(loops=Diagram(free_loops=2), empty=Diagram())
    for name, d in diagrams.items():
        for p in (2, 3, 5, 7):
            X = dihedral_quandle(p)
            assert is_p_colorable(d, p) == (
                count_colorings(d, X) > count_constant_colorings(d, X)), \
                (name, p)


def test_linear_counts_reject_bad_orders():
    for count in (count_dihedral_colorings, count_trivial_colorings):
        for n in (0, -3):
            with pytest.raises(QuandleError):
                count(catalog.trefoil(), n)


def test_is_prime_matches_trial_division():
    for p in range(-2, 10 ** 5):
        assert is_prime(p) == trial_division_is_prime(p), p


# (number, prime?): Mersenne primes, products of two large primes, the
# Carmichael number 211 * 421 * 631 (every base passes Fermat's test, so
# only a square root of 1 other than +-1 exposes it), and the least strong
# pseudoprimes to the first 4, 9 and 12 prime bases; only base 41 exposes
# the last one
LARGE = ((2 ** 31 - 1, True), (2 ** 61 - 1, True), (10 ** 18 + 3, True),
         ((10 ** 9 + 7) * (10 ** 9 + 9), False), ((2 ** 31 - 1) ** 2, False),
         (211 * 421 * 631, False),
         (3215031751, False), (3825123056546413051, False),
         (318665857834031151167461, False))


def test_is_prime_on_large_numbers():
    for n, prime in LARGE:
        assert is_prime(n) == prime, n
    # PRIME_LIMIT is the least strong pseudoprime to all 13 bases
    for n in (PRIME_LIMIT, PRIME_LIMIT + 2, 2 ** 89 - 1):
        with pytest.raises(QuandleError, match="primality"):
            is_prime(n)
        with pytest.raises(QuandleError):
            is_p_colorable(catalog.trefoil(), n)


def test_dihedral_count_with_a_large_prime_factor():
    """The trefoil (determinant 3) has n gcd(n, 3) dihedral-n colorings,
    also for n with two large prime factors or a cofactor above
    PRIME_LIMIT, since n is never factored."""
    big = 10 ** 18 + 3
    for n in (big, 3 * big, 9 * big, 10 * big, (10 ** 9 + 7) * (10 ** 9 + 9),
              4 * 10 ** 27 + 6, 3 * PRIME_LIMIT ** 2):
        assert count_dihedral_colorings(catalog.trefoil(), n) == \
            n * (3 if n % 3 == 0 else 1), n
    assert not is_p_colorable(catalog.trefoil(), big)
