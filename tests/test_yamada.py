"""Yamada polynomial: axioms on base cases, independent oracles (a
non-memoized skein recursion, the flat state sum and the subset
expansion), the two-pass transfer matrix as a reference for the one-pass
step, multiplicativity, move behavior, tabulated theta-curve values, the
refusal of a diagram whose estimated cost is too high, and the greedy tile
order pinned on a seeded corpus."""

import hashlib
import os
import random
import time
from itertools import combinations, permutations

import pytest

from sginv import catalog, yamada
from sginv.diagram import (Crossing, Diagram, DiagramError, UnionFind,
                           VertexNode, parse_diagram, resolve_crossing)
from sginv.graphs import (AbstractGraph, connected_components, contract_edge,
                          delete_edge)
from sginv.laurent import LaurentPoly
from sginv.moves import R2_VARIANTS, apply_r1, apply_r2, disjoint_union, mirror
from sginv.yamada import (_sigma_power, _tile_order, _tiles,
                          eval_crossing_free, sigma, yamada_normalized,
                          yamada_raw)

from helpers import (FIXTURE_DIR, dumbbell, flat_yamada, grid_text,
                     read_fixture, small_corpus, subs_int, to_abstract_graph,
                     two_pass_yamada)

A = LaurentPoly.monomial(1, 1, "A")
A_inv = LaurentPoly.monomial(1, -1, "A")
ONE = LaurentPoly.constant(1, "A")


def bouquet_diagram(k):
    """Single vertex with k loop edges."""
    incident = []
    for s in range(k):
        incident += [(s, "out"), (s, "in")]
    return Diagram((VertexNode(0, tuple(incident)),), (), 0)


def slow_yamada(d):
    """Independent evaluator: same skein, but resolving the *last* crossing
    and evaluating residues by brute delete/contract without memoization."""
    if d.crossings:
        idx = len(d.crossings) - 1
        return (A * slow_yamada(resolve_crossing(d, idx, "A"))
                + A_inv * slow_yamada(resolve_crossing(d, idx, "B"))
                + slow_yamada(resolve_crossing(d, idx, "V")))
    return slow_eval(to_abstract_graph(d))


def slow_eval(g):
    comps, loops = connected_components(g)
    out = sigma() ** loops if loops else ONE
    for comp in comps:
        nonloop = next((e for e in comp.edges if e[0] != e[1]), None)
        if nonloop is None:
            out = out * -((-sigma()) ** len(comp.edges))
        else:
            out = out * (slow_eval(delete_edge(comp, nonloop))
                         + slow_eval(contract_edge(comp, nonloop)))
    return out


def subset_expansion(g):
    """sigma^(free loops) * sum over kept edge sets K of
    (-1)^mu(K) y^beta(K), y = -A - 2 - A^-1, with mu the number of
    components of (V, K) and beta = |K| - |V| + mu its cycle rank."""
    y = -A - 2 * ONE - A_inv
    out = LaurentPoly.zero("A")
    for k in range(len(g.edges) + 1):
        for kept in combinations(g.edges, k):
            uf = UnionFind(range(g.vertex_count))
            for u, v in kept:
                uf.union(u, v)
            mu = len({uf.find(v) for v in range(g.vertex_count)})
            out = out + (-1) ** mu * y ** (k - g.vertex_count + mu)
    return out * sigma() ** g.free_loops


def seeded_graphs():
    """300 random multigraphs on 1-5 vertices with up to 7 edges (loops
    and parallel edges allowed) and up to 2 free loops."""
    rng = random.Random(2010)
    graphs = []
    for _ in range(300):
        n = rng.randint(1, 5)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 7))]
        graphs.append(AbstractGraph.make(n, edges, rng.randint(0, 2)))
    return graphs


def graph_diagram(g):
    """(diagram, isolated vertex count): the crossing-free diagram with one
    segment u -> v per edge of g.  A diagram vertex needs an incidence, so
    the isolated vertices of g, worth -1 each, are left out and counted."""
    incident = {}
    for s, (u, v) in enumerate(g.edges):
        incident.setdefault(u, []).append((s, "out"))
        incident.setdefault(v, []).append((s, "in"))
    vertices = tuple(VertexNode(u, tuple(slots))
                     for u, slots in sorted(incident.items()))
    return Diagram(vertices, (), g.free_loops), g.vertex_count - len(incident)


def test_crossing_free_matches_subset_expansion():
    for g in seeded_graphs():
        assert eval_crossing_free(g) == subset_expansion(g), g


def test_crossing_free_diagrams_match_subset_expansion():
    for g in seeded_graphs():
        d, isolated = graph_diagram(g)
        assert yamada_raw(d) * (-1) ** isolated == subset_expansion(g), g


def test_base_cases():
    assert yamada_raw(Diagram()) == ONE                      # empty diagram
    assert yamada_raw(catalog.unknot()) == sigma()           # single circle
    # lone vertex and bouquets B_0..B_4: -(-sigma)^n
    assert eval_crossing_free(AbstractGraph.make(1, [])) == -ONE
    for n in range(5):
        expected = -((-sigma()) ** n)
        assert eval_crossing_free(AbstractGraph.make(1, [(0, 0)] * n)) == \
            expected
        if n >= 1:
            assert yamada_raw(bouquet_diagram(n)) == expected


def test_vertex_with_a_thousand_loops():
    """B_1100: the one tile closes 1,100 segments, more than the
    interpreter's default recursion depth, and its value is
    -(-sigma)^1100 = -sigma^1100, read from the sigma powers that free
    loops are checked against."""
    k = 1100
    assert -yamada_raw(bouquet_diagram(k)) == LaurentPoly(_sigma_power(k), "A")


def test_free_loops_multiply_by_one_sigma_power():
    """k free loops, alone and beside the trefoil, against k repeated
    multiplications by sigma."""
    tre = catalog.trefoil()
    base = yamada_raw(tre)
    power = ONE
    for k in range(41):
        assert yamada_raw(Diagram(free_loops=k)) == power, k
        assert yamada_raw(Diagram((), tre.crossings, k)) == base * power, k
        power = power * sigma()


def test_theta_value():
    s = sigma()
    assert yamada_raw(catalog.theta_trivial()) == s - s * s


def test_kink_calibration():
    s = sigma()
    assert yamada_raw(catalog.kinked_unknot(1)) == A * A * s
    assert yamada_raw(catalog.kinked_unknot(-1)) == A_inv * A_inv * s


def test_matches_independent_oracle():
    for name, d in small_corpus().items():
        assert yamada_raw(d) == slow_yamada(d), name


def test_matches_flat_state_sum():
    """Every fixture and catalog diagram up to 9 crossings, K4,
    an 8-crossing 3-braid closure and seeded R1/R2 inflations."""
    corpus = {}
    for name in sorted(os.listdir(FIXTURE_DIR)):
        try:
            d = parse_diagram(read_fixture(name))
        except DiagramError:
            continue        # broken inputs and quandle tables
        if len(d.crossings) <= 9:
            corpus[name] = d
    for name in ("unknot", "trefoil", "figure_eight", "torus_2_5",
                 "knot_5_2", "theta_5_3", "theta_5_4", "theta_trivial"):
        corpus[name] = getattr(catalog, name)()
    corpus["kink_pos"] = catalog.kinked_unknot(1)
    corpus["kink_neg"] = catalog.kinked_unknot(-1)
    corpus["k4"] = catalog.complete_graph_moment_curve(4)
    corpus["closure3x8"] = catalog.braid_closure(3, [1, -2] * 4)
    rng = random.Random(909)
    bases = sorted(n for n, d in corpus.items() if len(d.crossings) <= 5)
    for i in range(24):
        name = rng.choice(bases)
        d = corpus[name]
        segs = sorted(d.segment_ids())
        if len(segs) >= 2 and rng.random() < 0.5:
            s1, s2 = rng.sample(segs, 2)
            d = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
        elif segs:
            d = apply_r1(d, rng.choice(segs), rng.choice((1, -1)))
        corpus[f"{name}+{i}"] = d
    for name, d in corpus.items():
        assert yamada_raw(d) == flat_yamada(d), name


def test_matches_two_pass_transfer_matrix():
    """The one-pass step packed in A equals the two-pass one packed in A
    and y on every fixture under the cost limit, K4-K6, crossing-free grids
    2x2-7x7, 32 seeded closures of 2-4 strands and up to 30 crossings, and
    seeded R1/R2 inflations."""
    corpus = {}
    for name in sorted(os.listdir(FIXTURE_DIR)):
        try:
            d = parse_diagram(read_fixture(name))
            corpus[name] = (d, yamada_raw(d))
        except DiagramError:
            continue        # broken inputs, quandle tables and K7's refusal
    for n in range(4, 7):
        d = catalog.complete_graph_moment_curve(n)
        corpus[f"k{n}"] = (d, yamada_raw(d))
    for n in range(2, 8):
        d = parse_diagram(grid_text(n))
        corpus[f"grid{n}"] = (d, yamada_raw(d))
    rng = random.Random(1995)
    for i in range(32):
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 30))]
        d = catalog.braid_closure(strands, word)
        corpus[f"closure{i}"] = (d, yamada_raw(d))
    bases = sorted(n for n, (d, _) in corpus.items()
                   if len(d.crossings) <= 8 and len(d.segment_ids()) >= 2)
    for i in range(16):
        d = corpus[rng.choice(bases)][0]
        s1, s2 = rng.sample(sorted(d.segment_ids()), 2)
        d = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
        d = apply_r1(d, rng.choice(sorted(d.segment_ids())),
                     rng.choice((1, -1)))
        corpus[f"inflation{i}"] = (d, yamada_raw(d))
    for name, (d, got) in corpus.items():
        assert got == two_pass_yamada(d), name


def test_eighteen_crossing_closure_moves():
    """Out of every oracle's reach: on the 3-braid closure of
    (sigma_1 sigma_2^-1)^9, mirroring swaps A and A^-1, one seeded R2 move
    leaves the raw polynomial unchanged and a positive kink scales it by
    A^2 (the closure is amphichiral, so only the kink tells A from A^-1)."""
    d = parse_diagram(read_fixture("closure3x18.json"))
    assert len(d.crossings) == 18
    base = yamada_raw(d)
    assert not base.is_zero()
    flipped = LaurentPoly({-e: c for e, c in base.terms()}, "A")
    assert yamada_raw(mirror(d)) == flipped
    rng = random.Random(18)
    segs = sorted(d.segment_ids())
    s1, s2 = rng.sample(segs, 2)
    assert yamada_raw(apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))) == base
    assert yamada_raw(apply_r1(d, rng.choice(segs), 1)) == A * A * base


def test_crossing_order_independence():
    tre = catalog.trefoil()
    base = yamada_raw(tre)
    for perm in permutations(tre.crossings):
        assert yamada_raw(Diagram((), perm, 0)) == base


def test_disjoint_union_multiplies():
    corpus = small_corpus()
    names = sorted(corpus)
    rng = random.Random(8)
    for _ in range(10):
        n1, n2 = rng.choice(names), rng.choice(names)
        u = disjoint_union(corpus[n1], corpus[n2])
        assert yamada_raw(u) == yamada_raw(corpus[n1]) * yamada_raw(corpus[n2])


def test_r1_scales_by_a_squared():
    for name, d in small_corpus().items():
        base = yamada_raw(d)
        for seg in sorted(d.segment_ids()):
            assert yamada_raw(apply_r1(d, seg, 1)) == A * A * base
            assert yamada_raw(apply_r1(d, seg, -1)) == A_inv * A_inv * base


def test_r2_preserves_raw():
    rng = random.Random(77)
    for name, d in small_corpus().items():
        segs = sorted(d.segment_ids())
        if len(segs) < 2:
            continue
        base = yamada_raw(d)
        for _ in range(4):
            s1, s2 = rng.sample(segs, 2)
            variant = rng.choice(("over+", "over-", "under+", "under-"))
            assert yamada_raw(apply_r2(d, s1, s2, variant)) == base


def test_normalized_invariant_under_r1():
    for name, d in small_corpus().items():
        base = yamada_normalized(d).normalized
        for seg in sorted(d.segment_ids()):
            for ch in (1, -1):
                got = yamada_normalized(apply_r1(d, seg, ch)).normalized
                assert got == base, (name, seg, ch)


def test_mirror_swaps_a_and_a_inverse():
    for name, d in small_corpus().items():
        m = yamada_raw(mirror(d))
        flipped = LaurentPoly({-e: c for e, c in yamada_raw(d).terms()}, "A")
        assert m == flipped, name


def flip_crossings(d, idx):
    """d with the crossings at the indices idx flipped: over and under
    swapped and the sign negated, as `mirror` does to every crossing."""
    return d._replace(crossings=tuple(
        Crossing(c.under_in, c.under_out, c.over_in, c.over_out, -c.sign)
        if i in idx else c for i, c in enumerate(d.crossings)))


@pytest.mark.parametrize("name, make, values", [
    ("K4", lambda: catalog.complete_graph_moment_curve(4), (6, -6)),
    ("K5", lambda: catalog.complete_graph_moment_curve(5), (-219, -51)),
    ("K6", lambda: catalog.complete_graph_moment_curve(6), (2424, -560)),
    ("theta_5_3", catalog.theta_5_3, (-6, -2)),
    ("closure3x100", lambda: catalog.braid_closure(3, [1, -2] * 50), (3, -1)),
], ids=["K4", "K5", "K6", "theta_5_3", "closure3x100"])
def test_crossing_flips_keep_values_at_a_plus_minus_one(name, make, values):
    """A = A^-1 at A = +-1, so R(1) and R(-1), evaluated in exact ints,
    survive any set of crossing flips; two seeded flip sets each, of one
    crossing and of two or more (of one again on K4, which has one)."""
    d = make()
    rng = random.Random(name)
    n = len(d.crossings)
    for k in (1, rng.randint(min(2, n), n)):
        r = yamada_raw(flip_crossings(d, set(rng.sample(range(n), k))))
        assert (subs_int(r, 1), subs_int(r, -1)) == values, (name, k)
    r = yamada_raw(d)
    assert (subs_int(r, 1), subs_int(r, -1)) == values, name


# R(1) and R(-1) of every diagram fixture but k7
FIXTURE_VALUES = {
    "unknot": (3, -1), "kink_pos": (3, -1), "kink_neg": (3, -1),
    "trefoil": (3, -1), "figure_eight": (3, -1), "torus_2_5": (3, -1),
    "knot_5_2": (3, -1), "theta_trivial": (-6, -2), "theta_weighted": (-6, -2),
    "theta_5_3": (-6, -2), "theta_5_4": (-6, -2), "k5": (-219, -51),
    "closure3x18": (27, -1),
}


def test_crossing_flips_after_moves_keep_values_at_a_plus_minus_one():
    """Three seeded R1/R2 moves on each fixture (none on the unknot, which
    has no segment), then two seeded flip sets: R(1) and R(-1) stay the
    fixture's values, since a kink scales R by A^+-2."""
    for name, values in FIXTURE_VALUES.items():
        d = parse_diagram(read_fixture(name + ".json"))
        rng = random.Random(name)
        for _ in range(3 if d.segment_ids() else 0):
            segs = sorted(d.segment_ids())
            if rng.random() < 0.5:
                d = apply_r1(d, rng.choice(segs), rng.choice((1, -1)))
            else:
                d = apply_r2(d, *rng.sample(segs, 2), rng.choice(R2_VARIANTS))
        n = len(d.crossings)
        flips = [set(rng.sample(range(n), rng.randint(min(1, n), n)))
                 for _ in range(2)]
        for idx in [set()] + flips:
            r = yamada_raw(flip_crossings(d, idx))
            assert (subs_int(r, 1), subs_int(r, -1)) == values, (name, idx)


def test_cost_limit_boundary(monkeypatch):
    """The trefoil's estimate is 10,125: a limit equal to it still
    evaluates, one below refuses."""
    value = yamada_raw(catalog.trefoil())
    monkeypatch.setattr(yamada, "MAX_COST", 10125)
    assert yamada_raw(catalog.trefoil()) == value
    monkeypatch.setattr(yamada, "MAX_COST", 10124)
    with pytest.raises(DiagramError, match="estimated Yamada cost"):
        yamada_raw(catalog.trefoil())


def test_normalized_zero_handling():
    res = yamada_normalized(Diagram())
    assert res.raw == ONE and res.min_power == 0
    # the dumbbell has a bridge, so its polynomial is 0 (fact (c)), which
    # has no least exponent to normalize by
    res = yamada_normalized(dumbbell())
    assert res.raw.is_zero() and res.normalized.is_zero()
    assert res.min_power is None


def test_theta_table_values():
    got = str(yamada_normalized(catalog.theta_5_3()).normalized)
    assert got == "-1 - A - A^2 - A^3 - A^4 - A^10 - A^12 - A^14 + A^16 + A^18"
    got = str(yamada_normalized(catalog.theta_5_4()).normalized)
    assert got == ("-1 - A - A^2 - A^3 - 2A^4 - A^5 - A^6 - A^7 + A^9 "
                   "+ A^11 + A^13 + A^16 - A^17")


def test_wide_frontier_refused_at_once():
    """Two vertices joined by 5,000 parallel edges leave 5,000 open ends
    after the first: the estimate stops its Bell recurrence once past the
    limit, so the refusal needs no big numbers and names a lower bound."""
    k = 5000
    d = Diagram((VertexNode(0, tuple((s, "out") for s in range(k))),
                 VertexNode(1, tuple((s, "in") for s in range(k)))), (), 0)
    start = time.monotonic()
    with pytest.raises(DiagramError, match=r"estimated Yamada cost at least "
                                           r"\S+ \(widest frontier 5000\)"):
        yamada_raw(d)
    assert time.monotonic() - start < 1.0


def tile_order_corpus():
    """Fourteen fixtures, K3-K9, the grids 2x2-13x13, the 3-braid closures
    of (sigma_1 sigma_2^-1)^k for k <= 300, 400 seeded closures of 2-6
    strands inflated by up to three R1/R2 moves, and 48 catalog diagrams
    inflated by one to three R2 moves."""
    corpus = [parse_diagram(read_fixture(name + ".json")) for name in (
        "closure3x18", "figure_eight", "k5", "k7", "kink_neg", "kink_pos",
        "knot_5_2", "theta_5_3", "theta_5_4", "theta_trivial",
        "theta_weighted", "torus_2_5", "trefoil", "unknot")]
    corpus += [catalog.complete_graph_moment_curve(n) for n in range(3, 10)]
    corpus += [parse_diagram(grid_text(n)) for n in range(2, 14)]
    corpus += [catalog.braid_closure(3, [1, -2] * k) for k in range(1, 301)]
    rng = random.Random(21)
    for _ in range(400):
        strands = rng.randint(2, 6)
        d = catalog.braid_closure(
            strands, [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                      for _ in range(rng.randint(1, 24))])
        for _ in range(rng.randint(0, 3)):
            segs = sorted(d.segment_ids())
            if len(segs) >= 2 and rng.random() < 0.5:
                s1, s2 = rng.sample(segs, 2)
                d = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
            else:
                d = apply_r1(d, rng.choice(segs), rng.choice((1, -1)))
        corpus.append(d)
    bases = [getattr(catalog, name)() for name in (
        "trefoil", "figure_eight", "torus_2_5", "knot_5_2", "theta_5_3",
        "theta_5_4", "theta_trivial")]
    bases.append(catalog.complete_graph_moment_curve(4))
    for i in range(48):
        d = bases[i % len(bases)]
        for _ in range(1 + i % 3):
            s1, s2 = rng.sample(sorted(d.segment_ids()), 2)
            d = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
        corpus.append(d)
    return corpus


def test_tile_order_identity():
    """The greedy tile order, and its (widest, summed, parts), on every
    diagram of the corpus (781): one SHA-256 over the repr of each
    `_tile_order` result, recorded from the walk that kept one candidate
    stack per gain."""
    digest = hashlib.sha256()
    for d in tile_order_corpus():
        digest.update(repr(_tile_order(_tiles(d))).encode())
    assert digest.hexdigest() == ("4d9683bba53ef64de845ab0b95d99cfb"
                                  "23ebabe80ab3c74cffd2733ffa68ca78")


@pytest.mark.parametrize("name, make, expected", [
    ("K6", lambda: catalog.complete_graph_moment_curve(6), (9, 149, 1)),
    ("K7", lambda: catalog.complete_graph_moment_curve(7), (12, 416, 1)),
    ("K8", lambda: catalog.complete_graph_moment_curve(8), (16, 1003, 1)),
    ("grid8", lambda: parse_diagram(grid_text(8)), (9, 477, 1)),
    ("grid10", lambda: parse_diagram(grid_text(10)), (11, 990, 1)),
    ("closure3x100", lambda: catalog.braid_closure(3, [1, -2] * 50),
     (6, 590, 1)),
    ("closure3x300", lambda: catalog.braid_closure(3, [1, -2] * 150),
     (6, 1790, 1)),
    ("trefoil+figure_eight", lambda: disjoint_union(catalog.trefoil(),
                                                    catalog.figure_eight()),
     (4, 20, 2)),
    ("k4+theta_5_3+trefoil", lambda: disjoint_union(
        disjoint_union(catalog.complete_graph_moment_curve(4),
                       catalog.theta_5_3()), catalog.trefoil()), (4, 45, 3)),
])
def test_tile_order_cost(name, make, expected):
    """(widest frontier, summed frontier, components) of the tile order."""
    assert _tile_order(_tiles(make()))[0] == expected, name
