"""Constituent links T(G): enumeration counts, fingerprints, Hamiltonian
cycles, and the Conway-Gordon mod-2 Arf sum."""

import json
import random
from collections import Counter
from itertools import product
from math import comb, prod

import pytest

from sginv import catalog, cli, constituents
from sginv.alexander import graph_determinant
from sginv.constituents import (_choice_space, _cycle_determinant, _edge_ends,
                                _extract, _fingerprint_value,
                                _hamiltonian_cycles,
                                arf_from_determinant, constituent_families,
                                constituent_fingerprint, conway_gordon_sum,
                                enumerate_constituents,
                                hamiltonian_constituents)
from sginv.diagram import (Crossing, Diagram, DiagramError, VertexNode,
                           derive_edges, serialize, validate)
from sginv.moves import R2_VARIANTS, apply_r2, disjoint_union
from sginv.yamada import sigma


def test_theta_multiset():
    th = catalog.theta_trivial()
    members = enumerate_constituents(th)
    assert len(members) == 9  # C(3,2)^2 vertex choices
    nonempty = [m for m in members if not m.is_empty]
    assert len(nonempty) == 3
    for m in nonempty:
        assert m.components == 1
        assert validate(m.diagram) == []
        assert m.component_vertices == (frozenset({0, 1}),)
    for m in members:
        if m.is_empty:
            assert m.components == 0 and m.diagram.is_empty()


def test_choice_count_is_product_of_binomials():
    for d in (catalog.theta_trivial(), catalog.theta_5_3(),
              catalog.theta_5_4(), catalog.complete_graph_moment_curve(4)):
        expected = 1
        for v in d.vertices:
            expected *= comb(len(v.incident), 2)
        assert len(enumerate_constituents(d)) == expected


def test_theta_yamada_fingerprint():
    th = catalog.theta_trivial()
    assert constituent_fingerprint(th, "yamada") == [str(sigma())] * 3


def test_theta_table_determinant_fingerprints():
    assert constituent_fingerprint(catalog.theta_5_3(), "determinant") == \
        [1, 1, 5]
    assert constituent_fingerprint(catalog.theta_5_4(), "determinant") == \
        [1, 3, 5]


def test_theta_table_yamada_fingerprints():
    # chirality-sensitive: a wrong sign flip in extraction changes them
    assert constituent_fingerprint(catalog.theta_5_3(), "yamada") == [
        "A^-1 + 1 + A", "A^-3 + A^-2 + A^-1",
        "A^-7 + A^-6 + A^-5 + A^-4 + A^-3 - A^4 - A^5 - A^6 + A^10"]
    assert constituent_fingerprint(catalog.theta_5_4(), "yamada") == [
        "A^-1 + 1 + A",
        "A^-5 + A^-4 + A^-3 + A^-2 + A^-1 - A^2 - A^3 - A^4 + A^6",
        "A^-7 + A^-6 + A^-5 + A^-4 + A^-3 - A^4 - A^5 - A^6 + A^10"]


def test_extraction_reverses_the_second_strand():
    # slots 1 and 2 of vertex 100 are both tails: the strand of slot 2 turns
    link = _extract(catalog.theta_5_3(), ((100, (1, 2)), (101, (0, 2))))
    assert link.diagram == Diagram((), (Crossing(over_in=20, over_out=16,
                                                 under_in=16, under_out=20,
                                                 sign=-1),), 0)


def _cycle_components(d, choice):
    """Oracle for the components of a vertex choice, on the underlying
    multigraph: keep each edge whose vertex ends are all chosen slots; a
    component of the kept graph whose vertices all keep both chosen slots is
    a cycle.  Vertex-free closed classes and free loops add empty sets."""
    edges = derive_edges(d)
    chosen = {(vid, slot) for vid, pair in choice for slot in pair}
    ends = {}
    for v in d.vertices:
        for slot, (seg, _) in enumerate(v.incident):
            ends.setdefault(edges.index_of(seg), []).append((v.id, slot))
    adjacent = {}
    for (u, i), (w, j) in ends.values():
        if (u, i) in chosen and (w, j) in chosen:
            adjacent.setdefault(u, []).append(w)
            adjacent.setdefault(w, []).append(u)
    components, seen = [], set()
    for start in adjacent:
        if start in seen:
            continue
        comp, todo = set(), [start]
        while todo:
            x = todo.pop()
            if x not in comp:
                comp.add(x)
                todo.extend(adjacent[x])
        seen |= comp
        if all(len(adjacent[x]) == 2 for x in comp):
            components.append(frozenset(comp))
    empty = sum(edges.is_closed) + d.free_loops
    return components + [frozenset()] * empty


def _inflated_k4():
    rng = random.Random(4)
    d = catalog.complete_graph_moment_curve(4)
    for _ in range(3):
        a, b = rng.sample(sorted(d.segment_ids()), 2)
        d = apply_r2(d, a, b, rng.choice(R2_VARIANTS))
    return d


@pytest.mark.parametrize("name, d, samples", [
    ("k4", catalog.complete_graph_moment_curve(4), None),
    ("theta_5_3", catalog.theta_5_3(), None),
    ("theta_5_4", catalog.theta_5_4(), None),
    ("k5", catalog.complete_graph_moment_curve(5), 300),
    ("k4+3R2", _inflated_k4(), 300),
])
def test_extraction_matches_cycle_oracle(name, d, samples):
    vids, slot_pairs = _choice_space(d)
    if samples is None:
        choices = product(*slot_pairs)
    else:
        rng = random.Random(name)
        choices = ([rng.choice(pairs) for pairs in slot_pairs]
                   for _ in range(samples))
    for combo in choices:
        choice = tuple(zip(vids, combo))
        link = _extract(d, choice)
        expected = _cycle_components(d, choice)
        assert validate(link.diagram) == [], choice
        assert link.components == len(expected), choice
        assert Counter(link.component_vertices) == Counter(expected), choice


@pytest.mark.parametrize("name, d, invariants", [
    ("k4", catalog.complete_graph_moment_curve(4),
     ("determinant", "alexander", "yamada")),
    ("k4+3R2", _inflated_k4(), ("determinant",)),
    ("theta_trivial", catalog.theta_trivial(),
     ("determinant", "alexander", "yamada")),
    ("theta_5_3", catalog.theta_5_3(), ("determinant", "alexander", "yamada")),
    ("theta_5_4", catalog.theta_5_4(), ("determinant", "alexander", "yamada")),
    ("k5", catalog.complete_graph_moment_curve(5), ("determinant",)),
])
def test_families_match_per_choice_extraction(name, d, invariants):
    """Every choice gets from its cycle family the components and the
    fingerprint that extracting the choice itself gives."""
    members = enumerate_constituents(d)
    for inv in invariants:
        expected = [(m.components, _fingerprint_value(m.diagram, inv))
                    for m in members]
        assert list(constituent_families(d, inv)) == expected, inv


@pytest.mark.parametrize("d, families", [
    (catalog.complete_graph_moment_curve(4), 8),
    (catalog.complete_graph_moment_curve(5), 38),
    (catalog.theta_trivial(), 4),
], ids=["k4", "k5", "theta_trivial"])
def test_listing_extracts_each_family_once(tmp_path, capsys, monkeypatch,
                                           d, families):
    calls = []

    def counting(*args):
        calls.append(args[1])
        return extract(*args)

    extract = constituents._extract
    monkeypatch.setattr(constituents, "_extract", counting)
    path = tmp_path / "d.json"
    path.write_text(serialize(d))
    assert cli.run(["constituents", str(path), "--invariant",
                    "determinant"]) == 0
    assert len(calls) == families
    listing = json.loads(capsys.readouterr().out)["constituents"]
    assert len(listing) == prod(comb(len(v.incident), 2) for v in d.vertices)


@pytest.mark.parametrize("drop_empty", [False, True])
@pytest.mark.parametrize("name, d, inv", [
    ("k4+3R2", _inflated_k4(), "determinant"),
    ("theta_5_4", catalog.theta_5_4(), "yamada"),
    ("trefoil+theta", disjoint_union(catalog.trefoil(),
                                     catalog.theta_trivial()), "alexander"),
])
def test_listing_bytes_match_per_choice_document(tmp_path, capsys, name, d,
                                                 inv, drop_empty):
    """The streamed listing is, byte for byte, the sorted-key dump of the
    document built from per-choice extraction."""
    members = [m for m in enumerate_constituents(d)
               if not (drop_empty and m.is_empty)]
    values = [_fingerprint_value(m.diagram, inv) for m in members]
    doc = {"constituents": [{"choice": [[vid, list(pair)]
                                        for vid, pair in m.choice],
                             "components": m.components,
                             "fingerprint": value}
                            for m, value in zip(members, values)],
           "multiset": sorted(values, key=lambda v: (str(v), repr(v)))}
    path = tmp_path / "d.json"
    path.write_text(serialize(d))
    argv = ["constituents", str(path), "--invariant", inv]
    assert cli.run(argv + ["--drop-empty"] * drop_empty) == 0
    assert capsys.readouterr().out == \
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_fingerprint_rejects_unknown_invariant():
    with pytest.raises(ValueError):
        constituent_fingerprint(catalog.theta_trivial(), "jones")


def test_hamiltonian_direct_matches_filtered():
    for d in (catalog.theta_trivial(), catalog.theta_5_3(),
              catalog.theta_5_4()):
        all_vids = frozenset(v.id for v in d.vertices)
        filtered = {m.choice for m in enumerate_constituents(d)
                    if m.components == 1
                    and m.component_vertices == (all_vids,)}
        direct = {m.choice for m in hamiltonian_constituents(d)}
        assert direct == filtered and len(direct) == 3


def test_hamiltonian_on_vertex_free_diagrams():
    hams = hamiltonian_constituents(catalog.trefoil())
    assert len(hams) == 1 and hams[0].components == 1
    # multi-component closures are not single cycles
    hopf = catalog.braid_closure(2, [1, 1])
    split = catalog.braid_closure(2, [])
    assert hamiltonian_constituents(hopf) == []
    assert hamiltonian_constituents(split) == []


def test_arf_congruence():
    assert [arf_from_determinant(k) for k in (1, 3, 5, 7, 9)] == \
        [0, 1, 1, 0, 0]


def test_conway_gordon_values():
    assert conway_gordon_sum(catalog.theta_trivial()) == 0
    assert conway_gordon_sum(catalog.trefoil()) == 1  # Arf of the trefoil
    # cycles of a theta-graph: unknot (Arf 0), trefoil and 5_1 (Arf 1 each)
    assert conway_gordon_sum(catalog.theta_5_4()) == 0
    assert conway_gordon_sum(catalog.theta_5_3()) == 1


def test_conway_gordon_requires_hamiltonian_cycle():
    no_cycle = disjoint_union(catalog.theta_trivial(),
                              catalog.theta_trivial())
    with pytest.raises(DiagramError):
        conway_gordon_sum(no_cycle)


def test_k7_straight_line_embedding():
    d = catalog.complete_graph_moment_curve(7)
    assert validate(d) == []
    assert len(d.crossings) == 35
    hams = hamiltonian_constituents(d)
    assert len(hams) == 360  # 6!/2 Hamiltonian cycles of K7
    assert conway_gordon_sum(d) == 1


def r2_variant(d, seed, moves):
    rng = random.Random(seed)
    for _ in range(moves):
        s1, s2 = rng.sample(sorted(d.segment_ids()), 2)
        d = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
    return d


FOX_CASES = [
    (f"K{n}{'+R2' * moves}", r2_variant(catalog.complete_graph_moment_curve(n),
                                       n, moves))
    for n in (5, 6, 7) for moves in (0, 1, 2)] + [
    ("theta_5_3", catalog.theta_5_3()), ("theta_5_4", catalog.theta_5_4()),
    ("K4+3R2", r2_variant(catalog.complete_graph_moment_curve(4), 4, 3)),
    # one vertex, two loops through one crossing: each cycle splices it
    ("bouquet", Diagram((VertexNode(0, ((0, "out"), (1, "in"), (2, "out"),
                                        (3, "in"))),),
                        (Crossing(0, 1, 2, 3, 1),), 0))]


@pytest.mark.parametrize("name, d", FOX_CASES,
                         ids=[name for name, _ in FOX_CASES])
def test_fox_cycle_determinants_match_extraction(name, d):
    """Each Hamiltonian cycle's determinant from its Fox matrix on the
    diagram's own segments equals the determinant of its extracted link,
    in the same cycle order, and the Arf sum follows."""
    part, ends, _ = _edge_ends(d)
    fox = [_cycle_determinant(d, part.class_of, on)
           for on in _hamiltonian_cycles(ends)]
    extracted = [graph_determinant(link.diagram, None)
                 for link in hamiltonian_constituents(d)]
    assert fox == extracted and fox, name
    assert conway_gordon_sum(d) == \
        sum(map(arf_from_determinant, extracted)) % 2, name


def test_conway_gordon_on_vertex_free_diagrams():
    """Without vertices the one closed component is the only cycle."""
    for d in (catalog.trefoil(), catalog.figure_eight(), catalog.knot_5_2(),
              catalog.unknot(), catalog.kinked_unknot(-1)):
        (link,) = hamiltonian_constituents(d)
        assert conway_gordon_sum(d) == \
            arf_from_determinant(graph_determinant(link.diagram, None))
    for d in (catalog.braid_closure(2, [1, 1]), Diagram()):
        with pytest.raises(DiagramError):
            conway_gordon_sum(d)
