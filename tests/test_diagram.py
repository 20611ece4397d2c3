"""Diagram data model: parsing, canonical serialization, validation,
arc/edge partitions, and crossing resolution."""

import json
import random

import pytest

from sginv import catalog
from sginv.diagram import (Crossing, Diagram, DiagramError, VertexNode, Wiring,
                           derive_arcs, derive_edges, parse_diagram,
                           parse_document, resolve_crossing, seg_to_edge_id,
                           serialize, validate)
from sginv.moves import R2_VARIANTS, apply_r1, apply_r2, mirror

from helpers import canonicalize, edge_ids, read_fixture, small_corpus


def test_round_trip_is_canonical():
    for name, d in {**small_corpus(),
                    "theta_5_3": catalog.theta_5_3(),
                    "k7": catalog.complete_graph_moment_curve(7)}.items():
        text = serialize(d)
        d2, w = parse_document(text)
        assert w is None
        assert serialize(d2) == text, name


def test_fixture_files_round_trip():
    for name in ("trefoil.json", "theta_trivial.json", "theta_weighted.json",
                 "k7.json"):
        text = read_fixture(name)
        d, w = parse_document(text)
        assert serialize(d, w) == text, name


def test_weights_parsed():
    d, w = parse_document(read_fixture("theta_weighted.json"))
    assert w == {"e1": 1, "e2": 1, "e3": -2}


def test_parse_accepts_bare_integer_segment_ids():
    text = serialize(catalog.trefoil()).replace('"s', '"x')
    doc = json.loads(serialize(catalog.trefoil()))
    for c in doc["crossings"]:
        for k in ("over_in", "over_out", "under_in", "under_out"):
            c[k] = int(c[k][1:])
    d = parse_diagram(json.dumps(doc))
    assert serialize(canonicalize(d)) == serialize(canonicalize(catalog.trefoil()))


@pytest.mark.parametrize("mangle, message", [
    (lambda doc: doc.update(extra=1), "unknown key"),
    (lambda doc: doc["crossings"][0].pop("over_in"), "missing"),
    (lambda doc: doc["crossings"][0].update(over_in="q7"), "bad segment id"),
    (lambda doc: doc["crossings"][0].update(over_in=-3), "negative segment"),
    (lambda doc: doc["crossings"][0].update(over_in="s\u00b2"),
     "bad segment id 's\u00b2'"),
    (lambda doc: doc.update(vertices=[{"id": 0, "incident": [["s0"]]}]),
     "not a \\[segment, direction\\] pair"),
    (lambda doc: doc.update(vertices=[5]), "vertex: expected a JSON object"),
    (lambda doc: doc.update(free_loops="x"), "free_loops: .* got 'x'"),
    (lambda doc: doc.update(free_loops=float("inf")), "free_loops: .* got inf"),
    (lambda doc: doc.update(weights={"e1": "x"}), "weight 'e1': expected"),
    (lambda doc: doc["crossings"][0].update(sign="1"), "sign: .* got '1'"),
    (lambda doc: doc["crossings"][0].update(sign=True), "sign: .* got True"),
    (lambda doc: doc["crossings"][0].update(sign=2), "bad-sign"),
])
def test_parse_rejects_malformed_documents(mangle, message):
    doc = json.loads(serialize(catalog.trefoil()))
    mangle(doc)
    with pytest.raises(DiagramError, match=message):
        parse_diagram(json.dumps(doc))


def test_parse_rejects_bad_direction_and_syntax():
    with pytest.raises(DiagramError, match="syntax error"):
        parse_diagram("{broken")
    with pytest.raises(DiagramError, match="unreadable JSON"):
        parse_diagram('{"free_loops": ' + "9" * 5000 + "}")
    with pytest.raises(DiagramError, match="unreadable JSON"):
        parse_diagram('{"vertices": ' + "[" * 100000 + "]" * 100000 + "}")
    doc = {"vertices": [{"id": 0, "incident": [["s0", "sideways"]]}]}
    with pytest.raises(DiagramError, match="direction"):
        parse_diagram(json.dumps(doc))


def test_crossing_sign_validation():
    bad = Diagram((), (Crossing(over_in=0, over_out=1,
                                under_in=1, under_out=0, sign=2),), 0)
    assert any("bad-sign" in i for i in validate(bad))


def test_validate_reports_wiring_violations():
    # s0 has two heads and no tail
    d = Diagram((VertexNode(0, ((0, "in"), (0, "in"))),), (), 0)
    issues = validate(d)
    assert any("double-head" in i for i in issues)
    assert any("dangling" in i for i in issues)
    # dangling only
    d = Diagram((VertexNode(0, ((0, "in"),)),), (), 0)
    assert any("dangling" in i for i in validate(d))
    # duplicate vertex ids
    v = VertexNode(0, ((0, "in"), (0, "out")))
    assert any("duplicate-vertex" in i
               for i in validate(Diagram((v, v), (), 0)))
    # negative free loops
    assert validate(Diagram((), (), -1))


def test_validate_report_order():
    # heads before tails within a crossing; a bad direction attaches a tail
    d = Diagram((VertexNode(0, ((3, "in"), (4, "out"), (5, "sideways"))),),
                (Crossing(over_in=0, over_out=4, under_in=3, under_out=5,
                          sign=1),), 0)
    assert validate(d) == [
        "bad-direction v0 s5",
        "double-head s3 (v0[0] and x0.under_in)",
        "double-tail s4 (v0[1] and x0.over_out)",
        "double-tail s5 (v0[2] and x0.under_out)",
        "dangling-segment s0 (no tail attachment)",
        "dangling-segment s3 (no tail attachment)",
        "dangling-segment s4 (no head attachment)",
        "dangling-segment s5 (no head attachment)",
    ]


def test_validate_quotes_long_ids():
    """Every id and sign in a violation is cut to 40 characters, each
    field of a bad-sign crossing on its own."""
    big = int("9" * 4000)
    d = Diagram((VertexNode(big, ((big, "in"), (big, "in"),
                                  (-big, "sideways"))),
                 VertexNode(big, ())),
                (Crossing(over_in=big, over_out=1, under_in=2, under_out=3,
                          sign=-big),), 0)
    n, neg = "9" * 40, "-" + "9" * 39
    assert validate(d) == [
        f"bad-direction v{n} s{neg}",
        f"duplicate-vertex v{n}",
        f"empty-vertex v{n}",
        f"bad-sign crossing Crossing(over_in={n}, over_out=1, under_in=2, "
        f"under_out=3, sign={neg})",
        f"double-head s{n} (v{n}[0] and v{n}[1])",
        f"double-head s{n} (v{n}[1] and x0.over_in)",
        f"negative-segment s{neg}",
        f"dangling-segment s{neg} (no head attachment)",
        "dangling-segment s1 (no head attachment)",
        "dangling-segment s2 (no tail attachment)",
        "dangling-segment s3 (no head attachment)",
        f"dangling-segment s{n} (no tail attachment)",
    ]


def test_validate_accepts_corpus():
    for name, d in small_corpus().items():
        assert validate(d) == [], name


def test_ccw_slots_convention():
    pos = Crossing(over_in=0, over_out=1, under_in=2, under_out=3, sign=1)
    neg = Crossing(over_in=0, over_out=1, under_in=2, under_out=3, sign=-1)
    assert pos.ccw_slots() == ("over_in", "under_out", "over_out", "under_in")
    assert neg.ccw_slots() == ("over_in", "under_in", "over_out", "under_out")


def test_arc_and_edge_partitions():
    tre = catalog.trefoil()
    arcs, edges = derive_arcs(tre), derive_edges(tre)
    assert len(arcs.classes) == 3    # over-strand arcs of a 3-crossing knot
    assert len(edges.classes) == 1   # single closed component
    assert edges.is_closed == (True,)

    th = catalog.theta_trivial()
    assert len(derive_arcs(th).classes) == 3
    assert len(derive_edges(th).classes) == 3
    assert edge_ids(derive_edges(th)) == ["e1", "e2", "e3"]
    assert seg_to_edge_id(derive_edges(th)) == {0: "e1", 1: "e2", 2: "e3"}

    kink = catalog.kinked_unknot(1)
    assert len(derive_arcs(kink).classes) == 1
    assert len(derive_edges(kink).classes) == 1


def test_canonicalize_sorts_content():
    tre = catalog.trefoil()
    shuffled = Diagram(tre.vertices, tuple(reversed(tre.crossings)),
                       tre.free_loops)
    assert serialize(canonicalize(shuffled)) == serialize(canonicalize(tre))


def test_resolve_crossing_structure():
    rng = random.Random(11)
    for name, d in {**small_corpus(), "theta_5_3": catalog.theta_5_3()}.items():
        for idx in range(len(d.crossings)):
            for mode in ("A", "B", "V"):
                r = resolve_crossing(d, idx, mode)
                assert validate(r) == [], (name, idx, mode)
                assert len(r.crossings) == len(d.crossings) - 1
                if mode == "V":
                    assert len(r.vertices) == len(d.vertices) + 1
                    new = [v for v in r.vertices
                           if v.id not in {u.id for u in d.vertices}]
                    assert len(new) == 1 and len(new[0].incident) == 4
                else:
                    assert len(r.vertices) == len(d.vertices)


def test_resolve_kink_smoothings():
    # one smoothing of a kink splits off an extra circle, the other does not
    for chirality in (1, -1):
        kink = catalog.kinked_unknot(chirality)
        results = {mode: resolve_crossing(kink, 0, mode) for mode in "AB"}
        loops = sorted(r.free_loops for r in results.values())
        assert loops == [1, 2]
        # the circle-splitting smoothing is the A-state for a positive kink
        splitting = "A" if chirality == 1 else "B"
        assert results[splitting].free_loops == 2


def test_coherent_smoothing_splits_a_knot():
    """At every crossing of a knot, the smoothing that keeps the orientation
    (A at sign +1, B at sign -1) leaves two closed components, the other
    smoothing one."""
    knots = {"trefoil": catalog.trefoil(),
             "mirror trefoil": mirror(catalog.trefoil()),
             "figure eight": catalog.figure_eight(),
             "5_2": catalog.knot_5_2(), "torus 2,5": catalog.torus_2_5()}
    for name, d in knots.items():
        for idx, c in enumerate(d.crossings):
            coherent = "A" if c.sign == 1 else "B"
            for mode in "AB":
                r = resolve_crossing(d, idx, mode)
                components = sum(derive_edges(r).is_closed) + r.free_loops
                assert components == (2 if mode == coherent else 1), \
                    (name, idx, mode)


def test_resolve_v_mode_cyclic_order():
    kink = catalog.kinked_unknot(1)
    r = resolve_crossing(kink, 0, "V")
    (v,) = r.vertices
    dirs = tuple(direction for _, direction in v.incident)
    assert dirs == ("in", "out", "out", "in")


def test_resolve_rejects_bad_input():
    with pytest.raises(IndexError):
        resolve_crossing(catalog.kinked_unknot(1), 5, "A")
    with pytest.raises(ValueError):
        resolve_crossing(catalog.kinked_unknot(1), 0, "Q")


# -- the Wiring end index against a brute-force slot scan ---------------------

def _scan_end(d, seg, kind):
    """Oracle for Wiring.find_end: scan every vertex and crossing slot."""
    want = "in" if kind == "head" else "out"
    for v in d.vertices:
        for i, (s, direction) in enumerate(v.incident):
            if s == seg and direction == want:
                return ("v", v.id, i)
    names = ("over_in", "under_in") if kind == "head" else ("over_out", "under_out")
    for cid, c in enumerate(d.crossings):
        for name in names:
            if getattr(c, name) == seg:
                return ("c", cid, name)
    return None


def test_end_index_matches_scan():
    """find_end agrees with the scan on every end of every segment, and on
    an absent segment, of each corpus diagram and each R1/R2 result."""
    for d in small_corpus().values():
        segs = sorted(d.segment_ids())
        results = [d] + [apply_r1(d, seg, ch) for seg in segs for ch in (1, -1)]
        results += [apply_r2(d, s1, s2, variant)
                    for s1, s2 in zip(segs, segs[1:]) for variant in R2_VARIANTS]
        for r in results:
            w = Wiring(r)
            for s in r.segment_ids() | {max(r.segment_ids(), default=-1) + 1}:
                for kind in ("head", "tail"):
                    assert w.find_end(s, kind) == _scan_end(r, s, kind), (s, kind)

