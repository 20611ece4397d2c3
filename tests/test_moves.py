"""Reidemeister move generators: structural checks, provenance tracing,
weight transport, mirror, and disjoint union."""

import hashlib
import random

import pytest

from sginv import catalog
from sginv.diagram import DiagramError, derive_edges, serialize, validate
from sginv.moves import (R2_VARIANTS, apply_r1, apply_r1_traced, apply_r2,
                         apply_r2_traced, disjoint_union, mirror,
                         transport_weights)

from helpers import small_corpus

MOVE_BASES = {
    "kink_pos": lambda: catalog.kinked_unknot(1),
    "kink_neg": lambda: catalog.kinked_unknot(-1),
    "trefoil": catalog.trefoil,
    "figure_eight": catalog.figure_eight,
    "torus_2_5": catalog.torus_2_5,
    "knot_5_2": catalog.knot_5_2,
    "theta_5_3": catalog.theta_5_3,
    "theta_5_4": catalog.theta_5_4,
    "theta_trivial": catalog.theta_trivial,
    "k4": lambda: catalog.complete_graph_moment_curve(4),
}

# moves_sha256(MOVE_BASES[name]()) for each base
MOVE_SHA256 = {
    "kink_pos": "3c7436cf2238565b6a9fd235d81d49eafd9c9cf0cc7f3de883132465cb87e408",
    "kink_neg": "50cd0c462a0d7e4f3356a43983de75464a1b3942093c16df03769c22dea9459b",
    "trefoil": "7c037af1d50f0ab742ab8dca8346a651d3f9f149aa87314e219d26abdc8a2347",
    "figure_eight": "54e70116da83a9b16d6768b040d4766de09528ef36893cc492c79edf4c014b92",
    "torus_2_5": "8491c0344790f61a59c5dba7542dd5ca900493098124a2a3b7d53cc414367c54",
    "knot_5_2": "fe5e19a4ef1a89abd28528882a390865b18e73d5ba58c6c4b5cf0693df55adfd",
    "theta_5_3": "d8f9a10a313b0e78af5bbd7bb0f0787de8acb8c5a6a90c14efe909f2bce0b734",
    "theta_5_4": "50415aca63aa57976cc81a992e98f18939a72a9dd4e1b41013458b19ff427afe",
    "theta_trivial": "fc6a53d3c7fc5cf1f0614cb01bb86e1a31bbf21723fdc2010aeae473f0653ef7",
    "k4": "a4833f62f0ef947f4c3bd79cd93cf196191717459d5bd08c7365338bc7223036",
}


def test_r1_structure():
    for name, d in small_corpus().items():
        for seg in sorted(d.segment_ids()):
            for ch in (1, -1):
                r = apply_r1(d, seg, ch)
                assert validate(r) == [], (name, seg, ch)
                assert len(r.crossings) == len(d.crossings) + 1
                assert len(r.segment_ids()) == len(d.segment_ids()) + 2
                assert len(derive_edges(r)) == len(derive_edges(d))
                signs = sorted(c.sign for c in r.crossings)
                assert signs == sorted([c.sign for c in d.crossings] + [ch])


def test_r1_rejects_bad_input():
    tre = catalog.trefoil()
    with pytest.raises(DiagramError):
        apply_r1(tre, 99, 1)
    with pytest.raises(ValueError):
        apply_r1(tre, 1, 0)


def test_r2_structure():
    rng = random.Random(2024)
    for name, d in small_corpus().items():
        segs = sorted(d.segment_ids())
        if len(segs) < 2:
            continue
        for _ in range(6):
            s1, s2 = rng.sample(segs, 2)
            variant = rng.choice(R2_VARIANTS)
            r = apply_r2(d, s1, s2, variant)
            assert validate(r) == [], (name, s1, s2, variant)
            assert len(r.crossings) == len(d.crossings) + 2
            assert len(r.segment_ids()) == len(d.segment_ids()) + 4
            signs = sorted(c.sign for c in r.crossings)
            assert signs == sorted([c.sign for c in d.crossings] + [1, -1])


def test_r2_rejects_bad_input():
    tre = catalog.trefoil()
    with pytest.raises(DiagramError):
        apply_r2(tre, 1, 1)
    with pytest.raises(ValueError):
        apply_r2(tre, 1, 2, "sideways")


def test_traced_provenance_covers_new_segments():
    tre = catalog.trefoil()
    r, prov = apply_r1_traced(tre, 1, 1)
    assert set(prov.values()) == {1}
    assert set(prov) == r.segment_ids() - tre.segment_ids()
    r, prov = apply_r2_traced(tre, 1, 3, "under-")
    assert set(prov.values()) == {1, 3}
    assert set(prov) == r.segment_ids() - tre.segment_ids()


def moves_sha256(d, sequences=25):
    """SHA-256 of `serialize` and the sorted provenance after every move of
    `sequences` seeded runs of one to four R1/R2 moves from d."""
    h = hashlib.sha256()
    for seed in range(sequences):
        rng = random.Random(seed)
        r = d
        for _ in range(rng.randint(1, 4)):
            segs = sorted(r.segment_ids())
            if rng.random() < 0.5:
                r, prov = apply_r1_traced(r, rng.choice(segs),
                                          rng.choice((1, -1)))
            else:
                s1, s2 = rng.sample(segs, 2)
                r, prov = apply_r2_traced(r, s1, s2, rng.choice(R2_VARIANTS))
            h.update(serialize(r).encode())
            h.update(repr(sorted(prov.items())).encode())
    return h.hexdigest()


def test_seeded_move_digests():
    got = {name: moves_sha256(base()) for name, base in MOVE_BASES.items()}
    assert got == MOVE_SHA256


def test_transport_weights_preserves_edge_weights():
    th = catalog.theta_trivial()
    w = {"e1": 1, "e2": 1, "e3": -2}
    rng = random.Random(5150)
    for _ in range(25):
        d, weights = th, dict(w)
        for _ in range(4):
            segs = sorted(d.segment_ids())
            if rng.random() < 0.5:
                d2, prov = apply_r1_traced(d, rng.choice(segs),
                                           rng.choice((1, -1)))
            else:
                s1, s2 = rng.sample(segs, 2)
                d2, prov = apply_r2_traced(d, s1, s2,
                                           rng.choice(R2_VARIANTS))
            weights = transport_weights(d, weights, d2, prov)
            d = d2
        assert sorted(weights.values()) == [-2, 1, 1]


def test_mirror_is_an_involution_and_flips_signs():
    for name, d in small_corpus().items():
        m = mirror(d)
        assert validate(m) == [], name
        assert mirror(m) == d
        assert [c.sign for c in m.crossings] == \
            [-c.sign for c in d.crossings]


def test_disjoint_union_structure():
    a = catalog.trefoil()
    b = catalog.theta_trivial()
    u = disjoint_union(a, b)
    assert validate(u) == []
    assert len(u.crossings) == len(a.crossings) + len(b.crossings)
    assert len(u.vertices) == len(a.vertices) + len(b.vertices)
    assert len(u.segment_ids()) == len(a.segment_ids()) + len(b.segment_ids())
    assert u.free_loops == a.free_loops + b.free_loops
