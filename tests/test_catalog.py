"""The catalog's constructions: K_n on the moment curve against the K5 and
K7 fixtures, its crossing count, vertex order and crossing signs against an
independent height computation, and pinned SHA-256 digests of the
serialized K_n and of seeded braid closures, so any change to their
segment numbering shows; 4_1 from its PD code, and the refusals of a
broken PD code and of a braid generator out of range."""

import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from sginv import catalog
from sginv.alexander import (alexander_polynomial, graph_determinant,
                             uniform_weights)
from sginv.diagram import DiagramError, derive_edges, serialize
from sginv.yamada import yamada_normalized

from helpers import read_fixture

K_N_SHA256 = {
    3: "49445b724dba353126c3ac50d4c9379e15992fdfbe13b317b28c9f637d9db5c9",
    4: "aa6e3551aa9dc20c02f93fe7a7b93eef3e281517ccfd47a94b69ec4a084eede0",
    5: "f3fc600377fb3d287c8d56f4a51e6d4865cfb09f9641287a9de5e0db474ad3f6",
    6: "4b5aa6185b2aefc06cfd3b06ae277e7e6348b3790f5235ed722e6c48b5f29318",
    7: "8d8ee5efaf229e4dd42fc99982a7ba4c660795635264b4a7bc289f5a2bc97d60",
    8: "dfecc736f8a3e622fecdb0c22fcd9ba65eda8d39cb6b80c21f361353ae6922a0",
    9: "c91a6a48ea11b99722bbaa527fb570b61c83fab8a506a4e03e0204ae7414e493",
    10: "fb727ef6590608972ac289a3ddc4a3e10703cff2847c3b50f7e8c49966daa639",
}

# braid_closure(*seeded_braid(seed)) for seed = 0, 1, ..., 19
CLOSURE_SHA256 = [
    "9b4bbb90b58d4718577b661ebf0ecd78b369c553934c55a328529ae4ae931340",
    "3a9f2eb2a877e7c81159bea19e1dff8dcdd30ce71da6994c586c4b44a83ffc5c",
    "b3edd0084449a4902ff1ead0537fbf544e0c3214d7f1776f89c943d7eb4c9cbf",
    "ce8dbadb0a474d54c3d780ce4f62ace4735ab40e197886a6cb092054e183a500",
    "1818b9d2598834fcc0ae5794d099b0da8fcb56e0eb4d29d683c2070729d7e1c2",
    "0a94c65dae88431ea17d310819a7b0006ab98d8326a948ff1dc882476424f3d2",
    "f76da232b9a7e0a50505818a32c1b5a32162e47ae70d0822cafe466c2f3f1c2d",
    "1aeb45751f9ac7e6768c9f84e2e450550f74735de9c7681e345ada3bddcaa655",
    "11c7edc3a71e73bb6c5de56bf094e763e337d3d900608b9d7337819d98e4bfca",
    "fa85b3636f3d8eea169c0271b680f4e1f86d0b06aa6b90a673e19c012654da69",
    "e962f2e49b3ebb4a2220a000f68876c699aa78f348e244ed55d1ebe6f99cb34f",
    "9d1f190ef03d667e4d207b15f4882d03bddc51bcf831ae00c2d8142d06444feb",
    "30eda55260d61c0d8c909b7aff0e479f01a7aa026b8d4c7ba41b6e59c6dba36a",
    "19f2a1a4d1968324197ea1cc760cd6219646dc6c68bac52eb8165d181687228e",
    "01bf382e781f0377516d425fe1e3ff5ec84029b35e06f4cb686c1de56f425077",
    "7e5a3f885842f6547a5ce4bb6fab3e28214aade1355bccec1bd58b7b3f50ef13",
    "75efc735bbba2f8fec1acd6c698540da9394b67d9a7319089181ba68432e84a4",
    "303e6cdb6bf72628efb876990487cecb7ffcfc3375f295482236b206b97c73a4",
    "563c41fd232e7c8b4e8c67c58458160814acf576231e4b02c40728eafba5c63a",
    "6ae2c1b94c40c47f06d95f49f180d41bc66d599c8c4a87ecd4c82f382f66a797",
]


def sha256(d):
    return hashlib.sha256(serialize(d).encode()).hexdigest()


def seeded_braid(seed):
    """(strands, word): 2-6 strands, 1-24 generators of either sign."""
    rng = random.Random(seed)
    strands = rng.randint(2, 6)
    word = [rng.choice((-1, 1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 24))]
    return strands, word


def chords(d):
    """Edge class -> (tail vertex, head vertex), and the edge partition."""
    edges = derive_edges(d)
    ends = {}
    for v in d.vertices:
        for s, direction in v.incident:
            ends.setdefault(edges.class_of[s], {})[direction] = v.id
    return {e: (ends[e]["out"], ends[e]["in"]) for e in ends}, edges


def height(chord, x):
    """The z-coordinate of the moment-curve chord at the given x, by
    interpolating its ends (i, i^2, i^3)."""
    a, b = chord
    return a ** 3 + (x - a) * Fraction(b ** 3 - a ** 3, b - a)


def crossing_x(e, f):
    """The x at which the projected chords e and f meet, by solving the two
    line equations through their ends (i, i^2)."""
    (a, b), (c, d) = e, f
    slope_e, slope_f = Fraction(b * b - a * a, b - a), Fraction(d * d - c * c, d - c)
    return (c * c - slope_f * c - a * a + slope_e * a) / (slope_e - slope_f)


@pytest.mark.parametrize("n", [5, 7])
def test_moment_curve_matches_fixture(n):
    assert serialize(catalog.complete_graph_moment_curve(n)) == \
        read_fixture(f"k{n}.json")


@pytest.mark.parametrize("n", range(3, 11))
def test_moment_curve_structure(n):
    d = catalog.complete_graph_moment_curve(n)
    assert len(d.crossings) == comb(n, 4)
    chord, edges = chords(d)
    assert sorted(chord.values()) == [(a, b) for a in range(1, n + 1)
                                      for b in range(a + 1, n + 1)]
    assert not any(edges.is_closed)
    for v in d.vertices:
        others = [chord[edges.class_of[s]] for s, _ in v.incident]
        neighbours = [a if b == v.id else b for a, b in others]
        assert neighbours == [u for u in range(1, n + 1) if u != v.id]
        assert [dr for _, dr in v.incident] == \
            ["in" if u < v.id else "out" for u in neighbours]
    # crossings along each chord come in order of x
    along = {}
    for c in d.crossings:
        over, under = chord[edges.class_of[c.over_in]], \
            chord[edges.class_of[c.under_in]]
        a, b = over
        p, q = under
        assert p < a < q < b or a < p < b < q
        x = crossing_x(over, under)
        assert height(over, x) > height(under, x)
        assert c.sign == (1 if p + q < a + b else -1)
        assert (c.over_out, c.under_out) == (c.over_in + 1, c.under_in + 1)
        along.setdefault(over, []).append((c.over_in, x))
        along.setdefault(under, []).append((c.under_in, x))
    for hits in along.values():
        assert [x for _, x in sorted(hits)] == sorted(x for _, x in hits)


@pytest.mark.parametrize("n", sorted(K_N_SHA256))
def test_moment_curve_digest(n):
    assert sha256(catalog.complete_graph_moment_curve(n)) == K_N_SHA256[n]


def test_braid_closure_digests():
    got = [sha256(catalog.braid_closure(*seeded_braid(seed)))
           for seed in range(len(CLOSURE_SHA256))]
    assert got == CLOSURE_SHA256


# the Knot Atlas PD code of 4_1
FIGURE_EIGHT_PD = [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]


def test_from_pd_negative_crossings():
    """4_1 from its PD code has two negative crossings, and the Alexander
    polynomial, determinant and Yamada polynomial of the catalog's
    figure-eight."""
    d = catalog.from_pd(FIGURE_EIGHT_PD)
    assert [c.sign for c in d.crossings] == [-1, -1, 1, 1]
    weights = uniform_weights(d)
    assert str(alexander_polynomial(d, weights)) == "1 - 3t + t^2"
    assert graph_determinant(d, weights) == 5
    assert (yamada_normalized(d).normalized
            == yamada_normalized(catalog.figure_eight()).normalized)


@pytest.mark.parametrize("make, match", [
    (lambda: catalog.from_pd([(4, 2, 6, 1), *FIGURE_EIGHT_PD[1:]]),
     "under strand of X.4, 2, 6, 1. breaks numbering"),
    (lambda: catalog.from_pd([(4, 2, 5, 7), *FIGURE_EIGHT_PD[1:]]),
     "cannot orient over strand of X.4, 2, 5, 7."),
    (lambda: catalog.braid_closure(3, [1, 3]), "generator 3 out of range"),
    (lambda: catalog.braid_closure(3, [0]), "generator 0 out of range"),
], ids=["pd-under-strand", "pd-over-strand", "braid-3", "braid-0"])
def test_catalog_refusals(make, match):
    with pytest.raises(DiagramError, match=match):
        make()
