"""Acceptance criteria: one test per criterion, each printing a single
PASS/FAIL line.  All comparisons are exact."""

import random

from sginv import catalog
from sginv.alexander import (alexander_polynomial, gcd_of_minors,
                             graph_determinant, uniform_weights)
from sginv.constituents import (constituent_fingerprint, conway_gordon_sum,
                                enumerate_constituents)
from sginv.diagram import Diagram
from sginv.graphs import AbstractGraph
from sginv.laurent import LaurentPoly
from sginv.moves import R2_VARIANTS, apply_r1, apply_r2, mirror
from sginv.quandle import affine_quandle, count_colorings
from sginv.yamada import (eval_crossing_free, sigma, yamada_normalized,
                          yamada_raw)

from helpers import knot_corpus, small_corpus, subs_int

A2 = LaurentPoly.monomial(1, 2, "A")
A2_inv = LaurentPoly.monomial(1, -2, "A")


def report(ok, label):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def corpus():
    return {**small_corpus(), "torus_2_5": catalog.torus_2_5(),
            "knot_5_2": catalog.knot_5_2()}


def test_criterion_1_explicit_matrix_oracle():
    t = LaurentPoly({1: 1}, "t")
    one = LaurentPoly({0: 1}, "t")
    it, ti, ti2 = one - t, LaurentPoly({-1: 1}, "t"), LaurentPoly({-2: 1}, "t")
    z = LaurentPoly.zero("t")
    rows = [
        [-one, it, t, z, z, z, z, z, z, z],
        [z, -one, it, t, z, z, z, z, z, z],
        [z, z, t, z, it, -one, z, z, z, z],
        [z, t, z, it, -one, z, z, z, z, z],
        [z, z, z, z, z, -one, it, z, t, z],
        [z, z, z, it, z, z, -one, t, z, z],
        [z, z, z, t, z, z, z, -one, it, z],
        [z, z, z, z, z, z, z, it, t, -one],
        [-ti, z, z, z, -ti2, z, ti2, z, z, ti],
    ]
    got = gcd_of_minors(rows, 8)
    report(got == LaurentPoly({0: 2, 1: -2, 2: 1}, "t"),
           "criterion 1 (9x10 matrix, gcd of 8x8 minors = t^2 - 2t + 2)")


def test_criterion_2_yamada_base_cases():
    s = sigma()
    ok = yamada_raw(Diagram()) == LaurentPoly.constant(1, "A")
    ok = ok and eval_crossing_free(AbstractGraph.make(1, [])) == \
        LaurentPoly.constant(-1, "A")
    for n in range(5):
        ok = ok and eval_crossing_free(
            AbstractGraph.make(1, [(0, 0)] * n)) == -((-s) ** n)
    ok = ok and yamada_raw(catalog.unknot()) == s
    report(ok, "criterion 2 (Yamada base cases: empty, vertex, bouquets, "
               "unknot)")


def test_criterion_3_yamada_move_behavior():
    rng = random.Random(1234321)
    checks = 0
    ok = True
    pool = corpus()
    while checks < 100:
        name = rng.choice(sorted(pool))
        d = pool[name]
        segs = sorted(d.segment_ids())
        if not segs:
            continue
        base = yamada_raw(d)
        seg = rng.choice(segs)
        ok = ok and yamada_raw(apply_r1(d, seg, 1)) == A2 * base
        ok = ok and yamada_raw(apply_r1(d, seg, -1)) == A2_inv * base
        if len(segs) >= 2:
            s1, s2 = rng.sample(segs, 2)
            d2 = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
            ok = ok and yamada_raw(d2) == base
        checks += 1
    report(ok, "criterion 3 (100 randomized R1 = x A^+-2, R2 = identity "
               "on yamada_raw)")


def test_criterion_4_normalized_invariance():
    ok = True
    for name, d in corpus().items():
        base = yamada_normalized(d).normalized
        for seg in sorted(d.segment_ids()):
            for ch in (1, -1):
                got = yamada_normalized(apply_r1(d, seg, ch)).normalized
                ok = ok and got == base
    report(ok, "criterion 4 (normalized Yamada invariant under R1)")


def test_criterion_5_knot_alexander_values():
    expected = {"trefoil": "1 - t + t^2", "figure_eight": "1 - 3t + t^2",
                "kink_pos": "1"}
    ok = True
    for name, text in expected.items():
        d = knot_corpus()[name]
        ok = ok and str(alexander_polynomial(d, uniform_weights(d))) == text
    report(ok, "criterion 5 (trefoil, figure-eight, kinked-unknot Alexander "
               "values)")


def test_criterion_6_quandle_counts():
    tre = catalog.trefoil()
    ok = count_colorings(tre, affine_quandle(3, -1)) == 9
    ok = ok and count_colorings(tre, affine_quandle(5, -1)) == 5
    rng = random.Random(55)
    for name, d in corpus().items():
        segs = sorted(d.segment_ids())
        for q in (affine_quandle(3, -1), affine_quandle(5, -1)):
            base = count_colorings(d, q)
            for seg in segs:
                ok = ok and count_colorings(
                    apply_r1(d, seg, rng.choice((1, -1))), q) == base
            if len(segs) >= 2:
                s1, s2 = rng.sample(segs, 2)
                d2 = apply_r2(d, s1, s2, rng.choice(R2_VARIANTS))
                ok = ok and count_colorings(d2, q) == base
    report(ok, "criterion 6 (dihedral coloring counts and move invariance)")


def test_criterion_7_theta_constituents():
    th = catalog.theta_trivial()
    members = enumerate_constituents(th)
    nonempty = [m for m in members if not m.is_empty]
    ok = len(members) == 9 and len(nonempty) == 3
    ok = ok and constituent_fingerprint(th, "yamada") == [str(sigma())] * 3
    ok = ok and conway_gordon_sum(th) == 0
    report(ok, "criterion 7 (trivial theta: 9 choices, 3 unknots, "
               "Conway-Gordon 0)")


def test_criterion_8_divisibility():
    ok = True
    for name, d in corpus().items():
        if name == "theta_trivial":
            w = {"e1": 1, "e2": 1, "e3": -2}
        else:
            w = uniform_weights(d)
        value = abs(subs_int(alexander_polynomial(d, w), -1))
        det = graph_determinant(d, w)
        ok = ok and (det % value == 0 if value else det == 0)
    report(ok, "criterion 8 (|Alexander(-1)| divides the determinant)")


def test_criterion_9_mirror_property():
    ok = True
    for name, d in corpus().items():
        flipped = LaurentPoly({-e: c for e, c in yamada_raw(d).terms()}, "A")
        ok = ok and yamada_raw(mirror(d)) == flipped
    report(ok, "criterion 9 (mirror swaps A and A^-1 in yamada_raw)")


def test_criterion_10_tabulated_fixtures():
    got53 = str(yamada_normalized(catalog.theta_5_3()).normalized)
    got54 = str(yamada_normalized(catalog.theta_5_4()).normalized)
    ok = got53 == ("-1 - A - A^2 - A^3 - A^4 - A^10 - A^12 - A^14 "
                   "+ A^16 + A^18")
    ok = ok and got54 == ("-1 - A - A^2 - A^3 - 2A^4 - A^5 - A^6 - A^7 "
                          "+ A^9 + A^11 + A^13 + A^16 - A^17")
    # 5_4 constituents: (2,5) torus knot, trefoil, unknot
    ok = ok and constituent_fingerprint(catalog.theta_5_4(),
                                        "determinant") == [1, 3, 5]
    ok = ok and conway_gordon_sum(catalog.complete_graph_moment_curve(7)) == 1
    report(ok, "criterion 10 (theta-curve 5_3/5_4 tabulated polynomials, "
               "5_4 constituents, K7 Conway-Gordon sum)")
