"""Expected values computed without calling the program under test.

Everything here works on plain data (dicts of exponent -> coefficient, the
JSON diagram documents the benchmark writes) so that a wrong answer from
``sginv`` cannot leak into the value it is checked against.

- Laurent polynomials are dicts ``{exponent: coefficient}`` with no zero
  coefficients.
- ``burau_alexander`` gives the Alexander polynomial of a braid closure from
  the reduced Burau representation:
  det(I - rho(beta)) = Delta(t) * (1 + t + ... + t^(n-1)) up to units.
- ``dihedral_count`` gives the number of dihedral-p colorings of a
  vertex-free diagram as p^(nullity of the Fox coloring matrix mod p).
- ``PINNED`` holds the values the test suite pins for catalog diagrams; the
  recorded reference outputs are checked against them before any run.
"""

from __future__ import annotations

import json

# -- Laurent polynomials as dicts ---------------------------------------------


def lp(pairs):
    """Dict form of [[exponent, coefficient], ...], dropping zeros."""
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def lp_pairs(p):
    """The program's JSON form: [[exponent, coefficient], ...] ascending."""
    return [[e, p[e]] for e in sorted(p)]


def lp_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def lp_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def lp_shift(p, k, sign=1):
    """sign * x^k * p."""
    return {e + k: sign * c for e, c in p.items()}


def normalize_units(p):
    """Multiply by the unit +-x^k that makes the lowest term a positive
    constant; zero stays zero."""
    if not p:
        return p
    m = min(p)
    return lp_shift(p, -m, 1 if p[m] > 0 else -1)


def yamada_normalized(raw):
    """(-A)^-m R with m the least exponent of R; zero stays zero."""
    if not raw:
        return raw
    m = min(raw)
    return lp_shift(raw, -m, -1 if m % 2 else 1)


def eval_at_minus_one(p):
    return sum(c if e % 2 == 0 else -c for e, c in p.items())


def lp_text(p, var):
    """The program's plain-text rendering, e.g. ``1 - t + t^2``."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p):
        c = p[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _det(m):
    """Determinant of a small square matrix of Laurent dicts by cofactor
    expansion (braids here have at most 5 strands, so at most 4x4)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = {}
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = lp_mul(m[0][j], _det(minor))
        total = lp_add(total, term if j % 2 == 0 else lp_shift(term, 0, -1))
    return total


def _divide_exact(p, d):
    """p / d in Z[t] for p, d with least exponent 0 and d monic."""
    p = dict(p)
    q = {}
    dd = max(d)
    while p:
        top = max(p)
        if top < dd:
            raise ArithmeticError("inexact division")
        c = p[top]
        q[top - dd] = c
        p = lp_add(p, lp_shift(d, top - dd, -c))
    return q


# -- braid closures -----------------------------------------------------------


def _burau_generator(n, g):
    """Reduced Burau matrix ((n-1) x (n-1), Laurent dict entries) of the
    generator g in +-1..+-(n-1)."""
    size = n - 1
    one, zero = {0: 1}, {}
    m = [[one if i == j else zero for j in range(size)] for i in range(size)]
    i = abs(g) - 1      # 0-based block position
    inv = g < 0
    t = {-1: 1} if inv else {1: 1}
    mt = {-1: -1} if inv else {1: -1}
    if n == 2:
        m[0][0] = mt
        return m
    if i == 0:
        # sigma_1: [[-t, 0], [1, 1]];  inverse [[-1/t, 0], [1/t, 1]]
        m[0][0] = mt
        m[1][0] = t if inv else one
    elif i == n - 2:
        # sigma_(n-1): [[1, t], [0, -t]];  inverse [[1, 1], [0, -1/t]]
        m[i - 1][i] = one if inv else t
        m[i][i] = mt
    else:
        # [[1, t, 0], [0, -t, 0], [0, 1, 1]];  inverse
        # [[1, 1, 0], [0, -1/t, 0], [0, 1/t, 1]]
        m[i - 1][i] = one if inv else t
        m[i][i] = mt
        m[i + 1][i] = t if inv else one
    return m


def _matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = lp_add(acc, lp_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def burau_alexander(strands, word):
    """Normalized Alexander polynomial of the closure of a braid whose
    closure is a knot (its permutation is one strands-cycle)."""
    size = strands - 1
    m = [[{0: 1} if i == j else {} for j in range(size)] for i in range(size)]
    for g in word:
        m = _matmul(m, _burau_generator(strands, g))
    i_minus = [[lp_add({0: 1} if i == j else {}, lp_shift(m[i][j], 0, -1))
                for j in range(size)] for i in range(size)]
    det = normalize_units(_det(i_minus))
    return normalize_units(_divide_exact(det, {k: 1 for k in range(strands)}))


def braid_permutation(strands, word):
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def is_knot_word(strands, word):
    """True when the closure has one component and every strand crosses."""
    if {abs(g) for g in word} != set(range(1, strands)):
        return False
    perm = braid_permutation(strands, word)
    x, length = perm[0], 1
    while x != 0:
        x, length = perm[x], length + 1
    return length == strands


# -- diagram documents --------------------------------------------------------


def _seg(raw):
    return int(raw[1:]) if isinstance(raw, str) else int(raw)


def arc_classes(doc):
    """Wirtinger arcs of a diagram document: segments merged across
    over-strand continuations.  Returns {segment: arc index}."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    segs = set()
    for v in doc.get("vertices", []):
        segs.update(_seg(s) for s, _ in v["incident"])
    for c in doc.get("crossings", []):
        segs.update(_seg(c[k]) for k in ("over_in", "over_out",
                                         "under_in", "under_out"))
    for s in segs:
        parent[s] = s
    for c in doc.get("crossings", []):
        a, b = find(_seg(c["over_in"])), find(_seg(c["over_out"]))
        if a != b:
            parent[a] = b
    roots = sorted({find(s) for s in segs})
    index = {r: i for i, r in enumerate(roots)}
    return {s: index[find(s)] for s in segs}


def _rank_mod_p(rows, ncols, p):
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dihedral_count(doc, p):
    """Dihedral-p colorings of a vertex-free diagram document: p to the
    nullity of the Fox matrix (one row 2b - a - c per crossing) mod p."""
    if doc.get("vertices"):
        raise ValueError("dihedral_count needs a vertex-free diagram")
    arc = arc_classes(doc)
    n = len(set(arc.values()))
    rows = []
    for c in doc.get("crossings", []):
        row = [0] * n
        row[arc[_seg(c["over_in"])]] += 2
        row[arc[_seg(c["under_in"])]] -= 1
        row[arc[_seg(c["under_out"])]] -= 1
        rows.append(row)
    return p ** (n - _rank_mod_p(rows, n, p))


def check_presentation(doc, stdout):
    """Structural check of ``group --json`` output: one generator per arc,
    one relator per crossing and vertex, crossing relators of exponent sum
    zero using at most four letters."""
    out = json.loads(stdout)
    arcs = len(set(arc_classes(doc).values()))
    ncross = len(doc.get("crossings", []))
    if out["generators"] != [f"a{i + 1}" for i in range(arcs)]:
        return False
    rels = out["relators"]
    if len(rels) != ncross + len(doc.get("vertices", [])):
        return False
    return all(len(r) <= 4 and sum(e for _, e in r) == 0
               for r in rels[:ncross])


# -- values the test suite pins -----------------------------------------------

PINNED = {
    # tests/test_acceptance.py criterion 5 (uniform weights)
    ("alexander", "trefoil"): "1 - t + t^2",
    ("alexander", "figure_eight"): "1 - 3t + t^2",
    ("alexander", "kink_pos"): "1",
    # criterion 6
    ("dihedral3", "trefoil"): 9,
    ("dihedral5", "trefoil"): 5,
    # criterion 10
    ("yamada_normalized", "theta_5_3"):
        "-1 - A - A^2 - A^3 - A^4 - A^10 - A^12 - A^14 + A^16 + A^18",
    ("yamada_normalized", "theta_5_4"):
        "-1 - A - A^2 - A^3 - 2A^4 - A^5 - A^6 - A^7 + A^9 + A^11 + A^13 "
        "+ A^16 - A^17",
    ("constituent_determinants", "theta_5_4"): [1, 3, 5],
    ("conway_gordon", "k7"): 1,
    # tests/test_cli.py
    ("yamada_text", "theta_trivial"): "-A^-2 - A^-1 - 2 - A - A^2",
}
