"""The Yamada polynomial of a spatial graph diagram.

The skein relation R(D) = A R(D_A) + A^-1 R(D_B) + R(D_V) resolves every
crossing into an A- or B-smoothing or a rigid vertex, and a crossing-free
graph G is worth the subset expansion

    R(G) = sum over kept edge sets F of (-1)^mu(F) y^beta(F),

y = -A - 2 - A^-1, with mu(F) the number of components of (V, F) and
beta(F) its cycle rank; each free loop is a factor sigma = A + 1 + A^-1.
Subdividing an edge does not change R(G), so every segment of the diagram
is an edge on its own, and an A/B-smoothed crossing is two nodes of degree
2.  A kept segment joining two ends already in one cluster is worth y,
and its deleted copy 1, so the two together are worth 1 + y = -sigma.
Every weight is then local: A^(+1/-1/0) per A/B/V crossing, -sigma per
segment that closes a cycle, and -1 per cluster once no open segment
still touches it.

`yamada_raw` sums this as a transfer matrix over the *tiles*, the rigid
vertices and the crossings, in a greedy minimum-frontier order.  A state
is the connectivity partition of the frontier: one cluster label per open
segment end (segments with exactly one end processed), labels numbered by
first occurrence.  A segment's keep/delete choice is made when its second
end is reached, in the pass that opens the tile, one state at a time; so
the state dict holds only settled frontier partitions, which is what
Bell(widest) bounds.  Each state's polynomial in A is one packed int (a
Kronecker substitution, D. Harvey 2009): the coefficient of A^a is digit
a + c + r in base 2^bits, with c the number of crossings, r the cycle
rank of the tile graph and bits wide enough for any coefficient.  So A is
a shift, -sigma three shifted adds, and the sum is unpacked once, at the
end.  Every state starts at A^r: no path closes more than r cycles, so
each right shift of a -sigma step drops only zero digits.  The cost is
linear in the tiles for a bounded frontier; a diagram whose cost,
estimated from the tile order, is above MAX_COST is refused.

`eval_crossing_free` evaluates an abstract multigraph by the
delete/contract axioms; the test suite uses it as an oracle.  The raw
polynomial is a regular rigid-vertex isotopy invariant; (-A)^-m R with m
the least exponent is invariant under kinks as well.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from . import graphs
from .diagram import SMOOTHINGS, Diagram, DiagramError, require_valid
from .laurent import LaurentPoly, from_packed

VAR = "A"

# how many starts the tile order tries, at most
_STARTS = 8
# the largest estimated cost `yamada_raw` takes on, timed in ROADMAP fact (f)
MAX_COST = 3 * 10 ** 10


def sigma() -> LaurentPoly:
    """A + 1 + A^-1, the value of a single circle."""
    return LaurentPoly({-1: 1, 0: 1, 1: 1}, VAR)


def eval_crossing_free(g: graphs.AbstractGraph, memo=None) -> LaurentPoly:
    """Evaluate an abstract multigraph by the delete/contract axioms.

    Connected components multiply; a component with a nonloop edge e splits
    as eval(G - e) + eval(G / e); what remains is a bouquet B_k worth
    -(-sigma)^k.  Free loops are B_1 factors (sigma each).  Component values
    are memoized on the labelled component itself.
    """
    if memo is None:
        memo = {}
    s = sigma()
    comps, loops = graphs.connected_components(g)
    out = s ** loops if loops else LaurentPoly.constant(1, VAR)
    for comp in comps:
        val = memo.get(comp)
        if val is None:
            nonloop = next((e for e in comp.edges if e[0] != e[1]), None)
            if nonloop is None:
                # a connected loops-only graph is one vertex with k loops: B_k
                val = -((-s) ** len(comp.edges))
            else:
                val = (eval_crossing_free(graphs.delete_edge(comp, nonloop), memo)
                       + eval_crossing_free(graphs.contract_edge(comp, nonloop),
                                            memo))
            memo[comp] = val
        out = out * val
    return out


def _canon(labels):
    """Relabel by first occurrence."""
    seen = {}
    return tuple([seen.setdefault(x, len(seen)) for x in labels])


_TILE_SLOTS = ("over_in", "over_out", "under_in", "under_out")


def _tiles(d: Diagram):
    """Per vertex, then per crossing: its segment ends in slot order (2s for
    the tail of segment s, 2s + 1 for its head), `_TILE_SLOTS` at a crossing,
    and its options, each an A-exponent shifted by +1 per crossing and the
    node index of every slot."""
    tiles = [(tuple(2 * s + (direction == "in") for s, direction in v.incident),
              ((0, (0,) * len(v.incident)),))
             for v in d.vertices]
    for c in d.crossings:
        ends = tuple(2 * getattr(c, name) + name.endswith("_in")
                     for name in _TILE_SLOTS)
        ccw = c.ccw_slots()
        options = [(1, (0, 0, 0, 0))]
        for shift, mode in ((2, "A"), (0, "B")):
            node = {ccw[at]: i for i, pair in enumerate(SMOOTHINGS[mode])
                    for at in pair}
            options.append((shift, _canon(node[name] for name in _TILE_SLOTS)))
        tiles.append((ends, tuple(options)))
    return tiles


def _walk(start, degree, neighbors):
    """A greedy minimum-frontier order of the tiles from `start`, and its
    (widest frontier, summed frontier, components).  `degree[t]` counts the
    ends of t whose segment leaves t; each processed neighbor lowers the
    frontier change of taking t by 2 per shared segment.  Candidates wait in
    one stack per frontier change, the latest first; stale entries are
    skipped."""
    n = len(degree)
    gain = list(degree)
    done = [False] * n
    buckets = {gain[start]: [start]}
    order = []
    width = widest = total = fresh = 0
    parts = 1
    while len(order) < n:
        t = None
        while buckets and t is None:
            g = min(buckets)
            stack = buckets[g]
            u = stack.pop()
            if not stack:
                del buckets[g]
            if not done[u] and gain[u] == g:
                t = u
        if t is None:   # a new component: the first tile not taken yet
            while done[fresh]:
                fresh += 1
            t = fresh
            parts += 1
        done[t] = True
        order.append(t)
        width += gain[t]
        widest = max(widest, width)
        total += width
        for u in neighbors[t]:
            if not done[u]:
                gain[u] -= 2
        for u in dict.fromkeys(neighbors[t]):
            if not done[u]:
                buckets.setdefault(gain[u], []).append(u)
    return (widest, total, parts), order


def _tile_order(tiles):
    """The best greedy walk over a bounded, evenly spaced set of starts."""
    tile_of = {e: t for t, (ends, _) in enumerate(tiles) for e in ends}
    neighbors = [[tile_of[e ^ 1] for e in ends if tile_of[e ^ 1] != t]
                 for t, (ends, _) in enumerate(tiles)]
    degree = [len(nb) for nb in neighbors]
    n = len(tiles)
    starts = sorted({i * n // _STARTS for i in range(_STARTS)}) if n else []
    return min((_walk(s, degree, neighbors) for s in starts),
               default=((0, 0, 0), []))


def _close(labels, v, closes, bits, out):
    """Decide each segment (i, j) of `closes`, i < j its ends' entries in
    `labels`: if both ends are in one cluster, keep and delete it at once (a
    factor -sigma), else keep it (join the two) or delete it; drop both
    entries, a factor -1 per cluster this finishes; add each result,
    canonicalized, to `out`.  For the last tie of one of two clusters,
    deleting it finishes one and the choices cancel."""
    work = [(labels, v)]
    for i, j in closes:
        done, work = work, []
        for labels, v in done:
            a, b = labels[i], labels[j]
            rest = labels[:i] + labels[i + 1:j] + labels[j + 1:]
            if a == b:
                v = (v >> bits) + v + (v << bits)
                work.append((rest, -v if a in rest else v))
            elif a in rest and b in rest:
                work.append((rest, v))
                work.append((tuple([a if x == b else x for x in rest]), v))
    for labels, v in work:
        key = _canon(labels)
        out[key] = out.get(key, 0) + v


def _sigma_power(k):
    """sigma^k = A^-k f, f = (1 + A + A^2)^k, as an exponent -> coefficient
    dict.  (1 + A + A^2) f' = k (1 + 2A) f gives f's coefficients a_j by
    j a_j = (k - j + 1) a_(j-1) + (2k - j + 2) a_(j-2)."""
    row = [0, 1]
    for j in range(1, 2 * k + 1):
        row.append(((k - j + 1) * row[-1] + (2 * k - j + 2) * row[-2]) // j)
    return {j - k: a for j, a in enumerate(row[1:])}


def yamada_raw(d: Diagram) -> LaurentPoly:
    """R(G) by the frontier transfer matrix over the diagram's tiles."""
    require_valid(d)
    c = len(d.crossings)
    tiles = _tiles(d)
    segments = len(d.segment_ids())
    (widest, _, parts), order = _tile_order(tiles)
    # the tile graph's cycle rank: no path closes more cycles
    rank = segments - len(tiles) + parts
    # a coefficient sums at most 3^c crossing options times 3 terms of -sigma
    # per closed cycle (at most rank) and 2 choices per other segment
    bits = (3 ** (c + rank) << (segments - rank)).bit_length() + 1
    # Cost: tiles * Bell(widest) (a bound on the settled frontier partitions,
    # the only states the dict holds) * bits per polynomial (2c + 2 rank + 1
    # digits).  Row k of the Bell triangle starts at Bell(k); grow it only
    # under the limit.
    unit = len(tiles) * bits * (2 * c + 2 * rank + 1)
    row = [1]
    while len(row) <= widest and unit * row[0] <= MAX_COST:
        row = list(accumulate(row, initial=row[-1]))
    if unit * row[0] > MAX_COST:
        bound = "" if len(row) > widest else "at least "
        raise DiagramError(f"estimated Yamada cost {bound}{unit * row[0]:.2g} "
                           f"(widest frontier {widest}) is above the limit of "
                           f"{MAX_COST:.0e}")
    states = {(): 1 << bits * rank}
    frontier = []
    for t in order:
        ends, options = tiles[t]
        frontier += ends
        closes = []
        for e in ends:
            if e in frontier and e ^ 1 in frontier:
                i, j = sorted((frontier.index(e), frontier.index(e ^ 1)))
                closes.append((i, j))
                del frontier[j], frontier[i]
        settled = {}
        for labels, v in states.items():
            m = len(set(labels))
            for shift, nodes in options:
                _close(labels + tuple([m + k for k in nodes]),
                       v << bits * shift, closes, bits, settled)
        states = settled
    return (from_packed(states.get((), 0), bits, -c - rank, VAR)
            * LaurentPoly(_sigma_power(d.free_loops), VAR))


class YamadaResult(NamedTuple):
    raw: LaurentPoly
    normalized: LaurentPoly
    min_power: int | None  # None when raw = 0


def yamada_normalized(d: Diagram) -> YamadaResult:
    """R normalized by (-A)^-m, m the least exponent of the raw polynomial."""
    raw = yamada_raw(d)
    if raw.is_zero():
        return YamadaResult(raw, raw, None)
    m = raw.min_degree
    unit = LaurentPoly.monomial(-1 if m % 2 else 1, -m, VAR)
    return YamadaResult(raw, unit * raw, m)
