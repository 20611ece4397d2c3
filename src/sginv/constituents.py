"""Constituent links T(G) of a spatial graph diagram.

At each vertex choose two incidence slots to connect and delete the rest;
every choice leaves a (possibly empty) link.  The multiset of these links
over all choices is an isotopy invariant, and familiar knot invariants
applied memberwise give comparable fingerprints.  A choice's link depends
only on its cycle family, the edges on the cycles its chosen slots close
(every choice also keeps the vertex-free components), so
`constituent_families` extracts and fingerprints each family once: K5's
7,776 choices close 38 families.  `enumerate_constituents` extracts every
choice and is the per-choice reference.  `conway_gordon_sum` adds the Arf
invariants of the Hamiltonian-cycle members mod 2, each from the
determinant of the cycle's Fox matrix, read off the diagram's Wirtinger
relation table without extracting the knot; `hamiltonian_constituents`
extracts the same members and is its reference.
"""

from collections import namedtuple
from itertools import combinations, product
from math import prod

from . import alexander, yamada
from .diagram import (Diagram, DiagramError, UnionFind, derive_edges, rejoin,
                      require_valid, wirtinger_relations)
from .laurent import integer_minors_gcd

# Refusal bound for vertex_choices: the number of vertex choices, each one
# entry of a constituent listing.
MAX_CHOICES = 10 ** 5


class ConstituentLink(namedtuple("ConstituentLink",
                                 "diagram choice components "
                                 "component_vertices")):
    """A vertex-free link diagram (maybe empty), the choice that gave it,
    ((vertex id, (slot, slot)), ...) sorted by vertex, its number of
    components and, per component, the frozenset of vertices it absorbed."""
    __slots__ = ()

    @property
    def is_empty(self):
        return self.components == 0


def _choice_space(d: Diagram):
    """Per vertex, in id order, its options (vertex id, (slot, slot))."""
    space = []
    for v in sorted(d.vertices, key=lambda v: v.id):
        degree = len(v.incident)
        if degree < 2:
            raise DiagramError(f"vertex v{v.id} has degree {degree} < 2")
        space.append([(v.id, pair) for pair in combinations(range(degree), 2)])
    return space


def _edge_ends(d: Diagram):
    """(edges, ends, closed): the edge partition; per edge touching a
    vertex, its two (vertex id, slot) ends; and the number of closed
    components without vertices, the vertex-free edge classes plus the free
    loops."""
    part = derive_edges(d)
    ends = {}
    for v in sorted(d.vertices, key=lambda v: v.id):
        for slot, (seg, _) in enumerate(v.incident):
            ends.setdefault(part.class_of[seg], []).append((v.id, slot))
    return part, ends, sum(part.is_closed) + d.free_loops


def _extract(d: Diagram, choice) -> ConstituentLink:
    """Apply a vertex choice: join the chosen pair through each vertex,
    delete open strands, splice surviving strands through lost crossings."""
    link, comps = rejoin(d, choice)
    assert not link.vertices, "a vertex survived extraction"
    return ConstituentLink(link, tuple(choice), len(comps), comps)


def vertex_choices(d: Diagram):
    """The vertex choices ((vertex id, (slot, slot)), ...), sorted by vertex,
    in product order.  Their count is the product over vertices of
    C(deg, 2); above MAX_CHOICES the diagram is refused (DiagramError)
    before the first choice."""
    require_valid(d)
    space = _choice_space(d)
    choices = prod(map(len, space))
    if choices > MAX_CHOICES:
        raise DiagramError(f"diagram has {choices} constituent choices, above "
                           f"the limit of {MAX_CHOICES}")
    return product(*space)


def enumerate_constituents(d: Diagram):
    """One ConstituentLink per vertex choice (multiset semantics: empty links
    are retained), each choice extracted on its own: the per-choice
    reference for `constituent_families`."""
    return [_extract(d, choice) for choice in vertex_choices(d)]


def _cycle_family(choice, mate):
    """The edges on the closed cycles of a vertex choice.

    `mate` maps each vertex slot to (its edge, the slot at the edge's other
    end).  A walk leaves a chosen slot along its edge and goes on through
    the other chosen slot at the far vertex: it comes back to its start
    around a cycle, or reaches an unchosen slot on an open path, which
    extraction deletes."""
    pair_of = dict(choice)
    family, seen = set(), set()
    for vid, (i, _) in choice:
        if vid in seen:
            continue
        start = at = (vid, i)
        edges = []
        while True:
            edge, (w, slot) = mate[at]
            j, k = pair_of[w]
            if slot == j:
                at = (w, k)
            elif slot == k:
                at = (w, j)
            else:
                break
            seen.add(w)
            edges.append(edge)
            if at == start:
                family.update(edges)
                break
    return frozenset(family)


_INVARIANTS = ("yamada", "alexander", "determinant")


def _fingerprint_value(link: Diagram, inv: str):
    if inv == "yamada":
        return str(yamada.yamada_raw(link))
    if inv == "alexander":
        return str(alexander.alexander_polynomial(link, None))
    if inv == "determinant":
        return alexander.graph_determinant(link, None)
    raise ValueError(f"invariant must be one of {_INVARIANTS}")


def constituent_families(d: Diagram, inv: str):
    """Per vertex choice of `vertex_choices`, in its order, the pair
    (choice, (components, value)): the number of closed components of the
    choice's link and the link's `inv` fingerprint, weight 1 everywhere for
    the Alexander-based invariants.

    The first choice of each cycle family is extracted and fingerprinted;
    every later choice of the family shares its pair."""
    choices = vertex_choices(d)
    mate = {}
    for edge, (a, b) in _edge_ends(d)[1].items():
        mate[a], mate[b] = (edge, b), (edge, a)
    memo = {}
    for choice in choices:
        key = _cycle_family(choice, mate)
        family = memo.get(key)
        if family is None:
            link = _extract(d, choice)
            family = memo[key] = (link.components,
                                  _fingerprint_value(link.diagram, inv))
        yield choice, family


def constituent_fingerprint(d: Diagram, inv: str):
    """Sorted multiset of the invariant values of the nonempty members of
    T(G); weight 1 everywhere for the Alexander-based invariants."""
    return sorted(value for _, (components, value)
                  in constituent_families(d, inv) if components)


def _hamiltonian_cycles(ends):
    """The Hamiltonian cycles of the underlying multigraph, each once as the
    frozenset of its edges, in order of their sorted edge lists.  `ends`
    maps each edge to its two (vertex id, slot) ends.  The search runs on an
    explicit stack."""
    vids = sorted({vid for pair in ends.values() for vid, _ in pair})
    incident = {vid: [] for vid in vids}
    for ei, ((u, _), (w, _)) in ends.items():
        incident[u].append(ei)
        if w != u:
            incident[w].append(ei)
    cycles = set()
    start = vids[0]
    stack = [(start, frozenset([start]), frozenset())]
    while stack:
        vertex, visited, used = stack.pop()
        for ei in incident[vertex]:
            (u, _), (v, _) = ends[ei]
            if u == v:    # a loop is a cycle only through a lone vertex
                if len(vids) == 1:
                    cycles.add(frozenset([ei]))
                continue
            if ei in used:
                continue
            nxt = v if u == vertex else u
            if nxt == start and len(visited) == len(vids):
                cycles.add(used | {ei})
            elif nxt not in visited:
                stack.append((nxt, visited | {nxt}, used | {ei}))
    return sorted(cycles, key=sorted)


def hamiltonian_constituents(d: Diagram):
    """Members of T(G) that are single closed components through every
    vertex, i.e. the Hamiltonian cycles of the underlying graph.

    Each Hamiltonian cycle corresponds to exactly one vertex choice (the
    cycle's own incidences), so cycles are enumerated directly on the
    underlying multigraph rather than by filtering the full choice product.
    When the diagram has vertices, a closed component that touches none
    makes every member a split link, so then there are none.
    """
    require_valid(d)
    _, ends, closed = _edge_ends(d)
    if not d.vertices:
        return [_extract(d, ())] if closed == 1 else []
    if closed:
        return []
    vids = sorted(v.id for v in d.vertices)
    out = []
    for cycle in _hamiltonian_cycles(ends):
        slots = {}
        for ei in cycle:
            for vid, slot in ends[ei]:
                slots.setdefault(vid, []).append(slot)
        assert all(len(slots[vid]) == 2 for vid in vids), \
            "cycle does not use two slots at a vertex"
        link = _extract(d, tuple((vid, tuple(sorted(slots[vid])))
                                 for vid in vids))
        assert link.components == 1
        assert link.component_vertices[0] == frozenset(vids)
        out.append(link)
    return out


def arf_from_determinant(det: int) -> int:
    """Arf invariant via the classical congruence: 0 iff det = +-1 mod 8."""
    return 0 if det % 8 in (1, 7) else 1


def _cycle_determinant(relations, edge_of, on):
    """The determinant of the knot on the edges `on`, from its Fox matrix
    on the rows of `wirtinger_relations`, `edge_of[x]` being the edge of
    arc x.  A crossing row (a, b, c, s) whose under arc a and over arc b
    are on the knot is kept as -a + 2b - c; with b off, a and c merge (the
    crossing is spliced).  The knot's two arcs at each vertex merge.  A
    kept row is symmetric in a and c, so orientation does not matter."""
    _, crossing_rows, vertex_rows = relations
    uf = UnionFind([x for x, e in enumerate(edge_of) if e in on])
    kept = []
    for a, b, c, _ in crossing_rows:
        if edge_of[a] in on:
            if edge_of[b] in on:
                kept.append((a, b, c))
            else:
                uf.union(a, c)
    for row in vertex_rows:
        x, y = [x for x, _ in row if edge_of[x] in on]
        uf.union(x, y)
    col = {}
    triples = [[col.setdefault(uf.find(x), len(col)) for x in t] for t in kept]
    fox = [[2 * (x == b) - (x == a) - (x == c) for x in range(len(col))]
           for a, b, c in triples]
    return integer_minors_gcd(fox, max(len(fox) - 1, 0))


def conway_gordon_sum(d: Diagram) -> int:
    """Sum of Arf invariants over Hamiltonian-cycle constituents, mod 2,
    each from the determinant of the cycle's Fox matrix."""
    require_valid(d)
    part, ends, closed = _edge_ends(d)
    if d.vertices:
        cycles = [] if closed else _hamiltonian_cycles(ends)
    else:
        cycles = [frozenset(range(len(part.classes)))] if closed == 1 else []
    if not cycles:
        if closed:
            raise DiagramError(f"diagram has closed components without "
                               f"vertices ({closed}), so no constituent is "
                               f"a single Hamiltonian cycle")
        raise DiagramError("underlying graph has no Hamiltonian cycle")
    relations = wirtinger_relations(d)
    edge_of = [part.class_of[cls[0]] for cls in relations[0].classes]
    return sum(arf_from_determinant(_cycle_determinant(relations, edge_of, on))
               for on in cycles) % 2
