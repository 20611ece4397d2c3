"""Constituent links T(G) of a spatial graph diagram.

At each vertex choose two incidence slots to connect and delete the rest;
every choice leaves a (possibly empty) link.  The multiset of these links
over all choices is an isotopy invariant, and familiar knot invariants
applied memberwise give comparable fingerprints.  Hamiltonian-cycle members
feed the Conway-Gordon mod-2 Arf sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .alexander import alexander_polynomial, graph_determinant, uniform_weights
from .diagram import Diagram, DiagramError, derive_edges, rejoin, require_valid
from .yamada import yamada_raw


@dataclass(frozen=True)
class ConstituentLink:
    diagram: Diagram          # vertex-free link diagram (may be empty)
    choice: tuple             # ((vertex id, (slot, slot)), ...) sorted by vertex
    components: int
    component_vertices: tuple  # per component, frozenset of absorbed vertices

    @property
    def is_empty(self):
        return self.components == 0


def _choice_space(d: Diagram):
    vids = sorted(v.id for v in d.vertices)
    slot_pairs = []
    degree = {v.id: len(v.incident) for v in d.vertices}
    for vid in vids:
        if degree[vid] < 2:
            raise DiagramError(f"vertex v{vid} has degree {degree[vid]} < 2")
        slot_pairs.append(list(combinations(range(degree[vid]), 2)))
    return vids, slot_pairs


def _extract(d: Diagram, choice) -> ConstituentLink:
    """Apply a vertex choice: join the chosen pair through each vertex,
    delete open strands, splice surviving strands through lost crossings."""
    link, comps = rejoin(d, [(("v", vid, i), ("v", vid, j))
                             for vid, (i, j) in choice])
    assert not link.vertices, "a vertex survived extraction"
    return ConstituentLink(link, tuple(choice), len(comps), comps)


def enumerate_constituents(d: Diagram):
    """One ConstituentLink per vertex choice (multiset semantics: empty links
    are retained).  The count is the product over vertices of C(deg, 2)."""
    require_valid(d)
    vids, slot_pairs = _choice_space(d)
    out = []
    for combo in product(*slot_pairs):
        choice = tuple(zip(vids, combo))
        out.append(_extract(d, choice))
    return out


_INVARIANTS = ("yamada", "alexander", "determinant")


def _fingerprint_value(link: Diagram, inv: str):
    if inv == "yamada":
        return str(yamada_raw(link))
    if inv == "alexander":
        return str(alexander_polynomial(link, uniform_weights(link)))
    if inv == "determinant":
        return graph_determinant(link, uniform_weights(link))
    raise ValueError(f"invariant must be one of {_INVARIANTS}")


def constituent_fingerprint(d: Diagram, inv: str):
    """Sorted multiset of the invariant values of the nonempty members of
    T(G); weight 1 everywhere for the Alexander-based invariants."""
    values = [_fingerprint_value(link.diagram, inv)
              for link in enumerate_constituents(d) if not link.is_empty]
    return sorted(values)


def hamiltonian_constituents(d: Diagram):
    """Members of T(G) that are single closed components through every
    vertex, i.e. the Hamiltonian cycles of the underlying graph.

    Each Hamiltonian cycle corresponds to exactly one vertex choice (the
    cycle's own incidences), so cycles are enumerated directly on the
    underlying multigraph rather than by filtering the full choice product.
    """
    require_valid(d)
    if not d.vertices:
        link = _extract(d, ())
        return [link] if link.components == 1 else []

    part = derive_edges(d)
    slot_of = {}    # (edge index, vertex id) -> list of slot indices
    endpoints = {}  # edge index -> its two end vertex ids
    vids = sorted(v.id for v in d.vertices)
    vslots = {v.id: v.incident for v in d.vertices}
    for vid in vids:
        for slot, (seg, _) in enumerate(vslots[vid]):
            ei = part.index_of(seg)
            endpoints.setdefault(ei, []).append(vid)
            slot_of.setdefault((ei, vid), []).append(slot)

    incident = {vid: [] for vid in vids}
    for ei, ends in endpoints.items():
        for vid in set(ends):
            incident[vid].append(ei)

    cycles = set()
    n = len(vids)
    start = vids[0]
    if n == 1:
        for ei, ends in endpoints.items():
            if len(ends) == 2 and ends[0] == ends[1]:
                cycles.add(frozenset([ei]))
    else:
        stack = [(start, frozenset([start]), frozenset())]
        while stack:
            vertex, visited, used = stack.pop()
            for ei in incident[vertex]:
                if ei in used:
                    continue
                u, v = endpoints[ei]
                if u == v:
                    continue
                nxt = v if u == vertex else u
                if nxt == start and len(visited) == n:
                    cycles.add(used | {ei})
                elif nxt not in visited:
                    stack.append((nxt, visited | {nxt}, used | {ei}))

    out = []
    for cycle in sorted(cycles, key=sorted):
        choice = []
        for vid in vids:
            slots = []
            for ei in cycle:
                slots.extend(slot_of.get((ei, vid), []))
            assert len(slots) == 2, "cycle does not use two slots at a vertex"
            choice.append((vid, tuple(sorted(slots))))
        link = _extract(d, tuple(choice))
        assert link.components == 1
        assert link.component_vertices[0] == frozenset(vids)
        out.append(link)
    return out


def arf_from_determinant(det: int) -> int:
    """Arf invariant via the classical congruence: 0 iff det = +-1 mod 8."""
    return 0 if det % 8 in (1, 7) else 1


def conway_gordon_sum(d: Diagram) -> int:
    """Sum of Arf invariants over Hamiltonian-cycle constituents, mod 2."""
    hams = hamiltonian_constituents(d)
    if not hams:
        raise DiagramError("underlying graph has no Hamiltonian cycle")
    total = 0
    for link in hams:
        det = graph_determinant(link.diagram, uniform_weights(link.diagram))
        total += arf_from_determinant(det)
    return total % 2
