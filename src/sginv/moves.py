"""Reidemeister move generators and diagram surgery helpers.

Moves I and II are programmatic (the property suites exercise them on random
segments).  There is no generator for moves III-V, and no test exercises
them yet.
"""

from __future__ import annotations

from .diagram import (Crossing, Diagram, DiagramError, VertexNode, Wiring,
                      derive_edges, require_valid, seg_to_edge_id)


def apply_r1(d: Diagram, segment: int, chirality: int) -> Diagram:
    """Insert a kink of the given chirality (+1 or -1) on a segment.

    The segment X -> Y becomes X -> over_in, over_out -> under_in (the loop),
    under_out -> Y through one new crossing of sign = chirality.
    """
    return apply_r1_traced(d, segment, chirality)[0]


def apply_r1_traced(d: Diagram, segment: int, chirality: int):
    """apply_r1 plus a provenance map {new segment id: replaced segment id}."""
    require_valid(d)
    if chirality not in (1, -1):
        raise ValueError("chirality must be +1 or -1")
    if segment not in d.segment_ids():
        raise DiagramError(f"unknown segment s{segment}")
    w = Wiring(d)
    tail_at = w.find_end(segment, "tail")
    head_at = w.find_end(segment, "head")
    p, q, r = w.new_segment(), w.new_segment(), w.new_segment()
    w.replace_end(tail_at, p)
    w.replace_end(head_at, r)
    w.new_crossing(over_in=p, over_out=q, under_in=q, under_out=r,
                   sign=chirality)
    return w.to_diagram(), {p: segment, q: segment, r: segment}


R2_VARIANTS = ("over+", "over-", "under+", "under-")


def apply_r2(d: Diagram, seg1: int, seg2: int, variant: str = "over+") -> Diagram:
    """Push seg1 across seg2, inserting two canceling crossings.

    variant = "over"/"under" picks whether seg1 passes over seg2, and the
    trailing "+"/"-" the sign of the first crossing (the second crossing
    gets the opposite sign).
    """
    return apply_r2_traced(d, seg1, seg2, variant)[0]


def apply_r2_traced(d: Diagram, seg1: int, seg2: int, variant: str = "over+"):
    """apply_r2 plus a provenance map {new segment id: replaced segment id}."""
    require_valid(d)
    if seg1 == seg2:
        raise DiagramError("r2 needs two distinct segments")
    segs = d.segment_ids()
    for s in (seg1, seg2):
        if s not in segs:
            raise DiagramError(f"unknown segment s{s}")
    if variant not in R2_VARIANTS:
        raise ValueError(f"variant must be one of {R2_VARIANTS}")
    over_first = variant.startswith("over")
    sign = 1 if variant.endswith("+") else -1

    w = Wiring(d)
    ends1 = (w.find_end(seg1, "tail"), w.find_end(seg1, "head"))
    ends2 = (w.find_end(seg2, "tail"), w.find_end(seg2, "head"))
    a = [w.new_segment() for _ in range(3)]
    b = [w.new_segment() for _ in range(3)]
    w.replace_end(ends1[0], a[0])
    w.replace_end(ends1[1], a[2])
    w.replace_end(ends2[0], b[0])
    w.replace_end(ends2[1], b[2])
    over, under = (a, b) if over_first else (b, a)
    w.new_crossing(over_in=over[0], over_out=over[1],
                   under_in=under[0], under_out=under[1], sign=sign)
    w.new_crossing(over_in=over[1], over_out=over[2],
                   under_in=under[1], under_out=under[2], sign=-sign)
    provenance = {s: seg1 for s in a}
    provenance.update({s: seg2 for s in b})
    return w.to_diagram(), provenance


def transport_weights(d_old: Diagram, weights_old: dict, d_new: Diagram,
                      provenance: dict) -> dict:
    """Carry per-edge weights across a traced move: each new edge gets the
    weight of the old edge its segments came from."""
    old_edge = seg_to_edge_id(derive_edges(d_old))
    new_part = derive_edges(d_new)
    out = {}
    for i, cls in enumerate(new_part.classes):
        for s in cls:
            s_old = provenance.get(s, s)
            if s_old in old_edge:
                out[f"e{i + 1}"] = weights_old[old_edge[s_old]]
                break
        else:
            raise DiagramError("edge with no weight provenance")
    return out


def mirror(d: Diagram) -> Diagram:
    """Mirror image: swap over/under strands and flip every crossing sign.

    This preserves each crossing's planar cyclic order under the derived
    cyclic-order convention.
    """
    crossings = tuple(Crossing(over_in=c.under_in, over_out=c.under_out,
                               under_in=c.over_in, under_out=c.over_out,
                               sign=-c.sign)
                      for c in d.crossings)
    return Diagram(d.vertices, crossings, d.free_loops)


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side, relabeling d2 out of the way."""
    seg_off = max(d1.segment_ids() | d2.segment_ids(), default=-1) + 1
    vid_off = max([v.id for v in d1.vertices] + [v.id for v in d2.vertices],
                  default=-1) + 1
    vertices = d1.vertices + tuple(
        VertexNode(v.id + vid_off,
                   tuple((s + seg_off, direction) for s, direction in v.incident))
        for v in d2.vertices)
    crossings = d1.crossings + tuple(
        Crossing(c.over_in + seg_off, c.over_out + seg_off,
                 c.under_in + seg_off, c.under_out + seg_off, c.sign)
        for c in d2.crossings)
    return Diagram(vertices, crossings, d1.free_loops + d2.free_loops)
