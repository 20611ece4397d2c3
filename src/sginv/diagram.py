"""Combinatorial spatial-graph diagrams.

A diagram is a set of oriented *segments* (atomic strand pieces) wired into
rigid vertices and signed crossings, plus a count of free loops (circles that
touch nothing).  Every segment id occurs exactly once as a tail attachment
(vertex "out" slot, crossing over_out/under_out) and exactly once as a head
attachment (vertex "in" slot, crossing over_in/under_in).

No planar embedding is stored.  `Crossing.ccw_slots` derives the planar
cyclic order of the four ends of a crossing from its slots and sign:
counterclockwise (over_in, under_out, over_out, under_in) for sign +1 and
(over_in, under_in, over_out, under_out) for sign -1.  The smoothings,
`SMOOTHINGS`, are pairs of positions in that order.
"""

import json
from collections import namedtuple
from itertools import count


class DiagramError(ValueError):
    """Malformed diagram input (syntax, duplicate ids, dangling segments)."""


class Crossing(namedtuple("Crossing",
                          "over_in over_out under_in under_out sign")):
    """A crossing: the segments into and out of its over- and
    under-strand, and its sign, +1 or -1."""
    __slots__ = ()

    def ccw_slots(self):
        """Slot names in counterclockwise planar order, starting at over_in."""
        if self.sign == 1:
            return ("over_in", "under_out", "over_out", "under_in")
        return ("over_in", "under_in", "over_out", "under_out")


# The positions in `Crossing.ccw_slots()` that the A- and B-smoothings join.
# A keeps the orientation exactly at sign +1, so a chirality-(+1) kink gives
# an exact A^2 factor to the Yamada polynomial.
SMOOTHINGS = {"A": ((0, 1), (2, 3)), "B": ((1, 2), (3, 0))}


# a rigid vertex: its id and ((segment, "in"|"out"), ...) counterclockwise
VertexNode = namedtuple("VertexNode", "id incident")


class Diagram(namedtuple("Diagram", "vertices crossings free_loops",
                         defaults=((), (), 0))):
    """Tuples of `VertexNode`s and `Crossing`s, and a free-loop count."""
    __slots__ = ()

    def segment_ids(self):
        return {s for _, s, _ in _slot_ends(self)}

    def is_empty(self):
        return not self.vertices and not self.crossings and self.free_loops == 0


# a crossing's slots, heads before tails: the order of `validate`'s reports
_CROSSING_SLOTS = ("over_in", "under_in", "over_out", "under_out")


def _slot_ends(d: Diagram):
    """Yield (slot, segment, "head"|"tail") for every vertex slot, then for
    every crossing slot in `_CROSSING_SLOTS` order.  A slot is ("v", vid,
    slot index) or ("c", crossing index, slot name); a vertex "in" slot and a
    crossing *_in slot hold a head, every other slot a tail."""
    for v in d.vertices:
        for i, (s, direction) in enumerate(v.incident):
            yield ("v", v.id, i), s, "head" if direction == "in" else "tail"
    for i, c in enumerate(d.crossings):
        for name in _CROSSING_SLOTS:
            yield (("c", i, name), getattr(c, name),
                   "head" if name.endswith("_in") else "tail")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _where(tag, owner, slot):
    """A slot of `_slot_ends` as `validate` names it."""
    return f"v{owner!s:.40}[{slot}]" if tag == "v" else f"x{owner}.{slot}"


def validate(d: Diagram):
    """Return a list of human-readable violations; empty means valid.  Each
    id and sign is quoted to at most 40 characters."""
    issues = []
    seen_vids = set()
    for v in d.vertices:
        if v.id in seen_vids:
            issues.append(f"duplicate-vertex v{v.id!s:.40}")
        seen_vids.add(v.id)
        if len(v.incident) < 1:
            issues.append(f"empty-vertex v{v.id!s:.40}")
        for s, direction in v.incident:
            if direction not in ("in", "out"):
                issues.append(f"bad-direction v{v.id!s:.40} s{s!s:.40}")
    for c in d.crossings:
        if c.sign not in (1, -1):
            fields = ", ".join(f"{name}={x!s:.40}"
                               for name, x in zip(c._fields, c))
            issues.append(f"bad-sign crossing Crossing({fields})")

    heads, tails = {}, {}
    for end, s, kind in _slot_ends(d):
        table = heads if kind == "head" else tails
        if s in table:
            issues.append(f"double-{kind} s{s!s:.40} "
                          f"({_where(*table[s])} and {_where(*end)})")
        table[s] = end

    for s in sorted(set(heads) | set(tails)):
        if s < 0:
            issues.append(f"negative-segment s{s!s:.40}")
        if s not in heads:
            issues.append(f"dangling-segment s{s!s:.40} (no head attachment)")
        if s not in tails:
            issues.append(f"dangling-segment s{s!s:.40} (no tail attachment)")
    if d.free_loops < 0:
        issues.append("negative-free-loops")
    return issues


def require_valid(d: Diagram):
    issues = validate(d)
    if issues:
        raise DiagramError("; ".join(issues))
    return d


# ---------------------------------------------------------------------------
# Parsing and serialization (canonical JSON)
# ---------------------------------------------------------------------------

def _int(raw, where):
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise DiagramError(f"{where}: expected an integer, got {raw!r:.40}")


def _typed(raw, kind, where):
    if isinstance(raw, kind):
        return raw
    name = "object" if kind is dict else "array"
    raise DiagramError(f"{where}: expected a JSON {name}, got {raw!r:.40}")


def _seg_id(raw, where):
    if isinstance(raw, int) and not isinstance(raw, bool):
        if raw < 0:
            raise DiagramError(f"{where}: negative segment id {raw!s:.40}")
        return raw
    if isinstance(raw, str) and raw.startswith("s") and raw[1:].isdecimal():
        return int(raw[1:])
    raise DiagramError(f"{where}: bad segment id {raw!r:.40}")


def parse_document(text: str, check: bool = True):
    """Parse a diagram file; returns (Diagram, weights-or-None).

    Weights come back as a dict keyed by derived edge id ("e1", ...).
    Raises DiagramError on syntax errors and wrong-typed fields, and (when
    check is set) on duplicates, bad signs or dangling segments; check=False
    defers wiring validation to the caller, for violation reporting.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"syntax error at line {exc.lineno} col {exc.colno}: "
                           f"{exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # over-long int, deep nesting
        raise DiagramError(f"unreadable JSON: {exc}") from None
    doc = _typed(doc, dict, "top level")
    known = {"vertices", "crossings", "free_loops", "weights"}
    for key in doc:
        if key not in known:
            raise DiagramError(f"unknown key {key!r:.40}")

    vertices = []
    for entry in _typed(doc.get("vertices", []), list, "vertices"):
        entry = _typed(entry, dict, "vertex")
        if "id" not in entry or "incident" not in entry:
            raise DiagramError("vertex needs 'id' and 'incident'")
        vid = _int(entry["id"], "vertex id")
        where = f"vertex {vid!s:.40}"
        incident = []
        for pair in _typed(entry["incident"], list, where):
            if not isinstance(pair, list) or len(pair) != 2:
                raise DiagramError(f"{where}: incidence {pair!r:.40} is not a "
                                   "[segment, direction] pair")
            seg, direction = pair
            if direction not in ("in", "out"):
                raise DiagramError(f"{where}: direction {direction!r:.40}")
            incident.append((_seg_id(seg, where), direction))
        vertices.append(VertexNode(vid, tuple(incident)))

    crossings = []
    for i, entry in enumerate(_typed(doc.get("crossings", []), list,
                                     "crossings")):
        where = f"crossing {i}"
        entry = _typed(entry, dict, where)
        try:
            crossings.append(Crossing(
                over_in=_seg_id(entry["over_in"], where),
                over_out=_seg_id(entry["over_out"], where),
                under_in=_seg_id(entry["under_in"], where),
                under_out=_seg_id(entry["under_out"], where),
                sign=_int(entry["sign"], f"{where} sign")))
        except KeyError as exc:
            raise DiagramError(f"{where}: missing {exc.args[0]}") from None

    d = Diagram(tuple(vertices), tuple(crossings),
                _int(doc.get("free_loops", 0), "free_loops"))
    if check:
        require_valid(d)
    weights = doc.get("weights")
    if weights is not None:
        weights = {str(k): _int(w, f"weight {k!r:.40}")
                   for k, w in _typed(weights, dict, "weights").items()}
    return d, weights


def parse_diagram(text: str) -> Diagram:
    return parse_document(text)[0]


def serialize(d: Diagram, weights=None) -> str:
    """Canonical rendering: sorted keys, vertices by id, crossings by slots."""
    doc = {
        "crossings": [
            {"over_in": f"s{c.over_in}", "over_out": f"s{c.over_out}",
             "sign": c.sign,
             "under_in": f"s{c.under_in}", "under_out": f"s{c.under_out}"}
            for c in sorted(d.crossings,
                            key=lambda c: (c.over_in, c.over_out,
                                           c.under_in, c.under_out))],
        "free_loops": d.free_loops,
        "vertices": [
            {"id": v.id, "incident": [[f"s{s}", direction]
                                      for s, direction in v.incident]}
            for v in sorted(d.vertices, key=lambda v: v.id)],
    }
    if weights is not None:
        doc["weights"] = {k: weights[k] for k in sorted(weights)}
    return json.dumps(doc, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Arc and edge partitions
# ---------------------------------------------------------------------------

class UnionFind:
    """Disjoint sets with path halving; `union(a, b)` makes b's root the
    root of the merged set."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class Partition(namedtuple("Partition", "classes is_closed class_of")):
    """Segments grouped into classes, numbered by least contained segment:
    `classes` holds sorted segment tuples, sorted by least segment,
    `is_closed` flags the classes with no vertex incidence at all, and
    `class_of` maps a segment to its class index."""
    __slots__ = ()


def _partition(d: Diagram, merge_under: bool) -> Partition:
    segs = d.segment_ids()
    uf = UnionFind(segs)
    for c in d.crossings:
        uf.union(c.over_in, c.over_out)
        if merge_under:
            uf.union(c.under_in, c.under_out)
    groups = {}
    for s in segs:
        groups.setdefault(uf.find(s), []).append(s)
    classes = sorted((tuple(sorted(g)) for g in groups.values()), key=min)
    class_of = {s: i for i, cls in enumerate(classes) for s in cls}
    touched = {class_of[s] for v in d.vertices for s, _ in v.incident}
    return Partition(tuple(classes),
                     tuple(i not in touched for i in range(len(classes))),
                     class_of)


def derive_arcs(d: Diagram) -> Partition:
    """Wirtinger arcs: segments merged across over-strand continuations."""
    return _partition(d, merge_under=False)


def derive_edges(d: Diagram) -> Partition:
    """Graph edges: segments merged across both over and under continuations.

    Closed classes with no vertex incidence are knot components; free loops
    contribute extra (segment-free) closed components not listed here.
    """
    return _partition(d, merge_under=True)


def wirtinger_relations(d: Diagram):
    """The Wirtinger relation table: (arcs, crossing rows, vertex rows).

    One (a, b, c, sign) per crossing, in stored order, written as a
    positive one, so c = a > b in a quandle coloring whatever the sign: b
    is the over arc, a holds under_in at sign +1 and under_out at sign -1,
    and c the other under end.  One ((arc, eps), ...) per vertex, in
    stored order, its incidences in stored cyclic order with eps = +1 for
    "in" and -1 for "out".  Free loops have no arcs here.
    """
    arcs = derive_arcs(d)
    arc = arcs.class_of
    crossings = tuple(
        (arc[c.under_in], arc[c.over_in], arc[c.under_out], 1) if c.sign == 1
        else (arc[c.under_out], arc[c.over_in], arc[c.under_in], -1)
        for c in d.crossings)
    vertices = tuple(tuple((arc[s], 1 if direction == "in" else -1)
                           for s, direction in v.incident)
                     for v in d.vertices)
    return arcs, crossings, vertices


def seg_to_edge_id(edges: Partition):
    return {s: f"e{i + 1}" for s, i in edges.class_of.items()}


# ---------------------------------------------------------------------------
# Move insertion
# ---------------------------------------------------------------------------

class Wiring:
    """End index behind Reidemeister move insertion: `_ends` maps every
    segment end (segment id, "head"|"tail") to the slot that holds it, as
    `_slot_ends` reads them."""

    def __init__(self, d: Diagram):
        self._d = d
        self._ends = {(s, kind): slot for slot, s, kind in _slot_ends(d)}

    def find_end(self, seg, kind):
        """Locate the attachment of a segment end, or None if unattached.

        Returns ("v", vid, slot index) or ("c", cid, slot name).
        """
        return self._ends.get((seg, kind))

    def rewired(self, renames, crossings=()) -> Diagram:
        """The diagram with segment `renames[seg, kind]` in the slot of each
        end (seg, kind), its vertices in id order and `crossings` appended;
        every slot keeps its head/tail kind."""
        slots = {self.find_end(*end): s for end, s in renames.items()}
        d = self._d
        vertices = tuple(
            VertexNode(v.id, tuple((slots.get(("v", v.id, i), s), direction)
                                   for i, (s, direction) in enumerate(v.incident)))
            for v in sorted(d.vertices, key=lambda v: v.id))
        kept = tuple(
            c._replace(**{name: slots.get(("c", cid, name), getattr(c, name))
                          for name in _CROSSING_SLOTS})
            for cid, c in enumerate(d.crossings))
        return Diagram(vertices, kept + tuple(crossings), d.free_loops)


# ---------------------------------------------------------------------------
# Cutting and rejoining
# ---------------------------------------------------------------------------

def rejoin(d: Diagram, choice):
    """Apply a vertex choice: cut out every vertex the choice names and join
    its chosen slots pair by pair.

    `choice` is ((vertex id, (slot index, slot index)), ...), the form
    `constituents.vertex_choices` yields; a vertex may be named more than
    once, one pair each time.  Segments form *strands* through the
    crossings and the joins, and *pieces*, the segments of the result,
    through the joins alone.  Joining two ends of one kind first reverses
    the strand of the second end: its vertex directions flip, its crossing
    levels swap in and out, and each reversed level flips the sign of its
    crossing once.  A join closing a piece on itself makes a free loop;
    every other join gives the joined piece a fresh segment id.  Then each
    strand still holding an unjoined slot of a cut vertex is dropped, and a
    crossing with one dropped level is spliced out, its other level passing
    through.

    Returns (diagram, components): per strand of the result, in order of its
    least segment id, then per free loop (the original loops first, then
    the new ones as they closed), the frozenset of the ids of the vertices
    whose slots were joined into it.
    """
    ends = {at[1:]: (s, kind) for at, s, kind in _slot_ends(d) if at[0] == "v"}
    cut = {vid for vid, _ in choice}
    segs = d.segment_ids()
    strands, pieces = UnionFind(segs), UnionFind(segs)
    members = {s: [s] for s in segs}    # strand root -> its segments

    def link(a, b):
        a, b = strands.find(a), strands.find(b)
        if a != b:
            strands.union(a, b)
            members[b] += members.pop(a)

    for c in d.crossings:
        link(c.over_in, c.over_out)
        link(c.under_in, c.under_out)
    flipped = set()    # segments running against their input orientation
    label = {}         # joined piece root -> its fresh segment id
    tags = {}          # piece root -> vertex ids joined into it
    loops = [frozenset()] * d.free_loops
    dropped = set()    # strand roots left out of the result
    fresh = count(max(segs, default=-1) + 1)

    def join(end1, end2, carry):
        (s1, k1), (s2, k2) = end1, end2
        p1, p2 = pieces.find(s1), pieces.find(s2)
        carried = tags.pop(p1, frozenset()) | tags.pop(p2, frozenset()) | carry
        if p1 == p2:
            loops.append(carried)
            dropped.add(strands.find(s1))
            return
        if (k1 == k2) == ((s1 in flipped) == (s2 in flipped)):
            root = strands.find(s2)
            if strands.find(s1) == root:
                raise AssertionError("reversal touched both ends")
            flipped.symmetric_difference_update(members[root])
        link(s1, s2)
        pieces.union(p1, p2)
        label[p2] = next(fresh)
        tags[p2] = carried

    for vid, (i, j) in choice:
        join(ends[vid, i], ends[vid, j], frozenset((vid,)))
    joined = {(vid, i) for vid, pair in choice for i in pair}
    dropped.update(strands.find(s) for at, (s, _) in ends.items()
                   if at[0] in cut and at not in joined)

    kept = []
    for c in d.crossings:
        over_dead = strands.find(c.over_in) in dropped
        under_dead = strands.find(c.under_in) in dropped
        if over_dead != under_dead:
            level = "under" if over_dead else "over"
            join((getattr(c, level + "_in"), "head"),
                 (getattr(c, level + "_out"), "tail"), frozenset())
        elif not over_dead:
            kept.append(c)

    piece = {s: pieces.find(s) for s in segs}
    seg = {s: label.get(root, root) for s, root in piece.items()}
    crossings = []
    for c in kept:
        slots, sign = {}, c.sign
        for level in ("over", "under"):
            s_in, s_out = getattr(c, level + "_in"), getattr(c, level + "_out")
            if s_in in flipped:
                s_in, s_out, sign = s_out, s_in, -sign
            slots[level + "_in"], slots[level + "_out"] = seg[s_in], seg[s_out]
        crossings.append(Crossing(sign=sign, **slots))
    vertices = tuple(
        VertexNode(v.id, tuple(
            (seg[s], direction if s not in flipped else
             "out" if direction == "in" else "in")
            for s, direction in v.incident))
        for v in sorted(d.vertices, key=lambda v: v.id)
        if v.id not in cut)

    components = {}    # strand root -> tags, by least segment id
    for s in sorted(segs, key=seg.get):
        root = strands.find(s)
        if root not in dropped:
            components.setdefault(root, set()).update(tags.get(piece[s], ()))
    return (Diagram(vertices, tuple(crossings), len(loops)),
            tuple(map(frozenset, components.values())) + tuple(loops))


# ---------------------------------------------------------------------------
# Crossing resolution
# ---------------------------------------------------------------------------

def resolve_crossing(d: Diagram, idx: int, mode: str) -> Diagram:
    """Replace crossing `idx` by one of its three resolutions.

    mode "V" installs a rigid 4-valent vertex, after the diagram's own, in
    the crossing's planar cyclic order.  Modes "A" and "B" apply the
    smoothing's pairs of `SMOOTHINGS` at that vertex as a vertex choice.
    """
    if not 0 <= idx < len(d.crossings):
        raise IndexError(f"crossing index {idx} out of range")
    if mode not in ("A", "B", "V"):
        raise ValueError(f"unknown resolution mode {mode!r}")
    c = d.crossings[idx]
    incident = tuple((getattr(c, name), name.partition("_")[2])
                     for name in c.ccw_slots())  # "over_in" -> "in"
    vid = max((v.id for v in d.vertices), default=-1) + 1
    vertices = tuple(sorted(d.vertices, key=lambda v: v.id))  # as rejoin's
    rigid = Diagram(vertices + (VertexNode(vid, incident),),
                    d.crossings[:idx] + d.crossings[idx + 1:], d.free_loops)
    if mode == "V":
        return rigid
    return rejoin(rigid, [(vid, pair) for pair in SMOOTHINGS[mode]])[0]
