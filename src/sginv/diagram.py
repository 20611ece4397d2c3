"""Combinatorial spatial-graph diagrams.

A diagram is a set of oriented *segments* (atomic strand pieces) wired into
rigid vertices and signed crossings, plus a count of free loops (circles that
touch nothing).  Every segment id occurs exactly once as a tail attachment
(vertex "out" slot, crossing over_out/under_out) and exactly once as a head
attachment (vertex "in" slot, crossing over_in/under_in).

No planar embedding is stored.  The planar cyclic order of the four ends of
a crossing is derived from its slots and sign: counterclockwise
(over_in, under_out, over_out, under_in) for sign +1 and
(over_in, under_in, over_out, under_out) for sign -1.
"""

from __future__ import annotations

import json
from itertools import count
from typing import NamedTuple


class DiagramError(ValueError):
    """Malformed diagram input (syntax, duplicate ids, dangling segments)."""


class Crossing(NamedTuple):
    over_in: int
    over_out: int
    under_in: int
    under_out: int
    sign: int

    def slots(self):
        return {"over_in": self.over_in, "over_out": self.over_out,
                "under_in": self.under_in, "under_out": self.under_out}

    def ccw_slots(self):
        """Slot names in counterclockwise planar order, starting at over_in."""
        if self.sign == 1:
            return ("over_in", "under_out", "over_out", "under_in")
        return ("over_in", "under_in", "over_out", "under_out")


class VertexNode(NamedTuple):
    id: int
    incident: tuple  # ((segment, "in"|"out"), ...) counterclockwise


class Diagram(NamedTuple):
    vertices: tuple = ()
    crossings: tuple = ()
    free_loops: int = 0

    def segment_ids(self):
        segs = set()
        for v in self.vertices:
            segs.update(s for s, _ in v.incident)
        for c in self.crossings:
            segs.update(c.slots().values())
        return segs

    def is_empty(self):
        return not self.vertices and not self.crossings and self.free_loops == 0


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(d: Diagram):
    """Return a list of human-readable violations; empty means valid."""
    issues = []
    seen_vids = set()
    for v in d.vertices:
        if v.id in seen_vids:
            issues.append(f"duplicate-vertex v{v.id}")
        seen_vids.add(v.id)
        if len(v.incident) < 1:
            issues.append(f"empty-vertex v{v.id}")
        for s, direction in v.incident:
            if direction not in ("in", "out"):
                issues.append(f"bad-direction v{v.id} s{s}")
    for c in d.crossings:
        if c.sign not in (1, -1):
            issues.append(f"bad-sign crossing {c}")

    heads, tails = {}, {}
    def attach(table, seg, where, kind):
        if seg in table:
            issues.append(f"double-{kind} s{seg} ({table[seg]} and {where})")
        table[seg] = where

    for v in d.vertices:
        for i, (s, direction) in enumerate(v.incident):
            if direction == "in":
                attach(heads, s, f"v{v.id}[{i}]", "head")
            else:
                attach(tails, s, f"v{v.id}[{i}]", "tail")
    for i, c in enumerate(d.crossings):
        attach(heads, c.over_in, f"x{i}.over_in", "head")
        attach(heads, c.under_in, f"x{i}.under_in", "head")
        attach(tails, c.over_out, f"x{i}.over_out", "tail")
        attach(tails, c.under_out, f"x{i}.under_out", "tail")

    for s in sorted(set(heads) | set(tails)):
        if s < 0:
            issues.append(f"negative-segment s{s}")
        if s not in heads:
            issues.append(f"dangling-segment s{s} (no head attachment)")
        if s not in tails:
            issues.append(f"dangling-segment s{s} (no tail attachment)")
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
            raise DiagramError(f"{where}: negative segment id {raw}")
        return raw
    if isinstance(raw, str) and raw.startswith("s") and raw[1:].isdecimal():
        return int(raw[1:])
    raise DiagramError(f"{where}: bad segment id {raw!r}")


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
            raise DiagramError(f"unknown key {key!r}")

    vertices = []
    for entry in _typed(doc.get("vertices", []), list, "vertices"):
        entry = _typed(entry, dict, "vertex")
        if "id" not in entry or "incident" not in entry:
            raise DiagramError("vertex needs 'id' and 'incident'")
        vid = _int(entry["id"], "vertex id")
        where = f"vertex {vid}"
        incident = []
        for pair in _typed(entry["incident"], list, where):
            if not isinstance(pair, list) or len(pair) != 2:
                raise DiagramError(f"{where}: incidence {pair!r:.40} is not a "
                                   "[segment, direction] pair")
            seg, direction = pair
            if direction not in ("in", "out"):
                raise DiagramError(f"{where}: direction {direction!r}")
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
        weights = {str(k): _int(w, f"weight {k!r}")
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


class Partition(NamedTuple):
    """Segments grouped into classes, numbered by least contained segment."""
    classes: tuple          # tuple of sorted segment tuples, sorted by min seg
    is_closed: tuple        # per class: no vertex incidence at all
    class_of: dict          # segment -> class index, derived from classes

    def index_of(self, seg):
        return self.class_of[seg]

    def __len__(self):
        return len(self.classes)


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

    One (a, b, c, sign) per crossing, in stored order: the under strand
    runs from arc a to arc c under the over arc b, so a holds under_in at
    sign +1 and under_out at sign -1.  One ((arc, eps), ...) per vertex, in
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

_CROSSING_SLOTS = ("over_in", "over_out", "under_in", "under_out")
# the end kind a vertex direction or crossing slot holds, and back
_KIND = {"in": "head", "out": "tail", "over_in": "head", "under_in": "head",
         "over_out": "tail", "under_out": "tail"}
_DIRECTION = {"head": "in", "tail": "out"}


class Wiring:
    """Mutable attachment structure behind Reidemeister move insertion: new
    segments and crossings, and slots re-pointed from a replaced segment to
    a new one.

    Segment ends are addressed as (segment id, "head"|"tail").  Heads attach
    at vertex "in" slots and crossing *_in slots; tails at "out" slots.

    Index invariant: `_ends` maps every attached end to its slot, ("v", vid,
    slot index) or ("c", cid, slot name), and holds no other key.  Slot
    writes go through `_set` and crossings are added only by `new_crossing`,
    so callers read `vertices` and `crossings` but never assign into them.
    """

    def __init__(self, d: Diagram):
        ends = {}
        self.vertices = {}
        for v in d.vertices:
            self.vertices[v.id] = list(v.incident)
            for i, (s, direction) in enumerate(v.incident):
                ends[(s, _KIND[direction])] = ("v", v.id, i)
        self.crossings = {}
        for i, c in enumerate(d.crossings):
            self.crossings[i] = {**c.slots(), "sign": c.sign}
            for name in _CROSSING_SLOTS:
                ends[(getattr(c, name), _KIND[name])] = ("c", i, name)
        self._ends = ends
        self.free_loops = d.free_loops
        self._next_seg = max((s for s, _ in ends), default=-1) + 1
        self._next_crossing = len(d.crossings)

    def new_segment(self):
        s = self._next_seg
        self._next_seg += 1
        return s

    def new_crossing(self, over_in, over_out, under_in, under_out, sign):
        cid = self._next_crossing
        self._next_crossing += 1
        c = self.crossings[cid] = {"over_in": over_in, "over_out": over_out,
                                   "under_in": under_in, "under_out": under_out,
                                   "sign": sign}
        for name in _CROSSING_SLOTS:
            self._ends[(c[name], _KIND[name])] = ("c", cid, name)
        return cid

    def find_end(self, seg, kind):
        """Locate the attachment of a segment end, or None if unattached.

        Returns ("v", vid, slot index) or ("c", cid, slot name).
        """
        return self._ends.get((seg, kind))

    def _held(self, at):
        """The end (seg, kind) held in slot `at`."""
        tag, owner, slot = at
        if tag == "v":
            s, direction = self.vertices[owner][slot]
            return s, _KIND[direction]
        return self.crossings[owner][slot], _KIND[slot]

    def _set(self, at, seg, kind):
        """Put end (seg, kind) in slot `at`, replacing the end held there.

        The only write into an existing slot.  The displaced end is dropped
        from the index unless an earlier write already re-homed it.
        """
        old = self._held(at)
        if self._ends.get(old) == at:
            del self._ends[old]
        tag, owner, slot = at
        if tag == "v":
            self.vertices[owner][slot] = (seg, _DIRECTION[kind])
        else:
            self.crossings[owner][slot] = seg
        self._ends[(seg, kind)] = at

    def _replace_end(self, attach, new_seg):
        """Attach `new_seg` in slot `attach` (if any), keeping the slot's
        head/tail kind."""
        if attach is not None:
            self._set(attach, new_seg, self._held(attach)[1])

    def to_diagram(self) -> Diagram:
        vertices = tuple(VertexNode(vid, tuple(slots))
                         for vid, slots in sorted(self.vertices.items()))
        crossings = tuple(Crossing(c["over_in"], c["over_out"],
                                   c["under_in"], c["under_out"], c["sign"])
                          for _, c in sorted(self.crossings.items()))
        return Diagram(vertices, crossings, self.free_loops)


# ---------------------------------------------------------------------------
# Cutting and rejoining
# ---------------------------------------------------------------------------

def rejoin(d: Diagram, pairs):
    """Cut out every vertex and crossing a pair names and join the freed
    ends pair by pair.

    `pairs` is a sequence of slot pairs; a slot is ("v", vid, slot index)
    or ("c", crossing index, slot name).  Segments form *strands* through
    the kept crossing levels and the joins, and *pieces*, the segments of
    the result, through the joins alone.  Joining two ends of one kind first
    reverses the strand of the second end: its vertex directions flip, its
    crossing levels swap in and out, and each reversed level flips the sign
    of its crossing once.  A join closing a piece on itself makes a free
    loop; every other join gives the joined piece a fresh segment id.  Then
    each strand still holding an unjoined freed end is dropped, and a
    crossing with one dropped level is spliced out, its other level passing
    through.

    Returns (diagram, components): per strand of the result, in order of its
    least segment id, then per free loop (the original loops first, then
    the new ones as they closed), the frozenset of the ids of the vertices
    whose slots were joined into it.
    """
    incident = {v.id: v.incident for v in d.vertices}

    def end(at):
        tag, owner, slot = at
        if tag == "v":
            s, direction = incident[owner][slot]
            return s, _KIND[direction]
        return getattr(d.crossings[owner], slot), _KIND[slot]

    cut = {(tag, owner) for pair in pairs for tag, owner, _ in pair}
    segs = d.segment_ids()
    strands, pieces = UnionFind(segs), UnionFind(segs)
    members = {s: [s] for s in segs}    # strand root -> its segments

    def link(a, b):
        a, b = strands.find(a), strands.find(b)
        if a != b:
            strands.union(a, b)
            members[b] += members.pop(a)

    for i, c in enumerate(d.crossings):
        if ("c", i) not in cut:
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

    for at1, at2 in pairs:
        join(end(at1), end(at2), frozenset(
            owner for tag, owner, _ in (at1, at2) if tag == "v"))
    joined = {at for pair in pairs for at in pair}
    for tag, owner in cut:
        slots = range(len(incident[owner])) if tag == "v" else _CROSSING_SLOTS
        dropped.update(strands.find(end((tag, owner, slot))[0])
                       for slot in slots if (tag, owner, slot) not in joined)

    kept = []
    for i, c in enumerate(d.crossings):
        if ("c", i) in cut:
            continue
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
        if ("v", v.id) not in cut)

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

def smoothing_pairs(sign, mode):
    """Slot-name pairs joined by the A- or B-smoothing of a crossing.

    The orientation-coherent smoothing joins over_in->under_out and
    under_in->over_out; the other adjacent pairing in the planar cyclic
    order reverses one strand.  The A-smoothing is the coherent one exactly
    when sign = +1: this calibration makes a chirality-(+1) kink contribute
    an exact A^2 factor to the Yamada polynomial.
    """
    if (mode == "A") == (sign == 1):
        return (("over_in", "under_out"), ("under_in", "over_out"))
    if sign == 1:
        return (("under_out", "over_out"), ("under_in", "over_in"))
    return (("over_in", "under_in"), ("over_out", "under_out"))


def resolve_crossing(d: Diagram, idx: int, mode: str) -> Diagram:
    """Replace crossing `idx` by one of its three resolutions.

    mode "V" installs a rigid 4-valent vertex in the crossing's planar
    cyclic order.  Modes "A" and "B" are the two planar smoothings of
    `smoothing_pairs`.
    """
    if not 0 <= idx < len(d.crossings):
        raise IndexError(f"crossing index {idx} out of range")
    if mode not in ("A", "B", "V"):
        raise ValueError(f"unknown resolution mode {mode!r}")
    c = d.crossings[idx]
    if mode == "V":
        # vertices in id order, as rejoin leaves them
        incident = tuple((getattr(c, name), name.partition("_")[2])
                         for name in c.ccw_slots())  # "over_in" -> "in"
        vid = max((v.id for v in d.vertices), default=-1) + 1
        vertices = tuple(sorted(d.vertices, key=lambda v: v.id))
        return Diagram(vertices + (VertexNode(vid, incident),),
                       d.crossings[:idx] + d.crossings[idx + 1:], d.free_loops)
    return rejoin(d, [(("c", idx, a), ("c", idx, b))
                      for a, b in smoothing_pairs(c.sign, mode)])[0]
