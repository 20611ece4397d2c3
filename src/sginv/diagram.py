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
from dataclasses import dataclass, field


class DiagramError(ValueError):
    """Malformed diagram input (syntax, duplicate ids, dangling segments)."""


@dataclass(frozen=True)
class Crossing:
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


@dataclass(frozen=True)
class VertexNode:
    id: int
    incident: tuple  # ((segment, "in"|"out"), ...) counterclockwise


@dataclass(frozen=True)
class Diagram:
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


@dataclass(frozen=True)
class Partition:
    """Segments grouped into classes, numbered by least contained segment."""
    classes: tuple          # tuple of sorted segment tuples, sorted by min seg
    is_closed: tuple        # per class: no vertex incidence at all
    class_of: dict = field(compare=False, repr=False)  # segment -> class index

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


def seg_to_edge_id(edges: Partition):
    return {s: f"e{i + 1}" for s, i in edges.class_of.items()}


# ---------------------------------------------------------------------------
# Mutable rewiring engine
# ---------------------------------------------------------------------------

_CROSSING_SLOTS = ("over_in", "over_out", "under_in", "under_out")
# the end kind a vertex direction or crossing slot holds, and back
_KIND = {"in": "head", "out": "tail", "over_in": "head", "under_in": "head",
         "over_out": "tail", "under_out": "tail"}
_DIRECTION = {"head": "in", "tail": "out"}
_FLIP = {"head": "tail", "tail": "head"}


class Wiring:
    """Mutable attachment structure behind crossing resolution, Reidemeister
    move insertion and constituent extraction.

    Segment ends are addressed as (segment id, "head"|"tail").  Heads attach
    at vertex "in" slots and crossing *_in slots; tails at "out" slots.  Ends
    not attached anywhere are dangling; they only exist transiently while a
    sequence of operations is in flight.

    Index invariant: between operations, `_ends` maps every attached end to
    its slot, ("v", vid, slot index) or ("c", cid, slot name), and holds no
    other key.  Slot writes go through `_set`, and vertices and crossings are
    added and removed only by the methods below, so callers read
    `vertices` and `crossings` but never assign into them.

    `carried` tracks, per segment, the vertex ids absorbed into it by joins
    (used for Hamiltonian-cycle bookkeeping in constituent extraction).
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
            self.crossings[i] = {"over_in": c.over_in, "over_out": c.over_out,
                                 "under_in": c.under_in, "under_out": c.under_out,
                                 "sign": c.sign}
            ends[(c.over_in, "head")] = ("c", i, "over_in")
            ends[(c.over_out, "tail")] = ("c", i, "over_out")
            ends[(c.under_in, "head")] = ("c", i, "under_in")
            ends[(c.under_out, "tail")] = ("c", i, "under_out")
        self._ends = ends
        self.free_loops = d.free_loops
        self.carried = {}
        self.loop_carried = [set() for _ in range(d.free_loops)]
        self.segments = {s for s, _ in ends}
        self._next_seg = max(self.segments, default=-1) + 1
        self._next_crossing = len(d.crossings)

    # -- allocation and removal --------------------------------------------

    def new_segment(self):
        s = self._next_seg
        self._next_seg += 1
        self.segments.add(s)
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

    def remove_vertex(self, vid):
        """Remove a vertex, returning the ends it held, now dangling, in slot
        order: [(seg, "head"|"tail"), ...]."""
        ends = [(s, _KIND[direction]) for s, direction in self.vertices.pop(vid)]
        for end in ends:
            del self._ends[end]
        return ends

    def cut_crossing(self, idx):
        """Remove a crossing, returning its four now-dangling ends keyed by
        slot name: {"over_in": (seg, "head"), ...}, plus its "sign"."""
        c = self.crossings.pop(idx)
        out = {"sign": c["sign"]}
        for name in _CROSSING_SLOTS:
            end = (c[name], _KIND[name])
            del self._ends[end]
            out[name] = end
        return out

    # -- attachment lookup and the slot writer ------------------------------

    def find_end(self, seg, kind):
        """Locate the attachment of a segment end, or None if dangling.

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

    # -- strand walking ----------------------------------------------------

    def _strand(self, seg):
        """Walk the maximal strand through `seg` both ways through crossing
        continuations (over_in<->over_out, under_in<->under_out), stopping
        at vertices and dangling ends.

        Returns (segment set, set of traversed crossing levels (cid,
        "over"|"under"), list of (slot, seg, kind) for the strand's ends held
        at vertices).  Interior attachments are all crossing slots, so a
        strand meets vertices only at its ends.
        """
        segs, levels, stops = {seg}, set(), []
        for kind, onward in (("head", "_out"), ("tail", "_in")):
            cur = seg
            while True:
                at = self._ends.get((cur, kind))
                if at is None:
                    break
                if at[0] == "v":
                    stops.append((at, cur, kind))
                    break
                level = at[2].partition("_")[0]
                levels.add((at[1], level))
                cur = self.crossings[at[1]][level + onward]
                if cur in segs:
                    return segs, levels, stops  # closed strand
                segs.add(cur)
        return segs, levels, stops

    def strand_segments(self, seg):
        """All segments on the maximal strand through `seg` (through crossing
        continuations; stops at vertices and dangling ends)."""
        return self._strand(seg)[0]

    def reverse_strand(self, seg):
        """Reverse the orientation of the maximal strand through `seg`.

        Vertex direction flags at the strand's ends flip, traversed crossings
        swap their in/out slots on the traversed level, and each traversed
        level flips the crossing sign once (a strand crossing itself flips
        the sign twice, leaving it unchanged -- as it should).

        Returns the set of reversed segment ids.
        """
        segs, levels, stops = self._strand(seg)
        for at, s, kind in stops:
            self._set(at, s, _FLIP[kind])
        for cid, level in levels:
            c = self.crossings[cid]
            s_in, s_out = c[level + "_in"], c[level + "_out"]
            self._set(("c", cid, level + "_in"), s_out, "head")
            self._set(("c", cid, level + "_out"), s_in, "tail")
            c["sign"] = -c["sign"]
        return segs

    def dangling_segments(self):
        ends = self._ends
        return {s for s in self.segments
                if (s, "head") not in ends or (s, "tail") not in ends}

    # -- joining dangling ends ---------------------------------------------

    def join(self, end1, end2, carry=()):
        """Join two dangling ends into a continuous strand.

        Ends of the same kind first get one strand reversed.  Returns a
        replacement map {old segment id: new id or None}, None meaning the
        segment closed into a free loop; callers holding pending end
        references must apply it (and flip kinds for reversed segments).
        """
        s1, k1 = end1
        s2, k2 = end2
        if s1 == s2:
            # the segment's two ends meet: a free loop
            self.free_loops += 1
            self.loop_carried.append(self.carried.pop(s1, set()) | set(carry))
            self.segments.discard(s1)
            return {s1: None}
        if k1 == k2:
            flipped = self.reverse_strand(s2)
            k2 = _FLIP[k2]
            if s1 in flipped:  # cannot happen for a consistently oriented strand
                raise AssertionError("reversal touched both ends")
        if k1 == "tail":
            (s1, k1), (s2, k2) = (s2, k2), (s1, k1)
        # now s1 dangles at its head, s2 at its tail: s1 flows into s2
        n = self.new_segment()
        self._replace_end(self.find_end(s1, "tail"), n)
        self._replace_end(self.find_end(s2, "head"), n)
        self.carried[n] = (self.carried.pop(s1, set())
                           | self.carried.pop(s2, set()) | set(carry))
        self.segments.discard(s1)
        self.segments.discard(s2)
        return {s1: n, s2: n}

    def splice_out_level(self, cid, level):
        """Remove a crossing, reconnecting its `level` strand through and
        leaving the other strand's ends dangling."""
        ends = self.cut_crossing(cid)
        self.join(ends[level + "_in"], ends[level + "_out"])

    # -- extraction --------------------------------------------------------

    def to_diagram(self) -> Diagram:
        vertices = tuple(VertexNode(vid, tuple(slots))
                         for vid, slots in sorted(self.vertices.items()))
        crossings = tuple(Crossing(c["over_in"], c["over_out"],
                                   c["under_in"], c["under_out"], c["sign"])
                          for _, c in sorted(self.crossings.items()))
        return Diagram(vertices, crossings, self.free_loops)


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
    if mode == "V":
        # no end lookups needed: build the result straight from the tuples,
        # vertices in id order as Wiring.to_diagram would have them
        c = d.crossings[idx]
        incident = tuple((getattr(c, name), name.partition("_")[2])
                         for name in c.ccw_slots())  # "over_in" -> "in"
        vid = max((v.id for v in d.vertices), default=-1) + 1
        vertices = tuple(sorted(d.vertices, key=lambda v: v.id))
        return Diagram(vertices + (VertexNode(vid, incident),),
                       d.crossings[:idx] + d.crossings[idx + 1:], d.free_loops)

    w = Wiring(d)
    ends = w.cut_crossing(idx)
    first, second = smoothing_pairs(ends["sign"], mode)
    rep = w.join(ends[first[0]], ends[first[1]])
    a = _remap_end(w, ends[second[0]], rep)
    b = _remap_end(w, ends[second[1]], rep)
    if a[0] is not None and b[0] is not None:
        w.join(a, b)
    elif a[0] is not None or b[0] is not None:
        raise AssertionError("half-consumed smoothing pair")
    return w.to_diagram()


def _remap_end(w: Wiring, end, rep):
    """Apply a join's replacement map to a pending end reference, fixing the
    head/tail kind against the current wiring (a prior reversal may have
    flipped it)."""
    s, k = end
    if s in rep:
        s = rep[s]
        if s is None:
            return (None, k)
    if w.find_end(s, k) is not None:
        k = _FLIP[k]
        assert w.find_end(s, k) is None, "end is not dangling"
    return (s, k)
