"""Finite quandles and quandle colorings of spatial graph diagrams.

A quandle is a set with operations x > y and x >^-1 y satisfying
idempotence, right-invertibility and right self-distributivity.  Colorings
assign quandle elements to the arcs of a diagram subject to the crossing
relation a^b = c and, at each vertex, the requirement that the composite
translation by the incident arc colors (with local signs) fixes the color
of every arc of the diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, require_valid, derive_arcs
from .alexander import crossing_arc_roles


class QuandleError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteQuandle:
    n: int
    op: tuple   # op[x][y] = x > y
    inv: tuple  # inv[x][y] = x >^-1 y

    def apply(self, x, y, eps):
        return self.op[x][y] if eps == 1 else self.inv[x][y]

    @staticmethod
    def from_op(op):
        """Build the inverse table by inverting each right translation.

        Raises QuandleError when some translation is not a bijection (the
        table then fails axiom 2 outright).
        """
        n = len(op)
        inv = [[None] * n for _ in range(n)]
        for y in range(n):
            for x in range(n):
                z = op[x][y]
                if not 0 <= z < n or inv[z][y] is not None:
                    raise QuandleError(f"right translation by {y} is not a bijection")
                inv[z][y] = x
        return FiniteQuandle(n, tuple(map(tuple, op)), tuple(map(tuple, inv)))


def verify_quandle(op, inv=None):
    """Check the three quandle axioms on explicit tables.

    Returns a list of (axiom number, witness tuple) violations; empty means
    the tables form a quandle.  If inv is omitted it is derived from op when
    possible (failure to derive is an axiom-2 violation).
    """
    n = len(op)
    for row in op:
        if len(row) != n:
            raise QuandleError("ragged operation table")
    if inv is not None:
        for row in inv:
            if len(row) != n:
                raise QuandleError("ragged inverse table")
    violations = []
    for x in range(n):
        for y in range(n):
            if not 0 <= op[x][y] < n:
                violations.append((0, (x, y)))  # out-of-range entry
    if violations:
        return violations
    for x in range(n):
        if op[x][x] != x:
            violations.append((1, (x,)))
    if inv is None:
        try:
            inv = FiniteQuandle.from_op(op).inv
        except QuandleError:
            violations.append((2, ("translation not bijective",)))
            inv = None
    if inv is not None:
        for x in range(n):
            for y in range(n):
                if inv[op[x][y]][y] != x or op[inv[x][y]][y] != x:
                    violations.append((2, (x, y)))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if op[op[x][y]][z] != op[op[x][z]][op[y][z]]:
                    violations.append((3, (x, y, z)))
    return violations


def dihedral_quandle(n: int) -> FiniteQuandle:
    """R_n: elements 0..n-1 with x > y = 2y - x mod n (involutory)."""
    if n < 1:
        raise QuandleError("order must be >= 1")
    op = tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n))
    return FiniteQuandle(n, op, op)


def trivial_quandle(n: int) -> FiniteQuandle:
    """x > y = x for all x, y."""
    if n < 1:
        raise QuandleError("order must be >= 1")
    op = tuple(tuple(x for _ in range(n)) for x in range(n))
    return FiniteQuandle(n, op, op)


def _vertex_translations(d: Diagram, arcs):
    """Per vertex: the (arc index, local sign) list in stored cyclic order."""
    out = []
    for v in d.vertices:
        out.append([(arcs.index_of(seg), 1 if direction == "in" else -1)
                    for seg, direction in v.incident])
    return out


def count_colorings(d: Diagram, X: FiniteQuandle) -> int:
    """Number of colorings of the arcs of d by X.

    Backtracking with crossing-relation pruning; the vertex condition (the
    composite translation at each vertex fixes every arc color, following
    the every-generator quantifier of the vertex relation) is checked on
    complete assignments.  A free loop is one more arc under no crossing
    relation, as a kink would be: it takes any color that condition fixes.
    """
    require_valid(d)
    bad = verify_quandle(X.op, X.inv)
    if bad:
        raise QuandleError(f"not a quandle: {bad[:3]}")
    arcs = derive_arcs(d)
    n_arcs = len(arcs)
    loops = d.free_loops
    if n_arcs == 0:
        # only free loops, and no vertex condition on their colors
        return X.n ** loops

    roles = [crossing_arc_roles(d, i, arcs) for i in range(len(d.crossings))]
    signs = [c.sign for c in d.crossings]
    vertex_tr = _vertex_translations(d, arcs)

    # order arcs so crossing relations fire early: breadth-first from the
    # lowest-index arc through crossing incidences
    order = []
    placed = [False] * n_arcs
    queue = []
    for start in range(n_arcs):
        if placed[start]:
            continue
        queue.append(start)
        while queue:
            a = queue.pop(0)
            if placed[a]:
                continue
            placed[a] = True
            order.append(a)
            for (x, b, c), _ in zip(roles, signs):
                if a in (x, b, c):
                    queue.extend(y for y in (x, b, c) if not placed[y])
    pos = {a: i for i, a in enumerate(order)}
    checks_at = [[] for _ in range(n_arcs)]
    for idx, (a, b, c) in enumerate(roles):
        fire = max(pos[a], pos[b], pos[c])
        checks_at[fire].append(idx)

    def fixed(col):
        """True when every vertex translation fixes col."""
        for tr in vertex_tr:
            x = col
            for (arc, eps) in tr:
                x = X.apply(x, colors[arc], eps)
            if x != col:
                return False
        return True

    colors = [None] * n_arcs
    total = 0

    def search(depth):
        nonlocal total
        if depth == n_arcs:
            if all(map(fixed, set(colors))):
                total += sum(map(fixed, range(X.n))) ** loops if loops else 1
            return
        arc = order[depth]
        for col in range(X.n):
            colors[arc] = col
            ok = True
            for idx in checks_at[depth]:
                a, b, c = roles[idx]
                if X.apply(colors[a], colors[b], signs[idx]) != colors[c]:
                    ok = False
                    break
            if ok:
                search(depth + 1)
        colors[arc] = None

    search(0)
    return total


def is_prime(p):
    """True when p is prime (trial division)."""
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def count_constant_colorings(d: Diagram, X: FiniteQuandle) -> int:
    """How many single-color assignments satisfy all relations (crossing
    relations hold by idempotence; only the vertex condition can fail)."""
    require_valid(d)
    arcs = derive_arcs(d)
    if len(arcs) == 0:
        return X.n if d.free_loops else 1
    vertex_tr = _vertex_translations(d, arcs)
    count = 0
    for col in range(X.n):
        ok = True
        for tr in vertex_tr:
            x = col
            for (_, eps) in tr:
                x = X.apply(x, col, eps)
            if x != col:
                ok = False
                break
        if ok:
            count += 1
    return count


def is_p_colorable(d: Diagram, p: int) -> bool:
    """True when a non-constant dihedral-p coloring exists."""
    if not is_prime(p):
        raise QuandleError(f"{p} is not prime")
    X = dihedral_quandle(p)
    return count_colorings(d, X) > count_constant_colorings(d, X)
