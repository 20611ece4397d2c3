"""Finite quandles and quandle colorings of spatial graph diagrams.

A quandle is a set with operations x > y and x >^-1 y satisfying
idempotence, right-invertibility and right self-distributivity.  Colorings
assign quandle elements to the arcs of a diagram subject to the relations of
`diagram.wirtinger_relations`: a >^s b = c at each crossing row
(a, b, c, s), and at each vertex row the composite translation by its arc
colors, with its signs eps, fixes the color of every arc of the diagram.

`count_colorings` searches for the colorings by any finite quandle table.
The dihedral quandle R_n is linear, so `count_dihedral_colorings` counts
its colorings as the kernel of the integer Fox coloring matrix mod n, and
the trivial quandle's count is a power of n (`count_trivial_colorings`).
"""

from __future__ import annotations

from collections import deque
from math import gcd
from typing import NamedTuple

from .diagram import Diagram, derive_edges, require_valid, wirtinger_relations
from .laurent import reduce_unit_pivots


class QuandleError(ValueError):
    pass


class FiniteQuandle(NamedTuple):
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


def count_colorings(d: Diagram, X: FiniteQuandle) -> int:
    """Number of colorings of the arcs of d by X.

    Backtracking with crossing-relation pruning on an explicit stack of
    color iterators, one per depth, so no input reaches the recursion
    limit; the vertex condition (the composite translation at each vertex
    fixes every arc color, following the every-generator quantifier of the
    vertex relation) is checked on complete assignments.  A free loop is one
    more arc under no crossing relation, as a kink would be: it takes any
    color that condition fixes.
    """
    require_valid(d)
    bad = verify_quandle(X.op, X.inv)
    if bad:
        raise QuandleError(f"not a quandle: {bad[:3]}")
    arcs, crossing_rows, vertex_rows = wirtinger_relations(d)
    n_arcs = len(arcs)
    loops = d.free_loops
    if n_arcs == 0:
        # only free loops, and no vertex condition on their colors
        return X.n ** loops

    # order arcs so crossing relations fire early: breadth-first from the
    # lowest-index arc through crossing incidences
    crossings_at = [[] for _ in range(n_arcs)]
    for row in crossing_rows:
        for arc in set(row[:3]):
            crossings_at[arc].append(row)
    order = []
    placed = [False] * n_arcs
    for start in range(n_arcs):
        queue = deque([start])
        while queue:
            a = queue.popleft()
            if placed[a]:
                continue
            placed[a] = True
            order.append(a)
            for row in crossings_at[a]:
                queue.extend(y for y in row[:3] if not placed[y])
    pos = {a: i for i, a in enumerate(order)}
    checks_at = [[] for _ in range(n_arcs)]
    for row in crossing_rows:
        checks_at[max(pos[arc] for arc in row[:3])].append(row)

    def fixed(col):
        """True when every vertex translation fixes col."""
        for row in vertex_rows:
            x = col
            for arc, eps in row:
                x = X.apply(x, colors[arc], eps)
            if x != col:
                return False
        return True

    colors = [None] * n_arcs
    stack = [iter(range(X.n))]    # per open depth, the colors left to try
    total = 0
    while stack:
        depth = len(stack) - 1
        arc, checks = order[depth], checks_at[depth]
        for col in stack[depth]:
            colors[arc] = col
            for a, b, c, s in checks:
                if X.apply(colors[a], colors[b], s) != colors[c]:
                    break
            else:
                if depth + 1 < n_arcs:
                    stack.append(iter(range(X.n)))
                    break    # descend; this depth resumes from its iterator
                if all(map(fixed, set(colors))):
                    total += sum(map(fixed, range(X.n))) ** loops if loops else 1
        else:
            stack.pop()
    return total


def count_dihedral_colorings(d: Diagram, n: int) -> int:
    """count_colorings(d, R_n) by linear algebra.  x > y = 2y - x, so a
    crossing asks 2b - a - c = 0 mod n.  At a vertex with arcs a_1, a_2, ...
    the composite translation takes x to x + 2D, D = -a_1 + a_2 - ..., at
    even degree, and to 2S - x, S = a_1 - a_2 + ..., at odd degree: it fixes
    every color when 2D = 0, and a color x only when 2x = 2S.  So an odd
    vertex asks 2(a - a_0) = 0 for every arc a and 2(a_0 - S) = 0, and leaves
    a free loop gcd(2, n) colors (n without odd vertices).  The count is the
    kernel mod n of these rows: unit pivots drop one arc each, then the
    core's kernel is counted mod each prime power of n."""
    require_valid(d)
    if n < 1:
        raise QuandleError("order must be >= 1")
    arcs, crossing_rows, vertex_rows = wirtinger_relations(d)
    rows = [[0] * len(arcs) for _ in crossing_rows + vertex_rows]
    for row, (a, b, c, _) in zip(rows, crossing_rows):
        row[a] -= 1
        row[b] += 2
        row[c] -= 1
    odd = any(len(v_row) % 2 for v_row in vertex_rows)
    for row, v_row in zip(rows[len(crossing_rows):], vertex_rows):
        for i, (arc, _) in enumerate(v_row):
            row[arc] += 2 if i % 2 else -2
        if len(v_row) % 2:
            row[0] += 2
    for a in range(1, len(arcs) if odd else 0):
        rows.append([-2] + [0] * (len(arcs) - 1))
        rows[-1][a] += 2
    k = min(len(rows), len(arcs))
    core, left = reduce_unit_pivots(rows, k)
    count = (gcd(2, n) if odd else n) ** d.free_loops
    for q in _prime_powers(n):
        count *= _kernel_size(core, len(arcs) - k + left, q)
    return count


def _prime_powers(n):
    """The prime powers whose product is n >= 1, by trial division that
    stops at a cofactor `is_prime` shows prime; slow only when n has two
    large prime factors or a composite cofactor above PRIME_LIMIT."""
    p, fresh = 2, True
    while n > 1:
        # one Miller-Rabin run costs many trial divisions, so it runs only
        # on a new cofactor
        if p * p > n or fresh and n < PRIME_LIMIT and is_prime(n):
            yield n
            return
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        fresh = q > 1
        if fresh:
            yield q
        p += 1


def _kernel_size(rows, cols, q):
    """How many x in (Z/q)^cols have rows x = 0 mod q, for a prime power q:
    pivot on an entry of least gcd g with q, which divides every other
    entry, so its variable has g solutions; columns left at zero are free."""
    m = [[x % q for x in row] for row in rows]
    count = 1
    while any(map(any, m)):
        g, i, j = min((gcd(x, q), i, j) for i, row in enumerate(m)
                      for j, x in enumerate(row) if x)
        prow = m.pop(i)
        inv = pow(prow[j] // g, -1, q)
        for row in m:
            f = row[j] // g * inv
            row[:] = [(x - f * y) % q for x, y in zip(row, prow)]
            del row[j]
        count *= g
        cols -= 1
    return count * q ** cols


# Miller-Rabin to the first 13 prime bases, 2 to 41, is exact below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(p):
    """True when p is prime, by Miller-Rabin to the bases _BASES; raises
    QuandleError for p >= PRIME_LIMIT, where that test is no longer exact."""
    if p >= PRIME_LIMIT:
        raise QuandleError(f"{p} is not below {PRIME_LIMIT}, the limit of "
                           f"the exact primality test")
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0    # p - 1 = 2^s d with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def count_trivial_colorings(d: Diagram, n: int) -> int:
    """Colorings by the trivial quandle of order n: under arcs agree at each
    crossing, so each edge and each free loop takes any one color."""
    require_valid(d)
    if n < 1:
        raise QuandleError("order must be >= 1")
    return n ** (len(derive_edges(d)) + d.free_loops)


def is_p_colorable(d: Diagram, p: int) -> bool:
    """True when a non-constant dihedral-p coloring exists (a nonempty
    diagram has p constant ones, the empty diagram one coloring)."""
    if not is_prime(p):
        raise QuandleError(f"{p} is not prime")
    return count_dihedral_colorings(d, p) > p
