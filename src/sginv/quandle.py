"""Finite quandles and quandle colorings of spatial graph diagrams.

A quandle is a set with operations x > y and x >^-1 y satisfying
idempotence, right-invertibility and right self-distributivity.  Colorings
assign quandle elements to the arcs of a diagram subject to the relations of
`diagram.wirtinger_relations`: c = a > b at each crossing row (a, b, c, s),
whatever its sign, since the rows are written as positive crossings, and at
each vertex row the composite translation by its arc colors, with its signs
eps, fixes the color of every arc of the diagram.

`count_colorings` searches for the colorings by any finite quandle table.
The affine quandle Aff(Z_n, a), x > y = ax + (1 - a)y, is linear, and so
are R_n (a = -1) and the trivial quandle (a = 1): `count_affine_colorings`
counts its colorings as the kernel of integer relation rows mod n, read off
their invariant factors without factoring n.  Miller-Rabin (`is_prime`)
only checks the prime of `is_p_colorable`.
"""

from collections import deque, namedtuple
from math import gcd, prod

from .diagram import Diagram, fox_rows, require_valid, wirtinger_relations
from .laurent import invariant_factors


class QuandleError(ValueError):
    pass


class FiniteQuandle(namedtuple("FiniteQuandle", "n op inv")):
    """A quandle on 0..n-1: op[x][y] = x > y, inv[x][y] = x >^-1 y."""
    __slots__ = ()

    def apply(self, x, y, eps):
        return self.op[x][y] if eps == 1 else self.inv[x][y]

    @staticmethod
    def from_op(op):
        """Build the inverse table by inverting each right translation.

        The one check of a table: raises QuandleError, naming the defect,
        unless op is n rows of n ints (by type, so True is refused), every
        entry is in 0..n-1 and every translation is a bijection (the table
        otherwise fails axiom 2 outright).
        """
        n = len(op)
        if not all(type(row) in (list, tuple) and len(row) == n
                   and all(type(z) is int for z in row) for row in op):
            raise QuandleError("expected n rows of n integers")
        inv = [[None] * n for _ in range(n)]
        for y in range(n):
            for x in range(n):
                z = op[x][y]
                if not 0 <= z < n:
                    raise QuandleError(f"op[{x}][{y}] = {z!s:.40} is not in "
                                       f"0..{n - 1}")
                if inv[z][y] is not None:
                    raise QuandleError(f"the right translation by {y} "
                                       f"(column {y} of op) is not a bijection")
                inv[z][y] = x
        return FiniteQuandle(n, tuple(map(tuple, op)), tuple(map(tuple, inv)))


def verify_quandle(op):
    """Check a table op[x][y] = x > y against the quandle axioms.

    Returns a list of (axiom number, witness tuple) violations; empty means
    the table is a quandle.  A table `FiniteQuandle.from_op` refuses gives
    that refusal as the one violation (2, (message,)); otherwise the
    witnesses are (x,) for idempotence and (x, y, z) for distributivity.
    """
    try:
        op = FiniteQuandle.from_op(op).op
    except QuandleError as exc:
        return [(2, (str(exc),))]
    n = len(op)
    violations = [(1, (x,)) for x in range(n) if op[x][x] != x]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if op[op[x][y]][z] != op[op[x][z]][op[y][z]]:
                    violations.append((3, (x, y, z)))
    return violations


def affine_quandle(n: int, a: int) -> FiniteQuandle:
    """Aff(Z_n, a): x > y = ax + (1 - a)y mod n, a quandle when a is a unit
    mod n.  R_n is a = -1 (involutory), the trivial quandle a = 1."""
    if n < 1:
        raise QuandleError("order must be >= 1")
    return FiniteQuandle.from_op([[(a * x + (1 - a) * y) % n for y in range(n)]
                                  for x in range(n)])


def count_colorings(d: Diagram, X: FiniteQuandle) -> int:
    """Number of colorings of the arcs of d by X.

    Backtracking with crossing-relation pruning on an explicit stack of
    color iterators, one per depth, so no input reaches the recursion
    limit.  Every crossing row (a, b, c, s) reads c = a > b, whatever its
    sign, since `wirtinger_relations` writes it as a positive crossing; the
    vertex condition (the composite translation at each vertex
    fixes every arc color, following the every-generator quantifier of the
    vertex relation) is checked on complete assignments.  A free loop is one
    more arc under no crossing relation, as a kink would be: it takes any
    color that condition fixes.
    """
    require_valid(d)
    bad = verify_quandle(X.op)
    if bad:
        raise QuandleError(f"not a quandle: {bad[:3]}")
    X = FiniteQuandle.from_op(X.op)    # the exact inverse, whatever X.inv is
    arcs, crossing_rows, vertex_rows = wirtinger_relations(d)
    n_arcs = len(arcs.classes)
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
            for a, b, c, _ in checks:
                if X.op[colors[a]][colors[b]] != colors[c]:
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


def count_affine_colorings(d: Diagram, n: int, a: int) -> int:
    """count_colorings(d, affine_quandle(n, a)) by linear algebra.  A
    crossing row (x, y, z, s) asks z = ax + (1 - a)y mod n, its row of
    `diagram.fox_rows` at t = a^-1 times the unit -a.  The translations of
    a vertex compose to x -> Ax + L, A a power of a and L linear in its arc
    colors, which fixes every arc color c_j when (A - 1)c_0 + L = 0 and
    (A - 1)(c_j - c_0) = 0.  With g the gcd of A - 1 over the vertices the
    second is g(c_j - c_0) = 0, and a free loop takes gcd(g, n) colors (n
    without vertices).  The count is the kernel mod n of these rows, read
    off their invariant factors s_i as n^(arcs - rank) prod gcd(s_i, n),
    with no need to factor n.  a = +-1 is its own inverse and is not
    reduced mod n, so R_n's rows keep entries of -1 and 2."""
    require_valid(d)
    if n < 1 or gcd(a, n) != 1:
        raise QuandleError("the order must be >= 1 and a a unit mod it")
    self_inverse = a in (1, -1)
    # x >^eps y = t[eps] x + (1 - t[eps]) y
    t = {1: a, -1: a if self_inverse else pow(a, -1, n)}
    arcs, crossing_rows, vertex_rows = wirtinger_relations(d)
    n_arcs = len(arcs.classes)
    rows = fox_rows(crossing_rows, n_arcs, lambda m: t[-1] ** m, [1] * n_arcs)
    g = 0
    for v_row in vertex_rows:
        row, A = [0] * n_arcs, 1    # composed from the last translation
        for arc, eps in reversed(v_row):
            row[arc] += (1 - t[eps]) * A
            A = A * t[eps] if self_inverse else A * t[eps] % n
        row[0] += A - 1
        rows.append(row)
        g = gcd(g, A - 1)
    for j in range(1, n_arcs if g % n else 0):
        rows.append([-g] + [0] * (n_arcs - 1))
        rows[-1][j] += g
    s = invariant_factors(rows)
    return (gcd(g, n) ** d.free_loops
            * prod(gcd(f, n) for f in s) * n ** (n_arcs - len(s)))


# Miller-Rabin to the first 13 prime bases, 2 to 41, is exact below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(p):
    """True when p is prime, by Miller-Rabin to the bases _BASES; raises
    QuandleError for p >= PRIME_LIMIT, where that test is no longer exact."""
    if p >= PRIME_LIMIT:
        raise QuandleError(f"{p!s:.40} is not below {PRIME_LIMIT}, the "
                           "limit of the exact primality test")
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


def is_p_colorable(d: Diagram, p: int) -> bool:
    """True when a non-constant dihedral-p coloring exists (a nonempty
    diagram has p constant ones, the empty diagram one coloring)."""
    if not is_prime(p):
        raise QuandleError(f"{p} is not prime")
    return count_affine_colorings(d, p, -1) > p
