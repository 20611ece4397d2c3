"""Exact integer Laurent polynomials in one variable.

All polynomial invariants in this package take values here: the Yamada
polynomial lives in Z[A, A^-1] and the Alexander polynomial in Z[t, t^-1].
Coefficients are arbitrary-precision Python ints; nothing is ever floated.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd as int_gcd, prod


class VariableMismatch(ValueError):
    """Raised when combining polynomials tagged with different variables."""


class LaurentPoly:
    """A Laurent polynomial sum c_k * x^k with integer coefficients.

    Stored as a dict exponent -> nonzero coefficient plus a variable tag
    ('t', 'A', ...).  Instances are immutable in practice: no method mutates
    self, and the coefficient dict is never handed out.
    """

    __slots__ = ("var", "_c")

    def __init__(self, coeffs=None, var="t"):
        self.var = var
        self._c = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var="t"):
        return cls({}, var)

    @classmethod
    def constant(cls, c, var="t"):
        return cls({0: c}, var)

    @classmethod
    def monomial(cls, coeff, exp, var="t"):
        return cls({exp: coeff}, var)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self._c

    def coeff(self, exp):
        return self._c.get(exp, 0)

    @property
    def min_degree(self):
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return min(self._c)

    @property
    def max_degree(self):
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def terms(self):
        """Pairs (exponent, coefficient) in ascending exponent order."""
        return sorted(self._c.items())

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.constant(other, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.var != self.var:
            raise VariableMismatch(f"cannot combine {self.var!r} with {other.var!r}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self._c)
        for e, c in other._c.items():
            d[e] = d.get(e, 0) + c
        return LaurentPoly(d, self.var)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._c.items()}, self.var)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPoly(d, self.var)

    __rmul__ = __mul__

    def is_unit(self):
        """True for the invertible elements +-x^k."""
        return len(self._c) == 1 and next(iter(self._c.values())) in (1, -1)

    def __pow__(self, n):
        if n < 0:
            if not self.is_unit():
                raise ValueError("negative powers only defined for units")
            (e, c), = self._c.items()
            return LaurentPoly({e * n: c if n % 2 else 1}, self.var)
        out = LaurentPoly.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k, coeff=1):
        """Multiply by coeff * x^k."""
        return LaurentPoly({e + k: c * coeff for e, c in self._c.items()}, self.var)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var == other.var and self._c == other._c

    def __hash__(self):
        return hash((self.var, frozenset(self._c.items())))

    # -- evaluation and normalization --------------------------------------

    def normalize_units(self):
        """Multiply by the unique unit +-x^k making the lowest term a positive
        constant (the canonical representative up to units)."""
        if not self._c:
            return self
        m = self.min_degree
        sign = 1 if self._c[m] > 0 else -1
        return self.shift(-m, sign)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                if e == 1:
                    body = f"{head}{self.var}"
                else:
                    body = f"{head}{self.var}^{e}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self}, var={self.var!r})"

    def to_pairs(self):
        """JSON-friendly form: [[exponent, coefficient], ...] ascending."""
        return [[e, c] for e, c in self.terms()]


# ---------------------------------------------------------------------------
# Dense integer polynomials (internal helpers for the gcd).
# Representation: list of coefficients, index = exponent, trimmed, [] = 0.
# ---------------------------------------------------------------------------

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p

def _poly_primitive(p):
    if not p:
        return [], 0
    cont = int_gcd(*p)
    prim = [c // cont for c in p]
    if prim[-1] < 0:
        prim = [-c for c in prim]
        cont = -cont
    return prim, cont

def _poly_pseudo_rem(p, d):
    """Pseudo-remainder: lc(d)^(deg p - deg d + 1) * p mod d."""
    r = list(p)
    dl = d[-1]
    while len(r) >= len(d):
        k = len(r) - len(d)
        lead = r[-1]
        r = [a * dl for a in r]
        for i, c in enumerate(d):
            r[k + i] -= lead * c
        _trim(r)
    return r

def _poly_gcd(p, q):
    """GCD in Z[x] via the primitive pseudo-remainder sequence.

    Returns a primitive polynomial with positive leading coefficient times
    the gcd of the contents.
    """
    p = _trim(list(p))
    q = _trim(list(q))
    if not p:
        return q
    if not q:
        return p
    pp, cp = _poly_primitive(p)
    qp, cq = _poly_primitive(q)
    cont = int_gcd(cp, cq)
    if len(pp) < len(qp):
        pp, qp = qp, pp
    while qp:
        r = _poly_pseudo_rem(pp, qp)
        pp, qp = qp, _poly_primitive(r)[0]
    return [a * cont for a in pp]


def _to_dense(p):
    """Dense coefficients of p with its lowest term at index 0; zero maps
    to []."""
    if p.is_zero():
        return []
    k = p.min_degree
    out = [0] * (p.max_degree - k + 1)
    for e, c in p._c.items():
        out[e - k] = c
    return out


# ---------------------------------------------------------------------------
# Public gcd and determinants
# ---------------------------------------------------------------------------

def laurent_gcd(p, q):
    """GCD of two Laurent polynomials, canonicalized by normalize_units.

    Units are invisible to divisibility in the Laurent ring, so the result
    always has a positive constant lowest term.
    """
    if p.var != q.var:
        raise VariableMismatch(f"{p.var!r} vs {q.var!r}")
    if p.is_zero():
        return q.normalize_units()
    if q.is_zero():
        return p.normalize_units()
    g = _poly_gcd(_to_dense(p), _to_dense(q))
    return LaurentPoly(dict(enumerate(g)), p.var).normalize_units()


def laurent_gcd_many(polys):
    """Fold laurent_gcd over a sequence, skipping zeros, with early exit at 1.

    All-zero (or empty) input yields the zero polynomial.
    """
    acc = None
    var = None
    for p in polys:
        var = var or p.var
        if p.is_zero():
            continue
        acc = p.normalize_units() if acc is None else laurent_gcd(acc, p)
        if acc == 1:
            return acc
    if acc is None:
        return LaurentPoly.zero(var or "t")
    return acc


def from_packed(packed, bits, low, var):
    """The Laurent polynomial whose coefficient of x^(low + k) is digit k of
    the integer packed in balanced base 2^bits, each digit in
    [-2^(bits-1), 2^(bits-1)).  Adding 2^(bits-1) to each of the n digits
    makes every one a plain base 2^bits digit, so bin() of the sum is cut
    into bits-wide fields, in time linear in the packed size."""
    half, n = 1 << (bits - 1), (packed.bit_length() + 1) // bits + 1
    text = bin(packed + int(bin(half)[2:] * n, 2))[2:].zfill(n * bits)
    return LaurentPoly({low + n - 1 - k: int(text[k * bits:(k + 1) * bits], 2)
                        - half for k in range(n)}, var)


def bareiss_det(matrix):
    """Exact determinant of a square matrix of LaurentPoly entries, by
    Kronecker substitution (D. Harvey, 2009) into integer_det.

    Each row is divided by its lowest power of x, leaving polynomials p,
    and each p is packed as the integer p(2^bits).  Packing is a ring map,
    so the integer determinant is the packed polynomial determinant.  The
    coefficients of every minor are at most the product B of the rows'
    absolute coefficient sums, and bits = B.bit_length() + 1 keeps them
    inside one balanced digit: a nonzero minor never packs to 0, and the digits read
    back the polynomial.  The pulled-out powers are restored at the end.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return LaurentPoly.constant(1, "t")
    var = matrix[0][0].var
    lows = []
    bound = 1
    for row in matrix:
        live = [p._c for p in row if not p.is_zero()]
        if not live:
            return LaurentPoly.zero(var)
        lows.append(min(min(c) for c in live))
        bound *= sum(abs(a) for c in live for a in c.values())
    bits = bound.bit_length() + 1
    packed = [[sum(a << bits * (e - low) for e, a in p._c.items())
               for p in row] for row, low in zip(matrix, lows)]
    return from_packed(integer_det(packed), bits, sum(lows), var)


def minors_gcd(matrix, k):
    """GCD over all k x k minors of a rectangular LaurentPoly matrix.

    k = 0 yields 1; if every minor vanishes the result is 0.  All-zero rows
    and columns are dropped first, since every minor through one vanishes;
    enumeration is row subsets outer, column subsets inner, with early exit
    once the running gcd hits 1.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if k < 0 or k > min(rows, cols):
        raise ValueError(f"minor size {k} out of range for {rows}x{cols}")
    var = matrix[0][0].var if rows and cols else "t"
    if k == 0:
        return LaurentPoly.constant(1, var)
    # a minor through an all-zero row or column vanishes: enumerate the rest
    live_rows = [i for i, row in enumerate(matrix)
                 if not all(e.is_zero() for e in row)]
    live_cols = [j for j in range(cols)
                 if not all(matrix[i][j].is_zero() for i in live_rows)]
    if k > min(len(live_rows), len(live_cols)):
        return LaurentPoly.zero(var)
    return laurent_gcd_many(
        bareiss_det([[matrix[i][j] for j in cset] for i in rset])
        for rset in combinations(live_rows, k)
        for cset in combinations(live_cols, k))


def reduce_unit_pivots(matrix, k):
    """Shrink the k-minor gcd problem of a matrix over Z[x^+-1].

    The gcd of the k x k minors is unchanged by elementary row and column
    operations.  Clearing the row and column of a unit entry u at (i, j)
    leaves u as a 1 x 1 block beside the Schur complement
        M'[a][b] = M[a][b] - M[a][j] u^-1 M[i][b]    (a != i, b != j),
    and the k-minor gcd of M is the (k-1)-minor gcd of M'.  Pivots on the
    first unit in row-major order until k reaches 0 or no unit is left.
    Returns (core, k'); k' = 0 means the gcd is 1.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if k < 0 or k > min(rows, cols):
        raise ValueError(f"minor size {k} out of range for {rows}x{cols}")
    m = [list(row) for row in matrix]
    while k:
        pivot = next(((i, j) for i, row in enumerate(m)
                      for j, e in enumerate(row) if e.is_unit()), None)
        if pivot is None:
            break
        i, j = pivot
        prow = m.pop(i)
        inv = prow[j] ** -1
        support = [(b, e) for b, e in enumerate(prow)
                   if b != j and not e.is_zero()]
        for row in m:
            if not row[j].is_zero():
                factor = row[j] * inv
                for b, e in support:
                    row[b] = row[b] - factor * e
            del row[j]
        k -= 1
    return m, k


def invariant_factors(rows):
    """The invariant factors s_1 | s_2 | ... of an integer matrix, the
    positive diagonal of its Smith normal form (H. J. S. Smith, 1861), as
    many as its rank: s_1 ... s_k is the gcd of the k x k minors, and the
    kernel mod n has n^(cols - rank) prod gcd(s_i, n) elements.

    Pivots on the first +-1 in row-major order, else on an entry of least
    |value|.  A pivot that leaves a remainder in its row or column, or does
    not divide every other entry, gives way to that smaller remainder."""
    m = [list(row) for row in rows]
    factors = []
    while True:
        pivot = next(((i, j) for i, row in enumerate(m)
                      for j, e in enumerate(row) if e in (1, -1)), None)
        if pivot is None:
            least = min(((abs(e), i, j) for i, row in enumerate(m)
                         for j, e in enumerate(row) if e), default=None)
            if least is None:
                return factors
            pivot = least[1:]
        i, j = pivot
        prow = m.pop(i)
        p = prow[j]
        support = [(b, e) for b, e in enumerate(prow) if e]
        for row in m:
            if row[j]:
                q = row[j] // p
                for b, e in support:
                    row[b] -= q * e
        if any(row[j] for row in m):
            m.insert(i, prow)    # a remainder below |p| is left in column j
            continue
        if p not in (1, -1):
            # with the column clear, column operations change the pivot row
            # alone and reduce it mod p; when that clears it, a row that p
            # does not divide is added to it first
            rest = next((r for r in ([x % p for x in row]
                                     for row in [prow, *m]) if any(r)), None)
            if rest is not None:
                rest[j] = p
                m.insert(i, rest)
                continue
        factors.append(abs(p))
        for row in m:
            del row[j]


def integer_minors_gcd(matrix, k):
    """The gcd of the k x k minors of an integer matrix, >= 0: the product
    of its first k invariant factors, 0 when its rank is below k."""
    s = invariant_factors(matrix)
    return prod(s[:k]) if k <= len(s) else 0


def integer_det(m):
    """Determinant of an integer matrix by fraction-free elimination
    (E. H. Bareiss, 1968): each entry after step r is an (r + 2)-minor, so
    every division is exact."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for r in range(n - 1):
        if m[r][r] == 0:
            piv = next((i for i in range(r + 1, n) if m[i][r]), None)
            if piv is None:
                return 0
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (m[r][r] * m[i][j] - m[i][r] * m[r][j]) // prev
            m[i][r] = 0
        prev = m[r][r]
    return sign * m[n - 1][n - 1]
