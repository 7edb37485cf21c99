"""Exact integer lattice maps, normal forms, and torsion points of tori.

All matrices are tuples of tuples of Python ints, so every operation is
arbitrary-precision and deterministic.  Torsion vectors model points of a
torus with cocharacter lattice Z^n: an element of (Q/Z)^n kept in reduced
canonical form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from operator import mul


Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a,b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def dot(u, v) -> int:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


class LatticeMap:
    """A homomorphism Z^domain_rank -> Z^codomain_rank given by an integer matrix.

    Stored row-major; acts on column vectors, so ``m(v)`` is matrix times v.
    Both ranks are part of the map: a matrix with no rows needs its
    ``domain_rank`` given, and a 0 x 2 map differs from a 0 x 3 map.
    """

    __slots__ = ("rows", "codomain_rank", "domain_rank")

    def __init__(self, rows, domain_rank=None):
        self.rows: Mat = tuple([tuple(map(int, r)) for r in rows])
        self.codomain_rank = len(self.rows)
        if domain_rank is None:
            if not self.rows:
                raise ValueError("a map with no rows needs its domain_rank")
            domain_rank = len(self.rows[0])
        self.domain_rank = domain_rank
        for r in self.rows:
            if len(r) != domain_rank:
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "LatticeMap":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zero(cls, codomain: int, domain: int) -> "LatticeMap":
        return cls(tuple((0,) * domain for _ in range(codomain)), domain)

    @classmethod
    def from_columns(cls, cols, codomain_rank: int) -> "LatticeMap":
        cols = [tuple(c) for c in cols]
        if any(len(c) != codomain_rank for c in cols):
            raise ValueError(f"columns must have length {codomain_rank}")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(codomain_rank)), len(cols))

    def columns(self):
        return [tuple(r[j] for r in self.rows) for j in range(self.domain_rank)]

    def __call__(self, v):
        if len(v) != self.domain_rank:
            raise ValueError("vector length mismatch")
        return tuple([sum(map(mul, r, v)) for r in self.rows])

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other, i.e. the matrix product self @ other."""
        if self.domain_rank != other.codomain_rank:
            raise ValueError("rank mismatch in composition")
        ocols = other.columns()
        return LatticeMap.from_columns([self(c) for c in ocols], self.codomain_rank)

    def __matmul__(self, other):
        return self.compose(other)

    def _check_same_shape(self, other):
        if (self.codomain_rank, self.domain_rank) != (other.codomain_rank, other.domain_rank):
            raise ValueError("maps of different shapes")

    def __add__(self, other):
        self._check_same_shape(other)
        return LatticeMap(tuple(map(vadd, self.rows, other.rows)), self.domain_rank)

    def __sub__(self, other):
        self._check_same_shape(other)
        return LatticeMap(tuple(map(vsub, self.rows, other.rows)), self.domain_rank)

    def scale(self, c: int) -> "LatticeMap":
        return LatticeMap(tuple(vscale(c, r) for r in self.rows), self.domain_rank)

    def transpose(self) -> "LatticeMap":
        return LatticeMap.from_columns(self.rows, self.domain_rank)

    def det(self) -> int:
        if self.domain_rank != self.codomain_rank:
            raise ValueError("determinant of a non-square map")
        # fraction-free Gaussian elimination (Bareiss)
        n = self.domain_rank
        if n == 0:
            return 1
        a = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def inverse_unimodular(self) -> "LatticeMap":
        """Inverse of a square integer matrix with determinant +-1."""
        n = self.domain_rank
        if n != self.codomain_rank:
            raise ValueError("inverse of a non-square map")
        # an integral inverse forces det = +-1, so no determinant is needed
        inv = solve_rational(self, LatticeMap.identity(n))
        if inv is None or any(x.denominator != 1 for row in inv for x in row):
            raise ValueError("matrix is not unimodular")
        return LatticeMap(inv, n)

    def inverse_transpose(self) -> "LatticeMap":
        return self.inverse_unimodular().transpose()

    def __eq__(self, other):
        return (isinstance(other, LatticeMap) and self.rows == other.rows
                and self.domain_rank == other.domain_rank)

    def __hash__(self):
        return hash((self.rows, self.domain_rank))

    def __repr__(self):
        return f"LatticeMap({list(map(list, self.rows))}, domain_rank={self.domain_rank})"


def solve_rational(a, b):
    """The unique rational X with a @ X = b, or None if there is none.

    a is n x k and b is n x m, each a LatticeMap or a sequence of integer
    rows; X comes back as k rows of Fractions.  Gauss-Jordan elimination on
    the augmented matrix [a | b].  None means the columns of a are linearly
    dependent or some column of b lies outside their span.  A sequence of
    rows has no room for the column count of an empty matrix, so no rows is
    read as 0 x 0; a LatticeMap keeps its shape.
    """
    rows = getattr(a, "rows", a)
    k = getattr(a, "domain_rank", len(rows[0]) if rows else 0)
    a, b = rows, getattr(b, "rows", b)
    if len(a) != len(b):
        raise ValueError("a and b must have the same number of rows")
    n = len(a)
    aug = [[Fraction(x) for x in ra] + [Fraction(x) for x in rb] for ra, rb in zip(a, b)]
    for col in range(k):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None  # column col is a combination of the earlier ones
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        pivot_row = aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            f = aug[i][col]
            if i != col and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], pivot_row)]
    if any(x != 0 for row in aug[k:] for x in row[k:]):
        return None
    return tuple(tuple(row[k:]) for row in aug[:k])


def smith_normal_form(m: LatticeMap) -> tuple[LatticeMap, LatticeMap, LatticeMap]:
    """Return (U, D, V) with U @ m @ V = D, U and V unimodular, D diagonal
    with nonnegative entries d_1 | d_2 | ... .
    """
    rows = [list(r) for r in m.rows]
    nr, nc = m.codomain_rank, m.domain_rank
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, k, a, b, c, d):
        # (row i, row k) <- (a*ri + b*rk, c*ri + d*rk); same on u
        for mat in (rows, u):
            ri, rk = mat[i], mat[k]
            mat[i] = [a * x + b * y for x, y in zip(ri, rk)]
            mat[k] = [c * x + d * y for x, y in zip(ri, rk)]

    def col_op(j, k, a, b, c, d):
        for mat in (rows, v):
            for r in mat:
                x, y = r[j], r[k]
                r[j] = a * x + b * y
                r[k] = c * x + d * y

    t = 0
    while t < min(nr, nc):
        # find a pivot: smallest nonzero absolute value in the submatrix
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = rows[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            rows[t], rows[pi] = rows[pi], rows[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for mat in (rows, v):
                for r in mat:
                    r[t], r[pj] = r[pj], r[t]
        while True:
            # clear column t
            for i in range(nr):
                if i != t and rows[i][t] != 0:
                    a = rows[t][t]
                    b = rows[i][t]
                    if b % a == 0:
                        q = b // a
                        for mat in (rows, u):
                            mat[i] = [x - q * y for x, y in zip(mat[i], mat[t])]
                    else:
                        g, x, y = _xgcd(a, b)
                        row_op(t, i, x, y, -(b // g), a // g)
            # clear row t
            dirty = False
            for j in range(nc):
                if j != t and rows[t][j] != 0:
                    a = rows[t][t]
                    b = rows[t][j]
                    if b % a == 0:
                        q = b // a
                        for mat in (rows, v):
                            for r in mat:
                                r[j] -= q * r[t]
                    else:
                        g, x, y = _xgcd(a, b)
                        col_op(t, j, x, y, -(b // g), a // g)
                        dirty = True
            if not dirty and all(rows[i][t] == 0 for i in range(nr) if i != t):
                break
        # divisibility: rows[t][t] must divide everything below-right
        a = rows[t][t]
        fix = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if rows[i][j] % a != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            for mat in (rows, u):
                mat[t] = [x + y for x, y in zip(mat[t], mat[fix])]
            continue  # redo this pivot position
        if rows[t][t] < 0:
            for mat in (rows, u):
                mat[t] = [-x for x in mat[t]]
        t += 1
    return LatticeMap(u, nr), LatticeMap(rows, nc), LatticeMap(v, nc)


def row_hermite_form(m: LatticeMap) -> LatticeMap:
    """Canonical row Hermite normal form W @ m for unimodular W.

    Pivot columns strictly increase, pivots are positive, and entries above a
    pivot are reduced into [0, pivot).  Zero rows are collected at the bottom.
    """
    rows = [list(r) for r in m.rows]
    nr = len(rows)
    nc = m.domain_rank
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nr):
            while rows[i][c] != 0:
                a, b = rows[r][c], rows[i][c]
                if abs(a) > abs(b):
                    rows[r], rows[i] = rows[i], rows[r]
                    continue
                q = b // a
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q != 0:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return LatticeMap(rows, nc)


def column_hermite_form(m: LatticeMap) -> LatticeMap:
    """Canonical column Hermite normal form m @ V, zero columns dropped.

    The unique basis of the column span with pivot rows strictly increasing,
    positive pivots, and entries left of a pivot reduced into [0, pivot).
    """
    h = row_hermite_form(m.transpose())
    return LatticeMap.from_columns([r for r in h.rows if any(r)], m.codomain_rank)


def kernel_basis(m: LatticeMap) -> LatticeMap:
    """Basis (columns) of the integer kernel of m; always a saturated sublattice."""
    u, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(d.codomain_rank, d.domain_rank)) if d.rows[i][i] != 0)
    return column_hermite_form(LatticeMap.from_columns(v.columns()[rank:], m.domain_rank))


def right_inverse(p: LatticeMap) -> LatticeMap:
    """Integer right inverse of a surjective map p (p @ r = identity)."""
    u, d, v = smith_normal_form(p)
    r = p.codomain_rank
    for i in range(r):
        if i >= min(d.codomain_rank, d.domain_rank) or d.rows[i][i] != 1:
            raise ValueError("map is not surjective")
    # p = u^-1 d v^-1 with d = [I | 0]; a right inverse is v [I; 0] u
    sel = LatticeMap(tuple(tuple(1 if i == j else 0 for j in range(r))
                           for i in range(p.domain_rank)), r)
    return v @ sel @ u


class Sublattice:
    """A sublattice of Z^ambient_rank with canonical Hermite-form basis columns."""

    __slots__ = ("ambient_rank", "basis")

    def __init__(self, ambient_rank: int, generators: LatticeMap):
        if generators.codomain_rank != ambient_rank:
            raise ValueError("generator columns must live in the ambient lattice")
        self.ambient_rank = ambient_rank
        self.basis = column_hermite_form(generators)

    @property
    def rank(self) -> int:
        return self.basis.domain_rank

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v):
        """Integer coordinates of v in the basis, or None if v is outside."""
        cols = self.basis.columns()
        v = list(v)
        coords = []
        pivots = []
        for c in cols:
            pivots.append(next(i for i, x in enumerate(c) if x != 0))
        for c, p in zip(cols, pivots):
            if v[p] % c[p] != 0:
                return None
            q = v[p] // c[p]
            coords.append(q)
            v = [x - q * y for x, y in zip(v, c)]
        if any(v):
            return None
        return tuple(coords)

    def saturation(self) -> "Sublattice":
        """Smallest sublattice containing this one with torsion-free quotient."""
        # U @ basis @ V = D, so the first rank columns of U^-1 span the saturation
        u, d, v = smith_normal_form(self.basis)
        cols = u.inverse_unimodular().columns()[:self.rank]
        return Sublattice(self.ambient_rank, LatticeMap.from_columns(cols, self.ambient_rank))

    def __eq__(self, other):
        return (isinstance(other, Sublattice)
                and self.ambient_rank == other.ambient_rank
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_rank, self.basis))

    def __repr__(self):
        return f"Sublattice(rank {self.rank} of Z^{self.ambient_rank})"


def fixed_sublattice(maps: list[LatticeMap]) -> Sublattice:
    """Sublattice of vectors fixed by every map; saturated by construction."""
    if not maps:
        raise ValueError("need at least one map")
    n = maps[0].domain_rank
    stacked = []
    for m in maps:
        if m.domain_rank != n or m.codomain_rank != n:
            raise ValueError("maps must be square of equal rank")
        diff = m - LatticeMap.identity(n)
        stacked.extend(diff.rows)
    ker = kernel_basis(LatticeMap(stacked, n))
    return Sublattice(n, ker)


class TorsionVector:
    """An element of (Q/Z)^rank in reduced canonical form.

    Numerators lie in [0, den) and gcd(den, all numerators) = 1.  Ordering is
    lexicographic on (denominator, numerator vector), which is the canonical
    orbit-representative order used throughout.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: int):
        den = int(den)
        if den <= 0:
            raise ValueError("denominator must be positive")
        nums = [int(x) % den for x in nums]
        g = den
        for x in nums:
            g = _xgcd(g, x)[0]
            if g == 1:
                break
        if g > 1:
            den //= g
            nums = [x // g for x in nums]
        self.nums: Vec = tuple(nums)
        self.den = den

    @classmethod
    def zero(cls, rank: int) -> "TorsionVector":
        return cls((0,) * rank, 1)

    @classmethod
    def from_fractions(cls, fracs) -> "TorsionVector":
        fracs = [Fraction(f) for f in fracs]
        den = 1
        for f in fracs:
            den = den * f.denominator // _xgcd(den, f.denominator)[0]
        return cls([int(f * den) for f in fracs], den)

    @property
    def rank(self) -> int:
        return len(self.nums)

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def apply(self, m: LatticeMap) -> "TorsionVector":
        return TorsionVector(m(self.nums), self.den)

    def __add__(self, other: "TorsionVector") -> "TorsionVector":
        g = _xgcd(self.den, other.den)[0]
        den = self.den * other.den // g
        a = den // self.den
        b = den // other.den
        return TorsionVector([a * x + b * y for x, y in zip(self.nums, other.nums, strict=True)], den)

    def __neg__(self) -> "TorsionVector":
        return TorsionVector([-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int) -> "TorsionVector":
        return TorsionVector([c * x for x in self.nums], self.den)

    def pairing(self, covector) -> Fraction:
        """Pair with an integer covector; result is a Fraction in [0, 1)."""
        return Fraction(dot(covector, self.nums) % self.den, self.den)

    def is_zero(self) -> bool:
        return self.den == 1

    def key(self):
        return (self.den, self.nums)

    def __eq__(self, other):
        return isinstance(other, TorsionVector) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return f"TorsionVector({list(self.nums)}/{self.den})"


def solve_torsion_fixed(m: LatticeMap) -> list[TorsionVector]:
    """All x in (Q/Z)^n with (m - I)x integral; requires det(m - I) != 0.

    There are exactly |det(m - I)| solutions, returned sorted.
    """
    n = m.domain_rank
    a = m - LatticeMap.identity(n)
    u, d, v = smith_normal_form(a)
    diag = [d.rows[i][i] for i in range(n)]
    if any(x == 0 for x in diag):
        raise ValueError("m - I is singular; the fixed set is infinite")
    sols = []
    for ks in iproduct(*[range(x) for x in diag]):
        y = [Fraction(k, x) for k, x in zip(ks, diag)]
        x = [sum(Fraction(v.rows[i][j]) * y[j] for j in range(n)) for i in range(n)]
        sols.append(TorsionVector.from_fractions(x))
    sols = sorted(set(sols))
    expected = 1
    for x in diag:
        expected *= x
    if len(sols) != expected:
        raise AssertionError("solution count does not match |det(m - I)|")
    return sols
