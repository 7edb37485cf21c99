"""Exact integer lattice maps, normal forms, and torsion points of tori.

All matrices are tuples of tuples of Python ints, so every operation is
arbitrary-precision and deterministic.  One integer elimination, ``_echelon``
(row Hermite form carried across augmented rows), underlies every normal
form, determinant, inverse, kernel, section and solve here, torsion fixed
points included.  No command takes a Smith form: ``smith_normal_form`` stays
only because the tracer in ``perfbench/`` binds it, until ROADMAP item 1
re-points that tracer.  Torsion vectors model points of a torus with
cocharacter lattice Z^n: an element of (Q/Z)^n kept in reduced canonical form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import index, mul


Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _echelon(rows, width: int) -> tuple[list[list[int]], int]:
    """Row Hermite form of the first ``width`` columns, carried across whole rows.

    Unimodular row operations put the first ``width`` columns of ``rows`` in
    row Hermite form and act on the rest of each row as well, so [A | I]
    comes back as [H | W] with W @ A = H.  Returns the rows and det W (+-1).
    Pivot columns strictly increase, pivots are positive, entries above a
    pivot lie in [0, pivot), and rows that vanish on the first ``width``
    columns come last.
    """
    rows = [list(r) for r in rows]
    nr = len(rows)
    sign = 1
    r = 0
    for c in range(width):
        if r == nr:
            break
        for piv in range(r, nr):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        # Euclid down column c, keeping the smaller entry in row r
        for i in range(r + 1, nr):
            while rows[i][c]:
                a, b = rows[r][c], rows[i][c]
                if abs(a) > abs(b):
                    rows[r], rows[i] = rows[i], rows[r]
                    sign = -sign
                    continue
                q = b // a
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        top = rows[r]
        if top[c] < 0:
            rows[r] = top = [-x for x in top]
            sign = -sign
        p = top[c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
        r += 1
    return rows, sign


def _transpose(rows, ncols: int) -> list[list[int]]:
    return [[r[j] for r in rows] for j in range(ncols)]


def _transpose_echelon(m: LatticeMap) -> list[list[int]]:
    """``_echelon`` of [m^T | I]: rows [h | w] with w @ m^T = h."""
    rows = zip(_transpose(m.rows, m.domain_rank), _eye(m.domain_rank))
    return _echelon([t + e for t, e in rows], m.codomain_rank)[0]


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
        self.rows: Mat = tuple([tuple(map(index, r)) for r in rows])
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
        return cls(_eye(n), n)

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

    def __matmul__(self, other: "LatticeMap") -> "LatticeMap":
        """self after other, i.e. the matrix product self @ other."""
        if self.domain_rank != other.codomain_rank:
            raise ValueError("rank mismatch in composition")
        return LatticeMap.from_columns([self(c) for c in other.columns()], self.codomain_rank)

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
        n = self.domain_rank
        if n != self.codomain_rank:
            raise ValueError("determinant of a non-square map")
        # W @ m = H with det W = +-1 and H triangular: det m = det W * (product of pivots)
        h, sign = _echelon(self.rows, n)
        return sign * prod(h[i][i] for i in range(n))

    def inverse_unimodular(self) -> "LatticeMap":
        """Inverse of a square integer matrix with determinant +-1."""
        n = self.domain_rank
        if n != self.codomain_rank:
            raise ValueError("inverse of a non-square map")
        # [m | I] -> [H | W]; H is the identity exactly when m is unimodular
        rows, _ = _echelon([[*r, *e] for r, e in zip(self.rows, _eye(n))], n)
        if any(rows[i][i] != 1 for i in range(n)):
            raise ValueError("matrix is not unimodular")
        return LatticeMap([r[n:] for r in rows], n)

    def __eq__(self, other):
        return (isinstance(other, LatticeMap) and self.rows == other.rows
                and self.domain_rank == other.domain_rank)

    def __hash__(self):
        return hash((self.rows, self.domain_rank))

    def __repr__(self):
        return f"LatticeMap({list(map(list, self.rows))}, domain_rank={self.domain_rank})"


def solve_integer(a: LatticeMap, b: LatticeMap):
    """Integer solutions x of a @ x = b, one per column of b.

    One tuple of ints or None per column of b: None where that column is not
    an integer combination of the columns of a, and for every column when the
    columns of a are dependent, so that no solution is unique.  [a | b] is
    put in row Hermite form on a's columns and solved by integer
    back-substitution.
    """
    n, k = a.codomain_rank, a.domain_rank
    if b.codomain_rank != n:
        raise ValueError("a and b must have the same number of rows")
    rows, _ = _echelon([[*ra, *rb] for ra, rb in zip(a.rows, b.rows)], k)
    if k > n or any(rows[i][i] == 0 for i in range(k)):
        return (None,) * b.domain_rank

    def back_substitute(j):
        if any(r[j] for r in rows[k:]):
            return None
        x = [0] * k
        for i in range(k - 1, -1, -1):
            q, rest = divmod(rows[i][j] - sum(map(mul, rows[i][i + 1:k], x[i + 1:])),
                             rows[i][i])
            if rest:
                return None
            x[i] = q
        return tuple(x)

    return tuple(back_substitute(j) for j in range(k, k + b.domain_rank))


# no command calls this; perfbench's tracer binds it until ROADMAP item 1
def smith_normal_form(m: LatticeMap) -> tuple[LatticeMap, LatticeMap, LatticeMap]:
    """Return (U, D, V) with U @ m @ V = D, U and V unimodular, D diagonal
    with nonnegative entries d_1 | d_2 | ... .

    Row Hermite passes on D and on its transpose alternate until D is
    diagonal (Kannan-Bachem); where d_i does not divide d_(i+1), row i+1 is
    added to row i and the passes go on.
    """
    nr, nc = m.codomain_rank, m.domain_rank
    # rows are [d | u] with d = u @ m @ other^T, or the transpose once flipped
    rows, width, other = [[*r, *e] for r, e in zip(m.rows, _eye(nr))], nc, _eye(nc)
    flipped = False
    while True:
        rows, _ = _echelon(rows, width)
        # echelon rows vanish left of the diagonal
        if not any(any(r[i + 1:width]) for i, r in enumerate(rows)):
            diag = [rows[i][i] for i in range(min(len(rows), width))]
            # zeros come last, and everything divides 0
            i = next((i for i in range(len(diag) - 1) if diag[i] and diag[i + 1] % diag[i]),
                     None)
            if i is None:
                break
            rows[i] = [x + y for x, y in zip(rows[i], rows[i + 1])]
        # flip: the columns of d, each beside its row of other, and u becomes other
        rows, other, width = ([[*c, *e] for c, e in zip(zip(*rows), other)],
                              [r[width:] for r in rows], len(rows))
        flipped = not flipped
    d, u = [r[:width] for r in rows], [r[width:] for r in rows]
    if flipped:
        d, u, other = _transpose(d, width), other, u
    return LatticeMap(u, nr), LatticeMap(d, nc), LatticeMap(_transpose(other, nc), nc)


def row_hermite_form(m: LatticeMap) -> LatticeMap:
    """Canonical row Hermite normal form W @ m for unimodular W.

    Pivot columns strictly increase, pivots are positive, and entries above a
    pivot are reduced into [0, pivot).  Zero rows are collected at the bottom.
    """
    return LatticeMap(_echelon(m.rows, m.domain_rank)[0], m.domain_rank)


def column_hermite_form(m: LatticeMap) -> LatticeMap:
    """Canonical column Hermite normal form m @ V, zero columns dropped.

    The unique basis of the column span with pivot rows strictly increasing,
    positive pivots, and entries left of a pivot reduced into [0, pivot).
    """
    h = row_hermite_form(m.transpose())
    return LatticeMap.from_columns([r for r in h.rows if any(r)], m.codomain_rank)


def kernel_basis(m: LatticeMap) -> LatticeMap:
    """Basis (columns) of the integer kernel of m; always a saturated sublattice."""
    nr, nc = m.codomain_rank, m.domain_rank
    # w @ m^T = 0 on the rows [0 | w] of the reduced [m^T | I]
    ker = [r[nr:] for r in _transpose_echelon(m) if not any(r[:nr])]
    return LatticeMap.from_columns(_echelon(ker, nc)[0], nc)


def right_inverse(p: LatticeMap) -> LatticeMap:
    """Integer right inverse of a surjective map p (p @ r = identity)."""
    r = p.codomain_rank
    # [p^T | I] -> [H | W] with H = [I; 0] exactly when p is onto; then p @ W^T = [I | 0]
    rows = _transpose_echelon(p)
    if r > p.domain_rank or any(rows[i][i] != 1 for i in range(r)):
        raise ValueError("map is not surjective")
    return LatticeMap.from_columns([row[r:] for row in rows[:r]], p.domain_rank)


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
        return solve_integer(self.basis, LatticeMap.from_columns([v], self.ambient_rank))[0]

    def saturation(self) -> "Sublattice":
        """Smallest sublattice containing this one with torsion-free quotient."""
        # the vectors killed by everything that kills this sublattice
        annihilator = kernel_basis(self.basis.transpose())
        return Sublattice(self.ambient_rank, kernel_basis(annihilator.transpose()))

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
        den = index(den)
        if den <= 0:
            raise ValueError("denominator must be positive")
        nums = [index(x) % den for x in nums]
        g = gcd(den, *nums)
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
        """Integers and Fractions only: ``Fraction(f, 1)`` raises ``TypeError`` on a float."""
        fracs = [Fraction(f, 1) for f in fracs]
        den = lcm(*(f.denominator for f in fracs))
        return cls([int(f * den) for f in fracs], den)

    @property
    def rank(self) -> int:
        return len(self.nums)

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def apply(self, m: LatticeMap) -> "TorsionVector":
        return TorsionVector(m(self.nums), self.den)

    def __add__(self, other: "TorsionVector") -> "TorsionVector":
        den = lcm(self.den, other.den)
        a = den // self.den
        b = den // other.den
        return TorsionVector([a * x + b * y for x, y in zip(self.nums, other.nums, strict=True)], den)

    def scale(self, c: int) -> "TorsionVector":
        return TorsionVector([c * x for x in self.nums], self.den)

    def pairing(self, covector) -> Fraction:
        """Pair with an integer covector; result is a Fraction in [0, 1)."""
        return Fraction(dot(covector, self.nums) % self.den, self.den)

    def is_zero(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        return isinstance(other, TorsionVector) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def __lt__(self, other):
        return (self.den, self.nums) < (other.den, other.nums)

    def __repr__(self):
        return f"TorsionVector({list(self.nums)}/{self.den})"


def _torsion_fixed_numerators(rows, n: int) -> tuple[int, set[Vec]]:
    """(d, the numerators y in [0, d)^n of the x = y/d with A x integral), d = |det A|.

    A is the n x n integer system given by its ``rows``; the fixed points of
    m pass m - I.  The row Hermite form H = W @ A, W unimodular, is integral
    on x exactly when A is, and is upper triangular with diagonal h_1 ... h_n
    of product d.  From the last row up, row i gives h_i values
    y_i = (k d - sum_(j>i) H_ij y_j) / h_i mod d, k < h_i; the division is
    exact because each y_j is a multiple of h_1 ... h_(j-1).  The y are not
    reduced: y/d is in lowest terms only when gcd(d, y) = 1.  Raises
    ``ValueError`` when A is singular.
    """
    h, _ = _echelon(rows, n)
    diag = [h[i][i] for i in range(n)]
    if not all(diag):
        raise ValueError("the system is singular; its torsion kernel is infinite")
    d = prod(diag)
    tails = [()]
    for i in reversed(range(n)):
        hi, step = diag[i], d // diag[i]
        shifts = [sum(map(mul, h[i][i + 1:], t)) // hi for t in tails]
        tails = [((k * step - s) % d, *t) for t, s in zip(tails, shifts) for k in range(hi)]
    numerators = set(tails)
    if len(numerators) != d:
        raise AssertionError("solution count does not match |det A|")
    return d, numerators


# no command calls this; perfbench's tracer binds it until ROADMAP item 1
def solve_torsion_fixed(m: LatticeMap) -> list[TorsionVector]:
    """All x in (Q/Z)^n with (m - I)x integral; requires det(m - I) != 0.

    There are exactly d = |det(m - I)| solutions x = y/d, returned sorted;
    the numerators y come from ``_torsion_fixed_numerators`` on m - I, which
    raises ``ValueError`` when it is singular.
    """
    n = m.domain_rank
    d, numerators = _torsion_fixed_numerators((m - LatticeMap.identity(n)).rows, n)
    return sorted(TorsionVector(y, d) for y in numerators)
