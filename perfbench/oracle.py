"""Output oracles for the benchmark, sharing no code with rootfold.

The class-count oracle is Steinberg's theorem (Mem. AMS 80, 1968): a
Frobenius F = q * tau has |Z°^F| * q^l stable semisimple classes, where l is
the semisimple rank and Z° the connected centre.  Points live in X (x) Q/Z, so
Z° here is the torus whose lattice is the part of X orthogonal to every
coroot.  Because X (x) Q splits tau-stably into the root span and that part,

    |Z°^F| = |det(q tau - 1) on X| / |det(q tau - 1) on the root span|.

Only plain integer data enters: the simple roots, the twist matrix and q.
"""

import hashlib
import json
from fractions import Fraction


def det(rows):
    """Exact determinant of a square matrix of integers or fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return out


def coordinates(basis, v):
    """Exact coordinates of v in the span of the basis vectors, or None."""
    n, m = len(basis), len(v)
    a = [[Fraction(basis[j][i]) for j in range(n)] + [Fraction(v[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    if any(a[i][n] != 0 for i in range(r, m)):
        return None
    coords = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        coords[c] = a[i][n]
    return coords


def _apply(rows, v):
    return [sum(x * y for x, y in zip(row, v)) for row in rows]


def _char_det(q, m):
    n = len(m)
    return abs(det([[q * m[i][j] - (1 if i == j else 0) for j in range(n)]
                    for i in range(n)]))


def steinberg_count(simple_roots, tau, q):
    """|Z°^F| * q^l for F = q * tau on X; None if tau does not keep the root span."""
    simple = [list(a) for a in simple_roots]
    cols = []
    for a in simple:
        c = coordinates(simple, _apply(tau, a))
        if c is None:
            return None
        cols.append(c)
    l = len(simple)
    on_roots = [[cols[k][i] for k in range(l)] for i in range(l)]
    centre = _char_det(q, tau) / (_char_det(q, on_roots) if l else 1)
    if centre.denominator != 1:
        return None
    return int(centre) * q ** l


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def type_string(golden) -> str:
    """The CLI's Cartan type string for a golden fold, e.g. 'A1xA1'."""
    return "x".join(f"{fam}{rank}" for fam, rank in golden) or "T0"


# isomorphic low-rank types: B1 = C1 = A1, C2 = B2, D2 = A1xA1, D3 = A3
_SAME = {"B1": ("A1",), "C1": ("A1",), "C2": ("B2",), "D2": ("A1", "A1"), "D3": ("A3",)}


def same_type(a: str, b: str) -> bool:
    """Whether two CLI type strings name the same type up to the coincidences."""
    def norm(s):
        return sorted(x for part in s.split("x") for x in _SAME.get(part, (part,)))
    return norm(a) == norm(b)
