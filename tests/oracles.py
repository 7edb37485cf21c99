"""Independent oracles used across test modules.

The Jacobi checker rebuilds the Lie bracket from a constants table and
verifies the Jacobi identity on basis triples; it never looks inside the
construction being tested.  The matrix oracle realizes the pinned flip of the
special linear algebra concretely and reads the root-space signs off actual
matrix conjugation.  The diagram walker finds a Cartan type from the shape
of the Dynkin diagram, where the library reads it off root counts.  The
action oracle checks the homomorphism and twist-cocycle laws of a group
action on every pair of elements, where the library checks generators only.
The orbit oracle closes a torsion point under full reflection matrices, where
the library steps by one sparse coroot pairing in generated code;
``orbit_meets`` steps by sparse pairings too, in a plain loop written here
that stops at the point it looks for.  The Weyl-group oracle closes
the identity under the same matrices, where the library walks integer keys
and builds each matrix from its parent's rows.
The Fraction eliminations ``_det``, ``_rank`` and ``solve_rational`` are the
reference for the library's one integer elimination, and the torsion
fixed-point scan tries every point of denominator |det(m - I)|, where the
library back-substitutes in a Hermite form.  The finite-order oracle tries
every power of a matrix up to the largest finite order in GL_n(Z), where the
library stops on the trace of a power.

The invariant form is built from the coroots of each irreducible
component, found here by its own pairing scan.  The last three functions
compare Cartan types up to the low-rank coincidences and evaluate a bilinear
form; only tests need them.

``verify_conorm_well_defined`` drives the library's fold and conorm on random
points and tests the lifts for Weyl equivalence with ``orbit_meets``, so it
shares no orbit code with the library; it lives here because no
command runs it.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

from rootfold.duality_conorm import ConormData
from rootfold.exact_lattice import TorsionVector
from rootfold.folding import fold
from rootfold.root_datum import ValidationReport


def bracket_factory(sc):
    """Bracket on (root-space coeffs, Cartan coeffs) pairs of dicts/vectors."""
    rd = sc.base.datum
    rank = rd.rank
    root_set = set(rd.roots)
    # every N_{a,b} the bracket can need, read from the table once
    n_ab = {(a, b): sc.n(a, b) for a in rd.roots for b in rd.roots
            if tuple(p + q for p, q in zip(a, b)) in root_set}

    def bracket(x, y):
        # x, y: ({root: coeff}, [cartan coeffs length rank])
        rx, hx = x
        ry, hy = y
        ro, ho = {}, [0] * rank
        for a, ca in rx.items():
            for b, cb in ry.items():
                s = tuple(p + q for p, q in zip(a, b))
                if s == (0,) * rank:
                    cv = rd.coroot_of(a)
                    for i in range(rank):
                        ho[i] += ca * cb * cv[i]
                elif s in root_set:
                    ro[s] = ro.get(s, 0) + ca * cb * n_ab[a, b]
        for a, ca in rx.items():
            pairing = sum(hy[i] * a[i] for i in range(rank))
            ro[a] = ro.get(a, 0) - ca * pairing
        for b, cb in ry.items():
            pairing = sum(hx[i] * b[i] for i in range(rank))
            ro[b] = ro.get(b, 0) + cb * pairing
        return ro, ho

    return bracket


def check_jacobi(sc):
    """Jacobi identity over all basis triples that can interact; returns failures."""
    rd = sc.base.datum
    rank = rd.rank
    bracket = bracket_factory(sc)
    zero = (0,) * rank
    root_set = set(rd.roots)

    def unit(a):
        return ({a: 1}, [0] * rank)

    def h_unit(i):
        v = [0] * rank
        v[i] = 1
        return ({}, v)

    def is_zero(x):
        rx, hx = x
        return all(v == 0 for v in rx.values()) and all(v == 0 for v in hx)

    def add(x, y):
        rx, hx = x
        ry, hy = y
        ro = dict(rx)
        for k, v in ry.items():
            ro[k] = ro.get(k, 0) + v
        return ro, [p + q for p, q in zip(hx, hy)]

    failures = []
    # root-root-root triples with total weight in the root system or zero
    pair_ok = [(a, b) for a in rd.roots for b in rd.roots
               if tuple(p + q for p, q in zip(a, b)) in root_set
               or tuple(p + q for p, q in zip(a, b)) == zero]
    for a, b in pair_ok:
        for c in rd.roots:
            total = tuple(p + q + r for p, q, r in zip(a, b, c))
            if total not in root_set and total != zero:
                continue
            xa, xb, xc = unit(a), unit(b), unit(c)
            s = add(add(bracket(bracket(xa, xb), xc), bracket(bracket(xb, xc), xa)),
                    bracket(bracket(xc, xa), xb))
            if not is_zero(s):
                failures.append((a, b, c))
    # cartan-root and cartan-cartan triples
    for i in range(rank):
        for a in rd.roots:
            for b in rd.roots:
                xa, xb, hi = unit(a), unit(b), h_unit(i)
                s = add(add(bracket(bracket(hi, xa), xb), bracket(bracket(xa, xb), hi)),
                        bracket(bracket(xb, hi), xa))
                if not is_zero(s):
                    failures.append(("h", i, a, b))
    return failures


def sl_pinned_flip_scalars(m):
    """Root-space signs of the pinned flip on traceless m x m matrices.

    The flip sends the elementary matrix with 1 in row i, column j (1-based) to
    (-1)^(i+j+1) times the one in row m+1-j, column m+1-i.  The function
    verifies this map preserves brackets before reading off the signs.

    Returns {root of the diagonal-torus datum on Z^m: exponent 0 or 1/2}.
    """

    def unit_matrix(i, j):
        return tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(m))
                     for r in range(m))

    def mat_mul(x, y):
        return tuple(tuple(sum(x[r][k] * y[k][c] for k in range(m))
                           for c in range(m)) for r in range(m))

    def mat_sub(x, y):
        return tuple(tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))

    def comm(x, y):
        return mat_sub(mat_mul(x, y), mat_mul(y, x))

    def theta(x):
        out = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                if x[i][j]:
                    out[m - 1 - j][m - 1 - i] += ((-1) ** (i + j + 1)) * x[i][j]
        return tuple(tuple(r) for r in out)

    # closure under brackets of elementary and diagonal basis elements
    basis = [unit_matrix(i, j) for i in range(m) for j in range(m) if i != j]
    basis += [mat_sub(unit_matrix(i, i), unit_matrix(i + 1, i + 1)) for i in range(m - 1)]
    for x in basis:
        for y in basis:
            assert theta(comm(x, y)) == comm(theta(x), theta(y)), "flip is not an automorphism"

    scalars = {}
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            root = tuple(1 if k == i else (-1 if k == j else 0) for k in range(m))
            sign = (-1) ** (i + j + 1)
            scalars[root] = Fraction(0) if sign == 1 else Fraction(1, 2)
    return scalars


def gl_class_count(n, q):
    """Semisimple class count of GL_n over F_q, counted like a textbook would:
    multisets of Frobenius orbits on the prime-to-p roots of unity, total size n.

    Degree-d points are orbits of x -> q*x on Z/(q^d - 1) of exact size d.
    """
    orbit_count = {}
    for d in range(1, n + 1):
        mod = q ** d - 1
        seen = set()
        cnt = 0
        for a in range(mod):
            if a in seen:
                continue
            orb = set()
            x = a
            while x not in orb:
                orb.add(x)
                x = x * q % mod
            seen |= orb
            if len(orb) == d:
                cnt += 1
        orbit_count[d] = cnt
    coeffs = [1] + [0] * n
    for d, c in orbit_count.items():
        for _ in range(c):
            for i in range(d, n + 1):
                coeffs[i] += coeffs[i - d]
    return coeffs[n]


def _det(rows):
    """Determinant of a square integer matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


# the largest order of an element of finite order in GL_n(Z), n = 0, ..., 6
# (OEIS A005417)
GLNZ_MAX_ORDER = (1, 2, 6, 6, 12, 12, 30)


def has_finite_order(rows):
    """Whether some power of the integer matrix ``rows``, of size n <= 6, is the
    identity, trying every power up to ``GLNZ_MAX_ORDER[n]``."""
    n = len(rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    cols = list(zip(*rows))
    power = [list(row) for row in rows]
    for _ in range(GLNZ_MAX_ORDER[n]):
        if power == identity:
            return True
        power = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in power]
    return False


def _rank(rows, ncols):
    """Rank of an integer matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][c] / a[rank][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


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


def steinberg_count(simple_roots, tau, q):
    """Steinberg's count |Z°^F| q^l of the Frobenius-stable semisimple classes.

    The classes are Weyl orbits of torsion points of the torus with
    cocharacter lattice X = Z^n, on which the Frobenius acts by q * tau (tau
    given by its rows); l is the number of simple roots.  Z° is isogenous to
    the torus with cocharacters X / (X ∩ QΦ), so |Z°^F| = |det(q tau - 1)| on
    that quotient: the determinant on X divided by the one on QΦ.  With S the
    simple roots as columns, tau S = S M and S^T tau S = (S^T S) M give the
    latter as det(q S^T tau S - S^T S) / det(S^T S).
    """
    n = len(tau)
    s = [list(r) for r in simple_roots]  # the columns of S, as rows
    tau_s = [[sum(tau[i][k] * r[k] for k in range(n)) for i in range(n)] for r in s]
    gram = [[sum(x * y for x, y in zip(a, b)) for b in s] for a in s]
    twisted = [[sum(x * y for x, y in zip(a, b)) for b in tau_s] for a in s]
    on_x = _det([[q * tau[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)])
    on_roots = _det([[q * t - g for t, g in zip(rt, rg)] for rt, rg in zip(twisted, gram)])
    centre = abs(on_x * _det(gram) / on_roots)
    assert centre.denominator == 1, "the centre's point count must be an integer"
    return int(centre) * q ** len(s)


def fixed_point_count(rows):
    """d = |det(m - I)|, m given by its rows: the scan below tries d^n points."""
    return abs(int(_det([[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(rows)])))


def torsion_fixed_points(rows):
    """The x in (Q/Z)^n with (m - I)x integral, m given by its rows, by a scan.

    With d = |det(m - I)| > 0 every such x is y/d for a y in (Z/d)^n, so
    every y with (m - I)y = 0 mod d is kept, in lowest terms, as the pair
    (denominator, numerators); the pairs come back sorted.
    """
    a = [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(rows)]
    d = fixed_point_count(rows)
    points = set()
    for y in product(range(d), repeat=len(rows)):
        if all(_dot(r, y) % d == 0 for r in a):
            g = gcd(d, *y)
            points.add((d // g, tuple(v // g for v in y)))
    return sorted(points)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _apply(rows, v):
    return tuple(_dot(row, v) for row in rows)


def brute_force_orbit(nums, den, roots, coroots):
    """The orbit of nums/den in (Q/Z)^n under the reflections in ``roots``.

    ``roots[k]`` pairs with ``coroots[k]``; the reflection is the full matrix
    I - a a^vee^T, applied by a matrix product.  Returns the numerator tuples
    mod den of the closure of the point under those matrices.
    """
    n = len(nums)
    mats = [[[(r == c) - a[r] * av[c] for c in range(n)] for r in range(n)]
            for a, av in zip(roots, coroots)]
    start = tuple(x % den for x in nums)
    orbit, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for m in mats:
            w = tuple(x % den for x in _apply(m, v))
            if w not in orbit:
                orbit.add(w)
                todo.append(w)
    return orbit


def orbit_meets(start, needle, den, roots, coroots) -> bool:
    """Whether needle/den lies in the orbit of start/den under the reflections in ``roots``.

    ``roots[k]`` pairs with ``coroots[k]``.  Breadth-first from ``start``; a
    step pairs a point with a coroot over the coroot's nonzero entries only,
    and the walk stops as soon as it meets ``needle``.
    """
    start = tuple(x % den for x in start)
    needle = tuple(x % den for x in needle)
    steps = [(a, [(j, x) for j, x in enumerate(av) if x]) for a, av in zip(roots, coroots)]
    seen, frontier = {start}, [start]
    while frontier and needle not in seen:
        found = []
        for v in frontier:
            for a, support in steps:
                c = sum(v[j] * x for j, x in support) % den
                w = tuple((y - c * z) % den for y, z in zip(v, a))
                if w not in seen:
                    seen.add(w)
                    found.append(w)
        frontier = found
    return needle in seen


def weyl_matrices_by_closure(n, simple_roots, simple_coroots):
    """The Weyl group's matrices on X = Z^n, each with its lex-least reduced word.

    Closes {I} under right multiplication by the full reflection matrices
    I - a a^vee^T of the simple roots, breadth-first, trying the reflections
    in index order from the elements in the order they were found.  By
    induction on the length, each level is then found in the lex order of the
    words, and each element first along its lex-least reduced word.  Returns
    {matrix rows: word} in that order.
    """
    identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    gens = [[[(r == c) - a[r] * av[c] for c in range(n)] for r in range(n)]
            for a, av in zip(simple_roots, simple_coroots)]
    words = {identity: ()}
    frontier = [identity]
    while frontier:
        found = []
        for m in frontier:
            for i, g in enumerate(gens):
                p = tuple(tuple(_dot(row, col) for col in zip(*g)) for row in m)
                if p not in words:
                    words[p] = words[m] + (i,)
                    found.append(p)
        frontier = found
    return words


def action_is_valid(table, diagrams, twists, roots, coroots) -> bool:
    """Brute-force verdict on an action of a finite group on a root datum.

    ``table`` is the multiplication table (element 0 the identity),
    ``diagrams[i]`` the integer rows of element i on the characters and
    ``twists[i]`` its cocharacter as Fractions; ``roots[k]`` pairs with
    ``coroots[k]``.  Each diagram part must have determinant +-1, permute the
    roots and, transposed, carry the coroot of each image back to the coroot
    of its root; element 0 must act trivially; and for every pair (i, j),
    D(ij) = D(i) D(j) and t(ij) - t(i) - i.t(j) must pair integrally with
    every root.  Pairing with D(i) r instead of r gives the last condition
    as <t(ij) - t(i), D(i) r> - <t(j), r>, which needs no inverse.
    """
    roots = [tuple(r) for r in roots]
    coroot = dict(zip(roots, map(tuple, coroots)))
    n = len(diagrams[0])
    for d in diagrams:
        if abs(_det(d)) != 1 or sorted(_apply(d, r) for r in roots) != sorted(roots):
            return False
        d_t = [[d[k][c] for k in range(n)] for c in range(n)]
        if any(_apply(d_t, coroot[_apply(d, r)]) != coroot[r] for r in roots):
            return False
    if [list(row) for row in diagrams[0]] != [[int(r == c) for c in range(n)]
                                              for r in range(n)]:
        return False
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            product = [[_dot(a, [b[c] for b in diagrams[j]]) for c in range(n)]
                       for a in diagrams[i]]
            if [list(r) for r in diagrams[k]] != product:
                return False
            for r in roots:
                moved = _apply(diagrams[i], r)
                defect = _dot(twists[k], moved) - _dot(twists[i], moved) - _dot(twists[j], r)
                if Fraction(defect).denominator != 1:
                    return False
    return True


def _recognize_diagram(pair):
    """Cartan type of one connected Dynkin diagram given by its Cartan matrix.

    ``pair[a, b]`` is <simple root b, simple coroot a>.  B2 is reported as C2
    and D3 as A3; a diagram of no finite type raises ValueError.
    """
    n = max(a for a, _ in pair) + 1
    bonds = {}
    adj = {a: [] for a in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            k = pair[a, b] * pair[b, a]
            if k:
                bonds[a, b] = k
                adj[a].append(b)
                adj[b].append(a)
    if n == 1:
        return ("A", 1)
    if len(bonds) != n - 1:
        raise ValueError("component diagram is not a tree")
    degs = sorted(len(v) for v in adj.values())
    triple = [e for e, k in bonds.items() if k == 3]
    double = [e for e, k in bonds.items() if k == 2]
    if triple:
        if n == 2 and not double:
            return ("G", 2)
        raise ValueError("unrecognized diagram with a triple bond")
    if double:
        if len(double) > 1 or degs[-1] > 2:
            raise ValueError("unrecognized doubly-laced diagram")
        a, b = double[0]
        ends = [v for v in (a, b) if len(adj[v]) == 1]
        if n == 2:
            return ("C", 2)
        if not ends:
            if n == 4:
                return ("F", 4)
            raise ValueError("double bond strictly inside a chain: not finite type")
        if len(ends) != 1:
            raise ValueError("rank >= 3 chain cannot have both double-bond nodes terminal")
        end = ends[0]
        other = b if end == a else a
        # <long, short coroot> = -2: the end node is short exactly in type B
        return ("B", n) if pair[end, other] == -2 else ("C", n)
    if degs[-1] > 3 or degs.count(3) > 1:
        raise ValueError("unrecognized simply-laced diagram")
    if degs[-1] <= 2:
        return ("A", n)
    center = next(v for v in adj if len(adj[v]) == 3)
    arms = []
    for start in adj[center]:
        ln = 1
        prev, cur = center, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        arms.append(ln)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return ("E", arms[2] + 4)
    raise ValueError("unrecognized branched diagram")


def diagram_cartan_type(rank, roots, coroots):
    """Cartan type by walking the Dynkin diagram of each irreducible component.

    Components are the classes of the relation <a, b^vee> != 0.  Each gets
    its own base: the roots positive under f = (1, m, m^2, ...), m one more
    than the largest coordinate, which no nonzero root annihilates, less the
    sums of two positive roots.  Returns (sorted (family, rank) pairs, rank
    minus the semisimple rank), like ``rootfold.cartan_type``.
    """
    roots = [tuple(r) for r in roots]
    coroots = [tuple(c) for c in coroots]
    m = 1 + max((abs(x) for r in roots for x in r), default=0)
    f = [m ** i for i in range(rank)]
    left = set(range(len(roots)))
    types = []
    while left:
        comp = {left.pop()}
        frontier = list(comp)
        while frontier:
            i = frontier.pop()
            linked = {j for j in left if _dot(roots[i], coroots[j]) or _dot(roots[j], coroots[i])}
            left -= linked
            comp |= linked
            frontier.extend(linked)
        pos = {roots[i] for i in comp if _dot(f, roots[i]) > 0}
        simples = [a for a in sorted(pos)
                   if not any(tuple(x - y for x, y in zip(a, b)) in pos for b in pos)]
        cosimples = [coroots[roots.index(a)] for a in simples]
        pair = {(a, b): _dot(simples[b], cosimples[a])
                for a in range(len(simples)) for b in range(len(simples))}
        types.append(_recognize_diagram(pair))
    types.sort()
    return tuple(types), rank - sum(n for _, n in types)


def invariant_inner_product(rd):
    """Weyl- and automorphism-invariant form on X (x) Q as a Fraction matrix.

    Per irreducible component (roots linked by nonzero pairings), the sum of
    c c^T over its coroots c, scaled so that its long roots have squared
    length 2.  Positive semidefinite with radical exactly the central
    directions.  ``rd`` is anything with ``rank``, ``roots`` and ``coroots``.
    """
    n = rd.rank
    form = [[Fraction(0)] * n for _ in range(n)]
    left = set(range(len(rd.roots)))
    while left:
        comp = [left.pop()]
        for i in comp:
            linked = [j for j in left if _dot(rd.roots[i], rd.coroots[j])]
            left.difference_update(linked)
            comp.extend(linked)
        gram = [[sum(rd.coroots[k][r] * rd.coroots[k][c] for k in comp) for c in range(n)]
                for r in range(n)]
        longest = max(_dot(rd.roots[k], _apply(gram, rd.roots[k])) for k in comp)
        for r in range(n):
            for c in range(n):
                form[r][c] += Fraction(2 * gram[r][c], longest)
    return tuple(tuple(row) for row in form)


def random_torsion_points(rank, count, den_bound, p, seed):
    """Torsion points with denominator at most den_bound and coprime to p."""
    rng = random.Random(seed)
    dens = [d for d in range(1, den_bound + 1) if d % p != 0]
    out = []
    for _ in range(count):
        den = rng.choice(dens)
        out.append(TorsionVector(tuple(rng.randrange(den) for _ in range(rank)), den))
    return out


def verify_conorm_well_defined(a, count=100, den_bound=24, p=2, seed=0) -> ValidationReport:
    """Weyl-equivalent folded points must lift to Weyl-equivalent source points.

    A point's partner is its image under a random word in the folded simple
    reflections, no longer than the number of folded roots.
    """
    fd = fold(a)
    conorm = ConormData(fd)
    target = fd.source.base
    simples = [fd.fixed.reflection(i) for i in fd.fixed_base.simple_indices]
    rng = random.Random(seed + 1)
    problems = []
    for x in random_torsion_points(fd.rank, count, den_bound, p, seed):
        y = x
        for _ in range(rng.randrange(len(fd.fixed.roots) + 1)):
            y = y.apply(rng.choice(simples))
        lx, ly = conorm.apply(x), conorm.apply(y)
        if lx.den != ly.den or not orbit_meets(lx.nums, ly.nums, lx.den, target.simple_roots,
                                               target.simple_coroots):
            problems.append(f"lift depends on representative at {x.fractions()}")
            break
    return ValidationReport(problems)


_TYPE_ALIASES = {
    ("B", 1): ("A", 1), ("C", 1): ("A", 1),
    ("B", 2): ("C", 2),
    ("D", 2): None,  # splits into A1 + A1 and never appears as one component
    ("D", 3): ("A", 3),
}


def normalize_type(t):
    return _TYPE_ALIASES.get(t, t) or t


def same_type(a, b) -> bool:
    """Compare type lists up to the classical low-rank coincidences."""
    return sorted(map(normalize_type, a)) == sorted(map(normalize_type, b))


def form_value(form, u, v) -> Fraction:
    return sum(Fraction(u[r]) * form[r][c] * v[c] for r in range(len(u)) for c in range(len(v)))
