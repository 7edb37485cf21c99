"""Root data with explicit root and coroot vectors, and their Weyl groups.

A root datum is (X, Phi, X^vee, Phi^vee) with X = Z^rank and the standard dot
pairing.  Roots are stored as explicit vectors so that non-semisimple groups
(GL(n), central tori) are first-class.  The simply-laced length convention is
"every root is long".
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import lru_cache
from math import factorial
from operator import index

from .exact_lattice import LatticeMap, dot, solve_integer, vadd, vneg, vsub


class WeylCapError(RuntimeError):
    pass


_WEYL_CAP = 1_000_000  # the largest Weyl group weyl_group builds


class RootDatum:
    """Rank, roots, and coroots; index i of `roots` pairs with index i of `coroots`.

    The hash is computed on the first ``__hash__`` and kept, since caches
    keyed by a datum or its bases look it up on every call.
    """

    __slots__ = ("rank", "roots", "coroots", "_index", "_hash")

    def __init__(self, rank: int, roots, coroots):
        self.rank = index(rank)
        if self.rank < 0:
            raise ValueError(f"rank {self.rank} is negative")
        self.roots = tuple(tuple(map(index, r)) for r in roots)
        self.coroots = tuple(tuple(map(index, c)) for c in coroots)
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots must correspond one to one")
        for v in self.roots + self.coroots:
            if len(v) != self.rank:
                raise ValueError("root or coroot of wrong rank")
        self._index = {r: i for i, r in enumerate(self.roots)}
        if len(self._index) != len(self.roots):
            raise ValueError("duplicate roots")
        self._hash = None

    def root_index(self, v) -> int:
        return self._index[tuple(v)]

    def is_root(self, v) -> bool:
        return tuple(v) in self._index

    def coroot_of(self, v):
        return self.coroots[self._index[tuple(v)]]

    def reflection(self, i: int) -> LatticeMap:
        """s_i on X: x -> x - <x, coroot_i> root_i."""
        a = self.roots[i]
        av = self.coroots[i]
        n = self.rank
        return LatticeMap([[ (1 if r == c else 0) - a[r] * av[c] for c in range(n)]
                           for r in range(n)])

    def __eq__(self, other):
        return (isinstance(other, RootDatum) and self.rank == other.rank
                and self.roots == other.roots and self.coroots == other.coroots)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rank, self.roots, self.coroots))
        return self._hash

    def __repr__(self):
        return f"RootDatum(rank={self.rank}, {len(self.roots)} roots)"


class BasedRootDatum:
    """A root datum with a chosen simple system (indices into `roots`).

    The simple-root coefficients of all the roots come from one elimination,
    made the first time they are needed and kept with the base.
    """

    __slots__ = ("datum", "simple_indices", "_root_coefficients")

    def __init__(self, datum: RootDatum, simple_indices):
        self.datum = datum
        self.simple_indices = tuple(map(index, simple_indices))
        self._root_coefficients = None

    @property
    def simple_roots(self):
        return tuple(self.datum.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.datum.coroots[i] for i in self.simple_indices)

    def _solve(self, vectors):
        """Integer simple-root coefficients of each vector, by one elimination.

        None for a vector that is not an integer combination of the simples,
        and for every vector when the simples are dependent.
        """
        rank = self.datum.rank
        return solve_integer(LatticeMap.from_columns(self.simple_roots, rank),
                             LatticeMap.from_columns(vectors, rank))

    def root_coefficients(self):
        """Simple-root coefficients of every root, in root order; None where there are none."""
        if self._root_coefficients is None:
            self._root_coefficients = self._solve(self.datum.roots)
        return self._root_coefficients

    def simple_coefficients(self, v):
        """Integer coefficients of v in the simple roots, or None if there are none.

        None also when the simple roots are linearly dependent.
        """
        i = self.datum._index.get(tuple(v))
        if i is not None:
            return self.root_coefficients()[i]
        return self._solve([v])[0]

    def positive_roots(self):
        """Roots whose simple-root coefficients are all nonnegative."""
        return tuple(i for i, c in enumerate(self.root_coefficients())
                     if c is not None and all(x >= 0 for x in c))

    def __eq__(self, other):
        return (isinstance(other, BasedRootDatum) and self.datum == other.datum
                and self.simple_indices == other.simple_indices)

    def __hash__(self):
        return hash((self.datum, self.simple_indices))

    def __repr__(self):
        return f"BasedRootDatum(rank={self.datum.rank}, {len(self.simple_indices)} simples)"


class ValidationReport(namedtuple("ValidationReport", "problems")):
    """The problems a check found, as a tuple of strings; it passed when there are none."""

    __slots__ = ()

    def __new__(cls, problems):
        return super().__new__(cls, tuple(problems))

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self):
        return self.ok


def validate(rd: RootDatum | BasedRootDatum) -> ValidationReport:
    """Check the root-datum axioms; for a based datum also check the base."""
    base = None
    if isinstance(rd, BasedRootDatum):
        base = rd
        rd = rd.datum
    problems = []
    root_set = set(rd.roots)
    for i, (a, av) in enumerate(zip(rd.roots, rd.coroots)):
        if dot(a, av) != 2:
            problems.append(f"<root {i}, its coroot> = {dot(a, av)} != 2")
        if vneg(a) not in root_set:
            problems.append(f"root {i} has no negative")
        for c in (2, 3):
            if tuple(c * x for x in a) in root_set:
                problems.append(f"root system not reduced at root {i}")
    # negation must match up coroots too; each +-pair is checked once
    for i, a in enumerate(rd.roots):
        na = vneg(a)
        if na in root_set:
            j = rd.root_index(na)
            if i < j and rd.coroots[j] != vneg(rd.coroots[i]):
                problems.append(f"roots {i} and {j}: coroot of -a is not -coroot(a)")
    # each reflection is an automorphism of the datum; s_a = s_-a once the
    # coroots of a and -a are opposite, so one root of each pair is checked
    for i, a in enumerate(rd.roots):
        if problems:
            break
        if i > rd.root_index(vneg(a)):
            continue
        problem = morphism_problem(rd.reflection(i), rd, rd)
        if problem:
            problems.append(f"reflection {i} {problem}")
    if base is not None and not problems:
        for i in base.simple_indices:
            if i < 0 or i >= len(rd.roots):
                problems.append("simple index out of range")
        # the zero vector has coefficients exactly when the simples are independent
        if not problems and base.simple_coefficients((0,) * rd.rank) is None:
            problems.append("simple roots are linearly dependent")
        if not problems:
            for r in rd.roots:
                c = base.simple_coefficients(r)
                if c is None or not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
                    problems.append(f"root {r} is not one-signed over the base")
                    break
    return ValidationReport(problems)


def _combination(coefficients, vectors, total):
    """``total`` plus x * v for each nonzero x of ``coefficients`` and its v in ``vectors``."""
    for x, v in zip(coefficients, vectors):
        if x:
            total = tuple([a + x * b for a, b in zip(total, v)])
    return total


def morphism_problem(m: LatticeMap, dom: RootDatum, cod: RootDatum) -> str | None:
    """Why m: X(dom) -> X(cod) is no morphism of root data, or None if it is one.

    A morphism maps the roots of dom one to one onto those of cod, and its
    transpose carries the coroot of each image back to the coroot of the root.
    The message names the first bad root; callers prefix their subject.
    """
    # m(r) sums columns of m and m^T(c) rows of m: roots and coroots are sparse
    cols, zero_image, zero_coroot = m.columns(), (0,) * m.codomain_rank, (0,) * m.domain_rank
    images = set()
    for r, rv in zip(dom.roots, dom.coroots):
        image = _combination(r, cols, zero_image)
        j = cod._index.get(image)
        if j is None or image in images:
            return f"does not permute the roots: {r} goes to {image}"
        if _combination(cod.coroots[j], m.rows, zero_coroot) != rv:
            return f"does not carry the coroot of {r} to that of {image}"
        images.add(image)
    if len(images) != len(cod.roots):
        return f"does not permute the roots: it reaches {len(images)} of {len(cod.roots)}"
    return None


def weyl_group(rd: RootDatum | BasedRootDatum) -> list[tuple[int, int]]:
    """The Weyl group as its breadth-first tree on the simple reflections.

    One (parent index, simple index) pair per element: element k is its
    parent times s_i, and the identity comes first, as (-1, -1).  The order
    is breadth-first from the identity with the simple reflections tried in
    index order, so parent indices never decrease, and the word read off the
    parent chain is the lexicographically least reduced word.  ``len()`` of
    the table is |W|; ``weyl_matrices`` turns it into matrices.

    Element w is keyed by the pairings of w^-1(rho) with the simple
    coroots, where rho in the span of the simple roots pairs to 1 with each
    of them, so the identity's key is (1, ..., 1).  rho is regular and the
    pairings are injective on that span, so the key determines w.  The step
    w -> w s_i subtracts key[i] times row i of the Cartan matrix from the
    key; rho itself is never built.  Raises WeylCapError before any step when |W| > _WEYL_CAP.
    """
    base = rd if isinstance(rd, BasedRootDatum) else based_from_datum(rd)
    order = weyl_group_order(base)
    if order > _WEYL_CAP:
        raise WeylCapError(f"Weyl group of order {order} exceeds the cap {_WEYL_CAP}")
    cosimples = base.simple_coroots
    cartan_rows = [tuple((j, x) for j, x in enumerate(dot(a, bv) for bv in cosimples) if x)
                   for a in base.simple_roots]
    key = (1,) * len(cosimples)
    seen = {key}
    table = [(-1, -1)]
    frontier = [(0, key)]
    while frontier:
        new_frontier = []
        for parent, key in frontier:
            for i, cartan_row in enumerate(cartan_rows):
                c = key[i]
                new_key = list(key)
                for j, a_ij in cartan_row:
                    new_key[j] -= c * a_ij
                new_key = tuple(new_key)
                if new_key not in seen:
                    seen.add(new_key)
                    new_frontier.append((len(table), new_key))
                    table.append((parent, i))
        frontier = new_frontier
    return table


def weyl_matrices(base: BasedRootDatum, table):
    """The matrix on X of each element of ``table``, one at a time, in its order.

    ``table`` is ``weyl_group(base)``: breadth-first, identity first, parent
    indices non-decreasing.  An element's matrix is its parent's times s_i,
    which sends each row y to y - <y, a_i> a_i^vee; rows of Weyl-group
    matrices fall in a few orbits, so each image is computed once per
    generator.  A matrix is dropped once no later element can have it as
    parent, so about one breadth-first level is alive at a time.
    """
    n = base.datum.rank
    images = [({}, a, av) for a, av in zip(base.simple_roots, base.simple_coroots)]
    alive = deque()  # rows of elements first, first + 1, ...
    first = 0
    for parent, i in table:
        if parent < 0:
            rows = LatticeMap.identity(n).rows
        else:
            while first < parent:
                alive.popleft()
                first += 1
            memo, a, av = images[i]
            rows = []
            for row in alive[0]:
                image = memo.get(row)
                if image is None:
                    c = dot(row, a)
                    image = memo[row] = tuple(x - c * y for x, y in zip(row, av))
                rows.append(image)
            rows = tuple(rows)
        alive.append(rows)
        yield LatticeMap(rows, n)


def _positivity_functional(rank: int, vectors):
    """Deterministic integer functional nonzero on every vector given."""
    if not vectors:
        return (1,) * rank
    t = 2
    while True:
        f = tuple(t**i for i in range(rank))
        if all(dot(f, r) != 0 for r in vectors):
            return f
        t += 1


def indecomposable_indices(rd: RootDatum, positives) -> tuple[int, ...]:
    """Sorted indices of the roots in ``positives`` that are no sum of two of them.

    For the positive roots of a base these are its simple roots.
    """
    pos = set(positives)
    return tuple(sorted(rd.root_index(a) for a in pos
                        if not any(vsub(a, b) in pos for b in pos)))


@lru_cache(maxsize=None)
def based_from_datum(rd: RootDatum) -> BasedRootDatum:
    """Choose a base: positives from a generic functional, simples indecomposable."""
    f = _positivity_functional(rd.rank, rd.roots)
    return BasedRootDatum(rd, indecomposable_indices(rd, (r for r in rd.roots if dot(f, r) > 0)))


def _component_grams(rd: RootDatum):
    """For each irreducible component, its integer form and its roots' lengths.

    The form is G = sum of c c^T over the component's coroots c, invariant
    under the Weyl group; a root's length is the integer a^T G a.  Returns a
    list of (G as rows, {root index: a^T G a}) in ``_components`` order.
    """
    n = rd.rank
    out = []
    for comp in _components(rd):
        coroots = [rd.coroots[i] for i in comp]
        gram = [[sum(c[r] * c[s] for c in coroots) for s in range(n)] for r in range(n)]
        lengths = {}
        for i in comp:
            a = rd.roots[i]
            lengths[i] = dot(a, [dot(row, a) for row in gram])
        out.append((gram, lengths))
    return out


@lru_cache(maxsize=None)
def _components(rd: RootDatum):
    """Irreducible components as tuples of root indices (non-orthogonality classes).

    Each component grows from its least root, and each root it takes in is
    paired only with the roots not yet placed.
    """
    left = set(range(len(rd.roots)))
    comps = []
    while left:
        comp = [min(left)]
        left.remove(comp[0])
        for i in comp:
            linked = [j for j in left if dot(rd.roots[i], rd.coroots[j])]
            left.difference_update(linked)
            comp.extend(linked)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


@lru_cache(maxsize=None)
def length_classes(rd: RootDatum):
    """Map root index -> "short" or "long" within its irreducible component.

    In simply-laced components every root is long by convention.
    """
    out = {}
    for _, lengths in _component_grams(rd):
        longest = max(lengths.values())
        for i, length in lengths.items():
            out[i] = "long" if length == longest else "short"
    return out


def _type_from_counts(n: int, roots: int, short: int) -> tuple[str, int]:
    """(family, rank) of the irreducible root system of rank n with these counts.

    Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates I-IX: the rank, the
    number of roots and the number of short roots fix the type.  B2 comes out
    as C2 and D3 as A3.
    """
    if not short:
        if roots == n * (n + 1):
            return ("A", n)
        if roots == 2 * n * (n - 1) and n >= 4:
            return ("D", n)
        if (n, roots) in ((6, 72), (7, 126), (8, 240)):
            return ("E", n)
    elif (n, roots) == (2, 12):
        return ("G", 2)
    elif (n, roots) == (4, 48):
        return ("F", 4)
    elif roots == 2 * n * n:
        return ("B", n) if n >= 3 and short == 2 * n else ("C", n)
    raise ValueError(f"no Cartan type has rank {n}, {roots} roots and {short} short roots")


def cartan_type(rd: RootDatum | BasedRootDatum):
    """Multiset of irreducible types plus the central torus rank.

    Returns (sorted tuple of (family, rank) pairs, central_rank).  A
    component's rank is its number of simple roots: those of the base given,
    or of ``based_from_datum`` for a bare datum.
    """
    base = rd if isinstance(rd, BasedRootDatum) else based_from_datum(rd)
    rd, simples = base.datum, set(base.simple_indices)
    lengths = length_classes(rd)
    types = sorted(_type_from_counts(sum(i in simples for i in comp), len(comp),
                                     sum(lengths[i] == "short" for i in comp))
                   for comp in _components(rd))
    return tuple(types), rd.rank - sum(n for _, n in types)


_EXCEPTIONAL_WEYL_ORDERS = {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840,
                            ("E", 7): 2903040, ("E", 8): 696729600}


def weyl_group_order(rd: RootDatum | BasedRootDatum) -> int:
    """|W| from the Cartan type, without building the group."""
    order = 1
    for family, n in cartan_type(rd)[0]:
        if family == "A":
            order *= factorial(n + 1)
        elif family in ("B", "C"):
            order *= 2**n * factorial(n)
        elif family == "D":
            order *= 2 ** (n - 1) * factorial(n)
        else:
            order *= _EXCEPTIONAL_WEYL_ORDERS[family, n]
    return order


def is_closed_subsystem(rd: RootDatum, subset) -> bool:
    """subset (root vectors) is symmetric and closed under sums staying in Phi."""
    sub = {tuple(v) for v in subset}
    allr = set(rd.roots)
    if not sub <= allr:
        raise ValueError("subset contains non-roots")
    for a in sub:
        if vneg(a) not in sub:
            return False
    for a in sub:
        for b in sub:
            s = vadd(a, b)
            if s in allr and s not in sub:
                return False
    return True


def generate_datum(rank: int, simple_roots, simple_coroots) -> BasedRootDatum:
    """Close a simple system under its own reflections into a full based datum.

    Roots come out in breadth-first discovery order starting from the simples,
    so the construction is deterministic in the input order.  r simple roots
    of finite type close on at most 3.75 r^2 roots (E8 has 240 for r = 8), so
    a closure that passes 4 r^2 raises ``ValueError``: the input is not of
    finite type.  So does a simple root a that does not pair to 2 with its
    coroot; s_a(a) = -a needs that pairing, and puts each -a in the closure.
    """
    simples = [tuple(map(index, r)) for r in simple_roots]
    cosimples = [tuple(map(index, c)) for c in simple_coroots]
    pairs = {}
    order = []
    for a, av in zip(simples, cosimples):
        if (k := dot(a, av)) != 2:
            raise ValueError(f"simple root {a} pairs to {k} with its coroot, not 2")
        if a not in pairs:
            pairs[a] = av
            order.append(a)
    r = len(order)
    frontier = list(order)
    while frontier:
        nxt = []
        for a in frontier:
            av = pairs[a]
            for s, sv in zip(simples, cosimples):
                k = dot(a, sv)
                b = vsub(a, tuple(k * x for x in s))
                if b not in pairs:
                    if len(pairs) >= 4 * r * r:
                        raise ValueError(f"root closure passes {4 * r * r} roots, 4 r^2 for "
                                         f"r = {r} simple roots; the input is not of "
                                         "finite type")
                    bv = vsub(av, tuple(dot(s, av) * x for x in sv))
                    pairs[b] = bv
                    order.append(b)
                    nxt.append(b)
        frontier = nxt
    rd = RootDatum(rank, order, [pairs[a] for a in order])
    return BasedRootDatum(rd, tuple(rd.root_index(a) for a in simples))


def dual_root_datum(rd: RootDatum) -> RootDatum:
    """Swap roots and coroots; exact involution."""
    return RootDatum(rd.rank, rd.coroots, rd.roots)
