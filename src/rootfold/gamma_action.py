"""Finite group actions on a based root datum as (diagram, torus twist) pairs.

The automorphism attached to gamma is Int(t_gamma) composed with the pinned
automorphism of the diagram part, so it is determined by a lattice map on X
plus a torsion cocharacter modulo the center.  Everything downstream (folding,
norms, conorms) consumes actions in this normal form.
"""

from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import NamedTuple

from .chevalley import build_structure_constants, propagate_scalars
from .exact_lattice import LatticeMap, TorsionVector
from .root_datum import BasedRootDatum, ValidationReport, _components, morphism_problem


_MAX_CYCLIC_ORDER = 1000  # a table of Z/n then has at most 10^6 entries, as W does


class FiniteGroup:
    """Explicit multiplication table; element 0 is the identity."""

    __slots__ = ("size", "table", "generators")

    def __init__(self, table):
        self.table = tuple(tuple(map(index, row)) for row in table)
        self.size = n = len(self.table)
        if not n or any(len(r) != n for r in self.table):
            raise ValueError("malformed multiplication table")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("element 0 is not an identity")
        for i, row in enumerate(self.table):
            if 0 not in row:
                raise ValueError(f"element {i} has no inverse")
        # Light's test: the g with (x g) y = x (g y) for all x, y are closed
        # under products, so checking a generating set (``generators``,
        # grown greedily from the least element not reached) checks every g
        gens, reached = [], {0}
        for g in range(n):
            if g not in reached:
                gens.append(g)
                reached = set(self.subgroup_closure(gens))
        self.generators = tuple(gens)
        for g in gens:
            row_g = self.table[g]
            for x, row_x in enumerate(self.table):
                if self.table[row_x[g]] != tuple(map(row_x.__getitem__, row_g)):
                    raise ValueError("multiplication is not associative")

    def order_of(self, i):
        k, cur = 1, i
        while cur != 0:
            cur = self.table[cur][i]
            k += 1
        return k

    def is_cyclic(self):
        return any(self.order_of(i) == self.size for i in range(self.size))

    def subgroup_closure(self, gens):
        out = {0}
        frontier = list(out)
        gens = list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.table[a][g]
                    if b not in out:
                        out.add(b)
                        nxt.append(b)
            frontier = nxt
        return tuple(sorted(out))

    def is_normal(self, elems):
        s = set(elems)
        if not (0 in s and all(self.table[a][b] in s for a in s for b in s)):
            return False
        # the g with g H = H g form a subgroup, so the generators decide
        return all({self.table[g][h] for h in s} == {self.table[h][g] for h in s}
                   for g in self.generators)

    def quotient_by(self, normal_elems):
        """Quotient group, coset index per element, and one representative per coset."""
        if not self.is_normal(normal_elems):
            raise ValueError("subgroup is not normal")
        s = set(normal_elems)
        coset_of = [-1] * self.size
        reps = []
        for g in range(self.size):
            if coset_of[g] >= 0:
                continue
            idx = len(reps)
            reps.append(g)
            for h in s:
                coset_of[self.table[g][h]] = idx
        m = len(reps)
        table = [[coset_of[self.table[reps[a]][reps[b]]] for b in range(m)] for a in range(m)]
        return FiniteGroup(table), tuple(coset_of), tuple(reps)

    @classmethod
    def cyclic(cls, n):
        if n > _MAX_CYCLIC_ORDER:
            raise ValueError(f"a cyclic group of order {n} is past the limit {_MAX_CYCLIC_ORDER}")
        elems = tuple(range(n))
        return cls(tuple(elems[i:] + elems[:i] for i in range(n)))

    @classmethod
    def from_permutations(cls, perms):
        """Group of permutation tuples of range(k), one k; perms[0] must be the identity."""
        perms = [tuple(p) for p in perms]
        if not perms:
            raise ValueError("no permutations")
        k = len(perms[0])
        for i, p in enumerate(perms):
            if sorted(p) != list(range(k)):
                raise ValueError(f"permutation {i} is not a permutation of range({k})")
        index = {p: i for i, p in enumerate(perms)}
        if len(index) != len(perms):
            raise ValueError("duplicate permutations")
        if perms[0] != tuple(range(k)):
            raise ValueError("first permutation must be the identity")
        table = []
        for p in perms:
            row = []
            for q in perms:
                comp = tuple(p[q[i]] for i in range(len(p)))
                if comp not in index:
                    raise ValueError("permutations not closed under composition")
                row.append(index[comp])
            table.append(row)
        return cls(table)


class GammaAction:
    """diagram[i] acts on X, twist[i] is a torsion cocharacter; index 0 = identity.

    ``twist`` is None (all zero) or one entry per element, each a
    ``TorsionVector`` or a sequence of fractions.  Counts and shapes that do
    not fit the group and the rank raise ``ValueError``.
    """

    __slots__ = ("group", "base", "diagram", "twist")

    def __init__(self, group: FiniteGroup, base: BasedRootDatum, diagram, twist=None):
        self.group = group
        self.base = base
        rank, n = base.datum.rank, group.size
        self.diagram = tuple(diagram)
        if len(self.diagram) != n:
            raise ValueError(f"diagram has {len(self.diagram)} parts for a group of order {n}")
        simple_set = set(base.simple_roots)
        for i, d in enumerate(self.diagram):
            if (d.codomain_rank, d.domain_rank) != (rank, rank):
                raise ValueError(f"diagram part {i} is {d.codomain_rank} x "
                                 f"{d.domain_rank}, not {rank} x {rank}")
            if {tuple(d(s)) for s in simple_set} != simple_set:
                raise ValueError(f"diagram part {i} does not preserve the base")
        if twist is None:
            twist = [TorsionVector.zero(rank)] * n
        self.twist = tuple(t if isinstance(t, TorsionVector) else TorsionVector.from_fractions(t)
                           for t in twist)
        if len(self.twist) != n:
            raise ValueError(f"twist has {len(self.twist)} entries for a group of order {n}")
        for i, t in enumerate(self.twist):
            if t.rank != rank:
                raise ValueError(f"twist {i} has rank {t.rank}, not {rank}")

    def coaction(self, i) -> LatticeMap:
        """Action of element i on the cocharacter lattice."""
        return _coaction(self.diagram[i])

    def __repr__(self):
        return f"GammaAction(|Gamma|={self.group.size}, rank={self.base.datum.rank})"


@lru_cache(maxsize=None)
def _coaction(diagram: LatticeMap) -> LatticeMap:
    """Inverse transpose of a diagram part, once per matrix."""
    return diagram.inverse_unimodular().transpose()


@lru_cache(maxsize=None)
def _pinned_scalars(base: BasedRootDatum, diagram: LatticeMap) -> dict:
    """``propagate_scalars`` of a diagram part, once per (base, matrix).

    An action and its pinned projection have the same diagram parts, so they
    share these; callers must not mutate the returned dict.
    """
    return propagate_scalars(build_structure_constants(base), diagram)


def validate_action(a: GammaAction) -> ValidationReport:
    """``_diagram_problems``, then t(x g) = t(x) + x t(g) modulo the center.

    That is checked at (0, 0) and at (x, g) for every x and generator g; the
    table is associative, so by induction on word length it holds for all pairs.
    """
    group = a.group
    problems = list(_diagram_problems(a.base, group.table, group.generators, a.diagram))
    # zero twists satisfy the cocycle condition trivially
    if not problems and not all(t.is_zero() for t in a.twist):
        roots = a.base.datum.roots
        pairs = [(0, 0)] + [(i, j) for j in group.generators for i in range(group.size)]
        for i, j in pairs:
            combined = a.twist[i] + a.twist[j].apply(a.coaction(i))
            t = a.twist[group.table[i][j]]
            for r in roots:
                if t.pairing(r) != combined.pairing(r):
                    problems.append(f"twist cocycle fails at ({i},{j}) on root {r}")
                    break
    return ValidationReport(problems)


@lru_cache(maxsize=None)
def _diagram_problems(base: BasedRootDatum, table, generators, diagram) -> tuple[str, ...]:
    """The half of ``validate_action`` that reads no twist, once per input.

    Each diagram part is invertible over the integers and a morphism of the
    datum to itself (``morphism_problem``); the identity acts trivially; and
    diagram[x g] = diagram[x] @ diagram[g] for every x and every generator g,
    which the associative ``table`` extends to all products by induction on
    word length.  An action and its pinned projection share this verdict.
    """
    problems = []
    rd = base.datum
    for i, d in enumerate(diagram):
        det = d.det()
        problem = (f"has determinant {det}, not +-1" if abs(det) != 1
                   else morphism_problem(d, rd, rd))
        if problem:
            problems.append(f"diagram part {i} {problem}")
    if diagram[0] != LatticeMap.identity(rd.rank):
        problems.append("identity element has a nontrivial diagram part")
    for j in generators:
        for i, row in enumerate(table):
            if diagram[row[j]] != diagram[i] @ diagram[j]:
                problems.append(f"diagram is not a homomorphism at ({i},{j})")
    return tuple(problems)


def pinned_projection(a: GammaAction) -> GammaAction:
    """Forget the torus twists; same diagram parts, hence same action on T."""
    return GammaAction(a.group, a.base, a.diagram)


def root_orbit(a: GammaAction, root):
    r = tuple(root)
    return tuple(sorted({a.diagram[i](r) for i in range(a.group.size)}))


def root_stabilizer(a: GammaAction, root):
    r = tuple(root)
    return tuple(i for i in range(a.group.size) if a.diagram[i](r) == r)


def root_space_scalar(a: GammaAction, i, root) -> Fraction:
    """Exponent c with phi(gamma) X_root = zeta^c X_{gamma root}.

    Sum of the pinned part's propagated scalar and the twist contribution,
    which is the pairing of the image root with the twist (Int(t) scales the
    beta root space by beta(t), applied after the pinned map).
    """
    r = tuple(root)
    pinned = _pinned_scalars(a.base, a.diagram[i])[r]
    return (pinned + a.twist[i].pairing(a.diagram[i](r))) % 1


class ComponentStabilizerRecord(NamedTuple):
    component_index: int
    stabilizer: tuple
    image_order: int
    cyclic: bool
    faithful: bool

    @property
    def trivial(self) -> bool:
        return self.image_order == 1


class StabilizerReport(NamedTuple):
    components: tuple
    witness: int | None  # index of first component with non-cyclic image

    @property
    def holds(self) -> bool:
        return self.witness is None

    def __bool__(self):
        return self.holds


def stabilizer_hypothesis(a: GammaAction) -> StabilizerReport:
    """Per irreducible component: is the stabilizer's image cyclic, and faithful?

    "holds" means every component's induced automorphism group is cyclic;
    faithfulness and triviality are reported per component for the callers
    that need the stronger or weaker reading.
    """
    rd = a.base.datum
    comps = _components(rd)
    records = []
    for ci, comp in enumerate(comps):
        comp_roots = frozenset(rd.roots[k] for k in comp)
        stab = [i for i in range(a.group.size)
                if all(a.diagram[i](r) in comp_roots for r in comp_roots)]
        ordered = sorted(comp_roots)
        perms = {i: tuple(ordered.index(a.diagram[i](r)) for r in ordered) for i in stab}
        image = set(perms.values())
        # the identity permutation sorts first
        cyclic = FiniteGroup.from_permutations(sorted(image)).is_cyclic()
        kernel = [i for i in stab if perms[i] == tuple(range(len(ordered)))]
        faithful = len(kernel) == 1
        records.append(ComponentStabilizerRecord(ci, tuple(stab), len(image), cyclic, faithful))
    witness = next((rec.component_index for rec in records if not rec.cyclic), None)
    return StabilizerReport(tuple(records), witness)
