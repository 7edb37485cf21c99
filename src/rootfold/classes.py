"""Stable semisimple conjugacy classes over finite fields, and lifting.

A semisimple class of the group attached to a root datum, over the algebraic
closure, is a Weyl orbit of torsion points of the dual torus; in coordinates
these are torsion vectors in the character lattice.  A Frobenius with twist
tau acts on points by q * tau, and the classes stable under it are exactly the
orbits meeting the fixed points of w o (q * tau) for some Weyl element w.

Lifting a class through a fold applies the conorm matrix to a class
representative and recanonicalizes in the bigger Weyl group.  The verify_*
functions check that the lift is independent of every choice made along the
way: representative, intermediate subgroup, isogeny, or Levi.
"""

import random
from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .catalog import rotation_action
from .duality_conorm import ConormData
from .exact_lattice import (
    LatticeMap,
    Sublattice,
    TorsionVector,
    solve_torsion_fixed,
)
from .folding import fold
from .gamma_action import FiniteGroup, GammaAction, pinned_projection
from .root_datum import (
    BasedRootDatum,
    RootDatum,
    ValidationReport,
    based_from_datum,
    is_closed_subsystem,
    weyl_group,
    weyl_group_order,
)


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _least_prime_factor(q):
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    return next(d for d in range(2, q + 1) if q % d == 0)


class FrobeniusStructure(namedtuple("FrobeniusStructure", "q p tau")):
    """q = p^k with p prime, and tau an integral automorphism of X.

    Construction raises ``ValueError`` when p is not prime, q is not a power
    of p, or tau is not square and invertible over the integers.
    """

    __slots__ = ()

    def __new__(cls, q: int, p: int, tau: LatticeMap):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        rest = q
        while rest % p == 0:
            rest //= p
        if rest != 1:
            raise ValueError(f"{q} is not a power of {p}")
        if tau.domain_rank != tau.codomain_rank:
            raise ValueError(f"tau must be square, not {tau.codomain_rank} x "
                             f"{tau.domain_rank}")
        if abs(tau.det()) != 1:
            raise ValueError("twist must be invertible over the integers")
        return super().__new__(cls, q, p, tau)

    @classmethod
    def untwisted(cls, q, rank):
        return cls(q, _least_prime_factor(q), LatticeMap.identity(rank))

    @classmethod
    def twisted(cls, q, tau):
        return cls(q, _least_prime_factor(q), tau)

    def point_map(self, w_matrix=None) -> LatticeMap:
        """The matrix of w o Frobenius on dual-torus torsion points."""
        m = self.tau.scale(self.q)
        return m if w_matrix is None else w_matrix @ m


class StableClass(NamedTuple):
    rep: TorsionVector
    q: int

    def __lt__(self, other):
        return (self.rep.key(), self.q) < (other.rep.key(), other.q)


def _compiled_reflections(base: BasedRootDatum):
    """Simple reflections as lists of (row index, row); unit rows dropped.

    In simple-root coordinates a reflection rewrites one coordinate, so this
    turns the orbit step from a full matrix product into a few dot products.
    """
    n = base.datum.rank
    out = []
    for m in map(base.datum.reflection, base.simple_indices):
        rows = [(i, tuple(row)) for i, row in enumerate(m.rows)
                if any(row[j] != (1 if j == i else 0) for j in range(n))]
        out.append(tuple(rows))
    return out


def _orbit_walk(base, point, needle=None):
    den = point.den
    mats = _compiled_reflections(base)
    n = len(point.nums)
    rng_n = range(n)
    start = tuple(x % den for x in point.nums)
    if needle == start:
        return None, den
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for touched in mats:
                w = list(v)
                for i, row in touched:
                    w[i] = sum(row[j] * v[j] for j in rng_n) % den
                w = tuple(w)
                if w not in seen:
                    if w == needle:
                        return None, den
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen, den


def weyl_orbit_contains(base: BasedRootDatum, a: TorsionVector,
                        b: TorsionVector) -> bool:
    """Whether two torsion points are Weyl translates of each other."""
    if a.den != b.den:
        return False
    needle = tuple(x % b.den for x in b.nums)
    seen, _ = _orbit_walk(base, a, needle)
    return seen is None


def canonicalize_class(base: BasedRootDatum, point: TorsionVector) -> TorsionVector:
    """Least Weyl translate; equal points of equal classes get equal output."""
    seen, den = _orbit_walk(base, point)
    return TorsionVector(min(seen), den)


def class_stabilizer_size(base: BasedRootDatum, point: TorsionVector) -> int:
    seen, _ = _orbit_walk(base, point)
    order = weyl_group_order(base)
    assert order % len(seen) == 0
    return order // len(seen)


@lru_cache(maxsize=None)
def max_finite_order(n: int) -> int:
    """M(n), the largest lcm(m_1, ..., m_r) with phi(m_1) + ... + phi(m_r) <= n.

    Every element of finite order in GL_n(Z) has order at most M(n).  A
    knapsack over m with phi(m) <= n, which forces m <= 2 n^2.
    """
    reach = [{1} for _ in range(n + 1)]  # lcms reachable with budget at most b
    for m in range(2, 2 * n * n + 1):
        phi = sum(1 for k in range(1, m) if gcd(k, m) == 1)
        for b in range(n, phi - 1, -1):
            reach[b] |= {lcm(x, m) for x in reach[b - phi]}
    return max(reach[n])


def _check_twist(rd: RootDatum, tau: LatticeMap):
    """Raise unless tau is an automorphism of the root datum of finite order.

    tau must permute the roots, and its inverse transpose must carry the
    coroot of each root to the coroot of the image root, that is, tau
    transposed must carry the coroot of the image back.  The base need not be
    fixed.  Some power tau^k with k <= max_finite_order(rank) must be the
    identity.
    """
    if tau.domain_rank != rd.rank:
        raise ValueError(f"tau has rank {tau.domain_rank} but the datum has rank {rd.rank}")
    tau_t = tau.transpose()
    for r in rd.roots:
        image = tau(r)
        if not rd.is_root(image):
            raise ValueError(f"tau does not permute the roots: {r} goes to {image}")
        if tau_t(rd.coroot_of(image)) != rd.coroot_of(r):
            raise ValueError(f"tau does not carry the coroot of {r} to that of {image}")
    bound = max_finite_order(rd.rank)
    identity = LatticeMap.identity(rd.rank)
    power = tau
    for _ in range(bound):
        if power == identity:
            return
        power = power @ tau
    raise ValueError(f"tau has infinite order: no power up to {bound} is the identity")


def enumerate_stable_classes(base: BasedRootDatum, frob: FrobeniusStructure):
    """Sorted canonical representatives of the Frobenius-stable classes."""
    _check_twist(base.datum, frob.tau)
    reps = set()
    for w in weyl_group(base):
        for x in solve_torsion_fixed(frob.point_map(w.matrix)):
            reps.add(canonicalize_class(base, x))
    return [StableClass(r, frob.q) for r in sorted(reps, key=lambda t: t.key())]


def lift_stable_class(conorm: ConormData, cls: StableClass) -> StableClass:
    """Canonical lift of a stable class through the conorm of the fold."""
    target = conorm.folded.source.base
    return StableClass(canonicalize_class(target, conorm.apply(cls.rep)), cls.q)


def random_torsion_points(rank, count, den_bound, p, seed=0):
    """Torsion points with denominator at most den_bound and coprime to p."""
    rng = random.Random(seed)
    dens = [d for d in range(1, den_bound + 1) if d % p != 0]
    out = []
    for _ in range(count):
        den = rng.choice(dens)
        out.append(TorsionVector(tuple(rng.randrange(den) for _ in range(rank)), den))
    return out


def verify_conorm_well_defined(a: GammaAction, count=100, den_bound=24, p=2,
                               seed=0) -> ValidationReport:
    """Weyl-equivalent folded points must lift to Weyl-equivalent source points."""
    fd = fold(a)
    conorm = ConormData(fd)
    target = fd.source.base
    w_fold = weyl_group(fd.fixed_base)
    rng = random.Random(seed + 1)
    problems = []
    for x in random_torsion_points(fd.rank, count, den_bound, p, seed):
        w = rng.choice(w_fold)
        y = x.apply(w.matrix)
        if not weyl_orbit_contains(target, conorm.apply(x), conorm.apply(y)):
            problems.append(f"lift depends on representative at {x.fractions()}")
            break
    return ValidationReport(not problems, problems)


def verify_product_conorm(base_half: BasedRootDatum, m: int, qs) -> ValidationReport:
    """For the rotation of H^m the lift is the diagonal and the norm is x^m."""
    problems = []
    a = rotation_action(base_half, m)
    fd = fold(a)
    conorm = ConormData(fd)
    n = base_half.datum.rank
    stacked = LatticeMap([[1 if c == r % n else 0 for c in range(n)]
                          for r in range(m * n)], n)
    if conorm.matrix != stacked:
        problems.append("conorm is not the diagonal embedding")
    if fd.restriction @ conorm.matrix != LatticeMap.identity(n).scale(m):
        problems.append("norm of the lift is not the m-th power map")
    for q in qs:
        frob = FrobeniusStructure.untwisted(q, fd.rank)
        for cls in enumerate_stable_classes(fd.fixed_base, frob):
            lift = lift_stable_class(conorm, cls)
            # each factor of the lifted representative is the class itself
            fr = lift.rep.fractions()
            blocks = [tuple(fr[k * n:(k + 1) * n]) for k in range(m)]
            base_orbit = _orbit_fractions(base_half, cls.rep)
            if any(b not in base_orbit for b in blocks):
                problems.append(f"lift of {cls.rep.fractions()} at q={q} "
                                "is not diagonal up to the Weyl group")
                break
    return ValidationReport(not problems, problems)


def _orbit_fractions(base, point):
    seen, den = _orbit_walk(base, point)
    return {TorsionVector(v, den).fractions() for v in seen}


def verify_trivial_lift(base: BasedRootDatum, m: int, qs) -> ValidationReport:
    """Trivial action of a group of order m lifts a class to its m-th power."""
    problems = []
    n = base.datum.rank
    a = GammaAction(FiniteGroup.cyclic(m), base, [LatticeMap.identity(n)] * m)
    fd = fold(a)
    conorm = ConormData(fd)
    if conorm.matrix != LatticeMap.identity(n).scale(m):
        problems.append("conorm of the trivial action is not multiplication by m")
    for q in qs:
        frob = FrobeniusStructure.untwisted(q, n)
        for cls in enumerate_stable_classes(base, frob):
            lift = lift_stable_class(conorm, cls)
            power = canonicalize_class(base, cls.rep.scale(m))
            if lift.rep != power:
                problems.append(f"lift of {cls.rep.fractions()} at q={q} "
                                "is not the m-th power")
                break
    return ValidationReport(not problems, problems)


def subgroup_action(a: GammaAction, indices) -> GammaAction:
    """Restriction of an action to a subgroup given by element indices."""
    indices = sorted(set(indices))
    if indices[0] != 0:
        raise ValueError("subgroup must contain the identity")
    pos = {g: k for k, g in enumerate(indices)}
    table = []
    for g in indices:
        row = []
        for h in indices:
            gh = a.group.mult(g, h)
            if gh not in pos:
                raise ValueError("indices are not closed under multiplication")
            row.append(pos[gh])
        table.append(row)
    sub = FiniteGroup(table, [a.group.names[g] for g in indices])
    return GammaAction(sub, a.base, [a.diagram[g] for g in indices],
                       [a.twist[g] for g in indices])


def induced_quotient_action(a: GammaAction, normal_indices):
    """Action of the quotient group on the fold by the normal subgroup."""
    a0 = subgroup_action(a, normal_indices)
    fd0 = fold(a0)
    q_group, coset_of, reps = a.group.quotient_by(normal_indices)
    diagrams = [fd0.restriction @ a.diagram[g] @ fd0.section for g in reps]
    twists = [a.twist[g].apply(fd0.section.transpose()) for g in reps]
    a_bar = GammaAction(q_group, fd0.fixed_base, diagrams, twists)
    return a_bar, fd0


def verify_normal_subgroup_composition(a: GammaAction, normal_indices,
                                       qs) -> ValidationReport:
    """Folding in stages factors the conorm, as matrices and on classes."""
    problems = []
    fd_full = fold(a)
    conorm_full = ConormData(fd_full)
    a_bar, fd0 = induced_quotient_action(a, normal_indices)
    conorm0 = ConormData(fd0)
    fd_bar = fold(a_bar)
    conorm_bar = ConormData(fd_bar)
    transport = fd_bar.restriction @ fd0.restriction @ fd_full.section
    if abs(transport.det()) != 1:
        problems.append("stagewise and direct folds are not unimodularly identified")
        return ValidationReport(False, problems)
    if conorm_full.matrix != conorm0.matrix @ conorm_bar.matrix @ transport:
        problems.append("conorm does not factor through the stages")
    source = a.base
    for q in qs:
        frob = FrobeniusStructure.untwisted(q, fd_full.rank)
        for cls in enumerate_stable_classes(fd_full.fixed_base, frob):
            direct = lift_stable_class(conorm_full, cls)
            mid = canonicalize_class(fd_bar.fixed_base, cls.rep.apply(transport))
            staged_pt = conorm0.apply(
                canonicalize_class(fd0.fixed_base, conorm_bar.apply(mid)))
            staged = canonicalize_class(source, staged_pt)
            if staged != direct.rep:
                problems.append(f"class {cls.rep.fractions()} at q={q} lifts "
                                "differently through the stages")
                break
    return ValidationReport(not problems, problems)


def verify_pinning_factorization(a: GammaAction, qs) -> ValidationReport:
    """Lifting through the pinned fold agrees with the direct lift.

    The twisted and pinned folds share the torus; the twisted dual roots form
    a closed subsystem of the pinned dual roots, the conorm matrices agree,
    and each stable class lifts to the same class whether or not it is first
    coarsened to a pinned-fold class.
    """
    problems = []
    fd = fold(a)
    fp = fold(pinned_projection(a))
    conorm = ConormData(fd)
    conorm_p = ConormData(fp)
    if conorm.matrix != conorm_p.matrix:
        problems.append("conorm differs from its pinned projection")
    dual_p = RootDatum(fp.rank, fp.fixed.coroots, fp.fixed.roots)
    if not set(fd.fixed.coroots) <= set(fp.fixed.coroots):
        problems.append("twisted dual roots do not sit inside the pinned dual roots")
    elif not is_closed_subsystem(dual_p, fd.fixed.coroots):
        problems.append("twisted dual roots are not closed in the pinned dual system")
    source = a.base
    for q in qs:
        frob = FrobeniusStructure.untwisted(q, fd.rank)
        for cls in enumerate_stable_classes(fd.fixed_base, frob):
            direct = lift_stable_class(conorm, cls)
            coarse = StableClass(canonicalize_class(fp.fixed_base, cls.rep), q)
            via_pinned = lift_stable_class(conorm_p, coarse)
            if via_pinned != direct:
                problems.append(f"class {cls.rep.fractions()} at q={q} lifts "
                                "differently through the pinned fold")
                break
    return ValidationReport(not problems, problems)


def vanishing_subsystem(rd: RootDatum, point: TorsionVector):
    """Roots whose coroots pair to zero with a dual-torus point."""
    return tuple(r for r in rd.roots if point.pairing(rd.coroot_of(r)) == 0)


def levi_for_element(rd: RootDatum, point: TorsionVector):
    """Vanishing subsystem and its Levi hull (roots in its saturated span)."""
    psi = vanishing_subsystem(rd, point)
    if not psi:
        return psi, ()
    span = Sublattice(rd.rank, LatticeMap.from_columns(list(psi), rd.rank)).saturation()
    levi = tuple(r for r in rd.roots if span.contains(r))
    return psi, levi


def verify_levi_factorization(a: GammaAction, q=3, points_needed=3) -> ValidationReport:
    """For an inner twist, lifting factors through the Levi fixed by the twist.

    The fold of an inner action is the centralizer of the twist element; the
    check confirms that, that lifted subregular classes have their Weyl
    stabilizer inside the Levi hull of their vanishing subsystem, and that
    canonicalizing inside the Levi first does not change the lift.
    """
    problems = []
    if any(d != LatticeMap.identity(a.base.datum.rank) for d in a.diagram):
        return ValidationReport(False, ["action is not inner (nontrivial diagrams)"])
    rd = a.base.datum
    fd = fold(a)
    conorm = ConormData(fd)
    # the fold is the centralizer of the twist: same ambient lattice
    expected = set()
    for r in rd.roots:
        if all(a.twist[i].pairing(r) == 0 for i in a.group.elements()):
            expected.add(r)
    if set(fd.fixed.roots) != expected:
        problems.append("fold is not the centralizer of the twist element")
        return ValidationReport(False, problems)
    frob = FrobeniusStructure.untwisted(q, fd.rank)
    source = a.base
    w_source = weyl_group(source)
    found = 0
    for cls in enumerate_stable_classes(fd.fixed_base, frob):
        lift_pt = conorm.apply(cls.rep)
        psi, levi = levi_for_element(rd, lift_pt)
        if not psi or len(psi) == len(rd.roots):
            continue
        found += 1
        if not is_closed_subsystem(rd, psi):
            problems.append(f"vanishing subsystem of {lift_pt.fractions()} not closed")
        levi_base = _based_subsystem(rd, levi)
        stab = [w for w in w_source if lift_pt.apply(w.matrix) == lift_pt]
        psi_base = _based_subsystem(rd, psi)
        if len(stab) != weyl_group_order(psi_base):
            problems.append(f"stabilizer of {lift_pt.fractions()} is not the "
                            "vanishing-subsystem Weyl group")
        in_levi = canonicalize_class(levi_base, lift_pt)
        direct = canonicalize_class(source, lift_pt)
        if canonicalize_class(source, in_levi) != direct:
            problems.append(f"Levi canonicalization changes the class of "
                            f"{lift_pt.fractions()}")
        if found >= points_needed:
            break
    if found < points_needed:
        problems.append(f"only {found} subregular points found, "
                        f"needed {points_needed}")
    return ValidationReport(not problems, problems)


def _based_subsystem(rd: RootDatum, roots) -> BasedRootDatum:
    """A based datum on the ambient lattice for a closed subsystem."""
    sub = RootDatum(rd.rank, sorted(roots), [rd.coroot_of(r) for r in sorted(roots)])
    return based_from_datum(sub)
