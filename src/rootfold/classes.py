"""Stable semisimple conjugacy classes over finite fields, and lifting.

A semisimple class of the group attached to a root datum, over the algebraic
closure, is a Weyl orbit of torsion points of the dual torus; in coordinates
these are torsion vectors in the character lattice.  A Frobenius with twist
tau acts on points by q * tau, and the classes stable under it are exactly the
orbits meeting the fixed points of w o (q * tau) for some Weyl element w.

A class is named by its canonical representative, the least point of its
orbit, found by walking the orbit with the simple reflections; the order of a
point's stabilizer is |W| over the size of that orbit.  Enumeration is the
one place that runs through every Weyl element.

Lifting a class through a fold applies the conorm matrix to a class
representative and recanonicalizes in the bigger Weyl group.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .duality_conorm import ConormData
from .exact_lattice import LatticeMap, TorsionVector, solve_torsion_fixed
from .root_datum import (BasedRootDatum, RootDatum, morphism_problem, weyl_group,
                         weyl_group_order)


def _least_prime_factor(q):
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    return next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)


class FrobeniusStructure(namedtuple("FrobeniusStructure", "q p tau")):
    """q = p^k with p prime, and tau an integral automorphism of X.

    Construction raises ``ValueError`` when p is not prime, q is not a power
    of p, or tau is not square and invertible over the integers.
    """

    __slots__ = ()

    def __new__(cls, q: int, p: int, tau: LatticeMap):
        if p < 2 or _least_prime_factor(p) != p:
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
    """The orbit of ``point`` as numerator tuples, or None if it meets ``needle``.

    Both points must have the rank of the datum; a needle with another
    denominator is not in the orbit, which is then returned unwalked.
    """
    rank = base.datum.rank
    for p in (point, needle):
        if p is not None and p.rank != rank:
            raise ValueError(f"point of rank {p.rank} for a datum of rank {rank}")
    den = point.den
    start = tuple(x % den for x in point.nums)
    if needle is not None:
        if needle.den != den:
            return {start}
        needle = needle.nums
        if needle == start:
            return None
    mats = _compiled_reflections(base)
    rng_n = range(rank)
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
                        return None
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def weyl_orbit_contains(base: BasedRootDatum, a: TorsionVector,
                        b: TorsionVector) -> bool:
    """Whether two torsion points are Weyl translates of each other."""
    return _orbit_walk(base, a, b) is None


def canonicalize_class(base: BasedRootDatum, point: TorsionVector) -> TorsionVector:
    """Least Weyl translate; equal points of equal classes get equal output."""
    return TorsionVector(min(_orbit_walk(base, point)), point.den)


def class_stabilizer_size(base: BasedRootDatum, point: TorsionVector) -> int:
    seen = _orbit_walk(base, point)
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

    tau must be a morphism of the datum to itself (``morphism_problem``);
    the base need not be fixed.  Some power tau^k with
    k <= max_finite_order(rank) must be the identity.
    """
    if tau.domain_rank != rd.rank:
        raise ValueError(f"tau has rank {tau.domain_rank} but the datum has rank {rd.rank}")
    problem = morphism_problem(tau, rd, rd)
    if problem:
        raise ValueError(f"tau {problem}")
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
