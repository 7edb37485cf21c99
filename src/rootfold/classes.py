"""Stable semisimple conjugacy classes over finite fields, and lifting.

A semisimple class of the group attached to a root datum, over the algebraic
closure, is a Weyl orbit of torsion points of the dual torus; in coordinates
these are torsion vectors in the character lattice.  A Frobenius with twist
tau acts on points by q * tau, and the classes stable under it are exactly the
orbits meeting the fixed points of w o (q * tau) for some Weyl element w.
``enumerate_stable_classes`` finds those fixed points as torsion kernels, and
is the one place that runs through every Weyl element, once ``_check_twist``
has read off the traces of its powers that tau has finite order.

A class is named by its canonical representative, the least point of its
orbit, found by walking the orbit with the simple reflections in the one
function ``_walk_function`` generates per based datum; the order of a point's
stabilizer is |W| over the size of that orbit.  Enumeration stays on numerator
tuples from the solve to the orbit minimum, and builds one ``TorsionVector``
per class.

Lifting a class through a fold applies the conorm matrix to a class
representative and recanonicalizes in the bigger Weyl group.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt
from operator import index
from typing import NamedTuple

from .exact_lattice import LatticeMap, TorsionVector, _torsion_fixed_numerators, dot, vsub
from .root_datum import (BasedRootDatum, RootDatum, morphism_problem, weyl_group,
                         weyl_group_order, weyl_matrices)


# trial division looks for factors up to this bound only
_TRIAL_BOUND = 1024
# Miller-Rabin on the first 13 primes as bases is exact below the limit
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin for odd n with 41 < n < ``_MR_LIMIT``."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q, k):
    """The largest r with r**k <= q, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _least_prime_factor(q):
    """The prime of a prime power q, or a factor below ``_TRIAL_BOUND`` of another q.

    With no factor that small, q = r**k for the largest such k, and q is a
    prime power exactly when r is a prime; other q raise ``ValueError``.
    """
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    bound = min(isqrt(q), _TRIAL_BOUND)
    p = next((d for d in range(2, bound + 1) if q % d == 0), None)
    if p is not None:
        return p
    if bound < _TRIAL_BOUND:  # every d up to sqrt(q) was tried
        return q
    # r > _TRIAL_BOUND > 2**9, so k is at most a tenth of q's bit length
    r = next((r for k in range(q.bit_length() // 10, 1, -1)
              if (r := _integer_root(q, k)) ** k == q), q)
    if r >= _MR_LIMIT:
        raise ValueError(f"q = {q} is too large: no exact prime test for {r}")
    if not _is_prime(r):
        raise ValueError(f"q = {q} is not a prime power")
    return r


class FrobeniusStructure(namedtuple("FrobeniusStructure", "q tau")):
    """q a power of a prime, and tau an integral automorphism of X.

    Construction raises ``TypeError`` when q is not an integer, and
    ``ValueError`` when q is below 2 or not a prime power (or is r**k for an
    r too large for the exact prime test), or tau is not square and invertible
    over the integers.
    """

    __slots__ = ()

    def __new__(cls, q: int, tau: LatticeMap):
        q = index(q)
        p = _least_prime_factor(q)
        # q divides p^k for some k >= log_p(q) exactly when p is its only prime
        if pow(p, q.bit_length(), q):
            raise ValueError(f"{q} is not a power of {p}")
        if tau.domain_rank != tau.codomain_rank:
            raise ValueError(f"tau must be square, not {tau.codomain_rank} x "
                             f"{tau.domain_rank}")
        if abs(tau.det()) != 1:
            raise ValueError("twist must be invertible over the integers")
        return super().__new__(cls, q, tau)

    @classmethod
    def untwisted(cls, q, rank):
        return cls(q, LatticeMap.identity(rank))

    # the constructor by another name, kept while perfbench/worker.py binds it (ROADMAP item 1)
    @classmethod
    def twisted(cls, q, tau):
        return cls(q, tau)


class StableClass(NamedTuple):
    rep: TorsionVector
    q: int


def _terms_text(terms):
    """The signed terms x * name of the pairs (x, name) with x nonzero, a unit
    coefficient left out: [(1, "a"), (0, "b"), (-2, "c")] gives " + a - 2 * c"."""
    return "".join(f" {'-' if x < 0 else '+'} {'' if abs(x) == 1 else f'{abs(x)} * '}{name}"
                   for x, name in terms if x)


@lru_cache(maxsize=None)
def _walk_function(base: BasedRootDatum):
    """``walk(start, den)``: the orbit of ``start`` mod den, a set of numerator tuples.

    ``start`` is a numerator tuple reduced mod den.  Generated from source
    text once per based datum, as ``namedtuple`` does: a breadth-first walk
    over a frontier of (point, index of the simple reflection that produced
    it), where each point is unpacked into locals and, per simple
    reflection, the pairing <v, coroot_i> mod den is one unrolled expression
    over the coroot's support and the image one tuple expression over the
    root's.  A pairing of 0 mod den skips s_i, which then fixes the point; a
    point that s_i produced skips s_i, since s_i(s_i v) = v is already seen;
    that needs <root_i, coroot_i> = 2, so a simple root that pairs otherwise
    raises ``ValueError``.  The text holds only fixed names, reflection
    indices and the entries of the simple roots and coroots, which the
    ``RootDatum`` constructor has made exact ``int``s with ``operator.index``;
    so no text from an input reaches ``exec``.
    """
    names = [f"v{j}" for j in range(base.datum.rank)]
    lines = ["def walk(start, den):",
             "    seen = {start}",
             "    add = seen.add",
             "    frontier = [(start, -1)]",
             "    while frontier:",
             "        nxt = []",
             "        push = nxt.append",
             "        for v, k in frontier:",
             f"            [{', '.join(names)}] = v"]
    for i, (root, coroot) in enumerate(zip(base.simple_roots, base.simple_coroots)):
        pairs_to = dot(root, coroot)
        if pairs_to != 2:
            raise ValueError(f"simple root {root} pairs to {pairs_to} with its coroot, not 2")
        pairing = _terms_text(zip(coroot, names)).removeprefix(" + ")
        image = [f"({name}{_terms_text([(-x, 'c')])}) % den" if x else name
                 for x, name in zip(root, names)]
        lines += [f"            if k != {i}:",
                  f"                c = ({pairing}) % den",
                  "                if c:",
                  f"                    w = ({', '.join(image)},)",
                  "                    if w not in seen:",
                  "                        add(w)",
                  f"                        push((w, {i}))"]
    lines += ["        frontier = nxt", "    return seen"]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["walk"]


def _check_rank(point, rank):
    if point.rank != rank:
        raise ValueError(f"point of rank {point.rank} for a datum of rank {rank}")


def _orbit_walk(base, point):
    """The orbit of ``point`` as numerator tuples: the generated walk from
    ``point.nums``, which the ``TorsionVector`` constructor has reduced mod den."""
    _check_rank(point, base.datum.rank)
    return _walk_function(base)(point.nums, point.den)


# no command calls this; perfbench's tracer binds it until ROADMAP item 1, and tests use it
def weyl_orbit_contains(base: BasedRootDatum, a: TorsionVector,
                        b: TorsionVector) -> bool:
    """Whether two torsion points are Weyl translates of each other."""
    _check_rank(b, base.datum.rank)
    orbit = _orbit_walk(base, a)  # walked first, so that a bad datum raises at any den
    return a.den == b.den and b.nums in orbit


def canonicalize_class(base: BasedRootDatum, point: TorsionVector) -> TorsionVector:
    """Least Weyl translate; equal points of equal classes get equal output."""
    return TorsionVector(min(_orbit_walk(base, point)), point.den)


def class_stabilizer_size(base: BasedRootDatum, point: TorsionVector) -> int:
    seen = _orbit_walk(base, point)
    order = weyl_group_order(base)
    if order % len(seen):
        raise AssertionError(f"orbit of size {len(seen)} does not divide |W| = {order}")
    return order // len(seen)


def _check_twist(rd: RootDatum, tau: LatticeMap):
    """Raise unless tau is an automorphism of the root datum of finite order.

    tau must be a morphism of the datum to itself (``morphism_problem``);
    the base need not be fixed.  Of tau, tau^2, ..., the first power whose
    trace t is n = rank, or has |t| > n, must be the identity: a power of
    finite order has roots of unity for eigenvalues, so |t| <= n, and t = n
    only for the identity (t = -n, as for tau = -I, goes on).  The walk ends
    when |det tau| = 1, as ``FrobeniusStructure`` makes sure (each power of
    [[1, 0], [0, 0]] has trace 1).  If every eigenvalue has modulus 1, each
    is a root of unity (Kronecker, J. reine angew. Math. 53, 1857) and t
    first reaches n at the lcm of their orders; otherwise one has modulus
    above 1, the power sums of the eigenvalues are unbounded, and |t| passes n.
    """
    if tau.domain_rank != rd.rank:
        raise ValueError(f"tau has rank {tau.domain_rank} but the datum has rank {rd.rank}")
    problem = morphism_problem(tau, rd, rd)
    if problem:
        raise ValueError(f"tau {problem}")
    n = rd.rank
    k, power = 1, tau
    while -n <= (trace := sum(row[i] for i, row in enumerate(power.rows))) < n:
        k, power = k + 1, power @ tau
    if power != LatticeMap.identity(n):
        raise ValueError(f"tau has infinite order: tau^{k} has trace {trace} on a lattice "
                         f"of rank {n} but is not the identity")


def enumerate_stable_classes(base: BasedRootDatum, frob: FrobeniusStructure):
    """Sorted canonical representatives of the Frobenius-stable classes.

    The fixed points of w o Frobenius are the torsion kernel of q tau - w^-1,
    with the same d = |det(q w tau - I)|: w is unimodular, so (w q tau - I) x
    and w^-1 (w q tau - I) x = (q tau - w^-1) x are integral together; and as
    w runs over W, so does w^-1.  So each Weyl matrix is subtracted from the
    rows of q tau, worked out once, and solved.  Each solution y/d is walked
    as a numerator tuple at its d, even when gcd(d, y) = g > 1, since that
    orbit is g times the orbit of (y/g)/(d/g); the (d, least point) pairs are
    reduced to lowest terms, which merges the pairs of one class, and sorted.
    """
    _check_twist(base.datum, frob.tau)
    walk = _walk_function(base)
    n = base.datum.rank
    q_tau = frob.tau.scale(frob.q).rows
    minima = set()
    for m in weyl_matrices(base, weyl_group(base)):
        d, numerators = _torsion_fixed_numerators(list(map(vsub, q_tau, m.rows)), n)
        for y in numerators:
            minima.add((d, min(walk(y, d))))
    reps = set()
    for d, y in minima:
        g = gcd(d, *y)
        reps.add((d // g, tuple(x // g for x in y)))
    return [StableClass(TorsionVector(y, d), frob.q) for d, y in sorted(reps)]


def lift_stable_class(conorm, cls: StableClass) -> StableClass:
    """Canonical lift of a stable class through the conorm (a ``ConormData``) of a fold."""
    target = conorm.folded.source.base
    _check_rank(cls.rep, conorm.matrix.domain_rank)
    return StableClass(canonicalize_class(target, conorm.apply(cls.rep)), cls.q)
