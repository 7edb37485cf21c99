"""Signed structure constants N(a, b) with [X_a, X_b] = N(a, b) X_{a+b}.

Signs follow the extraspecial-pair convention: positive roots are totally
ordered by height and then by preference for earlier simple roots, each
non-simple positive g gets the distinguished decomposition g = a + b with a
the least simple root for which g - a is positive, and N(a, b) = +(p+1) on
those pairs.  Every other value is forced; we derive it through two identities
that follow from the Jacobi identity in any Chevalley basis:

  triple rule    a + b + c = 0  =>  N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b)
  four-term rule N(a,b)N(a+b,c) + N(b,c)N(b+c,a) + N(c,a)N(c+a,b) = 0
                 whenever a + b + c is a root and no two of a, b, c are opposite

with (x,x) the squared length in one invariant form per component.  The fill
asserts |N| = p+1 on every derived value, so an inconsistent sign system fails.
"""

from fractions import Fraction
from functools import lru_cache

from .exact_lattice import LatticeMap, vadd, vneg, vsub
from .root_datum import BasedRootDatum, _component_lengths


class StructureConstants:
    __slots__ = ("base", "order", "_table", "_pos", "_sq", "_extra")

    def __init__(self, base, order, table, sq, extra):
        self.base = base
        self.order = order
        self._table = table
        self._pos = frozenset(order)
        self._sq = sq
        self._extra = extra

    def string_p(self, a, b):
        """Largest p with b - p*a still a root."""
        rd = self.base.datum
        p = 0
        cur = vsub(tuple(b), tuple(a))
        while rd.is_root(cur):
            p += 1
            cur = vsub(cur, a)
        return p

    def n(self, a, b) -> int:
        a, b = tuple(a), tuple(b)
        rd = self.base.datum
        if not (rd.is_root(a) and rd.is_root(b)):
            raise ValueError("arguments must be roots")
        if vadd(a, b) == (0,) * rd.rank or not rd.is_root(vadd(a, b)):
            return 0
        return self._resolve(a, b)

    def _resolve(self, a, b):
        # reduce any pair to table lookups on positive pairs
        pos = self._pos
        if a in pos and b in pos:
            return self._table[(a, b)]
        if a not in pos and b not in pos:
            return -self._resolve(vneg(a), vneg(b))
        if a not in pos:
            return -self._resolve(b, a)
        s = vadd(a, b)
        if s in pos:
            # triple rule on a + b + (-s) = 0
            val = -Fraction(self._sq[s], 1) / self._sq[a] * self._resolve(vneg(b), s)
            if val.denominator != 1:
                raise AssertionError(f"non-integral structure constant {val} at {a}, {b}")
            return int(val)
        return self._resolve(vneg(b), vneg(a))


@lru_cache(maxsize=None)
def build_structure_constants(base: BasedRootDatum) -> StructureConstants:
    """The signed table of ``base``, built once per based datum and shared."""
    rd = base.datum
    # each component's integer squared lengths; both rules divide two lengths
    # of one component, so the scale of each component's form cancels
    sq = {rd.roots[i]: length for lengths in _component_lengths(rd)
          for i, length in lengths.items()}
    all_coeffs = base.root_coefficients()
    coeffs = {rd.roots[i]: all_coeffs[i] for i in base.positive_roots()}
    order = tuple(sorted(coeffs, key=lambda r: (sum(coeffs[r]), tuple(-x for x in coeffs[r]))))
    okey = {r: k for k, r in enumerate(order)}
    simples = base.simple_roots
    table = {}
    extra = {}
    sc = StructureConstants(base, order, table, sq, extra)
    pos = sc._pos

    for g in order:
        if sum(coeffs[g]) < 2:
            continue
        a0 = next(s for s in simples if vsub(g, s) in pos)
        b0 = vsub(g, a0)
        extra[g] = (a0, b0)
        p = sc.string_p(a0, b0)
        table[(a0, b0)] = p + 1
        table[(b0, a0)] = -(p + 1)
        for xi in order:
            eta = vsub(g, xi)
            if eta not in pos or okey[xi] >= okey[eta] or xi == a0:
                continue
            # four-term rule with (a, b, c) = (-xi, a0, b0), resolved for N(xi, eta)
            acc = Fraction(0)
            d1 = vsub(a0, xi)
            if rd.is_root(d1):
                acc += sc._resolve(vneg(xi), a0) * sc._resolve(d1, b0)
            d2 = vsub(b0, xi)
            if rd.is_root(d2):
                acc += sc._resolve(b0, vneg(xi)) * sc._resolve(d2, a0)
            val = Fraction(sq[g], 1) / sq[eta] / table[(a0, b0)] * acc
            v = int(val)
            if val.denominator != 1 or abs(v) != sc.string_p(xi, eta) + 1:
                raise AssertionError("sign system inconsistency")
            table[(xi, eta)] = v
            table[(eta, xi)] = -v
    return sc


def propagate_scalars(sc: StructureConstants, diagram: LatticeMap):
    """Scalars of the automorphism with X_a -> zeta^{c(a)} X_{d(a)}, as exponents.

    diagram must permute the simple roots of sc.base.  This is the unique
    pinned extension, with c = 0 on the simple roots.  Returns {root: Fraction
    in [0,1)} covering every root.
    """
    base = sc.base
    simples = base.simple_roots
    images = {s: tuple(diagram(s)) for s in simples}
    if set(images.values()) != set(simples):
        raise ValueError("diagram part must permute the simple roots")
    c = dict.fromkeys(simples, Fraction(0))
    for g in sc.order:
        if g in c:
            continue
        a0, b0 = sc._extra[g]
        ratio = sc.n(diagram(a0), diagram(b0)) // sc.n(a0, b0)
        if ratio not in (1, -1):
            raise AssertionError(f"diagram scales N({a0}, {b0}) by {ratio}, not by a sign")
        bump = Fraction(0) if ratio == 1 else Fraction(1, 2)
        c[g] = (c[a0] + c[b0] + bump) % 1
    out = dict(c)
    for g, v in c.items():
        out[vneg(g)] = (-v) % 1
    return out
