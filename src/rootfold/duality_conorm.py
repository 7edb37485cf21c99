"""Norm and conorm maps of a finite action, and isogenies of root data.

The norm of the action sends a point of the big torus to the product of its
translates; on cocharacters it is the sum of the coaction maps.  The conorm is
the dual-torus transpose of the norm.  On torsion points of the dual torus,
written in the folded character lattice, the conorm acts by the integer matrix
``(sum of diagram maps) @ section`` where ``section`` is any integer section
of the coinvariant projection; the sum kills the relation lattice, so the
choice of section is immaterial (asserted at build time).  The norm from the
source cocharacters to the folded ones is that matrix transposed, because the
group is closed under inverses and so the coactions sum to the transpose of
the diagram sum.

Every map here is an exact integer matrix; nothing is floating point.
"""

from .exact_lattice import LatticeMap, TorsionVector
from .folding import FoldedDatum
from .gamma_action import GammaAction
from .root_datum import BasedRootDatum, ValidationReport, morphism_problem


class ConormData:
    """Conorm of an action: the norm transposed to the dual tori.

    ``matrix`` maps torsion points of the folded dual torus (coordinates in
    the folded character lattice) to torsion points of the source dual torus.
    """

    __slots__ = ("folded", "matrix")

    def __init__(self, folded: FoldedDatum):
        a = folded.source
        n = a.base.datum.rank
        sum_diag = sum(a.diagram, LatticeMap.zero(n, n))
        # S D(g) = S for the generators g gives it for their products
        for g in a.group.generators:
            if sum_diag @ a.diagram[g] != sum_diag:
                raise AssertionError("norm does not kill the relation lattice")
        self.folded = folded
        self.matrix = sum_diag @ folded.section
        # on the folded torus the norm is multiplication by |Gamma|
        k = a.group.size
        if folded.restriction @ self.matrix != LatticeMap.identity(folded.rank).scale(k):
            raise AssertionError("norm is not multiplication by |Gamma| on the folded torus")

    def apply(self, point: TorsionVector) -> TorsionVector:
        return point.apply(self.matrix)


class Isogeny:
    """An isogeny of connected reductive groups, via its character pullback.

    ``char_pullback`` maps characters of the target group's torus to
    characters of the source group's torus, injectively with finite cokernel,
    carrying roots bijectively to roots.
    """

    __slots__ = ("source", "target", "char_pullback")

    def __init__(self, source: BasedRootDatum, target: BasedRootDatum,
                 char_pullback: LatticeMap):
        self.source = source
        self.target = target
        self.char_pullback = char_pullback


def validate_isogeny(phi: Isogeny) -> ValidationReport:
    problems = []
    m = phi.char_pullback
    src, tgt = phi.source.datum, phi.target.datum
    if m.codomain_rank != src.rank or m.domain_rank != tgt.rank:
        return ValidationReport(["char_pullback has wrong shape"])
    if src.rank != tgt.rank:
        problems.append("isogenous groups must have equal rank")
    elif m.det() == 0:
        problems.append("char_pullback is not injective")
    problem = morphism_problem(m, tgt, src)
    if problem:
        problems.append(f"char_pullback {problem}")
    return ValidationReport(problems)


def equivariant_for(phi: Isogeny, a_src: GammaAction, a_tgt: GammaAction) -> bool:
    """Whether the diagram actions intertwine the character pullback."""
    if a_src.group.size != a_tgt.group.size:
        return False
    m = phi.char_pullback
    return all(a_src.diagram[i] @ m == m @ a_tgt.diagram[i]
               for i in range(a_src.group.size))


def fold_isogeny(phi: Isogeny, f_src: FoldedDatum, f_tgt: FoldedDatum) -> Isogeny:
    """The induced isogeny between fixed-point folds of an equivariant isogeny."""
    m = phi.char_pullback
    m_bar = f_src.restriction @ m @ f_tgt.section
    if m_bar @ f_tgt.restriction != f_src.restriction @ m:
        raise AssertionError("isogeny does not descend to the folds")
    return Isogeny(f_src.fixed_base, f_tgt.fixed_base, m_bar)
