"""Root datum of the fixed-point subgroup of a finite action.

Cocharacters of the folded torus are the fixed sublattice of the source
cocharacters; characters are the coinvariants of the source characters.  Only
the cocharacter side is computed: the fixed sublattice is saturated, so
pairing with its Hermite basis maps the source characters onto the folded
ones with the saturated relation lattice as kernel.  The restriction is that
basis transposed, so the two sides pair by the standard dot product by
construction, which keeps every later norm/conorm identity a literal matrix
identity.

A restricted root survives (beta = i^* alpha lies in the folded system) iff
every stabilizer element acts with scalar one on the alpha root space; the
folded coroot is the orbit sum of source coroots times a multiplier in {1, 2}
that makes it pair to 2 with the restricted root.
"""

from fractions import Fraction
from typing import NamedTuple

from .exact_lattice import dot, fixed_sublattice, right_inverse, vadd
from .gamma_action import (
    GammaAction,
    pinned_projection,
    root_orbit,
    root_space_scalar,
    root_stabilizer,
    stabilizer_hypothesis,
    validate_action,
)
from .root_datum import (
    BasedRootDatum,
    RootDatum,
    dual_root_datum,
    indecomposable_indices,
    length_classes,
    validate,
)


class FoldedRootRecord(NamedTuple):
    root: tuple
    coroot: tuple
    orbit: tuple
    source_rep: tuple
    multiplier: int


class FoldedDatum:
    """The fold of ``source``.

    ``restriction`` is the coinvariant projection of the source characters;
    its transpose is the fixed cocharacter basis.  ``section`` is an integer
    right inverse of ``restriction``.
    """

    __slots__ = ("source", "fixed", "fixed_base", "restriction", "section", "provenance")

    def __init__(self, source, fixed, fixed_base, restriction, section, provenance):
        self.source = source
        self.fixed = fixed
        self.fixed_base = fixed_base
        self.restriction = restriction
        self.section = section
        self.provenance = provenance

    @property
    def rank(self):
        return self.fixed.rank

    def __repr__(self):
        return f"FoldedDatum(rank={self.rank}, {len(self.fixed.roots)} roots)"


def orbit_average(a: GammaAction, root):
    """i^* of the root as a rational vector in the source coordinates."""
    orb = root_orbit(a, root)
    k = len(orb)
    n = a.base.datum.rank
    return tuple(Fraction(sum(o[i] for o in orb), k) for i in range(n))


def root_survives(a: GammaAction, root) -> bool:
    """All stabilizer elements act trivially on the root space."""
    return all(root_space_scalar(a, i, root) == 0 for i in root_stabilizer(a, root))


# (group table, base, diagram parts, twists) -> the fold of every action with them
_FOLDS = {}


def fold(a: GammaAction) -> FoldedDatum:
    """The fold of ``a``, computed once per process for its defining parts.

    The key is the group table, the base, the diagram parts and the twists
    themselves, so twists that differ by a central element, and pair alike
    with every root, get folds of their own.  Every action with those parts
    gets the same ``FoldedDatum``, whose ``source`` is the first of them
    folded; callers must not mutate it.  A fold that raises is not kept.
    """
    key = (a.group.table, a.base, a.diagram, a.twist)
    fd = _FOLDS.get(key)
    if fd is None:
        fd = _FOLDS[key] = _fold(a)
    return fd


def _fold(a: GammaAction) -> FoldedDatum:
    rep = validate_action(a)
    if not rep.ok:
        raise ValueError("invalid action: " + "; ".join(rep.problems))
    rd = a.base.datum
    n = rd.rank
    # the generators fix what the whole group fixes; the identity keeps the
    # list nonempty for the trivial group, which has no generators
    sub = fixed_sublattice([a.coaction(i) for i in (0, *a.group.generators)])
    proj = sub.basis.transpose()
    lift = right_inverse(proj)

    # one record per surviving orbit; distinct orbits may share a restriction
    records = {}
    seen = set()
    for alpha in rd.roots:
        if alpha in seen:
            continue
        orb = root_orbit(a, alpha)
        seen.update(orb)
        if not root_survives(a, alpha):
            continue
        beta = tuple(proj(alpha))
        if beta in records:
            continue
        coroot_orbit = {tuple(rd.coroot_of(o)) for o in orb}
        sigma = (0,) * n
        for cv in sorted(coroot_orbit):
            sigma = vadd(sigma, cv)
        pair = dot(alpha, sigma)
        if pair not in (1, 2):
            raise AssertionError(f"coroot multiplier out of range at {alpha}")
        mult = 2 // pair
        scaled = tuple(mult * x for x in sigma)
        # coordinates of the orbit sum in the fixed cocharacter basis
        beta_vee = sub.coordinates(scaled)
        if beta_vee is None or dot(beta, beta_vee) != 2:
            raise AssertionError(f"folded coroot of {beta} is not dual to it")
        records[beta] = FoldedRootRecord(beta, beta_vee, orb, alpha, mult)

    roots = sorted(records)
    fixed = RootDatum(sub.rank, roots, [records[r].coroot for r in roots])
    # the restrictions of positive source roots are the positive folded roots
    pos_src = {rd.roots[i] for i in a.base.positive_roots()}
    base = BasedRootDatum(fixed, indecomposable_indices(
        fixed, (r for r, rec in records.items() if rec.source_rep in pos_src)))
    # one validation covers the datum axioms and then the base
    rep2 = validate(base)
    if not rep2.ok:
        raise AssertionError("folded datum invalid: " + "; ".join(rep2.problems))
    return FoldedDatum(a, fixed, base, proj, lift, records)


class RestrictionComparison(NamedTuple):
    phi: tuple
    underline_phi: tuple
    missing_short: tuple | None  # least averaged short root of the pinned fold not in phi
    hypothesis: object

    @property
    def phi_in_underline(self) -> bool:
        return set(self.phi) <= set(self.underline_phi)

    @property
    def underline_short_in_phi(self) -> bool:
        return self.missing_short is None


def restricted_root_comparison(a: GammaAction) -> RestrictionComparison:
    """Compare the fold of the action with the fold of its pinned projection.

    Both root sets are placed in the shared rational space of averaged source
    characters, where inclusion is plain set containment.
    """
    fd = fold(a)
    fp = fold(pinned_projection(a))
    phi = {orbit_average(a, rec.source_rep) for rec in fd.provenance.values()}
    uphi = {orbit_average(a, rec.source_rep) for rec in fp.provenance.values()}
    lens = length_classes(fp.fixed)
    short_avgs = {orbit_average(a, rec.source_rep) for rec in fp.provenance.values()
                  if lens[fp.fixed.root_index(rec.root)] == "short"}
    missing = next((v for v in sorted(short_avgs) if v not in phi), None)
    return RestrictionComparison(
        phi=tuple(sorted(phi)),
        underline_phi=tuple(sorted(uphi)),
        missing_short=missing,
        hypothesis=stabilizer_hypothesis(a),
    )


class DualLengthComparison(NamedTuple):
    phi_dual: tuple
    underline_dual: tuple
    long_dual_in_phi_dual: bool
    two_lengths: bool

    @property
    def phi_dual_in_underline_dual(self) -> bool:
        return set(self.phi_dual) <= set(self.underline_dual)


def dual_length_comparison(a: GammaAction) -> DualLengthComparison:
    """Sandwich of dual root systems on the shared folded cocharacter lattice."""
    hyp = stabilizer_hypothesis(a)
    if not hyp.holds:
        raise ValueError("stabilizer hypothesis fails; comparison not applicable")
    fd = fold(a)
    fp = fold(pinned_projection(a))
    phi_dual = set(fd.fixed.coroots)
    dual_datum = dual_root_datum(fp.fixed)
    lens = length_classes(dual_datum)
    longs = {r for i, r in enumerate(dual_datum.roots) if lens[i] == "long"}
    return DualLengthComparison(
        phi_dual=tuple(sorted(phi_dual)),
        underline_dual=tuple(sorted(fp.fixed.coroots)),
        long_dual_in_phi_dual=longs <= phi_dual,
        two_lengths=len({lens[i] for i in range(len(dual_datum.roots))}) == 2,
    )
