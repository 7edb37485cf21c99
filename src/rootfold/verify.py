"""Checks that the conorm is an explicit map on points, one suite per situation.

Each situation the paper describes has a check here and a suite in ``SUITES``,
run by ``rootfold verify <name>``:

- product: rotating the factors of H^m lifts a class diagonally, with norm x^m
- trivial: a trivial action of order m lifts a class to its m-th power
- normal-subgroup: folding in stages factors the conorm
- isogeny: the conorm commutes with an equivariant isogeny after folding
- pinning: lifting through the pinned fold of a twisted action changes nothing
- levi: an inner twist lifts through the Levi hull of the vanishing roots:
  at subregular lifts x, Phi_x is closed on the coroot side, |Stab_W(x)| =
  |W(Phi_x)|, and canonicalizing in the Levi first keeps the class; it needs
  an inner action, X/ZPhi torsion-free and three subregular points at q
- root-inclusion, long-roots: fixed-group roots against restricted roots, and
  their duals, on every action in ``SUITE_PRESETS``

No check lists a Weyl group: orbits are walked from the simple reflections,
and a stabilizer's order is |W| over the size of its orbit.
"""

from . import catalog
from .classes import (FrobeniusStructure, canonicalize_class, class_stabilizer_size,
                      enumerate_stable_classes, lift_stable_class)
from .duality_conorm import ConormData, Isogeny, equivariant_for, fold_isogeny, validate_isogeny
from .exact_lattice import LatticeMap, Sublattice, TorsionVector
from .folding import dual_length_comparison, fold, restricted_root_comparison
from .gamma_action import FiniteGroup, GammaAction, pinned_projection
from .root_datum import (BasedRootDatum, RootDatum, ValidationReport, based_from_datum,
                         dual_root_datum, is_closed_subsystem, weyl_group_order)

# action presets exercised by the two root-comparison suites
SUITE_PRESETS = ("gl4-pinned", "gl6-pinned", "gl4-so-twist", "gl6-so-twist",
                 "sl3-pinned", "sl5-pinned", "e6ad-pinned", "e6ad-twisted-c4",
                 "d4-triality", "d4-full-s3", "d4-twisted-a2", "d4-s3-twisted",
                 "gl2-trivial-z3", "gl2-product-swap")
_LEVI_POINTS = 3  # the pairwise non-conjugate subregular lifts verify_levi_factorization checks


def _lift_problems(conorm: ConormData, qs, explicit_map, problem: str) -> list:
    """Per q, ``problem`` for the first stable class of the fold whose lift is not
    the class of ``explicit_map`` (the situation's map on points) at its representative.
    """
    fd = conorm.folded
    problems = []
    for q in qs:
        frob = FrobeniusStructure.untwisted(q, fd.rank)
        for cls in enumerate_stable_classes(fd.fixed_base, frob):
            explicit = canonicalize_class(fd.source.base, explicit_map(cls.rep))
            if lift_stable_class(conorm, cls).rep != explicit:
                problems.append(problem.format(rep=cls.rep.fractions(), q=q))
                break
    return problems


def verify_product_conorm(base_half: BasedRootDatum, m: int, qs) -> ValidationReport:
    """For the rotation of H^m the lift is the diagonal (``ConormData`` checks the norm x^m)."""
    problems = []
    fd = fold(catalog.rotation_action(base_half, m))
    conorm = ConormData(fd)
    n = base_half.datum.rank
    stacked = LatticeMap([[1 if c == r % n else 0 for c in range(n)]
                          for r in range(m * n)], n)
    if conorm.matrix != stacked:
        problems.append("conorm is not the diagonal embedding")
    # W(H^m) = W(H)^m acts blockwise: the least point of (x, ..., x) is (min Wx, ...)
    problems += _lift_problems(conorm, qs, lambda x: TorsionVector(x.nums * m, x.den),
                               "lift of {rep} at q={q} is not diagonal up to the Weyl group")
    return ValidationReport(not problems, problems)


def verify_trivial_lift(base: BasedRootDatum, m: int, qs) -> ValidationReport:
    """Trivial action of a group of order m lifts a class to its m-th power."""
    problems = []
    conorm = ConormData(fold(catalog.trivial_action(base, m)))
    if conorm.matrix != LatticeMap.identity(base.datum.rank).scale(m):
        problems.append("conorm of the trivial action is not multiplication by m")
    problems += _lift_problems(conorm, qs, lambda x: x.scale(m),
                               "lift of {rep} at q={q} is not the m-th power")
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
    sub = FiniteGroup(table)
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

    def staged(x):
        mid = canonicalize_class(fd_bar.fixed_base, x.apply(transport))
        return conorm0.apply(canonicalize_class(fd0.fixed_base, conorm_bar.apply(mid)))

    problems += _lift_problems(conorm_full, qs, staged,
                               "class {rep} at q={q} lifts differently through the stages")
    return ValidationReport(not problems, problems)


def verify_isogeny_square(phi: Isogeny, a_src: GammaAction,
                          a_tgt: GammaAction) -> ValidationReport:
    """Check that conorm and isogeny pullback commute after folding.

    The square compares ``conorm_src @ folded_pullback`` with
    ``char_pullback @ conorm_tgt`` as maps from folded target characters to
    source characters.
    """
    problems = []
    rep = validate_isogeny(phi)
    if not rep.ok:
        return ValidationReport(False, ("invalid isogeny", *rep.problems))
    if not equivariant_for(phi, a_src, a_tgt):
        return ValidationReport(False, ["isogeny is not equivariant for the actions"])
    f_src, f_tgt = fold(a_src), fold(a_tgt)
    bar = fold_isogeny(phi, f_src, f_tgt)
    c_src, c_tgt = ConormData(f_src), ConormData(f_tgt)
    left = c_src.matrix @ bar.char_pullback
    right = phi.char_pullback @ c_tgt.matrix
    if left != right:
        problems.append("conorm square does not commute")
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
    if not set(fd.fixed.coroots) <= set(fp.fixed.coroots):
        problems.append("twisted dual roots do not sit inside the pinned dual roots")
    elif not is_closed_subsystem(dual_root_datum(fp.fixed), fd.fixed.coroots):
        problems.append("twisted dual roots are not closed in the pinned dual system")
    problems += _lift_problems(
        conorm, qs, lambda x: conorm_p.apply(canonicalize_class(fp.fixed_base, x)),
        "class {rep} at q={q} lifts differently through the pinned fold")
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


def verify_levi_factorization(a: GammaAction, q) -> ValidationReport:
    """For an inner twist, lifting factors through the Levi fixed by the twist.

    Preconditions, each a ``ValueError`` naming it: the action is inner (every
    diagram part is the identity), X/ZPhi is torsion-free (so the dual group's
    derived group is simply connected and Steinberg's theorem applies), and at
    q the stable classes of the fold lift to at least three source classes of
    subregular points x (Phi_x neither empty nor all of Phi).  The checks: the
    fold's roots are the centralizer of the twist, and at the first lift x in
    each of three such classes, no two conjugate, the coroots of Phi_x are
    closed in the dual system (Phi_x is closed on the coroot side, not always
    on the root side), |Stab_W(x)| = |W(Phi_x)|, and canonicalizing x in the
    Levi hull of Phi_x first does not change its class.
    """
    rd = a.base.datum
    if any(d != LatticeMap.identity(rd.rank) for d in a.diagram):
        raise ValueError("levi needs an inner action")
    root_lattice = Sublattice(rd.rank, LatticeMap.from_columns(list(rd.roots), rd.rank))
    if root_lattice.saturation() != root_lattice:
        raise ValueError("levi needs X/ZPhi torsion-free")
    fd = fold(a)
    conorm = ConormData(fd)
    # the fold is the centralizer of the twist: same ambient lattice
    if set(fd.fixed.roots) != {r for r in rd.roots if all(t.pairing(r) == 0 for t in a.twist)}:
        return ValidationReport(False, ["fold is not the centralizer of the twist element"])
    frob = FrobeniusStructure.untwisted(q, fd.rank)
    source, dual = a.base, dual_root_datum(rd)
    subregular = {}  # source class -> (its first lift, Phi_x, Levi hull)
    for cls in enumerate_stable_classes(fd.fixed_base, frob):
        lift_pt = conorm.apply(cls.rep)
        psi, levi = levi_for_element(rd, lift_pt)
        if psi and len(psi) < len(rd.roots):
            subregular.setdefault(canonicalize_class(source, lift_pt), (lift_pt, psi, levi))
            if len(subregular) == _LEVI_POINTS:
                break
    if len(subregular) < _LEVI_POINTS:
        raise ValueError(f"levi found only {len(subregular)} subregular points at q={q}, "
                         f"needs {_LEVI_POINTS}")
    problems = []
    for cls_key, (lift_pt, psi, levi) in subregular.items():
        if not is_closed_subsystem(dual, [rd.coroot_of(r) for r in psi]):
            problems.append(f"vanishing subsystem of {lift_pt.fractions()} not closed")
        if class_stabilizer_size(source, lift_pt) != weyl_group_order(_based_subsystem(rd, psi)):
            problems.append(f"stabilizer of {lift_pt.fractions()} is not the "
                            "vanishing-subsystem Weyl group")
        in_levi = canonicalize_class(_based_subsystem(rd, levi), lift_pt)
        if canonicalize_class(source, in_levi) != cls_key:
            problems.append(f"Levi canonicalization changes the class of "
                            f"{lift_pt.fractions()}")
    return ValidationReport(not problems, problems)


def _based_subsystem(rd: RootDatum, roots) -> BasedRootDatum:
    """A based datum on the ambient lattice for a closed subsystem."""
    sub = RootDatum(rd.rank, sorted(roots), [rd.coroot_of(r) for r in sorted(roots)])
    return based_from_datum(sub)


def _case(name, rep: ValidationReport):
    return {"case": name, "ok": rep.ok, "problems": list(rep.problems)}


def _product(action, qs, q):
    return [_case(f"gl{n}^{m}", verify_product_conorm(catalog.gl(n), m, qs))
            for n, m in ((1, 3), (2, 2))]


def _trivial(action, qs, q):
    return [_case(f"gl2 order {m}", verify_trivial_lift(catalog.gl(2), m, qs))
            for m in (2, 5)]


def _normal_subgroup(action, qs, q):
    rep = verify_normal_subgroup_composition(catalog.z4_composite_action(), [0, 2], qs)
    return [_case("gl2gl2-z4 via its order-two subgroup", rep)]


def _isogeny(action, qs, q):
    rep = verify_isogeny_square(catalog.isogeny_sl_to_pgl(2),
                                catalog.trivial_action(catalog.sl(2)),
                                catalog.trivial_action(catalog.pgl(2)))
    out = [_case("sl2 -> pgl2", rep)]
    for n in (2, 3):
        rep = verify_isogeny_square(catalog.isogeny_sl_gl1_to_gl(n),
                                    catalog.sl_gl1_flip_action(n),
                                    catalog.pinned_gl_action(n))
        out.append(_case(f"sl{n} x gl1 -> gl{n}", rep))
    return out


def _pinning(action, qs, q):
    action = action or catalog.preset("gl4-so-twist").action
    return [_case("pinning factorization", verify_pinning_factorization(action, qs))]


def _levi(action, qs, q):
    action = action or catalog.preset("gl4-inner-block").action
    q = q or 3
    return [_case(f"levi factorization q={q}", verify_levi_factorization(action, q=q))]


def _root_inclusion(action, qs, q):
    """Both root inclusions on every suite action whose hypothesis holds.

    Presets with a non-cyclic component stabilizer are reported but cannot
    fail the command; the twist there is expected to drop a short root, and
    the report carries it as a witness.
    """
    out = []
    for name in SUITE_PRESETS:
        comp = restricted_root_comparison(catalog.preset(name).action)
        if comp.hypothesis.holds:
            ok = comp.phi_in_underline and comp.underline_short_in_phi
            problems = [] if ok else ["inclusion fails despite the hypothesis"]
            out.append({"case": name, "ok": ok, "problems": problems,
                        "hypothesis": True})
        else:
            out.append({"case": name, "ok": True, "problems": [],
                        "hypothesis": False,
                        "phi_in_underline": comp.phi_in_underline,
                        "short_in_phi": comp.underline_short_in_phi,
                        "missing_short": comp.missing_short})
    return out


def _long_roots(action, qs, q):
    """Dual sandwich on every suite action where the comparison applies."""
    out = []
    for name in SUITE_PRESETS:
        try:
            comp = dual_length_comparison(catalog.preset(name).action)
        except ValueError:
            out.append({"case": name, "ok": True, "problems": [],
                        "applicable": False})
            continue
        ok = comp.long_dual_in_phi_dual and comp.phi_dual_in_underline_dual
        problems = [] if ok else ["dual sandwich fails"]
        out.append({"case": name, "ok": ok, "problems": problems,
                    "applicable": True, "two_lengths": comp.two_lengths})
    return out


# verify target -> suite(action or None, budget field sizes, job q) -> case records
SUITES = {
    "product": _product,
    "trivial": _trivial,
    "normal-subgroup": _normal_subgroup,
    "isogeny": _isogeny,
    "pinning": _pinning,
    "levi": _levi,
    "root-inclusion": _root_inclusion,
    "long-roots": _long_roots,
}
