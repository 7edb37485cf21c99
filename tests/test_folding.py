from fractions import Fraction

import pytest

import builders as B
from oracles import same_type
from test_chevalley import flip_map, perm_map
from test_gamma_action import S3_PERMS, d4_action, z2_flip_action

from rootfold import catalog, folding, gamma_action
from rootfold.chevalley import build_structure_constants
from rootfold.duality_conorm import ConormData
from rootfold.exact_lattice import (LatticeMap, TorsionVector, dot, fixed_sublattice,
                                    right_inverse, smith_normal_form)
from rootfold.folding import (
    dual_length_comparison,
    fold,
    orbit_average,
    restricted_root_comparison,
    root_survives,
)
from rootfold.gamma_action import (FiniteGroup, GammaAction, _diagram_problems,
                                   pinned_projection)
from rootfold.root_datum import (BasedRootDatum, RootDatum, cartan_type, length_classes,
                                 weyl_group, weyl_matrices)
from rootfold.verify import SUITES


def trivial_action(base, group=None):
    g = group or FiniteGroup.cyclic(1)
    n = base.datum.rank
    return GammaAction(g, base, [LatticeMap.identity(n)] * g.size)


def sl_reversal_action(n):
    """Simply connected type A_{n-1} with the order-two diagram symmetry."""
    base = B.from_cartan_sc(B.an_cartan(n - 1))
    rev = perm_map(list(range(n - 2, -1, -1)), n - 1)
    return GammaAction(FiniteGroup.cyclic(2), base, [LatticeMap.identity(n - 1), rev])


def e6_involution_action():
    base = B.from_cartan_ad(B.E6_CARTAN)
    sigma = perm_map([5, 1, 4, 3, 2, 0], 6)
    return GammaAction(FiniteGroup.cyclic(2), base, [LatticeMap.identity(6), sigma])


def test_trivial_fold_is_copy():
    base = B.sp(2)
    fd = fold(trivial_action(base))
    assert set(fd.fixed.roots) == set(base.datum.roots)
    assert all(fd.fixed.coroot_of(r) == base.datum.coroot_of(r) for r in fd.fixed.roots)
    assert fd.restriction == LatticeMap.identity(2)
    assert fd.restriction.transpose() == LatticeMap.identity(2)
    assert all(rec.multiplier == 1 for rec in fd.provenance.values())


def test_trivial_action_of_larger_group_folds_to_copy():
    base = B.gl(3)
    fd = fold(trivial_action(base, FiniteGroup.cyclic(3)))
    assert set(fd.fixed.roots) == set(base.datum.roots)
    assert all(fd.fixed.coroot_of(r) == base.datum.coroot_of(r) for r in fd.fixed.roots)
    assert fd.restriction.transpose() == LatticeMap.identity(3)
    assert all(rec.multiplier == 1 for rec in fd.provenance.values())


def test_gl4_pinned_folds_to_c2():
    fd = fold(z2_flip_action(4))
    assert fd.rank == 2
    types, central = cartan_type(fd.fixed)
    assert central == 0
    assert same_type(types, (("C", 2),))
    assert len(fd.fixed.roots) == 8
    assert {rec.multiplier for rec in fd.provenance.values()} == {1}
    # the flip-fixed source root restricts to a long root
    lens = length_classes(fd.fixed)
    fixed_src = (1, 0, 0, -1)
    img = next(r for r, rec in fd.provenance.items() if rec.source_rep == fixed_src)
    assert lens[fd.fixed.root_index(img)] == "long"


def test_gl6_pinned_folds_to_c3():
    fd = fold(z2_flip_action(6))
    types, central = cartan_type(fd.fixed)
    assert central == 0
    assert same_type(types, (("C", 3),))
    assert len(fd.fixed.roots) == 18


def test_gl4_so_twist_folds_to_a1_a1():
    fd = fold(z2_flip_action(4, twist=[(0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0)]))
    assert fd.rank == 2
    types, central = cartan_type(fd.fixed)
    assert central == 0
    assert same_type(types, (("A", 1), ("A", 1)))
    assert len(fd.fixed.roots) == 4
    # the twist kills exactly the flip-fixed roots
    a = fd.source
    assert not root_survives(a, (1, 0, 0, -1))
    assert not root_survives(a, (0, 1, -1, 0))
    assert root_survives(a, (1, -1, 0, 0))


def test_so_twist_folded_simple_has_nonsimple_source():
    fd = fold(z2_flip_action(4, twist=[(0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0)]))
    simples_src = set(fd.source.base.simple_roots)
    reps = [fd.provenance[fd.fixed.roots[i]].source_rep
            for i in fd.fixed_base.simple_indices]
    assert any(rep not in simples_src for rep in reps)


def test_sl5_pinned_folds_to_b2_with_doubling():
    fd = fold(sl_reversal_action(5))
    types, central = cartan_type(fd.fixed)
    assert central == 0
    assert same_type(types, (("B", 2),))
    assert len(fd.fixed.roots) == 8
    mults = {rec.multiplier for rec in fd.provenance.values()}
    assert mults == {1, 2}
    # doubling happens exactly on orbits whose two members pair nontrivially
    rd = fd.source.base.datum
    for rec in fd.provenance.values():
        pair_adjacent = (len(rec.orbit) == 2
                         and dot(rec.orbit[0], rd.coroot_of(rec.orbit[1])) != 0)
        assert (rec.multiplier == 2) == pair_adjacent


def test_sl7_pinned_folds_to_b3():
    fd = fold(sl_reversal_action(7))
    types, central = cartan_type(fd.fixed)
    assert central == 0
    assert same_type(types, (("B", 3),))
    assert not same_type(types, (("C", 3),))
    assert len(fd.fixed.roots) == 18


def test_e6_pinned_folds_to_f4():
    fd = fold(e6_involution_action())
    types, central = cartan_type(fd.fixed)
    assert central == 0
    assert same_type(types, (("F", 4),))
    assert len(fd.fixed.roots) == 48
    lens = length_classes(fd.fixed)
    longs = [r for i, r in enumerate(fd.fixed.roots) if lens[i] == "long"]
    assert len(longs) == 24
    # long folded roots are restrictions of involution-fixed source roots
    for r in longs:
        assert len(fd.provenance[r].orbit) == 1


def test_d4_triality_folds_to_g2():
    fd = fold(d4_action(S3_PERMS[:3]))
    types, central = cartan_type(fd.fixed)
    assert central == 0
    assert same_type(types, (("G", 2),))
    assert len(fd.fixed.roots) == 12
    assert {rec.multiplier for rec in fd.provenance.values()} == {1}
    lens = length_classes(fd.fixed)
    for r, rec in fd.provenance.items():
        assert lens[fd.fixed.root_index(r)] == ("long" if len(rec.orbit) == 1 else "short")


def test_d4_full_s3_folds_to_same_g2():
    fd3 = fold(d4_action(S3_PERMS[:3]))
    fd6 = fold(d4_action(S3_PERMS))
    assert fd6.fixed == fd3.fixed
    assert fd6.restriction.transpose() == fd3.restriction.transpose()
    types, _ = cartan_type(fd6.fixed)
    assert same_type(types, (("G", 2),))


def test_pinned_folded_simples_come_from_source_simples():
    for a in (z2_flip_action(4), sl_reversal_action(5), e6_involution_action(),
              d4_action(S3_PERMS[:3])):
        fd = fold(a)
        simples_src = set(a.base.simple_roots)
        for i in fd.fixed_base.simple_indices:
            rec = fd.provenance[fd.fixed.roots[i]]
            assert rec.source_rep in simples_src


def _induced_cochar_matrix(fd, m):
    lift = right_inverse(fd.restriction)
    return lift.transpose() @ m.inverse_unimodular().transpose() @ fd.restriction.transpose()


def test_folded_weyl_embeds_in_fixed_source_weyl():
    for a in (z2_flip_action(4), d4_action(S3_PERMS[:3])):
        fd = fold(a)
        w_source = list(weyl_matrices(a.base, weyl_group(a.base)))
        diags = {d for d in a.diagram}
        for i in fd.fixed_base.simple_indices:
            target = fd.fixed.reflection(i).transpose()
            found = False
            for w in w_source:
                if any(d @ w != w @ d for d in diags):
                    continue
                if _induced_cochar_matrix(fd, w) == target:
                    found = True
                    break
            assert found, f"no fixed source element induces folded reflection {i}"


def test_restriction_comparison_pinned_is_equality():
    rep = restricted_root_comparison(z2_flip_action(4))
    assert rep.phi == rep.underline_phi
    assert rep.phi_in_underline and rep.underline_short_in_phi
    assert rep.hypothesis.holds


def test_restriction_comparison_so_twist():
    a = z2_flip_action(4, twist=[(0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0)])
    rep = restricted_root_comparison(a)
    assert rep.phi_in_underline
    assert rep.underline_short_in_phi
    assert rep.missing_short is None
    assert len(rep.phi) < len(rep.underline_phi)


def test_orbit_average_is_projection_to_fixed_space():
    a = z2_flip_action(4)
    v = orbit_average(a, (1, -1, 0, 0))
    assert v == (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))


def test_dual_length_sandwich_so_twist():
    a = z2_flip_action(4, twist=[(0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0)])
    rep = dual_length_comparison(a)
    assert rep.two_lengths
    assert rep.long_dual_in_phi_dual
    assert rep.phi_dual_in_underline_dual
    assert len(rep.phi_dual) < len(rep.underline_dual)


def test_dual_length_pinned_everything_equal():
    rep = dual_length_comparison(z2_flip_action(4))
    assert rep.phi_dual == rep.underline_dual
    assert rep.long_dual_in_phi_dual and rep.phi_dual_in_underline_dual


def test_dual_length_requires_stabilizer_hypothesis():
    with pytest.raises(ValueError):
        dual_length_comparison(d4_action(S3_PERMS))


def test_fold_rejects_invalid_action():
    bad = z2_flip_action(4, twist=[(0, 0, 0, 0), (Fraction(1, 3), 0, 0, 0)])
    with pytest.raises(ValueError):
        fold(bad)


def test_section_splits_the_restriction():
    anisotropic = GammaAction(FiniteGroup.cyclic(2), B.torus(1),
                              [LatticeMap.identity(1), LatticeMap([[-1]])])
    for a in (z2_flip_action(4), sl_reversal_action(5), d4_action(S3_PERMS),
              anisotropic):
        fd = fold(a)
        n = a.base.datum.rank
        assert (fd.section.codomain_rank, fd.section.domain_rank) == (n, fd.rank)
        assert fd.restriction @ fd.section == LatticeMap.identity(fd.rank)


def _torus_involution(m):
    return GammaAction(FiniteGroup.cyclic(2), B.torus(2), [LatticeMap.identity(2), m])


def test_torus_fold_projections():
    swap = fold(_torus_involution(LatticeMap([[0, 1], [1, 0]])))
    assert swap.restriction == LatticeMap([[1, 1]])
    assert swap.restriction.transpose() == LatticeMap([[1], [1]])
    # d(x) - x spans only 2(1, -1); the restriction still kills (1, -1) and
    # is onto Z, so the relations were saturated
    index_two = fold(_torus_involution(LatticeMap([[1, 2], [0, -1]])))
    assert index_two.rank == 1
    assert index_two.restriction((1, -1)) == (0,)
    assert index_two.restriction == LatticeMap([[1, 1]])
    assert index_two.restriction @ index_two.section == LatticeMap.identity(1)


CATALOG_ACTIONS = [name for name in B.preset_names() if "<" not in name] + [
    "gl3-pinned", "gl4-pinned", "gl4-so-twist", "sl4-pinned", "sl5-pinned",
    "pgl4-pinned", "so8-pinned", "gl2-trivial-z3", "gl2-product-swap"]


def _matrix_rank(m):
    _, d, _ = smith_normal_form(m)
    return sum(1 for i in range(min(d.codomain_rank, d.domain_rank)) if d.rows[i][i])


@pytest.mark.parametrize("name", CATALOG_ACTIONS)
def test_fold_projections_on_catalog_presets(name):
    a = catalog.preset(name).action
    fd = fold(a)
    n = a.base.datum.rank
    ident = LatticeMap.identity(n)
    relations = []
    for d in a.diagram:
        assert fd.restriction @ (d - ident) == LatticeMap.zero(fd.rank, n)
        relations.extend((d - ident).columns())
    assert fd.restriction @ fd.section == LatticeMap.identity(fd.rank)
    assert fd.rank + _matrix_rank(LatticeMap.from_columns(relations, n)) == n
    conorm = ConormData(fd).matrix
    assert fd.restriction @ conorm == LatticeMap.identity(fd.rank).scale(a.group.size)


def _count_validations(monkeypatch):
    """Empty the fold cache, and record each datum ``fold`` validates from now on."""
    folding._FOLDS.clear()
    calls = []
    real = folding.validate
    monkeypatch.setattr(folding, "validate", lambda rd: calls.append(rd) or real(rd))
    return calls


def test_fold_validates_once(monkeypatch):
    calls = _count_validations(monkeypatch)
    for name in ("e6ad-pinned", "d4-triality", "gl4-so-twist", "gl2-trivial-z3"):
        calls.clear()
        fd = fold(catalog.preset(name).action)
        assert calls == [fd.fixed_base]


def test_actions_with_equal_parts_share_one_fold(monkeypatch):
    calls = _count_validations(monkeypatch)
    a = catalog.preset("d4-twisted-a2").action
    twin = GammaAction(FiniteGroup(a.group.table), a.base, a.diagram, a.twist)
    fd = fold(a)
    assert fold(twin) is fd and fd.source is a
    assert calls == [fd.fixed_base]


def test_fold_is_keyed_on_the_twists_not_on_their_pairings(monkeypatch):
    # a central twist pairs to zero with every root, so same_action cannot
    # tell these apart; their parts differ, and so do their cache entries
    calls = _count_validations(monkeypatch)
    plain = trivial_action(B.gl(2), FiniteGroup.cyclic(2))
    central = GammaAction(plain.group, plain.base, plain.diagram,
                          [(0, 0), (Fraction(1, 2), Fraction(1, 2))])
    assert B.same_action(plain, central)
    assert fold(plain) is not fold(central)
    assert len(calls) == len(folding._FOLDS) == 2


def test_preset_and_pinned_projection_entries(monkeypatch):
    _count_validations(monkeypatch)
    untwisted = catalog.preset("d4-triality").action
    assert fold(pinned_projection(untwisted)) is fold(untwisted)
    twisted = catalog.preset("d4-twisted-a2").action
    assert fold(pinned_projection(twisted)) is fold(untwisted)
    assert fold(twisted) is not fold(untwisted)
    assert len(folding._FOLDS) == 2


def test_failed_fold_is_not_kept():
    ident = LatticeMap.identity(4)
    bad = GammaAction(FiniteGroup.cyclic(3), B.gl(4), [ident, flip_map(4), ident])
    folding._FOLDS.clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid action"):
            fold(bad)
    assert not folding._FOLDS


@pytest.mark.parametrize("which, folds", [("root-inclusion", 14), ("long-roots", 12)])
def test_comparison_suites_fold_each_action_once(monkeypatch, which, folds):
    # each suite preset is compared with its pinned projection: an untwisted
    # preset is its own projection, and a twisted one projects to a suite preset
    calls = _count_validations(monkeypatch)
    cases = SUITES[which](None, (2, 3), None)
    assert all(c["ok"] for c in cases)
    assert len(calls) == len(folding._FOLDS) == folds


def test_restricted_root_comparison_builds_one_table():
    a = catalog.preset("e6ad-pinned").action
    unused = GammaAction(a.group, a.base, a.diagram, a.twist)  # no pinned scalars yet
    folding._FOLDS.clear()
    build_structure_constants.cache_clear()
    gamma_action._pinned_scalars.cache_clear()
    restricted_root_comparison(unused)
    info = build_structure_constants.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits >= 1


def test_restricted_root_comparison_propagates_each_diagram_part_once(monkeypatch):
    # the action and its pinned projection have the same six diagram parts
    a = catalog.preset("d4-full-s3").action
    calls = []
    real = gamma_action.propagate_scalars
    monkeypatch.setattr(gamma_action, "propagate_scalars",
                        lambda sc, d: calls.append(d) or real(sc, d))
    folding._FOLDS.clear()
    gamma_action._pinned_scalars.cache_clear()
    restricted_root_comparison(a)
    assert len(calls) <= a.group.size == 6


@pytest.mark.parametrize("compare", [restricted_root_comparison, dual_length_comparison])
def test_action_and_pinned_projection_share_one_diagram_check(compare):
    a = catalog.preset("e6ad-twisted-c4").action
    folding._FOLDS.clear()
    _diagram_problems.cache_clear()
    compare(a)
    info = _diagram_problems.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits >= 1


def _twisted_cyclic_200():
    # t_k = k/400 on A1: a twisted action of the cyclic group of order 200
    a1 = BasedRootDatum(RootDatum(1, [(2,), (-2,)], [(1,), (-1,)]), (0,))
    return GammaAction(FiniteGroup.cyclic(200), a1, [LatticeMap.identity(1)] * 200,
                       [TorsionVector((k,), 400) for k in range(200)])


def _klein_four_on_torus2():
    # two generators, the swap and -1: the swap alone fixes a line, both fix 0
    klein = FiniteGroup.from_permutations([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                                           (3, 2, 1, 0)])
    swap, minus = LatticeMap([[0, 1], [1, 0]]), LatticeMap.identity(2).scale(-1)
    return GammaAction(klein, B.torus(2), [LatticeMap.identity(2), swap, minus, swap @ minus])


EXTRA_ACTIONS = {"cyclic-200": _twisted_cyclic_200, "klein-four": _klein_four_on_torus2}


@pytest.mark.parametrize("name", CATALOG_ACTIONS + list(EXTRA_ACTIONS))
def test_fold_fixes_what_every_group_element_fixes(name):
    # fold takes the fixed sublattice of the identity's and the generators' coactions only
    a = EXTRA_ACTIONS[name]() if name in EXTRA_ACTIONS else catalog.preset(name).action
    every = fixed_sublattice([a.coaction(i) for i in range(a.group.size)])
    assert fold(a).restriction == every.basis.transpose()
