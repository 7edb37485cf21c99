from fractions import Fraction

import builders as B
from test_action_laws import ACTIONS, FRACTIONS, catalog_action, hypothesis, st
from test_chevalley import perm_map
from test_gamma_action import z2_flip_action

from rootfold import catalog
from rootfold.duality_conorm import (
    ConormData,
    Isogeny,
    equivariant_for,
    fold_isogeny,
    validate_isogeny,
)
from rootfold.exact_lattice import LatticeMap, TorsionVector, kernel_basis
from rootfold.folding import fold
from rootfold.gamma_action import FiniteGroup, GammaAction
from rootfold.verify import verify_isogeny_square


def trivial_action(base, k=1):
    g = FiniteGroup.cyclic(k)
    n = base.datum.rank
    return GammaAction(g, base, [LatticeMap.identity(n)] * g.size)


def swap_action(base_half):
    """Order-two swap of the two factors of H x H."""
    n = base_half.datum.rank
    prod = B.direct_sum(base_half, base_half)
    perm = list(range(n, 2 * n)) + list(range(n))
    return GammaAction(FiniteGroup.cyclic(2), prod,
                       [LatticeMap.identity(2 * n), perm_map(perm, 2 * n)])


def sl_gl1_action(n):
    """Transpose-inverse flip on SL(n) x GL(1), compatible with GL(n)."""
    base = B.direct_sum(B.from_cartan_sc(B.an_cartan(n - 1)), B.torus(1))
    rev = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rev[n - 2 - i][i] = 1
    rev[n - 1][n - 1] = -1
    return GammaAction(FiniteGroup.cyclic(2), base,
                       [LatticeMap.identity(n), LatticeMap(rev)])


def sl2_to_pgl2():
    return Isogeny(B.from_cartan_sc(B.an_cartan(1)),
                   B.from_cartan_ad(B.an_cartan(1)), LatticeMap([[2]]))


def _restriction_to_sl(n):
    """Column i is e_i restricted to the diagonal torus of SL(n), in
    fundamental weight coordinates, with a final row of determinant weights."""
    cols = []
    for i in range(n):
        w = [0] * (n - 1)
        if i < n - 1:
            w[i] += 1
        if i > 0:
            w[i - 1] -= 1
        cols.append(tuple(w) + (1,))
    return LatticeMap.from_columns(cols, n)


def sl_gl1_to_gl(n):
    src = B.direct_sum(B.from_cartan_sc(B.an_cartan(n - 1)), B.torus(1))
    return Isogeny(src, B.gl(n), _restriction_to_sl(n))


def test_trivial_conorm_is_identity():
    c = ConormData(fold(trivial_action(B.gl(2))))
    assert c.matrix == LatticeMap.identity(2)


def test_trivial_larger_group_conorm_is_multiplication():
    c = ConormData(fold(trivial_action(B.gl(2), k=3)))
    assert c.matrix == LatticeMap.identity(2).scale(3)


def test_gl2_flip_conorm_golden():
    c = ConormData(fold(z2_flip_action(2)))
    assert c.matrix == LatticeMap([[1], [-1]])


def test_conorm_point_application():
    c = ConormData(fold(z2_flip_action(2)))
    img = c.apply(TorsionVector((1,), 5))
    assert img.fractions() == (Fraction(1, 5), Fraction(4, 5))


def test_product_swap_conorm_stacks_identities():
    c = ConormData(fold(swap_action(B.gl(2))))
    assert c.matrix == LatticeMap([[1, 0], [0, 1], [1, 0], [0, 1]])


def test_conorm_agrees_with_pinned_projection():
    tw = [(0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0)]
    twisted = ConormData(fold(z2_flip_action(4, twist=tw)))
    pinned = ConormData(fold(z2_flip_action(4)))
    assert twisted.matrix == pinned.matrix


def test_conorm_image_is_diagram_fixed():
    for a in (z2_flip_action(4), swap_action(B.gl(2))):
        c = ConormData(fold(a))
        for d in a.diagram:
            assert d @ c.matrix == c.matrix


def test_restriction_of_conorm_is_group_order():
    a = z2_flip_action(4)
    fd = fold(a)
    c = ConormData(fd)
    assert fd.restriction @ c.matrix == LatticeMap.identity(fd.rank).scale(2)


def test_anisotropic_fold_has_empty_conorm():
    a = GammaAction(FiniteGroup.cyclic(2), catalog.torus(1),
                    [LatticeMap.identity(1), LatticeMap([[-1]])])
    fd = fold(a)
    c = ConormData(fd)
    assert (c.matrix.codomain_rank, c.matrix.domain_rank) == (1, 0)
    assert fd.restriction @ c.matrix == LatticeMap.identity(0).scale(2)
    assert c.apply(TorsionVector((), 1)) == TorsionVector((0,), 1)


def test_sl2_to_pgl2_is_valid_degree_two():
    phi = sl2_to_pgl2()
    assert validate_isogeny(phi).ok
    assert abs(phi.char_pullback.det()) == 2


def test_sl_gl1_to_gl_is_valid():
    for n in (2, 3, 4):
        phi = sl_gl1_to_gl(n)
        assert validate_isogeny(phi).ok
        assert abs(phi.char_pullback.det()) == n


def test_invalid_isogenies_are_reported():
    bad_roots = Isogeny(B.from_cartan_sc(B.an_cartan(1)),
                        B.from_cartan_ad(B.an_cartan(1)), LatticeMap([[1]]))
    assert not validate_isogeny(bad_roots).ok
    not_injective = Isogeny(B.from_cartan_sc(B.an_cartan(1)),
                            B.from_cartan_ad(B.an_cartan(1)), LatticeMap([[0]]))
    assert not validate_isogeny(not_injective).ok


def test_invalid_isogeny_square_report_is_hashable():
    phi = Isogeny(B.from_cartan_sc(B.an_cartan(1)),
                  B.from_cartan_ad(B.an_cartan(1)), LatticeMap([[1]]))
    rep = verify_isogeny_square(phi, trivial_action(phi.source),
                                trivial_action(phi.target))
    assert not rep.ok
    assert rep.problems[0] == "invalid isogeny"
    assert rep.problems[1:] == validate_isogeny(phi).problems
    assert rep in {rep}


def test_isogeny_square_sl2_gl2():
    phi = sl_gl1_to_gl(2)
    a_src, a_tgt = sl_gl1_action(2), z2_flip_action(2)
    assert equivariant_for(phi, a_src, a_tgt)
    rep = verify_isogeny_square(phi, a_src, a_tgt)
    assert rep.ok, rep.problems
    bar = fold_isogeny(phi, fold(a_src), fold(a_tgt))
    assert bar.char_pullback == LatticeMap.identity(1)


def test_isogeny_square_sl3_gl3():
    phi = sl_gl1_to_gl(3)
    rep = verify_isogeny_square(phi, sl_gl1_action(3), z2_flip_action(3))
    assert rep.ok, rep.problems


def test_isogeny_square_rejects_nonequivariant_actions():
    phi = sl_gl1_to_gl(2)
    a_src = trivial_action(phi.source, k=2)
    rep = verify_isogeny_square(phi, a_src, z2_flip_action(2))
    assert not rep.ok
    assert any("equivariant" in p for p in rep.problems)


@st.composite
def coboundary_twisted_actions(draw):
    """A catalog action and its copy with twists t(x) + s - x.s for a random s."""
    a = catalog_action(draw(st.sampled_from(ACTIONS)))
    rank = a.base.datum.rank
    s = TorsionVector.from_fractions(draw(st.lists(FRACTIONS, min_size=rank, max_size=rank)))
    twist = [t + s + s.apply(a.coaction(x)).scale(-1) for x, t in enumerate(a.twist)]
    return a, GammaAction(a.group, a.base, a.diagram, twist)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(coboundary_twisted_actions(), st.data())
def test_conorm_of_a_coboundary_twist(pair, data):
    a, twisted = pair
    fd = fold(twisted)
    conorm = ConormData(fd).matrix
    # the norm restricted to the folded torus is |Gamma|
    assert fd.restriction @ conorm == LatticeMap.identity(fd.rank).scale(a.group.size)
    # every integer section of the restriction gives the same conorm
    kernel = kernel_basis(fd.restriction)
    shift = LatticeMap([data.draw(st.lists(st.integers(-3, 3), min_size=fd.rank,
                                           max_size=fd.rank))
                        for _ in range(kernel.domain_rank)], fd.rank)
    n = a.base.datum.rank
    assert sum(twisted.diagram, LatticeMap.zero(n, n)) @ (fd.section + kernel @ shift) == conorm
    # a coboundary conjugates by a torus element, which keeps every root space
    assert fd.fixed.roots == fold(a).fixed.roots
