import time
from fractions import Fraction
from itertools import product

import pytest

import builders as B
from rootfold.exact_lattice import LatticeMap, TorsionVector
from rootfold.gamma_action import (
    FiniteGroup,
    _diagram_problems,
    GammaAction,
    pinned_projection,
    root_orbit,
    root_space_scalar,
    root_stabilizer,
    stabilizer_hypothesis,
    validate_action,
)
from test_chevalley import flip_map, perm_map


def z2_flip_action(m, twist=None):
    g = FiniteGroup.cyclic(2)
    return GammaAction(g, B.gl(m), [LatticeMap.identity(m), flip_map(m)], twist)


S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]


def d4_action(perms_of_outer):
    """Action on the weight-coordinate D4 datum by permutations of nodes 1,3,4."""
    base = B.from_cartan_sc(B.D4_CARTAN)
    # outer nodes in coordinate positions 0, 2, 3; node order (1, 3, 4)
    maps = []
    for p in perms_of_outer:
        outer = [0, 2, 3]
        perm = [0] * 4
        perm[1] = 1
        for k, pos in enumerate(outer):
            perm[pos] = outer[p[k]]
        maps.append(perm_map(perm, 4))
    g = FiniteGroup.from_permutations(perms_of_outer)
    return GammaAction(g, base, maps)


# --- finite groups ---

def test_cyclic_group():
    g = FiniteGroup.cyclic(4)
    assert g.size == 4
    assert g.order_of(1) == 4
    assert g.table[1][3] == g.table[3][1] == 0
    assert g.is_cyclic()


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 not an identity
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse


def test_large_cyclic_group_is_built_fast():
    start = time.perf_counter()
    g = FiniteGroup.cyclic(1000)
    assert time.perf_counter() - start < 1.0
    assert g.order_of(1) == 1000


# a loop of order 5: 0 is an identity and every row and column is a permutation
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_non_associative_loop_rejected():
    assert all(sorted(col) == list(range(5)) for col in zip(*LOOP5))
    assert any(LOOP5[LOOP5[x][y]][z] != LOOP5[x][LOOP5[y][z]]
               for x, y, z in product(range(5), repeat=3))
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(LOOP5)


def test_s3_from_permutations():
    g = FiniteGroup.from_permutations(S3_PERMS)
    assert g.size == 6
    assert not g.is_cyclic()
    assert sorted(g.order_of(i) for i in range(g.size)) == [1, 2, 2, 2, 3, 3]


@pytest.mark.parametrize("perms, bad", [
    ([[0, 1], [1]], 1),
    ([[0, 1], [2, 0]], 1),
    ([[0, 1, 2], [1, 1, 0]], 1),
    ([[0, 1], [1, 0], [0, 1, 2]], 2),
])
def test_from_permutations_names_an_entry_that_permutes_nothing(perms, bad):
    with pytest.raises(ValueError, match=f"^permutation {bad} is not a permutation of "):
        FiniteGroup.from_permutations(perms)


def test_subgroup_and_quotient():
    g = FiniteGroup.cyclic(4)
    sub = g.subgroup_closure([2])
    assert sub == (0, 2)
    assert g.is_normal(sub)
    q, coset_of, reps = g.quotient_by(sub)
    assert q.size == 2
    assert coset_of[0] == coset_of[2]
    assert coset_of[1] == coset_of[3]
    assert coset_of[reps[1]] == 1

    s3 = FiniteGroup.from_permutations(S3_PERMS)
    rot = s3.subgroup_closure([1])
    assert len(rot) == 3 and s3.is_normal(rot)
    assert not s3.is_normal(s3.subgroup_closure([3]))


# --- action construction and validation ---

def test_pinned_involution_valid():
    a = z2_flip_action(4)
    rep = validate_action(a)
    assert rep.ok, rep.problems


def test_so_twist_valid():
    a = z2_flip_action(4, [(0,) * 4, (Fraction(1, 2), Fraction(1, 2), 0, 0)])
    rep = validate_action(a)
    assert rep.ok, rep.problems


def test_trivial_group_valid():
    a = GammaAction(FiniteGroup.cyclic(1), B.gl(2), [LatticeMap.identity(2)])
    assert validate_action(a).ok


def test_cocycle_violation_reported():
    a = z2_flip_action(4, [(0,) * 4, (Fraction(1, 3), 0, 0, 0)])
    rep = validate_action(a)
    assert not rep.ok
    assert any("cocycle" in p for p in rep.problems)


def test_non_base_preserving_rejected():
    g = FiniteGroup.cyclic(2)
    swap = LatticeMap([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        GammaAction(g, B.gl(2), [LatticeMap.identity(2), swap])


@pytest.mark.parametrize("diagram, twist, message", [
    ([LatticeMap.identity(2)], None, "diagram has 1 parts"),
    ([LatticeMap.identity(2), LatticeMap([[1, 0]])], None, "diagram part 1 is 1 x 2"),
    ([LatticeMap.identity(2), LatticeMap.identity(3)], None, "diagram part 1 is 3 x 3"),
    ([LatticeMap.identity(2)] * 2, [(0, 0)], "twist has 1 entries"),
    ([LatticeMap.identity(2)] * 2, [(0, 0), (Fraction(1, 2),)], "twist 1 has rank 1"),
])
def test_mismatched_shapes_rejected(diagram, twist, message):
    with pytest.raises(ValueError, match=message):
        GammaAction(FiniteGroup.cyclic(2), B.gl(2), diagram, twist)


def test_non_homomorphism_reported():
    g = FiniteGroup.cyclic(3)
    ident = LatticeMap.identity(4)
    a = GammaAction(g, B.gl(4), [ident, flip_map(4), ident])
    rep = validate_action(a)
    assert not rep.ok
    assert any("homomorphism" in p for p in rep.problems)


@pytest.mark.parametrize("first", ["valid", "invalid"])
def test_diagram_verdict_is_kept_per_diagram(first):
    # same base and group table, different diagram parts: neither verdict may
    # stand in for the other, whichever is computed first
    ident = LatticeMap.identity(4)
    actions = {"valid": GammaAction(FiniteGroup.cyclic(3), B.gl(4), [ident] * 3),
               "invalid": GammaAction(FiniteGroup.cyclic(3), B.gl(4),
                                      [ident, flip_map(4), ident])}
    _diagram_problems.cache_clear()
    for name in (first, *(n for n in actions if n != first)):
        assert validate_action(actions[name]).ok == (name == "valid")
    assert _diagram_problems.cache_info().misses == 2


def test_twist_half_runs_for_every_action():
    _diagram_problems.cache_clear()
    assert validate_action(z2_flip_action(4)).ok
    rep = validate_action(z2_flip_action(4, [(0,) * 4, (Fraction(1, 3), 0, 0, 0)]))
    assert any("cocycle" in p for p in rep.problems)
    assert _diagram_problems.cache_info().hits == 1


# --- orbits, stabilizers, scalars ---

def test_a2_orbits_and_stabilizers():
    a = z2_flip_action(3)
    a1 = (1, -1, 0)
    high = (1, 0, -1)
    assert root_orbit(a, a1) == ((0, 1, -1), (1, -1, 0))
    assert root_stabilizer(a, a1) == (0,)
    assert root_orbit(a, high) == (high,)
    assert root_stabilizer(a, high) == (0, 1)


def test_triality_fixes_center_node():
    a = d4_action(S3_PERMS[:3])
    alpha2 = a.base.simple_roots[1]
    assert root_orbit(a, alpha2) == (alpha2,)
    outer = a.base.simple_roots[0]
    assert len(root_orbit(a, outer)) == 3


def test_identity_scalar_zero():
    a = z2_flip_action(4, [(0,) * 4, (Fraction(1, 2), Fraction(1, 2), 0, 0)])
    for r in a.base.datum.roots:
        assert root_space_scalar(a, 0, r) == 0


def test_a2_pinned_scalar():
    a = z2_flip_action(3)
    assert root_space_scalar(a, 1, (1, 0, -1)) == Fraction(1, 2)
    assert root_space_scalar(a, 1, (1, -1, 0)) == 0


def test_twist_contributes_on_fixed_roots():
    a = z2_flip_action(4, [(0,) * 4, (Fraction(1, 2), Fraction(1, 2), 0, 0)])
    # both flip-fixed roots: pinned part 0, twist pairing 1/2
    assert root_space_scalar(a, 1, (1, 0, 0, -1)) == Fraction(1, 2)
    assert root_space_scalar(a, 1, (0, 1, -1, 0)) == Fraction(1, 2)
    # non-fixed simple root picks up only the twist of its image
    assert root_space_scalar(a, 1, (1, -1, 0, 0)) == \
        a.twist[1].pairing(a.diagram[1]((1, -1, 0, 0)))


def test_scalar_cocycle_identity():
    actions = [
        z2_flip_action(4, [(0,) * 4, (Fraction(1, 2), Fraction(1, 2), 0, 0)]),
        z2_flip_action(5),
        d4_action(S3_PERMS),
    ]
    for a in actions:
        for i in range(a.group.size):
            for j in range(a.group.size):
                k = a.group.table[i][j]
                for r in a.base.datum.roots:
                    lhs = root_space_scalar(a, k, r)
                    rhs = (root_space_scalar(a, i, a.diagram[j](r))
                           + root_space_scalar(a, j, r)) % 1
                    assert lhs == rhs


def test_pinned_scalars_vanish_on_simples():
    for a in (z2_flip_action(4), z2_flip_action(5), d4_action(S3_PERMS)):
        for i in range(a.group.size):
            for s in a.base.simple_roots:
                assert root_space_scalar(a, i, s) == 0


# --- pinned projection ---

def test_pinned_projection_strips_twist():
    a = z2_flip_action(4, [(0,) * 4, (Fraction(1, 2), Fraction(1, 2), 0, 0)])
    p = pinned_projection(a)
    assert p.diagram == a.diagram
    assert all(t.is_zero() for t in p.twist)
    assert B.same_action(pinned_projection(p), p)
    assert B.same_action(p, z2_flip_action(4))


def test_central_twist_equals_untwisted():
    central = [(0,) * 4, (Fraction(1, 2),) * 4]
    assert B.same_action(z2_flip_action(4, central), z2_flip_action(4))
    assert not B.same_action(z2_flip_action(4, [(0,) * 4, (Fraction(1, 2), 0, 0, 0)]),
                             z2_flip_action(4))


# --- stabilizer hypothesis ---

def test_stabilizer_involution_holds():
    rep = stabilizer_hypothesis(z2_flip_action(4))
    assert rep.holds
    rec = rep.components[0]
    assert rec.image_order == 2 and rec.cyclic and rec.faithful and not rec.trivial


def test_stabilizer_full_s3_fails():
    rep = stabilizer_hypothesis(d4_action(S3_PERMS))
    assert not rep.holds
    assert rep.witness == 0
    assert not rep.components[0].cyclic


def test_stabilizer_triality_holds():
    rep = stabilizer_hypothesis(d4_action(S3_PERMS[:3]))
    assert rep.holds
    assert rep.components[0].image_order == 3


def test_stabilizer_trivial_action():
    a = GammaAction(FiniteGroup.cyclic(1), B.gl(2), [LatticeMap.identity(2)])
    rep = stabilizer_hypothesis(a)
    assert rep.holds
    assert rep.components[0].trivial
