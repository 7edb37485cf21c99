import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

import builders as B
from oracles import (_det, brute_force_orbit, fixed_point_count, gl_class_count,
                     has_finite_order, solve_rational, steinberg_count, torsion_fixed_points,
                     verify_conorm_well_defined, weyl_matrices_by_closure)
from test_action_laws import hypothesis, st
from test_cartan_oracle import GROUPS
from test_gamma_action import z2_flip_action

from rootfold import catalog, exact_lattice, verify
from rootfold.classes import (
    FrobeniusStructure,
    StableClass,
    _check_twist,
    _least_prime_factor,
    _walk_function,
    canonicalize_class,
    class_stabilizer_size,
    enumerate_stable_classes,
    lift_stable_class,
    weyl_orbit_contains,
)
from rootfold.duality_conorm import ConormData
from rootfold.exact_lattice import LatticeMap, TorsionVector
from rootfold.folding import fold
from rootfold.gamma_action import FiniteGroup, GammaAction
from rootfold.root_datum import BasedRootDatum, RootDatum, weyl_group_order
from rootfold.verify import (
    levi_for_element,
    subgroup_action,
    vanishing_subsystem,
    verify_levi_factorization,
    verify_normal_subgroup_composition,
    verify_pinning_factorization,
    verify_product_conorm,
    verify_trivial_lift,
)


def inner_block_action():
    """Inner twist of GL(4) by diag(-1,-1,1,1); its fold is GL(2) x GL(2)."""
    half = Fraction(1, 2)
    return GammaAction(FiniteGroup.cyclic(2), B.gl(4),
                       [LatticeMap.identity(4)] * 2,
                       [(0, 0, 0, 0), (half, half, 0, 0)])


def z4_composite_action():
    """Order-four action on GL(2) x GL(2): the generator sends (x, y) to
    (flip(y), x); its square is the pinned flip on each factor."""
    base = B.direct_sum(B.gl(2), B.gl(2))
    g = LatticeMap([[0, 0, 1, 0], [0, 0, 0, 1], [0, -1, 0, 0], [-1, 0, 0, 0]])
    return GammaAction(FiniteGroup.cyclic(4), base,
                       [LatticeMap.identity(4), g, g @ g, g @ g @ g])


def test_frobenius_validation():
    assert FrobeniusStructure.untwisted(8, 1) == (8, LatticeMap.identity(1))
    assert FrobeniusStructure.untwisted(9, 1).q == 9
    with pytest.raises(ValueError, match="^6 is not a power of 2$"):
        FrobeniusStructure.untwisted(6, 1)
    with pytest.raises(ValueError, match="^12 is not a power of 2$"):
        FrobeniusStructure(12, LatticeMap.identity(1))


@pytest.mark.parametrize("q, p", [(2**31, 2), (3**19, 3), (1000000007, 1000000007),
                                  (1000003**2, 1000003), (2**61 - 1, 2**61 - 1),
                                  ((2**31 - 1)**2, 2**31 - 1), (3**40, 3)])
def test_frobenius_finds_the_characteristic_of_large_q(q, p):
    assert _least_prime_factor(q) == p
    start = time.process_time()
    assert FrobeniusStructure.untwisted(q, 0).q == q
    assert time.process_time() - start < 1


@pytest.mark.parametrize("q, message", [
    (561, "^561 is not a power of 3$"),
    (2047, "^2047 is not a power of 23$"),
    # strong pseudoprimes to the bases 2 to 23 and 2 to 37, with no factor
    # that trial division reaches
    (3825123056546413051, "^q = 3825123056546413051 is not a prime power$"),
    (318665857834031151167461, "^q = 318665857834031151167461 is not a prime power$"),
    ((2**31 - 1) * 1000000007, "is not a prime power$"),
    ((1000003 * 1000033)**3, "is not a prime power$"),
    ((2**31 - 1) * (2**61 - 1), "is too large: no exact prime test"),
])
def test_frobenius_refuses_large_q_that_is_no_prime_power(q, message):
    start = time.process_time()
    with pytest.raises(ValueError, match=message):
        FrobeniusStructure.untwisted(q, 0)
    assert time.process_time() - start < 1


@pytest.mark.parametrize("q", [1, 0, -3])
def test_frobenius_rejects_q_below_two(q):
    with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
        FrobeniusStructure.untwisted(q, 1)
    with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
        FrobeniusStructure.twisted(q, LatticeMap.identity(1))


def test_canonicalize_picks_least_translate():
    got = canonicalize_class(B.gl(2), TorsionVector((2, 1), 3))
    assert got == TorsionVector((1, 2), 3)
    assert canonicalize_class(B.gl(2), TorsionVector((1, 2), 3)) == got


def test_class_stabilizer_size():
    assert class_stabilizer_size(B.gl(2), TorsionVector((0, 0), 1)) == 2
    assert class_stabilizer_size(B.gl(2), TorsionVector((1, 2), 3)) == 1


@pytest.mark.parametrize("walk", [
    lambda base, p: canonicalize_class(base, p),
    lambda base, p: class_stabilizer_size(base, p),
    lambda base, p: weyl_orbit_contains(base, p, p),
    lambda base, p: weyl_orbit_contains(base, TorsionVector((1, 2, 0), 3), p),
    lambda base, p: lift_stable_class(ConormData(fold(catalog.trivial_action(base, 2))),
                                      StableClass(p, 3)),
], ids=["canonicalize", "stabilizer", "contains-itself", "contains-as-needle", "lift"])
def test_a_point_of_the_wrong_rank_is_refused(walk):
    # a rank-2 point on the rank-3 datum of GL(3), and on its rank-3 fold
    with pytest.raises(ValueError, match="point of rank 2 for a datum of rank 3"):
        walk(catalog.gl(3), TorsionVector((1, 2), 3))


def walk_cases():
    """(base, dens) for the generated-walk test: every catalog group at den 1 and 2,
    the ones with |W| <= 1152 also at 7 and 12, and E7 (sc and ad) at 2 and 3."""
    for name in GROUPS:
        base = catalog.group_datum(name)
        yield base, (1, 2, 7, 12) if weyl_group_order(base) <= 1152 else (1, 2)
    for build in (B.from_cartan_sc, B.from_cartan_ad):
        yield build(B.e_cartan(7)), (2, 3)


def test_equal_data_built_apart_hash_equal_and_share_a_walk():
    base = catalog.group_datum("so8")
    rd = base.datum
    copy = RootDatum(rd.rank, [list(r) for r in rd.roots], [list(c) for c in rd.coroots])
    assert copy == rd and copy is not rd
    assert copy._hash is None  # computed on the first hash, not at construction
    assert hash(copy) == hash(rd) == hash(copy)
    other = BasedRootDatum(copy, list(base.simple_indices))
    assert hash(other) == hash(base)
    assert _walk_function(other) is _walk_function(base)


def test_generated_walk_matches_the_brute_force_orbit():
    """The generated walk returns the orbit, or None once it meets a needle in it
    other than the start; an equal base gets the same function."""
    rng = random.Random(19)
    for base, dens in walk_cases():
        rd = base.datum
        walk = _walk_function(base)
        assert _walk_function(BasedRootDatum(rd, base.simple_indices)) is walk
        units = [tuple(int(j == k) for j in range(rd.rank)) for k in range(rd.rank)]
        for den in dens:
            points = [tuple(x % den for x in e) for e in units]
            points += [tuple(rng.randrange(den) for _ in range(rd.rank)) for _ in range(3)]
            for v in points:
                orbit = brute_force_orbit(v, den, base.simple_roots, base.simple_coroots)
                assert walk(v, den, None) == orbit, (base, v, den)
                if len(orbit) > 1:
                    assert walk(v, den, max(orbit - {v})) is None, (base, v, den)
                outside = tuple((x + 1) % den for x in v)
                if outside not in orbit:
                    assert walk(v, den, outside) == orbit, (base, v, den)


@pytest.mark.parametrize("walk", [
    lambda base, p: canonicalize_class(base, p),
    lambda base, p: class_stabilizer_size(base, p),
    lambda base, p: weyl_orbit_contains(base, p, TorsionVector((2,), 3)),
], ids=["canonicalize", "stabilizer", "contains"])
def test_a_simple_root_that_does_not_pair_to_two_is_refused(walk):
    # s_i(s_i v) = v, which lets the walk skip the reflection a point came
    # from, needs <root_i, coroot_i> = 2
    base = BasedRootDatum(RootDatum(1, [(2,), (-2,)], [(2,), (-2,)]), [0])
    with pytest.raises(ValueError, match=r"simple root \(2,\) pairs to 4 with its coroot, not 2"):
        walk(base, TorsionVector((1,), 3))


class Opaque(int):
    """An int that refuses to be formatted, printed, negated or made absolute."""

    def _refuse(self, *args):
        raise AssertionError("an entry of the caller's type reached the walk function's text")

    __format__ = __repr__ = __neg__ = __abs__ = _refuse


@pytest.mark.parametrize("name", ["gl3", "so5", "g2", "sp6"])
def test_walks_on_a_datum_built_from_an_int_subclass(name):
    # the constructors store exact ints, so the walk function's text never
    # formats an entry of the caller's type
    base = catalog.group_datum(name)
    rd = base.datum
    roots = [[Opaque(x) for x in r] for r in rd.roots]
    coroots = [[Opaque(x) for x in c] for c in rd.coroots]
    other = BasedRootDatum(RootDatum(Opaque(rd.rank), roots, coroots),
                           [Opaque(i) for i in base.simple_indices])
    den = 6
    for nums in product(range(den), repeat=rd.rank):
        if sum(nums) % 5:
            continue
        point = TorsionVector(nums, den)
        orbit = brute_force_orbit(nums, den, base.simple_roots, base.simple_coroots)
        assert canonicalize_class(other, point) == TorsionVector(min(orbit), den)
        assert class_stabilizer_size(other, point) == weyl_group_order(base) // len(orbit)


# every catalog group of rank at most 8 whose Weyl group has at most 1152
# elements; the list takes in the rootless tori and the rank-zero gl0, torus0
SMALL_W_GROUPS = [name for name in GROUPS
                  if weyl_group_order(catalog.group_datum(name)) <= 1152]


@st.composite
def orbit_cases(draw):
    """A catalog group, a point of denominator 1-12 and a word in its simple reflections."""
    base = catalog.group_datum(draw(st.sampled_from(SMALL_W_GROUPS)))
    den = draw(st.integers(1, 12))
    rank = base.datum.rank
    point = TorsionVector(draw(st.lists(st.integers(0, den - 1), min_size=rank,
                                        max_size=rank)), den)
    word = draw(st.lists(st.sampled_from(base.simple_indices), max_size=12)
                if base.simple_indices else st.just([]))
    return base, point, word


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(orbit_cases())
def test_orbit_walks_match_the_brute_force_orbit(case):
    base, point, word = case
    rd, den = base.datum, point.den
    orbit = brute_force_orbit(point.nums, den, base.simple_roots, base.simple_coroots)
    assert canonicalize_class(base, point) == TorsionVector(min(orbit), den)
    order = weyl_group_order(base)
    assert order % len(orbit) == 0
    assert class_stabilizer_size(base, point) == order // len(orbit)
    translate = point
    for i in word:
        translate = translate.apply(rd.reflection(i))
    assert weyl_orbit_contains(base, point, translate)
    # the first point of the same denominator outside the orbit, if there is one
    outside = next((v for v in product(range(den), repeat=rd.rank)
                    if gcd(den, *v) == 1 and v not in orbit), None)
    hypothesis.event(f"a point outside: {outside is not None}")
    if outside is not None:
        assert not weyl_orbit_contains(base, point, TorsionVector(outside, den))


def test_enumerate_gl1():
    classes = enumerate_stable_classes(B.gl(1), FrobeniusStructure.untwisted(5, 1))
    assert len(classes) == 4
    assert {c.rep.fractions() for c in classes} == {
        (Fraction(0),), (Fraction(1, 4),), (Fraction(1, 2),), (Fraction(3, 4),)}


def test_enumerate_gl2_q2_golden():
    classes = enumerate_stable_classes(B.gl(2), FrobeniusStructure.untwisted(2, 2))
    assert {c.rep for c in classes} == {TorsionVector((0, 0), 1),
                                        TorsionVector((1, 2), 3)}


def test_gl_counts_match_oracle_and_formula():
    for n in (1, 2, 3):
        for q in (2, 3, 4, 5):
            frob = FrobeniusStructure.untwisted(q, n)
            got = len(enumerate_stable_classes(B.gl(n), frob))
            assert got == gl_class_count(n, q) == q ** (n - 1) * (q - 1)


def test_twisted_gl_counts_match_unitary_formula():
    # Steinberg: q^semisimple rank * |Z°^F|, and the flip makes |Z°^F| = q + 1
    for n in (1, 2, 3):
        tau = catalog.pinned_gl_action(n).diagram[1]
        for q in (2, 3, 4, 5):
            got = len(enumerate_stable_classes(B.gl(n), FrobeniusStructure.twisted(q, tau)))
            assert got == q ** (n - 1) * (q + 1), (n, q)


def test_enumeration_takes_no_smith_form(monkeypatch):
    calls = []
    smith = exact_lattice.smith_normal_form
    monkeypatch.setattr(exact_lattice, "smith_normal_form",
                        lambda m: calls.append(m) or smith(m))
    tau = catalog.pinned_so_even_action(8).diagram[1]
    enumerate_stable_classes(catalog.group_datum("so8"), FrobeniusStructure.twisted(2, tau))
    enumerate_stable_classes(catalog.group_datum("g2"), FrobeniusStructure.untwisted(4, 2))
    assert calls == []


def test_enumeration_builds_one_torsion_vector_per_class(monkeypatch):
    """Fixed points are walked as numerator tuples; TorsionVectors are built per class."""
    cases = [(catalog.group_datum("so8"),
              FrobeniusStructure.twisted(2, catalog.pinned_so_even_action(8).diagram[1])),
             (catalog.group_datum("g2"), FrobeniusStructure.untwisted(4, 2)),
             (catalog.group_datum("gl3"),
              FrobeniusStructure.twisted(3, catalog.pinned_gl_action(3).diagram[1]))]
    built = []
    init = TorsionVector.__init__
    monkeypatch.setattr(TorsionVector, "__init__",
                        lambda self, nums, den: built.append(den) or init(self, nums, den))
    for base, frob in cases:
        built.clear()
        classes = enumerate_stable_classes(base, frob)
        assert len(built) <= 3 * len(classes), (base, len(built), len(classes))


def _point_map(w, tau, q):
    """The rows of w q tau, for matrices given by their rows."""
    return [[q * sum(x * y for x, y in zip(row, col)) for col in zip(*tau)] for row in w]


def oracle_classes(base, tau, q, ws):
    """(den, least point of the orbit) of every class, from the oracles alone:
    the fixed points of each w q tau by a scan, their orbits by full reflections."""
    reps = set()
    for w in ws:
        for den, nums in torsion_fixed_points(_point_map(w, tau, q)):
            reps.add((den, min(brute_force_orbit(nums, den, base.datum.roots,
                                                 base.datum.coroots))))
    return sorted(reps)


MAX_SCAN = 2 * 10 ** 4


def whole_list_cases():
    """(label, base, tau rows, q, Weyl matrices) where every scan of d^n points is small."""
    untwisted = [(name, catalog.group_datum(name), None) for name in GROUPS
                 if weyl_group_order(catalog.group_datum(name)) <= 48]
    twisted = [(f"{name} pinned", catalog.group_datum(name), build(n).diagram[1].rows)
               for name, build, n in [("gl2", catalog.pinned_gl_action, 2),
                                      ("gl3", catalog.pinned_gl_action, 3),
                                      ("sl3", catalog.pinned_sl_action, 3),
                                      ("pgl3", catalog.pinned_pgl_action, 3)]]
    for label, base, tau in untwisted + twisted:
        n = base.datum.rank
        tau = tau or LatticeMap.identity(n).rows
        ws = list(weyl_matrices_by_closure(n, base.simple_roots, base.simple_coroots))
        for q in (2, 3, 4, 5):
            if all(fixed_point_count(_point_map(w, tau, q)) ** n <= MAX_SCAN for w in ws):
                yield f"{label} q={q}", base, tau, q, ws


WHOLE_LIST_CASES = list(whole_list_cases())


@pytest.mark.parametrize("label, base, tau, q, ws", WHOLE_LIST_CASES,
                         ids=[case[0] for case in WHOLE_LIST_CASES])
def test_whole_class_list_matches_the_oracles(label, base, tau, q, ws):
    frob = FrobeniusStructure.twisted(q, LatticeMap(tau, base.datum.rank))
    got = enumerate_stable_classes(base, frob)
    assert [(c.rep.den, c.rep.nums) for c in got] == oracle_classes(base, tau, q, ws)
    assert {c.q for c in got} <= {q}


@pytest.mark.parametrize("label, base, tau, q, ws", WHOLE_LIST_CASES,
                         ids=[case[0] for case in WHOLE_LIST_CASES])
def test_torsion_kernel_of_q_tau_minus_v_is_the_fixed_set_of_v_inverse_q_tau(label, base, tau,
                                                                             q, ws):
    # enumeration solves (q tau - v) x integral for each Weyl matrix v
    n = base.datum.rank
    identity = [[int(r == c) for c in range(n)] for r in range(n)]
    for v in ws:
        system = [[q * x - y for x, y in zip(t, w)] for t, w in zip(tau, v)]
        d, numerators = exact_lattice._torsion_fixed_numerators(system, n)
        got = {(d // g, tuple(y // g for y in ys)) for ys in numerators for g in [gcd(d, *ys)]}
        v_inverse = [[int(x) for x in row] for row in solve_rational(v, identity)]
        assert sorted(got) == torsion_fixed_points(_point_map(v_inverse, tau, q)), v


def test_frobenius_rejects_non_square_tau():
    with pytest.raises(ValueError, match="tau must be square"):
        FrobeniusStructure.twisted(3, LatticeMap([[1, 0]]))


@pytest.mark.parametrize("tau, match", [
    ([[1, 1], [0, 1]], "tau does not permute the roots"),
    # fixes the root (1, -1) but moves its coroot
    ([[2, 1], [-1, 0]], "tau does not carry the coroot"),
])
def test_enumerate_rejects_a_tau_that_is_no_automorphism(tau, match):
    frob = FrobeniusStructure.twisted(3, LatticeMap(tau))
    with pytest.raises(ValueError, match=match):
        enumerate_stable_classes(B.gl(2), frob)


def test_enumerate_accepts_a_tau_that_moves_the_base():
    # the longest Weyl element times the flip: an automorphism that fixes no base
    w0 = LatticeMap([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    tau = w0 @ catalog.pinned_gl_action(3).diagram[1]
    frob = FrobeniusStructure.twisted(2, tau)
    assert len(enumerate_stable_classes(B.gl(3), frob)) == 2 ** 2 * 3


def test_lift_through_flip_fold():
    a = z2_flip_action(2)
    conorm = ConormData(fold(a))
    cls = StableClass(TorsionVector((1,), 3), 3)
    lifted = lift_stable_class(conorm, cls)
    assert lifted.rep == TorsionVector((1, 2), 3)


def test_verify_product_conorm():
    assert verify_product_conorm(B.gl(2), 2, (2, 3)).ok
    assert verify_product_conorm(B.gl(1), 3, (2, 4)).ok


def test_verify_trivial_lift():
    assert verify_trivial_lift(B.gl(2), 2, (2, 3)).ok
    assert verify_trivial_lift(B.gl(1), 5, (3,)).ok


@pytest.mark.parametrize("check, problem", [
    (lambda qs: verify_product_conorm(B.gl(2), 2, qs), "is not diagonal up to the Weyl group"),
    (lambda qs: verify_trivial_lift(B.gl(2), 2, qs), "is not the m-th power"),
    (lambda qs: verify_normal_subgroup_composition(z4_composite_action(), [0, 2], qs),
     "lifts differently through the stages"),
    (lambda qs: verify_pinning_factorization(z2_flip_action(4), qs),
     "lifts differently through the pinned fold"),
], ids=["product", "trivial", "normal-subgroup", "pinning"])
def test_a_wrong_lift_gives_one_problem_per_q(monkeypatch, check, problem):
    # no stable point of these rank <= 4 groups at q = 2, 3 has order 101
    monkeypatch.setattr(verify, "lift_stable_class", lambda conorm, cls: StableClass(
        TorsionVector((1,) * conorm.matrix.codomain_rank, 101), cls.q))
    rep = check((2, 3))
    assert not rep.ok
    assert len(rep.problems) == 2
    for q, text in zip((2, 3), rep.problems):
        assert f" at q={q} " in text and text.endswith(problem)


def test_verify_reports_are_hashable():
    rep = verify_trivial_lift(B.gl(2), 2, (3,))
    assert rep.problems == ()
    assert hash(rep) == hash(verify_trivial_lift(B.gl(2), 2, (3,)))


def test_conorm_well_defined_on_random_points():
    assert verify_conorm_well_defined(z2_flip_action(4), count=25, p=2).ok
    tw = [(0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0)]
    assert verify_conorm_well_defined(z2_flip_action(4, twist=tw), count=25, p=3,
                                      seed=7).ok


def test_subgroup_action_extraction():
    a = z4_composite_action()
    a0 = subgroup_action(a, [0, 2])
    assert a0.group.size == 2
    assert a0.diagram[1] == a.diagram[2]
    with pytest.raises(ValueError):
        subgroup_action(a, [0, 1, 2])


def test_z4_normal_subgroup_composition():
    rep = verify_normal_subgroup_composition(z4_composite_action(), [0, 2], (2, 3))
    assert rep.ok, rep.problems


def test_pinning_factorization_gl4():
    tw = [(0, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0)]
    rep = verify_pinning_factorization(z2_flip_action(4, twist=tw), (2,))
    assert rep.ok, rep.problems


def test_pinning_factorization_is_trivial_for_pinned():
    rep = verify_pinning_factorization(z2_flip_action(4), (2,))
    assert rep.ok, rep.problems


def test_vanishing_subsystem_and_levi():
    rd = B.gl(3).datum
    psi, levi = levi_for_element(rd, TorsionVector((0, 0, 1), 3))
    assert set(psi) == {(1, -1, 0), (-1, 1, 0)}
    assert set(levi) == set(psi)
    full, _ = levi_for_element(rd, TorsionVector((0, 0, 0), 1))
    assert set(full) == set(rd.roots)


def test_levi_hull_can_grow():
    # a two-torsion point of Sp(4) centralizes only the short roots, a
    # pseudo-Levi; the saturated span of those pulls the long roots back in
    rd = B.sp(2).datum
    psi, levi = levi_for_element(rd, TorsionVector((1, 1), 2))
    assert set(psi) == {(1, 1), (-1, -1), (1, -1), (-1, 1)}
    assert set(levi) == set(rd.roots)


def test_levi_factorization_inner_gl4():
    rep = verify_levi_factorization(inner_block_action(), q=3)
    assert rep.ok, rep.problems


def test_levi_factorization_checks_three_pairwise_non_conjugate_points(monkeypatch):
    # the first three subregular lifts on gl4-inner-block at q = 3 are one class,
    # so the check must go on to lifts in two other classes
    checked = []
    stabilizer_size = verify.class_stabilizer_size
    monkeypatch.setattr(verify, "class_stabilizer_size",
                        lambda base, x: checked.append(x) or stabilizer_size(base, x))
    a = inner_block_action()
    assert verify_levi_factorization(a, q=3).ok
    rd = a.base.datum
    assert len(checked) == 3
    for x, y in combinations(checked, 2):
        assert (x.den != y.den
                or y.nums not in brute_force_orbit(x.nums, x.den, rd.roots, rd.coroots)), (x, y)
    # q = 2 lifts to two distinct subregular classes only
    with pytest.raises(ValueError, match="only 2 subregular points at q=2, needs 3"):
        verify_levi_factorization(a, q=2)


def test_levi_factorization_rejects_outer():
    with pytest.raises(ValueError, match="inner"):
        verify_levi_factorization(z2_flip_action(4), q=3)


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _unimodular_pair(rng, n, steps):
    """A random signed permutation times ``steps`` matrices I +- e_ij, and its inverse."""
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    p = [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    p_inv = [list(col) for col in zip(*p)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        e = [[int(r == k) for k in range(n)] for r in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        p, p_inv = _mul(p, e), _mul(e_inv, p_inv)
    return p, p_inv


# blocks of finite order: +-1, a swap, and 2 x 2 blocks of order 3, 4 and 6
FINITE_BLOCKS = ([[1]], [[-1]], [[0, 1], [1, 0]], [[0, -1], [1, -1]], [[0, -1], [1, 0]],
                 [[1, -1], [1, 0]])


def _random_twist(rng, n, kind):
    """A random n x n integer matrix of one of three kinds.

    Kind 0 conjugates a block-diagonal matrix of ``FINITE_BLOCKS`` by a
    random unimodular matrix, kind 1 does the same after adding a unit off
    the diagonal, and kind 2 is a product of elementary matrices.
    """
    if kind == 2:
        return _unimodular_pair(rng, n, rng.randint(1, 4))[0]
    rows = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        block = rng.choice([b for b in FINITE_BLOCKS if len(b) <= n - i])
        for r, row in enumerate(block):
            rows[i + r][i:i + len(row)] = row
        i += len(block)
    if kind == 1 and n > 1:
        r, c = rng.sample(range(n), 2)
        rows[r][c] += rng.choice((1, -1))
    p, p_inv = _unimodular_pair(rng, n, rng.randint(0, 2))
    return _mul(_mul(p, rows), p_inv)


def test_twist_order_matches_every_power_up_to_the_glnz_bound():
    rng = random.Random(25)
    verdicts = []
    while len(verdicts) < 2000:
        n = rng.randint(1, 6)
        tau = _random_twist(rng, n, len(verdicts) % 3)
        if abs(_det(tau)) != 1:
            continue
        try:
            _check_twist(catalog.torus(n).datum, LatticeMap(tau))
            finite = True
        except ValueError as exc:
            assert str(exc).startswith("tau has infinite order"), exc
            finite = False
        assert finite == has_finite_order(tau), tau
        verdicts.append(finite)
    assert min(verdicts.count(True), verdicts.count(False)) > 400


def _torus_twist(n, block):
    """The n x n identity with ``block`` in its top left corner."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, row in enumerate(block):
        rows[i][:len(row)] = row
    return LatticeMap(rows)


@pytest.mark.parametrize("n, q, block, count", [
    (64, 2, [[1]], 1),
    (64, 2, [[0, 1], [1, 0]], 3),
    (64, 2, [[1, -1], [1, 0]], 3),
    (2, 3, [[-1, 0], [0, -1]], 16),
])
def test_twist_of_finite_order_on_a_torus_answers_at_once(n, q, block, count):
    start = time.process_time()
    frob = FrobeniusStructure.twisted(q, _torus_twist(n, block))
    assert len(enumerate_stable_classes(catalog.torus(n), frob)) == count
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("n, block", [(2, [[2, 1], [1, 1]]), (32, [[2, 1], [1, 1]]),
                                      (64, [[2, 1], [1, 1]]), (64, [[1, 1], [0, 1]])])
def test_twist_of_infinite_order_is_rejected(n, block):
    start = time.process_time()
    frob = FrobeniusStructure.twisted(2, _torus_twist(n, block))
    with pytest.raises(ValueError, match="^tau has infinite order"):
        enumerate_stable_classes(catalog.torus(n), frob)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("group, tau", [("gl2", [[0, 1], [1, 0]]),
                                        ("gl3", [[-1, 0, 0], [0, -1, 0], [0, 0, -1]])])
def test_twists_of_finite_order_are_accepted(group, tau):
    frob = FrobeniusStructure.twisted(3, LatticeMap(tau))
    assert enumerate_stable_classes(catalog.group_datum(group), frob)


ALL_Q = (2, 3, 4, 5)

# Every catalog.group_datum family member, at each q whose enumeration takes
# under about a second.  Left out for cost: f4, e6ad and e6sc at every q, and
# so8 and spin8 (d4 is spin8) above q = 2, which alone take about 5 s each.
STEINBERG_GROUPS = [
    *[(name, ALL_Q) for name in ("gl1", "gl2", "gl3", "sl2", "sl3", "pgl2", "pgl3",
                                 "sp2", "sp4", "so3", "so4", "so5", "spin5",
                                 "torus0", "torus1", "torus2", "g2")],
    *[(name, (2, 3)) for name in ("gl4", "sl4", "pgl4", "sp6", "so6", "so7",
                                  "spin6", "spin7")],
    ("so8", (2,)), ("spin8", (2,)),
]


@pytest.mark.parametrize("name, qs", STEINBERG_GROUPS, ids=[n for n, _ in STEINBERG_GROUPS])
def test_untwisted_counts_match_steinberg(name, qs):
    base = catalog.group_datum(name)
    identity = LatticeMap.identity(base.datum.rank)
    for q in qs:
        got = len(enumerate_stable_classes(base, FrobeniusStructure.twisted(q, identity)))
        assert got == steinberg_count(base.simple_roots, identity.rows, q), q


# Each catalog diagram twist as tau: (action, element, qs).  Left out for cost:
# the E6 involution, and the D4 triality, S3 transposition and so8 graph
# involution, about 5 s each at q = 2.
STEINBERG_TWISTS = {
    "gl2 flip": (lambda: catalog.pinned_gl_action(2), 1, ALL_Q),
    "gl3 flip": (lambda: catalog.pinned_gl_action(3), 1, ALL_Q),
    "gl4 flip": (lambda: catalog.pinned_gl_action(4), 1, (2,)),
    "sl3 flip": (lambda: catalog.pinned_sl_action(3), 1, ALL_Q),
    "sl4 flip": (lambda: catalog.pinned_sl_action(4), 1, (2, 3)),
    "pgl3 flip": (lambda: catalog.pinned_pgl_action(3), 1, ALL_Q),
    "pgl4 flip": (lambda: catalog.pinned_pgl_action(4), 1, (2, 3)),
    "so6 graph involution": (lambda: catalog.pinned_so_even_action(6), 1, (2, 3)),
    "gl2gl2 order four": (catalog.z4_composite_action, 1, (2, 3, 4)),
    "gl2gl2 order four, squared": (catalog.z4_composite_action, 2, (2, 3)),
    "gl1^2 swap": (lambda: catalog.rotation_action(catalog.gl(1), 2), 1, ALL_Q),
    "gl1^3 rotation": (lambda: catalog.rotation_action(catalog.gl(1), 3), 1, ALL_Q),
    "gl2^2 swap": (lambda: catalog.rotation_action(catalog.gl(2), 2), 1, (2, 3, 4)),
    "sl2 x gl1 flip": (lambda: catalog.sl_gl1_flip_action(2), 1, ALL_Q),
    "sl3 x gl1 flip": (lambda: catalog.sl_gl1_flip_action(3), 1, ALL_Q),
}


@pytest.mark.parametrize("label", sorted(STEINBERG_TWISTS))
def test_twisted_counts_match_steinberg(label):
    build, element, qs = STEINBERG_TWISTS[label]
    a = build()
    tau = a.diagram[element]
    for q in qs:
        got = len(enumerate_stable_classes(a.base, FrobeniusStructure.twisted(q, tau)))
        assert got == steinberg_count(a.base.simple_roots, tau.rows, q), q


def test_steinberg_oracle_on_known_counts():
    # GL(n): (q - 1) q^(n-1); its unitary twist: (q + 1) q^(n-1); a split torus: (q - 1)^n
    gl3 = catalog.gl(3)
    flip = catalog.pinned_gl_action(3).diagram[1]
    assert steinberg_count(gl3.simple_roots, LatticeMap.identity(3).rows, 5) == 4 * 25
    assert steinberg_count(gl3.simple_roots, flip.rows, 5) == 6 * 25
    assert steinberg_count([], [[1, 0], [0, 1]], 4) == 9
    assert steinberg_count([], [], 7) == 1

