import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import builders as B
import rootfold
from oracles import form_value, invariant_inner_product, same_type, weyl_matrices_by_closure
from rootfold import catalog
from rootfold.exact_lattice import LatticeMap, smith_normal_form
from rootfold.root_datum import (
    BasedRootDatum,
    RootDatum,
    based_from_datum,
    cartan_type,
    dual_root_datum,
    generate_datum,
    is_closed_subsystem,
    length_classes,
    validate,
    weyl_group,
    weyl_group_order,
    weyl_matrices,
)
from test_cartan_oracle import GROUPS


def test_validate_accepts_standard_data():
    for base in (B.gl(2), B.gl(4), B.sp(2), B.so_odd(3), B.so_even(4),
                 B.from_cartan_sc(B.G2_CARTAN), B.sl2_weight()):
        rep = validate(base)
        assert rep.ok, rep.problems


def test_validate_catches_scaled_coroot():
    bad = RootDatum(2, [(1, -1), (-1, 1)], [(2, -2), (-2, 2)])
    rep = validate(bad)
    assert not rep.ok
    assert any("2" in p for p in rep.problems)


@pytest.mark.parametrize("which", [(0, 1, "sum"), (0, 0, 1)])
def test_validate_rejects_dependent_simples(which):
    gl3 = catalog.gl(3)
    rd = gl3.datum
    a1, a2 = gl3.simple_roots
    pick = {0: rd.root_index(a1), 1: rd.root_index(a2),
            "sum": rd.root_index(tuple(x + y for x, y in zip(a1, a2)))}
    rep = validate(BasedRootDatum(rd, [pick[k] for k in which]))
    assert not rep.ok
    assert rep.problems == ("simple roots are linearly dependent",)


def test_validate_reports_each_coroot_pair_once():
    rep = validate(RootDatum(1, [(2,), (-2,)], [(1,), (1,)]))
    assert not rep.ok
    pairs = [p for p in rep.problems if "coroot of -a is not -coroot(a)" in p]
    assert pairs == ["roots 0 and 1: coroot of -a is not -coroot(a)"]


def test_validate_names_the_reflection_that_carries_a_coroot_wrongly():
    # every root pairs to 2 with its coroot and s_0 permutes the roots, but on
    # the coroots s_0 sends (-3, 2), the coroot of (0, 1), to (3, 2)
    rd = RootDatum(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(2, 0), (-2, 0), (-3, 2), (3, -2)])
    assert validate(rd).problems == (
        "reflection 0 does not carry the coroot of (0, 1) to that of (0, 1)",)


def test_validate_torus():
    assert validate(RootDatum(1, [], [])).ok


def test_validate_unreduced_rejected():
    bad = RootDatum(1, [(1,), (-1,), (2,), (-2,)], [(2,), (-2,), (1,), (-1,)])
    rep = validate(bad)
    assert not rep.ok


def test_root_counts():
    assert len(B.gl(4).datum.roots) == 12
    assert len(B.sp(2).datum.roots) == 8
    assert len(B.from_cartan_sc(B.G2_CARTAN).datum.roots) == 12
    assert len(B.from_cartan_sc(B.F4_CARTAN).datum.roots) == 48
    assert len(B.from_cartan_sc(B.E6_CARTAN).datum.roots) == 72


# --- Weyl groups ---

def test_weyl_sizes_small():
    assert len(weyl_group(B.sl2_weight())) == 2
    assert len(weyl_group(B.from_cartan_sc(B.A2_CARTAN))) == 6
    assert len(weyl_group(B.sp(2))) == 8
    assert len(weyl_group(B.from_cartan_sc(B.G2_CARTAN))) == 12
    assert len(weyl_group(B.gl(4))) == 24
    assert len(weyl_group(B.so_odd(3))) == 48
    assert len(weyl_group(B.so_even(4))) == 192


def test_weyl_sizes_exceptional():
    assert len(weyl_group(B.from_cartan_sc(B.F4_CARTAN))) == 1152
    assert len(weyl_group(B.from_cartan_sc(B.E6_CARTAN))) == 51840


def test_weyl_group_order_matches_closure():
    names = ("gl1", "gl3", "torus2", "sl4", "pgl3", "sp4", "sp6", "so5", "so7",
             "so8", "spin9", "g2", "f4")
    for name in names:
        base = catalog.group_datum(name)
        assert weyl_group_order(base) == len(weyl_group(base)), name
    mixed = catalog.direct_sum(catalog.g2(), catalog.gl(3))
    assert weyl_group_order(mixed) == len(weyl_group(mixed)) == 72


def test_import_leaves_numpy_out():
    src = str(Path(rootfold.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import rootfold, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    src = str(Path(rootfold.__file__).resolve().parents[1])
    code = ("import rootfold.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def words_of(table):
    """Each element's word, read off the parent chain of a ``weyl_group`` table."""
    words = []
    for parent, i in table:
        words.append(() if parent < 0 else words[parent] + (i,))
    return words


def test_weyl_torus_is_trivial():
    base = based_from_datum(RootDatum(2, [], []))
    table = weyl_group(base)
    assert table == [(-1, -1)]
    assert list(weyl_matrices(base, table)) == [LatticeMap.identity(2)]
    assert words_of(table) == [()]


def test_weyl_cap(monkeypatch):
    from rootfold.root_datum import WeylCapError
    monkeypatch.setattr("rootfold.root_datum._WEYL_CAP", 100)
    with pytest.raises(WeylCapError, match="order 1152 exceeds the cap 100"):
        weyl_group(B.from_cartan_sc(B.F4_CARTAN))


def test_weyl_cap_boundary(monkeypatch):
    from rootfold.root_datum import WeylCapError
    f4 = catalog.group_datum("f4")
    monkeypatch.setattr("rootfold.root_datum._WEYL_CAP", 1152)
    assert len(weyl_group(f4)) == 1152
    monkeypatch.setattr("rootfold.root_datum._WEYL_CAP", 1151)
    with pytest.raises(WeylCapError, match="order 1152 exceeds the cap 1151"):
        weyl_group(f4)


def test_a2_canonical_words():
    table = weyl_group(B.from_cartan_sc(B.A2_CARTAN))
    assert [list(w) for w in words_of(table)] == [[], [0], [1], [0, 1], [1, 0], [0, 1, 0]]


def test_table_is_breadth_first_from_the_identity():
    table = weyl_group(catalog.group_datum("f4"))
    parents = [parent for parent, _ in table]
    assert table[0] == (-1, -1)
    assert parents == sorted(parents)
    lengths = [len(w) for w in words_of(table)]
    assert lengths == sorted(lengths)


def test_words_multiply_to_matrix():
    bases = [B.sp(2)] + [catalog.group_datum(n) for n in ("gl4", "g2", "so8", "f4")]
    for base in bases:
        gens = [base.datum.reflection(i) for i in base.simple_indices]
        table = weyl_group(base)
        for word, matrix in zip(words_of(table), weyl_matrices(base, table)):
            m = LatticeMap.identity(base.datum.rank)
            for g in word:
                m = m @ gens[g]
            assert m == matrix


# every catalog datum with |W| <= 1152 (rootless tori included) and a mixed direct sum
ORACLE_GROUPS = [name for name in GROUPS
                 if weyl_group_order(catalog.group_datum(name)) <= 1152] + ["g2+gl3"]


def oracle_group(name):
    if name == "g2+gl3":
        return catalog.direct_sum(catalog.g2(), catalog.gl(3))
    return catalog.group_datum(name)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_weyl_table_against_closure_oracle(name):
    base = oracle_group(name)
    table = weyl_group(base)
    mats = [m.rows for m in weyl_matrices(base, table)]
    oracle = weyl_matrices_by_closure(base.datum.rank, base.simple_roots,
                                      base.simple_coroots)
    assert len(set(mats)) == len(mats) == weyl_group_order(base)
    assert set(mats) == set(oracle)
    # the oracle's words are lex-least reduced words that multiply out to its matrices
    assert words_of(table) == [oracle[m] for m in mats]


def test_weyl_closure_under_generators():
    base = B.so_odd(3)
    els = list(weyl_matrices(base, weyl_group(base)))
    mats = set(els)
    gens = [base.datum.reflection(i) for i in base.simple_indices]
    rng = random.Random(7)
    for _ in range(30):
        a = rng.choice(els) @ rng.choice(gens)
        assert a in mats


def test_weyl_matrices_permute_roots():
    base = B.from_cartan_sc(B.G2_CARTAN)
    roots = set(base.datum.roots)
    for m in weyl_matrices(base, weyl_group(base)):
        assert {m(r) for r in roots} == roots


# --- invariant form and lengths ---

def test_form_sl2_normalization():
    form = invariant_inner_product(B.sl2_weight().datum)
    assert form == ((Fraction(1, 2),),)
    assert form_value(form, (2,), (2,)) == 2


def test_form_ratios():
    sp4 = B.sp(2).datum
    form = invariant_inner_product(sp4)
    long_sq = form_value(form, (2, 0, *[0] * 0)[:2], (2, 0))
    short_sq = form_value(form, (1, -1), (1, -1))
    assert long_sq == 2 and short_sq == 1

    g2 = B.from_cartan_sc(B.G2_CARTAN).datum
    form = invariant_inner_product(g2)
    sq = sorted({form_value(form, r, r) for r in g2.roots})
    assert sq == [Fraction(2, 3), Fraction(2)]


def test_form_weyl_invariance_exact():
    for base in (B.sp(2), B.so_odd(3), B.from_cartan_sc(B.G2_CARTAN), B.gl(3)):
        rd = base.datum
        form = invariant_inner_product(rd)
        n = rd.rank
        basis = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        for i in base.simple_indices:
            s = rd.reflection(i)
            for x in basis:
                for y in basis:
                    assert form_value(form, s(x), s(y)) == form_value(form, x, y)


def test_form_radical_is_center():
    gl3 = B.gl(3).datum
    form = invariant_inner_product(gl3)
    z = (1, 1, 1)
    assert all(form_value(form, z, e) == 0
               for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_length_classes():
    g2 = B.from_cartan_sc(B.G2_CARTAN).datum
    form = invariant_inner_product(g2)
    highest = max(g2.roots, key=lambda r: form_value(form, r, r))
    assert length_classes(g2)[g2.root_index(highest)] == "long"

    sp4 = B.sp(2).datum
    assert length_classes(sp4)[sp4.root_index((1, -1))] == "short"
    assert length_classes(sp4)[sp4.root_index((2, 0))] == "long"

    a2 = B.from_cartan_sc(B.A2_CARTAN).datum
    assert set(length_classes(a2).values()) == {"long"}


def test_length_constant_on_weyl_orbits():
    base = B.sp(3)
    rd = base.datum
    lens = length_classes(rd)
    for m in islice(weyl_matrices(base, weyl_group(base)), 50):
        for i, r in enumerate(rd.roots):
            assert lens[rd.root_index(m(r))] == lens[i]


# --- cartan type recognition ---

def test_cartan_types():
    assert cartan_type(B.gl(4).datum) == ((("A", 3),), 1)
    assert cartan_type(B.sp(2).datum) == ((("C", 2),), 0)
    assert cartan_type(B.sp(3).datum) == ((("C", 3),), 0)
    assert cartan_type(B.so_odd(3).datum) == ((("B", 3),), 0)
    assert cartan_type(B.so_even(4).datum) == ((("D", 4),), 0)
    assert cartan_type(B.from_cartan_sc(B.G2_CARTAN).datum) == ((("G", 2),), 0)
    assert cartan_type(B.from_cartan_sc(B.F4_CARTAN).datum) == ((("F", 4),), 0)
    assert cartan_type(B.from_cartan_sc(B.E6_CARTAN).datum) == ((("E", 6),), 0)
    assert cartan_type(B.from_cartan_sc(B.D4_CARTAN).datum) == ((("D", 4),), 0)


def test_cartan_type_b2_reported_as_c2():
    assert cartan_type(B.so_odd(2).datum) == ((("C", 2),), 0)


def test_cartan_type_product():
    gl2 = B.gl(2).datum
    n = 2
    roots = [r + (0,) * n for r in gl2.roots] + [(0,) * n + r for r in gl2.roots]
    rd = RootDatum(2 * n, roots, roots)
    assert cartan_type(rd) == ((("A", 1), ("A", 1)), 2)


def test_cartan_type_torus():
    assert cartan_type(RootDatum(3, [], [])) == ((), 3)


def test_same_type_aliases():
    assert same_type([("B", 2)], [("C", 2)])
    assert same_type([("D", 3)], [("A", 3)])
    assert same_type([("D", 2)], [("D", 2)])
    assert not same_type([("B", 3)], [("C", 3)])


def test_so_even_rank3_is_a3():
    assert cartan_type(B.so_even(3).datum) == ((("A", 3),), 0)


# --- closed subsystems ---

def test_closed_subsystem_long_c2():
    sp4 = B.sp(2).datum
    longs = [r for i, r in enumerate(sp4.roots) if length_classes(sp4)[i] == "long"]
    assert is_closed_subsystem(sp4, longs)


def test_closed_subsystem_a2():
    a2 = B.from_cartan_sc(B.A2_CARTAN)
    a1, a2r = a2.simple_roots
    rd = a2.datum
    neg = lambda v: tuple(-x for x in v)
    assert is_closed_subsystem(rd, [a1, neg(a1)])
    assert not is_closed_subsystem(rd, [a1, a2r, neg(a1), neg(a2r)])
    assert not is_closed_subsystem(rd, [a1])  # missing the negative
    with pytest.raises(ValueError):
        is_closed_subsystem(rd, [(9, 9)])


# --- duality ---

def test_double_dual_identity():
    for base in (B.gl(3), B.sp(2), B.from_cartan_sc(B.E6_CARTAN)):
        rd = base.datum
        assert dual_root_datum(dual_root_datum(rd)) == rd


def test_dual_swaps_b_and_c():
    assert cartan_type(dual_root_datum(B.sp(3).datum)) == ((("B", 3),), 0)
    assert cartan_type(dual_root_datum(B.so_odd(3).datum)) == ((("C", 3),), 0)


def test_gl_self_dual():
    rd = B.gl(4).datum
    assert dual_root_datum(rd) == rd


def test_dual_of_weight_convention_is_root_convention():
    # with a symmetric Cartan matrix the two conventions are literally dual
    sc = B.from_cartan_sc(B.E6_CARTAN)
    ad = B.from_cartan_ad(B.E6_CARTAN)
    dsc = BasedRootDatum(dual_root_datum(sc.datum), sc.simple_indices)
    assert set(dsc.datum.roots) == set(ad.datum.roots)
    assert dsc.simple_roots == ad.simple_roots


def test_e6_fundamental_group_from_root_lattice_index():
    # index of the root lattice inside weights = elementary divisors of the
    # Cartan matrix; for this datum the quotient is cyclic of order 3
    _, d, _ = smith_normal_form(LatticeMap(B.E6_CARTAN))
    divisors = [d.rows[i][i] for i in range(6)]
    assert divisors == [1, 1, 1, 1, 1, 3]


# --- base machinery ---

def test_positive_roots_split():
    base = B.from_cartan_sc(B.F4_CARTAN)
    pos = base.positive_roots()
    assert len(pos) == 24
    neg = {tuple(-x for x in base.datum.roots[i]) for i in pos}
    assert neg == {base.datum.roots[i] for i in range(len(base.datum.roots))
                   if i not in set(pos)}


def test_simple_coefficients():
    base = B.from_cartan_sc(B.A2_CARTAN)
    a1, a2 = base.simple_roots
    s = tuple(x + y for x, y in zip(a1, a2))
    assert base.simple_coefficients(a1) == (1, 0)
    assert base.simple_coefficients(s) == (1, 1)
    assert base.simple_coefficients(tuple(-x for x in s)) == (-1, -1)


def test_based_from_datum_gives_valid_base():
    for base in (B.gl(3), B.sp(2), B.so_even(4)):
        chosen = based_from_datum(base.datum)
        assert validate(chosen).ok
        assert len(chosen.simple_indices) == len(base.simple_indices)


def test_generate_datum_roundtrip():
    base = B.so_odd(3)
    regen = generate_datum(3, base.simple_roots, base.simple_coroots)
    assert set(regen.datum.roots) == set(base.datum.roots)
    assert validate(regen).ok


def test_generate_datum_rejects_infinite_type():
    # an affine-style matrix closes on infinitely many vectors
    with pytest.raises(ValueError, match="passes 16 roots, 4 r\\^2 for r = 2 simple roots"):
        generate_datum(2, [(1, 0), (0, 1)], [(2, -2), (-2, 2)])


@pytest.mark.parametrize("root, pairs_to", [((1,), 1), ((2,), 4)])
def test_generate_datum_refuses_a_simple_root_that_does_not_pair_to_two(root, pairs_to):
    # (1,)/(1,) closed on a zero "root", (2,)/(2,) on a closure that passed its bound
    with pytest.raises(ValueError, match=rf"simple root \({root[0]},\) pairs to {pairs_to} "
                                         "with its coroot, not 2"):
        generate_datum(1, [root], [root])


def test_generate_datum_closes_every_finite_type_within_its_bound():
    # r simple roots of finite type close on at most 3.75 r^2 roots, E8's 240 for r = 8
    e8 = B.from_cartan_sc(B.e_cartan(8))
    assert len(e8.datum.roots) == 240
    for base in [e8, *(catalog.group_datum(name) for name in GROUPS)]:
        r = len(base.simple_indices)
        closed = generate_datum(base.datum.rank, base.simple_roots, base.simple_coroots)
        assert closed.datum == base.datum
        assert len(closed.datum.roots) <= 3.75 * r * r
