import subprocess
import sys
from fractions import Fraction

import pytest

import builders as B
import oracles
from oracles import form_value, invariant_inner_product
from rootfold import catalog
from rootfold.chevalley import build_structure_constants, propagate_scalars
from rootfold.exact_lattice import LatticeMap, vadd, vneg
from rootfold.root_datum import BasedRootDatum, _components


def flip_map(m):
    """x -> -reversed(x) on Z^m; the diagram flip of the general linear datum."""
    rows = [[0] * m for _ in range(m)]
    for c in range(m):
        rows[m - 1 - c][c] = -1
    return LatticeMap(rows)


def perm_map(perm, n):
    """Coordinate permutation sending entry i to position perm[i]."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[perm[i]][i] = 1
    return LatticeMap(rows)


def test_a2_golden_signs():
    base = B.from_cartan_sc(B.A2_CARTAN)
    sc = build_structure_constants(base)
    a1, a2 = base.simple_roots
    assert sc.n(a1, a2) == 1
    assert sc.n(a2, a1) == -1


def test_a1_no_sums():
    base = B.sl2_weight()
    sc = build_structure_constants(base)
    assert sc.order == ((2,),)
    assert sc.n((2,), (-2,)) == 0


def test_order_prefers_earlier_simples():
    base = B.from_cartan_sc(B.A2_CARTAN)
    sc = build_structure_constants(base)
    a1, a2 = base.simple_roots
    assert sc.order == (a1, a2, vadd(a1, a2))
    assert sc._extra == {vadd(a1, a2): (a1, a2)}


def test_antisymmetry_and_magnitude():
    for base in (B.gl(4), B.sp(2), B.from_cartan_sc(B.G2_CARTAN)):
        sc = build_structure_constants(base)
        rd = base.datum
        for a in rd.roots:
            for b in rd.roots:
                v = sc.n(a, b)
                assert v == -sc.n(b, a)
                if rd.is_root(vadd(a, b)):
                    assert abs(v) == sc.string_p(a, b) + 1
                else:
                    assert v == 0


def test_c2_magnitudes():
    sc = build_structure_constants(B.sp(2))
    assert abs(sc.n((1, -1), (1, 1))) == 2   # string of length two
    assert abs(sc.n((-2, 0), (1, 1))) == 1
    shorts = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    vals = {abs(sc.n(a, b)) for a in shorts for b in shorts
            if sc.base.datum.is_root(vadd(a, b))}
    assert vals <= {1, 2} and 2 in vals


def test_g2_magnitude_three():
    sc = build_structure_constants(B.from_cartan_sc(B.G2_CARTAN))
    rd = sc.base.datum
    assert max(abs(sc.n(a, b)) for a in rd.roots for b in rd.roots) == 3


def test_jacobi_closure():
    for base in (B.from_cartan_sc(B.A2_CARTAN), B.gl(4), B.sp(2),
                 B.from_cartan_sc(B.G2_CARTAN), B.so_even(4)):
        sc = build_structure_constants(base)
        assert oracles.check_jacobi(sc) == []


def test_rejects_non_roots():
    sc = build_structure_constants(B.sp(2))
    with pytest.raises(ValueError):
        sc.n((5, 5), (1, 1))


# --- scalar propagation ---

def test_identity_automorphism_trivial():
    base = B.gl(3)
    sc = build_structure_constants(base)
    out = propagate_scalars(sc, LatticeMap.identity(3))
    assert set(out) == set(base.datum.roots)
    assert all(v == 0 for v in out.values())


def test_a2_pinned_highest_root_scalar():
    base = B.gl(3)
    sc = build_structure_constants(base)
    out = propagate_scalars(sc, flip_map(3))
    assert out[(1, 0, -1)] == Fraction(1, 2)
    assert out[(-1, 0, 1)] == Fraction(1, 2)
    a1, a2 = base.simple_roots
    assert out[a1] == 0 and out[a2] == 0


def test_a3_pinned_fixed_roots_trivial():
    # fixed roots of the flip carry scalar +1 here; the next even-rank case
    # (five coordinates) genuinely produces -1 on fixed roots instead
    base = B.gl(4)
    sc = build_structure_constants(base)
    out = propagate_scalars(sc, flip_map(4))
    assert out[(1, 0, 0, -1)] == 0
    assert out[(0, 1, -1, 0)] == 0


def test_matrix_flip_oracle():
    for m in (3, 4, 5):
        expected = oracles.sl_pinned_flip_scalars(m)
        base = B.gl(m)
        sc = build_structure_constants(base)
        out = propagate_scalars(sc, flip_map(m))
        assert out == expected


def test_a4_has_fixed_root_with_sign_flip():
    out = propagate_scalars(build_structure_constants(B.gl(5)), flip_map(5))
    fixed = [(1, 0, 0, 0, -1), (0, 1, 0, -1, 0)]
    assert all(out[r] == Fraction(1, 2) for r in fixed)


def test_involution_scalars_are_two_torsion():
    for base, d in ((B.gl(4), flip_map(4)), (B.gl(5), flip_map(5))):
        out = propagate_scalars(build_structure_constants(base), d)
        assert all(2 * v % 1 == 0 for v in out.values())


def test_triality_scalars():
    # individual scalars on non-fixed roots are a basis artifact; the honest
    # invariants are vanishing on fixed roots and trivial product over orbits
    # (the latter is what keeps the pinned map at order three)
    base = B.from_cartan_sc(B.D4_CARTAN)
    sc = build_structure_constants(base)
    d = perm_map([2, 1, 3, 0], 4)  # nodes 1 -> 3 -> 4 -> 1, center fixed
    out = propagate_scalars(sc, d)
    for r, v in out.items():
        if tuple(d(r)) == r:
            assert v == 0
    seen = set()
    for r in out:
        if r in seen:
            continue
        orbit = [r]
        cur = tuple(d(r))
        while cur != r:
            orbit.append(cur)
            cur = tuple(d(cur))
        seen.update(orbit)
        assert sum(out[o] for o in orbit) % 1 == 0


def test_d4_flip_scalars_vanish():
    base = B.from_cartan_sc(B.D4_CARTAN)
    sc = build_structure_constants(base)
    out = propagate_scalars(sc, perm_map([0, 1, 3, 2], 4))
    assert all(v == 0 for v in out.values())


def test_decomposition_independence():
    cases = [
        (B.gl(4), flip_map(4)),
        (B.gl(5), flip_map(5)),
        (B.sp(2), LatticeMap.identity(2)),
        (B.from_cartan_sc(B.D4_CARTAN), perm_map([2, 1, 3, 0], 4)),
    ]
    for base, d in cases:
        sc = build_structure_constants(base)
        out = propagate_scalars(sc, d)
        for xi in sc.order:
            for eta in sc.order:
                g = vadd(xi, eta)
                if not base.datum.is_root(g):
                    continue
                ratio = sc.n(d(xi), d(eta)) // sc.n(xi, eta)
                bump = Fraction(0) if ratio == 1 else Fraction(1, 2)
                assert out[g] == (out[xi] + out[eta] + bump) % 1


def test_negative_root_scalars_are_inverses():
    out = propagate_scalars(build_structure_constants(B.gl(5)), flip_map(5))
    for r, v in out.items():
        assert out[vneg(r)] == (-v) % 1


def test_rejects_non_diagram_map():
    sc = build_structure_constants(B.gl(3))
    bad = LatticeMap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # swaps e1,e2: not base-preserving
    with pytest.raises(ValueError):
        propagate_scalars(sc, bad)


# --- one table per based datum ---

CATALOG_GROUPS = ("e6ad", "e6sc", "f4", "g2", "d4", "gl2", "gl4", "sl3", "pgl3", "sp4",
                  "sp6", "so5", "so7", "so8", "spin7", "torus2")


def catalog_bases():
    bases = {catalog.group_datum(name) for name in CATALOG_GROUPS}
    presets = [*catalog.GOLDEN_FOLDS, *(n for n in B.preset_names() if "<" not in n)]
    return bases | {catalog.preset(name).action.base for name in presets}


def test_shared_table_equals_a_fresh_build_on_every_catalog_base():
    for base in catalog_bases():
        shared = build_structure_constants(base)
        assert build_structure_constants(BasedRootDatum(base.datum, base.simple_indices)) is shared
        fresh = build_structure_constants.__wrapped__(base)
        assert shared.order == fresh.order
        assert shared._table == fresh._table
        assert shared._extra == fresh._extra
        assert shared._sq == fresh._sq


def test_squared_lengths_are_one_multiple_of_the_form_values_per_component():
    # the triple and four-term rules divide lengths within one component only
    for base in catalog_bases():
        rd = base.datum
        form = invariant_inner_product(rd)
        sq = build_structure_constants(base)._sq
        assert sq.keys() == set(rd.roots)
        for comp in _components(rd):
            ratios = {Fraction(sq[r], 1) / form_value(form, r, r)
                      for r in (rd.roots[i] for i in comp)}
            assert len(ratios) == 1, base


def test_root_inclusion_suite_builds_one_table_per_base():
    code = ("import contextlib, io\n"
            "from rootfold import cli\n"
            "from rootfold.chevalley import build_structure_constants\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', 'root-inclusion', '--budget', 'full']) == 0\n"
            "print(build_structure_constants.cache_info().misses)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    # 8 distinct bases among the 14 suite presets, each folded with its pinned projection
    assert int(proc.stdout) == 8
