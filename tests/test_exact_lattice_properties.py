"""Property suites for the exact kernel, and for the root coefficients built on it."""

from math import gcd

import pytest

import oracles
from oracles import solve_rational

from rootfold import catalog
from rootfold.classes import FrobeniusStructure
from rootfold.exact_lattice import (
    LatticeMap,
    Sublattice,
    TorsionVector,
    kernel_basis,
    right_inverse,
    row_hermite_form,
    smith_normal_form,
    solve_integer,
    solve_torsion_fixed,
)
from rootfold.root_datum import BasedRootDatum, RootDatum, weyl_group, weyl_matrices

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


@st.composite
def matrices(draw, max_rank=4, lo=-6, hi=6):
    nr = draw(st.integers(1, max_rank))
    nc = draw(st.integers(1, max_rank))
    return LatticeMap(draw(st.lists(st.lists(st.integers(lo, hi), min_size=nc, max_size=nc),
                                    min_size=nr, max_size=nr)), nc)


@st.composite
def unimodular(draw, n):
    """A product of elementary row operations: additions, swaps and sign changes."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-3, 3)), max_size=12)):
        if i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif c == 0:
            m[0], m[i] = m[i], m[0]
        elif c < 0:
            m[i] = [-x for x in m[i]]
    return LatticeMap(m, n)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_smith_form_is_a_unimodular_diagonalization(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert u.det() in (1, -1) and v.det() in (1, -1)
    assert all(x == 0 for i, row in enumerate(d.rows) for j, x in enumerate(row) if i != j)
    diag = [d.rows[i][i] for i in range(min(d.codomain_rank, d.domain_rank))]
    assert all(x >= 0 for x in diag)
    # d_1 | d_2 | ..., and the zeros come last
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_hermite_form_is_unique(data):
    m = data.draw(matrices())
    w = data.draw(unimodular(m.codomain_rank))
    h = row_hermite_form(m)
    assert row_hermite_form(w @ m) == h
    assert row_hermite_form(h) == h


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_det_matches_a_fraction_elimination(data):
    m = data.draw(matrices())
    n = min(m.codomain_rank, m.domain_rank)
    square = LatticeMap([r[:n] for r in m.rows[:n]], n)
    w = data.draw(unimodular(n))
    for a in (square, w, w @ square):
        assert a.det() == oracles._det(a.rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_unimodular_inverts_and_refuses_det_two(data):
    n = data.draw(st.integers(1, 4))
    w = data.draw(unimodular(n))
    inv = w.inverse_unimodular()
    assert inv @ w == LatticeMap.identity(n) == w @ inv
    double = LatticeMap([[2 * x for x in w.rows[0]], *w.rows[1:]], n)
    with pytest.raises(ValueError, match="not unimodular"):
        double.inverse_unimodular()


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_is_the_whole_saturated_kernel(m):
    k = kernel_basis(m)
    nc = m.domain_rank
    assert m @ k == LatticeMap.zero(m.codomain_rank, k.domain_rank)
    assert k.domain_rank == nc - oracles._rank(m.rows, nc)
    assert Sublattice(nc, k).saturation().basis == k


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_right_inverse_of_rows_of_a_unimodular_matrix(data):
    n = data.draw(st.integers(1, 4))
    w = data.draw(unimodular(n))
    s = data.draw(st.integers(0, n))
    p = LatticeMap(w.rows[:s], n)
    assert p @ right_inverse(p) == LatticeMap.identity(s)
    if s:
        with pytest.raises(ValueError, match="not surjective"):
            right_inverse(LatticeMap([[2 * x for x in w.rows[0]], *w.rows[1:s]], n))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_integer_matches_a_rational_solve_per_column(data):
    a = data.draw(matrices())
    n, k = a.codomain_rank, a.domain_rank
    cols = []
    for _ in range(data.draw(st.integers(0, 3))):
        x = data.draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
        # an image of a, or a vector now and then off its lattice or its span
        col = a(x)
        if data.draw(st.booleans()):
            col = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        cols.append(col)
    got = solve_integer(a, LatticeMap.from_columns(cols, n))
    assert len(got) == len(cols)
    for col, x in zip(cols, got):
        want = solve_rational(a, [[c] for c in col])
        if want is None or any(f.denominator != 1 for f, in want):
            assert x is None
        else:
            assert x == tuple(int(f) for f, in want)


def torsion_vectors(rank):
    return st.builds(TorsionVector, st.lists(st.integers(-30, 30), min_size=rank,
                                             max_size=rank), st.integers(1, 12))


def assert_canonical(t, fracs):
    assert t.den >= 1
    assert all(0 <= x < t.den for x in t.nums)
    assert gcd(t.den, *t.nums) == 1
    assert t.fractions() == tuple(f % 1 for f in fracs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_torsion_vector_arithmetic_stays_canonical(data):
    rank = data.draw(st.integers(0, 4))
    a, b = data.draw(torsion_vectors(rank)), data.draw(torsion_vectors(rank))
    c = data.draw(st.integers(-6, 6))
    fa, fb = a.fractions(), b.fractions()
    assert_canonical(a, fa)
    assert_canonical(a + b, [x + y for x, y in zip(fa, fb)])
    assert_canonical(a + b.scale(-1), [x - y for x, y in zip(fa, fb)])
    assert_canonical(a.scale(-1), [-x for x in fa])
    assert_canonical(a.scale(c), [c * x for x in fa])


def fixed_point_pairs(m):
    return [(x.den, x.nums) for x in solve_torsion_fixed(m)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_torsion_fixed_points_match_a_scan(data):
    n = data.draw(st.integers(0, 3))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    hypothesis.assume(1 <= abs(oracles._det([[x - (i == j) for j, x in enumerate(r)]
                                             for i, r in enumerate(rows)])) <= 60)
    assert fixed_point_pairs(LatticeMap(rows, n)) == oracles.torsion_fixed_points(rows)


@pytest.mark.parametrize("group, builder, n, q", [
    ("gl2", "pinned_gl_action", 2, 3), ("gl3", "pinned_gl_action", 3, 2),
    ("sl3", "pinned_sl_action", 3, 5), ("pgl3", "pinned_pgl_action", 3, 4),
    ("so6", "pinned_so_even_action", 6, 2)])
def test_twisted_catalog_fixed_points_match_a_scan(group, builder, n, q):
    base = catalog.group_datum(group)
    frob = FrobeniusStructure.twisted(q, getattr(catalog, builder)(n).diagram[1])
    for w in weyl_matrices(base, weyl_group(base)):
        m = w @ frob.tau.scale(frob.q)
        assert fixed_point_pairs(m) == oracles.torsion_fixed_points(m.rows), w


GROUPS = ("e6ad", "e6sc", "f4", "g2", "d4", "gl0", "gl1", "gl2", "gl4", "sl2", "sl3",
          "sl4", "pgl2", "pgl3", "pgl4", "sp2", "sp4", "sp6", "so3", "so4", "so5", "so6",
          "so7", "so8", "spin5", "spin6", "spin7", "spin8", "torus0", "torus2")

A1_A1 = RootDatum(2, [(2, 0), (-2, 0), (0, 2), (0, -2)], [(1, 0), (-1, 0), (0, 1), (0, -1)])
# a base whose simples miss a root, and one whose simples are dependent
ODD_BASES = (BasedRootDatum(A1_A1, (0,)), BasedRootDatum(A1_A1, (0, 1)))


def direct_coefficients(base, v):
    """Integer coefficients of v in the simple roots by a solve of its own, or None."""
    simples = base.simple_roots
    rows = [[s[r] for s in simples] for r in range(base.datum.rank)]
    x = solve_rational(rows, [[c] for c in v])
    if x is None or any(c.denominator != 1 for c, in x):
        return None
    return tuple(int(c) for c, in x)


def all_bases():
    return [catalog.group_datum(name) for name in GROUPS] + list(ODD_BASES)


def test_simple_coefficients_of_every_root_match_a_direct_solve():
    for base in all_bases():
        fresh = BasedRootDatum(base.datum, base.simple_indices)
        for r in base.datum.roots:
            assert fresh.simple_coefficients(r) == direct_coefficients(base, r), (base, r)
        assert fresh.positive_roots() == tuple(
            i for i, r in enumerate(base.datum.roots)
            if (c := direct_coefficients(base, r)) is not None and min(c, default=0) >= 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_simple_coefficients_of_any_vector_match_a_direct_solve(data):
    base = data.draw(st.sampled_from(all_bases()))
    n, simples = base.datum.rank, base.simple_roots
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(simples),
                                max_size=len(simples)))
    # a root-lattice vector, moved off the lattice or its span now and then
    extra = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=n, max_size=n))
    v = [sum(c * s[r] for c, s in zip(coeffs, simples)) + e for r, e in enumerate(extra)]
    if data.draw(st.booleans()):
        v = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    assert base.simple_coefficients(v) == direct_coefficients(base, v)

