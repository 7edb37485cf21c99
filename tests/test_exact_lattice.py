import random

from fractions import Fraction

import pytest

from oracles import solve_rational

from rootfold.exact_lattice import (
    LatticeMap,
    Sublattice,
    TorsionVector,
    smith_normal_form,
    column_hermite_form,
    dot,
    row_hermite_form,
    fixed_sublattice,
    solve_torsion_fixed,
    kernel_basis,
    right_inverse,
)


def rand_matrix(rng, nr, nc, lo=-5, hi=5):
    return LatticeMap([[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)])


def rand_unimodular(rng, n, steps=20):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return LatticeMap(m)


def is_identity(m):
    return m == LatticeMap.identity(m.domain_rank)


def check_snf(m):
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v).rows == d.rows
    assert u.det() in (1, -1)
    assert v.det() in (1, -1)
    diag = [d.rows[i][i] for i in range(min(d.codomain_rank, d.domain_rank))]
    for i in range(d.codomain_rank):
        for j in range(d.domain_rank):
            if i != j:
                assert d.rows[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0 or b == 0
        if a == 0:
            assert b == 0
    return diag


def test_snf_identity():
    diag = check_snf(LatticeMap.identity(3))
    assert diag == [1, 1, 1]


def test_snf_diag_2_3():
    diag = check_snf(LatticeMap([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_zero():
    diag = check_snf(LatticeMap.zero(2, 2))
    assert diag == [0, 0]


def test_snf_random_invariants():
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        check_snf(rand_matrix(rng, nr, nc))


def test_hermite_canonical_under_column_ops():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        m = rand_matrix(rng, n, k)
        w = rand_unimodular(rng, k)
        assert column_hermite_form(m).rows == column_hermite_form(m @ w).rows


def test_row_hermite_canonical():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n + 1)
        w = rand_unimodular(rng, n)
        assert row_hermite_form(m).rows == row_hermite_form(w @ m).rows


def test_unimodular_inverse():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_unimodular(rng, n)
        assert is_identity(m @ m.inverse_unimodular())
    assert LatticeMap.identity(0).inverse_unimodular() == LatticeMap.identity(0)
    for bad in (LatticeMap([[2, 0], [0, 1]]),          # det 2
                LatticeMap([[1, 1, 0], [0, 1, 1], [1, 2, 1]]),  # singular
                LatticeMap([[1, 0, 0], [0, 1, 0]])):   # not square
        with pytest.raises(ValueError):
            bad.inverse_unimodular()


def rational_product(a, x):
    return [[sum(r[k] * x[k][j] for k in range(len(r))) for j in range(len(x[0]))]
            for r in a.rows]


def test_solve_rational_square_and_tall():
    """k of the columns of a unimodular matrix, each scaled, have full rank."""
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        m = rng.randint(1, 3)
        u = rand_unimodular(rng, n).columns()
        scales = [rng.choice((1, -2, 3)) for _ in range(k)]
        a = LatticeMap.from_columns([tuple(c * x for x in u[j])
                                     for j, c in enumerate(scales)], n)
        y = rand_matrix(rng, k, m)
        b = LatticeMap.from_columns(u[:k], n) @ y
        x = solve_rational(a, b)
        assert rational_product(a, x) == [list(r) for r in b.rows]
        assert x == tuple(tuple(Fraction(v, c) for v in row)
                          for row, c in zip(y.rows, scales))


def test_solve_rational_returns_none():
    dependent = LatticeMap([[1, 2], [2, 4], [0, 0]])
    assert solve_rational(dependent, [(1,), (2,), (0,)]) is None
    assert solve_rational(LatticeMap([[1, 1], [1, 1]]), [(0,), (0,)]) is None
    wide = LatticeMap([[1, 0, 1], [0, 1, 1]])
    assert solve_rational(wide, LatticeMap.identity(2)) is None
    tall = LatticeMap([[1, 0], [0, 1], [1, 1]])
    assert solve_rational(tall, [(1,), (1,), (3,)]) is None
    assert solve_rational(tall, [(1,), (1,), (2,)]) == ((1,), (1,))
    with pytest.raises(ValueError):
        solve_rational(tall, LatticeMap.identity(2))


def test_solve_rational_empty_shapes():
    no_cols = LatticeMap.zero(3, 0)
    assert no_cols.codomain_rank == 3 and no_cols.domain_rank == 0
    assert solve_rational(no_cols, [(0, 0)] * 3) == ()
    assert solve_rational(no_cols, [(0,), (1,), (0,)]) is None
    assert solve_rational(LatticeMap.identity(0), LatticeMap.identity(0)) == ()
    assert solve_rational((), ()) == ()
    # two zero columns in a zero-dimensional space are dependent
    assert solve_rational(LatticeMap.zero(0, 2), LatticeMap.zero(0, 1)) is None


def test_shape_is_kept_without_rows():
    assert LatticeMap.zero(2, 0).transpose() == LatticeMap.zero(0, 2)
    t = LatticeMap.zero(2, 0).transpose()
    assert (t.codomain_rank, t.domain_rank) == (0, 2)
    assert LatticeMap.zero(0, 2) != LatticeMap.zero(0, 3)
    assert hash(LatticeMap.zero(0, 2)) != hash(LatticeMap.zero(0, 3))
    assert LatticeMap.zero(3, 0) @ LatticeMap.zero(0, 2) == LatticeMap.zero(3, 2)
    assert LatticeMap.from_columns([], 2) == LatticeMap.zero(2, 0)
    with pytest.raises(ValueError):
        LatticeMap([])
    with pytest.raises(ValueError):
        LatticeMap([[1, 2]], 3)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        LatticeMap.from_columns([(1, 2, 3)], 2)
    with pytest.raises(ValueError):
        LatticeMap.from_columns([(1, 2), (3,)], 2)
    for op in (LatticeMap.__add__, LatticeMap.__sub__):
        with pytest.raises(ValueError):
            op(LatticeMap.zero(0, 2), LatticeMap.zero(0, 3))
        with pytest.raises(ValueError):
            op(LatticeMap.identity(2), LatticeMap.zero(2, 3))
    assert LatticeMap.identity(2) - LatticeMap.identity(2) == LatticeMap.zero(2, 2)


def test_length_mismatch_raises_value_error():
    assert dot((1, 2, 3), [4, 5, 6]) == 32
    assert dot((), ()) == 0
    for u, v in [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))]:
        with pytest.raises(ValueError, match="vector length mismatch"):
            dot(u, v)
    m = LatticeMap([[1, 2], [3, 4], [5, 6]])
    assert m((1, -1)) == (-1, -1, -1)
    for v in [(1,), (1, 2, 3), ()]:
        with pytest.raises(ValueError, match="vector length mismatch"):
            m(v)
    with pytest.raises(ValueError, match="vector length mismatch"):
        LatticeMap.zero(0, 2)((1, 2, 3))


def test_rank_zero_lattices():
    flip = LatticeMap([[-1]])
    assert fixed_sublattice([flip]).basis == LatticeMap.zero(1, 0)
    assert kernel_basis(LatticeMap.identity(2)) == LatticeMap.zero(2, 0)
    assert Sublattice(2, LatticeMap.zero(2, 0)).saturation().rank == 0
    assert solve_torsion_fixed(LatticeMap.identity(0).scale(3)) == [TorsionVector((), 1)]


def test_right_inverse():
    p = LatticeMap([[1, 1, 0], [0, 2, 1]])
    r = right_inverse(p)
    assert is_identity(p @ r)
    assert right_inverse(LatticeMap.zero(0, 3)) == LatticeMap.zero(3, 0)
    with pytest.raises(ValueError):
        right_inverse(LatticeMap([[2, 0], [0, 1]]))


def test_kernel_saturated():
    m = LatticeMap([[2, 2, 0]])
    k = kernel_basis(m)
    sub = Sublattice(3, k)
    # (1,-1,0) is in the rational kernel and primitive, so must be in the lattice kernel
    assert sub.contains((1, -1, 0))
    assert sub.contains((0, 0, 1))
    assert sub.rank == 2


def test_fixed_sublattice_identity():
    s = fixed_sublattice([LatticeMap.identity(3)])
    assert s.rank == 3


def test_fixed_sublattice_swap():
    swap = LatticeMap([[0, 1], [1, 0]])
    s = fixed_sublattice([swap])
    assert s.rank == 1
    assert s.contains((1, 1))
    assert not s.contains((1, -1))


def test_fixed_sublattice_negation():
    s = fixed_sublattice([LatticeMap([[-1, 0], [0, -1]])])
    assert s.rank == 0


def test_solve_torsion_fixed_scalar_2():
    sols = solve_torsion_fixed(LatticeMap([[2]]))
    assert sols == [TorsionVector((0,), 1)]


def test_solve_torsion_fixed_scalar_3():
    # oracle: brute force over halves
    brute = sorted(
        TorsionVector((k,), 2) for k in range(2)
        if (3 * Fraction(k, 2) - Fraction(k, 2)).denominator == 1
    )
    sols = solve_torsion_fixed(LatticeMap([[3]]))
    assert sols == brute
    assert TorsionVector((1,), 2) in sols


def test_solve_torsion_fixed_twisted():
    m = LatticeMap([[0, 2], [2, 0]])
    sols = solve_torsion_fixed(m)
    # oracle: brute force over the grid with denominator |det(m - I)| = 3
    brute = set()
    for a in range(3):
        for b in range(3):
            x = (Fraction(a, 3), Fraction(b, 3))
            y = (2 * x[1] - x[0], 2 * x[0] - x[1])
            if all(v.denominator == 1 for v in y):
                brute.add(TorsionVector((a, b), 3))
    assert set(sols) == brute
    assert len(sols) == 3


def test_solve_torsion_count_matches_det():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 3)
        while True:
            m = rand_matrix(rng, n, n, -3, 3)
            d = (m - LatticeMap.identity(n)).det()
            if d != 0 and abs(d) <= 40:
                break
        assert len(solve_torsion_fixed(m)) == abs(d)


def test_solve_torsion_singular_raises():
    with pytest.raises(ValueError):
        solve_torsion_fixed(LatticeMap.identity(2))


def test_torsion_vector_canonical():
    t = TorsionVector((2, 4), 6)
    assert t.den == 3 and t.nums == (1, 2)
    assert TorsionVector((0, 0), 5) == TorsionVector.zero(2)
    assert TorsionVector((7,), 3) == TorsionVector((1,), 3)


def test_torsion_vector_arithmetic():
    a = TorsionVector((1,), 2)
    b = TorsionVector((1,), 3)
    assert (a + b).fractions() == (Fraction(5, 6),)
    assert a.scale(-1) == a
    assert (a + a.scale(-1)).is_zero()
    assert a.scale(2).is_zero()


def test_torsion_vector_pairing_and_apply():
    t = TorsionVector((1, 1), 4)
    assert t.pairing((1, 3)) == 0
    assert t.pairing((1, 0)) == Fraction(1, 4)
    m = LatticeMap([[1, 1], [0, 2]])
    assert t.apply(m) == TorsionVector((2, 2), 4)


def test_torsion_vector_order():
    assert TorsionVector((1,), 2) < TorsionVector((1,), 3)
    assert TorsionVector((0, 1), 3) < TorsionVector((1, 0), 3)


def test_sublattice_membership_and_coords():
    s = Sublattice(2, LatticeMap.from_columns([(2, 0), (1, 1)], 2))
    assert s.contains((3, 1))
    assert s.coordinates((3, 1)) is not None
    assert not s.contains((1, 0))
    sat = s.saturation()
    assert sat.rank == 2
    assert sat.contains((1, 0))
