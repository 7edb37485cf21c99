"""The Smith and Hermite forms and the kernel against sympy's, on random integer matrices.

sympy is in the ``test`` extra; the module is skipped where it is not installed.
"""

import pytest

from rootfold.exact_lattice import kernel_basis, row_hermite_form, smith_normal_form
from test_exact_lattice_properties import given, matrices, settings

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")


def in_row_lattice(v, basis):
    """v is an integer combination of the rows of ``basis``, which are independent."""
    if not basis:
        return not any(v)
    try:
        x, free = sympy.Matrix(basis).T.gauss_jordan_solve(sympy.Matrix(v))
    except ValueError:  # v is outside the rational span
        return False
    return free.rows == 0 and all(c.is_integer for c in x)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_smith_diagonal_is_sympys_invariant_factors(m):
    _, d, _ = smith_normal_form(m)
    diag = [d.rows[i][i] for i in range(min(d.codomain_rank, d.domain_rank))]
    theirs = normalforms.invariant_factors(sympy.Matrix(m.rows), domain=sympy.ZZ)
    assert diag == [abs(int(x)) for x in theirs]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_row_hermite_form_spans_the_row_lattice_of_sympys_form(m):
    ours = [row for row in row_hermite_form(m).rows if any(row)]
    # sympy's form is by columns: its nonzero columns span the column lattice
    theirs = normalforms.hermite_normal_form(sympy.Matrix(m.rows).T).T.tolist()
    assert len(ours) == len(theirs)
    assert all(in_row_lattice(row, theirs) for row in ours)
    assert all(in_row_lattice(row, ours) for row in theirs)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_basis_has_the_rank_of_sympys_nullspace(m):
    k = kernel_basis(m)
    theirs = sympy.Matrix(m.rows).nullspace()
    assert k.domain_rank == len(theirs)
    # both span the same rational kernel
    if theirs:
        ours = sympy.Matrix(k.rows)
        assert sympy.Matrix.hstack(ours, *theirs).rank() == len(theirs)
