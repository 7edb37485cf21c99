"""Cartan types and length classes against the Dynkin-diagram walker.

``cartan_type`` reads each component's type off its rank, root count and
short-root count; ``tests/oracles.diagram_cartan_type`` walks the diagram of
a base it chooses itself.  ``length_classes`` compares integer lengths; the
reference compares the squared lengths of the scaled invariant form, on
which long roots have squared length 2.
"""

import pytest

import builders as B
from oracles import diagram_cartan_type, form_value
from rootfold import catalog
from rootfold.folding import fold
from rootfold.gamma_action import pinned_projection
from rootfold.root_datum import (
    RootDatum,
    cartan_type,
    dual_root_datum,
    invariant_inner_product,
    length_classes,
)

# every catalog family member of rank at most 8
FAMILY_RANGES = {"gl": range(0, 9), "sl": range(1, 10), "pgl": range(1, 10),
                 "sp": range(2, 17, 2), "so": range(3, 18), "spin": range(5, 13),
                 "torus": range(0, 9)}
GROUPS = ([f"{prefix}{n}" for prefix, ns in FAMILY_RANGES.items() for n in ns]
          + ["e6ad", "e6sc", "f4", "g2", "d4"])

SUMS = [("g2", "f4"), ("sp4", "so7"), ("so6", "sl4"), ("so8", "sp6"), ("gl2", "torus2"),
        ("e6sc", "g2"), ("so5", "sp4")]

PRESETS = sorted(set(catalog.GOLDEN_FOLDS) | {
    "e6sc-pinned", "d4-s3-twisted", "gl4-inner-block", "gl2gl2-z4", "gl5-pinned",
    "sl4-pinned", "sl6-pinned", "pgl3-pinned", "pgl4-pinned", "so8-pinned",
    "so10-pinned", "gl3-trivial-z2", "gl2-product-swap", "gl3-product-swap",
    "gl8-so-twist"})


def assert_agrees(rd):
    for d in (rd, dual_root_datum(rd)):
        assert cartan_type(d) == diagram_cartan_type(d.rank, d.roots, d.coroots), d
        form = invariant_inner_product(d)
        squares = [form_value(form, r, r) for r in d.roots]
        assert all(0 < s <= 2 for s in squares), d
        lengths = length_classes(d)
        assert ([lengths[i] for i in range(len(d.roots))]
                == ["long" if s == 2 else "short" for s in squares]), d


def test_catalog_groups_reach_rank_8():
    assert max(catalog.group_datum(name).datum.rank for name in GROUPS) == 8


@pytest.mark.parametrize("name", GROUPS)
def test_catalog_group(name):
    assert_agrees(catalog.group_datum(name).datum)


@pytest.mark.parametrize("left, right", SUMS)
def test_direct_sum(left, right):
    assert_agrees(catalog.direct_sum(catalog.group_datum(left),
                                     catalog.group_datum(right)).datum)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_folds(name):
    action = catalog.preset(name).action
    assert_agrees(fold(action).fixed)
    assert_agrees(fold(pinned_projection(action)).fixed)


@pytest.mark.parametrize("n", [7, 8])
def test_generated_e7_e8(n):
    for base in (B.from_cartan_sc(B.e_cartan(n)), B.from_cartan_ad(B.e_cartan(n))):
        assert cartan_type(base) == ((("E", n),), 0)
        assert_agrees(base.datum)


def test_counts_of_no_type_are_named():
    # BC1 is not reduced: rank 1, four roots, two of them short
    bc1 = RootDatum(1, [(1,), (-1,), (2,), (-2,)], [(2,), (-2,), (1,), (-1,)])
    with pytest.raises(ValueError, match="rank 1, 4 roots and 2 short roots"):
        cartan_type(bc1)
