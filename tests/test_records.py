"""The package's records: their fields, equality, hashing and immutability.

The integer value types, and the builders that feed them, refuse entries
that are not integers; torsion coordinates may be Fractions but not floats.
"""

from fractions import Fraction

import pytest

from rootfold import catalog
from rootfold.classes import FrobeniusStructure, StableClass
from rootfold.cli import JobConfig
from rootfold.exact_lattice import LatticeMap, TorsionVector
from rootfold.folding import (
    DualLengthComparison,
    FoldedRootRecord,
    RestrictionComparison,
    dual_length_comparison,
    fold,
    restricted_root_comparison,
)
from rootfold.gamma_action import (
    ComponentStabilizerRecord,
    FiniteGroup,
    StabilizerReport,
    stabilizer_hypothesis,
)
from rootfold.root_datum import BasedRootDatum, RootDatum, ValidationReport, generate_datum


def sample_records():
    """One instance of each immutable record, built the way the package builds it."""
    a = catalog.preset("gl4-pinned").action
    hyp = stabilizer_hypothesis(a)
    return {
        "ValidationReport": ValidationReport(["a", "b"]),
        "FrobeniusStructure": FrobeniusStructure.untwisted(4, 2),
        "StableClass": StableClass(TorsionVector((1, 2), 3), 3),
        "Preset": catalog.preset("gl4-pinned"),
        "FoldedRootRecord": next(iter(fold(a).provenance.values())),
        "RestrictionComparison": restricted_root_comparison(a),
        "DualLengthComparison": dual_length_comparison(a),
        "ComponentStabilizerRecord": hyp.components[0],
        "StabilizerReport": hyp,
    }


FIELDS = {
    "ValidationReport": ("problems",),
    "FrobeniusStructure": ("q", "tau"),
    "StableClass": ("rep", "q"),
    "Preset": ("name", "action"),
    "FoldedRootRecord": ("root", "coroot", "orbit", "source_rep", "multiplier"),
    "RestrictionComparison": ("phi", "underline_phi", "missing_short", "hypothesis"),
    "DualLengthComparison": ("phi_dual", "underline_dual", "long_dual_in_phi_dual",
                             "two_lengths"),
    "ComponentStabilizerRecord": ("component_index", "stabilizer", "image_order", "cyclic",
                                  "faithful"),
    "StabilizerReport": ("components", "witness"),
}
# values each record reads from its fields, so none can disagree with them
DERIVED = {
    "ValidationReport": ("ok",),
    "RestrictionComparison": ("phi_in_underline", "underline_short_in_phi"),
    "DualLengthComparison": ("phi_dual_in_underline_dual",),
    "ComponentStabilizerRecord": ("trivial",),
    "StabilizerReport": ("holds",),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_keeps_its_name_fields_and_immutability(name):
    rec = sample_records()[name]
    assert type(rec).__name__ == name
    assert rec._fields == FIELDS[name]
    for field in FIELDS[name] + DERIVED.get(name, ()):
        value = getattr(rec, field)
        with pytest.raises(AttributeError):
            setattr(rec, field, value)
    assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equal_records_hash_alike(name):
    first, second = sample_records()[name], sample_records()[name]
    assert first == second
    # a preset's action compares by identity, and ``preset`` builds each name once
    assert hash(first) == hash(second)


def test_validation_report_keeps_a_tuple_and_its_truth():
    rep = ValidationReport(["x", "y"])
    assert rep.problems == ("x", "y")
    assert not rep and rep.ok is False
    assert ValidationReport([]) and ValidationReport([]).ok is True
    assert ValidationReport([]) == ValidationReport(())


A1 = RootDatum(1, [(2,), (-2,)], [(1,), (-1,)])


@pytest.mark.parametrize("build", [
    lambda: LatticeMap([[1.5, 0], [0, 1]]),
    lambda: TorsionVector((Fraction(1, 2), 1), 3),
    lambda: TorsionVector((1,), 2.5),
    lambda: RootDatum(1, [(2.5,), (-2,)], [(1,), (-1,)]),
    lambda: BasedRootDatum(A1, [0.5]),
    lambda: generate_datum(1, [(2.5,)], [(1.9,)]),
    lambda: FiniteGroup([[0, 1], [1, 0.7]]),
    lambda: TorsionVector.from_fractions([0.1]),
    lambda: FrobeniusStructure(8.0, LatticeMap.identity(2)),
    lambda: FrobeniusStructure.untwisted(8.0, 2),
], ids=["lattice-map", "torsion-numerator", "torsion-denominator", "root-datum",
        "based-root-datum", "generated-datum", "finite-group", "torsion-from-floats",
        "frobenius-q", "frobenius-untwisted-q"])
def test_constructors_refuse_non_integers(build):
    with pytest.raises(TypeError):
        build()


def test_stabilizer_report_truth_is_holds():
    assert stabilizer_hypothesis(catalog.preset("gl4-pinned").action)
    assert not stabilizer_hypothesis(catalog.preset("d4-full-s3").action)
    assert not StabilizerReport((), 0)
    assert StabilizerReport((), None).holds


def test_stable_class_orders_by_representative_then_q():
    a = StableClass(TorsionVector((1,), 3), 3)
    b = StableClass(TorsionVector((2,), 3), 3)
    c = StableClass(TorsionVector((0,), 1), 5)
    assert a < b and not b < a
    assert sorted([b, a, c]) == [c, a, b]
    assert StableClass(TorsionVector((1,), 3), 2) < a


def test_frobenius_structure_checks_on_construction():
    f = FrobeniusStructure.untwisted(9, 2)
    assert f == FrobeniusStructure(9, LatticeMap.identity(2))
    with pytest.raises(ValueError, match="^6 is not a power of 2$"):
        FrobeniusStructure(6, LatticeMap.identity(2))
    with pytest.raises(ValueError, match="invertible"):
        FrobeniusStructure(9, LatticeMap([[2]]))


@pytest.mark.parametrize("q", [1, 0, -8])
def test_frobenius_structure_refuses_q_below_two(q):
    # q = p^0 = 1 made an m - I that is singular on gl2 and one class on gl0
    with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
        FrobeniusStructure(q, LatticeMap.identity(2))


def test_job_config_compares_by_value_and_merges_by_replace():
    cfg = JobConfig(preset="gl2", q=3)
    assert (cfg.format, cfg.budget, cfg.tau) == ("table", "full", None)
    assert cfg == JobConfig(preset="gl2", q=3)
    with pytest.raises(AttributeError):
        cfg.q = 5
    with pytest.raises(AttributeError):
        cfg.unknown = 1
    merged = cfg._replace(q=5)
    assert merged != cfg and cfg.q == 3
    assert merged == JobConfig(preset="gl2", q=5)
    with pytest.raises(TypeError):
        JobConfig(fmt="json")
