"""Exact computational root-datum folding and conorm maps.

Everything here is integer or rational arithmetic: lattice maps are integer
matrices, torus points are torsion vectors over Q/Z, and every check is an
exact equality.  No floats anywhere.

The names of ``__all__`` that the imports below do not bind belong to the
class layer (``rootfold.classes``) or the verification layer
(``rootfold.verify``); each of those is loaded on the first use of one of its
names, so a job that folds or computes a conorm loads neither.
"""

from .exact_lattice import (
    LatticeMap,
    Sublattice,
    TorsionVector,
    smith_normal_form,
    fixed_sublattice,
    solve_torsion_fixed,
)
from .root_datum import (
    RootDatum,
    BasedRootDatum,
    validate,
    weyl_group,
    weyl_matrices,
    invariant_inner_product,
    classify_length,
    cartan_type,
    is_closed_subsystem,
    dual_root_datum,
)
from .chevalley import StructureConstants, build_structure_constants, propagate_scalars
from .gamma_action import (
    FiniteGroup,
    GammaAction,
    validate_action,
    pinned_projection,
    root_orbit,
    root_stabilizer,
    root_space_scalar,
    stabilizer_hypothesis,
)
from .folding import FoldedDatum, fold, restricted_root_comparison, dual_length_comparison
from .duality_conorm import ConormData, Isogeny, dual_isogeny
from .catalog import rotation_action
from . import catalog

__all__ = [
    "LatticeMap", "Sublattice", "TorsionVector",
    "smith_normal_form", "fixed_sublattice", "solve_torsion_fixed",
    "RootDatum", "BasedRootDatum", "validate", "weyl_group", "weyl_matrices",
    "invariant_inner_product", "classify_length", "cartan_type",
    "is_closed_subsystem", "dual_root_datum",
    "StructureConstants", "build_structure_constants", "propagate_scalars",
    "FiniteGroup", "GammaAction", "validate_action", "pinned_projection",
    "root_orbit", "root_stabilizer", "root_space_scalar", "stabilizer_hypothesis",
    "FoldedDatum", "fold", "restricted_root_comparison", "dual_length_comparison",
    "ConormData", "Isogeny", "dual_isogeny",
    "verify_isogeny_square",
    "StableClass", "FrobeniusStructure",
    "canonicalize_class", "enumerate_stable_classes",
    "lift_stable_class", "levi_for_element", "rotation_action",
    "subgroup_action", "induced_quotient_action",
    "verify_conorm_well_defined", "verify_product_conorm", "verify_trivial_lift",
    "verify_normal_subgroup_composition",
    "verify_pinning_factorization", "verify_levi_factorization",
    "catalog",
]


def __getattr__(name):
    if name in __all__:
        for layer in ("classes", "verify"):
            # not importlib: the package namespace binds nothing but its exports
            module = __import__(f"{__name__}.{layer}", fromlist=[name])
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
