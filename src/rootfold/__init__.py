"""Exact computational root-datum folding and conorm maps.

Everything here is integer or rational arithmetic: lattice maps are integer
matrices, torus points are torsion vectors over Q/Z, and every check is an
exact equality.  No floats anywhere.

``_EXPORTS`` names, per layer, the names the package exports from it; every
export, and every layer named there, binds on first use.  So ``import
rootfold`` loads no layer, and a job loads only the layers it touches.
"""

_EXPORTS = {
    "exact_lattice": ("LatticeMap", "Sublattice", "TorsionVector",
                      "smith_normal_form", "fixed_sublattice", "solve_torsion_fixed"),
    "root_datum": ("RootDatum", "BasedRootDatum", "validate", "weyl_group", "weyl_matrices",
                   "cartan_type", "is_closed_subsystem", "dual_root_datum"),
    "chevalley": ("StructureConstants", "build_structure_constants", "propagate_scalars"),
    "gamma_action": ("FiniteGroup", "GammaAction", "validate_action", "pinned_projection",
                     "root_orbit", "root_stabilizer", "root_space_scalar",
                     "stabilizer_hypothesis"),
    "folding": ("FoldedDatum", "fold", "restricted_root_comparison", "dual_length_comparison"),
    "duality_conorm": ("ConormData", "Isogeny"),
    "catalog": ("rotation_action",),
    "classes": ("StableClass", "FrobeniusStructure", "canonicalize_class",
                "enumerate_stable_classes", "lift_stable_class"),
    "verify": ("verify_isogeny_square", "levi_for_element", "subgroup_action",
               "induced_quotient_action", "verify_product_conorm", "verify_trivial_lift",
               "verify_normal_subgroup_composition", "verify_pinning_factorization",
               "verify_levi_factorization"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["catalog"]


def __getattr__(name):
    for layer, names in _EXPORTS.items():
        if name == layer or name in names:
            # not importlib: the package namespace binds nothing but its exports
            module = __import__(f"{__name__}.{layer}", fromlist=[layer])
            value = module if name == layer else getattr(module, name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
