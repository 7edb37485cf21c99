"""Self-test of the benchmark on a tiny pool; runs in well under a minute.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that every metric the benchmark defines is printed with its unit,
that a wrong class count or a wrong digest shows up as failed jobs, and that
the self times of a traced run sum to no more than its traced wall time.
"""

import json
import os
import shutil
import sys

import oracle
import run

TINY = {
    "classes": ("classes:gl2:q3", "classes:sl3~pinned_sl_action:q5", "classes:g2:q4"),
    "lift": ("lift:d4-triality:q2", "lift:d4-twisted-a2:q3"),
    "cli": ("cli:fold --preset d4-triality --format json",
            "cli:verify product --format json"),
}

# the per-layer metrics named in the benchmark's definition; the traced run
# may report more (inclusive times), never fewer
NAMED_PER_LAYER = [
    "classes.enumerate_stable_classes.calls", "classes.enumerate_stable_classes.self_s",
    "classes.enumerate_stable_classes.classes_out",
    "classes.enumerate_stable_classes.useful_ratio",
    "classes.canonicalize_class.calls", "classes.canonicalize_class.self_s",
    "classes.lift_stable_class.calls", "classes.lift_stable_class.self_s",
    "classes.weyl_orbit_contains.calls", "classes.weyl_orbit_contains.self_s",
    "exact_lattice.solve_torsion_fixed.calls", "exact_lattice.solve_torsion_fixed.self_s",
    "exact_lattice.solve_torsion_fixed.points",
    "exact_lattice.smith_normal_form.calls", "exact_lattice.smith_normal_form.self_s",
    "root_datum.weyl_group.calls", "root_datum.weyl_group.self_s",
    "root_datum.weyl_group.elements",
    "root_datum.validate.calls", "root_datum.validate.self_s",
    "root_datum.cartan_type.calls", "root_datum.cartan_type.self_s",
    "chevalley.build_structure_constants.calls", "chevalley.build_structure_constants.self_s",
    "gamma_action.validate_action.calls", "gamma_action.validate_action.self_s",
    "folding.fold.calls", "folding.fold.self_s",
    "folding.restricted_root_comparison.calls", "folding.restricted_root_comparison.self_s",
    "folding.dual_length_comparison.calls", "folding.dual_length_comparison.self_s",
    "duality_conorm.ConormData.calls", "duality_conorm.ConormData.self_s",
    "catalog.preset.calls", "catalog.preset.self_s",
    "catalog.group_datum.calls", "catalog.group_datum.self_s",
    "cli.main.self_s", "import.rootfold_s", "import.numpy_s", "trace.overhead_s",
]


def tiny_specs(workload):
    by_id = {s["id"]: s for s in run.job_pools.POOLS[workload]()}
    return [by_id[i] for i in TINY[workload]]


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    run.SETUP_SAMPLES, run.IMPORT_SAMPLES = 2, 1
    end_to_end, per_layer = declared()
    assert set(NAMED_PER_LAYER) <= set(per_layer), set(NAMED_PER_LAYER) - set(per_layer)
    expected = run.load_expected()
    try:
        for workload in TINY:
            specs = tiny_specs(workload)
            result, detail = run.measure(workload, specs, 1, False, expected)
            assert result["correct"] and result["failed"] == 0, detail["failures"]
            assert units(result) == end_to_end, units(result)
            assert detail["fail_ratio"]["attempted"] == result["attempted"] >= 2 * len(specs)
            assert detail["job_tail"]["samples"] == len(specs)

            result, detail = run.measure(workload, specs, 1, True, expected)
            assert result["correct"], detail["failures"]
            assert units(result) == per_layer, set(units(result)) ^ set(per_layer)
            assert detail["job_spans_self_s"] <= detail["traced_wall_s"], detail
            print(f"selftest: {workload} metrics and trace ok", file=sys.stderr)

        # a wrong class count must fail the classes jobs
        true_count = oracle.steinberg_count
        oracle.steinberg_count = lambda *a: true_count(*a) + 1
        try:
            result, _ = run.measure("classes", tiny_specs("classes"), 1, False, expected)
        finally:
            oracle.steinberg_count = true_count
        assert result["failed"] == result["attempted"] > 0, result

        # a wrong recorded digest must fail the lift and cli jobs
        for workload in ("lift", "cli"):
            specs = tiny_specs(workload)
            wrong = dict(expected)
            wrong[specs[0]["id"]] = dict(expected[specs[0]["id"]], digest="0" * 16)
            result, detail = run.measure(workload, specs, 1, False, wrong)
            assert result["failed"] >= 2 and not result["correct"], result
            assert detail["fail_ratio"]["value"] > 0
        print("selftest: wrong counts and digests are caught", file=sys.stderr)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
