"""Top-level acceptance gate: one check and one printed line per criterion.

Run with -s to see the lines as they appear; each test also hard-asserts, so
a plain pytest run fails loudly on any criterion.  Time budgets are wall
clock for the work inside the criterion, measured here.
"""

import time
from fractions import Fraction

import oracles
from oracles import same_type, verify_conorm_well_defined

from rootfold import catalog as C
from rootfold.chevalley import build_structure_constants, propagate_scalars
from rootfold.classes import FrobeniusStructure, enumerate_stable_classes
from rootfold.exact_lattice import vadd
from rootfold.folding import (
    dual_length_comparison,
    fold,
    restricted_root_comparison,
    root_survives,
)
from rootfold.gamma_action import root_orbit, root_space_scalar, stabilizer_hypothesis
from rootfold.root_datum import cartan_type, length_classes
from rootfold.verify import (
    SUITE_PRESETS,
    verify_isogeny_square,
    verify_levi_factorization,
    verify_normal_subgroup_composition,
    verify_pinning_factorization,
    verify_product_conorm,
    verify_trivial_lift,
)


def report(num, name, ok, elapsed=None, budget=None, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if budget is not None:
        line += f" [{elapsed:.2f}s, budget {budget:.0f}s]"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, f"criterion {num} failed: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_1_folding_golden_table():
    t0 = time.perf_counter()
    bad = []
    for name, expected in C.GOLDEN_FOLDS.items():
        fd = fold(C.preset(name).action)
        types, central = cartan_type(fd.fixed)
        if central != 0 or not same_type(types, expected):
            bad.append(f"{name}: got {types} central {central}")
    elapsed = time.perf_counter() - t0
    report(1, "folding golden table", not bad, elapsed, 5.0,
           f"{len(C.GOLDEN_FOLDS)} folds" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_2_pinned_highest_root_scalar():
    a = C.pinned_sl_action(3)
    highest = vadd(a.base.simple_roots[0], a.base.simple_roots[1])
    scalar = root_space_scalar(a, 1, highest)
    fd = fold(a)
    restricted = tuple(fd.restriction(highest))
    ok = (scalar == Fraction(1, 2)          # the multiplicative scalar -1
          and not root_survives(a, highest)
          and fd.rank == 1
          and len(fd.fixed.roots) == 2
          and not fd.fixed.is_root(restricted))
    report(2, "pinned flip kills the highest root space", ok,
           detail=f"scalar exponent {scalar}, fold has {len(fd.fixed.roots)} roots")


def test_criterion_3_lemma_suite():
    t0 = time.perf_counter()
    bad = []
    for name in SUITE_PRESETS:
        a = C.preset(name).action
        hyp = stabilizer_hypothesis(a)
        comp = restricted_root_comparison(a)
        if hyp.holds and not comp.phi_in_underline:
            bad.append(f"{name}: fixed-group root outside the restricted system")
        if all(r.cyclic and r.faithful for r in hyp.components):
            fd = fold(a)
            for alpha in a.base.datum.roots:
                if len(root_orbit(a, alpha)) != 1:
                    continue
                beta = tuple(fd.restriction(alpha))
                if (fd.fixed.is_root(beta)
                        and length_classes(fd.fixed)[fd.fixed.root_index(beta)] != "long"):
                    bad.append(f"{name}: fixed root {alpha} restricts short")
        try:
            dual = dual_length_comparison(a)
        except ValueError:
            continue
        if not (dual.long_dual_in_phi_dual and dual.phi_dual_in_underline_dual):
            bad.append(f"{name}: dual sandwich fails")
    elapsed = time.perf_counter() - t0
    report(3, "restricted-root lemma suite", not bad, elapsed, 5.0,
           f"{len(SUITE_PRESETS)} actions" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_4_pinning_factorization_classes():
    t0 = time.perf_counter()
    rep = verify_pinning_factorization(C.so_twist_gl_action(4), (2, 3, 5))
    elapsed = time.perf_counter() - t0
    report(4, "class-level pinning factorization", rep.ok, elapsed, 60.0,
           "; ".join(rep.problems))


def test_criterion_5_identity_suite():
    t0 = time.perf_counter()
    qs = (2, 3, 5)
    reports = [
        ("power map x^2", verify_product_conorm(C.gl(1), 2, qs)),
        ("power map x^3", verify_product_conorm(C.gl(1), 3, qs)),
        ("trivial action order 2", verify_trivial_lift(C.gl(2), 2, qs)),
        ("trivial action order 5", verify_trivial_lift(C.gl(2), 5, qs)),
        ("normal subgroup of the order-four composite",
         verify_normal_subgroup_composition(C.z4_composite_action(), [0, 2], qs)),
        ("isogeny square sl2 to pgl2",
         verify_isogeny_square(C.isogeny_sl_to_pgl(2),
                               C.trivial_action(C.sl(2)),
                               C.trivial_action(C.pgl(2)))),
    ]
    for n in (2, 3):
        reports.append((f"isogeny square sl{n} x gl1 to gl{n}",
                        verify_isogeny_square(C.isogeny_sl_gl1_to_gl(n),
                                              C.sl_gl1_flip_action(n),
                                              C.pinned_gl_action(n))))
    bad = [f"{label}: {'; '.join(r.problems)}" for label, r in reports if not r.ok]
    elapsed = time.perf_counter() - t0
    report(5, "conorm identity suite", not bad, elapsed, 30.0,
           f"{len(reports)} identities" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_6_conorm_well_defined():
    t0 = time.perf_counter()
    bad = []
    for name in SUITE_PRESETS:
        rep = verify_conorm_well_defined(C.preset(name).action,
                                         count=100, den_bound=24, p=2, seed=0)
        if not rep.ok:
            bad.append(f"{name}: {'; '.join(rep.problems)}")
    elapsed = time.perf_counter() - t0
    report(6, "conorm well defined on classes", not bad, elapsed, None,
           f"{len(SUITE_PRESETS)} actions x 100 points"
           + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_7_class_count_oracle():
    t0 = time.perf_counter()
    bad = []
    for n in (1, 2, 3):
        base = C.gl(n)
        for q in (2, 3, 4, 5):
            got = len(enumerate_stable_classes(base, FrobeniusStructure.untwisted(q, n)))
            swept = oracles.gl_class_count(n, q)
            formula = q ** (n - 1) * (q - 1)
            if not (got == swept == formula):
                bad.append(f"gl{n} q={q}: {got} vs sweep {swept} vs {formula}")
    elapsed = time.perf_counter() - t0
    report(7, "class count against the sweep oracle", not bad, elapsed, 60.0,
           "12 pairs (n,q)" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_8_levi_factorization():
    t0 = time.perf_counter()
    rep = verify_levi_factorization(C.inner_block_gl4_action(), q=3)
    elapsed = time.perf_counter() - t0
    report(8, "levi factorization at subregular points", rep.ok, elapsed, 10.0,
           "; ".join(rep.problems))


def test_criterion_9_structure_constant_integrity():
    t0 = time.perf_counter()
    bad = []
    data = [("gl4", C.gl(4)), ("sl5", C.sl(5)), ("pgl3", C.pgl(3)),
            ("so7", C.so(7)), ("sp3", C.sp(3)), ("spin10", C.spin(10)),
            ("so12", C.so(12)), ("d4", C.group_datum("d4")), ("g2", C.group_datum("g2")),
            ("f4", C.group_datum("f4")), ("e6", C.group_datum("e6ad"))]
    tables = {}
    for name, base in data:
        sc = build_structure_constants(base)
        tables[name] = sc
        if oracles.check_jacobi(sc):
            bad.append(f"{name}: jacobi fails")
        rd = base.datum
        for a in rd.roots:
            for b in rd.roots:
                s = vadd(a, b)
                if not rd.is_root(s):
                    continue
                n_ab = sc.n(a, b)
                if abs(n_ab) != sc.string_p(a, b) + 1 or n_ab != -sc.n(b, a):
                    bad.append(f"{name}: constant at {a}+{b} out of pattern")
    indep_cases = [
        (tables["gl4"], C.pinned_gl_action(4).diagram[1]),
        (tables["sl5"], C.pinned_sl_action(5).diagram[1]),
        (tables["d4"], C.preset("d4-triality").action.diagram[1]),
        (build_structure_constants(C.group_datum("e6sc")),
         C.preset("e6sc-pinned").action.diagram[1]),
        (build_structure_constants(C.so(8)), C.pinned_so_even_action(8).diagram[1]),
    ]
    for sc, d in indep_cases:
        out = propagate_scalars(sc, d)
        rd = sc.base.datum
        for xi in sc.order:
            for eta in sc.order:
                g = vadd(xi, eta)
                if not rd.is_root(g):
                    continue
                ratio = sc.n(d(xi), d(eta)) // sc.n(xi, eta)
                bump = Fraction(0) if ratio == 1 else Fraction(1, 2)
                if out[g] != (out[xi] + out[eta] + bump) % 1:
                    bad.append(f"scalar at {g} depends on the decomposition")
    elapsed = time.perf_counter() - t0
    report(9, "structure constant integrity", not bad, elapsed, 30.0,
           f"{len(data)} tables, {len(indep_cases)} propagations"
           + ("; " + "; ".join(bad) if bad else ""))
