"""The named groups, actions, and isogenies ship in working order."""

import re

import pytest

from builders import based_isomorphism, isogeny_spin_to_so, preset_names
from oracles import same_type
from rootfold import catalog as C, root_datum
from rootfold.cli import main
from rootfold.duality_conorm import validate_isogeny
from rootfold.exact_lattice import smith_normal_form
from rootfold.folding import fold, restricted_root_comparison
from rootfold.gamma_action import validate_action
from rootfold.root_datum import cartan_type, validate
from test_bench_names import PERFBENCH, _assigned, _module
from test_cli import assert_one_usage_line
from test_golden_cli import golden_jobs


CLASSICAL = [
    (lambda: C.gl(3), (("A", 2),), 1),
    (lambda: C.gl(5), (("A", 4),), 1),
    (lambda: C.sl(4), (("A", 3),), 0),
    (lambda: C.pgl(4), (("A", 3),), 0),
    (lambda: C.sp(2), (("C", 2),), 0),
    (lambda: C.sp(4), (("C", 4),), 0),
    (lambda: C.so(5), (("C", 2),), 0),
    (lambda: C.so(7), (("B", 3),), 0),
    (lambda: C.so(8), (("D", 4),), 0),
    (lambda: C.so(10), (("D", 5),), 0),
    (lambda: C.spin(7), (("B", 3),), 0),
    (lambda: C.spin(8), (("D", 4),), 0),
    (lambda: C.spin(11), (("B", 5),), 0),
    (lambda: C.e6_adjoint(), (("E", 6),), 0),
    (lambda: C.e6_simply_connected(), (("E", 6),), 0),
    (lambda: C.f4(), (("F", 4),), 0),
    (lambda: C.g2(), (("G", 2),), 0),
    (lambda: C.d4(), (("D", 4),), 0),
]


def test_groups_validate_with_expected_types():
    for build, types, central in CLASSICAL:
        b = build()
        assert validate(b).ok
        got_types, got_central = cartan_type(b)
        assert same_type(got_types, types)
        assert got_central == central


def test_cartan_type_reads_the_base_it_is_given(monkeypatch):
    bases = [build() for build, _, _ in CLASSICAL] + [C.torus(2), C.gl(1)]
    for name in C.GOLDEN_FOLDS:
        action = C.preset(name).action
        bases += [action.base, fold(action).fixed_base]
    expected = [cartan_type(b.datum) for b in bases]
    assert [cartan_type(b) for b in bases] == expected

    def refuse(rd):
        raise AssertionError("a given base was searched for again")

    monkeypatch.setattr(root_datum, "based_from_datum", refuse)
    assert [cartan_type(b) for b in bases] == expected


def test_sl_and_pgl_are_different_lattforms():
    # same Cartan type, different character lattices: no unimodular match
    assert based_isomorphism(C.sl(3), C.pgl(3)) is None
    assert based_isomorphism(C.sl(3), C.sl(3)) is not None


def test_high_exceptional_types_are_absent():
    with pytest.raises(ValueError):
        C.simply_connected("E", 7)
    with pytest.raises(ValueError):
        C.adjoint("E", 8)
    with pytest.raises(ValueError):
        C.spin(13)


def test_every_preset_action_validates():
    names = ["gl2-pinned", "gl4-pinned", "gl6-pinned", "gl4-so-twist",
             "gl6-so-twist", "sl3-pinned", "sl5-pinned", "pgl4-pinned",
             "so8-pinned", "e6ad-pinned", "e6sc-pinned", "e6ad-twisted-c4",
             "d4-triality", "d4-full-s3", "d4-twisted-a2", "d4-s3-twisted",
             "gl4-inner-block", "gl2gl2-z4", "gl2-trivial-z3",
             "gl3-product-swap"]
    for name in names:
        p = C.preset(name)
        assert validate_action(p.action).ok, name


def test_unknown_and_malformed_names_rejected():
    for bad in ["nonsense", "gl-pinned", "glx-pinned", "sl5-wibble",
                "so9-pinned", "gl3-so-twist"]:
        with pytest.raises(ValueError):
            C.preset(bad)


def test_golden_fold_table():
    for name, expected in C.GOLDEN_FOLDS.items():
        p = C.preset(name)
        types, central = cartan_type(fold(p.action).fixed)
        assert central == 0, name
        assert same_type(types, expected), name


def test_twisted_e6_fold_is_adjoint_c4():
    fd = fold(C.twisted_e6_c4_action())
    assert based_isomorphism(fd.fixed_base, C.adjoint("C", 4)) is not None
    assert based_isomorphism(fd.fixed_base, C.sp(4)) is None
    assert based_isomorphism(fd.fixed_base, C.simply_connected("C", 4)) is None


def test_twisted_triality_fold_is_pgl3():
    fd = fold(C.twisted_triality_a2_action())
    assert based_isomorphism(fd.fixed_base, C.pgl(3)) is not None
    assert based_isomorphism(fd.fixed_base, C.sl(3)) is None


def test_s3_twist_drops_a_short_restricted_root():
    a = C.s3_twisted_d4_action()
    rep = restricted_root_comparison(a)
    assert rep.phi_in_underline
    assert not rep.underline_short_in_phi
    assert rep.missing_short is not None
    # the missing functional really is a short restricted root of the pinned fold
    assert rep.missing_short in rep.underline_phi
    assert rep.missing_short not in rep.phi


def test_catalog_isogenies_validate():
    for n in (2, 3, 4):
        phi = C.isogeny_sl_to_pgl(n)
        assert validate_isogeny(phi).ok
        # the cokernel is cyclic of order n: elementary divisors 1, ..., 1, n
        _, d, _ = smith_normal_form(phi.char_pullback)
        assert [d.rows[i][i] for i in range(n - 1)] == [1] * (n - 2) + [n]
    for n in (2, 3):
        phi = C.isogeny_sl_gl1_to_gl(n)
        assert validate_isogeny(phi).ok
        assert abs(phi.char_pullback.det()) == n
    for n in (5, 6, 7, 8, 9, 10):
        phi = isogeny_spin_to_so(n)
        assert validate_isogeny(phi).ok
        assert abs(phi.char_pullback.det()) == 2


def test_pinned_e6_action_takes_one_of_two_forms():
    assert C.pinned_e6_action("adjoint").base == C.e6_adjoint()
    assert C.pinned_e6_action("sc").base == C.e6_simply_connected()
    with pytest.raises(ValueError, match="'simply connected' is neither"):
        C.pinned_e6_action("simply connected")


def test_spin_8_is_the_triality_base():
    assert C.spin(8) is C.d4()


def test_preset_names_lists_fixed_entries():
    names = preset_names()
    for fixed in ["d4-triality", "e6ad-twisted-c4", "gl2gl2-z4"]:
        assert fixed in names


# numbers in catalog names are ASCII digits with no leading zero
ONE_SPELLING = ["gl٣", "spin٥", "so²", "gl03", "gl٤-pinned", "gl2-trivial-z03"]


@pytest.mark.parametrize("name", ONE_SPELLING)
def test_a_name_has_one_spelling(name):
    with pytest.raises(ValueError):
        C.group_datum(name)
    with pytest.raises(ValueError):
        C.preset(name)


@pytest.mark.parametrize("command", ["classes", "fold"])
@pytest.mark.parametrize("name", ONE_SPELLING)
def test_a_misspelt_name_exits_two_naming_it(capsys, command, name):
    assert main([command, "--preset", name, "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert_one_usage_line(captured, f"rootfold: unknown preset {name!r}")
    assert "invalid literal" not in captured.err


def test_every_name_in_use_resolves():
    readme = re.findall(r"--preset (\S+)", (PERFBENCH.parent / "README.md").read_text())
    golden = [argv[argv.index("--preset") + 1] for argv in golden_jobs() if "--preset" in argv]
    jobs = _module("jobs.py")
    perfbench = ([group for group, _, _ in _assigned(jobs, "_CLASSES")]
                 + [name for name, _ in _assigned(jobs, "_LIFT")]
                 + list(_assigned(jobs, "GOLDEN_PRESETS")))
    names = set(readme) | set(golden) | set(perfbench)
    assert len(names) > 20 and {"gl2", "e6ad-pinned", "sl7-pinned"} <= names
    for name in sorted(names):
        try:
            C.group_datum(name)
        except ValueError:
            C.preset(name)
