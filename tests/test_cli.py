"""Command line behavior: output shapes, exit codes, config handling."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import builders as B
from builders import serialize_config
import rootfold
from rootfold import ConormData, catalog, enumerate_stable_classes, fold
from rootfold.classes import FrobeniusStructure
from rootfold import cli, verify
from rootfold.cli import JobConfig, main
from rootfold.exact_lattice import LatticeMap, TorsionVector
from rootfold.gamma_action import _diagram_problems, validate_action


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, argv):
    rc, out = run(capsys, argv + ["--format", "json"])
    return rc, json.loads(out)


def test_fold_table_output(capsys):
    rc, out = run(capsys, ["fold", "--preset", "gl4-pinned"])
    assert rc == 0
    assert "type: C2" in out
    assert "source_type: A3xT1" in out


def test_fold_json_output(capsys):
    rc, payload = run_json(capsys, ["fold", "--preset", "d4-triality"])
    assert rc == 0
    assert payload["type"] == "G2"
    assert payload["rank"] == 2
    assert payload["roots"] == 12
    assert len(payload["provenance"]) == 12
    sizes = sorted(r["orbit_size"] for r in payload["provenance"])
    assert sizes == [1] * 6 + [3] * 6


def test_classes_gl2_q3_has_six_rows(capsys):
    rc, payload = run_json(capsys, ["classes", "--preset", "gl2", "--q", "3"])
    assert rc == 0
    assert payload["count"] == 6
    assert len(payload["classes"]) == 6
    reps = [tuple(r["rep"]["num"]) + (r["rep"]["den"],) for r in payload["classes"]]
    assert len(set(reps)) == 6


def test_classes_accepts_combined_action_preset(capsys):
    rc, payload = run_json(capsys, ["classes", "--preset", "d4",
                                    "--action", "triality", "--q", "2"])
    assert rc == 0
    assert payload["group_type"] == "D4"


def test_lift_rows_match_library_conorm(capsys):
    rc, payload = run_json(capsys, ["lift", "--preset", "d4-triality", "--q", "2"])
    assert rc == 0
    fd = fold(catalog.preset("d4-triality").action)
    conorm = ConormData(fd)
    frob = FrobeniusStructure.untwisted(2, fd.rank)
    expected = enumerate_stable_classes(fd.fixed_base, frob)
    assert payload["count"] == len(expected)
    for row, cls in zip(payload["lifts"], expected):
        assert row["class"] == {"num": list(cls.rep.nums), "den": cls.rep.den}
        lifted = conorm.apply(cls.rep)
        assert row["lift"]["den"] == lifted.den


@pytest.mark.parametrize("which", cli.VERIFY_KINDS)
def test_verify_targets_pass(capsys, which):
    rc, payload = run_json(capsys, ["verify", which, "--budget", "small"])
    assert rc == 0
    assert payload["ok"] is True
    assert payload["cases"]
    assert all(c["ok"] for c in payload["cases"])


def test_verify_kinds_are_the_suite_table_keys():
    assert cli.VERIFY_KINDS == tuple(verify.SUITES)


@pytest.mark.parametrize("argv, which", [([], "trivial"), (["product"], "product")])
def test_verify_target_from_config_unless_given_as_argument(capsys, tmp_path, argv, which):
    path = config_path(tmp_path, {"which": "trivial", "budget": "small"})
    rc, payload = run_json(capsys, ["verify", *argv, "--config", path])
    assert rc == 0 and payload["which"] == which


def test_verify_without_a_target_exits_two(capsys):
    assert main(["verify", "--budget", "small"]) == 2
    assert_one_usage_line(capsys.readouterr(), "rootfold: verify needs a target: one of product")


@pytest.mark.parametrize("command", ["verify", "classes"])
def test_unknown_which_in_a_config_exits_two(capsys, tmp_path, command):
    path = config_path(tmp_path, {"preset": "gl2", "q": 3, "which": "nonsense"})
    assert main([command, "--config", path]) == 2
    assert_one_usage_line(capsys.readouterr(), "rootfold: unknown which 'nonsense'")


# the layers every command loads: the CLI's imports and theirs
_CLI_LAYERS = {"rootfold", "rootfold.cli", "rootfold.catalog", "rootfold.chevalley",
               "rootfold.duality_conorm", "rootfold.exact_lattice", "rootfold.folding",
               "rootfold.gamma_action", "rootfold.root_datum"}


# command -> its arguments, and the layers it loads beyond those
_COMMAND_LAYERS = {
    "fold": (["--preset", "d4-triality"], set()),
    "conorm": (["--preset", "d4-triality"], set()),
    "classes": (["--preset", "gl2", "--q", "3"], {"rootfold.classes"}),
    "lift": (["--preset", "d4-triality", "--q", "2"], {"rootfold.classes"}),
    "verify": (["product", "--budget", "small"], {"rootfold.classes", "rootfold.verify"}),
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_command_loads_exactly_its_layers(command):
    args, extra = _COMMAND_LAYERS[command]
    src = str(Path(rootfold.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys\n"
        "from rootfold import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({[command, *args]!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'rootfold'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"0 {sorted(_CLI_LAYERS | extra)}"


def test_verify_failure_gives_exit_one(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "product", lambda action, qs, q: [
        {"case": "forced", "ok": False, "problems": ["forced failure"]}])
    rc, payload = run_json(capsys, ["verify", "product"])
    assert rc == 1
    assert payload["ok"] is False


def test_root_inclusion_reports_short_drop_witness(capsys):
    rc, payload = run_json(capsys, ["verify", "root-inclusion"])
    assert rc == 0
    by_case = {c["case"]: c for c in payload["cases"]}
    twisted = by_case["d4-s3-twisted"]
    assert twisted["hypothesis"] is False
    assert twisted["short_in_phi"] is False
    assert twisted["missing_short"] is not None
    assert by_case["d4-full-s3"]["short_in_phi"] is True


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["fold", "--preset", "nonsense"]) == 2
    assert main(["classes", "--preset", "gl2"]) == 2  # no q
    assert main(["classes", "--preset", "gl2", "--q", "1"]) == 2
    assert main(["verify", "everything"]) == 2
    assert main(["explode"]) == 2
    assert main([]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"preset": ')
    assert main(["fold", "--config", str(bad)]) == 2
    assert main(["fold", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "bad.json:1:" in err  # parse diagnostics carry a position


def test_unknown_config_keys_rejected(tmp_path, capsys):
    doc = tmp_path / "c.json"
    for key, val in [("qq", 3), ("options", {"b": 1})]:
        doc.write_text(json.dumps({"preset": "gl2", key: val}))
        assert main(["classes", "--config", str(doc)]) == 2
        assert key in capsys.readouterr().err


def test_q_below_two_gives_one_line_from_a_flag_and_from_a_config(capsys, tmp_path):
    assert main(["classes", "--preset", "gl2", "--q", "1"]) == 2
    from_flag = capsys.readouterr()
    path = config_path(tmp_path, {"preset": "gl2", "q": 1})
    assert main(["classes", "--config", path]) == 2
    assert capsys.readouterr() == from_flag
    assert_one_usage_line(from_flag, "rootfold: q must be an integer at least 2")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_parse_and_name_every_key_and_command():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("rootfold ")]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    assert [key for key in cli._KEYS if f"`{key}`" not in text] == []


def test_config_roundtrip_is_idempotent():
    doc = {"preset": "d4", "action": "triality", "q": 2,
           "format": "json", "budget": "small"}
    once = serialize_config(JobConfig.from_dict(doc))
    twice = serialize_config(JobConfig.from_dict(json.loads(once)))
    assert once == twice


def test_flags_override_config(capsys, tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"preset": "gl2", "q": 2}))
    rc, payload = run_json(capsys, ["classes", "--config", str(doc), "--q", "3"])
    assert rc == 0
    assert payload["q"] == 3


GL2_FLIP_CONFIG = {
    "group": {"rank": 2, "roots": [[1, -1], [-1, 1]],
              "coroots": [[1, -1], [-1, 1]], "simples": [0]},
    "action_spec": {"cyclic": 2,
                    "diagrams": [[[1, 0], [0, 1]], [[0, -1], [-1, 0]]]},
}


def test_explicit_action_config(capsys, tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps(GL2_FLIP_CONFIG))
    rc, payload = run_json(capsys, ["fold", "--config", str(doc)])
    assert rc == 0
    assert payload["type"] == "A1"
    assert payload["rank"] == 1


def test_invalid_explicit_action_rejected(capsys, tmp_path):
    bad = dict(GL2_FLIP_CONFIG)
    bad["action_spec"] = {"cyclic": 2,
                          "diagrams": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]}
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps(bad))
    assert main(["fold", "--config", str(doc)]) == 2


@pytest.mark.parametrize("coroots, simples, message", [
    ([[1], [-1]], [5], "simple index out of range"),
    ([[1], [1]], [0], "coroot of -a is not -coroot(a)"),
])
def test_invalid_explicit_group_rejected(capsys, tmp_path, coroots, simples, message):
    group = {"rank": 1, "roots": [[2], [-2]], "coroots": coroots, "simples": simples}
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"group": group, "q": 3}))
    assert main(["classes", "--config", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rootfold: explicit group invalid: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


ANISOTROPIC_CONFIG = {
    "group": {"rank": 1, "roots": [], "coroots": [], "simples": []},
    "action_spec": {"cyclic": 2, "diagrams": [[[1]], [[-1]]]},
    "q": 3,
}

RANK_ZERO_CONFIG = {
    "group": {"rank": 0, "roots": [], "coroots": [], "simples": []},
    "action_spec": {"cyclic": 2, "diagrams": [[], []]},
    "q": 3,
}


def config_path(tmp_path, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_anisotropic_fold_has_conorm_and_lifts(capsys, tmp_path):
    path = config_path(tmp_path, ANISOTROPIC_CONFIG)
    rc, payload = run_json(capsys, ["conorm", "--config", path])
    assert rc == 0
    assert payload["conorm"] == [[]]
    assert payload["adjoint_ok"] is True
    rc, payload = run_json(capsys, ["lift", "--config", path])
    assert rc == 0
    assert payload["lifts"] == [{"class": {"num": [], "den": 1},
                                 "lift": {"num": [0], "den": 1}}]


def assert_one_usage_line(captured, prefix):
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("rank, spec", [
    (1, {"cyclic": 3, "diagrams": [[[1]]]}),
    (1, {"cyclic": 2, "diagrams": [[[1]], [[-1]]], "twists": [{"num": [0], "den": 1}]}),
    (1, {"cyclic": 2, "diagrams": [[[1]], [[-1]]],
         "twists": [{"num": [0], "den": 1}, {"num": [1, 1], "den": 2}]}),
    (2, {"cyclic": 2, "diagrams": [[[1, 0]], [[1, 0]]]}),
])
def test_malformed_explicit_action_exits_two(capsys, tmp_path, rank, spec):
    group = {"rank": rank, "roots": [], "coroots": [], "simples": []}
    path = config_path(tmp_path, {"group": group, "action_spec": spec, "q": 3})
    assert main(["fold", "--config", path]) == 2
    assert_one_usage_line(capsys.readouterr(), "rootfold: bad explicit action spec: ")


def test_group_order_is_compared_with_the_diagrams_before_any_table(capsys, tmp_path):
    # a cyclic table of order N costs N^3 to check; the count mismatch needs none
    group = {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simples": [0]}
    spec = {"cyclic": 1000, "diagrams": [[[1]]]}
    path = config_path(tmp_path, {"group": group, "action_spec": spec, "q": 3})
    start = time.perf_counter()
    assert main(["fold", "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert_one_usage_line(capsys.readouterr(), "rootfold: bad explicit action spec: "
                          "diagram has 1 parts for a group of order 1000")


def test_classes_at_a_large_prime_q_answers_at_once(capsys):
    # the characteristic comes from a prime test, not from trial division up to sqrt(q)
    for q in (1000000007, 2**61 - 1):
        start = time.process_time()
        rc, doc = run_json(capsys, ["classes", "--preset", "torus0", "--q", str(q)])
        assert time.process_time() - start < 1.0
        assert rc == 0 and doc["count"] == 1 and doc["q"] == q


def test_classes_on_a_large_torus_answers_at_once(capsys):
    start = time.process_time()
    rc, doc = run_json(capsys, ["classes", "--preset", "torus128", "--q", "2"])
    assert time.process_time() - start < 1.0
    assert rc == 0 and doc["count"] == 1


def test_untwisted_explicit_action_takes_no_twist_pairing(monkeypatch):
    # zero twists satisfy the cocycle condition; checking it would pair each of
    # the 200^2 twist sums with every root, in the CLI's validation and in fold's
    doc = {"group": {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]],
                     "simples": [0]},
           "action_spec": {"cyclic": 200, "diagrams": [[[1]]] * 200}, "q": 3}
    calls = []
    pairing = TorsionVector.pairing
    monkeypatch.setattr(TorsionVector, "pairing",
                        lambda self, covector: calls.append(covector) or pairing(self, covector))
    action = cli.resolve_action(JobConfig.from_dict(doc))
    assert action.group.size == 200
    assert validate_action(action).ok
    assert calls == []


def twisted_cyclic_200(perturbed=None):
    # t_k = k/400 on A1 is a twist cocycle of the cyclic group of order 200;
    # ``perturbed`` names an element whose twist is moved off it
    twists = [{"num": [k + (k == perturbed)], "den": 400} for k in range(200)]
    return {"group": {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]],
                      "simples": [0]},
            "action_spec": {"cyclic": 200, "diagrams": [[[1]]] * 200, "twists": twists},
            "q": 3}


def test_twisted_explicit_action_checks_its_laws_on_generators(monkeypatch):
    # the CLI's validation and fold's each check x * g for the generators g
    # only; on all 200^2 pairs the diagram half alone takes 40 000 products
    calls, pairings = [], []
    matmul, pairing = LatticeMap.__matmul__, TorsionVector.pairing
    monkeypatch.setattr(LatticeMap, "__matmul__",
                        lambda self, other: calls.append(1) or matmul(self, other))
    monkeypatch.setattr(TorsionVector, "pairing",
                        lambda self, covector: pairings.append(1) or pairing(self, covector))
    _diagram_problems.cache_clear()
    action = cli.resolve_action(JobConfig.from_dict(twisted_cyclic_200()))
    assert validate_action(action).ok
    # the cyclic group has one generator g, so 200 products x * g
    assert len(calls) <= 200
    # two validations, each pairing two twists with two roots per checked pair
    assert len(pairings) <= 2 * 2 * 2 * (1 + 200)
    assert action.group.generators == (1,)


def test_twisted_action_off_the_cocycle_at_a_non_generator_exits_two(capsys, tmp_path):
    doc = twisted_cyclic_200(perturbed=7)
    assert main(["fold", "--config", config_path(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert_one_usage_line(captured, "rootfold: explicit action invalid: ")
    assert "twist cocycle fails" in captured.err


def test_unknown_config_key_with_a_newline_gives_one_line(capsys, tmp_path):
    doc = {"preset": "gl2-product-swap", "q": 3, "\n": 1}
    assert main(["classes", "--config", config_path(tmp_path, doc)]) == 2
    assert_one_usage_line(capsys.readouterr(), "rootfold: unknown config keys: '\\n'")


@pytest.mark.parametrize("name", ["gl2-trivial-3", "gl2-trivial-zz3", "gl+4-pinned",
                                  "gl 4-pinned"])
def test_preset_numbers_are_digits_only(capsys, name):
    assert main(["lift", "--preset", name, "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert_one_usage_line(captured, "rootfold: ")
    assert f"preset {name!r}" in captured.err or f"preset name {name!r}" in captured.err


def test_cyclic_preset_order_over_the_limit_exits_two(capsys):
    rc, doc = run_json(capsys, ["fold", "--preset", "gl2-trivial-z1000"])
    assert rc == 0 and doc["rank"] == 2
    for order in (1001, 20000):
        start = time.process_time()
        assert main(["fold", "--preset", f"gl2-trivial-z{order}"]) == 2
        assert time.process_time() - start < 1.0
        assert_one_usage_line(capsys.readouterr(), f"rootfold: bad preset 'gl2-trivial-z{order}': "
                              f"a cyclic group of order {order} is past the limit 1000")


def test_singular_tau_never_reaches_enumeration(capsys, tmp_path, monkeypatch):
    # every power of [[1, 0], [0, 0]] has trace 1, so the twist check would not end
    for name in ("_check_twist", "enumerate_stable_classes"):
        monkeypatch.setattr(f"rootfold.classes.{name}",
                            lambda *args: pytest.fail("a singular tau reached enumeration"))
    path = config_path(tmp_path, {"preset": "torus2", "q": 2, "tau": [[1, 0], [0, 0]]})
    assert main(["classes", "--config", path]) == 2
    assert_one_usage_line(capsys.readouterr(), "rootfold: bad frobenius data: twist must be "
                          "invertible over the integers")


def test_non_unimodular_diagram_exits_two(capsys, tmp_path):
    # [[2]] permutes the empty root system but has no integer inverse
    doc = {"group": {"rank": 1, "roots": [], "coroots": [], "simples": []},
           "action_spec": {"cyclic": 2, "diagrams": [[[1]], [[2]]]}, "q": 3}
    assert main(["fold", "--config", config_path(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert_one_usage_line(captured, "rootfold: explicit action invalid: ")
    assert "diagram part 1 has determinant 2, not +-1" in captured.err


@pytest.mark.parametrize("command", ["classes", "lift"])
def test_weyl_group_over_the_cap_exits_two(capsys, tmp_path, command):
    # |W(E7)| = 2903040 is over the cap of 10^6: refused before any element is built
    e7 = B.from_cartan_sc(B.e_cartan(7))
    group = {"rank": 7, "roots": [list(r) for r in e7.datum.roots],
             "coroots": [list(c) for c in e7.datum.coroots],
             "simples": list(e7.simple_indices)}
    doc = {"group": group, "q": 2}
    if command == "lift":
        identity = [[int(i == j) for j in range(7)] for i in range(7)]
        doc["action_spec"] = {"cyclic": 2, "diagrams": [identity, identity]}
    assert main([command, "--config", config_path(tmp_path, doc)]) == 2
    assert_one_usage_line(capsys.readouterr(), "rootfold: Weyl group of order 2903040 "
                          "exceeds the cap 1000000")


@pytest.mark.parametrize("argv", [["pinning", "--preset", "nonsense"],
                                  ["levi", "--preset", "gl4-so-twist-typo"],
                                  ["levi", "--action", "pinned"]])
def test_verify_rejects_a_bad_action(capsys, argv):
    assert main(["verify", *argv, "--budget", "small"]) == 2
    assert_one_usage_line(capsys.readouterr(), "rootfold: ")


# one instance of each numbered preset pattern
NUMBERED_INSTANCES = ("gl4-pinned", "gl4-so-twist", "sl3-pinned", "pgl3-pinned",
                      "so6-pinned", "gl2-trivial-z2", "gl2-product-swap")
FIXED_PRESETS = tuple(n for n in B.preset_names() if "<n>" not in n)
# CPU seconds with --budget small: 12.7 (e6ad-twisted-c4), 66 (e6sc-pinned) and
# 92 (e6ad-pinned); ROADMAP items 2 and 3 (fewer and cheaper orbit walks) fix the cost
SLOW_PINNING = ("e6ad-twisted-c4", "e6sc-pinned", "e6ad-pinned")
LEVI_EXITS = {"gl4-inner-block": (0, ""),
              "gl2-trivial-z2": (2, "rootfold: levi needs semisimple rank at least 2\n")}


def test_numbered_instances_cover_every_pattern():
    patterns = {catalog._pattern(n)[0] for n in NUMBERED_INSTANCES}
    assert patterns == {n for n in B.preset_names() if "<n>" in n}


@pytest.mark.parametrize("which, preset", [
    *(("levi", p) for p in FIXED_PRESETS + NUMBERED_INSTANCES),
    *(pytest.param("pinning", p, marks=pytest.mark.slow) if p in SLOW_PINNING
      else ("pinning", p) for p in FIXED_PRESETS + NUMBERED_INSTANCES),
])
def test_verify_matrix(capsys, which, preset):
    """Each cell's exact exit code: levi refuses all but gl4-inner-block, pinning passes."""
    rc = main(["verify", which, "--preset", preset, "--budget", "small"])
    captured = capsys.readouterr()
    if which == "pinning":
        expected = (0, "")
    else:
        expected = LEVI_EXITS.get(preset, (2, "rootfold: levi needs an inner action\n"))
    assert (rc, captured.err) == expected
    if rc == 2:
        assert captured.out == ""


def test_verify_normal_subgroup_fails_when_the_staged_map_is_broken(capsys, monkeypatch):
    # the correct program exits 0; doubling the point before the rank-2
    # canonicalization of the staged map must exit 1
    assert main(["verify", "normal-subgroup"]) == 0
    capsys.readouterr()
    canonicalize = verify.canonicalize_class
    monkeypatch.setattr(verify, "canonicalize_class", lambda base, x: canonicalize(
        base, x.scale(2) if base.datum.rank == 2 else x))
    rc, payload = run_json(capsys, ["verify", "normal-subgroup"])
    assert rc == 1 and payload["ok"] is False
    assert "lifts differently through the stages" in payload["cases"][0]["problems"][0]


def test_verify_levi_refuses_a_q_that_is_no_prime_power(capsys):
    assert main(["verify", "levi", "--q", "6"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "rootfold: 6 is not a power of 2\n")


def _inner_twist_config(group, num, q):
    """verify levi on an explicit ``group`` with Gamma = Z/2 acting by the twist num/2."""
    base = catalog.group_datum(group)
    rd = base.datum
    identity = [[int(i == j) for j in range(rd.rank)] for i in range(rd.rank)]
    return {"group": {"rank": rd.rank, "roots": [list(r) for r in rd.roots],
                      "coroots": [list(c) for c in rd.coroots],
                      "simples": list(base.simple_indices)},
            "action_spec": {"cyclic": 2, "diagrams": [identity, identity],
                            "twists": [{"num": [0] * rd.rank, "den": 1},
                                       {"num": num, "den": 2}]},
            "which": "levi", "q": q}


# Phi_x is closed among the coroots but not among the roots at some of these points
@pytest.mark.parametrize("group, num, q", [("so5", [0, 1], 5), ("so5", [0, 1], 7),
                                           ("g2", [0, 1], 5), ("g2", [0, 1], 7)])
def test_verify_levi_checks_closure_on_the_coroot_side(capsys, tmp_path, group, num, q):
    path = config_path(tmp_path, _inner_twist_config(group, num, q))
    rc, payload = run_json(capsys, ["verify", "--config", path])
    assert rc == 0, payload["cases"]
    assert payload["ok"] is True


def test_verify_levi_needs_a_torsion_free_root_quotient(capsys, tmp_path):
    path = config_path(tmp_path, _inner_twist_config("sl4", [1, 1, 0], 3))
    assert main(["verify", "--config", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "rootfold: levi needs X/ZPhi torsion-free\n")


@pytest.mark.parametrize("argv", [["verify", "pinning"], ["verify", "levi"], ["fold"]])
def test_an_explicit_group_without_an_action_spec_is_refused(capsys, tmp_path, argv):
    # verify once fell back to its default action and checked that instead
    group = {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simples": [0]}
    path = config_path(tmp_path, {"group": group, "q": 2})
    assert main([*argv, "--config", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "rootfold: explicit group needs an action_spec\n")


@pytest.mark.parametrize("command, doc, match", [
    ("classes", {"preset": "gl2", "q": 3, "tau": [[1, 1], [0, 1]]}, "permute the roots"),
    ("classes", {"preset": "gl2", "q": 3, "tau": [[2, 1], [-1, 0]]}, "coroot"),
    ("classes", {"preset": "gl2", "q": 3, "tau": [[1, 0]]}, "tau must be square"),
    ("lift", {"preset": "gl2-product-swap", "q": 3, "tau": [[1, 1], [0, 1]]},
     "permute the roots"),
    ("classes", {"preset": "torus2", "q": 2, "tau": [[2, 1], [1, 1]]}, "infinite order"),
    # well-formed matrices of the wrong shape, and a ragged one
    ("lift", {"preset": "gl4-pinned", "q": 3, "tau": [[1]]},
     "tau has rank 1 but the datum has rank 2"),
    ("classes", {"preset": "gl2", "q": 3, "tau": [[]]}, "tau must be square, not 1 x 0"),
    ("classes", {"preset": "gl2", "q": 3, "tau": [[1, 0], [1]]}, "rows of lengths [2, 1]"),
])
def test_bad_tau_exits_two(capsys, tmp_path, command, doc, match):
    assert main([command, "--config", config_path(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert_one_usage_line(captured, "rootfold: bad frobenius data: tau ")
    assert match in captured.err


@pytest.mark.parametrize("doc", [
    {"preset": "gl2-product-swap", "q": 3, "tau": [[0, -1], [-1, 0]]},
    {"preset": "gl4-pinned", "q": 3, "tau": [[1, 0], [0, 1]]},
])
def test_lift_refuses_a_valid_tau(capsys, tmp_path, doc):
    # tau twists the fold alone: no source Frobenius is named that would make
    # the lifts stable, so a tau that passes the checks above still exits 2
    assert main(["lift", "--config", config_path(tmp_path, doc)]) == 2
    assert_one_usage_line(capsys.readouterr(),
                          "rootfold: lift takes no tau until it reads the source Frobenius\n")


@pytest.mark.parametrize("command", ["fold", "conorm", "lift"])
def test_rank_zero_explicit_action(capsys, tmp_path, command):
    rc, payload = run_json(capsys, [command, "--config", config_path(tmp_path, RANK_ZERO_CONFIG)])
    assert rc == 0
    assert payload["command"] == command


def test_rank_zero_preset_with_empty_tau(capsys, tmp_path):
    path = config_path(tmp_path, {"preset": "torus0", "q": 3, "tau": []})
    rc, payload = run_json(capsys, ["classes", "--config", path])
    assert rc == 0
    assert payload["classes"] == [{"rep": {"num": [], "den": 1}, "order": 1}]


def test_conorm_reports_adjointness(capsys):
    rc, payload = run_json(capsys, ["conorm", "--preset", "e6ad-pinned"])
    assert rc == 0
    assert payload["adjoint_ok"] is True
    assert payload["group_order"] == 2
    assert payload["folded_type"] == "F4"
    conorm = payload["conorm"]
    norm = payload["norm_on_cochar"]
    assert len(conorm) == 6 and len(conorm[0]) == 4
    assert [list(r) for r in zip(*conorm)] == norm


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rootfold", "fold", "--preset", "gl2-trivial-z3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "A1" in proc.stdout


def test_group_datum_names():
    assert catalog.group_datum("sp6").datum.rank == 3
    assert catalog.group_datum("spin8") is catalog.d4()
    with pytest.raises(ValueError):
        catalog.group_datum("sp5")
    for name in ("so0", "so1", "so2", "sp0", "spin13"):
        with pytest.raises(ValueError, match=f"^group '{name}': "):
            catalog.group_datum(name)
    with pytest.raises(ValueError):
        catalog.group_datum("mystery")
