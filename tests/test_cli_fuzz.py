"""Malformed --config documents: each exits 2 with one line on stderr, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from rootfold.cli import main
from test_cli import assert_one_usage_line

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(-3, 3, allow_nan=False), st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=8)

KNOWN_KEYS = {"preset", "action", "q", "tau", "format", "budget", "which",
              "group", "action_spec"}
A1 = {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simples": [0]}


def _not(kinds):
    return JSON.filter(lambda v: v is not None and not isinstance(v, kinds))


# a job every command accepts
VALID = {"preset": "gl2-product-swap", "q": 3}


def _with(key, values, base=VALID):
    return values.map(lambda v: {**base, key: v})


# a key with a value of the wrong JSON type
WRONG_TYPES = st.one_of(
    *[_with(key, _not(str)) for key in ("preset", "action", "which", "format", "budget")],
    *[_with(key, _not(dict)) for key in ("group", "action_spec")],
    _with("tau", _not(list)),
    _with("tau", st.lists(_not(list), min_size=1, max_size=3)),
    _with("tau", st.lists(st.lists(_not(int), min_size=1, max_size=2), min_size=1,
                          max_size=2)),
)

BAD_Q = st.one_of(_with("q", st.integers(-5, 1)), _with("q", _not((int,))))

UNKNOWN_KEY = st.text(min_size=1, max_size=6).filter(lambda k: k not in KNOWN_KEYS).map(
    lambda k: {**VALID, k: 1})

MISSING = st.sampled_from([{}, {"q": 3}, {"format": "json"}])

UNKNOWN_PRESET = st.text(max_size=6).map(lambda t: {"preset": "no-such-" + t, "q": 3})

NOT_AN_OBJECT = _not(dict)

# a JSON number that is not an integer: a bool, or a float (2.0 included)
NOT_INT = st.one_of(st.booleans(), st.floats(-3, 3, allow_nan=False))

# an explicit group or action that cannot be built
BAD_GROUP = st.one_of(
    _with("rank", st.integers(-4, -1), A1),
    _with("simples", st.lists(st.integers(2, 5), min_size=1, max_size=2), A1),
    _with("roots", _not(list), A1),
    st.sampled_from([{"roots": [[2], [-2]]}, {"rank": 1}]),
    _with("rank", NOT_INT, A1),
    NOT_INT.map(lambda x: {**A1, "roots": [[x], [-2]]}),
    NOT_INT.map(lambda x: {**A1, "coroots": [[1], [x]]}),
    NOT_INT.map(lambda x: {**A1, "simples": [x]}),
).map(lambda g: {"group": g, "q": 3})

BAD_ACTION = st.one_of(
    _with("cyclic", st.integers(-3, 0), {"diagrams": []}),
    st.just({"permutations": [], "diagrams": []}),
    _with("diagrams", _not(list), {"cyclic": 1}),
    st.just({"cyclic": 2, "diagrams": [[[1]], [[1, 0]]]}),
    _with("cyclic", NOT_INT, {"diagrams": [[[1]]]}),
    NOT_INT.map(lambda x: {"diagrams": [[[x]]]}),
    NOT_INT.map(lambda x: {"permutations": [[x]], "diagrams": [[[1]]]}),
    NOT_INT.map(lambda x: {"diagrams": [[[1]]], "twists": [{"num": [x], "den": 1}]}),
    NOT_INT.map(lambda x: {"diagrams": [[[1]]], "twists": [{"num": [0], "den": x}]}),
    st.sampled_from([[[0, 1], [1]], [[0, 1], [2, 0]], [[0, 1, 2], [1, 1, 0]]]).map(
        lambda perms: {"permutations": perms, "diagrams": [[[1]]] * len(perms)}),
).map(lambda spec: {"group": A1, "action_spec": spec, "q": 3})

MALFORMED = st.one_of(WRONG_TYPES, BAD_Q, UNKNOWN_KEY, MISSING, UNKNOWN_PRESET,
                      NOT_AN_OBJECT, BAD_GROUP)


FAMILIES = st.sampled_from(["gl", "sl", "pgl", "sp", "so", "spin", "torus"])

# every family of numbered catalog groups, at its smallest sizes
SMALL_GROUPS = st.builds("{}{}".format, FAMILIES, st.integers(0, 3))

# a family name, a digit that is not ASCII, and maybe a preset kind
UNICODE_NUMBERED = st.builds(
    "{}{}{}".format, FAMILIES,
    st.characters(categories=["Nd", "No"]).filter(lambda c: not "0" <= c <= "9"),
    st.sampled_from(["", "-pinned", "-so-twist", "-trivial-z2"]))


def run_config(command, doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
    return code, SimpleNamespace(out=out.getvalue(), err=err.getvalue())


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(["classes", "fold", "conorm", "lift"]), MALFORMED)
def test_malformed_config_exits_two_with_one_line(command, doc):
    code, captured = run_config(command, doc)
    assert code == 2, (doc, captured)
    assert_one_usage_line(captured, "rootfold: ")


# classes reads only the group, so a bad action cannot fail it
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.sampled_from(["fold", "conorm", "lift"]), BAD_ACTION)
def test_malformed_explicit_action_exits_two_with_one_line(command, doc):
    code, captured = run_config(command, doc)
    assert code == 2, (doc, captured)
    assert_one_usage_line(captured, "rootfold: ")


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(SMALL_GROUPS)
def test_small_catalog_names_exit_zero_or_two(name):
    code, captured = run_config("classes", {"preset": name, "q": 3})
    assert code in (0, 2), (name, captured)
    if code == 2:
        assert_one_usage_line(captured, "rootfold: ")
        assert f"group '{name}'" in captured.err


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(["classes", "fold"]), UNICODE_NUMBERED)
def test_unicode_digits_name_nothing(command, name):
    code, captured = run_config(command, {"preset": name, "q": 3})
    assert code == 2, (name, captured)
    assert_one_usage_line(captured, f"rootfold: unknown preset {name!r}")


def test_valid_job_passes():
    assert run_config("lift", VALID)[0] == 0


@pytest.mark.parametrize("doc", [{"preset": 5, "q": 3}, {"preset": ["gl2"], "q": 3}])
@pytest.mark.parametrize("command", ["classes", "fold", "lift"])
def test_non_string_preset_exits_two(command, doc):
    code, captured = run_config(command, doc)
    assert code == 2
    assert_one_usage_line(captured, "rootfold: config key 'preset' must be a string")


def test_action_spec_that_is_not_an_object_exits_two():
    code, captured = run_config("fold", {"group": A1, "action_spec": [], "q": 3})
    assert code == 2
    assert_one_usage_line(captured, "rootfold: config key 'action_spec' must be an object")


@pytest.mark.parametrize("command, doc, key", [
    ("classes", {"group": {"rank": 1.5, "roots": [[2.9], [-2.2]], "coroots": [[1.5], [-1]],
                           "simples": [0.7]}, "q": 3}, "group spec: key 'rank'"),
    ("classes", {"group": {**A1, "simples": [True]}, "q": 3}, "group spec: key 'simples'"),
    ("fold", {"group": A1, "action_spec": {"diagrams": [[[1.7]]]}, "q": 3},
     "action spec: key 'diagrams'"),
])
def test_non_integer_numbers_exit_two_naming_the_key(command, doc, key):
    code, captured = run_config(command, doc)
    assert code == 2
    assert_one_usage_line(captured, f"rootfold: bad explicit {key} must be ")


@pytest.mark.parametrize("command, doc, message", [
    ("classes", {"group": {"roots": [], "coroots": [], "simples": []}, "q": 3},
     "group spec: missing key 'rank'"),
    ("fold", {"group": A1, "action_spec": {"cyclic": 1}, "q": 3},
     "action spec: missing key 'diagrams'"),
    ("fold", {"group": A1, "action_spec": {"diagrams": [[[1]]], "twists": [{"num": [0]}]},
              "q": 3}, "action spec: missing key 'den'"),
])
def test_missing_spec_key_exits_two_naming_the_key(command, doc, message):
    code, captured = run_config(command, doc)
    assert code == 2
    assert_one_usage_line(captured, f"rootfold: bad explicit {message}\n")


@pytest.mark.parametrize("perms", [[[0, 1], [1]], [[0, 1], [2, 0]], [[0, 1, 2], [1, 1, 0]]])
@pytest.mark.parametrize("command", ["fold", "conorm", "lift"])
def test_explicit_entry_that_is_no_permutation_exits_two(command, perms):
    doc = {"group": A1, "action_spec": {"permutations": perms, "diagrams": [[[1]], [[1]]]},
           "q": 3}
    code, captured = run_config(command, doc)
    assert code == 2
    assert_one_usage_line(captured, "rootfold: bad explicit action spec: permutation 1 is not ")
