"""Batch command line interface.

One job per invocation: fold, conorm, classes, lift, or verify.  Jobs come
from flags, from a JSON config document, or both (flags win).  Output is a
human table or canonical JSON.  Each command returns its payload; ``main``
alone picks the exit code: 2 with one line for input the command cannot run
on (a ``UsageError``, ``ValueError`` or ``WeylCapError``, a verify target's
precondition included), 1 when the payload says ``ok`` is false, else 0.
"""

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction

from . import catalog
from .duality_conorm import ConormData
from .exact_lattice import LatticeMap, TorsionVector
from .folding import fold
from .gamma_action import FiniteGroup, GammaAction, validate_action
from .root_datum import BasedRootDatum, RootDatum, WeylCapError, cartan_type, validate

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

BUDGET_QS = {"small": (2, 3), "full": (2, 3, 5)}

# the keys of verify.SUITES, named here so that the parser does not load verify
VERIFY_KINDS = ("product", "trivial", "normal-subgroup", "isogeny", "pinning",
                "levi", "root-inclusion", "long-roots")


class UsageError(Exception):
    """Configuration or flag problem; ``main`` maps it to exit code 2."""


# nesting depth of the integers under a key -> its description
_INT_SHAPES = ("an integer", "a list of integers", "a list of lists of integers",
               "a list of integer matrices")
_TYPE_NAMES = {str: "a string", dict: "an object"}

# config key -> (default, JSON shape); a shape is a type, the nesting depth of
# an integer tree, or a tuple of the allowed strings
_KEYS = {
    "preset": (None, str),
    "action": (None, str),
    "q": (None, 0),
    "tau": (None, 2),
    "format": ("table", ("table", "json")),
    "budget": ("full", tuple(BUDGET_QS)),
    "which": (None, VERIFY_KINDS),
    "group": (None, dict),
    "action_spec": (None, dict),
}
# the keys that a --flag sets, in the order of the help text
_FLAGS = ("preset", "action", "q", "format", "budget")


def _is_int_tree(x, depth: int) -> bool:
    """x is a JSON integer (not a bool) nested in ``depth`` levels of lists."""
    if depth == 0:
        return type(x) is int
    return isinstance(x, list) and all(_is_int_tree(y, depth - 1) for y in x)


def _checked(key: str, val):
    """``val`` if it has the JSON shape of config key ``key``; else ``UsageError``."""
    default, shape = _KEYS[key]
    if val is None and default is None:  # JSON null leaves the key unset
        return val
    kind = str if isinstance(shape, tuple) else shape
    if key == "q" and not (_is_int_tree(val, 0) and val >= 2):
        raise UsageError("q must be an integer at least 2")
    if isinstance(kind, int) and not _is_int_tree(val, kind):
        raise UsageError(f"config key {key!r} must be {_INT_SHAPES[kind]}")
    if isinstance(kind, type) and not isinstance(val, kind):
        raise UsageError(f"config key {key!r} must be {_TYPE_NAMES[kind]}")
    if isinstance(shape, tuple) and val not in shape:
        raise UsageError(f"unknown {key} {val!r}")
    return val


class JobConfig(namedtuple("JobConfig", _KEYS, defaults=[d for d, _ in _KEYS.values()])):
    """One job's settings, one field per config key: the document's keys, then the flags."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, d: dict) -> "JobConfig":
        if not isinstance(d, dict):
            raise UsageError("config document must be a JSON object")
        unknown = sorted(set(d) - set(_KEYS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(map(repr, unknown))}")
        return cls(**{key: _checked(key, val) for key, val in d.items()})


def parse_config_file(path: str) -> JobConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return JobConfig.from_dict(doc)


# nesting depth of the integers under each key of an explicit spec
_GROUP_INTS = {"rank": 0, "roots": 2, "coroots": 2, "simples": 1}
_ACTION_INTS = {"cyclic": 0, "permutations": 2, "diagrams": 3}
_TWIST_INTS = {"num": 1, "den": 0}


def _check_ints(spec: dict, depths: dict, what: str):
    for key, depth in depths.items():
        if key in spec and not _is_int_tree(spec[key], depth):
            raise UsageError(f"bad explicit {what} spec: key {key!r} must be "
                             f"{_INT_SHAPES[depth]}")


def _spec_error(what: str, exc: Exception) -> UsageError:
    detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
    return UsageError(f"bad explicit {what} spec: {detail}")


def _explicit_datum(spec: dict) -> BasedRootDatum:
    _check_ints(spec, _GROUP_INTS, "group")
    try:
        rd = RootDatum(spec["rank"], spec["roots"], spec["coroots"])
        base = BasedRootDatum(rd, spec.get("simples", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise _spec_error("group", exc) from exc
    rep = validate(base)
    if not rep.ok:
        raise UsageError("explicit group invalid: " + "; ".join(rep.problems))
    return base


def _explicit_action(cfg: JobConfig) -> GammaAction:
    spec = cfg.action_spec
    if cfg.group is None:
        raise UsageError("explicit action_spec needs an explicit group")
    base = _explicit_datum(cfg.group)
    _check_ints(spec, _ACTION_INTS, "action")
    twists = spec.get("twists", [])
    if not (isinstance(twists, list) and all(isinstance(t, dict) for t in twists)):
        raise UsageError("bad explicit action spec: key 'twists' must be a list of objects")
    for t in twists:
        _check_ints(t, _TWIST_INTS, "action")
    try:
        diagrams = spec["diagrams"]
        # the group table has |Gamma|^2 entries to build and check: compare the order first
        order = len(spec["permutations"]) if "permutations" in spec else spec.get("cyclic", 1)
        if order > 0 and order != len(diagrams):
            raise ValueError(f"diagram has {len(diagrams)} parts for a group of order {order}")
        if "permutations" in spec:
            group = FiniteGroup.from_permutations(spec["permutations"])
        else:
            group = FiniteGroup.cyclic(order)
        diagrams = [LatticeMap(mat, base.datum.rank) for mat in diagrams]
        twist = ([TorsionVector(t["num"], t["den"]) for t in twists] if "twists" in spec
                 else None)
        action = GammaAction(group, base, diagrams, twist)
    except (KeyError, TypeError, ValueError) as exc:
        raise _spec_error("action", exc) from exc
    rep = validate_action(action)
    if not rep.ok:
        raise UsageError("explicit action invalid: " + "; ".join(rep.problems))
    return action


def resolve_action(cfg: JobConfig) -> GammaAction:
    if cfg.action_spec is not None:
        return _explicit_action(cfg)
    if cfg.group is not None:
        raise UsageError("explicit group needs an action_spec")
    if cfg.preset is None:
        raise UsageError("no action: give --preset (and --action) or a config")
    name = cfg.preset if cfg.action is None else f"{cfg.preset}-{cfg.action}"
    return catalog.preset(name).action


def resolve_group(cfg: JobConfig) -> BasedRootDatum:
    if cfg.group is not None:
        return _explicit_datum(cfg.group)
    if cfg.preset is None:
        raise UsageError("no group: give --preset or a config")
    if cfg.action is not None:
        return resolve_action(cfg).base
    try:
        return catalog.group_datum(cfg.preset)
    except ValueError as exc:
        group_error = exc
    try:
        return catalog.preset(cfg.preset).action.base
    except ValueError as exc:
        raise UsageError(f"{exc} ({group_error})") from exc


def _frobenius(cfg: JobConfig, rank: int):
    """The job's Frobenius on a datum of ``rank``, with the checks of ``FrobeniusStructure``."""
    from .classes import FrobeniusStructure
    if cfg.q is None:
        raise UsageError("this command needs --q")
    if cfg.tau is None:
        return FrobeniusStructure.untwisted(cfg.q, rank)
    lengths = [len(row) for row in cfg.tau]
    if len(set(lengths)) > 1:
        raise ValueError(f"tau is ragged: rows of lengths {lengths}")
    return FrobeniusStructure(cfg.q, LatticeMap(cfg.tau, lengths[0] if lengths else rank))


def _stable_classes(cfg: JobConfig, base: BasedRootDatum):
    """The job's q and the stable classes of its Frobenius on ``base``."""
    from .classes import enumerate_stable_classes
    try:
        frob = _frobenius(cfg, base.datum.rank)
        # a WeylCapError is a RuntimeError: it reaches main without the prefix
        return frob.q, enumerate_stable_classes(base, frob)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad frobenius data: {exc}") from exc


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, TorsionVector):
        return {"num": list(x.nums), "den": x.den}
    if isinstance(x, LatticeMap):
        return [list(row) for row in x.rows]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    return str(x)


def type_string(base: BasedRootDatum) -> str:
    types, central = cartan_type(base)
    parts = [f"{fam}{rank}" for fam, rank in types]
    if central:
        parts.append(f"T{central}")
    return "x".join(parts) if parts else "T0"


def cmd_fold(cfg: JobConfig):
    action = resolve_action(cfg)
    fd = fold(action)
    prov = []
    for key in sorted(fd.provenance):
        rec = fd.provenance[key]
        prov.append({
            "root": list(rec.root),
            "coroot": list(rec.coroot),
            "source": list(rec.source_rep),
            "orbit_size": len(rec.orbit),
            "multiplier": rec.multiplier,
        })
    return {
        "command": "fold",
        "source_type": type_string(action.base),
        "rank": fd.rank,
        "type": type_string(fd.fixed_base),
        "roots": len(fd.fixed.roots),
        "restriction": _jsonable(fd.restriction),
        "provenance": prov,
    }


def cmd_conorm(cfg: JobConfig):
    action = resolve_action(cfg)
    fd = fold(action)
    # the constructor raises unless restriction o conorm = |Gamma| I
    conorm = ConormData(fd)
    return {
        "command": "conorm",
        "group_order": action.group.size,
        "folded_type": type_string(fd.fixed_base),
        "conorm": _jsonable(conorm.matrix),
        "norm_on_cochar": _jsonable(conorm.matrix.transpose()),
        "adjoint_ok": True,
    }


def cmd_classes(cfg: JobConfig):
    base = resolve_group(cfg)
    q, classes = _stable_classes(cfg, base)
    rows = [{"rep": _jsonable(c.rep), "order": c.rep.den} for c in classes]
    return {
        "command": "classes",
        "group_type": type_string(base),
        "q": q,
        "count": len(rows),
        "classes": rows,
    }


def cmd_lift(cfg: JobConfig):
    from .classes import _check_twist, lift_stable_class
    action = resolve_action(cfg)
    fd = fold(action)
    if cfg.tau is not None:
        # a tau twists the fold alone, and no source Frobenius is named to make the
        # lifts stable (ROADMAP item 6): lift checks it as classes does, then refuses it
        try:
            _check_twist(fd.fixed, _frobenius(cfg, fd.rank).tau)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad frobenius data: {exc}") from exc
        raise UsageError("lift takes no tau until it reads the source Frobenius")
    conorm = ConormData(fd)
    q, classes = _stable_classes(cfg, fd.fixed_base)
    rows = []
    for c in classes:
        lifted = lift_stable_class(conorm, c)
        rows.append({"class": _jsonable(c.rep), "lift": _jsonable(lifted.rep)})
    return {
        "command": "lift",
        "folded_type": type_string(fd.fixed_base),
        "q": q,
        "count": len(rows),
        "lifts": rows,
    }


def cmd_verify(cfg: JobConfig):
    from .verify import SUITES
    if cfg.which is None:
        raise UsageError(f"verify needs a target: one of {', '.join(VERIFY_KINDS)}, "
                         "as an argument or as the config key 'which'")
    named = any(key is not None for key in (cfg.preset, cfg.action, cfg.group, cfg.action_spec))
    action = resolve_action(cfg) if named else None
    cases = _jsonable(SUITES[cfg.which](action, BUDGET_QS[cfg.budget], cfg.q))
    return {"command": "verify", "which": cfg.which, "ok": all(c["ok"] for c in cases),
            "cases": cases}


def _print_table(payload):
    row_keys = ("classes", "lifts", "provenance", "cases")
    for key, val in payload.items():
        if key not in row_keys:
            print(f"{key}: {val}")
    for key in row_keys:
        rows = payload.get(key)
        if not rows:
            continue
        print(f"{key}:")
        for row in rows:
            cells = "  ".join(f"{k}={json.dumps(v)}" for k, v in row.items())
            print(f"  {cells}")


def emit(payload, cfg: JobConfig):
    if cfg.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _print_table(payload)


COMMANDS = {
    "fold": (cmd_fold, "compute the fixed-group root datum of an action"),
    "conorm": (cmd_conorm, "compute the norm and conorm lattice maps"),
    "classes": (cmd_classes, "enumerate stable semisimple classes over F_q"),
    "lift": (cmd_lift, "enumerate folded classes with their lifts"),
    "verify": (cmd_verify, "run one of the verification suites"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootfold",
        description="fold root data, transfer conjugacy classes, verify the identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if name == "verify":
            p.add_argument("which", nargs="?", choices=VERIFY_KINDS)
        p.add_argument("--config", metavar="PATH")
        for key in _FLAGS:
            shape = _KEYS[key][1]
            choices = shape if isinstance(shape, tuple) else None
            p.add_argument(f"--{key}", choices=choices, type=int if shape == 0 else None)
    return parser


def merge_flags(cfg: JobConfig, ns: argparse.Namespace) -> JobConfig:
    flags = {key: getattr(ns, key, None) for key in (*_FLAGS, "which")}
    return cfg._replace(**{key: _checked(key, val) for key, val in flags.items()
                           if val is not None})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = parse_config_file(ns.config) if ns.config else JobConfig()
        cfg = merge_flags(cfg, ns)
        payload = COMMANDS[ns.command][0](cfg)
    except (UsageError, ValueError, WeylCapError) as exc:
        print(f"rootfold: {exc}", file=sys.stderr)
        return EXIT_USAGE
    emit(payload, cfg)
    return EXIT_FAIL if payload.get("ok") is False else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
