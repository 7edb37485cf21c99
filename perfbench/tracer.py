"""Span tracing of rootfold's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every place a loaded
``rootfold`` module binds it (the defining module, re-exports in
``rootfold/__init__.py``, ``from .x import f`` copies in other modules), so
calls made inside the package are timed too.  A class is traced through its
``__init__``.  Every call records one span (name, start, end, parent, job,
error flag, result size); spans stay in memory until ``dump``.  Span times
are CPU seconds of the process, like the job times they are compared with.
"""

import functools
import importlib
import json
import sys
import time

# module -> traced names; these are the benchmark's per-layer metric names
TARGETS = {
    "exact_lattice": ("smith_normal_form", "solve_torsion_fixed"),
    "root_datum": ("validate", "cartan_type", "weyl_group"),
    "chevalley": ("build_structure_constants",),
    "gamma_action": ("validate_action",),
    "folding": ("fold", "restricted_root_comparison", "dual_length_comparison"),
    "duality_conorm": ("ConormData",),
    "classes": ("enumerate_stable_classes", "canonicalize_class",
                "lift_stable_class", "weyl_orbit_contains"),
    "catalog": ("preset", "group_datum"),
    "cli": ("main",),
}

# spans of these record len(result) as a work count, reported under this name
SIZED = {
    "classes.enumerate_stable_classes": "classes_out",
    "exact_lattice.solve_torsion_fixed": "points",
    "root_datum.weyl_group": "elements",
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

SETUP_JOB = -1


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = SETUP_JOB

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.process_time
        sized = name in SIZED

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err, size = 0, None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if sized:
                    size = len(out)
                return out
            except BaseException:
                err = 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, err, size)

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every target at every binding site in the loaded package."""
        for mod in TARGETS:
            importlib.import_module(f"rootfold.{mod}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "rootfold" or key.startswith("rootfold."))]
        for mod, fns in TARGETS.items():
            home = sys.modules[f"rootfold.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                name = f"{mod}.{fn}"
                if isinstance(orig, type):
                    orig.__init__ = self._wrap(name, orig.__init__)
                    continue
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def load(path):
    with open(path) as fh:
        return [tuple(s) for s in json.load(fh)]


def self_times(dump):
    """Each span's duration minus the durations of its child spans."""
    out = [end - start for _name, start, end, _p, _j, _e, _s in dump]
    for _name, start, end, parent, _j, _e, _s in dump:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(dumps):
    """Per-function calls, self and inclusive time, errors and work counts.

    Each dump is one process's span list; parents are indices into it.  Also
    returns how many ``canonicalize_class`` calls ran directly inside
    ``enumerate_stable_classes``.
    """
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0, "size": 0}
             for name in NAMES}
    canon_in_enum = 0
    for dump in dumps:
        for (name, start, end, parent, _job, err, size), own in zip(dump, self_times(dump)):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += own
            s["total_s"] += end - start
            s["errors"] += err
            s["size"] += size or 0
            if (name == "classes.canonicalize_class" and parent >= 0
                    and dump[parent][0] == "classes.enumerate_stable_classes"):
                canon_in_enum += 1
    return stats, canon_in_enum


def per_job(dump):
    """job id -> work counts and inclusive seconds per traced function."""
    out = {}
    for name, start, end, _parent, job, _err, size in dump:
        row = out.setdefault(job, {})
        key = f"{name}.total_s"
        row[key] = row.get(key, 0.0) + end - start
        if name in SIZED and size is not None:
            key = f"{name}.{SIZED[name]}"
            row[key] = row.get(key, 0) + size
    return out
