"""One process that runs in-process jobs one after another for run.py.

Usage: worker.py <classes|lift> [spans.json]

JSON lines on stdin: ``{"jobs": [...]}`` once, then ``{"run": i}`` per job and
``{"end": true}``.  On stdout it answers ``{"ready": true, "inputs": [...]}``
once setup is done (rootfold imported, every input built through
``catalog``), then one reply per job.  With a spans path every traced
function is wrapped before setup and the spans are written there at the end.

Times are CPU seconds of this process (``time.process_time``): the kernel
leaves out time the hypervisor steals, which on a shared host is most of the
run-to-run noise of wall time.  Setup time is the CPU time from process start
to ready.  Before each job, and once when ready, the worker times
``speed.ref_loop_s`` so that run.py can tell how fast the host ran.
"""

import json
import resource
import sys
import time

from speed import ref_loop_s

clock = time.process_time


def _tv(v):
    return [list(v.nums), v.den]


def setup_classes(spec):
    from rootfold import FrobeniusStructure, catalog
    base = catalog.group_datum(spec["group"])
    if spec["twist"]:
        builder, n = spec["twist"]
        frob = FrobeniusStructure.twisted(spec["q"], getattr(catalog, builder)(n).diagram[1])
    else:
        frob = FrobeniusStructure.untwisted(spec["q"], base.datum.rank)
    oracle = {"simple_roots": [list(a) for a in base.simple_roots],
              "tau": [list(r) for r in frob.tau.rows], "q": spec["q"]}
    return (base, frob), oracle


def run_classes(prepared):
    from rootfold import enumerate_stable_classes
    base, frob = prepared
    start = clock()
    classes = enumerate_stable_classes(base, frob)
    elapsed = clock() - start
    reps = [_tv(c.rep) for c in classes]
    return elapsed, {"count": len(reps), "reps": reps}


def setup_lift(spec):
    from rootfold import catalog
    catalog.preset(spec["preset"])
    return spec, {"q": spec["q"]}


def run_lift(spec):
    from rootfold import (ConormData, FrobeniusStructure, catalog,
                          enumerate_stable_classes, fold, lift_stable_class)
    start = clock()
    fd = fold(catalog.preset(spec["preset"]).action)
    conorm = ConormData(fd)
    frob = FrobeniusStructure.untwisted(spec["q"], fd.rank)
    classes = enumerate_stable_classes(fd.fixed_base, frob)
    lifts = [lift_stable_class(conorm, c) for c in classes]
    elapsed = clock() - start
    return elapsed, {
        "count": len(classes),
        "lifts": sorted(_tv(c.rep) for c in lifts),
        "folded_simple_roots": [list(a) for a in fd.fixed_base.simple_roots],
        "folded_rank": fd.rank,
    }


RUNNERS = {"classes": (setup_classes, run_classes), "lift": (setup_lift, run_lift)}


def _send(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main():
    workload = sys.argv[1]
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    import rootfold  # noqa: F401  (the import is part of setup)
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup, run = RUNNERS[workload]
    specs = json.loads(sys.stdin.readline())["jobs"]
    prepared, inputs = zip(*(setup(s) for s in specs)) if specs else ((), ())
    cpu_s = clock()
    _send({"ready": True, "cpu_s": cpu_s, "ref_s": ref_loop_s(), "inputs": list(inputs)})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("end"):
            break
        i = msg["run"]
        if tracer:
            tracer.job = i
        ref_s = ref_loop_s()
        start = clock()
        try:
            elapsed, result = run(prepared[i])
            reply = {"i": i, "ok": True, "elapsed": elapsed, "result": result}
        except Exception as exc:  # a failed job is reported, not fatal
            reply = {"i": i, "ok": False, "elapsed": clock() - start,
                     "error": f"{type(exc).__name__}: {exc}"}
        reply["ref_s"] = ref_s
        reply["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _send(reply)
    if tracer:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
