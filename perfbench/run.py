"""rootfold benchmark: one workload per run, outputs checked, metrics printed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {classes,lift,cli} --seed N \
        --seconds S --trace {0,1}

Workloads (pools and seeded order in jobs.py; why each exists in README.md):

- ``classes``: ``enumerate_stable_classes`` on catalog groups of rank 2 to 4,
  in one worker process, jobs one after another;
- ``lift``: ``catalog.preset`` -> ``fold`` -> ``ConormData`` ->
  ``enumerate_stable_classes`` -> ``lift_stable_class``, same process model;
- ``cli``: one ``python -m rootfold`` subprocess per job.

Every job's output is checked (oracle.py, expected.json).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it gives details (failures, the
tail percentile and its sample count, the failure ratio with its base, and
for a traced run the work counts per job).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced pass plus
``trace.overhead_s`` against an untraced pass in the same run.

Times are CPU seconds of the processes doing the work.  End-to-end times are
scaled to a reference host speed measured during the run (speed.py).
"""

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import jobs as job_pools
import oracle
import tracer
from speed import REF_S, ref_loop_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

JOB_LIMIT_S = 45.0       # a job running longer is killed and counts as failed
SETUP_LIMIT_S = 60.0     # a worker that is not ready by then is an error
RUN_LIMIT_S = 150.0      # past this point of a run no job is started
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
FULL_PASSES = 2          # least number of untraced passes over every job
LIGHT_JOB_S = 0.15       # jobs faster than this get extra passes while time is left

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, a worker that dies)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class _Lines:
    """JSON lines from a pipe, with a timeout per line."""

    def __init__(self, pipe):
        self.fd = pipe.fileno()
        self.buf = b""

    def read(self, timeout):
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError("worker exited")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


class Worker:
    """A worker.py process with its inputs built; ``setup_s`` is its CPU time to ready."""

    def __init__(self, workload, specs, spans_path=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload]
        if spans_path:
            cmd.append(spans_path)
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT)
        self.lines = _Lines(self.proc.stdout)
        try:
            self._send({"jobs": specs})
            ready = self.lines.read(SETUP_LIMIT_S)
        except (EOFError, BrokenPipeError):
            ready = None
        except BaseException:
            self.kill()
            raise
        if ready is None:
            self.kill()
            raise BenchError(f"{workload} worker did not finish its setup")
        self.setup_s = ready["cpu_s"]
        self.ref_s = ready["ref_s"]
        self.inputs = ready["inputs"]

    def _send(self, obj):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def run(self, i, timeout):
        """The worker's reply for job i, or None if it gave none in time."""
        try:
            self._send({"run": i})
            return self.lines.read(timeout)
        except (EOFError, BrokenPipeError):
            return None

    def close(self):
        """End the worker and wait for it; returns (setup time, speed sample)."""
        try:
            self._send({"end": True})
            self.proc.stdin.close()
            self.proc.wait(timeout=SETUP_LIMIT_S)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.kill()
        self.proc.stdout.close()
        return self.setup_s, self.ref_s

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


def _failed(elapsed, error):
    return {"ok": False, "elapsed": elapsed, "error": error}


def inprocess_pass(workload, specs, indices, traced, deadline):
    """Run the given jobs once in one worker; a stuck job is killed and the rest go on."""
    span_files = []

    def start():
        path = None
        if traced:
            path = os.path.join(WORK, f"spans-{os.getpid()}-{len(span_files)}.json")
            span_files.append(path)
        return Worker(workload, specs, path)

    worker = start()
    inputs = worker.inputs
    outcomes, rss_kib = {}, 0
    t0 = time.perf_counter()
    try:
        for n, i in enumerate(indices):
            left = min(JOB_LIMIT_S, deadline - time.monotonic())
            if left <= 0:
                outcomes[i] = _failed(0.0, "not started: run time limit reached")
                continue
            t = time.perf_counter()
            reply = worker.run(i, left)
            if reply is None:
                outcomes[i] = _failed(time.perf_counter() - t, f"no answer within {left:.3g} s")
                worker.kill()
                if n + 1 < len(indices):
                    worker = start()
                continue
            rss_kib = max(rss_kib, reply.pop("rss_kib"))
            outcomes[i] = reply
    except BaseException:
        worker.kill()
        raise
    wall_s = time.perf_counter() - t0
    if worker.proc.poll() is None:
        worker.close()
    spans = [tracer.load(p) for p in span_files if os.path.exists(p)]
    return {"wall_s": wall_s, "inputs": inputs,
            "outcomes": outcomes, "rss_kib": rss_kib, "spans": spans}


def children_cpu_s():
    """CPU seconds used so far by the waited-for children of this process."""
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def cli_pass(specs, indices, traced, deadline):
    """Run the given jobs once, each as its own subprocess under a time limit.

    A job's time is the CPU time of its subprocess; its wall time is kept too.
    """
    outcomes, span_files = {}, []
    t0 = time.perf_counter()
    for i in indices:
        left = min(JOB_LIMIT_S, deadline - time.monotonic())
        if left <= 0:
            outcomes[i] = _failed(0.0, "not started: run time limit reached")
            continue
        if traced:
            path = os.path.join(WORK, f"spans-{os.getpid()}-{i}.json")
            span_files.append(path)
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), path, str(i)]
        else:
            cmd = [sys.executable, "-m", "rootfold"]
        ref_s = ref_loop_s()
        t, cpu = time.perf_counter(), children_cpu_s()
        try:
            done = subprocess.run(cmd + specs[i]["argv"], capture_output=True,
                                  timeout=left, env=child_env(), cwd=ROOT)
        except subprocess.TimeoutExpired:
            outcomes[i] = _failed(children_cpu_s() - cpu, f"timed out after {left:.3g} s")
            continue
        outcomes[i] = {"ok": True, "elapsed": children_cpu_s() - cpu,
                       "wall_s": time.perf_counter() - t, "ref_s": ref_s,
                       "result": {"code": done.returncode, "stdout": done.stdout.decode()}}
    wall_s = time.perf_counter() - t0
    spans = [tracer.load(p) for p in span_files if os.path.exists(p)]
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"wall_s": wall_s, "inputs": [None] * len(specs),
            "outcomes": outcomes, "rss_kib": rss_kib, "spans": spans}


def run_pass(workload, specs, traced, deadline, indices=None):
    """One pass over the jobs at ``indices`` (all by default), in fresh processes."""
    if indices is None:
        indices = range(len(specs))
    if workload == "cli":
        return cli_pass(specs, indices, traced, deadline)
    return inprocess_pass(workload, specs, indices, traced, deadline)


def import_setup_s():
    """(CPU time of a fresh interpreter running ``import rootfold``, speed sample)."""
    ref_s = ref_loop_s()
    start = children_cpu_s()
    subprocess.run([sys.executable, "-c", "import rootfold"], check=True,
                   env=child_env(), cwd=ROOT, timeout=SETUP_LIMIT_S)
    return children_cpu_s() - start, ref_s


def import_times():
    """Cumulative import time of rootfold and of numpy, from -X importtime."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rootfold"],
                          capture_output=True, text=True, check=True,
                          env=child_env(), cwd=ROOT, timeout=SETUP_LIMIT_S)
    out = {"rootfold": 0.0, "numpy": 0.0}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in out:
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


# ---------------------------------------------------------------- checks

def _cli_payload_check(spec, stdout, want):
    argv = spec["argv"]
    if "json" not in argv:
        return None if oracle.digest(stdout) == want["digest"] else "output digest differs"
    payload = json.loads(stdout)
    if argv[0] == "fold":
        golden = want.get("golden_type")
        if golden is not None and not oracle.same_type(payload.get("type", ""), golden):
            return f"fold type {payload.get('type')!r}, golden {golden!r}"
    kept = {k: payload.get(k) for k in want["keys"]}
    return None if oracle.digest(kept) == want["digest"] else "output digest differs"


def check(workload, spec, outcome, inputs, expected):
    """None if the job's output is right, else the reason it is not."""
    if not outcome["ok"]:
        return outcome["error"]
    res = outcome["result"]
    want = expected.get(spec["id"])
    if want is None:
        return "no output recorded at seed for this job"
    if workload == "classes":
        count = oracle.steinberg_count(inputs["simple_roots"], inputs["tau"], inputs["q"])
        if count is not None:
            return None if res["count"] == count else f"{res['count']} classes, Steinberg {count}"
        return None if oracle.digest(res["reps"]) == want["digest"] else "class digest differs"
    if workload == "lift":
        rank = res["folded_rank"]
        ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
        count = oracle.steinberg_count(res["folded_simple_roots"], ident, inputs["q"])
        if count is None:
            count = want["count"]
        if res["count"] != count:
            return f"{res['count']} folded classes, expected {count}"
        return None if oracle.digest(res["lifts"]) == want["digest"] else "lift digest differs"
    if res["code"] != 0:
        return f"exit code {res['code']}"
    try:
        return _cli_payload_check(spec, res["stdout"], want)
    except ValueError as exc:
        return f"unreadable JSON output: {exc}"


def record_entry(workload, spec, outcome):
    """The expected.json entry for a job's output at seed."""
    res = outcome["result"]
    if workload == "classes":
        return {"count": res["count"], "digest": oracle.digest(res["reps"])}
    if workload == "lift":
        return {"count": res["count"], "digest": oracle.digest(res["lifts"])}
    if "json" not in spec["argv"]:
        return {"digest": oracle.digest(res["stdout"])}
    payload = json.loads(res["stdout"])
    return {"keys": sorted(payload), "digest": oracle.digest(payload)}


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- metrics

def tail(samples):
    """(value, percentile) at the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum
    (percentile 100) is reported.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def per_layer(traced):
    """Per-layer metrics of a traced pass, from the span trees of its processes."""
    stats, canon_in_enum = tracer.aggregate(traced["spans"])
    out = {}
    for name in tracer.NAMES:
        s = stats[name]
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")
        out[f"{name}.total_s"] = (s["total_s"], "s")
        out[f"{name}.errors"] = (s["errors"], "count")
        if name in tracer.SIZED:
            out[f"{name}.{tracer.SIZED[name]}"] = (s["size"], "count")
    classes_out = stats["classes.enumerate_stable_classes"]["size"]
    out["classes.enumerate_stable_classes.useful_ratio"] = (
        classes_out / canon_in_enum if canon_in_enum else 0.0, "ratio")
    return out


def job_spans_self_s(dumps):
    """Summed self time of the spans recorded inside jobs (not in setup)."""
    return sum(own for dump in dumps
               for span, own in zip(dump, tracer.self_times(dump))
               if span[4] != tracer.SETUP_JOB)


def job_times(passes, n):
    """Each job's median time over the passes that ran it."""
    samples = [[] for _ in range(n)]
    for p in passes:
        for i, outcome in p["outcomes"].items():
            samples[i].append(outcome["elapsed"])
    return [statistics.median(v) for v in samples]


def sample_passes(workload, specs, seconds, deadline):
    """Untraced passes: over every job while they fit in ``seconds`` (at least
    FULL_PASSES), then light passes while time is left.

    A light pass reruns only the jobs whose median time is under LIGHT_JOB_S.
    Short jobs are the ones host noise moves most, so they get the extra samples.
    """
    end = min(deadline, time.monotonic() + seconds)
    passes = [run_pass(workload, specs, False, deadline) for _ in range(FULL_PASSES)]
    while time.monotonic() + passes[-1]["wall_s"] < end:
        passes.append(run_pass(workload, specs, False, deadline))
    times = job_times(passes, len(specs))
    light = [i for i, t in enumerate(times) if t < LIGHT_JOB_S]
    # a light pass costs its jobs plus a process start; after one, its wall time
    estimate = sum(times[i] for i in light) + LIGHT_JOB_S
    while light and time.monotonic() + estimate < end:
        passes.append(run_pass(workload, specs, False, deadline, light))
        estimate = passes[-1]["wall_s"]
    return passes


def measure(workload, specs, seconds, trace, expected):
    """Run the workload; returns (result line, detail line) as dicts."""
    os.makedirs(WORK, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, traced = [], None
    if trace:
        plain = [run_pass(workload, specs, False, deadline)]
        traced = run_pass(workload, specs, True, deadline)
    else:
        for _ in range(SETUP_SAMPLES):
            setups.append(import_setup_s() if workload == "cli"
                          else Worker(workload, specs).close())
        plain = sample_passes(workload, specs, seconds, deadline)

    failures, attempted = [], 0
    for p in plain + ([traced] if traced else []):
        for i, outcome in p["outcomes"].items():
            attempted += 1
            reason = check(workload, specs[i], outcome, p["inputs"][i], expected)
            if reason is not None:
                failures.append({"id": specs[i]["id"], "reason": reason})
    times = job_times(plain, len(specs))
    tail_s, tail_pct = tail(times)
    detail = {
        "workload": workload, "jobs": len(specs),
        "passes": {"untraced": len(plain), "traced": int(trace)},
        "fail_ratio": {"value": len(failures) / attempted, "failed": len(failures),
                       "attempted": attempted},
        "failures": failures[:20],
        "job_tail": {"percentile": round(tail_pct, 2), "samples": len(times)},
        "job_s": {spec["id"]: t for spec, t in zip(specs, times)},
        "pass_wall_s": [p["wall_s"] for p in plain],
    }
    wall_s = sum(times)
    if not trace:
        refs = [r for _, r in setups]
        refs += [o["ref_s"] for p in plain for o in p["outcomes"].values() if "ref_s" in o]
        scale = REF_S / statistics.median(refs)
        cpu = {
            "setup_s": statistics.median(t for t, _ in setups),
            "wall_s": wall_s,
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
        }
        metrics = {name: (cpu[name] * scale, unit) for name, unit in END_TO_END
                   if name in cpu}
        metrics["peak_rss_mb"] = (max(p["rss_kib"] for p in plain) / 1024, "MiB")
        detail["cpu_s"] = cpu
        detail["speed"] = {"ref_median_s": REF_S / scale, "samples": len(refs),
                           "scale": scale}
        detail["setup_samples_s"] = [t for t, _ in setups]
    else:
        metrics = per_layer(traced)
        imports = [import_times() for _ in range(IMPORT_SAMPLES)]
        metrics["import.rootfold_s"] = (statistics.median(t["rootfold"] for t in imports), "s")
        metrics["import.numpy_s"] = (statistics.median(t["numpy"] for t in imports), "s")
        traced_wall = sum(job_times([traced], len(specs)))
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        detail["traced_wall_s"] = traced_wall
        detail["untraced_wall_s"] = wall_s
        detail["traced_pass_wall_s"] = traced["wall_s"]
        detail["job_spans_self_s"] = job_spans_self_s(traced["spans"])
        work = {}
        for dump in traced["spans"]:
            for job, row in tracer.per_job(dump).items():
                if job != tracer.SETUP_JOB:
                    work.setdefault(specs[job]["id"], row)
        detail["work_per_job"] = work
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(job_pools.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops and waits for its workers and subprocesses
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "rootfold", "__init__.py")):
        print("perfbench: no rootfold sources under src/ in this checkout", file=sys.stderr)
        return 2
    specs = job_pools.job_list(args.workload, args.seed)
    try:
        result, detail = measure(args.workload, specs, args.seconds, bool(args.trace),
                                 load_expected())
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    detail["seed"] = args.seed
    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    fr = detail["fail_ratio"]
    print(f"{'fail_ratio':52s} {fr['value']:.6g} ratio ({fr['failed']} of {fr['attempted']})",
          file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
