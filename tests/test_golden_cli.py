"""Golden CLI jobs: each job's exit code and the sha256 of its stdout are pinned.

The digests live in ``golden_cli.json`` next to this file.  A change that
keeps behaviour must leave every job byte-identical.  To record the file
again after a deliberate change of output, run from the repository root::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootfold
from rootfold import catalog, cli

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

# the README commands, less `lift --preset e6ad-pinned --q 5`, which does not
# finish within 300 s of CPU (2-vCPU host)
README_JOBS = [
    ["fold", "--preset", "d4-triality"],
    ["classes", "--preset", "gl2", "--q", "3", "--format", "json"],
    ["conorm", "--preset", "gl4-so-twist"],
    ["verify", "root-inclusion", "--budget", "full"],
]

LIFTS = [("gl4-pinned", 3), ("d4-triality", 4), ("sl5-pinned", 3), ("gl2-product-swap", 3)]


def golden_jobs():
    jobs = list(README_JOBS)
    jobs += [["verify", which, "--format", "json"] for which in cli.VERIFY_KINDS]
    jobs.append(["verify", "long-roots"])
    jobs += [[cmd, "--preset", name, "--format", "json"]
             for name in catalog.GOLDEN_FOLDS for cmd in ("fold", "conorm")]
    jobs += [["classes", "--preset", group, "--q", "3", "--format", "json"]
             for group in ("gl3", "so7", "g2", "sp4", "torus2")]
    jobs += [["lift", "--preset", name, "--q", str(q), "--format", fmt]
             for name, q in LIFTS for fmt in ("table", "json")]
    return jobs


def run_job(argv):
    """(exit code, sha256 of stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def load_golden():
    return {tuple(job["argv"]): job for job in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", golden_jobs(), ids=" ".join)
def test_golden_cli_job(argv):
    job = load_golden()[tuple(argv)]
    assert run_job(argv) == (job["exit"], job["stdout_sha256"])


@pytest.mark.parametrize("argv", [
    ["fold", "--preset", "d4-triality", "--format", "json"],
    ["lift", "--preset", "d4-triality", "--q", "4", "--format", "json"],
], ids=" ".join)
def test_golden_job_under_python_dash_o(argv):
    # -O strips assert statements; a job's output must not depend on them
    src = str(Path(rootfold.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "rootfold", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"})
    job = load_golden()[tuple(argv)]
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (
        job["exit"], job["stdout_sha256"]), proc.stderr


def test_golden_file_lists_exactly_the_jobs():
    assert sorted(load_golden()) == sorted(map(tuple, golden_jobs()))


def record():
    jobs = []
    for argv in golden_jobs():
        code, digest = run_job(argv)
        jobs.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(job) for job in jobs) + "\n]\n")
    print(f"recorded {len(jobs)} jobs in {GOLDEN}")


if __name__ == "__main__":
    record()
