"""The fixed job pools of the three workloads and the seeded job lists.

A seed orders a workload's jobs.  ``classes`` and ``lift`` run their whole
pool; ``cli`` runs every README and verify job and, for each golden fold
preset, either its ``fold`` or its ``conorm`` job, as the seed picks (the two
cost about the same).  So runs with different seeds do comparable work.

Left out for cost, since each would take most of a run on its own (timings
on a 2-core host): f4 and e6 in ``classes`` (f4 q=2 alone takes 48-76 s),
spin8 q=2 (3-5 s, the same Weyl group and orbits as so8 q=2, which stays),
gl4 at q=5 (3.7-5 s; q=4 stays); ``sl7-pinned`` at q=4 and 5 (5-6 s and
about 10 s; q=2 and 3 stay), ``gl7-pinned`` q=3 and ``gl6-so-twist`` q=5
(about 1.4 s each) and ``e6ad-twisted-c4`` (about 12 s, one canonicalization
walk over E6 orbits of up to 51 840 points) in ``lift``; and the README's
``lift --preset e6ad-pinned --q 5`` in ``cli``, which does not finish.
A single job of several seconds would also make a workload's times follow
that one job's run-to-run noise.
"""

import random

# (group, twist builder or None, qs); a twist is catalog.<builder>(n).diagram[1]
_CLASSES = [
    ("gl2", None, (2, 3, 4, 7, 8, 9)),
    ("gl2", ("pinned_gl_action", 2), (3, 5, 9)),
    ("gl3", None, (2, 4, 5, 7)),
    ("gl3", ("pinned_gl_action", 3), (2, 3, 4)),
    ("gl4", None, (4,)),
    ("gl4", ("pinned_gl_action", 4), (2, 3)),
    ("sl3", None, (4, 5, 8, 9)),
    ("sl3", ("pinned_sl_action", 3), (5, 7)),
    ("sl4", None, (2,)),
    ("sl4", ("pinned_sl_action", 4), (2, 3)),
    ("sl5", ("pinned_sl_action", 5), (2,)),
    ("pgl3", None, (4, 7, 8)),
    ("pgl3", ("pinned_pgl_action", 3), (4, 5)),
    ("sp4", None, (4, 5, 7, 9)),
    ("sp6", None, (2, 3)),
    ("so5", None, (5, 7, 8)),
    ("so6", ("pinned_so_even_action", 6), (2, 3)),
    ("so7", None, (2, 3)),
    ("so8", ("pinned_so_even_action", 8), (2,)),
    ("g2", None, (4, 5, 7, 8, 9)),
]

_LIFT = [
    ("sl7-pinned", (2, 3)),
    ("gl7-pinned", (2,)),
    ("gl6-pinned", (2, 3)),
    ("gl6-so-twist", (3,)),
    ("d4-triality", (2, 3, 4, 5, 7, 8, 9)),
    ("d4-full-s3", (2, 3, 4, 5, 7, 8, 9)),
    ("d4-twisted-a2", (2, 3, 4, 5, 7, 8, 9)),
    ("sl5-pinned", (3, 5, 7)),
    ("gl4-pinned", (3, 5, 7)),
    ("gl4-so-twist", (5, 7)),
]

GOLDEN_PRESETS = ("gl4-pinned", "gl6-pinned", "gl8-pinned", "gl4-so-twist",
                  "gl6-so-twist", "sl3-pinned", "sl5-pinned", "sl7-pinned",
                  "e6ad-pinned", "e6ad-twisted-c4", "d4-triality", "d4-full-s3",
                  "d4-twisted-a2")

# every verify target; root-inclusion runs as the README job below
VERIFY_TARGETS = ("product", "trivial", "normal-subgroup", "isogeny", "pinning",
                  "levi", "long-roots")

# README commands as written there, less `lift --preset e6ad-pinned --q 5`
_README = [
    ["fold", "--preset", "d4-triality"],
    ["classes", "--preset", "gl2", "--q", "3", "--format", "json"],
    ["conorm", "--preset", "gl4-so-twist"],
    ["verify", "root-inclusion", "--budget", "full"],
]


def _classes_pool():
    out = []
    for group, twist, qs in _CLASSES:
        for q in qs:
            tag = f"~{twist[0]}" if twist else ""
            out.append({"id": f"classes:{group}{tag}:q{q}", "group": group,
                        "twist": list(twist) if twist else None, "q": q})
    return out


def _lift_pool():
    return [{"id": f"lift:{name}:q{q}", "preset": name, "q": q}
            for name, qs in _LIFT for q in qs]


def _cli_job(argv, stratum=None):
    return {"id": "cli:" + " ".join(argv), "argv": argv, "stratum": stratum}


def _cli_pool():
    out = [_cli_job(list(a)) for a in _README]
    out += [_cli_job(["verify", t, "--format", "json"]) for t in VERIFY_TARGETS]
    out += [_cli_job([cmd, "--preset", p, "--format", "json"], stratum=p)
            for p in GOLDEN_PRESETS for cmd in ("fold", "conorm")]
    return out


# every job a seed can pick, by workload
POOLS = {"classes": _classes_pool, "lift": _lift_pool, "cli": _cli_pool}


def job_list(workload, seed):
    """The jobs a seed picks, in the order it picks: one job per stratum."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, strata = [], {}
    for job in POOLS[workload]():
        if job.get("stratum") is None:
            jobs.append(job)
        else:
            strata.setdefault(job["stratum"], []).append(job)
    jobs += [rng.choice(group) for group in strata.values()]
    rng.shuffle(jobs)
    return jobs
