"""A fixed pure-Python loop whose CPU time tracks how fast the host runs now.

On the shared host the benchmark was built on, the same CPU-bound code ran
up to 1.4x slower from one minute to the next, in CPU time as well as wall
time (neighbours' load on shared cores and caches).  Samples of this loop
taken next to the jobs of a run measure that factor; run.py scales the run's
end-to-end times by REF_S / (their median), so runs made at different moments
compare.
"""

import time

REF_S = 0.002  # CPU seconds of ref_loop_s at the seed host's usual speed


def ref_loop_s():
    """CPU seconds this process takes for a fixed loop of integer arithmetic."""
    start = time.process_time()
    x = 0
    for i in range(30_000):
        x += i * i % 7
    return time.process_time() - start
