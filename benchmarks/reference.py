"""Host-speed reference.

The reference machine is a VM shared with other tenants, and its speed
drifts by 10-15 % over tens of seconds to minutes. This fixed pure-Python
loop runs next to the workload. Every time the benchmark reports is scaled
by `REFERENCE_S / loop time`: the time the work would take on a host where
the loop takes `REFERENCE_S`. The loop makes no container objects beyond
one list and one dict, so garbage-collector settings do not change its
speed.
"""

import time

REFERENCE_S = 0.0125   # the loop's time on the reference machine


def _loop() -> int:
    counts = {}
    out = []
    for i in range(60000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        out.append(k * 3)
    return len(out)


def loop_seconds(repeats: int = 2) -> float:
    """Mean time of one loop over `repeats` back-to-back loops."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _loop()
    return (time.perf_counter() - t0) / repeats
