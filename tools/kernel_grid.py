"""Kernel grid: CPU ns per replica-step and traced memory of montecarlo._simulate_block in one process.

Each point walks R replicas of one model to step n in one ``_simulate_block``
call (p = 0.6, theta = 1, uniform start, no retained samples) and reports
the fastest of three calls' CPU time (``time.process_time``) over R * n.
The figure is the kernel's own cost, seeding, refills and steps, without
the process pool or any wait for a CPU. One more call, untimed, runs under
``tracemalloc`` and gives the point's traced peak in MiB: the uniform
buffer, the refill block, the generators and the count rows.

    python tools/kernel_grid.py        # one JSON line on stdout, point -> ns and point -> MiB
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from memwalk.model import InitialSpec, validate_params  # noqa: E402
from memwalk.montecarlo import _simulate_block  # noqa: E402

REPEAT = 3
#: (d, lazy, R, n): K = 2 from wide tiles over long walks to narrow tiles and
#: the short walks whose chunk is below 512 steps, then lazy K = 3, lazy K = 5
#: and K = 6, whose steps make more numpy calls
GRID = [
    (1, False, 5_000, 2_000),
    (1, False, 2_000, 5_000),
    (1, False, 200, 10_000),
    (1, False, 5_000, 500),
    (1, True, 4_000, 3_000),
    (2, True, 4_000, 3_000),
    (3, False, 3_000, 2_000),
]


def point_name(d: int, lazy: bool, replicas: int, n: int) -> str:
    return f"{'lazy ' if lazy else ''}K = {2 * d + lazy}, R = {replicas}, n = {n}"


def ns_per_replica_step(d: int, lazy: bool, replicas: int, n: int, repeat: int = REPEAT) -> float:
    """Fastest CPU time of ``repeat`` kernel calls, in ns per replica-step."""
    params = validate_params(d, lazy, 0.6, 1.0)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        _simulate_block(params, InitialSpec.uniform(), [n], 1, 0, replicas, False)
        best = min(best, time.process_time() - t0)
    return round(best / (replicas * n) * 1e9, 2)


def peak_mib(d: int, lazy: bool, replicas: int, n: int) -> float:
    """Traced peak of one kernel call, in MiB."""
    params = validate_params(d, lazy, 0.6, 1.0)
    tracemalloc.start()
    try:
        _simulate_block(params, InitialSpec.uniform(), [n], 1, 0, replicas, False)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def main(grid=GRID) -> int:
    result = {point_name(*point): ns_per_replica_step(*point) for point in grid}
    peaks = {point_name(*point): peak_mib(*point) for point in grid}
    print(json.dumps({"unit": "ns per replica-step, CPU, best of 3", "points": result, "peak_mib": peaks}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
