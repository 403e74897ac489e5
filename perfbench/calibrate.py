"""Calibration kernel: a fixed piece of pure-Python work, timed next to
every measured operation so that its time can be scaled to one machine
speed.

The reference machine is a shared virtual machine whose vCPUs switch
between speeds about 1.5x apart, for periods from a fraction of a second
to minutes; each vCPU switches on its own.  Wall times taken in one
period are therefore not comparable with those taken in another.  The
kernel runs in the same process tree, on the same CPU, immediately
before the operation, and a sample's scaled time is

    wall * REFERENCE_S / (mean calibration time next to it)

that is, the wall time the operation would take on a machine where the
kernel takes REFERENCE_S.  The kernel uses nothing from spgraphs, so a
change to the package moves the scaled times exactly as it moves the
wall times.
"""

from __future__ import annotations

import json
import random
import time

# Seconds the kernel takes on the reference machine (a 2-vCPU Xeon VM,
# Python 3.11) in a fast period, rounded; scaled times are in seconds at
# that speed.
REFERENCE_S = 0.035

_RNG = random.Random(7)
_MASKS = [_RNG.getrandbits(400) for _ in range(600)]


def _kernel() -> int:
    """Bit-mask intersections with popcounts, dict and set updates, a sort
    and a JSON round trip: the operations the package itself spends its
    time in, on fixed data."""
    counts: dict[tuple[int, int], int] = {}
    total = 0
    for i, a in enumerate(_MASKS):
        for b in _MASKS[i + 1:i + 40]:
            c = (a & b).bit_count()
            total += c
            counts[(i, c)] = counts.get((i, c), 0) + 1
    items = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    back = json.loads(json.dumps([[list(k), v] for k, v in items]))
    return total + len({tuple(k) for k, _ in back})


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
