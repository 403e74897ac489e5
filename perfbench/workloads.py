"""Workload definitions shared by run.py and its children.

Every input is derived from the workload seed; nothing else varies
between runs.  ``full`` is the benchmark proper, ``tiny`` the self-test
size.  The reasons for each workload are in README.md beside this file.
"""

from __future__ import annotations

DEFAULT_SEED = 1

CLI_WORKLOADS = ("spindle-pipe", "general-verify")
WORKLOADS = ("spindle-pipe", "star-certified", "probes", "general-verify")

SIZES = {
    "full": {
        # README pipe: build-spindle --dim 3 --transform --r 87
        "spindle": {"dim": 3, "r": 87},
        # disjoint star of degree 6 (d = 2, 14 symbols) at min_multiplier(6)
        "star": {"delta": 6, "dim": 2, "r": 261},
        # sweep_r on the d = 4 spindle template, then the Monte-Carlo estimator
        "sweep": {"dim": 4, "r_values": [4, 6, 8, 12, 16], "trials": 3},
        "mc": {"dim": 2, "r": 87, "trials": 1000},
        # random valid non-singleton SPG on a random spanning tree
        "general": {"sets": 4000, "symbols": 20, "dim": 5, "per_vertex": 2},
    },
    "tiny": {
        "spindle": {"dim": 2, "r": 87},
        "star": {"delta": 3, "dim": 2, "r": 131},
        "sweep": {"dim": 2, "r_values": [4, 8], "trials": 2},
        "mc": {"dim": 2, "r": 87, "trials": 20},
        "general": {"sets": 200, "symbols": 20, "dim": 5, "per_vertex": 2},
    },
}

SPINDLE_PROPERTIES = ("adjacency", "strong-adjacency", "endpoint-count", "singleton")
GENERAL_PROPERTIES = ("adjacency", "strong-adjacency", "endpoint-count")

# Seconds one operation may run before it is killed and counted as failed.
OP_TIMEOUT_S = 60.0
# A run never starts work it could not finish before this many seconds.
RUN_DEADLINE_S = 160.0
# Set-up children run before each untraced repetition (after the first
# one, which makes the inputs): a run's set-up samples then span the run.
SETUP_PER_REP = 2
STARTUP_REPS = 5


def cli_commands(workload: str, size: str, seed: int, doc: str) -> list[tuple[str, list[str]]]:
    """(name, spg arguments) of one repetition of a CLI workload, in order."""
    if workload == "spindle-pipe":
        sp = SIZES[size]["spindle"]
        cmds = [("build", ["build-spindle", "--dim", str(sp["dim"]), "--transform",
                           "--r", str(sp["r"]), "--seed", str(seed)])]
        props = SPINDLE_PROPERTIES
    else:
        cmds = []
        props = GENERAL_PROPERTIES
    cmds += [(f"verify-{p}", ["verify", "--input", doc, "--property", p]) for p in props]
    cmds.append(("stats", ["stats", "--input", doc]))
    return cmds


def star_sets(delta: int, dim: int) -> tuple[list[int], list[list[int]]]:
    """Centre and leaves of the disjoint star: consecutive blocks of dim symbols."""
    blocks = [list(range(i * dim, (i + 1) * dim)) for i in range(delta + 1)]
    return blocks[0], blocks[1:]
