#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at ``--size tiny`` untraced and traced, and checks
that the result line has exactly the metrics BENCHMARK.json names, with
their units; that every end-to-end metric a workload applies to is
printed by name with its unit; that a tampered committed digest and a
forced operation timeout are counted as failed operations; and that the
benchmark refuses, without a result, in a directory that holds only
itself.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "results", "selftest")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

PRINTED = {
    "spindle-pipe": [("pipe_s", "s"), ("build_cmd_s", "s"), ("verify_cmd_s", "s"),
                     ("stats_cmd_s", "s")],
    "star-certified": [("construct_s", "s")],
    "probes": [("sweep_s", "s"), ("mc_trials_per_s", "1/s")],
    "general-verify": [("verify_cmd_s", "s"), ("stats_cmd_s", "s")],
}
COMMON_PRINTED = [("op_wall_s", "s"), ("setup_wall_s", "s"), ("calibration_s", "s"),
                  ("failed_ratio", "ratio")]


def bench(workload: str, *extra: str, trace: int = 0, cwd: str = ROOT,
          seed: int = 1) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(out)}")
    if not (isinstance(out["attempted"], int) and out["attempted"] >= 1
            and isinstance(out["failed"], int) and 0 <= out["failed"] <= out["attempted"]):
        raise AssertionError(f"bad counts in {out}")
    return out


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = bench(workload, trace=trace)
            expect(code == 0, f"{workload} trace {trace}: exit {code}")
            out = result(lines)
            expect(out["correct"] and out["failed"] == 0,
                   f"{workload} trace {trace}: failed\n" + "\n".join(lines[:-1]))
            units = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(units == declared[trace],
                   f"{workload} trace {trace}: metrics {units} != {declared[trace]}")
            if trace == 0:
                for name, unit in PRINTED[workload] + COMMON_PRINTED:
                    expect(any(line.startswith(f"{workload} {name} = ")
                               and f" {unit} " in line for line in lines),
                           f"{workload}: {name} not printed with unit {unit}")
            print(f"ok   {workload} trace {trace}: {out['attempted']} operations")

    os.makedirs(SCRATCH, exist_ok=True)
    tampered = os.path.join(SCRATCH, "digests.json")
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    entry = digests["star-certified/tiny/1"]
    entry["construct"] = "0" * 64
    with open(tampered, "w", encoding="utf-8") as fh:
        json.dump(digests, fh)
    code, lines = bench("star-certified", "--digests", tampered)
    out = result(lines)
    expect(code == 0 and out["failed"] >= 1 and not out["correct"],
           f"tampered digest not counted as a failure: {out}")
    print(f"ok   tampered digest: {out['failed']} of {out['attempted']} failed")

    code, lines = bench("general-verify", "--op-timeout", "0.01")
    out = result(lines)
    expect(code == 0 and out["failed"] >= 1 and not out["correct"],
           f"forced timeout not counted as a failure: {out}")
    print(f"ok   forced timeout: {out['failed']} of {out['attempted']} failed")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, lines = bench("spindle-pipe", cwd=bare)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           f"ran without the program: exit {code}, {lines[-1:]}")
    print(f"ok   refuses without the program: exit {code}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"FAIL {err}")
        sys.exit(1)
