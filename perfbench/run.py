#!/usr/bin/env python3
"""Benchmark of the spgraphs package: four seeded workloads driven through
the `spg` CLI (as subprocesses) and the library's public functions.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spindle-pipe --seed 1 --seconds 60 --trace 0

Workloads: spindle-pipe, star-certified, probes, general-verify (see
README.md beside this file for why each exists and what it stresses).
With ``--trace 0`` the run times untraced repetitions and reports the
end-to-end metrics; with ``--trace 1`` it pairs each untraced repetition
with a traced replay in a separate child and reports per-layer metrics.
Every output is checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Load: this process runs at most one child at a time, and every piece of
measured work runs in a fresh child so that its own maximum RSS is read
with wait4.  Every timed operation is preceded by a sample of the
calibration kernel (calibrate.py), on the same CPU, and the gated
timings are scaled by it.  The run record (provenance, every metric,
every failure) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

PROCESS_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

from calibrate import REFERENCE_S, sample as calibrate  # noqa: E402
from oracle import general_expectations  # noqa: E402
from workloads import (  # noqa: E402
    CLI_WORKLOADS,
    DEFAULT_SEED,
    OP_TIMEOUT_S,
    RUN_DEADLINE_S,
    SETUP_PER_REP,
    SIZES,
    STARTUP_REPS,
    WORKLOADS,
    cli_commands,
)

# Per-layer metrics reported in the result line of a traced run: the ones
# every workload measures.  The run prints every other applicable one.
RESULT_LAYER_METRICS = {
    "core.validate_s": "s", "core.adjacency_s": "s", "core.strong_adjacency_s": "s",
    "core.endpoint_count_s": "s", "core.sets": "count", "core.pairs": "count",
    "core.faces": "count", "cli.startup_s": "s", "trace.overhead_s": "s",
}
VERIFIER_SPANS = {
    "validate": "core.validate",
    "adjacency": "core.check_adjacency",
    "strong_adjacency": "core.check_strong_adjacency",
    "endpoint_count": "core.check_endpoint_count",
    "singleton": "core.check_singleton",
}
VERDICT_LINE = re.compile(r"^([a-z-]+): (holds|VIOLATED \((\d+) witnesses\))$", re.M)
STATS_LINE = re.compile(r"^([a-z-]+): (\d+)$", re.M)


class SetupError(RuntimeError):
    pass


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


# ------------------------------------------------------------- processes

@dataclass
class Proc:
    wall: float
    code: int
    rss_mb: float
    timed_out: bool
    stdout: bytes
    stderr: str


def run_proc(argv: list[str], timeout: float, stdout_path: str, stderr_path: str) -> Proc:
    """Run one child to completion (or kill its process group at the time
    limit) and read that child's own maximum RSS from wait4."""
    env = dict(os.environ)
    # A fixed hash seed takes str-hash randomization out of the timings.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["reaped"]:
                os.killpg(proc.pid, signal.SIGKILL)
                state["killed"] = True

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, "rb") as fh:
        stdout = fh.read()
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, state["killed"],
                stdout, stderr)


# ------------------------------------------------------------ statistics

def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def timing(values: list[float]) -> dict:
    """Median, plus the highest percentile that has at least ten samples
    beyond it (None when there are too few samples for any)."""
    out = {"median": statistics.median(values), "n": len(values), "tail": None,
           "samples": values}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            out["tail"] = {"percentile": q, "value": percentile(values, q)}
            break
    return out


def describe(name: str, stat: dict, unit: str) -> str:
    tail = stat["tail"]
    extra = (f"p{tail['percentile']:g} {tail['value']:.6g}" if tail
             else "no percentile has 10 samples beyond it")
    return f"{name} = {stat['median']:.6g} {unit} (median of {stat['n']}; {extra})"


# ---------------------------------------------------------- output parsing

def parse_verdicts(stdout: str) -> dict:
    return {m.group(1): [m.group(2) == "holds", int(m.group(3) or 0)]
            for m in VERDICT_LINE.finditer(stdout)}


def parse_stats(stdout: str) -> dict:
    return {m.group(1): int(m.group(2)) for m in STATS_LINE.finditer(stdout)}


# ------------------------------------------------------------ per-layer

def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced replay, from its spans (inclusive
    times of calls into each layer's public functions)."""
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def total(*names: str) -> float:
        return sum(dur(s) for n in names for s in by.get(n, ()))

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in by.get(name, ()))

    m: dict[str, tuple[float, str]] = {}
    builds = by.get("transform.build_subdivision", [])
    constructions = by.get("bench.construction", [])
    if builds:
        m["transform.build_s"] = (total("transform.build_subdivision"), "s")
        m["transform.build_calls"] = (len(builds), "count")
        m["transform.sets_built"] = (attr_sum("transform.build_subdivision", "sets"), "count")
        m["transform.scan_s"] = (total("transform.find_bad_events"), "s")
        m["transform.bad_events"] = (attr_sum("transform.find_bad_events", "events"), "count")
        m["transform.rounds"] = (attr_sum("bench.construction", "rounds"), "count")
        m["transform.edges_redrawn"] = (attr_sum("bench.construction", "redrawn"), "count")
        kept = sum(1 for s in constructions if s["attrs"].get("ok"))
        m["transform.builds_kept_ratio"] = (kept / len(builds), "ratio")
    trials = by.get("bench.mc_trial", [])
    if trials:
        ms = [dur(s) * 1000.0 for s in trials]
        for q in (50.0, 99.0):
            if len(ms) * (100.0 - q) / 100.0 >= 10:
                m[f"transform.mc_trial_ms_p{q:g}"] = (percentile(ms, q), "ms")
        m["transform.mc_occurrences"] = (sum(1 for s in trials if s["attrs"]["occurred"]), "count")
    for key, name in VERIFIER_SPANS.items():
        if by.get(name):
            m[f"core.{key}_s"] = (total(name), "s")
            m[f"core.{key}_witnesses"] = (attr_sum(name, "witnesses"), "count")
    endpoint = by.get("core.check_endpoint_count", [])
    if endpoint:
        growth = max(s["attrs"]["rss_growth_kb"] for s in endpoint) / 1024.0
        m["core.endpoint_count_rss_growth_mb"] = (growth, "MB")
        m["core.faces"] = (sum(s["attrs"]["sets"] * s["attrs"]["dim"] for s in endpoint),
                           "count")
    adjacency = by.get("core.check_adjacency", [])
    if adjacency:
        m["core.sets"] = (attr_sum("core.check_adjacency", "sets"), "count")
        m["core.pairs"] = (sum(s["attrs"]["sets"] * (s["attrs"]["sets"] - 1) // 2
                               for s in adjacency), "count")
    for key in ("diameter", "graph_distance"):
        if by.get(f"core.{key}"):
            m[f"core.{key}_s"] = (total(f"core.{key}"), "s")
    for key in ("serialize", "parse"):
        if by.get(f"document.{key}"):
            m[f"document.{key}_s"] = (total(f"document.{key}"), "s")
    if by.get("document.parse") or by.get("document.serialize"):
        m["document.bytes"] = (attr_sum("document.serialize", "bytes")
                               + attr_sum("document.parse", "bytes"), "count")
    if by.get("spindle.build_spindle_template") or by.get("spindle.build_star_template"):
        m["spindle.template_s"] = (
            total("spindle.build_spindle_template", "spindle.build_star_template"), "s")
    for sweep in by.get("bench.sweep_r", []):
        inner = sum(dur(s) for s in constructions if s["parent"] == sweep["id"])
        m["experiments.sweep_self_s"] = (dur(sweep) - inner, "s")
    return m


# ------------------------------------------------------------------ bench

@dataclass
class Rep:
    wall: float = 0.0
    rss_mb: float = 0.0
    ok: bool = True
    times: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    cal: list = field(default_factory=list)

    def scaled(self) -> float:
        """Wall time at the calibration kernel's reference speed, from the
        kernel samples taken around this repetition's operations."""
        return self.wall * REFERENCE_S / statistics.fmean(self.cal)


class Bench:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.size = args.size
        self.sizes = SIZES[args.size]
        self.op_timeout = args.op_timeout
        self.workdir = os.path.join(RESULTS, f"work-{args.workload}-{os.getpid()}")
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: dict[str, str] = {}
        self.digest_key = f"{args.workload}/{args.size}/{args.seed}"
        committed = {}
        if os.path.exists(args.digests):
            with open(args.digests, encoding="utf-8") as fh:
                committed = json.load(fh)
        self.committed = committed.get(self.digest_key, {})
        self.expect: dict | None = None
        self.files = 0
        self.setup_walls: list[float] = []
        self.setup_scaled: list[float] = []
        self.cal_samples: list[float] = []

    def calibrate(self) -> float:
        self.cal_samples.append(calibrate())
        return self.cal_samples[-1]

    # -- bookkeeping

    def remaining(self) -> float:
        return PROCESS_START + RUN_DEADLINE_S - time.perf_counter()

    def fail(self, name: str, reason: str) -> None:
        self.failures.append(f"{name}: {reason}")

    def run_op(self, argv: list[str], stdout_path: str | None = None,
               limit: float | None = None, code: int = 0
               ) -> tuple[Proc | None, str | None]:
        """Run one process under the operation time limit; (proc, reason it
        failed).  It fails if it times out or exits with another code."""
        limit = min(limit or self.op_timeout, self.remaining())
        if limit <= 0:
            return None, "no time left before the run deadline"
        self.files += 1
        out = stdout_path or os.path.join(self.workdir, f"{self.files}.out")
        p = run_proc(argv, limit, out, os.path.join(self.workdir, f"{self.files}.err"))
        if p.timed_out:
            return p, f"timed out after {limit:.3g} s"
        if p.code != code:
            return p, f"exit {p.code}: {p.stderr.strip()[-500:]}"
        return p, None

    def check_output(self, name: str, digest: str) -> str | None:
        """Byte-identical across repetitions of one seed, and equal to the
        committed digest where one exists for this workload, size and seed."""
        if self.first_digests.setdefault(name, digest) != digest:
            return "output differs from the first repetition of this seed"
        want = self.committed.get(name)
        if want is not None and want != digest:
            return f"output digest {digest[:12]} differs from the committed {want[:12]}"
        return None

    def child_argv(self, mode: str) -> list[str]:
        return [sys.executable, os.path.join(HERE, "child.py"), mode,
                "--workload", self.workload, "--seed", str(self.seed),
                "--size", self.size, "--workdir", self.workdir]

    def doc_path(self) -> str:
        name = "general.json" if self.workload == "general-verify" else "spindle.json"
        return os.path.join(self.workdir, name)

    # -- phases

    def setup(self, reps: int) -> None:
        """Run ``reps`` set-up children; their wall times go to setup_walls,
        and scaled by the kernel sample just before each, to setup_scaled."""
        for _ in range(reps):
            self.attempted += 1
            cal = self.calibrate()
            # The operation time limit applies to measured work, not to set-up.
            p, reason = self.run_op(self.child_argv("setup"), limit=OP_TIMEOUT_S)
            if reason is None and self.workload == "general-verify":
                with open(self.doc_path(), "rb") as fh:
                    reason = self.check_output("document", sha256(fh.read()))
            if reason:
                self.fail("setup", reason)
                raise SetupError(reason)
            self.setup_walls.append(p.wall)
            self.setup_scaled.append(p.wall * REFERENCE_S / cal)
        if self.workload == "general-verify" and self.expect is None:
            with open(self.doc_path(), encoding="utf-8") as fh:
                self.expect = general_expectations(json.load(fh))

    def startup(self) -> list[float]:
        walls = []
        for _ in range(STARTUP_REPS):
            self.attempted += 1
            p, reason = self.run_op([sys.executable, "-c", "import spgraphs"])
            if reason:
                self.fail("startup", reason)
            else:
                walls.append(p.wall)
        return walls

    def rep(self) -> Rep:
        if self.workload in CLI_WORKLOADS:
            return self.cli_rep()
        return self.lib_rep()

    def witnesses(self, name: str) -> int:
        """Expected witness count of a verify command (every spindle property holds)."""
        if self.workload == "spindle-pipe":
            return 0
        return self.expect["witnesses"][name[len("verify-"):]]

    def check_cli(self, name: str, p: Proc) -> tuple[dict, str | None]:
        stdout = p.stdout.decode("utf-8", errors="replace")
        if name == "build":
            m = re.search(r"^rounds used: (\d+)$", p.stderr, re.M)
            if not m:
                return {}, "no 'rounds used' line on stderr"
            return {"document_sha256": sha256(p.stdout), "rounds": int(m.group(1))}, None
        if name.startswith("verify-"):
            count = self.witnesses(name)
            want = {"validity": [True, 0], name[len("verify-"):]: [count == 0, count]}
            got = parse_verdicts(stdout)
            if got != want:
                return got, f"verdicts {got}, expected {want}"
            return got, None
        got = parse_stats(stdout)
        if self.workload == "spindle-pipe":
            sp = self.sizes["spindle"]
            floor = sp["r"] * (math.comb(2 * sp["dim"], sp["dim"]) - 1)
            length = got.get("spindle-length", -1)
            if not floor <= length <= got.get("diameter", -1):
                return got, (f"spindle-length {length} and diameter {got.get('diameter')} "
                             f"break floor <= length <= diameter with floor {floor}")
            return got, None
        want = self.expect["stats"]
        wrong = {k: got.get(k) for k in want if got.get(k) != want[k]}
        if wrong:
            return got, f"stats {wrong} differ from the benchmark's own {want}"
        return got, None

    def cli_rep(self) -> Rep:
        rep = Rep()
        doc = self.doc_path()
        for name, spg_args in cli_commands(self.workload, self.size, self.seed, doc):
            self.attempted += 1
            # verify exits 1 exactly when it prints witnesses
            code = 1 if name.startswith("verify-") and self.witnesses(name) else 0
            rep.cal.append(self.calibrate())
            p, reason = self.run_op([sys.executable, "-m", "spgraphs", *spg_args],
                                    doc if name == "build" else None, code=code)
            if p is not None:
                rep.wall += p.wall
                rep.rss_mb = max(rep.rss_mb, p.rss_mb)
                rep.times[name] = p.wall
            if reason is None:
                rep.summary[name], reason = self.check_cli(name, p)
            if reason is None:
                reason = self.check_output(name, sha256(p.stdout))
            if reason:
                self.fail(name, reason)
                rep.ok = False
                if name == "build":
                    break
        rep.cal.append(self.calibrate())
        return rep

    def check_lib(self, op: str, got: dict) -> str | None:
        if op == "construct":
            st = self.sizes["star"]
            want = 1 + st["delta"] * st["r"] * st["dim"]
            if got.get("sets") != want:
                return f"result has {got.get('sets')} sets, expected {want}"
        elif op == "sweep":
            sw = self.sizes["sweep"]
            rows = got.get("rows", [])
            if [row[0] for row in rows] != sw["r_values"] or any(
                    row[1] != sw["trials"] or not 0 <= row[2] <= row[1] for row in rows):
                return f"sweep rows {rows} break 0 <= successes <= trials = {sw['trials']}"
        elif op == "mc":
            trials = self.sizes["mc"]["trials"]
            if got.get("trials") != trials or not 0 <= got.get("occurrences", -1) <= trials:
                return f"estimate {got} breaks 0 <= occurrences <= trials = {trials}"
        return None

    def lib_rep(self) -> Rep:
        rep = Rep()
        ops = ["construct"] if self.workload == "star-certified" else ["sweep", "mc"]
        self.attempted += len(ops)
        rep.cal.append(self.calibrate())
        p, reason = self.run_op(self.child_argv("rep"))
        if p is not None:
            rep.wall, rep.rss_mb = p.wall, p.rss_mb
        if reason:
            rep.ok = False
            for op in ops:
                self.fail(op, reason)
            return rep
        out = json.loads(p.stdout)
        rep.times = out["times"]
        rep.wall = sum(rep.times.values())
        # The child samples the kernel next to each library call it times.
        rep.cal += out["cal"]
        self.cal_samples += out["cal"]
        for op in ops:
            rep.summary[op] = out["summary"][op]
            reason = (self.check_lib(op, rep.summary[op])
                      or self.check_output(op, sha256(json.dumps(rep.summary[op], sort_keys=True))))
            if reason:
                self.fail(op, reason)
                rep.ok = False
        return rep

    def replay(self, rep: Rep) -> list[dict] | None:
        """Traced replay in a fresh child; it must reproduce the untraced rep."""
        self.attempted += 1
        p, reason = self.run_op(self.child_argv("replay"))
        if reason is None:
            out = json.loads(p.stdout)
            differs = sorted(op for op in set(rep.summary) | set(out["summary"])
                             if rep.summary.get(op) != out["summary"].get(op))
            if differs:
                reason = f"replay differs from the untraced run on {differs}"
        if reason:
            self.fail("replay", reason)
            return None
        return out["spans"]

    def measure(self, seconds: float, traced: bool):
        """Repetitions for about ``seconds`` (at least one); with ``traced``
        each untraced repetition is followed by its replay.  Another
        repetition starts only if it should end by ``seconds``, judged by
        the one before it, and surely before the run deadline.
        Untraced, each repetition is preceded by SETUP_PER_REP more set-up
        children, so that setup_s samples the whole run, as op_s does."""
        reps: list[Rep] = []
        replays: list[tuple[Rep, list[dict]]] = []
        stop = time.perf_counter() + seconds
        while True:
            if not traced:
                self.setup(SETUP_PER_REP)
            started = time.perf_counter()
            reps.append(self.rep())
            if traced:
                spans = self.replay(reps[-1])
                if spans is not None:
                    replays.append((reps[-1], spans))
            now = time.perf_counter()
            took = now - started
            if now + took > stop or self.remaining() < 2 * took:
                return reps, replays


# ----------------------------------------------------------------- report

def provenance(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src.update(name.encode() + fh.read())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": SIZES[args.size],
    }


def untraced_metrics(bench: Bench, reps: list[Rep]):
    """Result-line metrics, printed lines and recorded details of an untraced run."""
    good = [r for r in reps if r.ok] or reps
    stats = {"setup_s": (timing(bench.setup_scaled), "s"),
             "op_s": (timing([r.scaled() for r in good]), "s"),
             "peak_rss_mb": (timing([r.rss_mb for r in good]), "MB")}
    named: dict[str, tuple[dict, str]] = {
        "setup_wall_s": (timing(bench.setup_walls), "s"),
        "op_wall_s": (timing([r.wall for r in good]), "s"),
        "calibration_s": (timing(bench.cal_samples), "s"),
    }
    if bench.workload == "spindle-pipe":
        named["pipe_s"] = named["op_wall_s"]
        named["build_cmd_s"] = (timing([r.times.get("build", 0.0) for r in good]), "s")
    if bench.workload in CLI_WORKLOADS:
        named["verify_cmd_s"] = (timing([sum(v for k, v in r.times.items()
                                             if k.startswith("verify-")) for r in good]), "s")
        named["stats_cmd_s"] = (timing([r.times.get("stats", 0.0) for r in good]), "s")
    if bench.workload == "star-certified":
        named["construct_s"] = named["op_wall_s"]
    if bench.workload == "probes":
        trials = bench.sizes["mc"]["trials"]
        named["sweep_s"] = (timing([r.times.get("sweep_s", 0.0) for r in good]), "s")
        named["mc_trials_per_s"] = (timing([trials / r.times["mc_s"] for r in good
                                            if r.times.get("mc_s")] or [0.0]), "1/s")
    lines = [describe(name, stat, unit) for name, (stat, unit) in {**stats, **named}.items()]
    result = {name: {"value": stat["median"], "unit": unit}
              for name, (stat, unit) in stats.items()}
    return result, lines, {n: {"unit": u, **s} for n, (s, u) in {**stats, **named}.items()}


def label(name: str, unit: str) -> str:
    if name in ("core.sets", "core.pairs", "core.faces"):
        return " [computed from the verified graphs]"
    if unit == "s" and not name.startswith(("cli.", "trace.")):
        return " [inclusive span time]"
    return ""


def traced_metrics(bench: Bench, startup: list[float],
                   replays: list[tuple[Rep, list[dict]]]):
    """Result-line metrics, printed lines and recorded details of a traced run."""
    per_pair: list[dict[str, tuple[float, str]]] = []
    startup_s = statistics.median(startup) if startup else 0.0
    for rep, spans in replays:
        m = layer_metrics(spans)
        replay_total = sum(s["end"] - s["start"] for s in spans
                           if s["name"].startswith("bench.op."))
        untraced = rep.wall
        if bench.workload in CLI_WORKLOADS:
            # The replay runs every command in one process: take the
            # interpreter start-up out of the untraced side.
            untraced -= startup_s * len(rep.times)
            m["cli.self_s"] = (rep.wall - replay_total, "s")
        m["cli.startup_s"] = (startup_s, "s")
        m["trace.overhead_s"] = (replay_total - untraced, "s")
        per_pair.append(m)
    names = sorted({n for m in per_pair for n in m})
    stats = {}
    for name in names:
        values = [m[name][0] for m in per_pair if name in m]
        unit = next(m[name][1] for m in per_pair if name in m)
        stats[name] = (timing(values), unit)
    lines = [describe(name, stat, unit) + label(name, unit)
             for name, (stat, unit) in stats.items()]
    result = {name: {"value": stats[name][0]["median"] if name in stats else 0.0,
                     "unit": unit}
              for name, unit in RESULT_LAYER_METRICS.items()}
    return result, lines, {n: {"unit": u, **s} for n, (s, u) in stats.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="spgraphs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--op-timeout", type=float, default=OP_TIMEOUT_S,
                        help="seconds one measured operation may take")
    parser.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                        help="committed output digests to check against")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests in --digests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that run_proc kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "spgraphs", "__init__.py")):
        print(f"error: no spgraphs sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    # Every child inherits this: calibration samples and the work they
    # scale must run on the same CPU, since each vCPU changes speed on its own.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(args)
    os.makedirs(bench.workdir, exist_ok=True)
    try:
        bench.setup(1)
        if args.trace:
            startup = bench.startup()
            _, replays = bench.measure(args.seconds, traced=True)
            result, lines, detail = traced_metrics(bench, startup, replays)
        else:
            reps, _ = bench.measure(args.seconds, traced=False)
            result, lines, detail = untraced_metrics(bench, reps)
    except SetupError as err:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    failed = len(bench.failures)
    lines.append(f"failed_ratio = {failed / bench.attempted:.6g} ratio "
                 f"({failed} of {bench.attempted} operations)")
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args), "metrics": detail,
              "attempted": bench.attempted, "failed": failed,
              "failures": bench.failures, "digests": bench.first_digests}
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if args.trace:
        with open(os.path.join(RESULTS, stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump([spans for _, spans in replays], fh)
    if args.record_digests and not bench.failures:
        store = {}
        if os.path.exists(args.digests):
            with open(args.digests, encoding="utf-8") as fh:
                store = json.load(fh)
        store[bench.digest_key] = bench.first_digests
        with open(args.digests, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for failure in bench.failures:
        print(f"{args.workload} FAILED {failure}")
    for line in lines:
        print(f"{args.workload} {line}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
