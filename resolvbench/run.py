"""resolvlab benchmark: each workload as cold processes, end to end or traced.

    python3 resolvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a resolvlab checkout.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  README.md in this
directory gives the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import CONFIG_SPAN, LAYERS  # noqa: E402
from tracer import summarize  # noqa: E402

CONFIG = os.path.join("configs", "baseline.cfg")
REQUIRED = (os.path.join("src", "resolvlab", "cli.py"), CONFIG)
WORK_DIR = ".resolvbench"
CHILD = os.path.join(HERE, "child.py")
SOLVE2D = os.path.join(HERE, "solve2d.py")

THREADS = 2          # --threads of the end-to-end runs: nproc of the 2-core reference box
TRACE_THREADS = 1    # traced runs: one thread, so spans nest and never overlap
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBES_PER_PASS = 3
RUN_BUDGET_S = 170.0  # a child still running past this is killed; runs must end in 180 s

# Commands each workload runs, one cold process each, in this order.
WORKLOADS = {
    "symbol-scan": ("verify-symbols",),
    "resolvent-2d": ("solve-2d",),
    "pipeline-1d": ("solve", "bent", "rbound", "evolve", "scan-nab"),
}
CLI_COMMANDS = ("solve", "verify-symbols", "scan-nab", "rbound", "evolve", "bent")
# Verdicts per command when the benchmark was defined; used only while no
# run of the command has left a usable report to count from.
EXPECTED_VERDICTS = {"verify-symbols": 30, "solve-2d": 5, "solve": 5, "bent": 5,
                     "rbound": 3, "evolve": 4, "scan-nab": 3}
RESIDUAL_PREFIXES = ("residual.", "bent.residual.", "evolve.t=")


def seed_dependent(verdict_name: str) -> bool:
    """verify-symbols' refinement checks.

    When the benchmark was defined, which of them fail depends on the seed
    (0 to 7 of 15, from the sampled sup estimate), so they are kept out of
    ``passed_frac``, whose median over seeds must stay steady; they still
    count in ``failed`` and ``failed_frac``.
    """
    return verdict_name.startswith("scan.") and verdict_name.endswith(".refinement")


END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("passed_frac", "fraction"))


def command_wall_name(command: str) -> str:
    return f"{'driver' if command == 'solve-2d' else 'cli'}.{command}.wall_s"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in output order, with its unit."""
    names = []
    for module, paths in LAYERS.items():
        for path in paths:
            if f"{module}.{path}" != CONFIG_SPAN:
                names += [(f"{module}.{path}.calls", "count"),
                          (f"{module}.{path}.self_s", "s")]
    names += [("symbols.points", "count"), ("scans.points_per_sample", "ratio"),
              ("halfspace.solve_lame_bvp.modes", "count"),
              ("evolution.resolvent_solves", "count"), ("bent.iterations", "count"),
              ("fieldio.bytes", "B"), ("config.load_s", "s"), ("cli.import_s", "s")]
    names += [(command_wall_name(c), "s") for c in CLI_COMMANDS + ("solve-2d",)]
    names += [("verification.residual_digits", "digits"), ("failed_frac", "fraction"),
              ("trace.overhead_frac", "fraction"), ("trace.coverage_frac", "fraction")]
    return names


# ---------------------------------------------------------------------------
# cold processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    command: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: dict | None = None


def child_env() -> dict:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def spawn(argv, log_path, deadline):
    """Run argv to completion: (exit code, wall s, user+sys CPU s, peak RSS MB).

    The child is reaped with wait4 for its own rusage, and killed when
    the deadline passes (exit code then negative).
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env())
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def command_argv(command, out_dir, seed, threads, spans=None):
    args = ["--config", CONFIG, "--out", out_dir, "--seed", str(seed),
            "--threads", str(threads)]
    if command == "solve-2d":
        target = ["solve2d"] + args
        plain = [SOLVE2D] + args
    else:
        target = ["cli", command] + args
        plain = ["-m", "resolvlab.cli", command] + args
    if spans is None:
        return [sys.executable] + plain
    return [sys.executable, CHILD, "traced", spans] + target


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_outcome(out_dir):
    """(verdicts, fingerprint) of a finished command, or None if unusable.

    The fingerprint covers report.json without wallTime and gitDescribe,
    and the bytes of every .bin artifact.
    """
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    verdicts = report.get("verdicts") if isinstance(report, dict) else None
    if not isinstance(verdicts, list) or not all(
            isinstance(v, dict) and isinstance(v.get("passed"), bool) for v in verdicts):
        return None
    report.pop("wallTime", None)
    report.pop("gitDescribe", None)
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".bin"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return verdicts, json.dumps([report, digests], sort_keys=True)


def score(rc, outcome, expected, reference):
    """(attempted, failed, sound) operations of one command run.

    An operation is one verdict.  A run that crashed, exited with other
    than 0 or 4, left no usable report, contradicts its own exit status,
    or differs from the command's reference run fails every verdict and
    is unsound; ``expected`` is the count when there are none to count.
    """
    if rc not in (0, 4) or outcome is None:
        return expected, expected, False
    verdicts, fingerprint = outcome
    n = len(verdicts)
    n_failed = sum(not v["passed"] for v in verdicts)
    if (rc == 4) != (n_failed > 0) or (reference is not None and fingerprint != reference):
        return n, n, False
    return n, n_failed, True


class Ledger:
    """Operations of one benchmark run.

    Every pass repeats the same commands on the same inputs, so each
    command's verdicts are counted once, from its first run: ``attempted``
    and ``failed`` depend on the seed alone, not on how many passes fit
    into ``--seconds``.  The command's first sound run is the reference
    every later run must reproduce; a command with any unsound run fails
    all its verdicts.
    """

    def __init__(self):
        self.counts: dict[str, list[int]] = {}  # command -> [attempted, failed, excused]
        self.sound = True
        self.reference: dict[str, str] = {}
        self.residuals: list[float] = []

    def record(self, command, rc, out_dir) -> bool:
        outcome = read_outcome(out_dir)
        first = command not in self.counts
        expected = EXPECTED_VERDICTS[command] if first else self.counts[command][0]
        attempted, failed, sound = score(rc, outcome, expected,
                                         self.reference.get(command))
        if first:
            self.counts[command] = [attempted, failed, 0]
        counts = self.counts[command]
        if not sound:
            self.sound = False
            counts[1:] = [counts[0], 0]
            return False
        if command not in self.reference:
            verdicts, self.reference[command] = outcome
            if first:  # excused: failed seed-dependent verdicts of a sound command
                counts[2] = sum(not v["passed"] and seed_dependent(v["name"])
                                for v in verdicts)
            self.residuals += [math.log10(v["tolerance"] / max(v["value"], sys.float_info.min))
                               for v in verdicts if v["name"].startswith(RESIDUAL_PREFIXES)
                               and math.isfinite(v["value"])]
        return True

    @property
    def attempted(self) -> int:
        return sum(c[0] for c in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(c[1] for c in self.counts.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / max(self.attempted, 1)

    @property
    def passed_frac(self) -> float:
        """1 - failed / attempted, not counting seed-dependent verdicts that
        failed in sound runs: 1.0 at the commit that defined the benchmark,
        and at most 1 - 1/30 after one more verdict fails."""
        excused = sum(c[2] for c in self.counts.values())
        return 1.0 - (self.failed - excused) / max(self.attempted, 1)


def run_pass(ledger, work, commands, seed, threads, deadline, traced=False):
    """Each command once, as a cold process; returns their Procs."""
    procs = []
    for command in commands:
        out = tempfile.mkdtemp(prefix=f"{command}-", dir=work)
        spans = os.path.join(out, "spans.json") if traced else None
        log = os.path.join(out, "log.txt")
        rc, wall, cpu, rss = spawn(command_argv(command, out, seed, threads, spans),
                                   log, deadline)
        proc = Proc(command, rc, wall, cpu, rss)
        if not ledger.record(command, rc, out):
            with open(log) as fh:
                tail = fh.read()[-2000:]
            print(f"{command}: exit {rc}, outputs rejected\n{tail}", file=sys.stderr)
        if traced and os.path.exists(spans):
            with open(spans) as fh:
                proc.trace = json.load(fh)
        shutil.rmtree(out)
        procs.append(proc)
    return procs


def setup_probe(ledger, work, commands, deadline) -> float:
    """Wall time of one cold process that only does the workload's set-up."""
    log = os.path.join(work, "setup.txt")
    rc, wall, _, _ = spawn([sys.executable, CHILD, "setup", CONFIG, *commands],
                           log, deadline)
    if rc != 0:
        ledger.sound = False
        with open(log) as fh:
            print(f"set-up probe: exit {rc}\n{fh.read()[-2000:]}", file=sys.stderr)
    return wall


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setups, ledger) -> dict:
    return {
        "wall_s": statistics.median(sum(p.wall_s for p in ps) for ps in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(sum(p.cpu_s for p in ps) for ps in passes),
        "peak_rss_mb": max(p.rss_mb for ps in passes for p in ps),
        "passed_frac": ledger.passed_frac,
    }


def traced_pass_values(procs) -> dict:
    """Per-layer values of one traced pass, summed over its processes."""
    values: dict[str, float] = {}
    imports, loads, coverage = [], [], []
    for proc in procs:
        if proc.trace is None:
            continue
        spans = summarize(proc.trace["spans"])
        for name, entry in spans.items():
            if name == CONFIG_SPAN:
                loads.append(entry["total_s"])
            elif name.endswith(".main"):
                coverage.append(1.0 - entry["self_s"] / entry["total_s"])
            else:
                values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + entry["calls"]
                values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + entry["self_s"]
        for name, count in proc.trace["counters"].items():
            values[name] = values.get(name, 0) + count
        imports.append(proc.trace["import_s"])
    samples = values.pop("scans.samples", 0)
    values["scans.points_per_sample"] = (values.get("symbols.points", 0) / samples
                                         if samples else 0.0)
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    values["config.load_s"] = statistics.median(loads) if loads else 0.0
    values["trace.coverage_frac"] = min(coverage) if coverage else 0.0
    return values


def per_layer(plain_passes, traced_passes, ledger) -> dict:
    per_pass = [traced_pass_values(ps) for ps in traced_passes]
    for values, plain in zip(per_pass, plain_passes):
        for proc in plain:
            values[command_wall_name(proc.command)] = proc.wall_s
    plain_wall = statistics.median(sum(p.wall_s for p in ps) for ps in plain_passes)
    traced_wall = statistics.median(sum(p.wall_s for p in ps) for ps in traced_passes)
    out = {name: statistics.median(v.get(name, 0) for v in per_pass)
           for name, _ in per_layer_names()}
    out["verification.residual_digits"] = min(ledger.residuals, default=0.0)
    out["failed_frac"] = ledger.failed_frac
    out["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return out


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def git_describe() -> str:
    if not os.path.exists(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(workload, seed, threads) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "threads": threads, "pins": PINS, "blas": blas_id,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "gitDescribe": git_describe()}


def measure(workload, seed, seconds, trace, work):
    """(ledger, metrics) of one run: passes for about ``seconds``, at least one.

    Set-up probes are spread between the passes, so that their median and
    the passes' see the same spells of a shared machine's load.
    """
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    commands = WORKLOADS[workload]
    ledger = Ledger()
    setup_probe(ledger, work, commands, deadline)  # warm-up; also compiles the .pyc files
    setups, plain, traced = [], [], []
    t_end = time.monotonic() + seconds
    while True:
        t_pass = time.monotonic()
        if trace:
            plain.append(run_pass(ledger, work, commands, seed, TRACE_THREADS, deadline))
            traced.append(run_pass(ledger, work, commands, seed, TRACE_THREADS, deadline,
                                   traced=True))
        else:
            setups += [setup_probe(ledger, work, commands, deadline)
                       for _ in range(PROBES_PER_PASS)]
            plain.append(run_pass(ledger, work, commands, seed, THREADS, deadline))
        now = time.monotonic()
        took = now - t_pass
        # stop when the next pass would end more than half a pass past t_end
        if now + 0.5 * took >= t_end or now + 1.5 * took > deadline:
            break
    metrics = per_layer(plain, traced, ledger) if trace else end_to_end(plain, setups, ledger)
    return ledger, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"not a resolvlab checkout (missing {missing}); run from its root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        ledger, metrics = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    units = dict(per_layer_names() if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    threads = TRACE_THREADS if args.trace else THREADS
    print(json.dumps({"environment": environment(args.workload, args.seed, threads)}))
    print(json.dumps({
        "correct": ledger.sound, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
