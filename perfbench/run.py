"""amp-lab benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload W [--seed S] [--seconds N] [--trace 0|1]

Run it from the root of a source checkout (the directory that holds
src/amp_lab); it builds nothing and runs the program from src/.  Workloads:

  spiked-mp        `amp-lab run` on the headline spiked MP(0.2) experiment
  unfolding-exact  a library session that runs and verifies RI-AMP,
                   RI-AMP-DF and RI-AMP-MP at the horizon cap T=10

With --trace 0 each run starts the workload's process again and again
until --seconds have passed (at least once), checks every output, and
reports the medians of wall_s, cpu_s and peak_rss_mb over the processes
that exited 0, and of setup_s over SETUP_REPEATS fresh set-up processes,
half timed before the workload's processes and half after.  With --trace 1
it runs the workload once untraced and once through perfbench/child.py
with spans wrapped around amp_lab's calls between layers, checks that both
wrote the same bytes, and reports the per-layer figures.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

The program runs with one BLAS thread per worker (PROGRAM_THREADS) and its
default seed-worker count: AMP_LAB_THREADS is removed from its environment,
and the inherited values of all three thread variables are printed with the
rest of the environment.  With OpenBLAS's default of one thread per core
the program's times measure the scheduler: on 2 cores one competing busy
thread doubles them (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass

import checks
import child
from checks import Check

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = ".perfbench_work"
THREAD_VARS = ("AMP_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
PROGRAM_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 170.0

SPIKED_CONFIG = {
    "law": "mp:alpha=0.2", "N": 2000, "T": 6, "theta": 1.5, "omega": 0.3,
    "runs": 2, "algo": "ri-amp-mp", "denoiser": "linear-mmse-combining",
    "matrix_fn": "mp-denoise", "prior": "rademacher", "mc_samples": 2_000_000,
}
SESSION = {"N": 1000, "T": 10, "seeds_per_law": 4}

PER_LAYER_SPANS = {
    "import_s": "import",
    "cli.config_s": "cli.config",
    "laws.parse_s": "laws.parse",
    "laws.quantile_grid_s": "laws.quantile_grid",
    "se.nu_measure_s": "se.nu_measure",
    "randmat.haar_s": "randmat.haar",
    "engines.decompose_s": "engines.decompose",
    "engines.run_s": "engines.run",
    "engines.verify_s": "engines.verify",
}
PER_LAYER_COUNTS = ("randmat.haar_calls", "engines.steps", "engines.verify_calls")


@dataclass
class Proc:
    """One finished child process and what it used."""

    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PROGRAM_THREADS)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, log_dir: str) -> Proc:
    """Run argv to its end; wall time from spawn to exit, CPU and peak RSS
    of that process alone (os.wait4)."""
    os.makedirs(log_dir, exist_ok=True)
    out_path = os.path.join(log_dir, "stdout")
    err_path = os.path.join(log_dir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=program_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, stdout, stderr)


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "amp_lab.cli", *args]


def child_argv(*args) -> list:
    return [sys.executable, CHILD, *args]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One set of inputs.  Each process of the program stands for the
    operations in `ops` (seeds, SE invocations, verified runs); those are
    what `attempted` and `failed` count."""

    name = ""
    outputs: tuple = ()  # files compared byte for byte with the traced run's
    ops: dict = {}

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.inputs = os.path.join(work, "inputs")
        os.makedirs(self.inputs)
        self.write_inputs()

    def write_inputs(self) -> None:
        raise NotImplementedError

    def cli_args(self, out: str) -> list:
        """The `amp-lab` arguments of the workload's process."""
        raise NotImplementedError

    def argv(self, out: str) -> list:
        return cli_argv(*self.cli_args(out))

    def traced_argv(self, out: str, spans: str) -> list:
        return child_argv("cli", "--spans", spans, "--", *self.cli_args(out))

    def check(self, out: str) -> tuple[list[Check], dict]:
        """Checks on one finished process; returns (checks, failed ops)."""
        return [], {}


class SpikedMp(Workload):
    name = "spiked-mp"
    outputs = ("mse.csv", "se.csv")
    ops = {"seeds": SPIKED_CONFIG["runs"], "se_invocations": 1}

    def write_inputs(self):
        write_json(os.path.join(self.inputs, "config.json"),
                   dict(SPIKED_CONFIG, seed_base=self.seed))

    def cli_args(self, out):
        return ["run", "--config", os.path.join(self.inputs, "config.json"), "--out", out]

    def check(self, out):
        meta = json.loads(read(os.path.join(out, "meta.json")))
        found = checks.spiked_run_checks(read(os.path.join(out, "mse.csv")),
                                         read(os.path.join(out, "se.csv")), meta,
                                         SPIKED_CONFIG["runs"], SPIKED_CONFIG["N"])
        return found, {"seeds": int(meta.get("seeds_divergent", 0))}


class UnfoldingExact(Workload):
    name = "unfolding-exact"
    outputs = ("unfolding.csv",)
    ops = {"runs_verified": len(child.SESSION_LAWS) * SESSION["seeds_per_law"] * 3}

    def write_inputs(self):
        write_json(os.path.join(self.inputs, "session.json"), dict(SESSION, seed=self.seed))

    def argv(self, out):
        return child_argv("session", "--inputs", self.inputs, "--out", out)

    def traced_argv(self, out, spans):
        return self.argv(out) + ["--spans", spans]

    def check(self, out):
        return checks.unfolding_report_checks(read(os.path.join(out, "unfolding.csv"))), {}


WORKLOADS = {w.name: w for w in (SpikedMp, UnfoldingExact)}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.checks: list[Check] = []
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def add(self, found, attempted: dict, failed: dict, prefix: str = "") -> None:
        for c in found:
            c.name = prefix + c.name
        self.checks += found
        self.attempted.update(attempted)
        self.failed.update(failed)

    @property
    def correct(self) -> bool:
        return all(c.passed for c in self.checks if c.gate)

    def report(self) -> None:
        for c in self.checks:
            mark = "ok" if c.passed else ("FAIL" if c.gate else "outside (not gated)")
            print(f"check {c.name}: {mark}  {c.detail}")
        for kind, n in sorted(self.attempted.items()):
            print(f"operations {kind}: attempted {n}, failed {self.failed[kind]}")
        print(f"checks: {sum(not c.passed for c in self.checks if c.gate)} of "
              f"{sum(c.gate for c in self.checks)} gated checks failed")


def run_op(wl: Workload, out: str, tally: Tally, label: str) -> Proc:
    p = spawn(wl.argv(out), out)
    print(f"{label}: exit {p.rc}, wall {p.wall_s:.3f} s, cpu {p.cpu_s:.3f} s, "
          f"peak rss {p.peak_rss_mb:.1f} MB")
    if p.rc != 0:
        sys.stdout.write(p.stderr.decode(errors="replace")[-2000:])
        tally.add([checks.exit_check(label + "/exit_code", p.rc)], wl.ops, wl.ops)
    else:
        found, failed = wl.check(out)
        tally.add(found, wl.ops, failed, prefix=label + "/")
    return p


def setup_times(wl: Workload, work: str, first: int, n: int) -> list[float]:
    times = []
    for i in range(first, first + n):
        p = spawn(child_argv("setup", "--workload", wl.name, "--inputs", wl.inputs),
                  os.path.join(work, f"setup{i}"))
        if p.rc != 0:
            raise RuntimeError("set-up probe failed:\n" + p.stderr.decode(errors="replace"))
        times.append(float(p.stdout.decode().split()[-1]))
    print("setup probes: " + ", ".join(f"{t:.3f} s" for t in times))
    return times


def untraced(wl: Workload, work: str, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    # half the set-up probes before the workload and half after, so that
    # they see more than one phase of the machine's speed
    setup = setup_times(wl, work, 0, SETUP_REPEATS // 2)
    procs = []
    start = time.perf_counter()
    while not procs or time.perf_counter() - start < seconds:
        k = len(procs)
        procs.append(run_op(wl, os.path.join(work, f"op{k}"), tally, f"op{k}"))
        if k > 0 and procs[k].rc == 0 and procs[0].rc == 0:
            for name in wl.outputs:
                tally.add([checks.same_bytes(f"op{k}/{name}_equals_op0",
                                             read(os.path.join(work, "op0", name)),
                                             read(os.path.join(work, f"op{k}", name)))], {}, {})
    setup += setup_times(wl, work, len(setup), SETUP_REPEATS - len(setup))
    ok = [p for p in procs if p.rc == 0]
    if not ok:
        return tally, {}
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in ok), "s", len(ok)),
        "cpu_s": (statistics.median(p.cpu_s for p in ok), "s", len(ok)),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in ok), "MB", len(ok)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    return tally, metrics


def nested_time(spans: list, outer: str, inner: str) -> float:
    """Summed time of `inner` spans whose direct parent is an `outer` span."""
    outer_ids = {s["id"] for s in spans if s["name"] == outer}
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == inner and s["parent"] in outer_ids)


def traced(wl: Workload, work: str) -> tuple[Tally, dict]:
    tally = Tally()
    base = run_op(wl, os.path.join(work, "untraced"), tally, "untraced")
    out = os.path.join(work, "traced")
    spans_path = os.path.join(work, "spans.json")
    p = spawn(wl.traced_argv(out, spans_path), out)
    print(f"traced: exit {p.rc}, wall {p.wall_s:.3f} s")
    if p.rc != 0 or base.rc != 0:
        sys.stdout.write(p.stderr.decode(errors="replace")[-2000:])
        tally.add([Check("traced_run_completed", False, "per-layer figures invalid")],
                  wl.ops, wl.ops)
        return tally, {}
    tally.add([], wl.ops, {})
    for name in wl.outputs:
        tally.add([checks.same_bytes(f"traced/{name}_equals_untraced",
                                     read(os.path.join(work, "untraced", name)),
                                     read(os.path.join(out, name)))], {}, {})
    if not tally.correct:
        print("per-layer figures INVALID: the traced run's outputs differ from the untraced run's")
    with open(spans_path) as fh:
        trace = json.load(fh)
    busy = {}
    for s in trace["spans"]:
        busy[s["name"]] = busy.get(s["name"], 0.0) + (s["end"] - s["start"])
    metrics = {m: (busy.get(span, 0.0), "s", 1) for m, span in PER_LAYER_SPANS.items()}
    # spiked_se computes nu itself; the recursion is the rest of its time
    metrics["se.recursion_s"] = (busy.get("se.spiked_se", 0.0)
                                 - nested_time(trace["spans"], "se.spiked_se", "se.nu_measure"),
                                 "s", 1)
    metrics["se.rss_hwm_mb"] = (trace["values"].get("se.rss_hwm_mb", 0.0), "MB", 1)
    for name in PER_LAYER_COUNTS:
        metrics[name] = (trace["counts"].get(name, 0), "count", 1)
    metrics["tracing_overhead_s"] = (p.wall_s - base.wall_s, "s", 1)
    return tally, metrics


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"cpu_count": os.cpu_count(), "python": sys.version.split()[0],
           "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    env.update({v: os.environ.get(v) for v in THREAD_VARS})
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "amp_lab", "__init__.py")):
        print(f"perfbench: no amp_lab source at {os.path.abspath('src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment (thread variables are inherited values; the program runs with "
          + json.dumps(PROGRAM_THREADS) + "): " + json.dumps(environment()))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            tally, metrics = traced(wl, work)
        else:
            tally, metrics = untraced(wl, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    tally.report()
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f" (median of {n})" if n > 1 else ""))
    print(json.dumps({
        "correct": tally.correct and bool(metrics),
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
