"""Benchmark of the ``qcl`` command line, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Workloads are ``ladder``, ``budget`` and ``dynamics`` (see README.md in
this directory).  Every command is a ``qcl`` subcommand called in process
through ``qconsensus.cli.main`` with its output captured and checked.

``--trace 0`` measures the end-to-end metrics untraced: cold starts of a
fresh interpreter for ``setup_s``, then passes through the workload's
command list in one warm process for ``--seconds`` seconds.  ``--trace 1``
runs a traced, an untraced and a traced pass and reports the per-layer
metrics of the last one; the two traced passes must agree on every exact
count.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

# One BLAS thread, set before numpy loads OpenBLAS.  On two cores the
# second thread gave the ladder's solves no speed-up, and it made every
# timing depend on the load of the other core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cold import MARKER  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_COLD_STARTS = 7  # setup_s is the median of at least this many launches
COLD_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "slowest_cmd_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _units(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "linalg.eigvals.n3_sum":
        return "n3-computed"
    if name in ("linalg.matrices_per_call", "quantum.fit_rel_dev.max"):
        return "ratio"
    return "count"


def import_cli():
    """Import ``qconsensus.cli`` from this checkout's ``src`` or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "qconsensus", "cli.py")):
        sys.exit("perfbench: no src/qconsensus/cli.py here; run from the repository root")
    sys.path.insert(0, SRC)
    import qconsensus.cli

    where = os.path.dirname(os.path.abspath(qconsensus.cli.__file__))
    if where != os.path.join(SRC, "qconsensus"):
        sys.exit(f"perfbench: imported qconsensus from {where}, not from {SRC}")
    return qconsensus.cli


def run_command(cli, cmd, tracer=None, cmd_id=0):
    """One in-process ``qcl`` call: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(list(cmd.argv))
            else:
                rc = tracer.command(cmd_id, f"cli.{cmd.argv[0]}", cli.main, list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            rc = -1
    seconds = perf_counter() - t0
    if rc != 0:
        print(f"perfbench: {' '.join(cmd.argv)} exited {rc}:\n{err.getvalue()}",
              file=sys.stderr)
    return rc, out.getvalue(), seconds


def run_pass(cli, commands, tracer=None):
    """All commands once; returns (wall seconds, per-command seconds, results)."""
    raw, times = [], []
    t0 = perf_counter()
    for i, cmd in enumerate(commands):
        rc, stdout, seconds = run_command(cli, cmd, tracer, i)
        raw.append((rc, stdout))
        times.append(seconds)
    wall = perf_counter() - t0
    results = []
    for cmd, (rc, stdout) in zip(commands, raw):
        text = None
        if cmd.out is not None and rc == 0:
            with open(cmd.out, encoding="utf-8") as fh:
                text = fh.read()
        results.append((rc, stdout, text))
    return wall, times, results


def cold_start(probe):
    """Seconds from launching a fresh interpreter to the probe's answer."""
    env = {k: v for k, v in os.environ.items() if k != "QCL_THREADS"}
    argv = [sys.executable, os.path.join(HERE, "cold.py"), *probe.argv]
    lines, answered, rc = [], None, None
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env, cwd=ROOT) as proc:
        try:
            for line in proc.stdout:
                if line.startswith(MARKER):
                    answered = perf_counter() - t0
                    rc = int(line.split()[-1])
                else:
                    lines.append(line)
            proc.wait(timeout=COLD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if answered is None:
        rc = proc.returncode or -1
    return answered, rc, "".join(lines)


def blas_record():
    """BLAS library and thread count, read from the loaded OpenBLAS."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    record["threads"] = fn()
                    return record
    return record


def git_commit():
    """HEAD of the checkout, or a note when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(args):
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_record(),
        "qcl_threads": os.environ.get("QCL_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def warm_up(cli, wl, checker):
    """The probe, in process: the BLAS warm-up belongs to setup_s, not wall_s."""
    rc, stdout, _ = run_command(cli, wl.probe)
    return checker.check_pass([wl.probe], [(rc, stdout, None)])


def measure(cli, wl, seconds, checker):
    """Untraced end-to-end run; returns (metrics, attempted, problems).

    Cold starts are spread over the run (a few before the first pass, one
    after each pass, the rest at the end), so that ``setup_s`` samples
    the machine over the same stretch of time as ``wall_s`` does.
    """
    problems = []
    cold = []

    def sample_cold_start(timed=True):
        answered, rc, stdout = cold_start(wl.probe)
        problems.extend(checker.check_pass([wl.probe], [(rc, stdout, None)]))
        if timed and answered is not None:
            cold.append(answered)

    sample_cold_start(timed=False)  # fills the bytecode and file caches
    for _ in range(MIN_COLD_STARTS // 2):
        sample_cold_start()
    problems += warm_up(cli, wl, checker)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(cli, wl.commands))
        sample_cold_start()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(MIN_COLD_STARTS - len(cold)):
        sample_cold_start()
    if not cold:
        sys.exit("perfbench: no cold start answered its probe command")
    for _, _, results in passes:
        problems += checker.check_pass(wl.commands, results)
    metrics = {
        "wall_s": statistics.median(p[0] for p in passes),
        "slowest_cmd_s": statistics.median(max(p[1]) for p in passes),
        "setup_s": statistics.median(cold),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"passes: {len(passes)} of {len(wl.commands)} commands; "
          f"cold starts: {len(cold)}")
    return metrics, len(problems), problems  # one entry per command attempted


def traced_pass(cli, wl, checker):
    """One pass with every layer wrapped; returns (tracer, wall, problems, metrics)."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        wall, _, results = run_pass(cli, wl.commands, tracer)
    finally:
        tracer.uninstall()
    checker.fit_rel_devs.clear()
    problems = checker.check_pass(wl.commands, results)
    return tracer, wall, problems, spans.layer_metrics(tracer, checker.fit_rel_devs)


def measure_traced(cli, wl, checker, spans_path):
    """Traced, untraced, traced; returns (metrics, attempted, problems).

    The metrics are the second traced pass's, so the first pass absorbs
    the warm-up of a fresh process; its exact counts must match.
    """
    problems = warm_up(cli, wl, checker)
    _, _, found, first = traced_pass(cli, wl, checker)
    problems += found
    untraced_wall, _, results = run_pass(cli, wl.commands)
    problems += checker.check_pass(wl.commands, results)
    tracer, wall, found, metrics = traced_pass(cli, wl, checker)
    problems += found
    for key in spans.EXACT:
        if first[key] != metrics[key]:
            problems.append([f"determinism: {key} {first[key]} then {metrics[key]}"])
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(spans_path)
    print(f"spans: {spans_path}")
    return metrics, 1 + 3 * len(wl.commands), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    os.environ.pop("QCL_THREADS", None)  # single caller, single-threaded scans
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        checker = oracle.Checker()
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
            metrics, attempted, problems = measure_traced(cli, wl, checker, spans_path)
        else:
            metrics, attempted, problems = measure(cli, wl, args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env: " + json.dumps(environment(args), sort_keys=True))
    failed_cmds = [p for p in problems if p]
    for p in failed_cmds:
        print("perfbench: check failed: " + "; ".join(p), file=sys.stderr)
    failed = len(failed_cmds)
    units = END_TO_END_UNITS if not args.trace else {k: _units(k) for k in metrics}
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    print(f"fail_ratio: {failed / attempted!r} (base: {attempted} commands attempted)")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
