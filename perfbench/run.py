"""qdetect benchmark: one workload, one measured run, one JSON result line.

    python3 perfbench/run.py --workload bayes-limit --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats the workload's job, with the same seed, until the
next pass would end after ``--seconds``, checks every pass against exact
targets, and prints the metrics as the last line of standard output:

* ``--trace 0``: ``setup_s``, ``job_s``, ``time_to_target_s``, ``peak_rss_mb``
  (end to end, tracing off; times scaled to a reference speed measured by a
  calibration loop around each pass, see :func:`at_reference_speed`);
* ``--trace 1``: the per-layer metrics of :mod:`tracer`, from traced passes
  alternated with untraced ones, whose difference is ``trace.overhead_s``.

Each pass runs in a child forked from this process once the package is
imported, so every pass starts from the same state and the child's peak RSS
is that pass's own.  Each timing and ``peak_rss_mb`` is the median over the
run's passes; the lines before the result give its quartiles and sample
count.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30

# A fresh interpreter imports the package and finishes one one-chunk estimate.
PROBE = """
import sys
sys.path.insert(0, {src!r})
from qdetect import headstart, montecarlo, rng
a = 1.5
montecarlo.estimate_e1_delay(a, headstart.HeadStartLaw.yakir(a), rng.CHUNK_SIZE, {seed})
"""


# The end-to-end times are reported at the speed at which this loop takes
# REFERENCE_CALIBRATION_S.  On a shared host the speed of a core drifts by 15%
# and more over minutes, with other tenants' load; the loop, timed in this
# process just before and just after each pass, measures that drift, and the
# pass time is scaled by it.  The value is fixed: about what the loop took on
# the 2-core VM where the baseline in README.md was measured.
REFERENCE_CALIBRATION_S = 0.13
_CALIBRATION_BASE = np.linspace(0.01, 0.99, 1 << 18)


def calibration_s() -> float:
    """Seconds this process takes for a fixed loop shaped like the package's
    kernels: numpy steps on a shrinking 2^18-element array, the chunk size,
    and a pure-Python loop."""
    t0 = time.perf_counter()
    for _ in range(8):
        r = _CALIBRATION_BASE.copy()
        idx = np.arange(r.size)
        for step in range(6):
            x = -np.log(_CALIBRATION_BASE[:r.size])
            r = (r + 1.0) * (2.0 * np.exp(-x)) / 1.01
            keep = r < 1.5 + step
            idx = idx[keep]
            r = r[keep]
        total = 0
        for i in range(30_000):
            total += i * i
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` measured between two calibrations, scaled to the reference speed."""
    return seconds * REFERENCE_CALIBRATION_S / ((cal_before + cal_after) / 2.0)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(seed: int) -> tuple:
    """Wall times of the set-up probes, and the same at the reference speed."""
    code = PROBE.format(src=str(SRC), seed=seed)
    wall, scaled = [], []
    cal = calibration_s()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       timeout=PROBE_TIMEOUT_S)
        dt = time.perf_counter() - t0
        cal_before, cal = cal, calibration_s()
        wall.append(dt)
        scaled.append(at_reference_speed(dt, cal_before, cal))
    return wall, scaled


def peak_rss_mb() -> float:
    """Peak RSS of this process, in MB.

    In a pass's child this is the state it was forked from plus what the pass
    added.  Pool children are left out: a forked child's RSS counts the pages
    it shares with its parent, while its own arrays are one chunk's worth
    (``rng.ipc_bytes`` counts what they send back).
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_forked(task):
    """Run ``task()`` in a forked child and return what it returns.

    The child starts from this process's imported state, as the package's
    own fork-started pools do.  It sends its result back pickled through a
    pipe and exits without running any exit handler.  The child is always
    waited for.  It leads a process group of its own, which its pool workers
    join; if this process is interrupted first, the whole group is killed
    and the child waited for.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then exit without returning
        status = 1
        try:
            os.setpgid(0, 0)
            os.close(read_fd)
            try:
                result = (True, task())
                status = 0
            except BaseException:
                result = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(result, fh)
        finally:
            os._exit(status)
    os.setpgid(pid, pid)  # also here, so the group exists before any kill
    os.close(write_fd)
    reaped = False
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"pass child died without a result (wait status {status})")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"pass failed in its child:\n{value}")
    return value


def untraced_pass(wl, seed, sizes):
    t0 = time.perf_counter()
    out = wl.run(seed, sizes)
    return time.perf_counter() - t0, out, peak_rss_mb()


def traced_pass(wl, seed, sizes, make_tracer):
    tr = make_tracer()
    t0 = time.perf_counter()
    with tr.install():
        out = wl.run(seed, sizes)
    dt = time.perf_counter() - t0
    return dt, out, tr.metrics(dt), tr.spans


def run_passes(wl, seed, seconds, sizes, targets, make_tracer=None):
    """Repeat the job, each pass in its own child, until the next pass would
    overrun ``seconds``.

    Returns (untraced (time, output, peak RSS, time at reference speed)
    quadruples, traced (time, output, metrics, spans) quadruples, checks
    attempted, checks failed).  With ``make_tracer`` the passes alternate
    traced and untraced, starting traced.
    """
    trace = make_tracer is not None
    untraced, traced = [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    cal = calibration_s()
    while True:
        gc.collect()
        if trace and len(traced) <= len(untraced):
            result = run_forked(lambda: traced_pass(wl, seed, sizes, make_tracer))
            cal = calibration_s()
            traced.append(result)
        else:
            result = run_forked(lambda: untraced_pass(wl, seed, sizes))
            cal_before, cal = cal, calibration_s()
            untraced.append((*result, at_reference_speed(result[0], cal_before, cal)))
        dt, out = result[:2]
        checks = wl.check(out, targets)
        if first is None:
            first = out
        else:
            checks.append(("same output as first pass", out == first,
                           "bit-identical" if out == first else "outputs differ"))
        attempted += len(checks)
        for name, ok, detail in checks:
            if not ok:
                failed += 1
                print(f"FAIL {wl.name}: {name}: {detail}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        enough = bool(untraced) and (bool(traced) or not trace)
        if enough and elapsed + dt > seconds:
            return untraced, traced, attempted, failed


def summary(name, unit, values):
    q1, q2, q3 = quartiles(values)
    print(f"{name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n = {len(values)})")
    return q2


def write_spans(name, seed, traced):
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{name}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, (_, _, _, spans) in enumerate(traced):
            for span in spans:
                fh.write(json.dumps([i, *span]) + "\n")
    return path


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through run_forked, which kills the pass in flight
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdetect" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a qdetect checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import exact
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    exact.check_reference()
    targets = workloads.exact_targets()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    untraced, traced, attempted, failed = run_passes(
        wl, args.seed, args.seconds, workloads.FULL, targets,
        tracer.Tracer if args.trace else None)
    times = [dt for dt, _, _, _ in untraced]
    if args.trace:
        rows = [row for _, _, row, _ in traced]
        metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
        metrics["trace.overhead_s"] = (statistics.median(dt for dt, _, _, _ in traced)
                                       - statistics.median(times))
        summary("job_s (untraced)", "s", times)
        summary("job_s (traced)", "s", [dt for dt, _, _, _ in traced])
        print(f"spans written to {write_spans(wl.name, args.seed, traced)}")
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        rss = summary("peak_rss_mb", "MB", [r for _, _, r, _ in untraced])
        summary("job_s (wall)", "s", times)
        scaled = [t for _, _, _, t in untraced]
        job_s = summary("job_s", "s", scaled)
        se = wl.se(untraced[0][1])
        ttt = [t * (se / wl.se_target) ** 2 for t in scaled]
        setup_wall, setup_scaled = measure_setup(args.seed)
        summary("setup_s (wall)", "s", setup_wall)
        metrics = {
            "setup_s": summary("setup_s", "s", setup_scaled),
            "job_s": job_s,
            "time_to_target_s": summary("time_to_target_s", "s", ttt),
            "peak_rss_mb": rss,
        }
        print(f"se = {se:.6g} against {wl.se_target}")
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("MALLOC_ARENA_MAX") != "1":
        # One glibc malloc arena: the pool's result thread then allocates from
        # the main heap, and a pass's peak RSS no longer depends on how much a
        # second, per-thread heap happened to hold when the peak came.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, MALLOC_ARENA_MAX="1"))
    sys.exit(main())
