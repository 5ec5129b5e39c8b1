"""Self-test of the benchmark at tiny replication counts.

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced with the same seed and
fails unless the two outputs are bit-identical (the tracing wrappers must not
change any sample path), every per-layer metric of BENCHMARK.json is
produced, and on the single-process workloads the layer self-times plus the
unattributed remainder add up to the traced job time.  The exact targets are
checked against their reference values first.  The output checks are run and
reported but not required to pass: at these sizes the Bayes limit cannot yet
separate eq4 from eq3.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20240824


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import exact
    import tracer
    import workloads

    exact.check_reference()
    targets = workloads.exact_targets()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_s"}
    problems = []
    for name, wl in workloads.WORKLOADS.items():
        plain = wl.run(SEED, workloads.TINY)
        tr = tracer.Tracer()
        t0 = time.perf_counter()
        with tr.install():
            traced = wl.run(SEED, workloads.TINY)
        job_s = time.perf_counter() - t0
        metrics = tr.metrics(job_s)
        checks = wl.check(traced, targets)
        failed = [c for c in checks if not c[1]]
        if traced != plain:
            problems.append(f"{name}: traced output differs from untraced output")
        missing = wanted - set(metrics)
        if missing:
            problems.append(f"{name}: per-layer metrics missing: {sorted(missing)}")
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        if abs(layer_sum + metrics["trace.unattributed_s"] - job_s) > 1e-9:
            problems.append(f"{name}: layer self-times do not add up to job time")
        print(f"{name}: traced job {job_s:.3f} s, layers {layer_sum:.3f} s, "
              f"unattributed {metrics['trace.unattributed_s']:.4f} s, "
              f"{len(checks) - len(failed)}/{len(checks)} output checks pass"
              + "".join(f"\n  not passing: {c[0]}: {c[2]}" for c in failed))
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
