"""Outside-in tracing of the qdetect layers.

A :class:`Tracer` wraps the public functions of the package modules while it
is installed, recording a span (name, layer, start, end, self time, parent)
for each call made in the process it is installed in.  Nothing inside the
package is edited: the wrappers replace module attributes, which every
internal call looks up at call time, and are removed again on exit.

Chunk kernels may run in pool children, whose spans would be lost.  The
``run_chunked`` wrapper therefore hands the pool a :class:`TimedKernel`,
which appends one row of timings and counters to each chunk's output; the
wrapper strips that row again, so callers receive exactly the arrays the
untraced code returns.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from qdetect import bayes, cli, formulas, headstart, montecarlo, rng

LAYERS = {"rng": rng, "headstart": headstart, "montecarlo": montecarlo,
          "bayes": bayes, "formulas": formulas, "cli": cli}
_LAYER_OF_MODULE = {mod.__name__: layer for layer, mod in LAYERS.items()}

# accumulator slots for work done at chunk level, in this process
SAMPLE_CALLS, SAMPLE_DRAWS, SAMPLE_S, DERIVE_CALLS, DERIVE_S = range(5)

# The tracer installed in this process.  A forked pool child inherits it and
# must know it is a child: its spans would never reach the parent, so there
# it only accumulates chunk-level counters, which TimedKernel ships back.
_ACTIVE = None


def _after_fork_in_child():
    if _ACTIVE is not None:
        _ACTIVE.in_child = True
        _ACTIVE.acc = [0, 0, 0.0, 0, 0.0]


os.register_at_fork(after_in_child=_after_fork_in_child)


class TimedKernel:
    """Chunk kernel wrapper that returns its own timing with the chunk output.

    Appended row: chunk seconds, sampling seconds inside the chunk, count,
    ran-in-child flag, then (children only) the child's accumulator since its
    previous chunk, which includes the ``derive_rng`` call for this chunk.
    """

    def __init__(self, kernel, layer: str):
        self.kernel = kernel
        self.layer = layer

    def __call__(self, gen, count):
        tr = _ACTIVE
        if tr is None:  # not forked from a traced process: time only
            t0 = time.perf_counter()
            out = self.kernel(gen, count)
            row = [time.perf_counter() - t0, 0.0, count, 1.0, 0, 0, 0.0, 0, 0.0]
            return (*out, np.array([row]))
        s0 = tr.acc[SAMPLE_S]
        t0 = time.perf_counter()
        if tr.in_child:
            out = self.kernel(gen, count)
        else:
            with tr.span(f"{self.layer}.kernel", self.layer):
                out = self.kernel(gen, count)
        dt = time.perf_counter() - t0
        row = [dt, tr.acc[SAMPLE_S] - s0, count, float(tr.in_child)]
        if tr.in_child:
            row += tr.acc
            tr.acc = [0, 0, 0.0, 0, 0.0]
        else:
            row += [0, 0, 0.0, 0, 0.0]
        return (*out, np.array([row], dtype=float))


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.in_child = False
        self.spans = []        # (name, layer, start, end, self_s, id, parent)
        self._stack = []       # [name, layer, start, child_s, id]
        self.acc = [0, 0, 0.0, 0, 0.0]
        self.chunks = []       # (layer, seconds, sample seconds, count)
        self.counts = defaultdict(float)
        self._seen_sr = set()
        self._saved = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        sid = len(self.spans) + len(self._stack)
        self._stack.append([name, layer, time.perf_counter(), 0.0, sid])
        try:
            yield
        finally:
            end = time.perf_counter()
            name, layer, start, child_s, sid = self._stack.pop()
            dur = end - start
            parent = self._stack[-1][4] if self._stack else None
            self.spans.append((name, layer, start, end, dur - child_s, sid, parent))
            if self._stack:
                self._stack[-1][3] += dur

    def _wrap(self, fn, layer: str, hook=None, name=None):
        span_name = name or f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_child:
                return fn(*args, **kwargs)
            label = span_name(args) if callable(span_name) else span_name
            with self.span(label, layer):
                result = fn(*args, **kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    @contextmanager
    def install(self):
        """Wrap every public package function for the duration of the block."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        hooks = {
            "sr_replications": self._on_sr_replications,
            "estimate_conditional_delay": self._on_conditional_delay,
            "estimate_bayes_risk": self._on_bayes_risk,
        }
        special = {
            "run_chunked": self._run_chunked_wrapper,
            "derive_rng": lambda fn: self._chunk_level(fn, "rng", DERIVE_CALLS, DERIVE_S),
        }
        try:
            for layer, mod in LAYERS.items():
                if layer == "cli":  # commands dispatch through a dict built
                    continue        # at import, so only main is wrapped
                for name, fn in list(vars(mod).items()):
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    if name in special:
                        self._patch(mod, name, special[name](fn))
                    else:
                        self._patch(mod, name, self._wrap(fn, layer, hooks.get(name)))
            self._patch(cli, "main", self._wrap(
                cli.main, "cli", self._on_cli_main,
                name=lambda args: f"cli.{args[0][0]}"))
            law = headstart.HeadStartLaw
            for name in ("yakir", "point_mass", "custom"):
                fn = law.__dict__[name].__func__
                self._patch(law, name, classmethod(self._wrap(fn, "headstart")))
            self._patch(law, "sample", self._chunk_level(
                law.__dict__["sample"], "headstart", SAMPLE_CALLS, SAMPLE_S, SAMPLE_DRAWS))
            self._patch(rng, "ProcessPoolExecutor",
                        self._counting_pool(rng.ProcessPoolExecutor))
            _ACTIVE = self
            yield self
        finally:
            _ACTIVE = None
            while self._saved:
                owner, name, value = self._saved.pop()
                setattr(owner, name, value)

    # -- layer-specific wrappers and hooks -------------------------------------

    def _chunk_level(self, fn, layer: str, calls: int, secs: int, draws=None):
        """Wrapper for calls made once per chunk, in pool children too: it
        adds to the accumulator, whose child part TimedKernel ships back."""
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            if self.in_child:
                out = fn(*args, **kwargs)
            else:
                with self.span(name, layer):
                    out = fn(*args, **kwargs)
            self.acc[calls] += 1
            self.acc[secs] += time.perf_counter() - t0
            if draws is not None:
                self.acc[draws] += np.size(out)
            return out
        return wrapper

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.counts["pool_starts"] += 1
                super().__init__(*args, **kwargs)
        return CountingPool

    def _run_chunked_wrapper(self, fn):
        @functools.wraps(fn)
        def run_chunked(kernel, reps, seed, tag, workers=1):
            if self.in_child:
                return fn(kernel, reps, seed, tag, workers=workers)
            inner = getattr(kernel, "func", kernel)
            layer = _LAYER_OF_MODULE.get(getattr(inner, "__module__", ""), "other")
            t0 = time.perf_counter()
            with self.span("rng.run_chunked", "rng"):
                out = fn(TimedKernel(kernel, layer), reps, seed, tag, workers=workers)
            wall = time.perf_counter() - t0
            stats = out.pop()
            n_chunks = len(stats)
            pooled = workers > 1 and n_chunks > 1
            c = self.counts
            c["run_chunked.calls"] += 1
            c["run_chunked.chunks"] += n_chunks
            busy = 0.0
            for dt, sample_s, count, in_child, *child_acc in stats:
                busy += dt
                self.chunks.append((layer, dt, sample_s, int(count)))
                if in_child:
                    for slot, value in enumerate(child_acc):
                        self.acc[slot] += value
            c["run_chunked.overhead_s"] += wall - busy / (
                min(workers, n_chunks) if pooled else 1)
            if pooled:
                job = pickle.dumps((kernel, seed, tag, 0, 0))
                c["ipc_bytes"] += n_chunks * len(job) + sum(a.nbytes for a in out)
            return out
        return run_chunked

    def _on_sr_replications(self, a, out):
        key = (a["A"], a["law"], a["change_index"], a["reps"], a["seed"],
               a["tag"], a["max_steps"])
        if key in self._seen_sr:
            self.counts["montecarlo.duplicate_reps"] += a["reps"]
        self._seen_sr.add(key)
        self.counts["montecarlo.out_bytes"] += sum(x.nbytes for x in out)
        self.counts["montecarlo.truncated"] += int(out[3].sum())

    def _on_conditional_delay(self, a, est):
        self.counts["montecarlo.cond_simulated"] += a["reps"]
        self.counts["montecarlo.cond_kept"] += est.reps

    def _on_bayes_risk(self, a, est):
        self.counts["bayes.useful"] += est.cond_prob * est.risk.reps
        self.counts["bayes.risk_reps"] += est.risk.reps
        self.counts["bayes.truncated"] += est.risk.truncation_count

    def _on_cli_main(self, a, code):
        # 3 is the CLI's "statistically inconclusive" verdict, not a failure
        if code not in (0, 3):
            self.counts["cli.failed"] += 1

    # -- metrics ----------------------------------------------------------------

    def metrics(self, job_s: float) -> dict:
        """Per-layer metrics of the traced pass that took ``job_s`` seconds."""
        c = self.counts
        self_by_layer = defaultdict(float)
        self_by_name = defaultdict(float)
        dur_by_name = defaultdict(float)
        for name, layer, start, end, self_s, _, _ in self.spans:
            self_by_layer[layer] += self_s
            self_by_name[name] += self_s
            dur_by_name[name] += end - start
        m = {
            "rng.derive_rng.calls": self.acc[DERIVE_CALLS],
            "rng.derive_rng.s": self.acc[DERIVE_S],
            "rng.run_chunked.calls": c["run_chunked.calls"],
            "rng.run_chunked.chunks": c["run_chunked.chunks"],
            "rng.run_chunked.overhead_s": c["run_chunked.overhead_s"],
            "rng.pool_starts": c["pool_starts"],
            "rng.ipc_bytes": c["ipc_bytes"],
            "headstart.sample.calls": self.acc[SAMPLE_CALLS],
            "headstart.sample.draws": self.acc[SAMPLE_DRAWS],
            "headstart.sample.s": self.acc[SAMPLE_S],
            "headstart.oracle.s": sum(dur_by_name[f"headstart.{n}"] for n in (
                "functionals_oracle", "p0_quadrature", "mu0_quadrature")),
        }
        for layer in ("montecarlo", "bayes"):
            chunks = [(dt, s, n) for lay, dt, s, n in self.chunks if lay == layer]
            kernel_s = sum(dt - s for dt, s, _ in chunks)
            reps = sum(n for _, _, n in chunks)
            ms = [1e3 * dt for dt, _, _ in chunks] or [0.0]
            m[f"{layer}.kernel.s"] = kernel_s
            m[f"{layer}.kernel.reps_per_s"] = reps / kernel_s if kernel_s > 0 else 0.0
            m[f"{layer}.chunk_p50_ms"] = float(np.percentile(ms, 50))
            m[f"{layer}.chunk_p90_ms"] = float(np.percentile(ms, 90))
            m[f"{layer}.reps"] = reps
            m[f"{layer}.truncated"] = c[f"{layer}.truncated"]
        simulated = c["montecarlo.cond_simulated"]
        m["montecarlo.useful_ratio"] = (c["montecarlo.cond_kept"] / simulated
                                        if simulated else 0.0)
        m["montecarlo.duplicate_reps"] = c["montecarlo.duplicate_reps"]
        m["montecarlo.reduce.s"] = sum(
            s for name, s in self_by_name.items()
            if name.startswith("montecarlo.") and name not in (
                "montecarlo.kernel", "montecarlo.sr_replications"))
        m["montecarlo.out_bytes"] = c["montecarlo.out_bytes"]
        risk_reps = c["bayes.risk_reps"]
        m["bayes.useful_ratio"] = c["bayes.useful"] / risk_reps if risk_reps else 0.0
        m["bayes.limit.self_s"] = sum(self_by_name[f"bayes.{n}"] for n in (
            "limit_diagnostic", "wls_line", "compare_limit"))
        m["formulas.calls"] = sum(1 for s in self.spans if s[1] == "formulas")
        for cmd in ("table1", "bayes-limit", "equalizer", "props", "oracles"):
            m[f"cli.{cmd}.s"] = dur_by_name[f"cli.{cmd}"]
        m["cli.failed"] = c["cli.failed"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        m["trace.job_s"] = job_s
        m["trace.unattributed_s"] = job_s - sum(self_by_layer[layer] for layer in LAYERS)
        return {k: float(v) for k, v in m.items()}
