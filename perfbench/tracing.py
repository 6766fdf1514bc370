"""Tracing from outside the program: spans, counted calls, an objective proxy.

Everything here observes curvesgd at the boundaries the benchmark itself
crosses. Spans are kept in memory and written out when the run ends. Hot
calls (one objective method per SGD step) are too many for one span each,
so they are counted and timed in aggregate instead; every open span
remembers how much objective time elapsed inside it, which gives a layer's
self time without a span per call.

Cost that stays invisible from outside: schedule.eta inside sgd_run (one
call per index block and per record) is not a public call the benchmark
makes, so it is part of engine.self_s until the program has spans of its own.
"""

from __future__ import annotations

import contextlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans, per-method call statistics and exact counters for one pass."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.counts = Counter()
        self.objectives_busy = 0.0

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
        }
        objectives_before = self.objectives_busy
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = perf_counter()
            record["objectives_s"] = self.objectives_busy - objectives_before

    def counted(self, name, fn):
        """Wrap fn, an objective method, so that each call adds to the call
        count and busy time of `name` and to the objective time of every
        open span."""
        calls = self.calls
        busy = self.busy

        def timed(*args, **kwargs):
            started = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - started
            calls[name] += 1
            busy[name] += elapsed
            self.objectives_busy += elapsed
            return result

        return timed

    def metrics(self):
        """Per-layer numbers of this pass, named `<layer>.<what>`.

        Every span name gives `<name>_s`; every counted method gives
        `<name>.calls` and `<name>.busy_s`; counters are copied. The engine's
        time is that of its outermost spans (a sweep, or a bare sgd_run the
        program makes itself), and its self time excludes the objective
        calls inside them.
        """
        out = dict(self.counts)
        for name, calls in self.calls.items():
            out[name + ".calls"] = calls
            out[name + ".busy_s"] = self.busy[name]
        out["objectives.busy_s"] = self.objectives_busy
        for span in self.spans:
            key = span["name"] + "_s"
            out[key] = out.get(key, 0.0) + span["end"] - span["start"]
        engine = [s for s in self.spans if s["name"].startswith("engine.")
                  and (s["parent"] is None
                       or not self.spans[s["parent"]]["name"].startswith("engine."))]
        out["engine.sweep_s"] = sum(s["end"] - s["start"] for s in engine)
        out["engine.self_s"] = sum(s["end"] - s["start"] - s["objectives_s"]
                                   for s in engine)
        if out.get("dataio.write_results_s"):
            out["dataio.write_mb_per_s"] = (out["dataio.csv_bytes"] / 1e6
                                            / out["dataio.write_results_s"])
        if out.get("omega.estimate_delta_s"):
            out["omega.samples_per_s"] = (out["omega.samples"]
                                          / out["omega.estimate_delta_s"])
        return out

    def dump(self):
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "counts": dict(self.counts),
        }


class TimedProxy:
    """Stands in for an objective: every public callable reached through the
    proxy is counted and timed as `objectives.<name>`; every other attribute
    is delegated unchanged. Nothing here names an Objective method, so the
    proxy keeps working when the objective interface changes."""

    def __init__(self, target, tracer):
        self.__dict__.update(_target=target, _tracer=tracer)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if name.startswith("_") or not callable(value):
            return value
        timed = self._tracer.counted("objectives." + name, value)
        # cached on the instance, so later lookups bypass __getattr__
        self.__dict__[name] = timed
        return timed


@contextlib.contextmanager
def patched_modules(tracer):
    """Wrap public curvesgd functions that the program calls on its own
    (inside the CLI, the verify suite or benchmark construction) in spans,
    put every objective the runfile commands build behind a TimedProxy, and
    restore the originals afterwards. Each function is replaced where the
    caller looks it up: as a global of the calling module."""
    import curvesgd.benchmarks
    import curvesgd.cli
    import curvesgd.dataio
    import curvesgd.engine
    import curvesgd.objectives
    import curvesgd.omega
    import curvesgd.verify

    def spanned(name):
        def wrapper(fn):
            def spanned_call(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return spanned_call
        return wrapper

    def sgd_run_wrapper(fn):
        def sgd_run(config):
            with tracer.span("engine.sgd_run"):
                trace = fn(config)
            tracer.counts["engine.seed_iters"] += config.iterations
            tracer.counts["engine.records"] += int(trace.t.size)
            tracer.counts["engine.violations"] += int(trace.violation_count)
            return trace
        return sgd_run

    def solve_reference_wrapper(fn):
        def solve_reference(*args, **kwargs):
            with tracer.span("objectives.solve_reference"):
                ref = fn(*args, **kwargs)
            tracer.counts["objectives.solve_reference_iters"] += ref.iterations
            return ref
        return solve_reference

    def build_objective_wrapper(fn):
        def build_objective(*args, **kwargs):
            with tracer.span("dataio.read"):
                objective, data = fn(*args, **kwargs)
            return TimedProxy(objective, tracer), data
        return build_objective

    def write_results_wrapper(fn):
        def write_results(sweep, path, *args, **kwargs):
            with tracer.span("dataio.write_results"):
                table = fn(sweep, path, *args, **kwargs)
            tracer.counts["dataio.csv_rows"] += len(table.rows)
            tracer.counts["dataio.csv_bytes"] += os.path.getsize(path)
            return table
        return write_results

    def estimate_delta_wrapper(fn):
        signature = inspect.signature(fn)

        def estimate_delta(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            with tracer.span("omega.estimate_delta"):
                est = fn(*args, **kwargs)
            tracer.counts["omega.samples"] += bound.arguments["n_samples"]
            tracer.counts["omega.bands_populated"] += int(
                (est.band_counts > 0).sum())
            return est
        return estimate_delta

    def check_wrapper(check):
        def wrapper(fn):
            def timed_check(*args, **kwargs):
                with tracer.span("verify." + check):
                    result = fn(*args, **kwargs)
                tracer.counts["verify.failed"] += 0 if result.passed else 1
                return result
            return timed_check
        return wrapper

    targets = [
        (curvesgd.engine, "sgd_run", sgd_run_wrapper),
        (curvesgd.verify, "sgd_run", sgd_run_wrapper),
        (curvesgd.benchmarks, "solve_reference", solve_reference_wrapper),
        (curvesgd.dataio, "solve_reference", solve_reference_wrapper),
        (curvesgd.objectives, "solve_reference", solve_reference_wrapper),
        (curvesgd.cli, "read_runfile", spanned("dataio.read")),
        (curvesgd.cli, "build_objective", build_objective_wrapper),
        (curvesgd.dataio, "build_objective", build_objective_wrapper),
        (curvesgd.dataio, "multi_seed_sweep", spanned("engine.multi_seed_sweep")),
        (curvesgd.dataio, "write_results", write_results_wrapper),
        (curvesgd.dataio, "emit_plot_script", spanned("dataio.emit_plot")),
        (curvesgd.omega, "estimate_delta", estimate_delta_wrapper),
    ]
    for check in curvesgd.verify.CHECK_NAMES:
        targets.append((curvesgd.verify, "check_" + check, check_wrapper(check)))

    saved = []
    try:
        for module, attr, wrap in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
