"""One workload in one fresh process; started by run.py, never by hand.

Modes:
  measure  set up (import curvesgd, build the inputs, warm up), then
           untraced passes for --seconds; report setup_s, every pass's wall
           time, the host-speed reference times around the passes, the
           seed-iterations of a pass, peak RSS and the checks.
  trace    set up, then alternate untraced and traced passes for --seconds;
           report per-layer metrics and every span.

setup_s runs from just before numpy and curvesgd are imported to the end
of the warm-up. The result is one JSON line on stdout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import tempfile
import time
import traceback

STARTED = time.perf_counter()

import workloads  # noqa: E402  (imports numpy and curvesgd)
from tracing import Tracer, patched_modules  # noqa: E402

MIN_PASSES = 3


def reference_seconds():
    """Wall time of a fixed task that does not depend on curvesgd, timed
    between passes to measure how fast the host runs at that moment. It
    mixes the three kinds of work the workloads do: small NumPy calls in an
    interpreter loop (SGD steps), large-array NumPy calls (objective values
    over many rows) and float formatting (CSV rows)."""
    import numpy

    started = time.perf_counter()
    v = numpy.arange(10.0)
    total = 0.0
    for _ in range(6000):
        total += float(v @ v)
    big = numpy.linspace(-5.0, 5.0, 200_000)
    for _ in range(3):
        total += float(numpy.logaddexp(0.0, big).sum())
    text = ",".join("%.17g" % x for x in big[:3000].tolist())
    total += len(text)
    return time.perf_counter() - started


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def machine_facts():
    import numpy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.partition(":")[2].strip()
            break
    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:  # cgroup v1
        q = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        p = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = None if q is None else "%s %s" % (q, p)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    commit = None
    head = _read(os.path.join(".git", "HEAD"))
    if head and head.startswith("ref: "):
        commit = _read(os.path.join(".git", head[5:]))
    elif head:
        commit = head
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cgroup_cpu_quota": quota,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": commit,
    }


def set_up(args, tracer=None):
    cls = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(dir=args.workdir)
    if tracer is None:
        workload = cls(args.seed, workdir)
    else:
        with patched_modules(tracer):
            workload = cls(args.seed, workdir, tracer)
    workload.warm_up()
    return workload


def timed_pass(workload, outcome, tracer=None):
    """One pass, timed, then checked outside the timed region. An exception
    from the program counts as a failed operation, not as a crash."""
    started = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run_pass()
        else:
            with patched_modules(tracer):
                output = workload.run_pass(tracer)
    except Exception:
        traceback.print_exc()
        output = None
    wall = time.perf_counter() - started
    result = workloads.Outcome()
    if output is None:
        result.op(False, "pass raised an exception")
    else:
        try:
            result = workload.check(output)
        except Exception:
            traceback.print_exc()
            result.op(False, "output check raised an exception")
    outcome.merge(result)
    return wall, output, result


def rounds(seconds, minimum):
    """Yield round numbers until another round of median length would end
    past `seconds`, but at least `minimum` rounds."""
    begin = time.perf_counter()
    lengths = []
    while len(lengths) < minimum or (time.perf_counter() - begin
                                     + statistics.median(lengths) <= seconds):
        started = time.perf_counter()
        yield len(lengths)
        lengths.append(time.perf_counter() - started)


def measure(args, workload, setup_s):
    outcome = workloads.Outcome()
    walls, seed_iters = [], []
    refs = [reference_seconds()]  # refs[k] and refs[k + 1] bracket pass k
    for _ in rounds(args.seconds, MIN_PASSES):
        wall, _, result = timed_pass(workload, outcome)
        refs.append(reference_seconds())
        walls.append(wall)
        seed_iters.append(result.seed_iters)
    return {
        "setup_s": setup_s,
        "walls": walls,
        "refs": refs,
        "seed_iters": statistics.median(seed_iters),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": sorted(set(outcome.problems)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }


def trace(args, workload, setup_tracer):
    outcome = workloads.Outcome()
    plain_walls, traced_walls, traced = [], [], []
    for _ in rounds(args.seconds, 1):
        wall, _, _ = timed_pass(workload, outcome)
        plain_walls.append(wall)
        tracer = Tracer()
        wall, _, _ = timed_pass(workload, outcome, tracer)
        traced_walls.append(wall)
        traced.append(tracer)

    per_pass = [t.metrics() for t in traced]
    metrics = {}
    for key in set().union(*per_pass):
        values = [m.get(key, 0) for m in per_pass]
        if all(isinstance(v, int) for v in values):
            # counts must repeat exactly on every pass
            outcome.op(len(set(values)) == 1,
                       "%s differs between traced passes: %s" % (key, values))
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    # set-up happens once per process, outside the passes
    for key, value in setup_tracer.metrics().items():
        if value:
            metrics[key] = metrics.get(key, 0) + value
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain_walls))
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": sorted(set(outcome.problems)),
        "walls_untraced": plain_walls,
        "walls_traced": traced_walls,
        "metrics": metrics,
        "spans": {"setup": setup_tracer.dump(),
                  "passes": [t.dump() for t in traced]},
        "machine": machine_facts(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    setup_tracer = Tracer() if args.mode == "trace" else None
    workload = set_up(args, setup_tracer)
    setup_s = time.perf_counter() - STARTED
    if args.mode == "measure":
        result = measure(args, workload, setup_s)
    else:
        result = trace(args, workload, setup_tracer)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
