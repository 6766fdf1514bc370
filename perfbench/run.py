"""curvesgd benchmark: run one workload and print its metrics.

Run from the root of a checkout (the directory holding src/curvesgd and
BENCHMARK.json):

    python3 perfbench/run.py --workload slope_sweep --seed 1 --seconds 25 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 the per-layer metrics of a separate traced run. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed.

Every measurement happens in fresh child processes (perfbench/child.py) with
BLAS and OpenMP pinned to one thread and CURVESGD_THREADS unset, so set-up
time includes the import and peak RSS belongs to the workload alone. An
untraced run is SEGMENTS processes in a row and setup_s is their median. A
full report (machine facts, every pass's wall time, every span) goes to
.perfbench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEGMENTS = 5
# the reference task's wall time on the 2-core Xeon VM this was tuned on;
# host-adjusted times read as if measured at that speed
REFERENCE_S = 0.03
DEADLINE_S = 170.0
DEFAULT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a failed check)."""


def load_contract(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "curvesgd", "__init__.py")):
        raise BenchError("no src/curvesgd here; run from the root of a checkout")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        raise BenchError("cannot read %s: %s" % (path, err))


def child_env(root):
    env = dict(os.environ)
    env.pop("CURVESGD_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(args, mode, root, workdir, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the %s process" % mode)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds), "--workdir", workdir]
    try:
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), timeout=remaining,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s process ran past the deadline" % mode)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s process exited with code %d" % (mode, proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError("%s process printed no result" % mode)


def host_adjusted(seconds, reference):
    """Rescale a time to a host on which the reference task takes
    REFERENCE_S. A shared host's speed drifts (by up to 1.7x for minutes at
    a time where this was built), and curvesgd and the reference task slow
    down together."""
    return seconds * REFERENCE_S / reference


def end_to_end(args, root, workdir, deadline):
    """SEGMENTS fresh processes, each timing passes for an equal share of
    --seconds. Spreading the processes over the run puts the set-up samples
    in different stretches of host speed, like the passes."""
    share = argparse.Namespace(**vars(args))
    share.seconds = args.seconds / SEGMENTS
    parts = [run_child(share, "measure", root, workdir, deadline)
             for _ in range(SEGMENTS)]
    walls, adjusted = [], []
    for p in parts:
        refs = p["refs"]
        for k, wall in enumerate(p["walls"]):
            walls.append(wall)
            adjusted.append(host_adjusted(wall, (refs[k] + refs[k + 1]) / 2))
    setups = [p["setup_s"] for p in parts]
    seed_iters = statistics.median(p["seed_iters"] for p in parts)
    measured = {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "problems": sorted(set().union(*(p["problems"] for p in parts))),
        "machine": parts[0]["machine"],
        "parts": parts,
    }
    wall_s = statistics.median(adjusted)
    metrics = {
        "wall_s": wall_s,
        "seed_iters_per_s": seed_iters / wall_s,
        "setup_s": statistics.median(host_adjusted(p["setup_s"], p["refs"][0])
                                     for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    refs = [r for p in parts for r in p["refs"]]
    notes = [
        "wall_s: median of %d passes, host-adjusted; unadjusted median %.4f s,"
        " quartiles %s" % (len(walls), statistics.median(walls), _quartiles(walls)),
        "host reference task: median %.5f s (REFERENCE_S = %g s), quartiles %s"
        % (statistics.median(refs), REFERENCE_S, _quartiles(refs)),
        "seed_iters_per_s: %d SGD iterations per pass" % seed_iters,
        "setup_s: median of %d fresh processes, host-adjusted; unadjusted %s"
        % (len(setups), _fmt(setups)),
    ]
    return measured, metrics, notes


def traced(args, root, workdir, deadline):
    measured = run_child(args, "trace", root, workdir, deadline)
    notes = [
        "trace.overhead_ratio: median traced pass %.4f s / median untraced "
        "pass %.4f s" % (statistics.median(measured["walls_traced"]),
                         statistics.median(measured["walls_untraced"])),
        "schedule.eta inside sgd_run is not visible from outside the program;"
        " its cost is part of engine.self_s",
    ]
    return measured, measured["metrics"], notes


def _fmt(values):
    return "[%s]" % ", ".join("%.4f" % v for v in values)


def _quartiles(values):
    if len(values) < 2:
        return _fmt(values)
    return _fmt(statistics.quantiles(values, n=4))


def main():
    root = os.getcwd()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        contract = load_contract(root)
        names = [w["name"] for w in contract["workloads"]]
        if args.workload not in names:
            raise BenchError("unknown workload %r (choose from %s)"
                             % (args.workload, ", ".join(names)))
        if args.seed < 0:
            raise BenchError("--seed must be nonnegative")
        if args.seconds is None:
            args.seconds = contract["run_seconds"]
        wanted = contract["per_layer" if args.trace else "end_to_end"]
        os.makedirs(os.path.join(root, ".perfbench_tmp"), exist_ok=True)
        workdir = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench_tmp"))
        try:
            run = traced if args.trace else end_to_end
            measured, values, notes = run(args, root, workdir, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    correct = measured["failed"] == 0 and measured["attempted"] > 0
    print("# workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# machine %s" % json.dumps(measured["machine"], sort_keys=True))
    for name, metric in metrics.items():
        print("%s = %r %s" % (name, metric["value"], metric["unit"]))
    print("error_rate = %r (%d of %d operations failed)" % (
        measured["failed"] / max(measured["attempted"], 1),
        measured["failed"], measured["attempted"]))
    for note in notes + ["FAILED: " + p for p in measured["problems"]]:
        print("# " + note)

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(dict(measured, reported=metrics), handle, indent=1)
    print("# report %s" % os.path.relpath(report, root))

    print(json.dumps({"correct": correct, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
