"""Command-line surface: run, sweep, verify, estimate-curvature, schedule.

Exit codes: 0 on success, 1 when a run aborts or a verify check fails,
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from .dataio import (build_objective, execute_runfile, parse_seed,
                     read_runfile, resolve_reference)
from .engine import EngineError
from .omega import fit_curvature
from .schedule import _KINDS, parse_schedule, step_size
from .verify import verify_all


@functools.cache  # built once per process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvesgd",
        description="Curvature-aware SGD runs, schedules, and invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
            ("run", "execute a single-schedule runfile"),
            ("sweep", "execute a runfile over all its schedules, with a plot script")):
        p = sub.add_parser(name, help=text)
        p.add_argument("runfile", help="path to a runfile")
        p.add_argument("--seed", type=int, default=None,
                       help="replace the runfile's seed list with one seed")
        p.add_argument("--epochs", type=int, default=None,
                       help="override the runfile's epoch count")
        p.add_argument("--stride", type=int, default=None,
                       help="override the runfile's record stride")
        p.add_argument("--out", default=None,
                       help="override the runfile's output path")

    verify_p = sub.add_parser("verify", help="run the invariant check suite")
    verify_p.add_argument("--quick", action="store_true",
                          help="smaller sample sizes, same coverage")

    est_p = sub.add_parser(
        "estimate-curvature",
        help="fit the curvature exponent h of a runfile's objective",
    )
    est_p.add_argument("runfile", help="path to a runfile naming the objective")
    est_p.add_argument("--seed", type=int, default=0,
                       help="sampling seed for the fit")

    sched_p = sub.add_parser(
        "schedule", help="print eta/M/C/C_bar for a schedule string"
    )
    sched_p.add_argument(
        "text", help="e.g. paper-opt:h=1,beta=0.5,L=1,r=inf or const:0.01"
    )
    sched_p.add_argument("--t", default="0,1,10,100,1000",
                         help="comma-separated times to tabulate")
    return parser


def _cmd_runfile(args) -> int:
    """`run` (one schedule, no plot script) and `sweep` (any number of
    schedules, always a plot script) of a runfile with its overrides."""
    config = read_runfile(args.runfile)
    overrides = {field: getattr(args, field) for field in ("epochs", "stride", "out")
                 if getattr(args, field) is not None}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    config = dataclasses.replace(config, **overrides)
    sweep = args.command == "sweep"
    if not sweep and len(config.schedule_list()) != 1:
        print("error: run expects exactly one schedule; use sweep",
              file=sys.stderr)
        return 2
    # outputs land next to the runfile, not wherever the shell happens to be
    base_dir = os.path.dirname(os.path.abspath(args.runfile))
    written, plot_path = execute_runfile(config, base_dir=base_dir,
                                         emit_plot=sweep)
    for path in written + ([plot_path] if sweep else []):
        print(path)
    return 0


def _cmd_verify(args) -> int:
    results = verify_all(quick=args.quick)
    failed = 0
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print("[%s] %s: %s (%.2fs)" % (status, res.name, res.detail, res.seconds))
        if not res.passed:
            failed += 1
    if failed:
        print("%d of %d checks failed" % (failed, len(results)))
        return 1
    print("all %d checks passed" % len(results))
    return 0


def _cmd_estimate(args) -> int:
    parse_seed(args.seed)
    config = read_runfile(args.runfile)
    objective, _ = build_objective(config)
    reference = resolve_reference(objective)
    if reference is None:
        print("error: the objective is not certifiably strongly convex, so "
              "its minimizer may be unattained and no gap can be measured; "
              "use variant = norm2_squared with lambda > 0", file=sys.stderr)
        return 2
    h = fit_curvature(objective, reference=reference, seed=args.seed)
    print("fitted h = %.4g" % h)
    return 0


def _cmd_schedule(args) -> int:
    spec = parse_schedule(args.text)
    try:
        times = [float(v) for v in args.t.split(",") if v.strip()]
    except ValueError:
        raise ValueError("--t expects comma-separated numbers") from None
    if not times:
        raise ValueError("--t expects at least one time")
    if not all(map(math.isfinite, times)):
        raise ValueError("--t expects finite times")
    columns = {"t": lambda spec, t: t, "eta": step_size, **_KINDS[spec.kind].columns}
    # every row is computed before the header, so a bad time prints nothing
    rows = [" ".join("%.10g" % f(spec, t) for f in columns.values()) for t in times]
    print("\n".join([" ".join(columns)] + rows))
    return 0


_COMMANDS = {
    "run": _cmd_runfile,
    "sweep": _cmd_runfile,
    "verify": _cmd_verify,
    "estimate-curvature": _cmd_estimate,
    "schedule": _cmd_schedule,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except EngineError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (ValueError, OverflowError, RuntimeError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
