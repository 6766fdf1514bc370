"""The benchmark's four workloads.

Each workload is a closed-loop batch job with one client: one process calls
into curvesgd and starts the next call when the previous one returns. A
workload builds its inputs from the workload seed (set-up), warms up on a
small slice of the same work, and then repeats one *pass* of timed work.
`run_pass(None)` is the untraced pass; `run_pass(tracer)` makes the same
calls, with every objective behind a TimedProxy and spans around the calls
the benchmark makes. `check(output)` verifies a pass outside the timed
region and says how many operations it attempted and how many failed.

The checks hold for any workload seed and allow the last bits to move: they
test the paper's inequalities and orderings, not stored values. Within one
run every pass must give bit-identical output, traced or not, because the
program promises byte-identical reruns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re

import numpy as np

import curvesgd as cg
from curvesgd import cli, verify
from curvesgd.dataio import read_results

from tracing import TimedProxy


class Outcome:
    """Operations attempted and failed, and what went wrong."""

    def __init__(self, seed_iters=0):
        self.attempted = 0
        self.failed = 0
        self.seed_iters = seed_iters
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _objective(objective, tracer):
    return objective if tracer is None else TimedProxy(objective, tracer)


def _seeds(seed, count):
    # each workload seed owns a disjoint block of SGD seeds
    return [1000 * seed + k for k in range(count)]


class _Workload:
    """Shared by all workloads. The constructor is the set-up; a tracer,
    when given, records the set-up's spans."""

    def __init__(self, seed, workdir, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.digest = None

    def run_cli(self, argv, tracer=None):
        """Run one CLI command with stdout captured, in a span named after
        the command when tracing; return (exit code, stdout)."""
        buf = io.StringIO()
        with _span(tracer, "cli.%s.main" % argv[0]), \
                contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def same_as_first_pass(self, digest, outcome):
        """Every pass of a run must reproduce the first pass bit for bit; if
        it does not, all of the pass's operations failed."""
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            outcome.failed = outcome.attempted
            outcome.problems.append("output differs from the first pass")


def _sweep_digest(sweeps):
    h = hashlib.sha256()
    for sweep in sweeps:
        for trace in sweep.traces:
            for column in (trace.t, trace.eta, trace.F, trace.E, trace.Y):
                h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def _finite(trace):
    return bool(np.all(np.isfinite(trace.F)) and np.all(np.isfinite(trace.E))
                and np.all(np.isfinite(trace.Y)))


class SlopeSweep(_Workload):
    """Criterion 7's shape: ridge and exp_cosh under their curvature-matched
    schedules, 32 seeds each from w0 = 0, record stride 100. Stepping
    dominates, so this is where many-seeds-one-schedule engine work shows."""

    PROBLEMS = ("ridge", "exp_cosh")
    SEEDS = 32
    ITERATIONS = 1000
    STRIDE = 100

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir)
        self.seeds = _seeds(seed, self.SEEDS)
        self.benches = []
        for name in self.PROBLEMS:
            with _span(tracer, "benchmarks.%s.load" % name):
                self.benches.append(cg.load_benchmark(name))

    def _sweep(self, bench, seeds, iterations, tracer):
        config = cg.RunConfig(
            objective=_objective(bench.objective, tracer),
            schedule=bench.schedule, seed=seeds[0], iterations=iterations,
            record_stride=self.STRIDE, reference=bench.reference,
            region_radius=bench.region_radius)
        with _span(tracer, "engine.multi_seed_sweep"):
            return cg.multi_seed_sweep(config, seeds)

    def warm_up(self):
        for bench in self.benches:
            self._sweep(bench, self.seeds[:1], 200, None)

    def run_pass(self, tracer=None):
        return [self._sweep(b, self.seeds, self.ITERATIONS, tracer)
                for b in self.benches]

    def check(self, sweeps):
        out = Outcome(seed_iters=self.ITERATIONS * self.SEEDS * len(sweeps))
        grid = np.arange(0, self.ITERATIONS + 1, self.STRIDE)
        for bench, sweep in zip(self.benches, sweeps):
            runs_ok = [_finite(tr) and np.array_equal(tr.t, grid)
                       for tr in sweep.traces]
            bound_ok = True
            if bench.name == "ridge":
                # criterion 10: the rate envelope dominates the mean
                # squared distance at every recorded t
                A, B = cg.rate_bound_constants(
                    bench.schedule, bench.reference.noise_constant,
                    float(sweep.mean_Y[0]))
                bound = np.array([cg.rate_bound(bench.schedule, A, B, float(t))
                                  for t in sweep.t])
                bound_ok = bool(np.all(bound >= sweep.mean_Y))
            for ok in runs_ok:
                out.op(ok and bound_ok, "%s: non-finite trace, wrong record "
                       "grid or rate bound violated" % bench.name)
        self.same_as_first_pass(_sweep_digest(sweeps), out)
        return out


class RankingSweep(_Workload):
    """Criterion 8's shape: five power-law schedules (h in {0, .25, .5, .75,
    1}, scale 0.1) x 10 seeds on quadratic_mean (w0 = 1) and exp_cosh
    (w0 = 1), recording only the start and the end. Few seeds, many
    schedules and the t >= 1 clamp: engine overhead dominates."""

    H = (0.0, 0.25, 0.5, 0.75, 1.0)
    SEEDS = 10
    PROBLEMS = (("quadratic_mean", 2000), ("exp_cosh", 500))

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir)
        self.seeds = _seeds(seed, self.SEEDS)
        self.schedules = [cg.parse_schedule("power:h=%g,scale=0.1" % h)
                          for h in self.H]
        self.benches = []
        for name, _ in self.PROBLEMS:
            with _span(tracer, "benchmarks.%s.load" % name):
                self.benches.append(cg.load_benchmark(name))

    def _sweep(self, bench, schedule, seeds, iterations, tracer):
        config = cg.RunConfig(
            objective=_objective(bench.objective, tracer), schedule=schedule,
            seed=seeds[0], iterations=iterations, record_stride=iterations,
            region_radius=bench.region_radius,
            w0=np.ones(bench.objective.dimension), reference=bench.reference)
        with _span(tracer, "engine.multi_seed_sweep"):
            return cg.multi_seed_sweep(config, seeds)

    def warm_up(self):
        for bench in self.benches:
            for schedule in self.schedules:
                self._sweep(bench, schedule, self.seeds[:1], 200, None)

    def run_pass(self, tracer=None):
        return [[self._sweep(bench, s, self.seeds, iterations, tracer)
                 for s in self.schedules]
                for bench, (_, iterations) in zip(self.benches, self.PROBLEMS)]

    def check(self, results):
        out = Outcome(seed_iters=self.SEEDS * len(self.schedules)
                      * sum(iterations for _, iterations in self.PROBLEMS))
        for bench, (_, iterations), sweeps in zip(self.benches, self.PROBLEMS, results):
            final = [float(s.mean_E[-1]) for s in sweeps]
            if bench.name == "quadratic_mean":
                # at 2,000 steps the whole order is settled: the larger h,
                # the faster the decay and the lower the final loss
                settled = all(final[k] > final[k + 1] for k in range(len(final) - 1))
                ok = [settled] * len(sweeps)
            else:
                # on the flat exp_cosh problem a short run settles no
                # ranking (criterion 8 needs 200,000 steps); it supports
                # only that every schedule makes progress
                ok = [s.mean_E[-1] < s.mean_E[0] for s in sweeps]
            for sweep, sweep_ok in zip(sweeps, ok):
                for tr in sweep.traces:
                    out.op(sweep_ok and _finite(tr)
                           and np.array_equal(tr.t, [0, iterations]),
                           "%s: ordering or progress check failed" % bench.name)
        self.same_as_first_pass(
            _sweep_digest([s for sweeps in results for s in sweeps]), out)
        return out


_VERIFY_LINE = re.compile(r"^\[(pass|FAIL)\] (\w+): (.*) \([0-9.]+s\)$")


class VerifySuite(_Workload):
    """`curvesgd verify --quick` through cli.main: every check, at smaller
    sample sizes. The engine does little here (one 500-step run), so an
    engine change should not move it; it is the target of oracle
    vectorisation. Its checks use fixed internal seeds, so the workload seed
    changes nothing."""

    def warm_up(self):
        # each check once at its smallest size, so set-up stays short
        verify.check_g_inequality(pairs_per_dim=100)
        verify.check_co_coercivity(pairs=10)
        verify.check_convexity(pairs=10)
        verify.check_v_agreement(eta_points=1)
        verify.check_c_alpha(samples=1)
        verify.check_ode_residual()
        verify.check_envelope_dominance(t_grid=(1.0,))
        verify.check_recurrence(steps=10)

    def run_pass(self, tracer=None):
        code, text = self.run_cli(["verify", "--quick"], tracer)
        return {"code": code, "text": text}

    def check(self, output):
        out = Outcome()
        passed = {}
        details = []
        for line in output["text"].splitlines():
            match = _VERIFY_LINE.match(line)
            if match:
                status, name, detail = match.groups()
                passed[name] = status == "pass"
                details.append("%s %s" % (name, detail))
        for name in verify.CHECK_NAMES:
            out.op(passed.get(name, False), "verify check %s failed" % name)
        out.op(output["code"] == 0, "curvesgd verify exited %r" % output["code"])
        checked = re.search(r"recurrence (\d+) iterates checked", "\n".join(details))
        # the recurrence check records every step of one run
        out.seed_iters = int(checked.group(1)) - 1 if checked else 0
        self.same_as_first_pass("\n".join(details), out)
        return out


class RunfilePipeline(_Workload):
    """What a user does with a dataset: `sweep` on a runfile, then
    `estimate-curvature` on it, through cli.main. The dataset is a LIBSVM
    file written from the seed with +-1 labels (so the loss is logistic);
    norm2_squared certifies a reference; three schedules, 4 seeds, stride 1.
    Recording every step makes objective values and record bookkeeping
    dominate, and CSV writing is a large share; only this workload reaches
    dataio parsing and writing, solve_reference and estimate_delta."""

    N, D, EPOCHS, SEEDS, LAMBDA = 50, 10, 10, 4, 0.1
    SCHEDULES = ("const:1.0", "power:scale=1.0,h=0.5",
                 "paper-opt:h=1,beta=0.05,L=0.35")

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir)
        data_path = os.path.join(workdir, "data.svm")
        with open(data_path, "w", encoding="utf-8") as handle:
            handle.write(self._libsvm_text(seed))
        self.seeds = _seeds(seed, self.SEEDS)
        self.runfile = self._write_runfile("cli", data_path, self.seeds, self.EPOCHS)
        self.warm_runfile = self._write_runfile("warm", data_path, self.seeds[:1], 1)

    def _libsvm_text(self, seed):
        # rows have ||x|| <= 1, so every component is 0.25-smooth and the
        # runfile's schedule constants hold for any seed
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(self.N, self.D)) / np.sqrt(self.D)
        X[rng.random(size=X.shape) < 0.3] = 0.0
        X[0, -1] = 0.5 / np.sqrt(self.D)  # fixes the dimension at D
        planted = rng.standard_normal(self.D)
        noisy = X @ planted + 0.1 * rng.standard_normal(self.N)
        lines = []
        for row, score in zip(X, noisy):
            feats = " ".join("%d:%.6f" % (j + 1, v) for j, v in enumerate(row) if v)
            lines.append("%s %s" % ("+1" if score >= 0 else "-1", feats))
        return "\n".join(lines) + "\n"

    def _write_runfile(self, name, data_path, seeds, epochs):
        directory = os.path.join(self.workdir, name)
        os.mkdir(directory)
        path = os.path.join(directory, "run.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                "dataset = %s\nvariant = norm2_squared\nlambda = %r\n"
                "schedule = %s\nseeds = %s\nepochs = %d\nstride = 1\n"
                "out = run.csv\n" % (
                    data_path, self.LAMBDA, "; ".join(self.SCHEDULES),
                    ",".join(str(s) for s in seeds), epochs))
        return path

    def warm_up(self):
        self.run_cli(["sweep", self.warm_runfile])

    def run_pass(self, tracer=None):
        code, text = self.run_cli(["sweep", self.runfile], tracer)
        csv_paths = [p for p in text.split() if p.endswith(".csv")]
        plots = [p for p in text.split() if p.endswith(".gp")]
        est_code, est_text = self.run_cli(
            ["estimate-curvature", self.runfile, "--seed", str(self.seed)], tracer)
        return {"sweep_code": code, "csv_paths": csv_paths, "plot_paths": plots,
                "estimate_code": est_code, "estimate_text": est_text}

    def check(self, output):
        out = Outcome()
        rows_per_seed = self.EPOCHS * self.N + 1
        sweep_ok = (output["sweep_code"] == 0
                    and len(output["csv_paths"]) == len(self.SCHEDULES)
                    and len(output["plot_paths"]) == 1)
        digest = hashlib.sha256()
        if sweep_ok:
            for path in output["csv_paths"] + output["plot_paths"]:
                with open(path, "rb") as handle:
                    digest.update(handle.read())
            for path in output["csv_paths"]:
                table = read_results(path)
                E = table.column("E")
                sweep_ok = (sweep_ok
                            and len(table.rows) == self.SEEDS * rows_per_seed
                            and bool(np.all(E >= -1e-9)))
                out.seed_iters += len(table.rows) - self.SEEDS
        out.op(sweep_ok, "sweep: exit code, row counts or E >= -tol failed")
        match = re.search(r"fitted h = ([0-9.eE+-]+)", output["estimate_text"])
        fitted_ok = (output["estimate_code"] == 0 and match is not None
                     and 0.0 <= float(match.group(1)) <= 1.0)
        out.op(fitted_ok, "estimate-curvature printed no fitted h")
        # a traced pass must write the same bytes as an untraced one
        digest.update(output["estimate_text"].encode())
        self.same_as_first_pass(digest.hexdigest(), out)
        return out


WORKLOADS = {
    "slope_sweep": SlopeSweep,
    "ranking_sweep": RankingSweep,
    "verify_suite": VerifySuite,
    "runfile_pipeline": RunfilePipeline,
}
