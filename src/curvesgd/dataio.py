"""Dataset ingestion, run configuration files, and CSV/plot output.

Everything here is deterministic: re-running the same configuration
produces byte-identical files (no timestamps, fixed header, fixed float
formatting at 17 significant digits).
"""

from __future__ import annotations

import csv
import io
import math
import os
import urllib.request
from dataclasses import dataclass

import numpy as np

from .engine import RunConfig, moving_mean, multi_seed_sweep
from .objectives import (
    Dataset,
    LeastSquaresObjective,
    LogisticObjective,
    solve_reference,
)
from .schedule import parse_schedule

RESULT_HEADER = ("run", "seed", "epoch", "t", "eta", "F", "E", "Y", "smoothed_F")

# seconds a dataset download may stall before load_libsvm gives up
URL_TIMEOUT = 60.0

# runfile vocabulary -> internal regularizer names
VARIANT_MAP = {
    "plain": "none",
    "norm2": "norm2",
    "norm2_squared": "norm2_squared",
    "exp_cosh_G": "exp_cosh_G",
}

RUNFILE_KEYS = (
    "dataset",
    "variant",
    "lambda",
    "schedule",
    "seeds",
    "epochs",
    "stride",
    "out",
)


def _float_cells(values) -> list:
    return ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]


# --------------------------------------------------------------------------
# LIBSVM-format ingestion
# --------------------------------------------------------------------------

def _map_label(token: str, line_no: int) -> float:
    try:
        raw = float(token)
    except ValueError:
        raise ValueError("line %d: unmappable label %r" % (line_no, token))
    if raw == 1.0:
        return 1.0
    if raw == 2.0 or raw == -1.0:
        return -1.0
    raise ValueError("line %d: unmappable label %r" % (line_no, token))


def parse_libsvm(source) -> Dataset:
    """Parse sparse `<label> <idx>:<val> ...` text into a dense Dataset.

    Indices are 1-based and must be strictly increasing within a line; the
    dimension is the largest index seen anywhere. Values must be finite.
    Labels 1 and +1 map to +1, labels 2 and -1 map to -1 (the usual
    two-class convention for datasets coded with {1,2}).
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]

    parsed = []
    max_index = 0
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        label = _map_label(tokens[0], line_no)
        pairs = []
        previous = 0
        for token in tokens[1:]:
            head, sep, tail = token.partition(":")
            if not sep:
                raise ValueError(
                    "line %d: malformed feature %r (expected idx:val)"
                    % (line_no, token)
                )
            try:
                index = int(head)
                value = float(tail)
            except ValueError:
                raise ValueError(
                    "line %d: malformed feature %r" % (line_no, token)
                )
            if index < 1:
                raise ValueError(
                    "line %d: feature index %d must be >= 1" % (line_no, index)
                )
            if not math.isfinite(value):
                raise ValueError(
                    "line %d: feature value %r is not finite" % (line_no, tail)
                )
            if index <= previous:
                raise ValueError(
                    "line %d: feature indices must be strictly increasing"
                    % line_no
                )
            previous = index
            pairs.append((index, value))
        max_index = max(max_index, previous)
        parsed.append((label, pairs))

    if not parsed:
        raise ValueError("empty dataset")

    X = np.zeros((len(parsed), max_index))
    y = np.empty(len(parsed))
    for row, (label, pairs) in enumerate(parsed):
        y[row] = label
        for index, value in pairs:
            X[row, index - 1] = value
    return Dataset(X, y)


def load_libsvm(source: str) -> Dataset:
    """Read LIBSVM text from a local path or an http(s) URL."""
    if source.startswith("http://") or source.startswith("https://"):
        with urllib.request.urlopen(source, timeout=URL_TIMEOUT) as response:
            text = response.read().decode("utf-8")
        return parse_libsvm(text)
    with open(source, "r", encoding="utf-8") as handle:
        return parse_libsvm(handle)


# --------------------------------------------------------------------------
# Synthetic datasets
# --------------------------------------------------------------------------

def synthesize_dataset(n: int, d: int, seed: int, kind: str,
                       separation: float = 2.0) -> Dataset:
    """Deterministic synthetic data.

    kind="blobs": two Gaussian classes with means +-(separation/sqrt(d)) 1
    and unit covariance, labels +-1. kind="linear": standard normal design
    with noiseless targets X @ planted, planted weights recorded on the
    Dataset.
    """
    if n < 2 or d < 1:
        raise ValueError("invalid sizes: need n >= 2 and d >= 1")
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        labels = 2.0 * rng.integers(0, 2, size=n) - 1.0
        shift = separation / np.sqrt(d)
        X = labels[:, None] * shift + rng.standard_normal((n, d))
        return Dataset(X, labels)
    if kind == "linear":
        X = rng.standard_normal((n, d))
        planted = rng.standard_normal(d)
        return Dataset(X, X @ planted, planted_weights=planted)
    raise ValueError("unknown synthetic kind %r (blobs or linear)" % (kind,))


def _parse_synth_spec(text: str) -> Dataset:
    body = text[len("synth:"):]
    parts = [p for p in body.split(",") if p]
    if not parts:
        raise ValueError("synthetic dataset spec needs a kind, e.g. synth:blobs,...")
    kind = parts[0]
    kwargs = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError("bad synthetic dataset field %r" % (part,))
        if key in ("n", "d", "seed"):
            kwargs[key] = int(value)
        elif key == "separation":
            kwargs[key] = float(value)
        else:
            raise ValueError("unknown synthetic dataset field %r" % (key,))
    for required in ("n", "d", "seed"):
        if required not in kwargs:
            raise ValueError("synthetic dataset spec is missing %r" % (required,))
    return synthesize_dataset(kind=kind, **kwargs)


def load_dataset(source: str) -> Dataset:
    """Resolve a dataset field: `synth:...` spec, URL, or local path."""
    if source.startswith("synth:"):
        return _parse_synth_spec(source)
    return load_libsvm(source)


# --------------------------------------------------------------------------
# Run configuration files
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunFileConfig:
    """Parsed run configuration. Field names mirror the file keys."""

    dataset: str
    schedule: str
    seeds: tuple
    epochs: int
    out: str
    variant: str = "plain"
    lam: float = 0.0
    stride: int = 1

    def __post_init__(self):
        if self.variant not in VARIANT_MAP:
            raise ValueError(
                "unknown variant %r (choose from %s)"
                % (self.variant, ", ".join(VARIANT_MAP))
            )
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if not self.seeds:
            raise ValueError("seed list must not be empty")
        for entry in self.schedule_list():
            parse_schedule(entry)  # validate eagerly, errors carry the text

    def schedule_list(self):
        entries = [s.strip() for s in self.schedule.split(";")]
        entries = [s for s in entries if s]
        if not entries:
            raise ValueError("schedule field must name at least one schedule")
        return entries


def parse_runfile(text: str) -> RunFileConfig:
    """Parse `key = value` lines; '#' comments and blank lines are skipped."""
    fields = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError("line %d: expected key = value" % line_no)
        key = key.strip()
        value = value.strip()
        if key not in RUNFILE_KEYS:
            raise ValueError("line %d: unknown runfile key %r" % (line_no, key))
        if key in fields:
            raise ValueError("line %d: duplicate key %r" % (line_no, key))
        fields[key] = value

    for required in ("dataset", "schedule", "seeds", "epochs", "out"):
        if required not in fields:
            raise ValueError("runfile is missing required key %r" % (required,))

    try:
        seeds = tuple(int(s) for s in fields["seeds"].split(",") if s.strip())
    except ValueError:
        raise ValueError("seeds must be a comma-separated list of integers")

    return RunFileConfig(
        dataset=fields["dataset"],
        schedule=fields["schedule"],
        seeds=seeds,
        epochs=int(fields["epochs"]),
        out=fields["out"],
        variant=fields.get("variant", "plain"),
        lam=float(fields.get("lambda", "0")),
        stride=int(fields.get("stride", "1")),
    )


def format_runfile(config: RunFileConfig) -> str:
    """Canonical text form; parse(format(parse(text))) == parse(text)."""
    lines = [
        "dataset = %s" % config.dataset,
        "variant = %s" % config.variant,
        "lambda = %r" % config.lam,
        "schedule = %s" % config.schedule,
        "seeds = %s" % ",".join(str(s) for s in config.seeds),
        "epochs = %d" % config.epochs,
        "stride = %d" % config.stride,
        "out = %s" % config.out,
    ]
    return "\n".join(lines) + "\n"


def read_runfile(path: str) -> RunFileConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_runfile(handle.read())


def write_runfile(config: RunFileConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_runfile(config))


def build_objective(config: RunFileConfig):
    """Dataset string -> objective, with the loss picked by label shape.

    All-(+-1) labels mean classification (logistic loss); anything else is
    treated as regression (least squares).
    """
    data = load_dataset(config.dataset)
    regularizer = VARIANT_MAP[config.variant]
    if np.all(np.isin(data.y, (-1.0, 1.0))):
        objective = LogisticObjective(data, regularizer, config.lam)
    else:
        objective = LeastSquaresObjective(data, regularizer, config.lam)
    return objective, data


def resolve_reference(objective):
    """Reference solution when the minimizer is certifiably unique.

    Strong convexity (known_mu set) is the criterion: it guarantees both a
    unique minimizer and that the gradient tolerance of the solver
    translates into a comparable error on w_star. Otherwise E and Y are
    left blank in the output rather than reported against an unreliable
    anchor.
    """
    if objective.known_mu is None:
        return None
    return solve_reference(objective)


# --------------------------------------------------------------------------
# Result tables
# --------------------------------------------------------------------------

@dataclass
class ResultTable:
    """CSV contents: the fixed header plus rows of string cells."""

    header: tuple
    rows: list

    def _col_index(self, name: str) -> int:
        if name not in self.header:
            raise KeyError("no column %r; header is %s" % (name, ",".join(self.header)))
        return self.header.index(name)

    def column(self, name: str) -> np.ndarray:
        """Numeric view of one column; empty cells become NaN."""
        k = self._col_index(name)
        return np.array(
            [float(row[k]) if row[k] != "" else np.nan for row in self.rows]
        )

    def text_column(self, name: str):
        k = self._col_index(name)
        return [row[k] for row in self.rows]


def results_rows(sweep, run_id: str):
    """Flatten a sweep into CSV rows, one per (seed, record)."""
    n = sweep.component_count
    rows = []
    for trace in sweep.traces:
        size = trace.t.size
        if trace.has_reference:
            e_cells, y_cells = _float_cells(trace.E), _float_cells(trace.Y)
        else:
            e_cells = y_cells = [""] * size
        rows.extend(zip(
            [run_id] * size,
            [str(trace.seed)] * size,
            _float_cells(trace.t / n),
            [str(t) for t in trace.t.tolist()],
            _float_cells(trace.eta),
            _float_cells(trace.F),
            e_cells,
            y_cells,
            _float_cells(moving_mean(trace.F, 3)),
        ))
    return rows


def write_results(sweep, path: str, run_id: str = None) -> ResultTable:
    """Write one sweep to CSV with the fixed header; ends with a newline."""
    if run_id is None:
        run_id = os.path.splitext(os.path.basename(path))[0]
    rows = results_rows(sweep, run_id)
    table = ResultTable(header=RESULT_HEADER, rows=rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULT_HEADER)
        writer.writerows(rows)
    return table


def read_results(path: str) -> ResultTable:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise ValueError("results file %r is empty" % (path,))
        if header != RESULT_HEADER:
            raise ValueError(
                "unsupported results header %r (expected %r)"
                % (header, RESULT_HEADER)
            )
        rows = [tuple(row) for row in reader]
    return ResultTable(header=header, rows=rows)


# --------------------------------------------------------------------------
# Plot script emission
# --------------------------------------------------------------------------

def emit_plot_script(csv_paths, path: str, titles=None) -> str:
    """Write a gnuplot script drawing mean F per epoch, one curve per CSV.

    `smooth unique` averages rows sharing an epoch value, which collapses
    the per-seed rows into a seed-mean curve. Paths are stored relative to
    the script so the bundle can be moved as a directory.
    """
    csv_paths = list(csv_paths)
    if not csv_paths:
        raise ValueError("need at least one result table to plot")
    if titles is None:
        titles = [os.path.splitext(os.path.basename(p))[0] for p in csv_paths]
    if len(titles) != len(csv_paths):
        raise ValueError("need one title per CSV")

    script_dir = os.path.dirname(os.path.abspath(path)) or "."
    epoch_col = RESULT_HEADER.index("epoch") + 1
    f_col = RESULT_HEADER.index("F") + 1

    out = io.StringIO()
    out.write("# mean objective value per epoch, one curve per run\n")
    out.write("set datafile separator ','\n")
    out.write("set logscale y\n")
    out.write("set xlabel 'epoch'\n")
    out.write("set ylabel 'F'\n")
    out.write("set key top right\n")
    out.write("plot \\\n")
    clauses = []
    for csv_path, title in zip(csv_paths, titles):
        rel = os.path.relpath(os.path.abspath(csv_path), start=script_dir)
        clauses.append(
            "  '%s' using %d:%d smooth unique with lines title '%s'"
            % (rel, epoch_col, f_col, title.replace("'", ""))
        )
    out.write(", \\\n".join(clauses))
    out.write("\n")
    text = out.getvalue()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


# --------------------------------------------------------------------------
# Runfile execution
# --------------------------------------------------------------------------

def execute_runfile(config: RunFileConfig, base_dir: str = ".",
                    emit_plot=None):
    """Run every schedule in the runfile.

    A single-schedule runfile produces one CSV named by `out`. With several
    schedules (semicolon-separated), each CSV gets an index suffix and a
    gnuplot script named after `out` ties them together. Returns the list
    of CSV paths and the plot-script path (None when no script is written);
    emit_plot=None means "only for multi-schedule runs".
    """
    objective, _ = build_objective(config)
    reference = resolve_reference(objective)
    iterations = config.epochs * objective.component_count
    schedules = config.schedule_list()

    out_path = os.path.join(base_dir, config.out)
    stem, ext = os.path.splitext(out_path)
    ext = ext or ".csv"

    written = []
    titles = []
    for k, text in enumerate(schedules, start=1):
        sched = parse_schedule(text)
        run_config = RunConfig(
            objective=objective,
            schedule=sched,
            seed=config.seeds[0],
            iterations=iterations,
            record_stride=config.stride,
            reference=reference,
        )
        sweep = multi_seed_sweep(run_config, config.seeds)
        if len(schedules) == 1:
            csv_path = stem + ext
        else:
            csv_path = "%s_%d%s" % (stem, k, ext)
        write_results(sweep, csv_path)
        written.append(csv_path)
        titles.append(text)

    if emit_plot is None:
        emit_plot = len(schedules) > 1
    plot_path = None
    if emit_plot:
        plot_path = stem + ".gp"
        emit_plot_script(written, plot_path, titles=titles)
    return written, plot_path
