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
from dataclasses import dataclass

import numpy as np

from .engine import RunConfig, moving_mean, multi_seed_sweep
from .objectives import (
    REGULARIZERS,
    Dataset,
    LeastSquaresObjective,
    LogisticObjective,
    solve_reference,
)
from .schedule import comma_entries, parse_fields, parse_schedule

RESULT_HEADER = ("run", "seed", "epoch", "t", "eta", "F", "E", "Y", "smoothed_F")

# seconds a dataset download may stall before load_libsvm gives up
URL_TIMEOUT = 60.0


def _float_cells(values) -> list:
    """Cells of an array in row-major order."""
    return ["%.17g" % x for x in np.asarray(values, dtype=float).ravel().tolist()]


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
        # imported here: urllib.request pulls in http, email and ssl
        import urllib.request

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
    raise ValueError("unknown synthetic kind %r (%s)"
                     % (kind, " or ".join(_SYNTH_KINDS)))


def parse_seed(value) -> int:
    """The one seed rule: a seed (an int or its text) is nonnegative."""
    seed = int(value)
    if seed < 0:
        raise ValueError("seed %d must be nonnegative" % seed)
    return seed


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


# synth: spec kinds, and field -> value parser; separation is optional
_SYNTH_KINDS = ("blobs", "linear")
SYNTH_FIELDS = {"n": int, "d": int, "seed": parse_seed, "separation": _finite}


def load_dataset(source: str) -> Dataset:
    """Resolve a dataset field: a LIBSVM path or URL, or a
    `synth:<kind>,n=..,d=..,seed=..[,separation=..]` spec, whose kind comes
    first and is checked before any field is parsed."""
    if not source.startswith("synth:"):
        return load_libsvm(source)
    kind, _, body = source[len("synth:"):].partition(",")
    where = "synth spec %r" % (source,)
    if kind.strip() not in _SYNTH_KINDS:
        raise ValueError("%s must name its kind first (%s), got %r"
                         % (where, " or ".join(_SYNTH_KINDS), kind))
    fields = parse_fields(comma_entries(body, where), SYNTH_FIELDS, where,
                          optional=("separation",))
    return synthesize_dataset(kind=kind.strip(), **fields)


# --------------------------------------------------------------------------
# Run configuration files
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunFileConfig:
    """Parsed run configuration, one field per runfile key (see RUNFILE_FIELDS).
    Every construction, a CLI override's included, checks each field's
    range with _check_field."""

    dataset: str
    variant: str
    lam: float
    schedule: str
    seeds: tuple
    epochs: int
    stride: int
    out: str

    def __post_init__(self):
        for key, (field, _) in RUNFILE_FIELDS.items():
            _check_field(key, getattr(self, field))

    def schedule_list(self):
        return _schedule_entries(self.schedule)


def _schedule_entries(text: str) -> list:
    """The schedules of a `;`-separated schedule field, blanks skipped."""
    entries = [s for s in map(str.strip, text.split(";")) if s]
    if not entries:
        raise ValueError("schedule field must name at least one schedule")
    return entries


def _check_field(key: str, value) -> None:
    """The range rule of one parsed runfile value; raises ValueError."""
    if key == "variant" and value not in REGULARIZERS:
        raise ValueError("unknown variant %r (choose from %s)"
                         % (value, ", ".join(REGULARIZERS)))
    if key == "lambda" and not 0.0 <= value < math.inf:
        raise ValueError("lambda must be nonnegative and finite")
    if key in ("epochs", "stride") and value < 1:
        raise ValueError("%s must be at least 1" % key)
    if key == "seeds":
        if not value:
            raise ValueError("seed list must not be empty")
        for k, seed in enumerate(value):
            if parse_seed(seed) in value[:k]:
                raise ValueError("seeds must be distinct, got seed %d twice"
                                 % seed)
    if key == "out" and not os.path.basename(value):
        raise ValueError("out must name the output file, got %r" % value)
    if key == "schedule":
        for entry in _schedule_entries(value):
            parse_schedule(entry)  # errors carry the schedule text


def _parse_seeds(text: str) -> tuple:
    return tuple(parse_seed(s) for s in text.split(",") if s.strip())


# runfile key -> (RunFileConfig field, parser of the value text), in the
# order format_runfile writes them; every key is required
RUNFILE_FIELDS = {
    "dataset": ("dataset", str),
    "variant": ("variant", str),
    "lambda": ("lam", float),
    "schedule": ("schedule", str),
    "seeds": ("seeds", _parse_seeds),
    "epochs": ("epochs", int),
    "stride": ("stride", int),
    "out": ("out", str),
}


def _checked_parser(key: str):
    parse = RUNFILE_FIELDS[key][1]

    def parse_and_check(text):
        value = parse(text)
        _check_field(key, value)
        return value
    return parse_and_check


def parse_runfile(text: str) -> RunFileConfig:
    """Parse `key = value` lines; '#' comments and blank lines are skipped.
    The lines walk RUNFILE_FIELDS through parse_fields, each value parsed
    and range checked (_check_field), and each error after `line N: `."""
    entries = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError("line %d: expected key = value" % line_no)
        entries.append(("line %d: " % line_no, key.strip(), value.strip()))
    values = parse_fields(entries, {key: _checked_parser(key)
                                    for key in RUNFILE_FIELDS}, "runfile")
    return RunFileConfig(**{RUNFILE_FIELDS[key][0]: value
                            for key, value in values.items()})


def format_runfile(config: RunFileConfig) -> str:
    """Canonical text form; parse(format(parse(text))) == parse(text)."""
    lines = []
    for key, (field, _) in RUNFILE_FIELDS.items():
        value = getattr(config, field)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append("%s = %s" % (key, value))
    return "\n".join(lines) + "\n"


def read_runfile(path: str) -> RunFileConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_runfile(handle.read())


def build_objective(config: RunFileConfig):
    """Dataset string -> objective, with the loss picked by label shape.

    All-(+-1) labels mean classification (logistic loss); anything else is
    treated as regression (least squares).
    """
    data = load_dataset(config.dataset)
    if np.all(np.isin(data.y, (-1.0, 1.0))):
        objective = LogisticObjective(data, config.variant, config.lam)
    else:
        objective = LeastSquaresObjective(data, config.variant, config.lam)
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
    """Flatten a sweep into CSV rows, one per (seed, record), seed-major."""
    S, R = sweep.F.shape
    if sweep.has_reference:
        e_cells, y_cells = _float_cells(sweep.E), _float_cells(sweep.Y)
    else:
        e_cells = y_cells = [""] * (S * R)
    return list(zip(
        [run_id] * (S * R),
        [str(seed) for seed in sweep.seeds for _ in range(R)],
        _float_cells(sweep.t / sweep.component_count) * S,
        [str(t) for t in sweep.t.tolist()] * S,
        _float_cells(sweep.eta) * S,
        _float_cells(sweep.F),
        e_cells,
        y_cells,
        _float_cells(moving_mean(sweep.F, 3)),
    ))


def write_results(sweep, path: str) -> ResultTable:
    """Write one sweep to CSV with the fixed header; ends with a newline.
    The run column holds the file's stem. Every other cell is a number or
    empty, so only the stem can need quoting, and csv quotes it once."""
    stem = os.path.splitext(os.path.basename(path))[0]
    rows = results_rows(sweep, stem)
    quoted = io.StringIO()
    csv.writer(quoted, lineterminator="\n").writerow([stem])
    run_cell = quoted.getvalue()[:-1]
    lines = [",".join(RESULT_HEADER)] + [",".join(row) for row in rows]
    if run_cell != stem:
        lines[1:] = [run_cell + line[len(stem):] for line in lines[1:]]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return ResultTable(header=RESULT_HEADER, rows=rows)


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
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    "results file %r line %d: %d cells, expected %d"
                    % (path, reader.line_num, len(row), len(header))
                )
            rows.append(tuple(row))
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
        # gnuplot writes a quote inside a single-quoted string as two
        clauses.append(
            "  '%s' using %d:%d smooth unique with lines title '%s'"
            % (rel.replace("'", "''"), epoch_col, f_col, title.replace("'", "''"))
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
                    emit_plot: bool = False):
    """Run every schedule in the runfile, in one lockstep sweep.

    A single-schedule runfile produces one CSV named by `out`. With several
    schedules (semicolon-separated), each CSV gets an index suffix. With
    emit_plot, a gnuplot script named after `out` overlays the CSVs.
    Returns the list of CSV paths and the plot-script path (None when no
    script is written).
    """
    objective, _ = build_objective(config)
    reference = resolve_reference(objective)
    iterations = config.epochs * objective.component_count
    schedules = config.schedule_list()

    out_path = os.path.join(base_dir, config.out)
    stem, ext = os.path.splitext(out_path)
    ext = ext or ".csv"

    run_config = RunConfig(
        objective=objective,
        schedule=tuple(parse_schedule(text) for text in schedules),
        seed=config.seeds[0], iterations=iterations,
        record_stride=config.stride, reference=reference)
    # every schedule runs before any file is written, so a divergence
    # leaves no partial output
    sweeps = multi_seed_sweep(run_config, config.seeds)
    if len(schedules) == 1:
        written = [stem + ext]
    else:
        written = ["%s_%d%s" % (stem, k, ext) for k in range(1, len(schedules) + 1)]
    for sweep, csv_path in zip(sweeps, written):
        write_results(sweep, csv_path)

    plot_path = None
    if emit_plot:
        plot_path = stem + ".gp"
        emit_plot_script(written, plot_path, titles=schedules)
    return written, plot_path
