"""Dataset parsing, synthesis, runfiles, result tables, and plot scripts."""

import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import curvesgd as cg
from curvesgd import dataio


# ---------------------------------------------------------------------------
# LIBSVM parsing

def test_parse_single_line():
    data = cg.parse_libsvm("+1 1:0.5 3:-2")
    assert data.dimension == 3
    assert np.array_equal(data.X, np.array([[0.5, 0.0, -2.0]]))
    assert np.array_equal(data.y, np.array([1.0]))


def test_parse_label_mapping():
    data = cg.parse_libsvm("2 1:1\n1 1:0\n")
    assert np.array_equal(data.y, np.array([-1.0, 1.0]))
    data2 = cg.parse_libsvm("-1 1:3\n+1 2:4\n1.0 1:1\n2.0 1:2\n")
    assert np.array_equal(data2.y, np.array([-1.0, 1.0, 1.0, -1.0]))


def test_parse_sparse_fill_and_dimension():
    text = "1 2:7\n-1 1:1 4:2\n"
    data = cg.parse_libsvm(text)
    assert data.dimension == 4
    assert np.array_equal(data.X, np.array([
        [0.0, 7.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 2.0],
    ]))


def test_parse_accepts_line_iterables():
    lines = ["1 1:1", "2 1:2"]
    a = cg.parse_libsvm(lines)
    b = cg.parse_libsvm("\n".join(lines))
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_parse_rejects_unmappable_label():
    with pytest.raises(ValueError) as err:
        cg.parse_libsvm("1 1:1\n3 1:2\n")
    assert "line 2" in str(err.value)
    assert "unmappable label" in str(err.value)


def test_parse_rejects_bad_indices():
    with pytest.raises(ValueError) as err:
        cg.parse_libsvm("1 0:5")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError) as err:
        cg.parse_libsvm("1 1:1 1:2")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError):
        cg.parse_libsvm("1 2:1 1:2")  # decreasing


def test_parse_rejects_malformed_pairs():
    with pytest.raises(ValueError):
        cg.parse_libsvm("1 1:x")
    with pytest.raises(ValueError):
        cg.parse_libsvm("1 novalue")


def test_parse_rejects_non_finite_values():
    for text, line in (("1 1:1\n-1 1:nan 2:1\n", 2), ("-1 2:inf\n", 1),
                       ("1 1:-Infinity\n", 1)):
        with pytest.raises(ValueError) as err:
            cg.parse_libsvm(text)
        assert "line %d" % line in str(err.value)
        assert "not finite" in str(err.value)
    # the dense constructor holds the same contract
    for X, y in (([[math.nan]], [1.0]), ([[1.0]], [math.inf])):
        with pytest.raises(ValueError):
            cg.Dataset(X, y)


def test_parse_empty_input():
    for text in ("", "   \n\n"):
        with pytest.raises(ValueError) as err:
            cg.parse_libsvm(text)
        assert "empty dataset" in str(err.value)


# ---------------------------------------------------------------------------
# synthetic datasets

def test_synthesize_deterministic():
    a = cg.synthesize_dataset(30, 4, 7, "blobs")
    b = cg.synthesize_dataset(30, 4, 7, "blobs")
    c = cg.synthesize_dataset(30, 4, 8, "blobs")
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.X, c.X)


def test_synthesize_blobs_separable_when_far_apart():
    data = cg.synthesize_dataset(1000, 5, 0, "blobs", separation=10.0)
    assert set(np.unique(data.y)) == {-1.0, 1.0}
    obj = cg.LogisticObjective(data, "norm2_squared", 1e-3)
    ref = cg.solve_reference(obj)
    predicted = np.sign(data.X @ ref.w_star)
    accuracy = float(np.mean(predicted == data.y))
    assert accuracy >= 0.99


def test_synthesize_linear_recovery():
    data = cg.synthesize_dataset(50, 5, 3, "linear")
    assert data.planted_weights is not None
    obj = cg.LeastSquaresObjective(data)
    ref = cg.solve_reference(obj)
    assert np.max(np.abs(ref.w_star - data.planted_weights)) <= 1e-8


def test_synthesize_validates_sizes_and_kind():
    with pytest.raises(ValueError):
        cg.synthesize_dataset(1, 3, 0, "blobs")
    with pytest.raises(ValueError):
        cg.synthesize_dataset(10, 0, 0, "blobs")
    with pytest.raises(ValueError):
        cg.synthesize_dataset(10, 3, 0, "spirals")


def test_load_dataset_synth_spec():
    data = dataio.load_dataset("synth:blobs,n=40,d=3,seed=5")
    assert data.X.shape == (40, 3)
    with pytest.raises(ValueError):
        dataio.load_dataset("synth:blobs,n=40")  # missing required fields


@pytest.mark.parametrize("spec, message", [
    ("synth:blobs,n=20,d=3,seed=1,n=30", "duplicate key 'n'"),
    ("synth:blobs,n=abc,d=3,seed=1",
     "bad n value 'abc': invalid literal for int() with base 10: 'abc'"),
    ("synth:blobs,n=20,d=3,seed=1,separation=far",
     "bad separation value 'far': could not convert string to float: 'far'"),
])
def test_synth_spec_rejects_a_repeated_or_unparsable_field(spec, message):
    with pytest.raises(ValueError) as err:
        dataio.load_dataset(spec)
    assert str(err.value) == "synth spec %r: %s" % (spec, message)


# ---------------------------------------------------------------------------
# runfiles

RUNFILE_TEXT = """
# demo runfile
dataset = synth:linear,n=20,d=3,seed=4
variant = norm2_squared
lambda = 0.5
schedule = const:0.01
seeds = 0,1,2
epochs = 2
stride = 1
out = demo.csv
"""


def test_parse_runfile_and_round_trip():
    cfg = cg.parse_runfile(RUNFILE_TEXT)
    assert cfg.dataset == "synth:linear,n=20,d=3,seed=4"
    assert cfg.variant == "norm2_squared"
    assert cfg.lam == 0.5
    assert cfg.seeds == (0, 1, 2)
    assert cfg.epochs == 2
    assert cfg.out == "demo.csv"
    assert cg.parse_runfile(cg.format_runfile(cfg)) == cfg


field_text = st.text(alphabet="abcXYZ019._-/:,=+ ", min_size=1, max_size=20).map(
    str.strip).filter(bool)
schedule_text = st.lists(
    st.sampled_from(["const:0.01", "power:scale=0.1,h=0.25",
                     "paper-opt:h=0.5,beta=1.0,L=2.0,r=inf"]),
    min_size=1, max_size=3).map("; ".join)
runfiles = st.builds(
    cg.RunFileConfig,
    dataset=field_text,
    schedule=schedule_text,
    seeds=st.lists(st.integers(0, 2 ** 64), min_size=1, max_size=5,
                   unique=True).map(tuple),
    epochs=st.integers(1, 10 ** 6),
    out=field_text.filter(os.path.basename),
    variant=st.sampled_from(dataio.REGULARIZERS),
    lam=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    stride=st.integers(1, 10 ** 6),
)


@given(runfiles)
def test_parse_format_runfile_round_trip_property(config):
    assert cg.parse_runfile(cg.format_runfile(config)) == config


def test_parse_runfile_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ValueError) as err:
        cg.parse_runfile(RUNFILE_TEXT + "model = logistic\n")
    assert "model" in str(err.value)
    with pytest.raises(ValueError) as err:
        cg.parse_runfile(RUNFILE_TEXT + "epochs = 3\n")
    assert "duplicate" in str(err.value).lower()


def test_parse_runfile_rejects_a_repeated_seed():
    # each seed is an independent run, so a repeat would duplicate rows
    with pytest.raises(ValueError) as err:
        cg.parse_runfile(RUNFILE_TEXT.replace("seeds = 0,1,2", "seeds = 0,1,0"))
    assert str(err.value) == ("line 7: bad seeds value '0,1,0': "
                              "seeds must be distinct, got seed 0 twice")


# key -> (runfile value, the range error that RunFileConfig raises)
RANGE_ERRORS = {
    "epochs": ("0", "epochs must be at least 1"),
    "stride": ("0", "stride must be at least 1"),
    "seeds": ("0,0", "seeds must be distinct, got seed 0 twice"),
    "lambda": ("-1", "lambda must be nonnegative and finite"),
    "variant": ("l1", "unknown variant 'l1' (choose from plain, norm2, "
                      "norm2_squared, exp_cosh_G)"),
    "out": ("dir/", "out must name the output file, got 'dir/'"),
}


@pytest.mark.parametrize("key", sorted(RANGE_ERRORS))
def test_runfile_range_error_names_its_line(key):
    value, reason = RANGE_ERRORS[key]
    lines = RUNFILE_TEXT.splitlines()
    line_no = next(k for k, line in enumerate(lines, start=1)
                   if line.startswith(key + " ="))
    lines[line_no - 1] = "%s = %s" % (key, value)
    with pytest.raises(ValueError) as err:
        cg.parse_runfile("\n".join(lines))
    assert str(err.value) == "line %d: bad %s value %r: %s" % (
        line_no, key, value, reason)


def test_parse_runfile_requires_core_keys():
    with pytest.raises(ValueError) as err:
        cg.parse_runfile("dataset = synth:blobs,n=10,d=2,seed=0\n")
    msg = str(err.value)
    assert "schedule" in msg or "missing" in msg


@pytest.mark.parametrize("key, value", [
    ("epochs", "abc"),
    ("stride", "2.5"),
    ("lambda", "half"),
    ("seeds", "0,x"),
    ("seeds", "-1"),
    ("seeds", "3,-2"),
])
def test_parse_runfile_bad_value_names_line_and_key(key, value):
    lines = RUNFILE_TEXT.splitlines()
    line_no = next(k for k, line in enumerate(lines, start=1)
                   if line.startswith(key + " ="))
    lines[line_no - 1] = "%s = %s" % (key, value)
    with pytest.raises(ValueError) as err:
        cg.parse_runfile("\n".join(lines))
    assert str(err.value).startswith("line %d: bad %s value" % (line_no, key))


SCHEDULE_TEXT = "power:scale=0.1,h=0.25"
SYNTH_TEXT = "synth:blobs,n=20,d=3,seed=1"

# grammar -> (parser, {error: (text, key named, runfile line or None)});
# RUNFILE_TEXT has its last key on line 10
FIELD_ERRORS = {
    "schedule": (cg.parse_schedule, {
        "unknown": (SCHEDULE_TEXT + ",q=2", "q", None),
        "repeated": (SCHEDULE_TEXT + ",h=0.5", "h", None),
        "missing": ("power:scale=0.1", "h", None),
        "unparsable": ("power:scale=abc,h=0.25", "scale", None),
    }),
    "synth": (dataio.load_dataset, {
        "unknown": (SYNTH_TEXT + ",m=2", "m", None),
        "repeated": (SYNTH_TEXT + ",d=4", "d", None),
        "missing": ("synth:blobs,n=20,d=3", "seed", None),
        "unparsable": (SYNTH_TEXT.replace("d=3", "d=3.5"), "d", None),
    }),
    "runfile": (cg.parse_runfile, {
        "unknown": (RUNFILE_TEXT + "model = logistic\n", "model", 11),
        "repeated": (RUNFILE_TEXT + "epochs = 3\n", "epochs", 11),
        "missing": (RUNFILE_TEXT.replace("stride = 1\n", ""), "stride", None),
        "unparsable": (RUNFILE_TEXT.replace("epochs = 2", "epochs = abc"),
                       "epochs", 8),
    }),
}


@pytest.mark.parametrize("error", ["unknown", "repeated", "missing", "unparsable"])
@pytest.mark.parametrize("grammar", sorted(FIELD_ERRORS))
def test_every_grammar_names_the_key_of_a_field_error(grammar, error):
    parse, cases = FIELD_ERRORS[grammar]
    text, key, line_no = cases[error]
    with pytest.raises(ValueError) as err:
        parse(text)
    message = str(err.value)
    if error == "unparsable":
        assert "bad %s value" % key in message
    else:
        assert repr(key) in message
    if line_no is not None:
        assert message.startswith("line %d: " % line_no)


def test_readme_runfile_requires_every_key():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        readme = handle.read()
    # the example runfile under the README's "All eight keys" sentence
    block = readme.split("All eight keys are required:", 1)[1]
    text = block.split("```")[1].strip("\n")
    cfg = cg.parse_runfile(text)
    assert cg.parse_runfile(cg.format_runfile(cfg)) == cfg
    keys = [line.split("=")[0].strip() for line in text.splitlines()]
    assert keys == list(dataio.RUNFILE_FIELDS)
    for key in keys:
        without = "\n".join(line for line in text.splitlines()
                            if line.split("=")[0].strip() != key)
        with pytest.raises(ValueError) as err:
            cg.parse_runfile(without)
        assert repr(key) in str(err.value)


def test_parse_runfile_rejects_bad_variant_and_schedule():
    with pytest.raises(ValueError):
        cg.parse_runfile(RUNFILE_TEXT.replace("norm2_squared", "lasso"))
    with pytest.raises(ValueError):
        cg.parse_runfile(RUNFILE_TEXT.replace("const:0.01", "warp:9"))


def test_schedule_list_splits_on_semicolons():
    cfg = cg.parse_runfile(RUNFILE_TEXT.replace(
        "const:0.01", "const:0.01; power:scale=0.1,h=0.5"))
    entries = cfg.schedule_list()
    assert len(entries) == 2
    assert cg.parse_schedule(entries[0]).kind == "constant"
    assert cg.parse_schedule(entries[1]).kind == "power_law"


def test_build_objective_infers_loss_from_labels():
    cfg = cg.parse_runfile(RUNFILE_TEXT)
    obj, data = dataio.build_objective(cfg)
    assert isinstance(obj, cg.LeastSquaresObjective)
    assert data.size == 20
    blob_cfg = cg.parse_runfile(RUNFILE_TEXT.replace(
        "synth:linear,n=20,d=3,seed=4", "synth:blobs,n=20,d=3,seed=4"))
    obj2, _ = dataio.build_objective(blob_cfg)
    assert isinstance(obj2, cg.LogisticObjective)
    assert obj2.regularization_weight == 0.5


# ---------------------------------------------------------------------------
# result tables

def small_sweep(with_reference=True):
    obj = cg.QuadraticMeanObjective(1.0, np.array([[1.0], [-1.0]]))
    ref = cg.solve_reference(obj) if with_reference else None
    cfg = cg.RunConfig(objective=obj, schedule=cg.ScheduleSpec.constant(0.1),
                       seed=0, iterations=6, record_stride=2, reference=ref)
    return cg.multi_seed_sweep(cfg, seeds=(0, 1))


def test_write_read_round_trip(tmp_path):
    sweep = small_sweep()
    path = str(tmp_path / "out.csv")
    table = cg.write_results(sweep, path)
    back = cg.read_results(path)
    assert back.header == dataio.RESULT_HEADER
    assert back.rows == table.rows
    # every float column survives the trip bit for bit
    for col in ("t", "eta", "F", "E", "Y", "smoothed_F"):
        assert np.array_equal(back.column(col), table.column(col))
    # run id defaults to the file stem
    assert set(back.text_column("run")) == {"out"}
    # two seeds, four records each
    assert len(back.rows) == 8


def test_rows_without_reference_leave_gap_columns_empty(tmp_path):
    sweep = small_sweep(with_reference=False)
    path = str(tmp_path / "plain.csv")
    table = cg.write_results(sweep, path)
    assert all(cell == "" for cell in table.text_column("E"))
    assert all(cell == "" for cell in table.text_column("Y"))
    assert np.all(np.isnan(table.column("E")))
    f_col = table.column("F")
    assert np.all(np.isfinite(f_col))


def test_smoothed_column_is_trailing_mean_per_seed():
    sweep = small_sweep()
    rows = dataio.results_rows(sweep, "demo")
    per_seed = [r for r in rows if r[1] == "0"]
    f_vals = np.array([float(r[5]) for r in per_seed])
    smoothed = np.array([float(r[8]) for r in per_seed])
    assert np.allclose(smoothed, cg.moving_mean(f_vals, 3), rtol=1e-12)


def test_epoch_column_scales_by_component_count():
    sweep = small_sweep()
    rows = dataio.results_rows(sweep, "demo")
    # two components: epoch = t / 2
    epochs = [float(r[2]) for r in rows if r[1] == "0"]
    ts = [int(r[3]) for r in rows if r[1] == "0"]
    assert epochs == [t / 2.0 for t in ts]


def test_read_results_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError) as err:
        cg.read_results(str(path))
    assert "header" in str(err.value)


def test_read_results_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    header = ",".join(dataio.RESULT_HEADER)
    path.write_text(header + "\nx,1\n")
    with pytest.raises(ValueError) as err:
        cg.read_results(str(path))
    assert "line 2" in str(err.value)


def test_result_table_unknown_column():
    sweep = small_sweep()
    rows = dataio.results_rows(sweep, "demo")
    table = dataio.ResultTable(dataio.RESULT_HEADER, rows)
    with pytest.raises(KeyError):
        table.column("loss")


# ---------------------------------------------------------------------------
# plot scripts

def test_emit_plot_script_lists_every_curve(tmp_path):
    paths = [str(tmp_path / ("run_%d.csv" % k)) for k in range(5)]
    script_path = str(tmp_path / "plot.gp")
    text = cg.emit_plot_script(paths, script_path)
    assert text.count("using") == 5
    assert "smooth unique" in text
    assert "logscale y" in text
    # paths inside the script are relative to the script location
    assert str(tmp_path) not in text
    for k in range(5):
        assert "run_%d.csv" % k in text
    assert os.path.exists(script_path)


def test_emit_plot_script_requires_curves(tmp_path):
    with pytest.raises(ValueError):
        cg.emit_plot_script([], str(tmp_path / "plot.gp"))


@pytest.mark.parametrize("name", ["a,b", 'say "hi"', "two words", "plain"])
def test_write_results_quotes_the_run_cell_as_csv_does(tmp_path, name):
    # only the run cell, the file stem, can need quoting
    sweep = small_sweep()
    path = str(tmp_path / (name + ".csv"))
    table = cg.write_results(sweep, path)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(dataio.RESULT_HEADER)
    writer.writerows(table.rows)
    with open(path, "rb") as handle:
        assert handle.read() == expected.getvalue().encode("utf-8")
    assert set(table.text_column("run")) == {name}
    assert cg.read_results(path).rows == table.rows


def test_emit_plot_script_column_indices(tmp_path):
    text = cg.emit_plot_script([str(tmp_path / "a.csv")], str(tmp_path / "p.gp"))
    epoch_col = dataio.RESULT_HEADER.index("epoch") + 1
    f_col = dataio.RESULT_HEADER.index("F") + 1
    assert "using %d:%d" % (epoch_col, f_col) in text


# ---------------------------------------------------------------------------
# runfile execution

def test_execute_runfile_single_schedule(tmp_path):
    cfg = cg.parse_runfile(RUNFILE_TEXT)
    written, plot = cg.execute_runfile(cfg, base_dir=str(tmp_path))
    assert plot is None
    assert [os.path.basename(p) for p in written] == ["demo.csv"]
    table = cg.read_results(written[0])
    # 3 seeds, 2 epochs of 20 examples, stride 1: 41 records per seed
    assert len(table.rows) == 3 * 41
    # norm2_squared on least squares pins a strongly convex reference
    assert all(cell != "" for cell in table.text_column("E"))


def test_execute_runfile_multi_schedule_names_and_plot(tmp_path):
    text = RUNFILE_TEXT.replace("const:0.01",
                                "const:0.01; const:0.005")
    cfg = cg.parse_runfile(text)
    written, plot = cg.execute_runfile(cfg, base_dir=str(tmp_path), emit_plot=True)
    names = [os.path.basename(p) for p in written]
    assert names == ["demo_1.csv", "demo_2.csv"]
    assert plot is not None and plot.endswith("demo.gp")
    assert os.path.exists(plot)
    ids = {cg.read_results(p).text_column("run")[0] for p in written}
    assert ids == {"demo_1", "demo_2"}


def test_execute_runfile_reruns_identically(tmp_path):
    cfg = cg.parse_runfile(RUNFILE_TEXT)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    first, _ = cg.execute_runfile(cfg, base_dir=str(dir_a))
    second, _ = cg.execute_runfile(cfg, base_dir=str(dir_b))
    with open(first[0], "rb") as fa, open(second[0], "rb") as fb:
        assert fa.read() == fb.read()


def test_load_libsvm_url_has_timeout(monkeypatch):
    seen = {}

    def fake_urlopen(url, timeout=None):
        seen.update(url=url, timeout=timeout)
        return io.BytesIO(b"+1 1:0.5\n-1 2:1.5\n")

    monkeypatch.setattr(dataio.urllib.request, "urlopen", fake_urlopen)
    data = cg.load_libsvm("https://example.invalid/data.svm")
    assert seen["url"] == "https://example.invalid/data.svm"
    assert seen["timeout"] == dataio.URL_TIMEOUT
    assert 0 < dataio.URL_TIMEOUT < float("inf")
    assert np.array_equal(data.y, [1.0, -1.0])
