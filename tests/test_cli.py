"""Command-line interface tests, run in process against cli.main."""

import inspect
import os

import numpy as np
import pytest

import curvesgd as cg
from curvesgd import cli, verify
from curvesgd.cli import main


BASE_RUNFILE = """
dataset = synth:linear,n=20,d=3,seed=4
variant = norm2_squared
lambda = 0.5
schedule = const:0.01
seeds = 0,1
epochs = 2
stride = 4
out = res.csv
"""


def write_runfile(tmp_path, text, name="job.run"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_schedule_prints_matched_table(capsys):
    rc = main(["schedule", "paper-opt:h=1,beta=0.5,L=1", "--t", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    # eta_0 = min(1/(2L), r)^(1/(2-h)) = 0.5
    row = out.strip().splitlines()[-1].split()
    assert float(row[1]) == pytest.approx(0.5, rel=1e-10)
    assert "C_bar" in out


def test_schedule_prints_simple_table(capsys):
    rc = main(["schedule", "const:0.05", "--t", "0,5"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0", "5"]
    assert all(float(r[1]) == pytest.approx(0.05) for r in rows)


def test_schedule_rejects_bad_text(capsys):
    rc = main(["schedule", "warp:fast"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("text, field", [
    ("const:nan", "constant step size"),
    ("const:inf", "constant step size"),
    ("power:scale=inf,h=0.5", "scale"),
    ("paper-opt:h=1,beta=nan,L=1", "beta"),
    ("paper-opt:h=0.5,beta=1,L=1,r=nan", "r must be positive"),
    # delta = 4e100 and the first step are finite, the envelope constant not
    ("paper-opt:h=1,beta=1e-200,L=1e-100", "beta = 1e-200, h = 1.0"),
    # the envelope constant underflows to 0, once a C_bar column of zeros
    ("paper-opt:h=1,beta=1e300,L=1e300", "overflows or underflows"),
])
def test_schedule_rejects_non_finite_values(capsys, text, field):
    rc = main(["schedule", text, "--t", "0,1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert field in captured.err


def test_schedule_rejects_non_finite_times(capsys):
    rc = main(["schedule", "paper-opt:h=0.5,beta=1,L=1", "--t", "0,nan"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "finite" in captured.err and "nan" not in captured.out


def test_schedule_prints_nothing_unless_every_row_computes(capsys):
    # the row at t = 1 computes, the one at t = -2 does not
    rc = main(["schedule", "const:0.1", "--t", "1,-2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: t must be nonnegative\n"


@pytest.mark.parametrize("old, new, field", [
    ("lambda = 0.5", "lambda = nan", "lambda"),
    ("lambda = 0.5", "lambda = inf", "lambda"),
    ("const:0.01", "const:nan", "constant step size"),
    ("const:0.01", "paper-opt:h=0.5,beta=1,L=1,r=nan", "r must be positive"),
    # delta = inf once ran with steps of 0, and delta = 0 diverged at step 0
    ("const:0.01", "paper-opt:h=1,beta=1e-300,L=1e300", "delta = inf"),
    ("const:0.01", "paper-opt:h=1,beta=1e300,L=1e-300", "delta = 0.0"),
])
def test_run_rejects_non_finite_runfile_values(tmp_path, capsys, old, new, field):
    path = write_runfile(tmp_path, BASE_RUNFILE.replace(old, new))
    rc = main(["run", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert field in err
    assert not (tmp_path / "res.csv").exists()


def test_run_rejects_an_exp_cosh_weight_past_half_the_largest_double(
        tmp_path, capsys):
    text = BASE_RUNFILE.replace("norm2_squared", "exp_cosh_G")
    path = write_runfile(tmp_path, text.replace("lambda = 0.5", "lambda = 1e308"))
    rc = main(["run", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: line 4: bad lambda value '1e308': ")
    assert not (tmp_path / "res.csv").exists()


def test_verify_quick_passes(capsys):
    rc = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") >= 8


@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_checks_take_only_their_quick_sizes(name):
    # seeds and tolerances are fixed inside each check; a caller sets only
    # the sample sizes that --quick shrinks, and v_agreement's eta_points,
    # which --quick leaves at its default (one bisection checks all 20
    # points as fast as 5) but a benchmark warm-up still sets
    params = inspect.signature(getattr(verify, "check_" + name)).parameters
    kept = {"eta_points"} if name == "v_agreement" else set()
    assert set(params) == set(verify.QUICK_SIZES.get(name, {})) | kept


def test_run_writes_results(tmp_path, capsys):
    path = write_runfile(tmp_path, BASE_RUNFILE)
    rc = main(["run", path])
    out = capsys.readouterr().out
    assert rc == 0
    csv_path = tmp_path / "res.csv"
    assert csv_path.exists()
    assert "res.csv" in out
    table = cg.read_results(str(csv_path))
    # 2 seeds, 40 iterations at stride 4: 11 records each
    assert len(table.rows) == 22


def test_run_overrides(tmp_path):
    path = write_runfile(tmp_path, BASE_RUNFILE)
    rc = main(["run", path, "--epochs", "1", "--out", "short.csv",
               "--seed", "5", "--stride", "20"])
    assert rc == 0
    table = cg.read_results(str(tmp_path / "short.csv"))
    assert len(table.rows) == 2
    assert set(table.text_column("seed")) == {"5"}


def test_run_refuses_multiple_schedules(tmp_path, capsys):
    text = BASE_RUNFILE.replace("const:0.01", "const:0.01; const:0.02")
    path = write_runfile(tmp_path, text)
    rc = main(["run", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "sweep" in err


def test_sweep_emits_plot_script(tmp_path, capsys):
    text = BASE_RUNFILE.replace("const:0.01", "const:0.01; const:0.02")
    path = write_runfile(tmp_path, text)
    rc = main(["sweep", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "res_1.csv").exists()
    assert (tmp_path / "res_2.csv").exists()
    assert (tmp_path / "res.gp").exists()
    assert "res.gp" in out


def test_estimate_curvature_strongly_convex(tmp_path, capsys):
    path = write_runfile(tmp_path, BASE_RUNFILE.replace(
        "synth:linear,n=20,d=3,seed=4", "synth:linear,n=40,d=3,seed=4"))
    rc = main(["estimate-curvature", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fitted h" in out
    fitted = float(out.strip().split()[-1])
    assert fitted >= 0.9


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["defragment"]) == 2
    capsys.readouterr()
    assert main(["run", str(tmp_path / "missing.run")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_one_parser_serves_a_usage_error_and_the_next_command(capsys):
    # main builds its parser once per process; a usage error on it must
    # leave the next call as a fresh parser would take it
    argvs = (["schedule"], ["schedule", "paper-opt:h=0.5,beta=1,L=2", "--t", "0,10"])
    cli._build_parser.cache_clear()
    shared = [(main(argv), capsys.readouterr()) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    separate = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        separate.append((main(argv), capsys.readouterr()))
    assert shared == separate
    assert [code for code, _ in shared] == [2, 0]
    assert "the following arguments are required: text" in shared[0][1].err
    assert shared[1][1].out.startswith("t eta M exp_neg_M C C_bar\n0 ")


@pytest.mark.parametrize("dataset", ["synth:linear,n=20,d=3,seed=4",
                                     "missing/data.svm"])
@pytest.mark.parametrize("command", ["run", "sweep", "estimate-curvature"])
def test_negative_seed_exits_two_naming_the_seed(tmp_path, capsys, command,
                                                 dataset):
    # the seed is refused before the dataset is read, so a missing
    # dataset does not mask the error
    text = BASE_RUNFILE.replace("synth:linear,n=20,d=3,seed=4", dataset)
    assert main([command, write_runfile(tmp_path, text), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed -1" in err and "nonnegative" in err
    assert not (tmp_path / "res.csv").exists()


@pytest.mark.parametrize("dataset, named", [
    ("synth:n=20,d=3,seed=1", "must name its kind first (blobs or linear)"),
    ("synth:linear,n=20,d=3,seed=-1", "bad seed value '-1'"),
    ("synth:blobs,n=20,d=3,seed=1,separation=nan", "bad separation value 'nan'"),
    ("synth:blobs,n=20,d=3,seed=1,separation=inf", "bad separation value 'inf'"),
])
def test_bad_synth_spec_exits_two_naming_the_field(tmp_path, capsys, dataset,
                                                   named):
    text = BASE_RUNFILE.replace("synth:linear,n=20,d=3,seed=4", dataset)
    assert main(["run", write_runfile(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: synth spec %r" % dataset) and named in err


@pytest.mark.parametrize("out", ["", "sub/"])
def test_out_without_a_file_name_exits_two_and_writes_nothing(tmp_path, capsys,
                                                              out):
    # both used to write a hidden `.csv`, next to the runfile or in sub/
    (tmp_path / "sub").mkdir()
    text = BASE_RUNFILE.replace("out = res.csv", "out = " + out)
    assert main(["run", write_runfile(tmp_path, text)]) == 2
    assert "out must name the output file, got %r" % out in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["job.run", "sub"]
    assert os.listdir(tmp_path / "sub") == []


@pytest.mark.filterwarnings("error")
def test_non_finite_dataset_exits_two(tmp_path, capsys):
    data = tmp_path / "bad.svm"
    data.write_text("+1 1:0.5 2:1\n-1 1:nan 2:inf\n")
    text = BASE_RUNFILE.replace("synth:linear,n=20,d=3,seed=4", str(data))
    assert main(["run", write_runfile(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "error: line 2: feature value 'nan' is not finite" in err


@pytest.mark.parametrize("command", ["run", "estimate-curvature"])
def test_labels_only_dataset_exits_two(tmp_path, capsys, command):
    # every line holds a label and no feature: a (3, 0) dataset
    data = tmp_path / "labels.svm"
    data.write_text("+1\n-1\n+1\n")
    text = BASE_RUNFILE.replace("synth:linear,n=20,d=3,seed=4", str(data))
    assert main([command, write_runfile(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "one coordinate" in err
    assert sorted(os.listdir(tmp_path)) == ["job.run", "labels.svm"]


def test_cli_reruns_are_byte_identical(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    rc_a = main(["run", write_runfile(dir_a, BASE_RUNFILE)])
    rc_b = main(["run", write_runfile(dir_b, BASE_RUNFILE)])
    assert rc_a == 0 and rc_b == 0
    with open(dir_a / "res.csv", "rb") as fa, open(dir_b / "res.csv", "rb") as fb:
        assert fa.read() == fb.read()


def test_estimate_curvature_refuses_unattained_minimizer(tmp_path, capsys):
    # separable blobs without a strongly convex regularizer: the logistic
    # infimum is not attained, so there is no minimizer to measure against
    text = BASE_RUNFILE.replace("synth:linear,n=20,d=3,seed=4",
                                "synth:blobs,n=40,d=3,seed=1,separation=8")
    path = write_runfile(tmp_path, text.replace("norm2_squared", "plain"))
    rc = main(["estimate-curvature", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert "fitted h" not in captured.out
    assert "strongly convex" in captured.err


def test_estimate_curvature_solves_reference_once(tmp_path, monkeypatch, capsys):
    from curvesgd import dataio, objectives

    calls = []
    solve = objectives.solve_reference

    def counting_solve(objective, *args, **kwargs):
        calls.append(objective)
        return solve(objective, *args, **kwargs)

    monkeypatch.setattr(dataio, "solve_reference", counting_solve)
    monkeypatch.setattr(objectives, "solve_reference", counting_solve)
    rc = main(["estimate-curvature", write_runfile(tmp_path, BASE_RUNFILE)])
    assert rc == 0
    assert "fitted h" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.filterwarnings("error")
def test_diverging_run_exits_one(tmp_path, capsys):
    text = BASE_RUNFILE.replace("norm2_squared", "exp_cosh_G")
    path = write_runfile(tmp_path, text.replace("const:0.01", "const:5.0"))
    rc = main(["run", path])
    err = capsys.readouterr().err
    assert rc == 1
    assert "non-finite iterate" in err and "seed 0" in err


def test_sweep_whose_second_schedule_diverges_writes_nothing(tmp_path, capsys):
    # every schedule runs before any file is written
    text = BASE_RUNFILE.replace("norm2_squared", "exp_cosh_G")
    path = write_runfile(tmp_path, text.replace("const:0.01",
                                                "const:0.01; const:5.0"))
    rc = main(["sweep", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert "non-finite iterate" in captured.err and "seed 0" in captured.err
    assert "under schedule 'const:5.0'" in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["job.run"]


@pytest.mark.parametrize("option, value, message", [
    ("--epochs", "0", "epochs must be at least 1"),
    ("--stride", "0", "stride must be at least 1"),
    ("--out", "sub/", "out must name the output file, got 'sub/'"),
])
def test_override_range_error_names_the_key(tmp_path, capsys, option, value,
                                            message):
    # an override has no runfile line, so its error is the bare range rule
    path = write_runfile(tmp_path, BASE_RUNFILE)
    assert main(["run", path, option, value]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
