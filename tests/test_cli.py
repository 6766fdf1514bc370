"""Command-line interface tests, run in process against cli.main."""

import os

import numpy as np
import pytest

import curvesgd as cg
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


def test_verify_quick_passes(capsys):
    rc = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") >= 8


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


@pytest.mark.filterwarnings("error")
def test_non_finite_dataset_exits_two(tmp_path, capsys):
    data = tmp_path / "bad.svm"
    data.write_text("+1 1:0.5 2:1\n-1 1:nan 2:inf\n")
    text = BASE_RUNFILE.replace("synth:linear,n=20,d=3,seed=4", str(data))
    assert main(["run", write_runfile(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "error: line 2: feature value 'nan' is not finite" in err


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
