import csv
import subprocess
import sys

import numpy as np
import pytest

from elastmix.cli import main, parse_config_file
from elastmix.study import StudyConfig, run_study


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _strip_wall_time(rows):
    header = rows[0]
    drop = header.index("wall_time_s")
    return [[c for k, c in enumerate(row) if k != drop] for row in rows]


def test_run_study_writes_csv_and_markdown(tmp_path):
    out = tmp_path / "study.csv"
    config = StudyConfig(
        dim=2, levels=(2, 4, 8), solution="polynomial", output=str(out)
    )
    result = run_study(config)
    rows = _read_csv(out)
    assert rows[0][:5] == ["level", "N", "h", "stress_dofs", "disp_dofs"]
    assert len(rows) == 1 + 3 + 1  # header, levels, rate row
    assert rows[-1][0] == "rate"
    assert result.rate_fit_levels == (2, 4, 8)
    md = (tmp_path / "study.md").read_text()
    assert md.count("|") > 0
    assert "rates fitted on levels" in md


def test_csv_bodies_byte_identical_excluding_wall_time(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        run_study(
            StudyConfig(dim=2, levels=(2, 4, 8), solution="sine", output=str(out))
        )
    assert _strip_wall_time(_read_csv(out_a)) == _strip_wall_time(_read_csv(out_b))


def test_probe_csv_bodies_byte_identical_excluding_wall_time(tmp_path):
    # the probes' Lanczos start vector is seeded, so beta_h and alpha_kernel
    # repeat to the last digit
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        run_study(
            StudyConfig(
                dim=2, levels=(2, 4, 8), solution="sine", output=str(out),
                probe_infsup=True,
            )
        )
    assert _strip_wall_time(_read_csv(out_a)) == _strip_wall_time(_read_csv(out_b))


def test_single_level_warns_and_skips_rates(tmp_path):
    out = tmp_path / "one.csv"
    with pytest.warns(UserWarning, match="need 3 for a rate fit"):
        result = run_study(
            StudyConfig(dim=2, levels=(2,), solution="polynomial", output=str(out))
        )
    assert result.rates == {}
    rows = _read_csv(out)
    assert len(rows) == 2
    assert rows[1][0] == "1"


def test_four_levels_drop_coarsest_from_fit(tmp_path):
    out = tmp_path / "four.csv"
    result = run_study(
        StudyConfig(dim=2, levels=(2, 3, 4, 6), solution="polynomial", output=str(out))
    )
    assert result.rate_fit_levels == (3, 4, 6)
    assert "coarsest level excluded" in (tmp_path / "four.md").read_text()


def test_probe_columns(tmp_path):
    out = tmp_path / "probe.csv"
    result = run_study(
        StudyConfig(
            dim=2, levels=(2, 4), solution="sine", output=str(out), probe_infsup=True
        )
    )
    rows = _read_csv(out)
    assert rows[0][-2:] == ["beta_h", "alpha_kernel"]
    betas = [float(r[-2]) for r in rows[1:3]]
    assert all(b > 0.05 for b in betas)
    assert result.levels[0].alpha_kernel == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_probe_budget_skips_large_levels(tmp_path):
    out = tmp_path / "budget.csv"
    with pytest.warns(UserWarning, match="probe budget"):
        result = run_study(
            StudyConfig(
                dim=2, levels=(2, 4, 8), solution="polynomial", output=str(out),
                probe_infsup=True, probe_budget=100,
            )
        )
    assert result.levels[0].beta_h is not None  # 45 unknowns fit the budget
    assert result.levels[1].beta_h is None
    rows = _read_csv(out)
    assert rows[2][-2] == ""


def test_cli_main_success(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(
        [
            "--dim", "2", "--levels", "2,4,8", "--solution", "polynomial",
            "--mu", "0.5", "--lambda", "1.0", "--output", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "rates" in captured.out
    assert out.exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["--solution", "polynomial", "--levels", "4,4"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["--dim", "1", "--levels", "2,4"]) == 2


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "fail.csv"
    code = main(
        ["--levels", "2,4", "--solution", "polynomial", "--tol", "1e-30",
         "--output", str(out)]
    )
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


def test_cli_study_past_direct_limit_exit_code(tmp_path, capsys):
    # N=160 (206 k unknowns) is past the sizes the other tests solve
    out = tmp_path / "switch.csv"
    assert main(["--levels", "32,64,128,160", "--output", str(out)]) == 0
    assert "numerical failure" not in capsys.readouterr().err
    assert len(_read_csv(out)) == 1 + 4 + 1


def test_cli_tight_tolerance_exit_code(tmp_path, capsys):
    out = tmp_path / "tight.csv"
    assert main(["--levels", "16,32,64", "--tol", "1e-13", "--output", str(out)]) == 0
    assert "numerical failure" not in capsys.readouterr().err
    header, *levels, _ = _read_csv(out)
    col = header.index("solve_residual")
    assert len(levels) == 3
    assert max(float(row[col]) for row in levels) <= 1e-13


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# study configuration\n"
        "dim = 2\n"
        "levels = 2,4\n"
        'solution = "polynomial"\n'
        "mu = 0.4\n"
        "lambda = 2.0\n"
        "quad_points = 4\n"
        "probe_infsup = false\n"
    )
    values = parse_config_file(str(cfg))
    assert values == {
        "dim": 2,
        "levels": (2, 4),
        "solution": "polynomial",
        "mu": 0.4,
        "lam": 2.0,
        "quad_points": 4,
        "probe_infsup": False,
    }


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    out = tmp_path / "override.csv"
    cfg.write_text(f"levels = 2\nsolution = sine\noutput = {out}\n")
    code = main(["--config", str(cfg), "--solution", "polynomial", "--levels", "2,4"])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 3  # two levels, no rate row


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_file(str(bad))
    worse = tmp_path / "worse.cfg"
    worse.write_text("just some text\n")
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config_file(str(worse))
    assert main(["--config", str(bad)]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "elastmix", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "--levels" in proc.stdout


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ELASTMIX_THREADS", "1")
    out = tmp_path / "threads.csv"
    code = main(["--levels", "2", "--solution", "polynomial", "--output", str(out)])
    assert code == 0
    import os

    assert os.environ["OMP_NUM_THREADS"] == "1"
