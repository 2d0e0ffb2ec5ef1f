import csv
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from elastmix.cli import _CONFIG_KEYS, build_parser, main, parse_config_file
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
    with pytest.warns(UserWarning, match="need 3 for a rate fit"):
        result = run_study(
            StudyConfig(
                dim=2, levels=(2, 4), solution="sine", output=str(out), probe_infsup=True
            )
        )
    rows = _read_csv(out)
    assert rows[0][-2:] == ["beta_h", "alpha_kernel"]
    betas = [float(r[-2]) for r in rows[1:3]]
    assert all(b > 0.05 for b in betas)
    assert result.levels[0].alpha_kernel == 1.0 / 3.0


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


# The CLI prints each warning through its own hook, as one stderr line; the
# tests that run it let the warning reach that hook and assert the line.
CLI_WARNINGS = pytest.mark.filterwarnings("always::UserWarning")
RATE_WARNING = "elastmix: warning: only {} level(s); need 3 for a rate fit\n"


@CLI_WARNINGS
def test_cli_prints_each_warning_on_one_line(tmp_path, capsys):
    # like the CLI's other messages, and with the hook put back afterwards
    hook = warnings.showwarning
    out = tmp_path / "two.csv"
    assert main(["--levels", "2,4", "--output", str(out)]) == 0
    assert capsys.readouterr().err == RATE_WARNING.format(2)
    assert warnings.showwarning is hook
    # only the format changes: a filter that makes the warning an error still does
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="need 3 for a rate fit"):
            main(["--levels", "2,4", "--output", str(out)])


def test_study_sizes_must_be_integers(tmp_path):
    # levels, dimension and probe budget are rejected, not truncated (a NaN
    # budget would skip every probe), and the message names the value given
    out = str(tmp_path / "study.csv")
    for kwargs, name in (
        ({"levels": (4, 8.9)}, "8.9"), ({"levels": (4.2, 4.9)}, "4.2"), ({"dim": 2.5}, "2.5"),
        ({"probe_budget": 2.5}, "2.5"), ({"probe_budget": float("nan")}, "nan"),
    ):
        with pytest.raises(ValueError, match=name):
            StudyConfig(output=out, **kwargs)
    config = StudyConfig(dim=np.int64(3), levels=np.array([2, 4]), output=out)
    assert config.dim == 3 and config.levels == (2, 4)
    assert type(config.dim) is int and all(type(n) is int for n in config.levels)


def test_cli_config_error_exit_code(tmp_path, capsys, monkeypatch):
    assert main(["--solution", "polynomial", "--levels", "4,4"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["--dim", "1", "--levels", "2,4"]) == 2
    # the flag takes any name; the study config rejects it and lists the solutions
    assert main(["--solution", "bogus", "--levels", "2,4"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "'polynomial', 'sine'" in err
    # each of these used to pass the check and fail later with a traceback
    # or, for the probe budget, a skipped probe on every level, or, for a
    # tolerance of 1 or more, the zero vector on every level
    (tmp_path / "table.md").mkdir()
    for argv in (
        ["--tol", "0"],
        ["--tol", "2"],
        ["--tol", "inf"],
        ["--levels", "0,4,8"],
        ["--lambda", "nan"],
        ["--levels", "2,4,8", "--output", str(tmp_path / "missing" / "study.csv")],
        ["--probe-infsup", "--probe-budget", "-1"],
        ["--probe-budget", "0"],
        # the markdown table would overwrite the CSV
        ["--levels", "2,4,8", "--output", str(tmp_path / "out.md")],
        # the CSV or the markdown table would be written onto a directory
        ["--levels", "2,4,8", "--output", str(tmp_path)],
        ["--levels", "2,4,8", "--output", str(tmp_path / "table.csv")],
    ):
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out.md").exists()
    assert not (tmp_path / "table.csv").exists() and not tmp_path.with_suffix(".md").exists()
    # the quadrature rule is fixed, so there is no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["--quad-points", "5"])
    assert exc.value.code == 2
    # OpenBLAS reads these thread caps as no setting, so the cap was lost
    for threads in ("abc", "0", "-1", "1.5", " 2"):
        monkeypatch.setenv("ELASTMIX_THREADS", threads)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["--levels", "2,4,8", "--output", str(tmp_path / "t.csv")]) == 2
        assert "ELASTMIX_THREADS" in capsys.readouterr().err
        assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert not (tmp_path / "t.csv").exists()
    # and the error comes before numpy is loaded
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from elastmix.cli import main; code = main(['--levels', '2']); "
         "print(code, 'numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "ELASTMIX_THREADS": "0"},
    )
    assert proc.stdout.split() == ["2", "False"]
    assert "configuration error" in proc.stderr


def test_cli_four_dimensions(tmp_path, capsys):
    out = tmp_path / "study4d.csv"
    assert main(["--dim", "4", "--levels", "2,3,4", "--output", str(out)]) == 0
    assert "rates" in capsys.readouterr().out
    rows = _read_csv(out)
    assert [row[0] for row in rows[1:]] == ["1", "2", "3", "rate"]


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "fail.csv"
    code = main(
        ["--levels", "2,4", "--solution", "polynomial", "--tol", "1e-30",
         "--output", str(out)]
    )
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


def test_cli_non_finite_load_exit_code(tmp_path, capsys):
    # lambda = 1e308 overflows the load; this used to exit 0 with a CSV of nan,
    # and later printed numpy's overflow warning before the failure line
    out = tmp_path / "overflow.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["--lambda", "1e308", "--levels", "2,3,4", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("elastmix: numerical failure: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not out.exists()


def test_cli_flags_follow_the_config_keys():
    # every config key x_y is the flag --x-y, and only --probe-infsup takes no value
    actions = {a.dest: a for a in build_parser()._actions}
    for key, (field, *_) in _CONFIG_KEYS.items():
        assert actions[field].option_strings == ["--" + key.replace("_", "-")]
        assert (actions[field].nargs == 0) == (key == "probe_infsup")


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
        "mu = 0.4  # shear modulus\n"
        "lambda = 2.0\n"
        "probe_infsup = false\n"
    )
    values = parse_config_file(str(cfg))
    assert values == {
        "dim": 2,
        "levels": (2, 4),
        "solution": "polynomial",
        "mu": 0.4,
        "lam": 2.0,
        "probe_infsup": False,
    }


@CLI_WARNINGS
def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    # a '#' inside a value is not a comment, nor is one after whitespace
    # inside quotes; a comment may follow the closing quote
    for name, value in (("override", "{}"), ("run#1", "{}"), ("run #2", '"{}"  # a comment')):
        out = tmp_path / f"{name}.csv"
        cfg.write_text(f"levels = 2\nsolution = sine\noutput = {value.format(out)}\n")
        code = main(["--config", str(cfg), "--solution", "polynomial", "--levels", "2,4"])
        assert code == 0
        assert capsys.readouterr().err == RATE_WARNING.format(2)
        rows = _read_csv(out)
        assert len(rows) == 3  # two levels, no rate row
        assert (tmp_path / f"{name}.md").is_file()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "override.csv", "override.md", "run #2.csv", "run #2.md", "run#1.csv", "run#1.md",
        "study.cfg",
    ]


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
    # the quadrature rule is fixed, so its old key is unknown
    bad.write_text("quad_points = 5\n")
    with pytest.raises(ValueError, match="bad.cfg:1: unknown key"):
        parse_config_file(str(bad))
    assert main(["--config", str(bad)]) == 2
    # a value that does not convert, an unclosed quote and text after the
    # closing quote name the file and line
    for line in (
        "levels = 4,x", "dim = two", "probe_infsup = maybe", 'output = "x.csv', 'output = "x.csv" junk'
    ):
        bad.write_text(line + "\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            parse_config_file(str(bad))
        assert main(["--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "text, value",
    [("1", True), ("true", True), ("Yes", True), ("on", True),
     ("0", False), ("false", False), ("no", False), ("OFF", False)],
)
def test_config_file_booleans(tmp_path, text, value):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"probe_infsup = {text}\n")
    assert parse_config_file(str(cfg)) == {"probe_infsup": value}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "elastmix", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "--levels" in proc.stdout


@CLI_WARNINGS
def test_thread_cap_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ELASTMIX_THREADS", "1")
    out = tmp_path / "threads.csv"
    code = main(["--levels", "2", "--solution", "polynomial", "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().err == RATE_WARNING.format(1)
    assert os.environ["OMP_NUM_THREADS"] == "1"
