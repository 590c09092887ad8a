import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmotto
from nmotto.cli import main
from nmotto.cycle import LABEL_FIELDS, REPORT_FIELDS

from conftest import (CONFIGS, KERNELS_HEADER, PHASE_HEADER, REPO, SRC, STROKE_HEADER,
                      SWEEP_HEADER, base_config_dict, phase_config_dict, read_records,
                      readme_cli_lines, write_config)

FLOAT_FIELDS = [name for name in REPORT_FIELDS if name not in LABEL_FIELDS]


@pytest.fixture()
def config_path(tmp_path):
    return str(write_config(tmp_path / "config.json", base_config_dict()))


class TestCycleCommand:
    def test_writes_csv_and_json(self, config_path, tmp_path):
        out = tmp_path / "cycle.csv"
        jout = tmp_path / "cycle.json"
        assert main(["cycle", "--config", config_path, "--out", str(out),
                     "--json", str(jout)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("t_h,t_c,dE_S_h")
        report = json.loads(jout.read_text())
        assert report["t_h"] == 60.0
        assert report["mode"] in ("Engine", "Heater", "HeatPump", "Other")

    def test_dynamics_override(self, config_path, tmp_path):
        out = tmp_path / "markov.csv"
        assert main(["cycle", "--config", config_path, "--out", str(out),
                     "--dynamics", "markov"]) == 0
        row = read_records(out)[0]
        assert row["mode"] == "Engine"
        assert float(row["dE_I_h"]) == 0.0


    def test_json_matches_the_csv_row(self, config_path, tmp_path):
        out, jout = tmp_path / "cycle.csv", tmp_path / "cycle.json"
        assert main(["cycle", "--config", config_path, "--out", str(out),
                     "--json", str(jout)]) == 0
        row = read_records(out)[0]
        report = json.loads(jout.read_text())
        assert row.pop("error") == ""
        assert row.keys() == report.keys()
        for key, value in report.items():
            text = "" if value is None else value if isinstance(value, str) else format(value, ".17g")
            assert row[key] == text, key

    def test_unwritable_json_leaves_no_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "cycle.csv"
        argv = ["cycle", "--config", config_path, "--out", str(out),
                "--json", str(tmp_path / "missing_dir" / "x.json")]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        assert not out.exists()
        assert not list(tmp_path.rglob("*.part"))
        out.write_text("earlier\n")
        assert main(argv) == 1
        assert out.read_text() == "earlier\n"
        assert not list(tmp_path.rglob("*.part"))

    @pytest.mark.parametrize("unwritable", ["csv", "json"])
    def test_a_failed_write_of_either_file_leaves_both_as_they_were(
            self, config_path, tmp_path, capsys, unwritable):
        # The part files of both outputs are complete before either is renamed.
        paths = {"csv": tmp_path / "cycle.csv", "json": tmp_path / "cycle.json"}
        paths[unwritable] = tmp_path / "missing_dir" / f"x.{unwritable}"
        argv = ["cycle", "--config", config_path, "--out", str(paths["csv"]),
                "--json", str(paths["json"])]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        for kind, path in paths.items():
            if kind != unwritable:
                path.write_text("earlier\n")
        assert main(argv) == 1
        for kind, path in paths.items():
            if kind != unwritable:
                assert path.read_text() == "earlier\n"
        assert not list(tmp_path.rglob("*.part"))

    def test_json_and_csv_on_one_file_is_a_usage_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "cycle.csv"
        with pytest.raises(SystemExit) as exc:
            main(["cycle", "--config", config_path, "--out", str(out),
                  "--json", str(tmp_path / "." / "cycle.csv")])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
        assert not out.exists()


class TestOutputNamingTheConfig:
    @pytest.mark.parametrize("via_link", [False, True], ids=["path", "symlink"])
    @pytest.mark.parametrize("command, flag", [
        ("cycle", "--out"), ("cycle", "--json"), ("sweep", "--out"),
        ("phase", "--out"), ("kernels", "--out"), ("stroke", "--out"),
    ])
    def test_is_a_usage_error_and_the_config_stays(self, tmp_path, capsys, command, flag, via_link):
        data = phase_config_dict(t_box={"t_max": 10.0, "n": 1}) if command == "phase" else base_config_dict()
        cfg = write_config(tmp_path / "config.json", data)
        before = cfg.read_bytes()
        target = cfg
        if via_link:
            target = tmp_path / "link.json"
            target.symlink_to(cfg)
        outputs = {"--out": str(tmp_path / "out.csv"), flag: str(target)}
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), *(x for pair in outputs.items() for x in pair)])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "UsageError", "message": f"{flag} and --config name the same file"}
        assert cfg.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"config.json", target.name})


class TestEmptyOutputPath:
    # An empty path resolves to the working directory: writing "<cwd>.part"
    # and renaming it onto the directory failed with exit 1, after the other
    # output of a cycle had been renamed into place.
    @pytest.mark.parametrize("command, flag", [
        ("cycle", "--out"), ("cycle", "--json"), ("sweep", "--out"),
        ("phase", "--out"), ("kernels", "--out"), ("stroke", "--out"),
    ])
    def test_is_a_usage_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys, command, flag):
        data = (phase_config_dict(t_box={"t_max": 2.0, "n": 1}) if command == "phase"
                else base_config_dict(t_h=2.0, t_c=2.0))
        cfg = write_config(tmp_path / "config.json", data)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        outputs = {"--out": "x.csv", flag: ""}
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), *(x for pair in outputs.items() for x in pair)])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "UsageError", "message": f"{flag} names no file: the path is empty"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "work"]
        assert list(work.iterdir()) == []


class TestKernelAndStrokeDumps:
    def test_kernel_dump_columns(self, config_path, tmp_path):
        out = tmp_path / "kern.csv"
        assert main(["kernels", "--config", config_path, "--out", str(out),
                     "--bath", "cold"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == KERNELS_HEADER
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == 0.0  # D2(0)
        assert float(first[5]) == 0.0  # A(0)

    def test_stroke_dump(self, config_path, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["stroke", "--config", config_path, "--out", str(out),
                     "--bath", "hot", "--rho00", "0.25"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == STROKE_HEADER
        assert float(lines[1].split(",")[1]) == 0.25
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in values)


    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_stroke_under_markov_exits_2(self, tmp_path, capsys, where):
        cfg = write_config(tmp_path / "config.json",
                           base_config_dict(**({"dynamics": "markov"} if where == "config" else {})))
        out = tmp_path / "trace.csv"
        flag = ["--dynamics", "markov"] if where == "flag" else []
        assert main(["stroke", "--config", str(cfg), "--out", str(out), *flag]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert summary["message"].startswith("dynamics: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kernels", "stroke"])
    def test_hot_dump_needs_no_cold_key(self, tmp_path, command):
        full = json.loads((CONFIGS / "reference_cycle.json").read_text())
        hot_only = {key: value for key, value in full.items()
                    if key not in ("t_c", "omega_c", "T_c")}
        dumps = []
        for name, data in (("full", full), ("hot_only", hot_only)):
            cfg = write_config(tmp_path / f"{name}.json", data)
            dumps.append(tmp_path / f"{name}.csv")
            assert main([command, "--config", str(cfg), "--out", str(dumps[-1]),
                         "--bath", "hot"]) == 0
        assert dumps[0].read_bytes() == dumps[1].read_bytes()

    @pytest.mark.parametrize("bath, key", [("hot", "t_h"), ("cold", "t_c")])
    def test_dump_names_its_missing_stroke_time(self, tmp_path, capsys, bath, key):
        cfg = write_config(tmp_path / "config.json",
                           {k: v for k, v in base_config_dict().items() if k != key})
        out = tmp_path / "kern.csv"
        assert main(["kernels", "--config", str(cfg), "--out", str(out), "--bath", bath]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert summary["message"] == f"{key}: required for the {bath} stroke"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["omega_c", "T_c"])
    @pytest.mark.parametrize("argv", [["cycle"], ["sweep"], ["kernels", "--bath", "cold"],
                                      ["stroke", "--bath", "cold"]], ids=lambda argv: argv[0])
    def test_a_missing_cold_key_is_named(self, tmp_path, capsys, argv, key):
        cfg = write_config(tmp_path / "config.json",
                           {k: v for k, v in base_config_dict().items() if k != key})
        out = tmp_path / "out.csv"
        assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert summary["message"] == f"{key}: required for the cold stroke"
        assert not out.exists()

    def test_kernels_dump_the_bath_whatever_the_dynamics(self, config_path, tmp_path):
        tcl2, markov = tmp_path / "tcl2.csv", tmp_path / "markov.csv"
        assert main(["kernels", "--config", config_path, "--out", str(tcl2)]) == 0
        assert main(["kernels", "--config", config_path, "--out", str(markov),
                     "--dynamics", "markov"]) == 0
        assert tcl2.read_bytes() == markov.read_bytes()


class TestSweepCommand:
    def test_sweep_and_worker_independence(self, tmp_path):
        data = base_config_dict(t_h={"min": 30.0, "max": 90.0, "n": 3},
                                t_c={"min": 5.0, "max": 45.0, "n": 3})
        cfg = write_config(tmp_path / "sweep.json", data)
        one, four = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(one), "--workers", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(four), "--workers", "4"]) == 0
        assert one.read_bytes() == four.read_bytes()
        assert len(read_records(one)) == 9


class TestPhaseCommand:
    def test_phase_runs(self, tmp_path):
        cfg = write_config(tmp_path / "phase.json", phase_config_dict(t_box={"t_max": 60.0, "n": 2}))
        out = tmp_path / "phase.csv"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith("omega_ratio,T_ratio")


class TestReadmeCommands:
    """Each command of the README's CLI block runs as written."""

    @pytest.mark.parametrize("command, out, header", [
        ("cycle", "cycle.csv", SWEEP_HEADER),
        ("sweep", "sweep.csv", SWEEP_HEADER),
        ("phase", "phase.csv", PHASE_HEADER),
        ("kernels", "kernels.csv", KERNELS_HEADER),
        ("stroke", "trace.csv", STROKE_HEADER),
    ], ids=["cycle", "sweep", "phase", "kernels", "stroke"])
    def test_command_runs(self, tmp_path, monkeypatch, command, out, header):
        lines = [line for line in readme_cli_lines() if line.startswith(f"nmotto {command} ")]
        assert len(lines) == 1
        shutil.copytree(CONFIGS, tmp_path / "configs")
        monkeypatch.chdir(tmp_path)
        assert main(shlex.split(lines[0])[1:]) == 0
        assert (tmp_path / out).read_text().splitlines()[0] == header
        if command == "cycle":  # the JSON report has the CSV's fields, keys sorted
            report = json.loads((tmp_path / "cycle.json").read_text())
            assert list(report) == sorted(header.split(",")[:-1])


def test_readme_module_table_names_each_package_module_once():
    """The README's "What is in here" table names each module of src/nmotto
    once (a row's first cell may name several) and no module that is not there."""
    section = (REPO / "README.md").read_text().split("## What is in here\n", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("| `")]
    named = sorted(name for row in rows for name in re.findall(r"`nmotto\.(\w+)`", row.split("|")[1]))
    assert named == sorted(path.stem for path in (SRC / "nmotto").glob("*.py")
                           if path.stem != "__init__")


def _assert_rows_finite_and_balanced(path):
    """Every float field of every `cycle` or `sweep` row is finite, and each
    stroke's dE_S + dE_B + dE_I is 0 to rounding.  An error row's empty
    fields hold no number."""
    for row in read_records(path):
        values = {name: float(row[name]) for name in FLOAT_FIELDS if row[name]}
        assert all(map(math.isfinite, values.values())), row
        for stroke in ("h", "c") if "dE_S_h" in values else ():
            terms = [values[f"dE_{part}_{stroke}"] for part in "SBI"]
            assert abs(sum(terms)) <= 4 * sys.float_info.epsilon * sum(map(abs, terms)), row


def _run_reference_variant(tmp_path, changes, argv):
    """The CLI in a subprocess, which sees every line numpy would print to
    stderr, on the reference config with `changes`: (the run, its --out path)."""
    data = json.loads((CONFIGS / "reference_cycle.json").read_text())
    cfg = write_config(tmp_path / "variant.json", {**data, **changes})
    out = tmp_path / "x.csv"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "nmotto.cli", argv[0], "--config", str(cfg),
                           "--out", str(out), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=60)
    return done, out


class TestErrorPaths:
    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.json", base_config_dict(lambda_hot=0.01))
        out = tmp_path / "x.csv"
        assert main(["cycle", "--config", str(bad), "--out", str(out)]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert "lambda_hot" in summary["message"]

    def test_tolerances_object_exits_2(self, tmp_path, capsys):
        # the sign threshold is fixed (cycle.SIGN_EPS); no config key sets it
        data = base_config_dict(t_h={"min": 30.0, "max": 60.0, "n": 2},
                                tolerances={"sign_zero": 1e-12})
        cfg = write_config(tmp_path / "sweep.json", data)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert "tolerances" in summary["message"]
        assert not out.exists()

    def test_a_stroke_shorter_than_one_grid_step_names_both(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", base_config_dict(t_c=0.01))  # the default h is 0.05
        assert main(["cycle", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "GridError"
        assert summary["message"] == ("step 0.05 exceeds t_max 0.01: "
                                      "a stroke must span one grid step; decrease h")

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        # decoupled baths: the cycle map is singular
        data = base_config_dict(lambda_h=0.0, lambda_c=0.0)
        cfg = write_config(tmp_path / "singular.json", data)
        out = tmp_path / "x.csv"
        assert main(["cycle", "--config", str(cfg), "--out", str(out)]) == 1
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "SingularMapError"

    def test_zero_workers_exits_2(self, tmp_path, capsys):
        data = base_config_dict(t_h={"min": 30.0, "max": 60.0, "n": 2})
        cfg = write_config(tmp_path / "sweep.json", data)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "0"]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert "workers" in summary["message"]
        assert not out.exists()

    @pytest.mark.parametrize("rho00", ["1.5", "-0.1", "nan"])
    def test_rho00_out_of_range_exits_2(self, config_path, tmp_path, capsys, rho00):
        out = tmp_path / "trace.csv"
        assert main(["stroke", "--config", config_path, "--out", str(out),
                     "--rho00", rho00]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        summary = json.loads(err)
        assert summary["error"] == "ConfigError"
        assert "rho00" in summary["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stroke", "cycle", "sweep"])
    def test_overflow_exits_1(self, tmp_path, capsys, command):
        # strong hot damping on a coarse grid: A leaves the exp range within
        # one Simpson pair, which config validation cannot foresee
        data = base_config_dict(omega_h=0.4, omega_c=0.2, T_h=50.0, T_c=1.0,
                                lambda_h=400.0, lambda_c=0.01, h=0.4, t_h=20.0, t_c=10.0)
        cfg = write_config(tmp_path / "overflow.json", data)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "GridError"

    @pytest.mark.parametrize("command", ["cycle", "sweep"])
    def test_non_finite_trigamma_argument_exits_1(self, tmp_path, command):
        # T_h / Omega_h overflows to inf in the kernel grid.  numpy warns about
        # the overflow, which the suite turns into an error, so the CLI runs in
        # a subprocess here.
        done, _ = _run_reference_variant(tmp_path, {"T_h": 1e300, "Omega_h": 1e-300}, [command])
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert json.loads(done.stderr.splitlines()[-1])["error"] == "PoleError"

    @pytest.mark.parametrize("command", ["cycle", "sweep"])
    @pytest.mark.parametrize("extreme, error", [
        ({"T_h": 1e200}, "GridError"),  # T^2 overflows: the tables are not finite
        ({"T_h": 1e300, "Omega_h": 1e-300}, "PoleError"),  # T / cutoff overflows
    ], ids=["T_h_1e200", "T_h_over_Omega_h"])
    def test_non_finite_kernel_grid_exits_1_with_one_json_line(self, tmp_path, command,
                                                               extreme, error):
        done, out = _run_reference_variant(tmp_path, extreme, [command])
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["cycle"], ["kernels", "--bath", "cold"],
                                      ["stroke", "--bath", "cold"], ["sweep"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("t_c", [1e-300, 1e-310, 5e-324])
    def test_tiny_cold_temperature_exits_1_with_one_json_line(self, tmp_path, argv, t_c):
        # T_c / Omega_c puts the trigamma argument at its pole, where its
        # square underflows to 0: the failure is the one PoleError line, and
        # numpy prints no divide-by-zero warning before it.
        done, out = _run_reference_variant(tmp_path, {"T_c": t_c}, argv)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "PoleError"
        assert not out.exists()
        assert not list(tmp_path.glob("*.part"))

    @pytest.mark.parametrize("key", ["Omega_h", "Omega_c"])
    def test_tiny_cutoff_under_markov_warns_nothing(self, tmp_path, capsys, key):
        # omega / cutoff overflows in J(omega); exp(-inf) = 0 is J's limit, so
        # the run succeeds, and no numpy warning (an error in this suite) reaches stderr
        cfg = write_config(tmp_path / "tiny.json", base_config_dict(dynamics="markov", **{key: 5e-324}))
        out = tmp_path / "x.csv"
        assert main(["cycle", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[0] == SWEEP_HEADER

    @pytest.mark.parametrize("omega_c", [1e-310, 5e-324])
    def test_vanishing_cold_frequency_under_markov_writes_finite_rows(self, tmp_path, capsys, omega_c):
        # omega_c / T_c so small that 1 + 2n overflows (5e-324: n's argument
        # underflows to 0): the Markov stroke takes the limits, stationary
        # population 1/2 and rate 4 pi lam T exp(-omega/cutoff)
        cfg = write_config(tmp_path / "tiny.json", base_config_dict(
            dynamics="markov", omega_c=omega_c, T_c=3.0, T_h=4.0, t_h=10.0, t_c=10.0))
        out = tmp_path / "x.csv"
        assert main(["cycle", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _assert_rows_finite_and_balanced(out)
        (row,) = read_records(out)
        assert row["error"] == ""

    def test_positivity_error_at_a_vanishing_frequency_quotes_a_finite_gibbs_population(
            self, tmp_path):
        # omega_c / T_c so small that the Bose occupation is inf: the Gibbs
        # excited population n/(1 + 2n) would read nan; its limit is 1/2
        done, out = _run_reference_variant(tmp_path, {
            "omega_c": 1e-310, "T_h": 60.0, "T_c": 50.0, "lambda_c": 0.2, "Omega_c": 0.5,
            "t_h": 10.0, "t_c": 30.0}, ["cycle"])
        assert done.returncode == 1
        (line,) = done.stderr.splitlines()
        summary = json.loads(line)
        assert summary["error"] == "PositivityError"
        assert summary["message"].endswith("at tau=29.95 (bath Gibbs excited population 5.0000e-01)")
        assert not out.exists()

    def test_vanishing_derived_frequency_under_markov_classifies_the_cell(self, tmp_path, capsys):
        # the phase cell derives omega_c = 0.5 * 1e-323 = 5e-324
        cfg = write_config(tmp_path / "tiny.json", phase_config_dict(
            omega_h=1e-323, T_h=100.0, dynamics="markov", T_ratio=HALF_RATIO))
        out = tmp_path / "x.csv"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        (row,) = read_records(out)
        assert row["error"] == "" and row["classification"] != ""

    def test_huge_count_exits_2(self, tmp_path, capsys):
        # a count beyond the float range used to escape as an OverflowError
        data = base_config_dict(t_h={"min": 10.0, "max": 120.0, "n": 10**400})
        cfg = write_config(tmp_path / "sweep.json", data)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        summary = json.loads(err)
        assert summary["error"] == "ConfigError"
        assert summary["message"].startswith("t_h.n: ")
        assert not out.exists()

    def test_nan_literal_exits_2(self, tmp_path, capsys):
        # JSON's NaN literal: it also fails omega_h > omega_c, but the error names omega_h
        cfg = write_config(tmp_path / "nan.json", base_config_dict(omega_h=math.nan))
        assert main(["cycle", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert summary["message"] == "omega_h: must be finite"

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["cycle", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("text", [
        json.dumps(base_config_dict(t_c=10**400)),   # beyond the float range
        '{"t_c": 1' + "0" * 5000 + "}",              # too many digits to read
        b'{"omega_h": 1\xff}',                       # not UTF-8
    ], ids=["huge_int", "long_int", "bad_utf8"])
    def test_bad_json_value_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        assert main(["cycle", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "ConfigError"

    def test_unknown_dynamics_exits_2(self, config_path, tmp_path, capsys):
        assert main(["cycle", "--config", config_path, "--out", str(tmp_path / "x.csv"),
                     "--dynamics", "exact"]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert summary["message"].startswith("dynamics: ")

    # argparse rejects these before any file is opened
    @pytest.mark.parametrize("argv", [
        ["cycle", "--config", "c.json", "--out", "x.csv", "--workers", "abc"],
        ["cycle", "--out", "x.csv"],
        ["cycle", "--config", "c.json", "--out", "x.csv", "--frobnicate"],
        [],
    ], ids=["workers_not_int", "no_config", "unknown_flag", "no_command"])
    def test_usage_error_is_json(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


def test_import_emits_no_warning():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-W", "error", "-c", "import nmotto"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# The CLI contract under arbitrary config values.  Every key of a config
# that all five commands accept may be redrawn as a valid value, a boundary
# value, an extreme finite value, a huge integer or a value of the wrong JSON
# type.  Run time is bounded by the draws, not by skipping any outcome: a
# stroke time (t_h, t_c, t_box.t_max) is capped at 200, so a grid has at
# most 200 / h nodes, except 1e300 and 10**30, which exceed the node limit
# and are refused before any table is built; counts are at most 2; workers
# stays 1.  A phase config has no cold keys, as configs/phase_small.json: each
# cell derives its omega_c and T_c from the drawn hot ones.
EXTREME = [5e-324, 1e-310, 1e-300, 1e300, -1e300]
HUGE_INT = [10**30, 10**400]
WRONG_TYPE = ["1", None, True, [1.0], {}]
HALF_RATIO = {"min": 0.5, "max": 0.5, "n": 1}


def _number_values(*valid_or_boundary):
    return st.sampled_from([*valid_or_boundary, *EXTREME, *HUGE_INT, *WRONG_TYPE])


def _object_values(*valid_or_boundary):
    return st.sampled_from([*valid_or_boundary, 1.0, *WRONG_TYPE])


CONTRACT_CONFIG = dict(base_config_dict(t_h=10.0, t_c=5.0), workers=1, omega_ratio=HALF_RATIO,
                       T_ratio={"min": 0.2, "max": 0.2, "n": 1}, t_box={"t_max": 10.0, "n": 2})
PHASE_CONTRACT_CONFIG = {key: value for key, value in CONTRACT_CONFIG.items()
                         if key not in ("omega_c", "T_c", "t_h", "t_c")}
CONTRACT_VALUES = {
    "omega_h": _number_values(1.0, 2.0, 0, 0.5),  # 0.5 is omega_c
    "omega_c": _number_values(0.5, 0.25, 0, 1.0),  # 1.0 is omega_h
    "T_h": _number_values(1.0, 3.0, 0, 0.2),  # 0.2 is T_c
    "T_c": _number_values(0.2, 0.01, 0, 1.0),  # 1.0 is T_h
    "lambda_h": _number_values(0.01, 0.1, 0, -0.0),
    "lambda_c": _number_values(0.01, 0.1, 0, -0.0),
    "Omega_h": _number_values(0.4, 1.0, 0),
    "Omega_c": _number_values(0.4, 1.0, 0),
    "h": _number_values(0.05, 0.02, 0, 5.0),  # 5.0 is t_c: one step per stroke
    "t_h": _number_values(10.0, 0.05, 0, 200.0),
    "t_c": _number_values(5.0, 0.05, 0, 200.0),
    "dynamics": st.sampled_from(["tcl2", "markov", "exact", 1, None]),
    "omega_ratio": _object_values(HALF_RATIO, {"min": 0.25, "max": 0.75, "n": 2},
                                  {"min": 1.0, "max": 1.0, "n": 1}),
    "T_ratio": _object_values(HALF_RATIO, {"min": 0.1, "max": 0.9, "n": 2},
                              {"min": 0.0, "max": 0.0, "n": 1}),
    "t_box": _object_values({"t_max": 200.0, "n": 1}, {"t_max": 0.05, "n": 2},
                            {"t_max": 10.0, "n": 0}),
}
CONTRACT_COMMANDS = {
    ("cycle",): SWEEP_HEADER,
    ("sweep",): SWEEP_HEADER,
    ("phase",): PHASE_HEADER,
    ("kernels", "--bath", "hot"): KERNELS_HEADER,
    ("kernels", "--bath", "cold"): KERNELS_HEADER,
    ("stroke", "--bath", "hot", "--rho00", "0.3"): STROKE_HEADER,
    ("stroke", "--bath", "cold"): STROKE_HEADER,
}
changed_keys = st.lists(st.sampled_from(sorted(CONTRACT_VALUES)), max_size=3, unique=True)


def _error_names(cls):
    return {cls.__name__}.union(*map(_error_names, cls.__subclasses__()))


# The text a cell's error field starts with: the name of a package error.
CELL_ERROR_PREFIXES = tuple(f"{name}: " for name in sorted(_error_names(nmotto.NmottoError)))


@settings(max_examples=200)
@given(argv=st.sampled_from(sorted(CONTRACT_COMMANDS)),
       changes=changed_keys.flatmap(
           lambda keys: st.fixed_dictionaries({key: CONTRACT_VALUES[key] for key in keys})))
# lambda * omega overflows where exp(-omega / cutoff) underflows: J(omega_h)
# was inf * 0, and the Markov row nan in every number.
@example(argv=("cycle",), changes={"omega_h": 1e300, "lambda_h": 1e300, "dynamics": "markov"})
def test_cli_contract_holds_for_any_config(argv, changes):
    with tempfile.TemporaryDirectory() as directory:
        cfg, out = Path(directory) / "config.json", Path(directory) / "out.csv"
        base = PHASE_CONTRACT_CONFIG if argv[0] == "phase" else CONTRACT_CONFIG
        cfg.write_text(json.dumps({**base, **changes}))
        err = io.StringIO()
        # A numpy warning would be a second stderr line: here it is an error.
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
        assert code in (0, 1, 2)
        if code == 0:
            assert err.getvalue() == ""
            assert out.read_text().splitlines()[0] == CONTRACT_COMMANDS[argv]
            if CONTRACT_COMMANDS[argv].endswith(",error"):
                with open(out, newline="") as fh:
                    errors = [row["error"] for row in csv.DictReader(fh) if row["error"]]
                assert all(error.startswith(CELL_ERROR_PREFIXES) for error in errors), errors
            if argv[0] in ("cycle", "sweep"):
                _assert_rows_finite_and_balanced(out)
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert "error" in json.loads(lines[0])
            assert not out.exists()
        assert not list(Path(directory).glob("*.part"))
