import csv
import json
import os
import subprocess
import sys

import pytest

import nmotto
from nmotto.cli import main

from conftest import base_config_dict


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config_dict()))
    return str(path)


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
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        assert row["mode"] == "Engine"
        assert float(row["dE_I_h"]) == 0.0


class TestKernelAndStrokeDumps:
    def test_kernel_dump_columns(self, config_path, tmp_path):
        out = tmp_path / "kern.csv"
        assert main(["kernels", "--config", config_path, "--out", str(out),
                     "--bath", "cold"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,D1,D2,a,b,A"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == 0.0  # D2(0)
        assert float(first[5]) == 0.0  # A(0)

    def test_stroke_dump(self, config_path, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["stroke", "--config", config_path, "--out", str(out),
                     "--bath", "hot", "--rho00", "0.25"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,rho00"
        assert float(lines[1].split(",")[1]) == 0.25
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in values)


class TestSweepCommand:
    def test_sweep_and_worker_independence(self, tmp_path):
        data = base_config_dict(t_h={"min": 30.0, "max": 90.0, "n": 3},
                                t_c={"min": 5.0, "max": 45.0, "n": 3})
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(data))
        one, four = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(one), "--workers", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(four), "--workers", "4"]) == 0
        assert one.read_bytes() == four.read_bytes()
        with open(one) as fh:
            assert len(list(csv.DictReader(fh))) == 9


class TestPhaseCommand:
    def test_phase_runs(self, tmp_path):
        data = {
            "omega_h": 1.0, "T_h": 1.0,
            "lambda_h": 0.01, "lambda_c": 0.01, "Omega_h": 0.4, "Omega_c": 0.4,
            "omega_ratio": {"min": 0.5, "max": 0.5, "n": 1},
            "T_ratio": {"min": 0.2, "max": 0.2, "n": 1},
            "t_box": {"t_max": 60.0, "n": 2},
        }
        cfg = tmp_path / "phase.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "phase.csv"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith("omega_ratio,T_ratio")


class TestErrorPaths:
    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config_dict(lambda_hot=0.01)))
        out = tmp_path / "x.csv"
        assert main(["cycle", "--config", str(bad), "--out", str(out)]) == 2
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "ConfigError"
        assert "lambda_hot" in summary["message"]

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        # decoupled baths: the cycle map is singular
        data = base_config_dict(lambda_h=0.0, lambda_c=0.0)
        cfg = tmp_path / "singular.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert main(["cycle", "--config", str(cfg), "--out", str(out)]) == 1
        summary = json.loads(capsys.readouterr().err)
        assert summary["error"] == "SingularMapError"

    def test_zero_workers_exits_2(self, tmp_path, capsys):
        data = base_config_dict(t_h={"min": 30.0, "max": 60.0, "n": 2})
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(data))
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

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["cycle", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_import_emits_no_warning():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nmotto.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-W", "error", "-c", "import nmotto"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
