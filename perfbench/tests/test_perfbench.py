"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--tiny", "--seconds", "1", "--seed", "3"))
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0.0


@pytest.mark.parametrize("workload", ["sweep_300", "phase_6x6"])
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = _result(_run("--workload", workload, "--tiny", "--seconds", "1", "--trace", "1"))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert metrics["sweep.cells"]["value"] == (144 if workload == "sweep_300" else 64)
    if workload == "phase_6x6":
        # 2 x 2 ratio cells, a hot and a cold grid each.
        assert metrics["kernels.grids_built"]["value"] == 8


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "long_stroke", "--tiny", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_follow_the_seed_but_not_the_work_size():
    for workload in inputs.WORKLOADS:
        a, b = inputs.make_inputs(workload, 1), inputs.make_inputs(workload, 2)
        assert a == inputs.make_inputs(workload, 1)
        assert a != b and a["ops"] == b["ops"]
    long = inputs.make_inputs("long_stroke", 9)["config"]
    assert 59000.0 <= long["t_h"] <= 60000.0 and 5.0 <= long["t_c"] <= 20.0
    assert inputs.make_inputs("boundary_scan", 9)["searches"]["t_h"][0] == 60.0


def test_self_time_of_nested_spans():
    # root [0, 12] > outer [1, 9] > inner [2, 4] and inner [5, 8]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 12.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        inner()
        inner()

    tracer.root(tracer.wrap("outer", outer))
    assert tracer.total_s == {"inner": 5.0, "outer": 8.0, "root": 12.0}
    assert tracer.self_s == {"inner": 5.0, "outer": 3.0, "root": 4.0}
    assert tracer.calls == {"inner": 2, "outer": 1, "root": 1}
    assert spans.accounting_error(spans.summary(tracer)) == 0.0


def test_a_raising_span_still_closes():
    ticks = iter([0.0, 1.0, 3.0, 7.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("cell")

    failing = tracer.wrap("cell", fail)

    def body():
        with pytest.raises(ValueError):
            failing()

    tracer.root(body)
    assert tracer.errors == {"cell": 1}
    assert tracer.self_s == {"cell": 2.0, "root": 5.0}


def test_install_wraps_the_name_each_caller_looks_up(monkeypatch):
    for module_name, attr, _, _ in spans.PATCHES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    import nmotto

    tracer = spans.Tracer()
    spans.install(tracer)
    assert tracer.missing == []
    config = nmotto.parse_config(inputs.make_inputs("long_stroke", 0, "tiny")["config"])
    ctx = tracer.root(nmotto.sweep.build_context, config, 20.0, 20.0)
    tracer.root(nmotto.sweep.evaluate_cycle, ctx, 10.0, 10.0)
    assert tracer.calls["kernels.grid"] == 2
    assert tracer.calls["dynamics.lookup"] == 2
    assert tracer.counts["special.trigamma.points"] == tracer.counts["kernels.grid_nodes"]
    assert spans.accounting_error(spans.summary(tracer)) < 1e-9


def test_checks_reject_a_corrupted_w_total(tmp_path):
    import nmotto.cli

    data = inputs.make_inputs("sweep_300", 5, "tiny")
    paths = inputs.write_inputs(data, str(tmp_path))
    out = tmp_path / "sweep.csv"
    assert nmotto.cli.main(["sweep", "--config", paths["config"], "--out", str(out), "--workers", "1"]) == 0
    assert checks.check("sweep_300", str(out), data, 5)["problems"] == []

    lines = out.read_text().splitlines()
    fields = lines[7].split(",")
    fields[12] = repr(float(fields[12]) + 1e-6)
    lines[7] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n")
    problems = checks.check("sweep_300", str(out), data, 5)["problems"]
    assert any("W_total" in p for p in problems)


def test_child_peak_rss_leaves_out_the_parent():
    # ru_maxrss would carry the parent's peak across exec; VmHWM does not.
    import numpy as np

    ballast = np.ones(12_500_000)  # 100 MB resident in this process
    ballast[::512] = 2.0
    code = "import child; print(child.peak_rss_mb())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60, check=True)
    assert float(proc.stdout) < 60.0
    del ballast


def test_calibration_times_a_fixed_mix():
    import calibration

    assert 0.0 < calibration.measure() < 60.0
    assert calibration.REFERENCE_S > 0.0
