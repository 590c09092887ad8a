"""End-to-end and per-layer benchmark of nmotto.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_300 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each repetition is a fresh process (`perfbench/child.py`) running one
workload with `workers=1`.  Repetitions are started until `--seconds` of
wall time is used; the end-to-end metrics are medians over them.  Set-up
time is sampled by two extra processes per repetition that only import the
package and load the config, and reported as the median of all samples.
Times are scaled to the reference host speed by the calibrations run
between repetitions (`calibration.py`).  With `--trace 1` one untraced
repetition is followed by traced ones, and the per-layer metrics come from
the traced repetitions.  Outputs are written under `.perfbench_work/` in the checkout
and removed at exit.  The last line of stdout is the JSON result; the exit
status is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import inputs  # noqa: E402

SETUP_PER_REP = 2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"sweep.csv_bytes": "bytes", "cycle.evals_per_search": "evals/search"}


def _layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts child processes for one workload and collects their results."""

    def __init__(self, root: str, workload: str, paths: dict, work: str):
        self.root, self.workload, self.paths, self.work = root, workload, paths, work
        self.env = _child_env(root)
        self.count = 0

    def run(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        spec = {
            "workload": self.workload, "inputs": self.paths, "trace": trace,
            "setup_only": setup_only,
            "out": os.path.join(self.work, f"out-{self.count}.csv"),
            "result": os.path.join(self.work, f"result-{self.count}.json"),
        }
        spec_path = os.path.join(self.work, f"spec-{self.count}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                              cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        result = {"exit": proc.returncode, "stderr": proc.stderr, "wall_s": wall, "out": spec["out"]}
        if os.path.exists(spec["result"]):
            with open(spec["result"], encoding="utf-8") as fh:
                result.update(json.load(fh))
        expected = os.path.join(self.root, "src", "nmotto", "__init__.py")
        if proc.returncode == 0 and result.get("nmotto_file") != os.path.abspath(expected):
            raise RuntimeError(f"child imported nmotto from {result.get('nmotto_file')}, not {expected}")
        return result


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


def _cpu_info() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    if shutil.which("lscpu"):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower() or key.strip() == "Model name":
                info[key.strip()] = value.strip()
    return info


def _git_commit(root: str) -> str:
    if not (os.path.isdir(os.path.join(root, ".git")) and shutil.which("git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or "unknown"


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload for `seconds`; returns metrics, checks and provenance."""
    data = inputs.make_inputs(workload, seed, size)
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, ".perfbench_work"))
    try:
        runner = Runner(root, workload, inputs.write_inputs(data, work), work)
        runner.run(setup_only=True)  # warm-up: byte-compiles and fills the page cache
        setup, plain, traced = [], [], []
        speed = [calibration.measure()]
        start = time.perf_counter()
        while True:
            # Set-up samples are spread over the run, not bunched at its start.
            batch = [runner.run(setup_only=True) for _ in range(SETUP_PER_REP)]
            traced_rep = trace and bool(plain)
            rep = runner.run(trace=traced_rep)
            speed.append(calibration.measure())
            # The host speed around these processes: the calibrations just before and after.
            for r in batch + [rep]:
                r["scale"] = calibration.REFERENCE_S / ((speed[-2] + speed[-1]) / 2)
            setup += batch
            (traced if traced_rep else plain).append(rep)
            if rep["exit"] != 0:
                break
            rep["sha256"] = _sha256(rep["out"])
            if len(plain) + len(traced) > 1:
                os.remove(rep["out"])
            if (trace and not traced) or time.perf_counter() - start + rep["wall_s"] <= seconds:
                continue
            break
        return _summarise(workload, seed, data, setup, plain, traced, speed, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".perfbench_work"))
        except OSError:
            pass


def _summarise(workload, seed, data, setup, plain, traced, speed, root) -> dict:
    import checks
    import spans

    reps = plain + traced
    problems = [f"repetition exited with status {r['exit']}: {r['stderr'].strip()[-400:]}"
                for r in reps + setup if r["exit"] != 0]
    first = reps[0]
    if problems:
        verdict = {"attempted": data["ops"], "failed": data["ops"], "problems": []}
    else:
        try:
            verdict = checks.check(workload, first["out"], data, seed)
        except (ValueError, IndexError, KeyError) as exc:
            verdict = {"attempted": data["ops"], "failed": 0,
                       "problems": [f"output unreadable: {type(exc).__name__}: {exc}"]}
        for r in reps[1:]:
            if r["sha256"] != first["sha256"]:
                problems.append("repetitions of the same inputs wrote different bytes")
    problems += verdict["problems"]
    for r in traced:
        error = spans.accounting_error(r["spans"])
        if error > 1e-9 * max(r["spans"]["total_s"].get("root", 0.0), 1.0):
            problems.append(f"self times miss the root span by {error:.3g} s")

    done = data["ops"] - verdict["failed"]
    ok = [r for r in plain if r["exit"] == 0]
    setup_s = [r["import_s"] + r["load_s"] for r in setup + reps if r["exit"] == 0]
    # Times at the reference host speed (see calibration.py); raw ones go to the provenance.
    metrics = {
        "wall_s": _median([r["wall_s"] * r["scale"] for r in plain]),
        "setup_s": _median([(r["import_s"] + r["load_s"]) * r["scale"]
                            for r in setup + reps if r["exit"] == 0]),
        "ops_per_s": _median([done / (r["compute_s"] * r["scale"]) for r in ok if r["compute_s"] > 0]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }
    layers = {}
    if traced and all(r["exit"] == 0 for r in traced):
        per_rep = [spans.layer_metrics(r["spans"], r["import_s"], os.path.getsize(first["out"]))
                   for r in traced]
        layers = {name: _median([m[name] for m in per_rep]) for name in per_rep[0]}
        layers["trace.overhead_s"] = _median([r["wall_s"] * r["scale"] for r in traced]) - metrics["wall_s"]
    provenance = {
        "workload": workload, "seed": seed, "why": inputs.WHY[workload],
        "python": platform.python_version(), "numpy": first.get("numpy_version"),
        "numba_enabled": first.get("numba_enabled"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": _cpu_info(), "commit": _git_commit(root),
        "csv_sha256": first.get("sha256"),
        "calibration_reference_s": calibration.REFERENCE_S,
        "raw_wall_s": _median([r["wall_s"] for r in plain]),
        "raw_setup_s": _median(setup_s),
        "setup_s_samples": [round(x, 4) for x in setup_s],
        "wall_s_reps": [round(r["wall_s"], 4) for r in plain],
        "calibration_s": [round(x, 4) for x in speed],
        "traced_wall_s_reps": [round(r["wall_s"], 4) for r in traced],
        "missing_patch_points": traced[0].get("spans", {}).get("missing") if traced else [],
    }
    return {
        "correct": not problems,
        "attempted": verdict["attempted"] * len(plain),
        "failed": verdict["failed"] * len(plain),
        "problems": problems,
        "metrics": metrics,
        "layers": layers,
        "provenance": provenance,
    }


def _report(result: dict, trace: bool) -> dict:
    """Print the human-readable block; return the contract's result object."""
    prov = result["provenance"]
    print(f"== {prov['workload']} (seed {prov['seed']}): {prov['why']}")
    attempted, failed = result["attempted"], result["failed"]
    for name, value in result["metrics"].items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_frac':<12} {failed / max(attempted, 1):12.6g} ({failed} of {attempted} ops)")
    for name, value in result["layers"].items():
        print(f"  {name:<28} {value:14.6g} {_layer_unit(name)}")
    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    print("  correct:", "yes" if result["correct"] else "NO")
    print("provenance:", json.dumps(prov, sort_keys=True))
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, same code path")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nmotto", "__init__.py")):
        print(f"perfbench: no src/nmotto under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    status = 0
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = measure(root, workload, args.seed, args.seconds, bool(args.trace),
                         "tiny" if args.tiny else "full")
        line = _report(result, bool(args.trace))
        print(json.dumps(line), flush=True)
        status |= 0 if line["correct"] else 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
