"""One workload repetition in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the workload, its input files, the output path, whether to trace,
and where to write the result.  The child times `import nmotto`, runs the
workload once with `workers=1` as the root span, and writes its timings,
peak RSS and (when tracing) the span aggregates as JSON.  With "setup_only"
the root span only loads the config.  Failed ops are counted by the parent
from the output file.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import sys
import time

CLI_COMMANDS = {"sweep_300": "sweep", "phase_6x6": "phase", "long_stroke": "cycle"}


def boundary_scan(nmotto, config_path, searches_path, out_path) -> int:
    """Boundary searches on one shared context, one CSV row per search.

    A search that raises is recorded in the error column and the scan goes on.
    """
    config = nmotto.cli.load_config(config_path)
    with open(searches_path, encoding="utf-8") as fh:
        scan = json.load(fh)
    ctx = nmotto.sweep.build_context(config, max(scan["t_h"]), scan["t_c_max"])
    rows = []
    for t_h in scan["t_h"]:
        def evaluate(t_c, t_h=t_h):
            return nmotto.sweep.evaluate_cycle(ctx, t_h, t_c)
        try:
            found = nmotto.cycle.find_boundaries(evaluate, scan["t_c_min"], scan["t_c_max"],
                                                 scan["step"], scan["rtol"])
        except (nmotto.NmottoError, ValueError, ArithmeticError) as exc:
            rows.append([repr(t_h), "", "", f"{type(exc).__name__}: {exc}"])
            continue
        rows.append([repr(t_h)] + ["" if t is None else repr(t) for t in found] + [""])
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t_h", "t0_c", "t1_c", "error"])
        writer.writerows(rows)
    return 0


def peak_rss_mb() -> float:
    """This process's peak RSS.

    `VmHWM` belongs to the address space made at exec; `ru_maxrss` would
    also carry the parent's peak across the exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str) -> int:
    start = time.perf_counter()
    import nmotto
    import nmotto.cli
    import_s = time.perf_counter() - start

    import spans

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = spans.Tracer()
    # Untraced runs wrap only the config load, one call, to split setup from compute.
    spans.install(tracer, None if spec["trace"] else {"config.load"})

    workload, paths, out = spec["workload"], spec["inputs"], spec["out"]
    if spec.get("setup_only"):
        tracer.root(nmotto.cli.load_config, paths["config"])
        status = 0
    elif workload == "boundary_scan":
        status = tracer.root(boundary_scan, nmotto, paths["config"], paths["searches"], out)
    else:
        argv = [CLI_COMMANDS[workload], "--config", paths["config"], "--out", out, "--workers", "1"]
        status = tracer.root(nmotto.cli.main, argv)

    summary = spans.summary(tracer)
    load_s = summary["total_s"].get("config.load", 0.0)
    result = {
        "status": status,
        "import_s": import_s,
        "load_s": load_s,
        "compute_s": summary["total_s"].get("root", 0.0) - load_s,
        "peak_rss_mb": peak_rss_mb(),
        "numba_enabled": getattr(nmotto, "NUMBA_ENABLED", None),
        "numpy_version": sys.modules["numpy"].__version__,
        "nmotto_file": os.path.abspath(nmotto.__file__),
        "spans": summary if spec["trace"] else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    raise SystemExit(main(sys.argv[1]))
