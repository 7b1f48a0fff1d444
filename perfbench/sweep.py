"""One-off single-frame size sweep, kept as reference figures in README.md.

    python3 perfbench/sweep.py

For n in 1k, 2k, 4k and 8k points it denoises one sheet frame (seed 1,
sheet-temporal's settings) once plain and once traced, and prints seconds
per frame, peak resident memory and the largest layer self times as a
Markdown table. It is not a workload: it runs outside the run-length and
spread rules of run.py, and takes about three minutes on 2 cores.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace

from run import HERE, ROOT, child_env, layer_metrics, run_child
from workloads import WORKLOADS, make_inputs

SIZES = (1000, 2000, 4000, 8000)
COLUMNS = ("geometry.fps_s", "patches.build_s", "stgraph.connectivity_s",
           "optimize.metric_s", "optimize.point_solve_s", "geometry.normals_s")


def main() -> int:
    work = ROOT / ".perfbench-out" / "sweep"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env(ROOT / "src")
    print("| n | plain s/frame | traced s/frame | peak RSS MB | "
          + " | ".join(COLUMNS) + " |")
    print("|---" * (4 + len(COLUMNS)) + "|")
    try:
        for n in SIZES:
            workload = replace(WORKLOADS["sheet-temporal"], n_points=n, n_frames=1)
            case = work / str(n)
            inputs = make_inputs(workload, 1, case / "inputs")
            config = case / "run.cfg"
            workload.write_config(config)
            tail = ["denoise", "--config", str(config), *map(str, inputs.files)]
            code, plain_s, rss = run_child(
                [sys.executable, "-m", "dpcdenoise.cli", *tail, "--out-dir", str(case / "plain")],
                env, case / "plain.err", 600.0)
            trace = case / "trace.json"
            traced_code, traced_s, _ = run_child(
                [sys.executable, str(HERE / "tracer.py"), str(trace), str(ROOT / "src"), *tail,
                 "--out-dir", str(case / "traced")], env, case / "traced.err", 600.0)
            if code or traced_code:
                print(f"| {n} | failed: exit {code}, {traced_code} |")
                continue
            layers = layer_metrics(trace, traced_s, 1)
            print(f"| {n} | {plain_s:.2f} | {traced_s:.2f} | {rss:.0f} | "
                  + " | ".join(f"{layers[c]:.2f}" for c in COLUMNS) + " |", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
