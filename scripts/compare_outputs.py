"""Compare the denoised outputs of two source trees, byte for byte.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC --seeds 1,7,11 [--acceptance] [--work DIR]

OLD_SRC and NEW_SRC are directories holding the ``dpcdenoise`` package, such
as the ``src`` directories of two checkouts. For every workload of
``perfbench/workloads.py`` and every seed, the inputs are written once with
``make_inputs`` and both trees run ``python3 -m dpcdenoise.cli denoise`` on
them, with the workload's config file and one BLAS and OpenMP thread. One line
per workload and seed says whether every output PLY is byte-equal and whether
the two manifests' ``config`` snapshots are equal (the same keys, values and
JSON types, so ``1`` and ``1.0`` differ), followed by each side's stop reasons
and its ``timings_s["denoise"]`` divided by the frame count, as read from its
manifest. The two sides run one after the other, so their times are one
sample each, not a benchmark. Where the outputs differ, the largest absolute
differences of positions and of normals between the two sides' PLY files of
one name follow, then each side's pooled ``mse_reduction_pct`` and
``surface_rms_ratio``, as ``perfbench/check.py`` scores them.

Before the comparisons it prints each side's median time to ``import
dpcdenoise.cli``, over 5 fresh processes per side run in alternation, so a
start-up regression shows beside the byte check.

``--acceptance`` adds the end-to-end instance of ``tests/test_acceptance.py``
(criterion 7). Its inputs come from OLD_SRC's ``synth`` and ``noise`` commands,
and each side's per-frame MSE reductions are printed too.

Exits 1 if any output or config snapshot differs or any run fails, and 0
otherwise. Run it from anywhere. Work files go to a temporary directory,
removed at the end unless ``--work`` names one.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
from workloads import WORKLOADS, Inputs, make_inputs  # noqa: E402

# Fresh processes per side timed importing dpcdenoise.cli.
IMPORT_RUNS = 5
# The noise sigma of the acceptance instance, as a share of its frame 0
# bounding-box diagonal (the ``pipeline_run`` fixture of tests/test_acceptance.py).
ACCEPTANCE_SIGMA_FRAC = 0.02


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_cli(src: Path, args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "dpcdenoise.cli", *map(str, args)],
                          env=child_env(src), cwd=cwd, capture_output=True, text=True)


def import_seconds(src: Path) -> float:
    """Seconds one fresh process takes to ``import dpcdenoise.cli`` from ``src``."""
    code = ("import time; start = time.perf_counter(); import dpcdenoise.cli; "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(src),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{src}: import dpcdenoise.cli failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def print_import_times(old: Path, new: Path) -> None:
    times = {old: [], new: []}
    for run in range(IMPORT_RUNS):
        for src in ((old, new) if run % 2 == 0 else (new, old)):
            times[src].append(import_seconds(src))
    print(f"import dpcdenoise.cli: old {np.median(times[old]):.3f} s, "
          f"new {np.median(times[new]):.3f} s (median of {IMPORT_RUNS} fresh processes each)",
          flush=True)


def denoise(src: Path, config: Path, inputs: list, out_dir: Path) -> dict | None:
    """Run ``denoise`` from ``src``; returns its manifest, or None if the run failed."""
    proc = run_cli(src, ["denoise", "--config", config, *inputs, "--out-dir", out_dir],
                   out_dir.parent)
    if proc.returncode != 0:
        print(f"  {src}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return json.loads((out_dir / "manifest.json").read_text())


def summary(manifest: dict | None) -> str:
    """A run's stop reasons and its ``denoise`` time per frame, from its manifest."""
    if manifest is None:
        return "failed"
    frames = manifest["frame_metrics"]
    reasons = [f["diagnostics"].get("stop_reason") for f in frames]
    seconds = manifest["timings_s"]["denoise"] / max(len(frames), 1)
    return (", ".join(f"{reason} x{count}" for reason, count in Counter(reasons).items())
            + f"; {seconds:.3f} s/frame")


def config_differences(old: dict, new: dict) -> list:
    """Keys of two ``config`` snapshots that differ in presence, value or JSON type (1 vs 1.0)."""
    return [key for key in sorted(old.keys() | new.keys())
            if key not in old or key not in new or json.dumps(old[key]) != json.dumps(new[key])]


def compare(label: str, old: Path, new: Path, config: Path, inputs: list, work: Path) -> tuple:
    """Denoise ``inputs`` with both trees; prints one line and returns (same, out dirs).

    ``same`` holds when both runs succeed, every output PLY is byte-equal and
    the two manifests' ``config`` snapshots are equal.
    """
    outs = (work / "old", work / "new")
    manifests = [denoise(src, config, inputs, out) for src, out in zip((old, new), outs)]
    bytes_same, keys = False, None
    if None not in manifests:
        names = sorted(p.name for p in outs[0].glob("*.ply"))
        bytes_same = (names == sorted(p.name for p in outs[1].glob("*.ply"))
                      and not check.differing_outputs(*outs))
        keys = config_differences(manifests[0]["config"], manifests[1]["config"])
    config_note = ("config not compared" if keys is None
                   else f"config DIFFERENT in {', '.join(keys)}" if keys else "config equal")
    print(f"{label}: {'byte-equal' if bytes_same else 'DIFFERENT'}; {config_note}; stop reasons "
          f"and denoise time old [{summary(manifests[0])}], new [{summary(manifests[1])}]",
          flush=True)
    if None not in manifests and not bytes_same:
        print(f"  largest absolute difference: {largest_gap(*outs)}")
    return bytes_same and keys == [], outs


def largest_gap(old_out: Path, new_out: Path) -> str:
    """The largest absolute differences of positions and of normals between same-named
    output PLY files."""
    gaps = {"positions": 0.0, "normals": 0.0}
    for path in sorted(old_out.glob("*.ply")):
        other = new_out / path.name
        if not other.exists():
            return f"{path.name} missing on the new side"
        for name, old_values, new_values in zip(gaps, check.read_ply(path), check.read_ply(other)):
            if old_values is None and new_values is None:
                continue
            if old_values is None or new_values is None or old_values.shape != new_values.shape:
                return f"{path.name}: {name} do not match in shape"
            gaps[name] = max(gaps[name], float(np.max(np.abs(old_values - new_values),
                                                      initial=0.0)))
    return ", ".join(f"{name} {gap:.3e}" for name, gap in gaps.items())


def print_quality(outs: tuple, inputs: Inputs) -> None:
    """Each side's pooled MSE reduction and surface RMS ratio, as the benchmark scores them."""
    for side, out in zip(("old", "new"), outs):
        result = check.check_outputs(out, inputs.files, inputs.clean, inputs.surfaces)
        if len(result.frames) != len(inputs.files):
            print(f"  {side}: not scored: {'; '.join(result.problems)}")
            continue
        print(f"  {side}: mse_reduction_pct {result.mse_reduction_pct():.4f}, "
              f"surface_rms_ratio {result.surface_rms_ratio():.4f}")


def acceptance_constants() -> dict:
    """The ``E2E_*`` constants of tests/test_acceptance.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    values = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id.startswith("E2E_")):
            values[node.targets[0].id] = ast.literal_eval(node.value)
    return values


def compare_acceptance(old: Path, new: Path, work: Path) -> bool:
    e2e = acceptance_constants()
    clean_dir, noisy_dir = work / "clean", work / "noisy"
    proc = run_cli(old, ["synth", "--kind", "sinusoid-sheet", "--points", e2e["E2E_POINTS"],
                         "--frames", e2e["E2E_FRAMES"], "--amplitude", e2e["E2E_AMPLITUDE"],
                         "--phase-step", e2e["E2E_PHASE_STEP"], "--seed", e2e["E2E_SYNTH_SEED"],
                         "--out-dir", clean_dir], work)
    if proc.returncode != 0:
        print(f"acceptance: synth failed: {proc.stderr.strip()[-500:]}")
        return False
    clean_files = sorted(clean_dir.glob("*.ply"))
    first, _ = check.read_ply(clean_files[0])
    sigma = ACCEPTANCE_SIGMA_FRAC * float(np.linalg.norm(first.max(0) - first.min(0)))
    proc = run_cli(old, ["noise", "--sigma", str(sigma), "--seed", e2e["E2E_NOISE_SEED"],
                         "--out-dir", noisy_dir, *clean_files], work)
    if proc.returncode != 0:
        print(f"acceptance: noise failed: {proc.stderr.strip()[-500:]}")
        return False
    noisy_files = sorted(noisy_dir.glob("*.ply"))
    config = work / "acceptance.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in e2e["E2E_CONFIG"].items()))
    same, outs = compare("acceptance", old, new, config, noisy_files, work)
    for side, out in zip(("old", "new"), outs):
        reductions = []
        for clean_path, noisy_path in zip(clean_files, noisy_files):
            out_path = out / noisy_path.name
            if not out_path.exists():
                break
            clean, _ = check.read_ply(clean_path)
            base = check.nn_mse(check.read_ply(noisy_path)[0], clean)
            reductions.append(100.0 * (1.0 - check.nn_mse(check.read_ply(out_path)[0], clean) / base))
        print(f"  {side} MSE reductions: " + " / ".join(f"{r:.4f} %" for r in reductions))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", default="1,7,11", help="comma-separated workload seeds")
    parser.add_argument("--acceptance", action="store_true",
                        help="also compare criterion 7's end-to-end instance")
    parser.add_argument("--work", type=Path, default=None, help="keep work files here")
    args = parser.parse_args(argv)
    old, new = args.old_src.resolve(), args.new_src.resolve()
    for src in (old, new):
        if not (src / "dpcdenoise" / "__init__.py").exists():
            parser.error(f"{src} holds no dpcdenoise package")
    seeds = [int(s) for s in args.seeds.split(",") if s]

    print_import_times(old, new)
    work = args.work or Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    all_same = True
    try:
        for name, workload in WORKLOADS.items():
            for seed in seeds:
                run_dir = work / f"{name}-seed{seed}"
                run_dir.mkdir(parents=True)
                config = run_dir / "run.cfg"
                workload.write_config(config)
                inputs = make_inputs(workload, seed, run_dir / "inputs")
                same, outs = compare(f"{name} seed {seed}", old, new, config, inputs.files,
                                     run_dir)
                if not same:
                    print_quality(outs, inputs)
                all_same &= same
        if args.acceptance:
            run_dir = work / "acceptance"
            run_dir.mkdir(parents=True)
            all_same &= compare_acceptance(old, new, run_dir)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print("all outputs byte-equal and configs equal" if all_same
          else "outputs or configs differ")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
