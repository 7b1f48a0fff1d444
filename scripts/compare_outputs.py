"""Compare the denoised outputs and temporal matches of two source trees, byte for byte.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC --seeds 1,7,11 [--acceptance] [--work DIR]

OLD_SRC and NEW_SRC are directories holding the ``dpcdenoise`` package, such
as the ``src`` directories of two checkouts. For every workload of
``perfbench/workloads.py`` and every seed, the inputs are written once with
``make_inputs`` and both trees run ``python3 -m dpcdenoise.cli denoise`` on
them, with the workload's config file and one BLAS and OpenMP thread. One line
per workload and seed says whether every output PLY is byte-equal, whether
the two manifests' ``config`` snapshots are equal (the same keys, values and
JSON types, so ``1`` and ``1.0`` differ) and whether every frame's
``diagnostics`` dict is equal in the same sense, followed by each side's stop
reasons and its ``timings_s["denoise"]`` divided by the frame count, as read
from its manifest. The rest of a manifest, such as ``timings_s``, is not
compared. The two sides run one after the other, so their times are one
sample each, not a benchmark. Where the outputs differ, the largest absolute
differences of positions and of normals between the two sides' PLY files of
one name follow, then each side's pooled ``mse_reduction_pct`` and
``surface_rms_ratio``, as ``perfbench/check.py`` scores them. Both trees also
run ``python3 -m dpcdenoise.cli match`` with the same config, the first input
frame as ``--prev`` and the second as ``--curr`` (the first against itself for
a one-frame workload), and a second line says whether the two CSV files are
byte-equal.

For each workload's first seed, both trees also run on the inputs turned
90 degrees about x, (x, y, z) -> (x, -z, y), which is exact in floating
point. One line gives, per side, the largest absolute difference between
its turned-back outputs and its own plain run, and the pooled
``mse_reduction_pct`` of the turned-back outputs. The line is for
information and leaves the exit status alone.

Before the comparisons it prints each side's median time to ``import
dpcdenoise.cli``, and then to import every module of the package, as
perfbench's tracer and the annotation test do; each over 5 fresh processes
per side run in alternation, so a start-up regression shows beside the byte
check. It then prints, per side, the modules that one ``denoise`` run of the
first workload at the first seed loads after ``import dpcdenoise.cli``, in one
fresh process: an import made lazily during a run, such as numpy's import of
``numpy.ma`` on a first ``np.median``, does not show in the import times.

It then checks ``dpcdenoise.io`` at captured size: each side writes one
seeded frame of 100,000 points through ``write_point_cloud``, once with
normals and once without, and reads it back with ``read_point_cloud``. A
line per case says whether the two sides' files are byte-equal and the
arrays they read back are equal, with each side's write and read seconds.

``--acceptance`` adds the end-to-end instance of ``tests/test_acceptance.py``
(criterion 7): its temporal run and its per-frame run with ``lambda1 = 0``,
which the criterion's "temporal beats per-frame" check reads, each compared
as above, except that ``match`` runs with the temporal config only, as it
does not read ``lambda1``. Its inputs come from OLD_SRC's ``synth`` and
``noise`` commands, and each side's per-frame MSE reductions of both runs are
printed too.

Exits 1 if any output, config snapshot, diagnostics dict, match CSV, written
100,000-point file or array read back from it differs, or any run fails, and 0
otherwise. Run it from anywhere. Work files go to a
temporary directory, removed at the end unless ``--work`` names one.
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
from itertools import zip_longest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
from workloads import WORKLOADS, Inputs, make_inputs, write_ply  # noqa: E402

# Fresh processes per side timed on each import.
IMPORT_RUNS = 5
# The timed imports, by label: the command line, and every module of the
# package, which is what perfbench's tracer and the annotation test load.
IMPORTS = {
    "import dpcdenoise.cli": "import dpcdenoise.cli",
    "import every dpcdenoise module": (
        "import dpcdenoise; [importlib.import_module(f'dpcdenoise.{info.name}') "
        "for info in pkgutil.iter_modules(dpcdenoise.__path__)]"),
}
# Points of the frame each side writes and reads back through ``dpcdenoise.io``.
IO_POINTS = 100_000
# Run by each side in a fresh process: argv is the frame's .npz file and the
# output directory. Prints the write and read seconds of each case as JSON.
IO_CODE = """
import json, sys, time
from pathlib import Path
import numpy as np
from dpcdenoise.geometry import Frame
from dpcdenoise.io import read_point_cloud, write_point_cloud
data, out = np.load(sys.argv[1]), Path(sys.argv[2])
seconds = {}
for case in ("with normals", "without normals"):
    frame = Frame(data["positions"], data["normals"] if case == "with normals" else None)
    path = out / (case.replace(" ", "-") + ".ply")
    start = time.perf_counter()
    write_point_cloud(frame, path)
    middle = time.perf_counter()
    back = read_point_cloud(path)
    seconds[case] = [middle - start, time.perf_counter() - middle]
    np.savez(path.with_suffix(".npz"), positions=back.positions,
             normals=np.empty(0) if back.normals is None else back.normals)
print(json.dumps(seconds))
"""
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


def import_seconds(src: Path, label: str) -> float:
    """Seconds one fresh process takes to run the import ``IMPORTS[label]`` from ``src``."""
    code = ("import importlib, pkgutil, time; start = time.perf_counter(); "
            f"{IMPORTS[label]}; print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(src),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{src}: {label} failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def print_import_times(old: Path, new: Path) -> None:
    for label in IMPORTS:
        times = {old: [], new: []}
        for run in range(IMPORT_RUNS):
            for src in ((old, new) if run % 2 == 0 else (new, old)):
                times[src].append(import_seconds(src, label))
        print(f"{label}: old {np.median(times[old]):.3f} s, new {np.median(times[new]):.3f} s "
              f"(median of {IMPORT_RUNS} fresh processes each)", flush=True)


def print_lazy_imports(old: Path, new: Path, seed: int, work: Path) -> None:
    """Print the modules each side's ``denoise`` run of the first workload loads after
    ``import dpcdenoise.cli``."""
    workload = next(iter(WORKLOADS.values()))
    work.mkdir(parents=True)
    config = work / "run.cfg"
    workload.write_config(config)
    inputs = make_inputs(workload, seed, work / "inputs").files
    for side, src in (("old", old), ("new", new)):
        argv = ["denoise", "--config", str(config), *map(str, inputs),
                "--out-dir", str(work / f"lazy-{side}")]
        code = ("import json, sys; from dpcdenoise.cli import cli_main; "
                f"before = set(sys.modules); code = cli_main({argv!r}); "
                "print(json.dumps([code, sorted(set(sys.modules) - before)]))")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(src), cwd=work,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{side}: lazy-import run failed: {proc.stderr.strip()[-500:]}", flush=True)
            continue
        exit_code, modules = json.loads(proc.stdout.splitlines()[-1])
        print(f"{side}: one denoise run (exit {exit_code}) loads after import dpcdenoise.cli: "
              f"{', '.join(modules) or 'no module'}", flush=True)


def compare_io(old: Path, new: Path, seed: int, work: Path) -> bool:
    """Write and read back a seeded ``IO_POINTS`` frame with both trees; prints a line per
    case and returns whether every file is byte-equal and every array read back equal."""
    work.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(IO_POINTS, 3))
    np.savez(work / "frame.npz", positions=rng.uniform(-1.0, 1.0, (IO_POINTS, 3)),
             normals=normals / np.linalg.norm(normals, axis=1, keepdims=True))
    seconds = {}
    for side, src in (("old", old), ("new", new)):
        (work / side).mkdir()
        proc = subprocess.run([sys.executable, "-c", IO_CODE, work / "frame.npz", work / side],
                              env=child_env(src), capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"io {IO_POINTS} points: {side} failed: {proc.stderr.strip()[-500:]}")
            return False
        seconds[side] = json.loads(proc.stdout)
    all_same = True
    for case in seconds["old"]:
        name = case.replace(" ", "-")
        files = [(work / side / f"{name}.ply").read_bytes() for side in ("old", "new")]
        arrays = [np.load(work / side / f"{name}.npz") for side in ("old", "new")]
        reads = all(arrays[0][key].tobytes() == arrays[1][key].tobytes()
                    for key in ("positions", "normals"))
        times = ", ".join(f"{side} write {seconds[side][case][0]:.3f} s, "
                          f"read {seconds[side][case][1]:.3f} s" for side in ("old", "new"))
        print(f"io {IO_POINTS} points {case}: "
              f"{'PLY byte-equal' if files[0] == files[1] else 'PLY DIFFERENT'}, "
              f"{'read-back equal' if reads else 'read-back DIFFERENT'}; {times}", flush=True)
        all_same &= files[0] == files[1] and reads
    return all_same


def denoise(src: Path, config: Path, inputs: list, out_dir: Path) -> dict | None:
    """Run ``denoise`` from ``src``; returns its manifest, or None if the run failed."""
    proc = run_cli(src, ["denoise", "--config", config, *inputs, "--out-dir", out_dir],
                   out_dir.parent)
    if proc.returncode != 0:
        print(f"  {src}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return json.loads((out_dir / "manifest.json").read_text())


def match_csv(src: Path, config: Path, inputs: list, out: Path) -> bytes | None:
    """Run ``match`` from ``src`` on the first two inputs; returns the CSV, or None if it failed."""
    proc = run_cli(src, ["match", "--config", config, "--prev", inputs[0],
                         "--curr", inputs[min(1, len(inputs) - 1)], "--out", out], out.parent)
    if proc.returncode != 0:
        print(f"  {src}: match exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return out.read_bytes()


def compare_match(label: str, old: Path, new: Path, config: Path, inputs: list,
                  work: Path) -> bool:
    """Run ``match`` with both trees; prints one line and returns whether the CSVs are equal."""
    csvs = [match_csv(src, config, inputs, work / f"match-{side}.csv")
            for side, src in (("old", old), ("new", new))]
    if None in csvs:
        print(f"{label} match: not compared", flush=True)
        return False
    rows = [csv.splitlines() for csv in csvs]
    differing = sum(a != b for a, b in zip_longest(*rows))
    print(f"{label} match: " + (f"CSV byte-equal, {len(rows[0]) - 1} patches" if csvs[0] == csvs[1]
                                else f"CSV DIFFERENT in {differing} lines"), flush=True)
    return csvs[0] == csvs[1]


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


def diagnostics_differences(old: dict, new: dict) -> list:
    """Indices of the frames whose ``diagnostics`` differ in keys, values or JSON types,
    or that only one manifest has."""
    frames = [[json.dumps(f["diagnostics"], sort_keys=True) for f in m["frame_metrics"]]
              for m in (old, new)]
    return [t for t, (a, b) in enumerate(zip_longest(*frames)) if a != b]


def compare(label: str, old: Path, new: Path, config: Path, inputs: list, work: Path) -> tuple:
    """Denoise ``inputs`` with both trees; prints one line and returns (same, out dirs).

    ``same`` holds when both runs succeed, every output PLY is byte-equal,
    and the two manifests' ``config`` snapshots and per-frame ``diagnostics``
    are equal.
    """
    outs = (work / "old", work / "new")
    manifests = [denoise(src, config, inputs, out) for src, out in zip((old, new), outs)]
    bytes_same, keys, frames = False, None, None
    if None not in manifests:
        names = sorted(p.name for p in outs[0].glob("*.ply"))
        bytes_same = (names == sorted(p.name for p in outs[1].glob("*.ply"))
                      and not check.differing_outputs(*outs))
        keys = config_differences(manifests[0]["config"], manifests[1]["config"])
        frames = diagnostics_differences(*manifests)
    config_note = ("config not compared" if keys is None
                   else f"config DIFFERENT in {', '.join(keys)}" if keys else "config equal")
    diag_note = ("diagnostics not compared" if frames is None
                 else f"diagnostics DIFFERENT in frames {', '.join(map(str, frames))}" if frames
                 else "diagnostics equal")
    print(f"{label}: {'byte-equal' if bytes_same else 'DIFFERENT'}; {config_note}; "
          f"{diag_note}; stop reasons and denoise time old [{summary(manifests[0])}], "
          f"new [{summary(manifests[1])}]", flush=True)
    if None not in manifests and not bytes_same:
        print(f"  largest absolute difference: {largest_gap(*outs)}")
    return bytes_same and keys == [] and frames == [], outs


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


def turn(points: np.ndarray) -> np.ndarray:
    """(x, y, z) -> (x, -z, y), 90 degrees about x: it only moves and negates values."""
    return np.column_stack([points[:, 0], -points[:, 2], points[:, 1]])


def turn_back(points: np.ndarray) -> np.ndarray:
    """The inverse of :func:`turn`: (x, y, z) -> (x, z, -y)."""
    return np.column_stack([points[:, 0], points[:, 2], -points[:, 1]])


def print_pose(label: str, old: Path, new: Path, config: Path, inputs: Inputs, work: Path,
               outs: tuple) -> None:
    """Denoise the inputs turned by :func:`turn` with both trees; prints one line with, per
    side, the largest gap between its turned-back outputs and its plain run in ``outs``,
    and their pooled MSE reduction."""
    turned_dir = work / "turned-inputs"
    turned_dir.mkdir()
    for path in inputs.files:
        write_ply(turned_dir / path.name, turn(check.read_ply(path)[0]))
    turned = [turned_dir / path.name for path in inputs.files]
    parts = []
    for side, src, plain in zip(("old", "new"), (old, new), outs):
        out = work / f"turned-{side}"
        if denoise(src, config, turned, out) is None:
            parts.append(f"{side} failed")
            continue
        gap, mse, noisy_mse = 0.0, 0.0, 0.0
        for clean, path in zip(inputs.clean, inputs.files):
            back = turn_back(check.read_ply(out / path.name)[0])
            if (plain / path.name).exists():
                gap = max(gap, float(np.max(np.abs(back - check.read_ply(plain / path.name)[0]))))
            else:
                gap = float("nan")
            mse += check.nn_mse(back, clean)
            noisy_mse += check.nn_mse(check.read_ply(path)[0], clean)
        parts.append(f"{side} largest gap to its plain run {gap:.3e}, "
                     f"mse_reduction_pct {100.0 * (1.0 - mse / noisy_mse):.4f}")
    print(f"{label} turned 90 degrees about x (information only): {'; '.join(parts)}",
          flush=True)


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
    all_same, runs = True, {}
    for label, settings in (("temporal", e2e["E2E_CONFIG"]),
                            ("lambda1 0", {**e2e["E2E_CONFIG"], "lambda1": 0})):
        run_dir = work / label.replace(" ", "-")
        run_dir.mkdir()
        config = run_dir / "acceptance.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        same, runs[label] = compare(f"acceptance {label}", old, new, config, noisy_files, run_dir)
        if label == "temporal":
            same &= compare_match(f"acceptance {label}", old, new, config, noisy_files, run_dir)
        all_same &= same
    for side, name in enumerate(("old", "new")):
        parts = [f"{label} " + " / ".join(f"{r:.4f} %" for r in
                                          mse_reductions(outs[side], clean_files, noisy_files))
                 for label, outs in runs.items()]
        print(f"  {name} MSE reductions: " + "; ".join(parts))
    return all_same


def mse_reductions(out: Path, clean_files: list, noisy_files: list) -> list:
    """Per-frame nearest-neighbour MSE reduction in percent of each output in ``out``
    against its clean frame, up to the first missing output."""
    reductions = []
    for clean_path, noisy_path in zip(clean_files, noisy_files):
        out_path = out / noisy_path.name
        if not out_path.exists():
            break
        clean, _ = check.read_ply(clean_path)
        base = check.nn_mse(check.read_ply(noisy_path)[0], clean)
        reductions.append(100.0 * (1.0 - check.nn_mse(check.read_ply(out_path)[0], clean) / base))
    return reductions


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
        print_lazy_imports(old, new, seeds[0], work / "lazy-imports")
        all_same &= compare_io(old, new, seeds[0], work / "io")
        for name, workload in WORKLOADS.items():
            for seed in seeds:
                run_dir = work / f"{name}-seed{seed}"
                run_dir.mkdir(parents=True)
                config = run_dir / "run.cfg"
                workload.write_config(config)
                inputs = make_inputs(workload, seed, run_dir / "inputs")
                label = f"{name} seed {seed}"
                same, outs = compare(label, old, new, config, inputs.files, run_dir)
                if not same:
                    print_quality(outs, inputs)
                if seed == seeds[0]:
                    print_pose(label, old, new, config, inputs, run_dir, outs)
                match_same = compare_match(label, old, new, config, inputs.files, run_dir)
                all_same &= same and match_same
        if args.acceptance:
            run_dir = work / "acceptance"
            run_dir.mkdir(parents=True)
            all_same &= compare_acceptance(old, new, run_dir)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print("all outputs, match CSVs and io files byte-equal, configs, diagnostics and io reads "
          "equal" if all_same else "outputs, match CSVs, io files, configs or diagnostics differ")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
