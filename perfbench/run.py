"""Pipeline benchmark for ``dpcdenoise denoise``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. It generates the
workload's noisy PLY files from the seed, then runs the ``denoise`` command
of the checkout's ``src/dpcdenoise`` in a child process, round after round,
until the next round would end after S seconds (at least two rounds). Every
round's outputs are checked by ``check.py`` and must be byte-identical to
the first round's. An operation is one denoised frame.

With ``--trace 0`` every round is plain and it reports the end-to-end
metrics. With ``--trace 1`` plain and traced rounds alternate (see
``tracer.py``) and it reports per-layer metrics per denoised frame, with the
tracing overhead as traced minus plain seconds per frame.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress goes to
standard error. Results and traces are kept under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is repeated before the first round and after every round, so that its
# median samples the whole run rather than one burst of host contention.
SETUP_REPEATS = 7
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 75.0


class RoundTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RoundTimeout


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Round:
    traced: bool
    out_dir: Path
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    trace_path: Path | None = None


def child_env(src_dir: Path) -> dict:
    """The checkout's sources first on the import path, and one BLAS and
    OpenMP thread: the program's arrays are small, and on a shared 2-core
    host two threads ran no faster and slowed down more under contention
    (see README.md)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list, env: dict, stderr_path: Path, timeout: float) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak resident MB of one child process."""
    status = usage = None
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except RoundTimeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if status is None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def timed_setup(workload, seed: int, directory: Path, times: list):
    """Generate, noise and write the inputs SETUP_REPEATS times, appending
    each duration to ``times``; returns the last set of inputs."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, directory)
        times.append(time.perf_counter() - start)
    return inputs


def layer_metrics(trace_path: Path, wall_s: float, frames: int) -> dict:
    """Per-frame per-layer values of one traced round."""
    data = json.loads(trace_path.read_text())
    self_s = tracer.self_times(data["spans"])
    root = next(s for s in data["spans"] if s[0] == tracer.ROOT)
    values = {f"{name}_s": self_s.get(name, 0.0) / frames for name in tracer.SPANS}
    values.update({name: data["counters"].get(name, 0) / frames for name in tracer.COUNTERS})
    layers = sum(t for name, t in self_s.items() if name != tracer.ROOT)
    values["trace.spans"] = len(data["spans"]) / frames
    values["trace.startup_s"] = (wall_s - (root[2] - root[1])) / frames
    values["trace.attributed_pct"] = 100.0 * layers / wall_s
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src_dir = ROOT / "src"
    if not (src_dir / "dpcdenoise" / "cli.py").is_file():
        log(f"no program to run: {src_dir / 'dpcdenoise'} is missing")
        return 2
    signal.signal(signal.SIGTERM, _on_term)
    workload = WORKLOADS[args.workload]
    frames = workload.n_frames
    out_root = ROOT / ".perfbench-out"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = out_root / "work" / f"{tag}-{os.getpid()}"
    try:
        return _run(args, workload, frames, src_dir, out_root, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, frames, src_dir, out_root, tag, work) -> int:
    work.mkdir(parents=True)
    config_path = work / "run.cfg"
    workload.write_config(config_path)

    setup_s = []
    inputs = timed_setup(workload, args.seed, work / "inputs", setup_s)

    env = child_env(src_dir)
    denoise_args = ["denoise", "--config", str(config_path), *map(str, inputs.files)]
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        n = len(rounds)
        out_dir = work / f"out{n}"
        trace_path = out_root / f"{tag}.round{n}.json" if traced else None
        cmd = ([sys.executable, str(HERE / "tracer.py"), str(trace_path), str(src_dir)]
               if traced else [sys.executable, "-m", "dpcdenoise.cli"])
        cmd += denoise_args + ["--out-dir", str(out_dir)]
        code, wall, rss = run_child(cmd, env, work / f"stderr{n}.txt", ROUND_TIMEOUT_S)
        rounds.append(Round(traced, out_dir, code, wall, rss, trace_path))
        kind = "traced" if traced else "plain"
        log(f"{tag} round {n} {kind}: exit {code}, {wall:.3f} s, {rss:.1f} MB")
        if code != 0:
            log((work / f"stderr{n}.txt").read_text()[-2000:])
        timed_setup(workload, args.seed, work / "setup-again", setup_s)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + max(r.wall_s for r in rounds) > args.seconds:
            break

    done = [r for r in rounds if r.exit_code == 0]
    failed = frames * (len(rounds) - len(done))
    plain = [r for r in done if not r.traced]
    traced = [r for r in done if r.traced]
    if not plain or (args.trace and not traced):
        log("no successful round to measure")
        return 1
    problems = []
    first = check.check_outputs(done[0].out_dir, inputs.files, inputs.clean, inputs.surfaces)
    problems += first.problems
    for r in done[1:]:
        problems += check.check_outputs(r.out_dir, inputs.files, inputs.clean,
                                        inputs.surfaces).problems
        problems += [f"{r.out_dir.name}/{name} differs from {done[0].out_dir.name}"
                     for name in check.differing_outputs(done[0].out_dir, r.out_dir)]
    for p in problems:
        log(f"check failed: {p}")

    plain_frame_s = statistics.median(r.wall_s for r in plain) / frames
    if args.trace:
        per_round = [layer_metrics(r.trace_path, r.wall_s, frames) for r in traced]
        values = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
        traced_frame_s = statistics.median(r.wall_s for r in traced) / frames
        values["trace.frame_s"] = traced_frame_s
        values["trace.plain_frame_s"] = plain_frame_s
        values["trace.overhead_s"] = traced_frame_s - plain_frame_s
        values["trace.overhead_pct"] = 100.0 * (traced_frame_s / plain_frame_s - 1.0)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "frame_s": plain_frame_s,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "mse_reduction_pct": first.mse_reduction_pct(),
            "surface_rms_ratio": first.surface_rms_ratio(),
        }
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    result = {"correct": not problems, "attempted": frames * len(rounds), "failed": failed,
              "metrics": metrics}
    detail = {
        **result,
        "workload": workload.name, "seed": args.seed, "config": workload.config(),
        "setup_s": setup_s,
        "rounds": [{"traced": r.traced, "exit_code": r.exit_code, "wall_s": r.wall_s,
                    "peak_rss_mb": r.peak_rss_mb} for r in rounds],
        "frames": [vars(f) for f in first.frames],
        "problems": problems,
    }
    (out_root / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
