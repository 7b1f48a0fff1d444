"""Command-line surface: synth, noise, denoise, eval, match."""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .config import DenoiseConfig, parse_value
from .geometry import Frame, Sequence, estimate_normals
from .io import ParseError, RunManifest, load_config, read_point_cloud, write_point_cloud
from .matching import match_patches
from .metrics import GPSNR_PEAK, add_gaussian_noise, gpsnr, mse_index, mse_nn
from .optimize import SolverError, build_reference, denoise_sequence, prepare_frame
from .synthetic import SURFACE_KINDS, SyntheticSpec, generate_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _flag_type(name: str):
    def parse(text: str):
        try:
            return parse_value(name, text)
        except ValueError as exc:  # argparse prints the message of this error type only
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _peak(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"peak must be a finite number > 0, got {text!r}")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(DenoiseConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=_flag_type(f.name),
                            dest=f"cfg_{f.name}", help=f"{f.metadata['meaning']}; in "
                            f"{f.metadata['interval']}, default {f.default!r}")


def _resolve_config(args) -> DenoiseConfig:
    config = load_config(args.config) if args.config else DenoiseConfig()
    flags = {f.name: getattr(args, f"cfg_{f.name}") for f in fields(DenoiseConfig)}
    return replace(config, **{name: v for name, v in flags.items() if v is not None})


def build_parser() -> _Parser:
    parser = _Parser(prog="dpcdenoise",
                     description="Denoise dynamic point cloud sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic clean sequence")
    p.add_argument("--kind", choices=SURFACE_KINDS, default="sinusoid-sheet")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--amplitude", type=float, default=SyntheticSpec.amplitude)
    p.add_argument("--phase-step", type=float, default=SyntheticSpec.phase_step)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--prefix", default="clean")

    p = sub.add_parser("noise", help="add Gaussian noise to point cloud files")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("inputs", nargs="+", type=Path)

    p = sub.add_parser("denoise", help="denoise an ordered list of frames")
    p.add_argument("--config", type=Path, default=None, help="key = value config file")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--manifest", type=Path, default=None,
                   help="manifest path (default: OUT_DIR/manifest.json)")
    p.add_argument("inputs", nargs="+", type=Path)
    _add_config_flags(p)

    p = sub.add_parser("eval", help="compare test frames against clean frames")
    p.add_argument("--clean", nargs="+", type=Path, required=True)
    p.add_argument("--test", nargs="+", type=Path, required=True)
    p.add_argument("--peak", type=_peak, default=GPSNR_PEAK,
                   help="GPSNR peak (default: %(default)s)")
    p.add_argument("--k-plane", type=_flag_type("k_plane"), default=DenoiseConfig.k_plane,
                   help="normal-estimation size when clean files lack normals")
    p.add_argument("--out", type=Path, default=None, help="CSV path (default: stdout)")
    p.add_argument("--manifest", type=Path, default=None)

    p = sub.add_parser("match", help="dump temporal patch matches as CSV")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--prev", type=Path, required=True, help="reference (earlier) frame")
    p.add_argument("--curr", type=Path, required=True, help="target (current) frame")
    p.add_argument("--out", type=Path, default=None)
    _add_config_flags(p)
    return parser


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(kind=args.kind, n_points=args.points, n_frames=args.frames,
                         amplitude=args.amplitude, phase_step=args.phase_step, seed=args.seed)
    seq = generate_sequence(spec)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for frame in seq:
        write_point_cloud(frame, args.out_dir / f"{args.prefix}_{frame.frame_index:03d}.ply")
    return EXIT_OK


def _output_paths(inputs, out_dir: Path) -> list[Path]:
    """``out_dir / name`` of each input; two inputs of one name are a usage error."""
    owner = {}
    for path in inputs:
        out = out_dir / path.name
        if out in owner:
            raise _UsageError(f"inputs {owner[out]} and {path} would both be written to {out}")
        owner[out] = path
    return list(owner)


def _in_made_dir(path: Path) -> Path:
    """``path``, after making its parent directory and any missing ancestors, as
    ``--out-dir`` is made; called only when the file is about to be written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_noise(args) -> int:
    out_paths = _output_paths(args.inputs, args.out_dir)
    noisy = [add_gaussian_noise(read_point_cloud(path), args.sigma, seed=args.seed + t)
             for t, path in enumerate(args.inputs)]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for out_path, frame in zip(out_paths, noisy):
        write_point_cloud(frame, out_path)
    return EXIT_OK


def _cmd_denoise(args) -> int:
    out_paths = _output_paths(args.inputs, args.out_dir)
    config = _resolve_config(args)
    frames = []
    for t, path in enumerate(args.inputs):
        frame = read_point_cloud(path)
        frames.append(Frame(frame.positions, frame.normals, t))
    start = time.perf_counter()
    denoised, reports = denoise_sequence(Sequence(tuple(frames)), config)
    elapsed = time.perf_counter() - start
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for out_path, frame in zip(out_paths, denoised):
        write_point_cloud(frame, out_path)
    manifest = RunManifest(
        command="denoise",
        config=config.to_dict(),
        inputs=[str(p) for p in args.inputs],
        outputs=[str(p) for p in out_paths],
        frame_metrics=[r.to_dict() for r in reports],
        timings_s={"denoise": elapsed},
    )
    manifest.save(_in_made_dir(args.manifest or (args.out_dir / "manifest.json")))
    return EXIT_OK


def _csv_value(value) -> str:
    if value is None:
        return ""
    if value == float("inf"):
        return "inf"
    return f"{value:.9g}"


def _cmd_eval(args) -> int:
    if len(args.clean) != len(args.test):
        raise _UsageError("--clean and --test need the same number of files")
    rows = []
    metrics = []
    notes = []
    for t, (clean_path, test_path) in enumerate(zip(args.clean, args.test)):
        clean = read_point_cloud(clean_path)
        test = read_point_cloud(test_path)
        if clean.normals is None:
            k_plane = min(args.k_plane, len(clean) - 1)
            if k_plane < 3:
                raise ValueError(f"clean file {clean_path}: {len(clean)} points are too few "
                                 "to estimate normals")
            clean, _ = estimate_normals(clean, k_plane)
            notes.append(f"estimated normals for {clean_path}")
        m_nn = mse_nn(test, clean)
        m_idx = mse_index(test, clean) if len(test) == len(clean) else None
        db = gpsnr(test, clean, args.peak)
        rows.append(f"{t},{_csv_value(m_nn)},{_csv_value(m_idx)},{_csv_value(db)}")
        metrics.append({"frame_index": t, "mse_nn": m_nn, "mse_index": m_idx,
                        "gpsnr_db": "inf" if db == float("inf") else db})
    csv_text = "frame,mse_nn,mse_index,gpsnr_db\n" + "\n".join(rows) + "\n"
    if args.out:
        _in_made_dir(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.manifest:
        RunManifest(
            command="eval",
            inputs=[str(p) for p in list(args.clean) + list(args.test)],
            outputs=[str(args.out)] if args.out else [],
            frame_metrics=metrics,
            notes=notes,
        ).save(_in_made_dir(args.manifest))
    return EXIT_OK


def _cmd_match(args) -> int:
    config = _resolve_config(args)
    prev = read_point_cloud(args.prev)
    curr = read_point_cloud(args.curr)
    # The first-pass matches of frame 1 in a two-frame denoise run.
    reference = build_reference(prev, config, len(curr))
    patchset = prepare_frame(Frame(curr.positions, None, 1), config, len(prev)).patchset
    matched, distance, _ = match_patches(patchset, reference, config.xi, config.alpha)
    lines = ["target_patch,matched_patch,distance,weight"]
    for target, (best, dist) in enumerate(zip(matched.tolist(), distance.tolist())):
        lines.append(f"{target},{best},{dist:.9g},{_csv_value(math.exp(-dist))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _in_made_dir(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "noise": _cmd_noise,
    "denoise": _cmd_denoise,
    "eval": _cmd_eval,
    "match": _cmd_match,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
