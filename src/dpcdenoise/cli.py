"""Command-line surface: synth, noise, denoise, eval, match."""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

from .config import DenoiseConfig
from .geometry import Frame, Sequence, estimate_normals
from .io import ParseError, RunManifest, load_config, read_point_cloud, write_point_cloud
from .matching import match_patches, prepare_reference
from .metrics import add_gaussian_noise, gpsnr, mse_index, mse_nn
from .optimize import SolverError, denoise_sequence
from .patches import build_patches
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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(DenoiseConfig):
        flag = "--" + f.name.replace("_", "-")
        kind = int if f.type in ("int", int) else float
        parser.add_argument(flag, type=kind, default=None, dest=f"cfg_{f.name}",
                            help=f"override config key {f.name}")


def _resolve_config(args) -> DenoiseConfig:
    config = load_config(args.config) if args.config else DenoiseConfig()
    overrides = {}
    for f in fields(DenoiseConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            overrides[f.name] = value
    if overrides:
        values = config.to_dict()
        values.update(overrides)
        config = DenoiseConfig(**values)
    return config


def build_parser() -> _Parser:
    parser = _Parser(prog="dpcdenoise",
                     description="Denoise dynamic point cloud sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic clean sequence")
    p.add_argument("--kind", choices=SURFACE_KINDS, default="sinusoid-sheet")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--phase-step", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--peak", type=float, default=5.0)
    p.add_argument("--k-plane", type=int, default=12,
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


def _cmd_noise(args) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for t, path in enumerate(args.inputs):
        frame = read_point_cloud(path)
        noisy = add_gaussian_noise(frame, args.sigma, seed=args.seed + t)
        write_point_cloud(noisy, args.out_dir / path.name)
    return EXIT_OK


def _cmd_denoise(args) -> int:
    config = _resolve_config(args)
    frames = []
    for t, path in enumerate(args.inputs):
        frame = read_point_cloud(path)
        frames.append(Frame(frame.positions, frame.normals, t))
    start = time.perf_counter()
    denoised, reports = denoise_sequence(Sequence(tuple(frames)), config)
    elapsed = time.perf_counter() - start
    args.out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for path, frame in zip(args.inputs, denoised):
        out_path = args.out_dir / path.name
        write_point_cloud(frame, out_path)
        outputs.append(str(out_path))
    manifest = RunManifest(
        command="denoise",
        config=config.to_dict(),
        inputs=[str(p) for p in args.inputs],
        outputs=outputs,
        seeds={"config": config.seed},
        frame_metrics=[r.to_dict() for r in reports],
        timings_s={"denoise": elapsed},
    )
    manifest.save(args.manifest or (args.out_dir / "manifest.json"))
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
            clean, _ = estimate_normals(clean, min(args.k_plane, len(clean) - 1))
            notes.append(f"estimated normals for {clean_path}")
        m_nn = mse_nn(test, clean)
        m_idx = mse_index(test, clean) if len(test) == len(clean) else None
        db = gpsnr(test, clean, args.peak)
        rows.append(f"{t},{_csv_value(m_nn)},{_csv_value(m_idx)},{_csv_value(db)}")
        metrics.append({"frame_index": t, "mse_nn": m_nn, "mse_index": m_idx,
                        "gpsnr_db": "inf" if db == float("inf") else db})
    csv_text = "frame,mse_nn,mse_index,gpsnr_db\n" + "\n".join(rows) + "\n"
    if args.out:
        args.out.write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.manifest:
        RunManifest(
            command="eval",
            inputs=[str(p) for p in list(args.clean) + list(args.test)],
            outputs=[str(args.out)] if args.out else [],
            frame_metrics=metrics,
            notes=notes,
        ).save(args.manifest)
    return EXIT_OK


def _cmd_match(args) -> int:
    config = _resolve_config(args)
    prev = read_point_cloud(args.prev)
    curr = read_point_cloud(args.curr)
    k_eff = min(config.k, len(prev) - 1, len(curr) - 1)
    k_plane_prev = min(config.k_plane, len(prev) - 1)
    k_plane_curr = min(config.k_plane, len(curr) - 1)
    prev_frame, _ = estimate_normals(prev, k_plane_prev)
    curr_frame, _ = estimate_normals(curr, k_plane_curr)
    prev_patches = build_patches(prev_frame, config.patch_count(len(prev)), k_eff, config.seed)
    curr_patches = build_patches(curr_frame, config.patch_count(len(curr)), k_eff, config.seed)
    reference = prepare_reference(prev_frame, prev_patches, config.c)
    matched, distance, _ = match_patches(curr_frame, curr_patches, reference, config.xi,
                                         config.alpha, config.c)
    lines = ["target_patch,matched_patch,distance,weight"]
    for target, (best, dist) in enumerate(zip(matched.tolist(), distance.tolist())):
        lines.append(f"{target},{best},{dist:.9g},{_csv_value(math.exp(-dist))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        args.out.write_text(text)
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
