"""Workload definitions and seeded input generation.

Inputs are sampled here, not by the program's own ``synthetic`` module, so
the checker knows the analytic surface of every frame independently of the
code under test. The program only ever sees the noisy PLY files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Mirrors E2E_CONFIG in tests/test_acceptance.py (the calibrated acceptance
# configuration), except for the outer-iteration cap below.
ACCEPTANCE_CONFIG = {
    "k": 30,
    "patch_fraction": 1.0,
    "k_s": 10,
    "xi": 1,
    "alpha": 0.0,
    "lambda1": 0.5,
    "lambda2": 0.1,
    "mprime_fraction": 0.6,
    "outer_max_iters": 8,
    "outer_tol": 1e-6,
    "pg_step": 1e-5,
    "pg_max_iters": 20,
    "seed": 3,
}
# Every frame runs to the cap (outer_tol is never met), so one round costs
# frames x cap outer iterations. At the acceptance cap of 8 a single round of
# the acceptance instance takes about 90 s on 2 cores. A cap of 2 keeps one
# plain pass and one metric-learning pass per frame, and with the sizes below
# a round takes 9-18 s, so a run holds two rounds.
OUTER_ITERS = 2

AMPLITUDE = 0.05
PHASE_STEP = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    surface: str          # "sheet" or "cap"
    n_points: int
    n_frames: int
    sigma_frac: float     # noise sigma as a share of frame 0's bounding-box diagonal
    overrides: dict = field(default_factory=dict)

    def config(self) -> dict:
        return {**ACCEPTANCE_CONFIG, "outer_max_iters": OUTER_ITERS, **self.overrides}

    def write_config(self, path: Path) -> None:
        """The flat ``key = value`` file that ``denoise --config`` reads."""
        path.write_text("".join(f"{k} = {v}\n" for k, v in self.config().items()))


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sheet-temporal", "sheet", 600, 3, 0.02),
        Workload("cap-single", "cap", 2400, 1, 0.01),
        Workload("sheet-long", "sheet", 400, 10, 0.02, {"k": 20, "xi": 10, "alpha": 0.5}),
    )
}


class Surface:
    """The analytic clean surface of frame ``t``."""

    def __init__(self, kind: str, t: int, amplitude: float = AMPLITUDE):
        if kind not in ("sheet", "cap"):
            raise ValueError(f"unknown surface {kind!r}")
        self.kind = kind
        self.amplitude = amplitude
        phase = t * PHASE_STEP
        self.shift = phase / (2.0 * np.pi)                    # sheet: travelling wave
        self.radius = 1.0 + amplitude * np.sin(phase)         # cap: breathing radius

    def height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (self.amplitude * np.sin(2.0 * np.pi * (x - self.shift))
                * np.sin(2.0 * np.pi * y))

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Per-point distance to the surface: |r - r_t| for the cap, the
        vertical residual to z = A sin(2 pi (x - s_t)) sin(2 pi y) for the sheet."""
        p = np.asarray(points, dtype=np.float64)
        if self.kind == "cap":
            return np.abs(np.linalg.norm(p, axis=1) - self.radius)
        return np.abs(p[:, 2] - self.height(p[:, 0], p[:, 1]))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "cap":
            # Cap of half-angle 60 degrees around +z.
            cos_t = rng.uniform(0.5, 1.0, size=n)
            sin_t = np.sqrt(1.0 - cos_t**2)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
            return self.radius * np.column_stack(
                [sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])
        xy = rng.uniform(0.0, 1.0, size=(n, 2))
        return np.column_stack([xy, self.height(xy[:, 0], xy[:, 1])])


@dataclass(frozen=True)
class Inputs:
    clean: list          # (n, 3) arrays, one per frame
    surfaces: list
    files: list          # noisy PLY paths handed to the program


def generate(workload: Workload, seed: int) -> tuple[list, list, list]:
    """Clean frames, noisy frames and surfaces; the same seed gives the same arrays."""
    surfaces = [Surface(workload.surface, t) for t in range(workload.n_frames)]
    clean = [s.sample(np.random.default_rng([seed, t, 0]), workload.n_points)
             for t, s in enumerate(surfaces)]
    diag = float(np.linalg.norm(clean[0].max(axis=0) - clean[0].min(axis=0)))
    sigma = workload.sigma_frac * diag
    noisy = [c + np.random.default_rng([seed, t, 1]).normal(0.0, sigma, size=c.shape)
             for t, c in enumerate(clean)]
    return clean, noisy, surfaces


def write_ply(path: Path, positions: np.ndarray, normals: np.ndarray | None = None) -> None:
    """ASCII PLY with float properties at 9 significant digits."""
    props = ["x", "y", "z"] + (["nx", "ny", "nz"] if normals is not None else [])
    data = positions if normals is None else np.hstack([positions, normals])
    header = (f"ply\nformat ascii 1.0\nelement vertex {len(data)}\n"
              + "".join(f"property float {p}\n" for p in props) + "end_header")
    np.savetxt(path, data, fmt="%.9g", header=header, comments="")


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate, noise and write the workload's input files."""
    directory.mkdir(parents=True, exist_ok=True)
    clean, noisy, surfaces = generate(workload, seed)
    files = []
    for t, frame in enumerate(noisy):
        path = directory / f"frame_{t:03d}.ply"
        write_ply(path, frame)
        files.append(path)
    return Inputs(clean=clean, surfaces=surfaces, files=files)
