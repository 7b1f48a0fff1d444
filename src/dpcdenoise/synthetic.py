"""Synthetic ground-truth sequences with analytic normals, for tests and trials."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Frame, Sequence

SURFACE_KINDS = ("plane", "sphere-cap", "sinusoid-sheet")


@dataclass(frozen=True)
class SyntheticSpec:
    """A deforming surface sampled irregularly, with a fresh seed per frame.

    Because each frame draws its own sample positions, there is no
    cross-frame point correspondence by construction.
    """

    kind: str
    n_points: int
    n_frames: int
    amplitude: float = 0.0
    phase_step: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SURFACE_KINDS:
            raise ValueError(f"kind must be one of {SURFACE_KINDS}")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("amplitude", "phase_step"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.amplitude) > 1e150:  # the sheet's normals square its slope, 2 pi amplitude
            raise ValueError("amplitude must be at most 1e150 in magnitude")


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sample_plane(rng, n: int, amplitude: float, phase: float):
    xy = rng.uniform(0.0, 1.0, size=(n, 2))
    z = np.full(n, amplitude * np.sin(phase))
    pos = np.column_stack([xy, z])
    normals = np.tile((0.0, 0.0, 1.0), (n, 1))
    return pos, normals


def _sample_sphere_cap(rng, n: int, amplitude: float, phase: float):
    # Cap of half-angle 60 degrees around +z; the radius breathes over time.
    radius = 1.0 + amplitude * np.sin(phase)
    cos_theta = rng.uniform(0.5, 1.0, size=n)
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    dirs = np.column_stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta])
    return radius * dirs, dirs.copy()


def _sample_sinusoid(rng, n: int, amplitude: float, phase: float):
    # Traveling wave z = A sin(2 pi (x - s)) sin(2 pi y), s advancing with time.
    shift = phase / (2.0 * np.pi)
    xy = rng.uniform(0.0, 1.0, size=(n, 2))
    x, y = xy[:, 0], xy[:, 1]
    ax = 2.0 * np.pi * (x - shift)
    ay = 2.0 * np.pi * y
    z = amplitude * np.sin(ax) * np.sin(ay)
    dzdx = amplitude * 2.0 * np.pi * np.cos(ax) * np.sin(ay)
    dzdy = amplitude * 2.0 * np.pi * np.sin(ax) * np.cos(ay)
    pos = np.column_stack([x, y, z])
    normals = _unit_rows(np.column_stack([-dzdx, -dzdy, np.ones(n)]))
    return pos, normals


_SAMPLERS = {
    "plane": _sample_plane,
    "sphere-cap": _sample_sphere_cap,
    "sinusoid-sheet": _sample_sinusoid,
}


def generate_sequence(spec: SyntheticSpec) -> Sequence:
    """Sample the deforming surface once per frame.

    Frames carry the analytic normals of the surface at the sampled
    points, usable as ground truth for metric and normal tests.
    """
    sampler = _SAMPLERS[spec.kind]
    frames = []
    for t in range(spec.n_frames):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, t)))
        pos, normals = sampler(rng, spec.n_points, spec.amplitude, t * spec.phase_step)
        frames.append(Frame(pos, normals, frame_index=t))
    return Sequence(tuple(frames))

