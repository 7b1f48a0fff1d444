"""Tunables for the denoising pipeline."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class DenoiseConfig:
    """All knobs of the pipeline.

    Patch count and the temporal-weight lower bound are rules, not
    absolute numbers: per frame, ``m = round(patch_fraction * n_points)``
    and the weight-sum floor is ``mprime_fraction * m``.
    """

    k: int = 30                 # neighbors per patch (patch size is k+1)
    patch_fraction: float = 0.5  # patches per point
    k_s: int = 10               # adjacent patches per patch (spatial graph)
    xi: int = 10                # temporal search window (candidate patches)
    c: float = 5.0              # epsilon multiplier for the patch graphs
    alpha: float = 0.5          # variation-vs-position balance in point matching
    lambda1: float = 1.0        # temporal consistency weight
    lambda2: float = 1.0        # spatial smoothness weight
    mprime_fraction: float = 0.9  # temporal weight-sum floor, fraction of m
    trace_bound: float = 5.0    # trace cap for the learned metric factor
    k_plane: int = 12           # neighbors for normal estimation
    cg_tol: float = 1e-8
    cg_max_iters: int = 500
    pg_step: float = 1e-3
    pg_max_iters: int = 100
    pg_tol: float = 1e-6
    outer_max_iters: int = 10
    outer_tol: float = 1e-4     # stop once no point moves over this times the input NN spacing
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.patch_fraction <= 1.0:
            raise ValueError("patch_fraction must be in (0, 1]")
        if self.k_s < 1:
            raise ValueError("k_s must be >= 1")
        if self.xi < 1:
            raise ValueError("xi must be >= 1")
        if self.c <= 0.0:
            raise ValueError("c must be > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError("lambda1 and lambda2 must be >= 0")
        if not 0.0 < self.mprime_fraction <= 1.0:
            raise ValueError("mprime_fraction must be in (0, 1]")
        if self.trace_bound <= 0.0:
            raise ValueError("trace_bound must be > 0")
        if self.k_plane < 3:
            raise ValueError("k_plane must be >= 3")
        for name in ("cg_tol", "pg_step", "pg_tol", "outer_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("cg_max_iters", "pg_max_iters", "outer_max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def patch_count(self, n_points: int) -> int:
        """Number of patches for a frame of ``n_points`` points."""
        m = int(round(self.patch_fraction * n_points))
        return max(1, min(m, n_points))

    def weight_floor(self, m: int) -> float:
        """Lower bound on the sum of temporal weights for ``m`` patches."""
        return self.mprime_fraction * m

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "DenoiseConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)
