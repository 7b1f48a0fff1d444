"""Evaluation metrics and Gaussian noise injection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Frame, knn_rows

GPSNR_PEAK = 5.0   # the default peak of gpsnr, and of eval --peak


@dataclass
class FrameMetrics:
    """Per-frame optimizer diagnostics."""

    frame_index: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"frame_index": self.frame_index, "diagnostics": self.diagnostics}


def add_gaussian_noise(frame: Frame, sigma: float, seed: int) -> Frame:
    """Add i.i.d. zero-mean Gaussian noise per coordinate.

    Normals are dropped: they no longer describe the perturbed surface
    and must be re-estimated.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=frame.positions.shape) if sigma > 0 else 0.0
    return Frame(frame.positions + noise, None, frame.frame_index)


def mse_nn(a: Frame, b: Frame) -> float:
    """Symmetric nearest-neighbor mean squared error."""
    gap_ab = a.positions - b.positions[_nearest_in(b, a)]
    gap_ba = b.positions - a.positions[_nearest_in(a, b)]
    return 0.5 * (float(np.mean(np.sum(gap_ab**2, axis=1)))
                  + float(np.mean(np.sum(gap_ba**2, axis=1))))


def _nearest_in(stored: Frame, query: Frame) -> np.ndarray:
    """Per query point, the index of its nearest stored point (ties by lower index)."""
    return knn_rows(stored.positions, query.positions, 1)[:, 0]


def mse_index(a: Frame, b: Frame) -> float:
    """Mean squared error between identically indexed points."""
    if len(a) != len(b):
        raise ValueError("frames must have the same cardinality")
    return float(np.mean(np.sum((a.positions - b.positions) ** 2, axis=1)))


def gpsnr(test: Frame, reference: Frame, peak: float = GPSNR_PEAK) -> float:
    """Point-to-plane PSNR in decibels.

    Errors are projected onto the reference normals before averaging:
    test-to-reference uses the nearest reference point's normal, and
    reference-to-test uses each reference point's own normal. The worse
    (larger) directional MSE is converted against ``peak``; identical
    clouds give +infinity.
    """
    if reference.normals is None:
        raise ValueError("reference frame has no normals")
    if not (math.isfinite(peak) and peak > 0):
        raise ValueError("peak must be finite and > 0")
    nearest_ref = _nearest_in(reference, test)
    delta = test.positions - reference.positions[nearest_ref]
    proj = np.einsum("ij,ij->i", delta, reference.normals[nearest_ref])
    mse_fwd = float(np.mean(proj**2))
    nearest_test = _nearest_in(test, reference)
    delta = reference.positions - test.positions[nearest_test]
    proj = np.einsum("ij,ij->i", delta, reference.normals)
    mse_bwd = float(np.mean(proj**2))
    worst = max(mse_fwd, mse_bwd)
    if worst == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / worst)
