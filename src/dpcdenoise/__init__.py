"""Denoising of dynamic (time-varying) 3D point cloud sequences.

The pipeline decomposes each frame into overlapping surface patches,
matches patches against the previously denoised frame through a
normal-variation distance, and alternately optimizes the point
positions, the temporal patch weights, and the intra-frame graph
Laplacian until an outer iteration moves no point by more than a set
share of the frame's mean nearest-neighbour spacing, or an iteration cap.

The package exports the entry points; every stage stays reachable
through its submodule (``dpcdenoise.patches``, ``dpcdenoise.stgraph``, ...).
"""

from .config import DenoiseConfig
from .geometry import Frame, Sequence
from .metrics import FrameMetrics, add_gaussian_noise, gpsnr, mse_index, mse_nn
from .optimize import SolverError, denoise_frame, denoise_sequence
from .synthetic import SyntheticSpec, generate_sequence

__version__ = "0.1.0"

__all__ = [
    "DenoiseConfig",
    "Frame",
    "FrameMetrics",
    "Sequence",
    "SolverError",
    "SyntheticSpec",
    "add_gaussian_noise",
    "denoise_frame",
    "denoise_sequence",
    "generate_sequence",
    "gpsnr",
    "mse_index",
    "mse_nn",
]
