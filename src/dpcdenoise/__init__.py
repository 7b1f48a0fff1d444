"""Denoising of dynamic (time-varying) 3D point cloud sequences.

The pipeline decomposes each frame into overlapping surface patches,
matches patches against the previously denoised frame through a
normal-variation distance, and alternately optimizes the point
positions, the temporal patch weights, and the intra-frame graph
Laplacian until the joint objective stops improving.
"""

from .config import DenoiseConfig
from .geometry import (
    Frame,
    NeighborIndex,
    Sequence,
    build_neighbor_index,
    downsample_random,
    estimate_normals,
    farthest_point_sampling,
    knn,
    mean_nn_distance,
    orient_normals,
)
from .graph import (
    RwLaplacian,
    SparseGraph,
    apply_rw,
    build_epsilon_graph,
    random_walk_laplacian,
)
from .matching import (
    ReferencePatches,
    match_patches,
    patch_distance,
    point_correspondence,
    prepare_reference,
    variation_measure,
)
from .metrics import FrameMetrics, MetricsReport, add_gaussian_noise, gpsnr, mse_index, mse_nn
from .optimize import (
    ObjectiveBreakdown,
    SolverError,
    denoise_frame,
    denoise_sequence,
    learn_metric,
    objective,
    solve_point_cloud,
    solve_temporal_weights,
)
from .patches import Patch, PatchSet, build_patches, patch_epsilon, relative_coords
from .stgraph import (
    SpatialEdges,
    TemporalWeights,
    initial_spatial_weights,
    spatial_connectivity,
    temporal_weight_init,
    weighted_spatial_graph,
)
from .synthetic import SyntheticSpec, generate_sequence, sample_gaussian_bump

__version__ = "0.1.0"

__all__ = [
    "DenoiseConfig",
    "Frame",
    "FrameMetrics",
    "MetricsReport",
    "NeighborIndex",
    "ObjectiveBreakdown",
    "Patch",
    "PatchSet",
    "ReferencePatches",
    "RwLaplacian",
    "Sequence",
    "SolverError",
    "SparseGraph",
    "SpatialEdges",
    "SyntheticSpec",
    "TemporalWeights",
    "add_gaussian_noise",
    "apply_rw",
    "build_epsilon_graph",
    "build_neighbor_index",
    "build_patches",
    "denoise_frame",
    "denoise_sequence",
    "downsample_random",
    "estimate_normals",
    "farthest_point_sampling",
    "generate_sequence",
    "gpsnr",
    "initial_spatial_weights",
    "knn",
    "learn_metric",
    "match_patches",
    "mean_nn_distance",
    "mse_index",
    "mse_nn",
    "objective",
    "orient_normals",
    "patch_distance",
    "patch_epsilon",
    "point_correspondence",
    "prepare_reference",
    "random_walk_laplacian",
    "relative_coords",
    "sample_gaussian_bump",
    "solve_point_cloud",
    "solve_temporal_weights",
    "spatial_connectivity",
    "temporal_weight_init",
    "weighted_spatial_graph",
]
