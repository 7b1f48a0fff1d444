"""Tunables for the denoising pipeline, and the one decoder of their values."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


@dataclass
class DenoiseConfig:
    """All knobs of the pipeline.

    Every point centers one patch, so a frame of n points has m = n
    patches, and the temporal weight-sum floor is ``mprime_fraction * m``.
    Construction checks that each int field holds an integer (not a bool)
    and each float field a finite number, stored as float, in its range.
    """

    k: int = 30                 # neighbors per patch (patch size is k+1)
    patch_fraction: float = 1.0  # patches per point; 1 is the only value
    k_s: int = 10               # adjacent patches per patch (spatial graph)
    xi: int = 10                # temporal search window (candidate patches)
    c: float = 5.0              # epsilon multiplier for the patch graphs
    alpha: float = 0.5          # variation-vs-position balance in point matching
    lambda1: float = 0.5        # temporal consistency weight
    lambda2: float = 0.1        # spatial smoothness weight
    mprime_fraction: float = 0.6  # temporal weight-sum floor, fraction of m
    trace_bound: float = 5.0    # spatial kernel metric (trace_bound / 3)^2 I
    k_plane: int = 12           # neighbors for normal estimation
    cg_tol: float = 1e-8
    cg_max_iters: int = 500
    # No stage reads the three pg_* fields (the spatial metric is fixed), nor
    # patch_fraction and seed (one patch per point, so no center sampling).
    # They still parse because existing config files, such as the
    # benchmark's (perfbench/workloads.py) and the acceptance suite's, set them.
    pg_step: float = 1e-3
    pg_max_iters: int = 100
    pg_tol: float = 1e-6
    outer_max_iters: int = 10
    outer_tol: float = 1e-4     # stop once no point moves over this times the input NN spacing
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            setattr(self, f.name, _check_value(f.name, getattr(self, f.name)))

    def weight_floor(self, m: int) -> float:
        """Lower bound on the sum of temporal weights for ``m`` patches."""
        return self.mprime_fraction * m

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "DenoiseConfig":
        unknown = set(values) - set(_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)


_TYPES = {f.name: {"int": int, "float": float}[f.type] for f in fields(DenoiseConfig)}

# The interval each field's value must lie in.
_RANGES = {
    "k": "[1, inf)", "patch_fraction": "[1, 1]", "k_s": "[1, inf)", "xi": "[1, inf)",
    "c": "(0, inf)", "alpha": "[0, 1]", "lambda1": "[0, inf)", "lambda2": "[0, inf)",
    "mprime_fraction": "(0, 1]", "trace_bound": "(0, inf)", "k_plane": "[3, inf)",
    "cg_tol": "(0, inf)", "cg_max_iters": "[1, inf)", "pg_step": "(0, inf)",
    "pg_max_iters": "[1, inf)", "pg_tol": "(0, inf)", "outer_max_iters": "[1, inf)",
    "outer_tol": "(0, inf)", "seed": "[0, inf)",
}


def _check_value(name: str, value):
    """``value`` as field ``name`` stores it; a ``ValueError`` naming the field if it is bad."""
    if name not in _TYPES:
        raise ValueError(f"unknown config key {name!r}")
    kind = _TYPES[name]
    number, noun = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, number):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    interval = _RANGES[name]  # no interval holds nan or an infinity
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    below = value < high if interval[-1] == ")" else value <= high
    if not (above and below):
        raise ValueError(f"{name} must be in {interval}, got {value!r}")
    return value


def parse_value(name: str, text: str):
    """The value of field ``name`` written as ``text``, a Python int or float literal.

    Config files and command-line flags both decode through here, and the
    value is checked as the constructor checks it.
    """
    try:
        value = _TYPES[name](text)
    except (KeyError, ValueError):
        value = text  # an unknown key or no literal of the field's type: the check says which
    return _check_value(name, value)
