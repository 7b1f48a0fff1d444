"""Tunables for the denoising pipeline, and the one decoder of their values."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields


def _setting(default, interval: str, meaning: str):
    """A config field: the one declaration of its default, its interval and what it sets."""
    return field(default=default, metadata={"interval": interval, "meaning": meaning})


@dataclass
class DenoiseConfig:
    """All knobs of the pipeline; a pipeline stage reads every field.

    Every point centers one patch, so a frame of n points has m = n
    patches, and the temporal weight-sum floor is ``mprime_fraction * m``.
    Construction checks that each int field holds an integer (not a bool)
    and each float field a finite number, stored as float, in its interval.
    The keys of ``RETIRED`` are not fields; only config files may hold them.
    """

    k: int = _setting(30, "[1, inf)", "neighbors per patch (patch size is k+1)")
    k_s: int = _setting(10, "[1, inf)", "adjacent patches per patch (spatial graph)")
    xi: int = _setting(10, "[1, inf)", "temporal search window (candidate patches)")
    c: float = _setting(5.0, "(0, inf)", "epsilon multiplier for the patch graphs")
    alpha: float = _setting(0.5, "[0, 1]", "variation-vs-position balance in point matching")
    lambda1: float = _setting(0.5, "[0, inf)", "temporal consistency weight")
    lambda2: float = _setting(0.1, "[0, inf)", "spatial smoothness weight")
    mprime_fraction: float = _setting(0.6, "(0, 1]", "temporal weight-sum floor, fraction of m")
    trace_bound: float = _setting(5.0, "(0, inf)", "spatial kernel metric (trace_bound / 3)^2 I")
    k_plane: int = _setting(12, "[3, inf)", "neighbors for normal estimation")
    cg_tol: float = _setting(1e-8, "(0, inf)", "conjugate gradient relative residual target")
    cg_max_iters: int = _setting(500, "[1, inf)", "conjugate gradient step limit per solve")
    outer_max_iters: int = _setting(10, "[1, inf)", "outer iterations per frame")
    outer_tol: float = _setting(1e-4, "(0, inf)", "stop once moves stay within this many spacings")

    def __post_init__(self) -> None:
        for f in fields(self):
            setattr(self, f.name, check_value(f.name, getattr(self, f.name)))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_TYPES = {f.name: {"int": int, "float": float}[f.type] for f in fields(DenoiseConfig)}
_INTERVALS = {f.name: f.metadata["interval"] for f in fields(DenoiseConfig)}
# Deleted fields that config files written before they went, the benchmark's
# among them, still set: ``io.load_config`` checks each as a float in its old
# interval, then drops it.
RETIRED = {"patch_fraction": "[1, 1]", "seed": "[0, inf)", "pg_step": "(0, inf)",
           "pg_max_iters": "[1, inf)", "pg_tol": "(0, inf)"}


def check_value(name: str, value):
    """``value`` as field ``name`` stores it; a ``ValueError`` naming the field if it is bad."""
    interval = _INTERVALS.get(name) or RETIRED.get(name)  # no interval holds nan or an infinity
    if interval is None:
        raise ValueError(f"unknown config key {name!r}")
    kind = _TYPES.get(name, float)
    number, noun = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, number):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    below = value < high if interval[-1] == ")" else value <= high
    if not (above and below):
        raise ValueError(f"{name} must be in {interval}, got {value!r}")
    return value


def parse_value(name: str, text: str):
    """The value of field ``name`` written as ``text``, a Python int or float literal.

    Config files and command-line flags both decode through here, and the
    value is checked as the constructor checks it. A ``RETIRED`` key decodes
    as a float field in its old interval.
    """
    try:
        value = _TYPES.get(name, float)(text)
    except ValueError:
        value = text  # no literal of the field's type, or an unknown key: the check says which
    return check_value(name, value)
