"""Output checker that works apart from the program under test.

It reads the program's PLY files with its own parser and scores them with
its own nearest-neighbour MSE and analytic surface distance, so a fault in
the program's I/O or metrics cannot hide a fault in its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

UNIT_NORMAL_TOL = 1e-6   # the program writes 9 significant digits


class CheckError(ValueError):
    """An output file is missing, malformed or wrong."""


def read_ply(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Positions and normals (None when absent) of an ASCII PLY vertex element."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CheckError(f"{path}: not a PLY file")
    n_vertices, props, body, in_vertex = None, [], None, False
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if tokens[:1] == ["element"]:
            in_vertex = tokens[1:2] == ["vertex"]
            if in_vertex and len(tokens) == 3 and tokens[2].isdigit():
                n_vertices = int(tokens[2])
        elif tokens[:1] == ["property"] and in_vertex:
            props.append(tokens[-1])
        elif tokens[:1] == ["end_header"]:
            body = i + 1
            break
    if body is None or n_vertices is None or not {"x", "y", "z"} <= set(props):
        raise CheckError(f"{path}: incomplete PLY header")
    rows = lines[body:body + n_vertices]
    if len(rows) != n_vertices:
        raise CheckError(f"{path}: header declares {n_vertices} vertices, file holds {len(rows)}")
    try:
        data = np.array(" ".join(rows).split(), dtype=np.float64)
    except ValueError:
        raise CheckError(f"{path}: non-numeric vertex data") from None
    if data.size != n_vertices * len(props):
        raise CheckError(f"{path}: vertex rows do not have {len(props)} values each")
    data = data.reshape(n_vertices, len(props))
    col = {name: i for i, name in enumerate(props)}
    positions = data[:, [col["x"], col["y"], col["z"]]]
    normals = None
    if {"nx", "ny", "nz"} <= set(col):
        normals = data[:, [col["nx"], col["ny"], col["nz"]]]
    return positions, normals


def nn_mse(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric nearest-neighbour MSE: the mean of the two directed mean
    squared distances from each cloud to its nearest point in the other."""
    d_ab, _ = cKDTree(b).query(a, k=1)
    d_ba, _ = cKDTree(a).query(b, k=1)
    return 0.5 * (float(np.mean(d_ab**2)) + float(np.mean(d_ba**2)))


@dataclass
class FrameScore:
    mse: float               # nn_mse(output, clean)
    noisy_mse: float         # nn_mse(noisy input, clean)
    surface_ms: float        # mean squared distance of the output to the surface
    noisy_surface_ms: float


@dataclass
class RoundCheck:
    """Scores of one run's outputs, and every check they failed."""

    frames: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def mse_reduction_pct(self) -> float:
        """100 (1 - sum of output MSEs / sum of noisy MSEs), pooled over frames."""
        return 100.0 * (1.0 - sum(f.mse for f in self.frames)
                        / sum(f.noisy_mse for f in self.frames))

    def surface_rms_ratio(self) -> float:
        """RMS surface distance of the outputs over that of the noisy inputs,
        pooled over frames (every frame has the same point count)."""
        return float(np.sqrt(sum(f.surface_ms for f in self.frames)
                             / sum(f.noisy_surface_ms for f in self.frames)))


def check_outputs(output_dir: Path, input_files: list, clean: list,
                  surfaces: list) -> RoundCheck:
    """Check one denoise run: one output per input with the same point count,
    finite coordinates, unit normals, and on every frame a nearest-neighbour
    MSE and a surface distance strictly below those of the noisy input file
    (read back, so a copy of the input cannot pass by rounding)."""
    result = RoundCheck()
    outputs = sorted(Path(output_dir).glob("*.ply"))
    expected = sorted(Path(output_dir) / Path(p).name for p in input_files)
    if outputs != expected:
        result.problems.append(
            f"expected outputs {[p.name for p in expected]}, found {[p.name for p in outputs]}")
        return result
    for t, input_file in enumerate(input_files):
        path = Path(output_dir) / Path(input_file).name
        noisy, _ = read_ply(input_file)
        try:
            positions, normals = read_ply(path)
        except CheckError as exc:
            result.problems.append(str(exc))
            continue
        if positions.shape != noisy.shape:
            result.problems.append(
                f"{path.name}: {len(positions)} points, input has {len(noisy)}")
            continue
        if not np.all(np.isfinite(positions)):
            result.problems.append(f"{path.name}: non-finite coordinates")
            continue
        if normals is None:
            result.problems.append(f"{path.name}: no normals")
        elif np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0)) > UNIT_NORMAL_TOL:
            result.problems.append(f"{path.name}: normals are not unit length")
        surface = surfaces[t]
        score = FrameScore(
            mse=nn_mse(positions, clean[t]),
            noisy_mse=nn_mse(noisy, clean[t]),
            surface_ms=float(np.mean(surface.distance(positions) ** 2)),
            noisy_surface_ms=float(np.mean(surface.distance(noisy) ** 2)),
        )
        result.frames.append(score)
        if not score.mse < score.noisy_mse:
            result.problems.append(
                f"{path.name}: MSE {score.mse:.6g} not below the noisy input's {score.noisy_mse:.6g}")
        if not score.surface_ms < score.noisy_surface_ms:
            result.problems.append(
                f"{path.name}: surface distance not below the noisy input's")
    return result


def differing_outputs(first_dir: Path, other_dir: Path) -> list:
    """Names of the PLY files whose bytes differ between two runs (or are missing)."""
    names = sorted(p.name for p in Path(first_dir).glob("*.ply"))
    differ = []
    for name in names:
        other = Path(other_dir) / name
        if not other.exists() or other.read_bytes() != (Path(first_dir) / name).read_bytes():
            differ.append(name)
    return differ
