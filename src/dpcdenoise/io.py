"""File formats: ASCII PLY and XYZ clouds, flat config files, run manifests."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RETIRED, DenoiseConfig, parse_value
from .geometry import Frame

_FLOAT_TYPES = {"float", "float32", "float64", "double"}


class ParseError(ValueError):
    """A point-cloud or config file could not be parsed."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def read_point_cloud(path) -> Frame:
    """Read an ASCII PLY (by .ply extension) or whitespace XYZ file."""
    path = Path(path)
    if path.suffix.lower() == ".ply":
        return _read_ply(path)
    return _read_xyz(path)


def _normalize(path, line: int, normals: np.ndarray) -> np.ndarray:
    lengths = np.linalg.norm(normals, axis=1)
    bad = np.flatnonzero(lengths < 1e-12)
    if bad.size:
        raise ParseError(path, line, f"zero-length normal for vertex {bad[0]}")
    return normals / lengths[:, None]


def _read_ply(path: Path) -> Frame:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(path, 1, "missing 'ply' magic")
    n_vertices = None
    props: list[str] = []
    saw_element = False
    in_vertex = False
    saw_format = False
    body_start = None
    for ln, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                raise ParseError(path, ln, f"unsupported format {' '.join(tokens[1:])!r}")
            saw_format = True
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise ParseError(path, ln, "malformed element line")
            if tokens[1] == "vertex" and saw_element:  # the body is read as vertices first
                raise ParseError(path, ln, "'element vertex' must be the first element, and once")
            saw_element = True
            if tokens[1] == "vertex":
                try:
                    n_vertices = int(tokens[2])
                except ValueError:
                    raise ParseError(path, ln, f"bad vertex count {tokens[2]!r}") from None
                if n_vertices < 0:
                    raise ParseError(path, ln, f"negative vertex count {n_vertices}")
                in_vertex = True
            else:
                in_vertex = False
        elif tokens[0] == "property":
            if not saw_element:
                raise ParseError(path, ln, "property line before any element line")
            if in_vertex:
                if len(tokens) != 3 or tokens[1] not in _FLOAT_TYPES:
                    raise ParseError(path, ln, f"unsupported vertex property {raw.strip()!r}")
                props.append(tokens[2])
        elif tokens[0] == "end_header":
            body_start = ln
            break
        else:
            raise ParseError(path, ln, f"unexpected header line {raw.strip()!r}")
    if body_start is None:
        raise ParseError(path, len(lines), "missing end_header")
    if not saw_format:
        raise ParseError(path, 1, "missing format line")
    if n_vertices is None:
        raise ParseError(path, 1, "missing 'element vertex' declaration")
    for name in ("x", "y", "z"):
        if name not in props:
            raise ParseError(path, body_start, f"vertex element lacks property {name!r}")
    has_normals = all(name in props for name in ("nx", "ny", "nz"))
    cols = {name: i for i, name in enumerate(props)}

    # The header's count is not trusted with memory: each vertex takes a body line.
    rows = np.empty((min(n_vertices, len(lines) - body_start), len(props)))
    ln = body_start
    row = 0
    for raw in lines[body_start:]:
        ln += 1
        tokens = raw.split()
        if not tokens:
            continue
        if row >= n_vertices:
            break  # data of later elements is ignored
        if len(tokens) != len(props):
            raise ParseError(path, ln, f"expected {len(props)} values, got {len(tokens)}")
        try:
            rows[row] = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(path, ln, f"non-numeric token in {raw.strip()!r}") from None
        row += 1
    if row != n_vertices:
        raise ParseError(path, ln, f"expected {n_vertices} vertices, found {row}")
    positions = rows[:, [cols["x"], cols["y"], cols["z"]]]
    normals = None
    if has_normals:
        normals = _normalize(path, body_start, rows[:, [cols["nx"], cols["ny"], cols["nz"]]])
    try:
        return Frame(positions, normals)
    except ValueError as exc:
        raise ParseError(path, body_start, str(exc)) from None


def _read_xyz(path: Path) -> Frame:
    rows = []
    width = None
    with open(path, "r") as fh:
        for ln, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            if width is None:
                if len(tokens) not in (3, 6):
                    raise ParseError(path, ln, f"expected 3 or 6 columns, got {len(tokens)}")
                width = len(tokens)
            elif len(tokens) != width:
                raise ParseError(path, ln, f"expected {width} columns, got {len(tokens)}")
            try:
                rows.append([float(t) for t in tokens])
            except ValueError:
                raise ParseError(path, ln, f"non-numeric token in {raw.strip()!r}") from None
    if not rows:
        raise ParseError(path, 1, "no points in file")
    data = np.asarray(rows)
    normals = _normalize(path, 1, data[:, 3:6]) if width == 6 else None
    try:
        return Frame(data[:, :3], normals)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def write_point_cloud(frame: Frame, path) -> None:
    """Write an ASCII PLY with positions (and normals, when present)."""
    if len(frame) < 1:
        raise ValueError("empty frame")
    path = Path(path)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(frame)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if frame.normals is not None:
            fh.write("property float nx\nproperty float ny\nproperty float nz\n")
        fh.write("end_header\n")
        if frame.normals is not None:
            for p, n in zip(frame.positions, frame.normals):
                fh.write("%.9g %.9g %.9g %.9g %.9g %.9g\n" % (*p, *n))
        else:
            for p in frame.positions:
                fh.write("%.9g %.9g %.9g\n" % tuple(p))


def load_config(path) -> DenoiseConfig:
    """Read a flat ``key = value`` config file (blank lines and # comments allowed).

    A bad value, an unknown key or a key given twice is a ParseError at its line.
    A key of ``config.RETIRED`` is checked, then ignored.
    """
    path = Path(path)
    values: dict = {}
    lines: dict = {}
    with open(path, "r") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(path, ln, f"expected 'key = value', got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ParseError(path, ln, f"config key {key!r} given twice, "
                                           f"on lines {lines[key]} and {ln}")
            try:
                values[key] = parse_value(key, text.strip())
            except ValueError as exc:
                raise ParseError(path, ln, str(exc)) from None
            lines[key] = ln
    return DenoiseConfig(**{key: value for key, value in values.items() if key not in RETIRED})


def save_config(config: DenoiseConfig, path) -> None:
    with open(path, "w") as fh:
        for key, value in config.to_dict().items():
            fh.write(f"{key} = {value}\n")


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-identically."""

    command: str
    config: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    frame_metrics: list = field(default_factory=list)
    timings_s: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    version: str = "1"

    def save(self, path) -> None:
        text = json.dumps(self.__dict__, indent=2, sort_keys=True, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path, "r") as fh:
            data = json.load(fh)
        data.pop("seeds", None)  # older manifests recorded the retired config seed
        return cls(**data)
