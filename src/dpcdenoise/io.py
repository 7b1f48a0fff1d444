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
    return (_read_ply if path.suffix.lower() == ".ply" else _read_xyz)(path, _lines(path))


def _lines(path) -> list:
    """A file's lines: UTF-8 with surrogate escapes, split at \\n, \\r\\n and \\r only."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return fh.readlines()


def _read_rows(path, lines: list, first_line: int, width: int, count: int):
    """Up to ``count`` rows of ``width`` numbers, read with ``float()``, and their line numbers.

    ``lines`` starts at line ``first_line``. Blank lines are skipped, and
    reading stops at the first non-blank line after ``count`` rows.
    """
    # A count is not trusted with memory: each row takes a line.
    rows = np.empty((min(count, len(lines)), width))
    row_lines = []
    for ln, raw in enumerate(lines, start=first_line):
        tokens = raw.split()
        if not tokens:
            continue
        if len(row_lines) == count:
            break
        if len(tokens) != width:
            raise ParseError(path, ln, f"expected {width} values, got {len(tokens)}")
        try:
            rows[len(row_lines)] = list(map(float, tokens))
        except ValueError:
            raise ParseError(path, ln, f"non-numeric token in {raw.strip()!r}") from None
        row_lines.append(ln)
    return rows[:len(row_lines)], row_lines


def _vertices(path, line: int, rows, row_lines: list, columns: list) -> Frame:
    """The frame of ``rows`` whose ``columns`` are x, y, z and maybe nx, ny, nz, normals scaled.

    A refused vertex is named by its line; a frame of no vertex, by ``line``.
    """
    positions, normals = rows[:, columns[:3]], rows[:, columns[3:]]
    with np.errstate(over="ignore"):  # an overflowing length is refused below as not unit
        lengths = np.linalg.norm(normals, axis=1)  # zeros for a frame without normals
    if normals.shape[1]:
        bad = np.flatnonzero(lengths < 1e-12)
        if bad.size:
            raise ParseError(path, row_lines[bad[0]], f"zero-length normal for vertex {bad[0]}")
    try:
        return Frame(positions, normals / lengths[:, None] if normals.shape[1] else None)
    except ValueError as exc:
        # A Frame refuses non-finite positions first, then normals of non-finite length.
        for bad in (~np.all(np.isfinite(positions), axis=1), ~np.isfinite(lengths)):
            if bad.any():
                line = row_lines[np.argmax(bad)]
                break
        raise ParseError(path, line, str(exc)) from None


def _read_ply(path: Path, lines: list) -> Frame:
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
    cols = {name: i for i, name in enumerate(props)}
    names = ["x", "y", "z"] + (["nx", "ny", "nz"] if {"nx", "ny", "nz"} <= cols.keys() else [])
    rows, row_lines = _read_rows(path, lines[body_start:], body_start + 1, len(props), n_vertices)
    if len(rows) != n_vertices:
        raise ParseError(path, len(lines), f"expected {n_vertices} vertices, found {len(rows)}")
    return _vertices(path, body_start, rows, row_lines, [cols[name] for name in names])


def _read_xyz(path: Path, lines: list) -> Frame:
    first = next((ln for ln, raw in enumerate(lines, start=1) if raw.split()), None)
    if first is None:
        raise ParseError(path, 1, "no points in file")
    width = len(lines[first - 1].split())
    if width not in (3, 6):
        raise ParseError(path, first, f"expected 3 or 6 columns, got {width}")
    rows, row_lines = _read_rows(path, lines, 1, width, len(lines))
    return _vertices(path, 1, rows, row_lines, list(range(width)))


# Rows formatted by one ``%`` operation.
_WRITE_BLOCK = 4096


def write_point_cloud(frame: Frame, path) -> None:
    """Write an ASCII PLY with positions (and normals, when present)."""
    data = np.hstack([a for a in (frame.positions, frame.normals) if a is not None])
    names = ("x", "y", "z", "nx", "ny", "nz")[:data.shape[1]]
    row = " ".join(["%.9g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"ply\nformat ascii 1.0\nelement vertex {len(data)}\n")
        fh.write("".join(f"property float {name}\n" for name in names) + "end_header\n")
        for start in range(0, len(data), _WRITE_BLOCK):
            block = data[start:start + _WRITE_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def load_config(path) -> DenoiseConfig:
    """Read a flat ``key = value`` config file (blank lines and # comments allowed).

    A bad value, an unknown key or a key given twice is a ParseError at its line.
    A key of ``config.RETIRED`` is checked, then ignored.
    """
    path = Path(path)
    values: dict = {}
    lines: dict = {}
    for ln, raw in enumerate(_lines(path), start=1):
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
