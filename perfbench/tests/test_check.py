"""Tests of the benchmark's output checker (run: python3 -m pytest perfbench/tests)."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
from workloads import Surface, Workload, make_inputs, write_ply  # noqa: E402

UP = np.array([0.0, 0.0, 1.0])


def write_outputs(out_dir, inputs, clouds):
    out_dir.mkdir()
    for path, cloud in zip(inputs.files, clouds):
        write_ply(out_dir / path.name, cloud, np.tile(UP, (len(cloud), 1)))
    return out_dir


def run_check(out_dir, inputs):
    return check.check_outputs(out_dir, inputs.files, inputs.clean, inputs.surfaces)


@pytest.fixture
def sheet(tmp_path):
    return make_inputs(Workload("t", "sheet", 300, 2, 0.02), seed=5, directory=tmp_path / "in")


def test_accepts_hand_built_case_with_known_mse(tmp_path):
    # Flat sheet (A = 0) sampled on a 0.25 grid: a point lifted by h has its
    # nearest clean point straight below, so the NN MSE is exactly h^2.
    grid = np.linspace(0.0, 1.0, 5)
    clean = np.array([(x, y, 0.0) for x in grid for y in grid])
    noisy = clean + (0.0, 0.0, 0.1)
    write_ply(tmp_path / "frame_000.ply", noisy)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    write_ply(out_dir / "frame_000.ply", clean + (0.0, 0.0, 0.05), np.tile(UP, (len(clean), 1)))
    result = check.check_outputs(out_dir, [tmp_path / "frame_000.ply"], [clean],
                                 [Surface("sheet", 0, amplitude=0.0)])
    assert result.ok, result.problems
    assert result.frames[0].noisy_mse == pytest.approx(0.01, rel=1e-12)
    assert result.frames[0].mse == pytest.approx(0.0025, rel=1e-12)
    assert result.mse_reduction_pct() == pytest.approx(75.0, rel=1e-12)
    assert result.surface_rms_ratio() == pytest.approx(0.5, rel=1e-12)


def test_accepts_clean_cloud(tmp_path, sheet):
    result = run_check(write_outputs(tmp_path / "out", sheet, sheet.clean), sheet)
    assert result.ok, result.problems
    assert result.mse_reduction_pct() == pytest.approx(100.0)


def test_rejects_noisy_input_passed_off_as_output(tmp_path, sheet):
    noisy = [check.read_ply(path)[0] for path in sheet.files]
    result = run_check(write_outputs(tmp_path / "out", sheet, noisy), sheet)
    assert not result.ok
    assert sum("not below" in p for p in result.problems) == 2 * len(sheet.files)


def test_rejects_shifted_cloud(tmp_path, sheet):
    shifted = [c + (0.0, 0.0, 0.1) for c in sheet.clean]
    result = run_check(write_outputs(tmp_path / "out", sheet, shifted), sheet)
    assert not result.ok
    assert any("MSE" in p for p in result.problems)


def test_rejects_truncated_file(tmp_path, sheet):
    out_dir = write_outputs(tmp_path / "out", sheet, sheet.clean)
    path = out_dir / sheet.files[1].name
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-10]))
    result = run_check(out_dir, sheet)
    assert not result.ok
    assert any("vertices" in p for p in result.problems)


def test_rejects_missing_output_and_wrong_point_count(tmp_path, sheet):
    out_dir = write_outputs(tmp_path / "out", sheet, [c[:-1] for c in sheet.clean])
    assert any("points, input has" in p for p in run_check(out_dir, sheet).problems)
    (out_dir / sheet.files[0].name).unlink()
    assert any("expected outputs" in p for p in run_check(out_dir, sheet).problems)


def test_rejects_non_unit_normals(tmp_path, sheet):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for path, cloud in zip(sheet.files, sheet.clean):
        write_ply(out_dir / path.name, cloud, np.tile(2.0 * UP, (len(cloud), 1)))
    assert any("unit length" in p for p in run_check(out_dir, sheet).problems)


def test_differing_outputs_finds_changed_bytes(tmp_path, sheet):
    a = write_outputs(tmp_path / "a", sheet, sheet.clean)
    b = write_outputs(tmp_path / "b", sheet, sheet.clean)
    assert check.differing_outputs(a, b) == []
    moved = [c.copy() for c in sheet.clean]
    moved[1][0, 0] += 1e-6
    c = write_outputs(tmp_path / "c", sheet, moved)
    assert check.differing_outputs(a, c) == [sheet.files[1].name]
