import json

import numpy as np
import pytest

from dpcdenoise.cli import cli_main
from dpcdenoise.config import DenoiseConfig
from dpcdenoise.geometry import Frame
from dpcdenoise.io import RunManifest, read_point_cloud, write_point_cloud
from dpcdenoise.optimize import denoise_frame


def run(argv):
    return cli_main(argv)


def synth_args(out_dir, points=80, frames=2, kind="sinusoid-sheet"):
    return [
        "synth", "--kind", kind, "--points", str(points), "--frames", str(frames),
        "--amplitude", "0.1", "--phase-step", "0.02", "--seed", "5",
        "--out-dir", str(out_dir),
    ]


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["synth", "--bogus", "1"]) == 1

    def test_eval_length_mismatch(self, tmp_path, capsys):
        f = tmp_path / "a.ply"
        write_point_cloud(Frame([[0.0, 0.0, 0.0]]), f)
        code = run(["eval", "--clean", str(f), "--test", str(f), str(f)])
        assert code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--peak", "nan"), ("--peak", "inf"), ("--peak", "-1"), ("--peak", "0"),
        ("--k-plane", "2"),
    ])
    def test_bad_eval_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        run(synth_args(tmp_path / "clean", points=60, frames=1))
        clean = str(tmp_path / "clean" / "clean_000.ply")
        assert run(["eval", "--clean", clean, "--test", clean, flag, value]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and flag in err

    @pytest.mark.parametrize("command", [
        ["noise", "--sigma", "0.02"],
        ["denoise", "--k", "8", "--k-s", "3", "--outer-max-iters", "1"],
    ], ids=["noise", "denoise"])
    def test_inputs_of_one_name_are_refused_before_anything_is_written(self, tmp_path,
                                                                        capsys, command):
        # Both inputs would be written to OUT_DIR/clean_000.ply, the second over
        # the first, so the run is refused before --out-dir is created.
        for side in ("a", "b"):
            run(synth_args(tmp_path / side, points=50, frames=1))
        first, second = (tmp_path / side / "clean_000.ply" for side in ("a", "b"))
        out_dir = tmp_path / "out"
        assert run(command + ["--out-dir", str(out_dir), str(first), str(second)]) == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: inputs {first} and {second} would both be written "
                       f"to {out_dir / 'clean_000.ply'}\n")
        assert not out_dir.exists()


class TestSynthNoise:
    def test_synth_writes_frames(self, tmp_path):
        assert run(synth_args(tmp_path / "clean")) == 0
        files = sorted((tmp_path / "clean").glob("*.ply"))
        assert [f.name for f in files] == ["clean_000.ply", "clean_001.ply"]
        frame = read_point_cloud(files[0])
        assert len(frame) == 80
        assert frame.normals is not None

    def test_noise_preserves_count_drops_normals(self, tmp_path):
        run(synth_args(tmp_path / "clean", points=50, frames=1))
        src = tmp_path / "clean" / "clean_000.ply"
        assert run(["noise", "--sigma", "0.02", "--seed", "3",
                    "--out-dir", str(tmp_path / "noisy"), str(src)]) == 0
        noisy = read_point_cloud(tmp_path / "noisy" / "clean_000.ply")
        assert len(noisy) == 50
        assert noisy.normals is None

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_data_error(self, tmp_path, capsys, sigma):
        run(synth_args(tmp_path / "clean", points=50, frames=1))
        src = tmp_path / "clean" / "clean_000.ply"
        assert run(["noise", "--sigma", sigma, "--out-dir", str(tmp_path / "noisy"),
                    str(src)]) == 2
        assert "data error: sigma must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "noisy" / "clean_000.ply").exists()
        assert not (tmp_path / "noisy").exists()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        # Every input is read before anything is written: a missing second
        # input leaves no output directory, not even the first frame's file.
        run(synth_args(tmp_path / "clean", points=50, frames=1))
        code = run(["noise", "--sigma", "0.1", "--out-dir", str(tmp_path / "noisy"),
                    str(tmp_path / "clean" / "clean_000.ply"), str(tmp_path / "nope.ply")])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "noisy").exists()

    def test_solver_failure_is_exit_code_3(self, tmp_path, capsys):
        run(synth_args(tmp_path / "clean", points=60, frames=1))
        noisy_dir = tmp_path / "noisy"
        run(["noise", "--sigma", "0.05", "--seed", "1", "--out-dir", str(noisy_dir),
             str(tmp_path / "clean" / "clean_000.ply")])
        code = run(["denoise", "--out-dir", str(tmp_path / "out"),
                    "--k", "8", "--k-s", "3", "--lambda2", "5",
                    "--cg-tol", "1e-15", "--cg-max-iters", "1",
                    str(noisy_dir / "clean_000.ply")])
        assert code == 3
        assert "solver error" in capsys.readouterr().err


class TestDenoise:
    def test_zero_lambdas_round_trips_values(self, tmp_path):
        run(synth_args(tmp_path / "clean", points=60, frames=2))
        inputs = sorted((tmp_path / "clean").glob("*.ply"))
        out_dir = tmp_path / "out"
        code = run(["denoise", "--out-dir", str(out_dir),
                    "--lambda1", "0", "--lambda2", "0",
                    "--k", "8", "--k-s", "3", "--xi", "3",
                    *[str(p) for p in inputs]])
        assert code == 0
        for src in inputs:
            a = read_point_cloud(src)
            b = read_point_cloud(out_dir / src.name)
            assert np.array_equal(a.positions, b.positions)

    def test_manifest_written_and_complete(self, tmp_path):
        run(synth_args(tmp_path / "clean", points=60, frames=2))
        inputs = sorted((tmp_path / "clean").glob("*.ply"))
        out_dir = tmp_path / "out"
        run(["denoise", "--out-dir", str(out_dir), "--k", "8", "--k-s", "3",
            "--outer-max-iters", "2", *[str(p) for p in inputs]])
        manifest = RunManifest.load(out_dir / "manifest.json")
        assert manifest.command == "denoise"
        assert manifest.config["k"] == 8
        # The denoiser draws no random numbers, so there is no seed to record.
        assert "seeds" not in json.loads((out_dir / "manifest.json").read_text())

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        # Strict JSON: no NaN or Infinity token, which JSON does not define.
        json.loads((out_dir / "manifest.json").read_text(), parse_constant=reject)
        assert len(manifest.frame_metrics) == 2
        assert all(set(frame) == {"frame_index", "diagnostics"}
                   for frame in manifest.frame_metrics)
        # The loop's stop reason, the input spacing, and per pass its largest
        # point move, its mean normal and tangential moves over the spacing,
        # its spatial graph's size, an edge-weight summary and, per axis, the
        # point solve's CG products and final relative residual.
        # The spatial metric is fixed, so no key reports on learning it.
        diag = manifest.frame_metrics[0]["diagnostics"]
        assert diag["stop_reason"] in ("tol", "max_iters")
        assert diag["spacing"] > 0.0
        passes = len(diag["largest_move"])
        assert passes >= 1
        for key in ("largest_move", "normal_move", "tangent_move", "edge_weights",
                    "spatial_edges", "spatial_pairs", "cg_iters", "cg_residual"):
            assert len(diag[key]) == passes, key
        assert set(diag) == {"stop_reason", "spacing", "degenerate_normals", "largest_move",
                             "normal_move", "tangent_move", "spatial_edges", "spatial_pairs",
                             "edge_weights", "cg_iters", "cg_residual", "match_dist",
                             "patch_weights"}
        for largest, normal, tangent in zip(diag["largest_move"], diag["normal_move"],
                                            diag["tangent_move"]):
            # A mean part of the moves is at most the largest move, up to rounding.
            assert 0.0 <= normal <= largest / diag["spacing"] * (1 + 1e-12)
            assert 0.0 <= tangent <= largest / diag["spacing"] * (1 + 1e-12)
        # Frame 0 has no reference, so it matches nothing; frame 1 reports,
        # per pass, match-distance quantiles and the patches weighing 0 and 1.
        assert diag["match_dist"] == diag["patch_weights"] == []
        later = manifest.frame_metrics[1]["diagnostics"]
        passes_1 = len(later["largest_move"])
        assert len(later["match_dist"]) == len(later["patch_weights"]) == passes_1
        patches = 60
        for dist, weights in zip(later["match_dist"], later["patch_weights"]):
            assert 0.0 <= dist["p50"] <= dist["p95"]
            assert 0 <= weights["zero"] and 0 <= weights["one"]
            assert weights["zero"] + weights["one"] <= patches
        for products, residuals in zip(diag["cg_iters"], diag["cg_residual"]):
            assert len(products) == len(residuals) == 3
            assert all(count >= 1 for count in products)
            assert all(0.0 <= r <= manifest.config["cg_tol"] for r in residuals)
        assert "factor_trace" not in diag
        for pairs, edges in zip(diag["spatial_pairs"], diag["spatial_edges"]):
            assert 0 < pairs <= edges
        assert "best_iteration" not in manifest.frame_metrics[0]
        for entry in diag["edge_weights"]:
            assert 0.0 <= entry["p5"] <= entry["p50"] <= entry["p95"] <= 1.0
            assert 0.0 <= entry["underflow_share"] <= 1.0

    def test_frames_of_duplicated_points_are_a_data_error(self, tmp_path, capsys):
        # Each input stacked on a copy of itself: every point coincides with
        # another, so the frame has no spacing to measure moves by.
        run(synth_args(tmp_path / "clean", points=150, frames=2))
        doubled = tmp_path / "doubled"
        doubled.mkdir()
        for path in sorted((tmp_path / "clean").glob("*.ply")):
            pts = read_point_cloud(path).positions
            write_point_cloud(Frame(np.concatenate([pts, pts])), doubled / path.name)
        out_dir = tmp_path / "out"
        code = run(["denoise", "--out-dir", str(out_dir), "--k", "8", "--k-s", "4",
                    *[str(p) for p in sorted(doubled.glob("*.ply"))]])
        assert code == 2
        assert "every point coincides with another point" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        run(synth_args(tmp_path / "clean", points=60, frames=1))
        inputs = sorted((tmp_path / "clean").glob("*.ply"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 8\nk_s = 3\nlambda2 = 0.5\nouter_max_iters = 1\n")
        out_dir = tmp_path / "out"
        run(["denoise", "--config", str(cfg), "--out-dir", str(out_dir),
             "--lambda2", "0.25", *[str(p) for p in inputs]])
        manifest = RunManifest.load(out_dir / "manifest.json")
        assert manifest.config["lambda2"] == 0.25  # flag beats file
        assert manifest.config["k"] == 8

    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys):
        run(synth_args(tmp_path / "clean", points=60, frames=1))
        inputs = [str(p) for p in sorted((tmp_path / "clean").glob("*.ply"))]
        for value in ("nan", "inf"):
            code = run(["denoise", "--out-dir", str(tmp_path / "out"), "--lambda2", value,
                        *inputs])
            assert code == 1
            err = capsys.readouterr().err
            assert f"argument --lambda2: lambda2 must be in [0, inf), got {value}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["lambda2 = nan", "outer_tol = nan"])
    def test_non_finite_config_value_is_data_error(self, tmp_path, capsys, line):
        run(synth_args(tmp_path / "clean", points=60, frames=1))
        inputs = [str(p) for p in sorted((tmp_path / "clean").glob("*.ply"))]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"k = 8\n{line}\n")
        code = run(["denoise", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                    *inputs])
        assert code == 2
        key = line.split()[0]
        assert f"run.cfg:2: {key} must be in" in capsys.readouterr().err


class TestEval:
    def test_identical_sequences(self, tmp_path, capsys):
        run(synth_args(tmp_path / "clean", points=60, frames=2))
        inputs = sorted((tmp_path / "clean").glob("*.ply"))
        code = run(["eval", "--clean", *[str(p) for p in inputs],
                    "--test", *[str(p) for p in inputs]])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "frame,mse_nn,mse_index,gpsnr_db"
        for t, line in enumerate(lines[1:]):
            frame, mse_nn, mse_idx, db = line.split(",")
            assert int(frame) == t
            assert float(mse_nn) == 0.0
            assert float(mse_idx) == 0.0
            assert db == "inf"

    def test_mse_index_blank_on_cardinality_mismatch(self, tmp_path, capsys):
        big = Frame(np.random.default_rng(0).uniform(0, 1, (30, 3)))
        small = Frame(big.positions[:20])
        clean_path = tmp_path / "clean.ply"
        test_path = tmp_path / "test.ply"
        write_point_cloud(big, clean_path)
        write_point_cloud(small, test_path)
        assert run(["eval", "--clean", str(clean_path), "--test", str(test_path),
                    "--k-plane", "8"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        frame, mse_nn, mse_idx, db = row.split(",")
        assert mse_idx == ""
        assert float(mse_nn) >= 0.0

    def test_csv_file_and_manifest(self, tmp_path):
        run(synth_args(tmp_path / "clean", points=60, frames=1))
        clean = sorted((tmp_path / "clean").glob("*.ply"))
        run(["noise", "--sigma", "0.01", "--out-dir", str(tmp_path / "noisy"),
             *[str(p) for p in clean]])
        noisy = sorted((tmp_path / "noisy").glob("*.ply"))
        csv_path = tmp_path / "metrics.csv"
        manifest_path = tmp_path / "eval.json"
        code = run(["eval", "--clean", *[str(p) for p in clean],
                    "--test", *[str(p) for p in noisy],
                    "--out", str(csv_path), "--manifest", str(manifest_path)])
        assert code == 0
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 2
        data = json.loads(manifest_path.read_text())
        assert data["command"] == "eval"
        assert data["frame_metrics"][0]["mse_nn"] > 0


class TestMatch:
    def test_match_csv(self, tmp_path, capsys):
        run(synth_args(tmp_path / "clean", points=100, frames=2))
        frames = sorted((tmp_path / "clean").glob("*.ply"))
        code = run(["match", "--prev", str(frames[0]), "--curr", str(frames[1]),
                    "--k", "8", "--xi", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "target_patch,matched_patch,distance,weight"
        assert len(lines) == 101
        for line in lines[1:]:
            target, matched, dist, weight = line.split(",")
            assert 0 <= int(matched) < 100
            assert float(dist) >= 0
            assert 0 < float(weight) <= 1

    def test_match_frames_of_unequal_size(self, tmp_path, capsys):
        # With k = 50 both frames' patches are capped at 40 members; every
        # point of the 400-point frame centers one, matched to one of 40.
        run(synth_args(tmp_path / "prev", points=40, frames=1))
        run(synth_args(tmp_path / "curr", points=400, frames=1))
        prev, = (tmp_path / "prev").glob("*.ply")
        curr, = (tmp_path / "curr").glob("*.ply")
        assert run(["match", "--prev", str(prev), "--curr", str(curr), "--k", "50"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 400
        assert {int(row.split(",")[1]) for row in rows} <= set(range(40))

    @pytest.mark.parametrize("patch_fraction", [None, 1.0])
    def test_match_is_the_first_pass_of_denoise(self, tmp_path, capsys, monkeypatch,
                                                patch_fraction):
        # match prints the matches denoise makes in its first pass over frame 1,
        # with --prev as frame 0 (its file normals reused) and --curr as frame 1.
        # --patch-fraction is no flag any more (one patch per point is the only design).
        import dpcdenoise.cli as cli
        import dpcdenoise.optimize as opt

        run(synth_args(tmp_path / "clean", points=120, frames=2))
        prev_path, curr_path = sorted((tmp_path / "clean").glob("*.ply"))
        prev, curr = read_point_cloud(prev_path), read_point_cloud(curr_path)
        assert prev.normals is not None and curr.normals is not None
        captured = {}

        class FirstPassDone(Exception):
            pass

        def capture(key, real, stop):
            def match(*args):
                captured[key] = real(*args)
                if stop:
                    raise FirstPassDone
                return captured[key]
            return match

        monkeypatch.setattr(opt, "match_patches", capture("denoise", opt.match_patches, True))
        monkeypatch.setattr(cli, "match_patches", capture("match", cli.match_patches, False))
        with pytest.raises(FirstPassDone):
            denoise_frame(Frame(curr.positions, curr.normals, 1), prev, DenoiseConfig())
        match_args = ["match", "--prev", str(prev_path), "--curr", str(curr_path)]
        if patch_fraction is not None:
            assert run([*match_args, "--patch-fraction", str(patch_fraction)]) == 1
            assert "unrecognized arguments: --patch-fraction" in capsys.readouterr().err
        assert run(match_args) == 0
        for want, got in zip(captured["denoise"], captured["match"]):
            assert want.dtype == got.dtype and np.array_equal(want, got)
        matched, distance, _ = captured["denoise"]
        assert len(matched) == 120
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        pairs = enumerate(zip(matched.tolist(), distance.tolist()))
        assert [row.rsplit(",", 1)[0] for row in rows] == [f"{t},{b},{d:.9g}" for t, (b, d) in pairs]


class TestClumpedFrames:
    @pytest.mark.parametrize("k", [10, 12])
    @pytest.mark.parametrize("clumped, flags", [(1, []), (0, ["--lambda2", "0"])],
                             ids=["current", "reference"])
    def test_clump_of_coincident_points_denoises_at_any_k(self, tmp_path, clumped, flags, k):
        # 12 coincident points: at k = 10 the patches centred in the clump
        # hold only clump points, at k = 12 they reach beyond it. Such a patch
        # takes c times the frame's spacing as its radius, so the run goes
        # through either way, with the clump in frame 1 or, with no spatial
        # term to spread it, carried from frame 0 into frame 1's reference.
        run(synth_args(tmp_path / "clean", points=300, frames=2))
        inputs = sorted((tmp_path / "clean").glob("*.ply"))
        pts = np.array(read_point_cloud(inputs[clumped]).positions)
        pts[:12] = pts[0]
        write_point_cloud(Frame(pts), inputs[clumped])
        out_dir = tmp_path / "denoised"
        code = run(["denoise", "--k", str(k), "--k-s", "4", "--outer-max-iters", "2", *flags,
                    "--out-dir", str(out_dir), *map(str, inputs)])
        assert code == 0
        assert all(np.all(np.isfinite(read_point_cloud(out_dir / p.name).positions))
                   for p in inputs)


class TestPipeline:
    def test_full_synth_noise_denoise_eval(self, tmp_path):
        run(synth_args(tmp_path / "clean", points=120, frames=2))
        clean = sorted((tmp_path / "clean").glob("*.ply"))
        assert run(["noise", "--sigma", "0.015", "--seed", "2",
                    "--out-dir", str(tmp_path / "noisy"),
                    *[str(p) for p in clean]]) == 0
        noisy = sorted((tmp_path / "noisy").glob("*.ply"))
        out_dir = tmp_path / "denoised"
        denoise_args = ["denoise", "--out-dir", str(out_dir), "--k", "10", "--k-s", "4",
                        "--xi", "4", "--lambda2", "0.1", "--outer-max-iters", "3",
                        *[str(p) for p in noisy]]
        assert run([*denoise_args, "--patch-fraction", "1.0"]) == 1  # a deleted field
        assert not out_dir.exists()
        assert run(denoise_args) == 0
        denoised = sorted(out_dir.glob("*.ply"))
        csv_path = tmp_path / "metrics.csv"
        assert run(["eval", "--clean", *[str(p) for p in clean],
                    "--test", *[str(p) for p in denoised],
                    "--out", str(csv_path)]) == 0
        assert (out_dir / "manifest.json").exists()
        assert len(csv_path.read_text().strip().splitlines()) == 3
